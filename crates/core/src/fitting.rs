//! Fitting Cobb-Douglas utilities to performance profiles (§4.4, Eq. 16).
//!
//! Given profile points `(x, u)` — resource allocations and measured
//! performance — the log transformation `log u = log a0 + sum_r a_r log x_r`
//! yields a linear model fit by least squares. The paper reports the
//! coefficient of determination (R-squared) as goodness of fit (Fig. 8).
//!
//! The regression runs on the incremental factor
//! ([`ref_solver::UpdatableLstsq`]) an [`crate::online::OnlineEstimator`]
//! appends to: a batch fit folds every point in and solves once, so it
//! equals, bit for bit, the refit of an estimator that observed the same
//! points in the same order.

use std::iter;

use ref_solver::UpdatableLstsq;

use crate::error::{CoreError, Result};
use crate::utility::CobbDouglas;

/// One profiling observation: an allocation and the measured performance.
#[derive(Debug, Clone, PartialEq)]
pub struct FitPoint {
    /// Resource quantities (e.g. `[bandwidth GB/s, cache MB]`).
    pub inputs: Vec<f64>,
    /// Measured performance (e.g. IPC). Must be strictly positive.
    pub output: f64,
}

impl FitPoint {
    /// Creates an observation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if any input or the output is
    /// not strictly positive and finite (the log transform requires
    /// positivity).
    pub fn new(inputs: Vec<f64>, output: f64) -> Result<FitPoint> {
        FitPoint::check(&inputs, output)?;
        Ok(FitPoint { inputs, output })
    }

    /// The checks [`FitPoint::new`] makes, for callers that fold an
    /// observation in without keeping it.
    pub(crate) fn check(inputs: &[f64], output: f64) -> Result<()> {
        if inputs.is_empty() {
            return Err(CoreError::InvalidArgument(
                "observation needs at least one resource".to_string(),
            ));
        }
        if inputs.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(CoreError::InvalidArgument(
                "inputs must be finite and positive for the log transform".to_string(),
            ));
        }
        if !(output.is_finite() && output > 0.0) {
            return Err(CoreError::InvalidArgument(format!(
                "output must be finite and positive, got {output}"
            )));
        }
        Ok(())
    }
}

/// A fitted Cobb-Douglas utility with diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CobbDouglasFit {
    utility: CobbDouglas,
    r_squared: f64,
    predictions: Vec<f64>,
}

impl CobbDouglasFit {
    /// The fitted utility function (raw, un-rescaled elasticities).
    pub fn utility(&self) -> &CobbDouglas {
        &self.utility
    }

    /// Coefficient of determination of the log-linear regression.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Model predictions at the fitted points, in input order (the
    /// "estimated" series of the paper's Fig. 8b/8c).
    pub fn predictions(&self) -> &[f64] {
        &self.predictions
    }
}

/// Fits a Cobb-Douglas utility to profile observations.
///
/// Negative fitted elasticities are clamped to zero: a Cobb-Douglas utility
/// is non-decreasing in every resource, and tiny negative estimates arise
/// only from simulation noise on insensitive workloads.
///
/// # Errors
///
/// - [`CoreError::NotEnoughData`] with fewer observations than `R + 1`
///   parameters.
/// - [`CoreError::InvalidArgument`] if observations disagree on dimension,
///   or one fails [`FitPoint::new`]'s checks (a struct literal skips them).
/// - [`CoreError::Solver`] for degenerate (collinear) designs.
///
/// # Examples
///
/// Recover a known utility from noiseless samples:
///
/// ```
/// use ref_core::fitting::{fit_cobb_douglas, FitPoint};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pts = Vec::new();
/// for &x in &[1.0, 2.0, 4.0] {
///     for &y in &[1.0, 3.0, 9.0] {
///         let u = 2.0 * f64::powf(x, 0.6) * f64::powf(y, 0.4);
///         pts.push(FitPoint::new(vec![x, y], u)?);
///     }
/// }
/// let fit = fit_cobb_douglas(&pts)?;
/// assert!((fit.utility().elasticity(0) - 0.6).abs() < 1e-9);
/// assert!(fit.r_squared() > 0.999_999);
/// # Ok(())
/// # }
/// ```
pub fn fit_cobb_douglas(points: &[FitPoint]) -> Result<CobbDouglasFit> {
    let Some(first) = points.first() else {
        return Err(CoreError::NotEnoughData {
            observations: 0,
            parameters: 1,
        });
    };
    let r = first.inputs.len();
    if points.len() <= r + 1 {
        return Err(CoreError::NotEnoughData {
            observations: points.len(),
            parameters: r + 1,
        });
    }
    if points.iter().any(|p| p.inputs.len() != r) {
        return Err(CoreError::InvalidArgument(
            "observations must agree on the number of resources".to_string(),
        ));
    }
    let mut factor = UpdatableLstsq::new(r + 1);
    let mut row = vec![0.0; r + 1];
    for p in points {
        FitPoint::check(&p.inputs, p.output)?;
        factor.append(log_row(&mut row, &p.inputs), p.output.ln())?;
    }
    let fit = factor.solve()?;
    let utility = utility_from_coefficients(fit.coefficients())?;
    let predictions = points
        .iter()
        .map(|p| {
            use crate::utility::Utility;
            utility.value_slice(&p.inputs)
        })
        .collect();
    Ok(CobbDouglasFit {
        utility,
        r_squared: fit.r_squared(),
        predictions,
    })
}

/// Writes one observation's log-space design row, `[1, ln x_1..ln x_R]`,
/// into `row` and returns it.
pub(crate) fn log_row<'r>(row: &'r mut [f64], inputs: &[f64]) -> &'r [f64] {
    row[0] = 1.0;
    for (r, x) in row[1..].iter_mut().zip(inputs) {
        *r = x.ln();
    }
    row
}

/// The utility the regression coefficients `[ln a0, a_1..a_R]` describe,
/// for the batch fit and the online refit alike: the intercept
/// exponentiated and negative elasticities clamped to zero. A completely
/// flat profile clamps every elasticity; it gets an epsilon preference
/// spread evenly, so the utility stays valid.
///
/// # Errors
///
/// [`CoreError::InvalidArgument`] if the result is no valid Cobb-Douglas
/// utility (e.g. `exp(intercept)` overflows).
pub(crate) fn utility_from_coefficients(coefficients: &[f64]) -> Result<CobbDouglas> {
    let scale = coefficients[0].exp();
    let elasticities = coefficients[1..].iter().map(|a| a.max(0.0));
    if elasticities.clone().all(|a| a == 0.0) {
        CobbDouglas::from_elasticities(scale, iter::repeat_n(1e-9, coefficients.len() - 1))
    } else {
        CobbDouglas::from_elasticities(scale, elasticities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::Utility;

    fn grid_points<F: FnMut(f64, f64) -> f64>(mut f: F) -> Vec<FitPoint> {
        let mut pts = Vec::new();
        for &x in &[0.8, 1.6, 3.2, 6.4, 12.8] {
            for &y in &[0.125, 0.25, 0.5, 1.0, 2.0] {
                pts.push(FitPoint::new(vec![x, y], f(x, y)).unwrap());
            }
        }
        pts
    }

    #[test]
    fn recovers_ground_truth_exactly() {
        let pts = grid_points(|x, y| 1.3 * x.powf(0.2) * y.powf(0.8));
        let fit = fit_cobb_douglas(&pts).unwrap();
        assert!((fit.utility().scale() - 1.3).abs() < 1e-9);
        assert!((fit.utility().elasticity(0) - 0.2).abs() < 1e-9);
        assert!((fit.utility().elasticity(1) - 0.8).abs() < 1e-9);
        assert!(fit.r_squared() > 0.999_999);
    }

    #[test]
    fn noisy_data_still_close() {
        // Deterministic "noise" via a hash-ish wobble of +-2%.
        let mut k = 0_u32;
        let pts = grid_points(|x, y| {
            k = k.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let wobble = 1.0 + 0.02 * ((k >> 16) as f64 / 32768.0 - 1.0);
            x.powf(0.6) * y.powf(0.4) * wobble
        });
        let fit = fit_cobb_douglas(&pts).unwrap();
        assert!((fit.utility().elasticity(0) - 0.6).abs() < 0.05);
        assert!(fit.r_squared() > 0.95);
    }

    #[test]
    fn predictions_track_observations() {
        let pts = grid_points(|x, y| 0.7 * x.powf(0.5) * y.powf(0.3));
        let fit = fit_cobb_douglas(&pts).unwrap();
        for (p, pred) in pts.iter().zip(fit.predictions()) {
            assert!((p.output - pred).abs() < 1e-9 * p.output);
        }
    }

    #[test]
    fn insensitive_resource_gets_near_zero_elasticity() {
        let pts = grid_points(|x, _y| 0.9 * x.powf(0.7));
        let fit = fit_cobb_douglas(&pts).unwrap();
        assert!(fit.utility().elasticity(1) < 1e-9);
        assert!((fit.utility().elasticity(0) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn flat_profile_yields_valid_utility() {
        let pts = grid_points(|_x, _y| 0.88);
        let fit = fit_cobb_douglas(&pts).unwrap();
        // No trend to capture: elasticities epsilon, prediction constant.
        assert!(fit.utility().value_slice(&[1.0, 1.0]) > 0.0);
        assert!((fit.predictions()[0] - 0.88).abs() < 0.01);
    }

    #[test]
    fn not_enough_data_detected() {
        let pts = vec![
            FitPoint::new(vec![1.0, 1.0], 1.0).unwrap(),
            FitPoint::new(vec![2.0, 1.0], 1.2).unwrap(),
        ];
        assert!(matches!(
            fit_cobb_douglas(&pts),
            Err(CoreError::NotEnoughData { .. })
        ));
        assert!(matches!(
            fit_cobb_douglas(&[]),
            Err(CoreError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let pts = vec![
            FitPoint::new(vec![1.0, 1.0], 1.0).unwrap(),
            FitPoint::new(vec![2.0], 1.2).unwrap(),
            FitPoint::new(vec![2.0, 3.0], 1.4).unwrap(),
            FitPoint::new(vec![4.0, 3.0], 1.5).unwrap(),
        ];
        assert!(fit_cobb_douglas(&pts).is_err());
    }

    #[test]
    fn fit_point_validation() {
        assert!(FitPoint::new(vec![], 1.0).is_err());
        assert!(FitPoint::new(vec![0.0], 1.0).is_err());
        assert!(FitPoint::new(vec![1.0], 0.0).is_err());
        assert!(FitPoint::new(vec![1.0], f64::NAN).is_err());
    }

    #[test]
    fn batch_fit_is_the_online_refit_bit_for_bit() {
        // Fed the same points in the same order, the batch fit and an
        // online estimator fold the same factor: same scale, elasticities
        // and R², to the bit. The cases cover a noisy profile, a clamped
        // elasticity and the flat fallback, and three resources.
        let mut k = 0_u32;
        let noisy = grid_points(|x, y| {
            k = k.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            x.powf(0.6) * y.powf(0.4) * (1.0 + 0.03 * ((k >> 16) as f64 / 32768.0 - 1.0))
        });
        let clamped = grid_points(|x, y| 0.9 * x.powf(0.7) * y.powf(-0.01));
        let flat = grid_points(|_x, _y| 0.88);
        let three: Vec<FitPoint> = (0..12_u32)
            .map(|i| {
                let x = [
                    1.0 + f64::from(i % 4),
                    0.5 + f64::from(i % 3),
                    2.0 + f64::from(i % 5),
                ];
                let u = 1.2 * x[0].powf(0.2) * x[1].powf(0.5) * x[2].powf(0.3);
                FitPoint::new(x.to_vec(), u * (1.0 + 0.01 * f64::from(i % 7))).unwrap()
            })
            .collect();
        for points in [noisy, clamped, flat, three] {
            let batch = fit_cobb_douglas(&points).unwrap();
            let mut online = crate::online::OnlineEstimator::new(points[0].inputs.len()).unwrap();
            for p in &points {
                online.observe(&p.inputs, p.output).unwrap();
            }
            let bits = |u: &CobbDouglas, r2: f64| -> Vec<u64> {
                iter::once(u.scale())
                    .chain(u.elasticities().iter().copied())
                    .chain([r2])
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(
                bits(batch.utility(), batch.r_squared()),
                bits(online.utility(), online.r_squared().unwrap())
            );
        }
    }

    #[test]
    fn unchecked_points_are_refused_with_a_typed_error() {
        // A struct literal skips `FitPoint::new`'s checks: a zero input or
        // a negative output must still come back as an error, not a panic.
        for (x, u) in [(0.0, 1.0), (1.0, -1.0)] {
            let mut pts = grid_points(|x, y| x.powf(0.5) * y.powf(0.5));
            pts[7] = FitPoint {
                inputs: vec![x, 1.0],
                output: u,
            };
            assert!(matches!(
                fit_cobb_douglas(&pts),
                Err(CoreError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn collinear_design_reports_solver_error() {
        // Only one distinct x value: log x column collinear with intercept.
        let pts: Vec<FitPoint> = (0..6)
            .map(|i| FitPoint::new(vec![2.0, 2.0], 1.0 + i as f64 * 0.1).unwrap())
            .collect();
        assert!(matches!(fit_cobb_douglas(&pts), Err(CoreError::Solver(_))));
    }
}
