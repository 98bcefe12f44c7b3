//! Ordinary least-squares regression with fit diagnostics.
//!
//! This is the statistical layer the REF paper runs in Matlab: fit a linear
//! model `y ~ X b` by least squares and report the coefficient of
//! determination (R-squared). `crate::qr` provides the numerics.

use crate::error::{Result, SolverError};
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::tol;
use crate::vec_ops;

/// Result of an ordinary least-squares fit.
///
/// # Examples
///
/// ```
/// use ref_solver::{lstsq::fit, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Perfect line y = 1 + 2 t.
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let f = fit(&x, &[1.0, 3.0, 5.0])?;
/// assert!((f.coefficients()[1] - 2.0).abs() < 1e-12);
/// assert!(f.r_squared() > 0.999_999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    coefficients: Vec<f64>,
    r_squared: f64,
    residual_sum_of_squares: f64,
}

impl Fit {
    /// Fitted coefficients, one per design-matrix column.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coefficient of determination.
    ///
    /// Defined as `1 - SS_res / SS_tot`. When the response has zero variance
    /// (`SS_tot == 0`) the convention here is `1.0` for a zero-residual fit
    /// and `0.0` otherwise — matching the paper's observation that workloads
    /// like `radiosity` with negligible variance have "no trend for
    /// Cobb-Douglas to capture".
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Residual sum of squares `||y - X b||^2`.
    pub fn residual_sum_of_squares(&self) -> f64 {
        self.residual_sum_of_squares
    }
}

/// Fits `y ~ X b` by ordinary least squares.
///
/// The solve applies the packed Householder reflections to `y` directly
/// (`Q^T y` then back-substitution) — the explicit `Q` factor is never
/// reconstructed.
///
/// # Errors
///
/// Returns [`SolverError::ShapeMismatch`] if `y.len()` differs from the row
/// count of `x`, and propagates [`SolverError::RankDeficient`] for collinear
/// designs.
pub fn fit(x: &Matrix, y: &[f64]) -> Result<Fit> {
    if y.len() != x.rows() {
        return Err(SolverError::ShapeMismatch(format!(
            "{} observations but design matrix has {} rows",
            y.len(),
            x.rows()
        )));
    }
    if !vec_ops::all_finite(y) {
        return Err(SolverError::NonFinite("least-squares response".to_string()));
    }
    let coefficients = Qr::new(x)?.solve_least_squares(y)?;
    let fitted = x.matvec(&coefficients)?;
    let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
    let ss_res = vec_ops::dot(&residuals, &residuals);
    let mean_y = vec_ops::mean(y);
    let ss_tot: f64 = y.iter().map(|yi| (yi - mean_y).powi(2)).sum();
    let r_squared = if ss_tot > 0.0 {
        // Clamp tiny negative round-off; R^2 can legitimately be negative
        // only for models without an intercept that fit worse than the mean,
        // which we still report faithfully.
        1.0 - ss_res / ss_tot
    } else if ss_res <= tol::zero_variance_rss(y.len()) {
        1.0
    } else {
        0.0
    };
    Ok(Fit {
        coefficients,
        r_squared,
        residual_sum_of_squares: ss_res,
    })
}

/// Builds a design matrix with a leading intercept column from raw covariate
/// rows.
///
/// # Errors
///
/// Returns [`SolverError::InvalidArgument`] for empty input and
/// [`SolverError::ShapeMismatch`] for ragged rows.
///
/// # Examples
///
/// ```
/// use ref_solver::lstsq::design_with_intercept;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = design_with_intercept(&[vec![2.0], vec![3.0]])?;
/// assert_eq!(x.row(0), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn design_with_intercept(rows: &[Vec<f64>]) -> Result<Matrix> {
    if rows.is_empty() {
        return Err(SolverError::InvalidArgument(
            "design matrix needs at least one observation".to_string(),
        ));
    }
    let k = rows[0].len();
    let mut out = Matrix::zeros(rows.len(), k + 1);
    for (i, row) in rows.iter().enumerate() {
        if row.len() != k {
            return Err(SolverError::ShapeMismatch(format!(
                "observation {i} has {} covariates, expected {k}",
                row.len()
            )));
        }
        out[(i, 0)] = 1.0;
        for (j, &v) in row.iter().enumerate() {
            out[(i, j + 1)] = v;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn perfect_fit_has_unit_r_squared() {
        let x = design_with_intercept(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y: Vec<f64> = (0..4).map(|t| 2.0 + 3.0 * t as f64).collect();
        let f = fit(&x, &y).unwrap();
        assert_close(f.coefficients()[0], 2.0, 1e-10);
        assert_close(f.coefficients()[1], 3.0, 1e-10);
        assert_close(f.r_squared(), 1.0, 1e-12);
        assert!(f.residual_sum_of_squares() < 1e-18);
    }

    #[test]
    fn noisy_fit_r_squared_between_zero_and_one() {
        let x = design_with_intercept(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]])
            .unwrap();
        let y = [0.1, 1.2, 1.8, 3.3, 3.9];
        let f = fit(&x, &y).unwrap();
        assert!(f.r_squared() > 0.9 && f.r_squared() < 1.0);
        assert!(f.residual_sum_of_squares() > 0.0);
    }

    #[test]
    fn constant_response_conventions() {
        let x = design_with_intercept(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        // Zero variance, perfectly fit by the intercept.
        let f = fit(&x, &[5.0, 5.0, 5.0]).unwrap();
        assert_close(f.r_squared(), 1.0, 1e-12);
    }

    #[test]
    fn shape_mismatch_detected() {
        let x = Matrix::zeros(3, 2);
        assert!(fit(&x, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn collinear_design_reports_rank_deficiency() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert!(matches!(
            fit(&x, &[1.0, 2.0, 3.0]),
            Err(SolverError::RankDeficient)
        ));
    }

    #[test]
    fn design_with_intercept_validates() {
        assert!(design_with_intercept(&[]).is_err());
        assert!(design_with_intercept(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn rejects_nan_response() {
        let x = design_with_intercept(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            fit(&x, &[1.0, f64::NAN]),
            Err(SolverError::NonFinite(_))
        ));
    }

    #[test]
    fn multivariate_fit_recovers_plane() {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64 * 2.0 + (i % 3) as f64])
            .collect();
        let x = design_with_intercept(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| 1.5 - 0.5 * r[0] + 2.0 * r[1]).collect();
        let f = fit(&x, &y).unwrap();
        assert_close(f.coefficients()[0], 1.5, 1e-9);
        assert_close(f.coefficients()[1], -0.5, 1e-9);
        assert_close(f.coefficients()[2], 2.0, 1e-9);
    }
}
