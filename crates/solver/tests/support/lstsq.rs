//! Ordinary least squares with R², on the Householder reference
//! (`qr.rs`): the batch fit the crate's incremental factor is checked
//! against. No library path runs it.
//!
//! Mounted with `#[path]` beside `qr.rs`, which it reaches as `super::qr`.

#![allow(dead_code)]

use super::qr::{Qr, Refusal};

/// Result of an ordinary least-squares fit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fit {
    /// Fitted coefficients, one per design column.
    pub(crate) coefficients: Vec<f64>,
    /// `1 - SS_res / SS_tot`. A response with zero variance gets `1.0`
    /// when the residual is at most `f64::EPSILON` per observation, `0.0`
    /// otherwise — the crate's zero-variance convention.
    pub(crate) r_squared: f64,
    /// Residual sum of squares `||y - X b||^2`.
    pub(crate) residual_sum_of_squares: f64,
}

/// Fits `y ~ X b` by least squares, `X` given by its rows.
pub(crate) fn fit(rows: &[Vec<f64>], y: &[f64]) -> Result<Fit, Refusal> {
    if y.len() != rows.len() {
        return Err(Refusal::Shape);
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(Refusal::NonFinite);
    }
    let coefficients = Qr::new(rows)?.solve_least_squares(y)?;
    let residual_sum_of_squares: f64 = rows
        .iter()
        .zip(y)
        .map(|(row, yi)| {
            let fitted: f64 = row.iter().zip(&coefficients).map(|(x, b)| x * b).sum();
            (yi - fitted).powi(2)
        })
        .sum();
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let total: f64 = y.iter().map(|yi| (yi - mean).powi(2)).sum();
    let r_squared = if total > 0.0 {
        1.0 - residual_sum_of_squares / total
    } else if residual_sum_of_squares <= f64::EPSILON * y.len() as f64 {
        1.0
    } else {
        0.0
    };
    Ok(Fit {
        coefficients,
        r_squared,
        residual_sum_of_squares,
    })
}

/// The covariate rows with a leading intercept column.
pub(crate) fn design_with_intercept(rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, Refusal> {
    let k = rows.first().ok_or(Refusal::Shape)?.len();
    if rows.iter().any(|row| row.len() != k) {
        return Err(Refusal::Shape);
    }
    Ok(rows
        .iter()
        .map(|row| std::iter::once(1.0).chain(row.iter().copied()).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    fn line(ts: &[f64]) -> Vec<Vec<f64>> {
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t]).collect();
        design_with_intercept(&rows).unwrap()
    }

    #[test]
    fn perfect_fit_has_unit_r_squared() {
        let x = line(&[0.0, 1.0, 2.0, 3.0]);
        let y: Vec<f64> = (0..4).map(|t| 2.0 + 3.0 * t as f64).collect();
        let f = fit(&x, &y).unwrap();
        assert_close(f.coefficients[0], 2.0, 1e-10);
        assert_close(f.coefficients[1], 3.0, 1e-10);
        assert_close(f.r_squared, 1.0, 1e-12);
        assert!(f.residual_sum_of_squares < 1e-18);
    }

    #[test]
    fn noisy_fit_r_squared_between_zero_and_one() {
        let x = line(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let f = fit(&x, &[0.1, 1.2, 1.8, 3.3, 3.9]).unwrap();
        assert!(f.r_squared > 0.9 && f.r_squared < 1.0);
        assert!(f.residual_sum_of_squares > 0.0);
    }

    #[test]
    fn constant_response_conventions() {
        // Zero variance, perfectly fit by the intercept.
        let f = fit(&line(&[1.0, 2.0, 3.0]), &[5.0, 5.0, 5.0]).unwrap();
        assert_close(f.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn shape_mismatch_detected() {
        let x = vec![vec![0.0; 2]; 3];
        assert_eq!(fit(&x, &[1.0, 2.0]), Err(Refusal::Shape));
    }

    #[test]
    fn collinear_design_reports_rank_deficiency() {
        let x = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        assert_eq!(fit(&x, &[1.0, 2.0, 3.0]), Err(Refusal::RankDeficient));
    }

    #[test]
    fn design_with_intercept_validates() {
        assert!(design_with_intercept(&[]).is_err());
        assert!(design_with_intercept(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert_eq!(
            design_with_intercept(&[vec![2.0], vec![3.0]]).unwrap(),
            vec![vec![1.0, 2.0], vec![1.0, 3.0]]
        );
    }

    #[test]
    fn rejects_nan_response() {
        assert_eq!(
            fit(&line(&[1.0, 2.0]), &[1.0, f64::NAN]),
            Err(Refusal::NonFinite)
        );
    }

    #[test]
    fn multivariate_fit_recovers_plane() {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64 * 2.0 + (i % 3) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 1.5 - 0.5 * r[0] + 2.0 * r[1]).collect();
        let f = fit(&design_with_intercept(&rows).unwrap(), &y).unwrap();
        assert_close(f.coefficients[0], 1.5, 1e-9);
        assert_close(f.coefficients[1], -0.5, 1e-9);
        assert_close(f.coefficients[2], 2.0, 1e-9);
    }
}
