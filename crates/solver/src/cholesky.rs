//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used by the Newton steps inside [`crate::newton`] and
//! [`crate::barrier`], where Hessians are symmetric and (after
//! regularization) positive definite.

use crate::error::{Result, SolverError};
use crate::matrix::Matrix;
use crate::tol;

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
///
/// # Examples
///
/// ```
/// use ref_solver::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// ignored, so callers may pass matrices with round-off asymmetry.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotSquare`] for rectangular input and
    /// [`SolverError::NotPositiveDefinite`] if a non-positive pivot is
    /// encountered.
    pub fn new(a: &Matrix) -> Result<Cholesky> {
        let mut ch = Cholesky::with_dim(a.rows());
        ch.refactor(a)?;
        Ok(ch)
    }

    /// Storage for the factor of an `n x n` matrix, to be filled by
    /// [`refactor`](Cholesky::refactor).
    pub fn with_dim(n: usize) -> Cholesky {
        Cholesky {
            l: Matrix::zeros(n, n),
        }
    }

    /// Factors `a` into this factor's storage, reallocating only when the
    /// dimension changes — the Newton loop factors one Hessian per iterate.
    /// On error the factor holds garbage until the next successful call.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::new`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(SolverError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if self.l.rows() != n {
            self.l = Matrix::zeros(n, n);
        }
        let l = &mut self.l;
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                {
                    // Row-slice the two gaxpy operands so the inner loop
                    // runs over contiguous memory without bounds checks.
                    let ri = &l.row(i)[..j];
                    let rj = &l.row(j)[..j];
                    for (x, y) in ri.iter().zip(rj) {
                        s -= x * y;
                    }
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(SolverError::NotPositiveDefinite);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `b.len()` differs from the
    /// dimension of `A`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.l.rows()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`solve`](Cholesky::solve) into a caller-owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `b.len()` or `x.len()`
    /// differs from the dimension of `A`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if b.len() != n || x.len() != n {
            return Err(SolverError::ShapeMismatch(format!(
                "rhs length {} and solution length {} but matrix dimension {n}",
                b.len(),
                x.len()
            )));
        }
        // Forward substitution: L y = b, with y stored in x.
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = b[i];
            for k in 0..i {
                s -= row[k] * x[k];
            }
            x[i] = s / row[i];
        }
        // Back substitution in place: L^T x = y. Entry i of y is consumed
        // before x[i] overwrites it, and only x[k] for k > i is read.
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in i + 1..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(())
    }

    /// Log-determinant of `A`, i.e. `2 * sum_i log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Solves the symmetric positive-definite system `A x = b`, retrying with an
/// increasing ridge `A + tau I` when `A` is not numerically positive
/// definite.
///
/// This is the standard Levenberg-style safeguard for Newton steps whose
/// Hessian loses definiteness to round-off.
///
/// # Errors
///
/// Returns [`SolverError::NotPositiveDefinite`] if even a heavily
/// regularized system cannot be factored, or any error from
/// [`Cholesky::solve`].
///
/// # Examples
///
/// ```
/// use ref_solver::{cholesky::solve_regularized, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-30]])?;
/// // Nearly singular, but a tiny ridge makes it solvable.
/// let x = solve_regularized(&a, &[1.0, 0.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve_regularized(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let mut a = a.clone();
    let mut ch = Cholesky::with_dim(a.rows());
    let mut x = vec![0.0; b.len()];
    solve_regularized_into(&mut a, b, &mut ch, &mut x)?;
    Ok(x)
}

/// [`solve_regularized`] with caller-owned storage: `ch` is refactored in
/// place and the solution lands in `x`. Ridge retries rewrite `a`'s
/// diagonal and restore it before returning, so `a` is unchanged.
///
/// # Errors
///
/// As [`solve_regularized`].
pub fn solve_regularized_into(
    a: &mut Matrix,
    b: &[f64],
    ch: &mut Cholesky,
    x: &mut [f64],
) -> Result<()> {
    match ch.refactor(a) {
        Ok(()) => return ch.solve_into(b, x),
        Err(SolverError::NotPositiveDefinite) => {}
        Err(e) => return Err(e),
    }
    let mut tau = tol::initial_ridge(a.max_abs());
    let orig_diag: Vec<f64> = (0..a.rows()).map(|i| a[(i, i)]).collect();
    let mut factored = Err(SolverError::NotPositiveDefinite);
    for _ in 0..tol::RIDGE_RETRIES {
        for (i, &d) in orig_diag.iter().enumerate() {
            a[(i, i)] = d + tau;
        }
        factored = ch.refactor(a);
        match factored {
            Err(SolverError::NotPositiveDefinite) => tau *= tol::RIDGE_GROWTH,
            _ => break,
        }
    }
    for (i, &d) in orig_diag.iter().enumerate() {
        a[(i, i)] = d;
    }
    factored?;
    ch.solve_into(b, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn factors_and_reconstructs() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        let lt = l.transpose();
        let recon = l.matmul(&lt).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_close(recon[(i, j)], a[(i, j)], 1e-10);
            }
        }
        // Known factor from the classic example.
        assert_close(l[(0, 0)], 2.0, 1e-12);
        assert_close(l[(1, 0)], 6.0, 1e-12);
        assert_close(l[(2, 2)], 3.0, 1e-12);
    }

    #[test]
    fn solves_spd_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&[3.0, 3.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 1.0, 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(SolverError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(SolverError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_checks_rhs_length() {
        let a = Matrix::identity(2);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn log_det_matches() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        assert_close(ch.log_det(), 36.0_f64.ln(), 1e-12);
    }

    #[test]
    fn regularized_solve_handles_semidefinite() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        // Singular; the ridge makes it solvable with a sensible answer.
        let x = solve_regularized(&a, &[2.0, 2.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        assert_close(x[0], x[1], 1e-6);
    }

    #[test]
    fn reads_lower_triangle_only() {
        let asym = Matrix::from_rows(&[&[4.0, 999.0], &[2.0, 3.0]]).unwrap();
        let sym = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let a = Cholesky::new(&asym).unwrap();
        let b = Cholesky::new(&sym).unwrap();
        assert_eq!(a.l(), b.l());
    }
}
