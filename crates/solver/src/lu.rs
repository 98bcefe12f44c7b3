//! LU factorization with partial pivoting.
//!
//! `P A = L U` for square systems. The interior-point stack uses Cholesky
//! for its (symmetric) Newton systems; LU factors the small capacitance
//! matrix of a Newton step, which is square but not symmetric.

use crate::error::{Result, SolverError};
use crate::matrix::Matrix;

/// Packed LU factorization `P A = L U` of a square matrix.
#[derive(Debug, Clone)]
pub(crate) struct Lu {
    /// Combined factors: `U` on and above the diagonal, `L` (unit diagonal
    /// implicit) below.
    packed: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

/// Relative pivot threshold below which the matrix counts as singular.
const PIVOT_TOL: f64 = 1e-13;

impl Lu {
    /// Factors the square matrix `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotSquare`] for rectangular input,
    /// [`SolverError::NonFinite`] for non-finite entries, and
    /// [`SolverError::Singular`] if a pivot vanishes.
    pub(crate) fn new(a: &Matrix) -> Result<Lu> {
        if !a.is_square() {
            return Err(SolverError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.is_finite() {
            return Err(SolverError::NonFinite("LU input matrix".to_string()));
        }
        let n = a.rows();
        let mut m = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.max_abs().max(1.0);
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut pivot_row = k;
            for i in k + 1..n {
                if m[(i, k)].abs() > m[(pivot_row, k)].abs() {
                    pivot_row = i;
                }
            }
            if m[(pivot_row, k)].abs() <= PIVOT_TOL * scale {
                return Err(SolverError::Singular);
            }
            if pivot_row != k {
                m.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
            }
            let pivot = m[(k, k)];
            for i in k + 1..n {
                let factor = m[(i, k)] / pivot;
                m[(i, k)] = factor;
                for j in k + 1..n {
                    let mkj = m[(k, j)];
                    m[(i, j)] -= factor * mkj;
                }
            }
        }
        Ok(Lu { packed: m, perm })
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.packed.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `b.len()` differs from the
    /// dimension.
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolverError::ShapeMismatch(format!(
                "rhs length {} but matrix dimension {n}",
                b.len()
            )));
        }
        // Apply permutation, then forward- and back-substitute.
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let mut s = y[i];
            for k in 0..i {
                s -= self.packed[(i, k)] * y[k];
            }
            y[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in i + 1..n {
                s -= self.packed[(i, k)] * y[k];
            }
            y[i] = s / self.packed[(i, i)];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn solves_with_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 0.0, 1.0], &[1.0, 1.0, 1.0]]).unwrap();
        let x = Lu::new(&a).unwrap().solve(&[8.0, 7.0, 6.0]).unwrap();
        let ax = crate::matrix_ops::matvec(&a, &x).unwrap();
        for (got, want) in ax.iter().zip(&[8.0, 7.0, 6.0]) {
            assert_close(*got, *want, 1e-10);
        }
    }

    #[test]
    fn a_leading_zero_pivot_is_swapped_away() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]).unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[4.0, 5.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(SolverError::Singular)));
    }

    #[test]
    fn rejects_rectangular_and_non_finite() {
        assert!(matches!(
            Lu::new(&Matrix::zeros(2, 3)),
            Err(SolverError::NotSquare { .. })
        ));
        let nan = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, f64::NAN]]).unwrap();
        assert!(matches!(Lu::new(&nan), Err(SolverError::NonFinite(_))));
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let lu = Lu::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn agrees_with_qr_on_random_system() {
        let rows = [[3.0, -1.0, 2.0], [1.0, 4.0, -2.0], [-2.0, 1.5, 5.0]];
        let a = Matrix::from_fn(3, 3, |i, j| rows[i][j]);
        let b = [1.0, -2.0, 3.5];
        let x_lu = Lu::new(&a).unwrap().solve(&b).unwrap();
        let x_qr = crate::qr::Qr::new(&rows.map(Vec::from))
            .unwrap()
            .solve_least_squares(&b)
            .unwrap();
        for (l, q) in x_lu.iter().zip(&x_qr) {
            assert_close(*l, *q, 1e-10);
        }
    }
}
