//! Householder QR factorization and least-squares solves.
//!
//! The factorization `A = QR` is computed with Householder reflections and
//! stored in packed form: the upper triangle of the work matrix holds `R`,
//! while the columns below the diagonal hold the (implicitly normalized)
//! Householder vectors. [`Qr::solve_least_squares`] solves
//! `min_x ||A x - b||_2` by applying `Q^T` to `b` and back-substituting.

use crate::error::{Result, SolverError};
use crate::matrix::Matrix;
use crate::tol;

/// Packed Householder QR factorization of an `m x n` matrix with `m >= n`.
///
/// # Examples
///
/// ```
/// use ref_solver::{Matrix, Qr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]])?;
/// let qr = Qr::new(&a)?;
/// let x = qr.solve_least_squares(&[3.0, 4.0, 5.0])?;
/// assert!((x[0] - 3.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    packed: Matrix,
    betas: Vec<f64>,
    m: usize,
    n: usize,
}

impl Qr {
    /// Computes the QR factorization of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `a` has fewer rows than
    /// columns, and [`SolverError::NonFinite`] if `a` contains non-finite
    /// entries.
    pub fn new(a: &Matrix) -> Result<Qr> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(SolverError::ShapeMismatch(format!(
                "QR requires rows >= cols, got {m}x{n}"
            )));
        }
        if !a.is_finite() {
            return Err(SolverError::NonFinite("QR input matrix".to_string()));
        }
        let mut r = a.clone();
        let mut betas = vec![0.0; n];
        // Scratch for the trailing-panel update, allocated once per
        // factorization rather than once per reflection.
        let mut w = vec![0.0; n];
        for k in 0..n {
            let x0 = r[(k, k)];
            let sigma: f64 = (k + 1..m).map(|i| r[(i, k)] * r[(i, k)]).sum();
            if sigma == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let mu = (x0 * x0 + sigma).sqrt();
            let v0 = if x0 <= 0.0 {
                x0 - mu
            } else {
                -sigma / (x0 + mu)
            };
            let beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
            betas[k] = beta;
            // Normalize so the leading entry of v is an implicit 1.
            for i in k + 1..m {
                r[(i, k)] /= v0;
            }
            // Apply H = I - beta v v^T to the trailing panel with two row
            // sweeps: accumulate w = beta (v^T A), then subtract the outer
            // product v w^T. Each sweep walks rows contiguously instead of
            // striding down a column, while the per-entry accumulation order
            // (i ascending for every j) matches the column-at-a-time
            // formulation bit for bit. Column k is known analytically:
            // v = x - mu e1 (up to scaling), so H x = mu e1.
            w[k + 1..n].copy_from_slice(&r.row(k)[k + 1..n]);
            for i in k + 1..m {
                let rowi = r.row(i);
                let vi = rowi[k];
                for j in k + 1..n {
                    w[j] += vi * rowi[j];
                }
            }
            for wj in &mut w[k + 1..n] {
                *wj *= beta;
            }
            {
                let rowk = r.row_mut(k);
                for j in k + 1..n {
                    rowk[j] -= w[j];
                }
            }
            for i in k + 1..m {
                let rowi = r.row_mut(i);
                let vik = rowi[k];
                for j in k + 1..n {
                    rowi[j] -= w[j] * vik;
                }
            }
            r[(k, k)] = mu;
            // Column k below the diagonal now stores the Householder tail.
        }
        Ok(Qr {
            packed: r,
            betas,
            m,
            n,
        })
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| {
            if j >= i {
                self.packed[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// The orthogonal factor `Q` (`m x n`, thin form).
    pub fn q(&self) -> Matrix {
        let mut q = Matrix::zeros(self.m, self.n);
        for j in 0..self.n {
            let mut e = vec![0.0; self.m];
            e[j] = 1.0;
            self.apply_q(&mut e);
            for i in 0..self.m {
                q[(i, j)] = e[i];
            }
        }
        q
    }

    /// Applies `Q^T` to `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub(crate) fn apply_qt(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.m, "vector length must equal row count");
        for k in 0..self.n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut w = b[k];
            for i in k + 1..self.m {
                w += self.packed[(i, k)] * b[i];
            }
            w *= beta;
            b[k] -= w;
            for i in k + 1..self.m {
                b[i] -= w * self.packed[(i, k)];
            }
        }
    }

    /// Applies `Q` to `b` in place (reflections in reverse order).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub(crate) fn apply_q(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.m, "vector length must equal row count");
        for k in (0..self.n).rev() {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut w = b[k];
            for i in k + 1..self.m {
                w += self.packed[(i, k)] * b[i];
            }
            w *= beta;
            b[k] -= w;
            for i in k + 1..self.m {
                b[i] -= w * self.packed[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ||A x - b||_2`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `b.len()` differs from the
    /// number of rows, and [`SolverError::RankDeficient`] if `R` has a
    /// (numerically) zero diagonal entry.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.m {
            return Err(SolverError::ShapeMismatch(format!(
                "rhs length {} but matrix has {} rows",
                b.len(),
                self.m
            )));
        }
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);
        let scale = self.max_abs_diag();
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let rii = self.packed[(i, i)];
            if rii.abs() <= tol::rank_threshold(scale) {
                return Err(SolverError::RankDeficient);
            }
            let mut s = qtb[i];
            for j in i + 1..self.n {
                s -= self.packed[(i, j)] * x[j];
            }
            x[i] = s / rii;
        }
        Ok(x)
    }

    fn max_abs_diag(&self) -> f64 {
        (0..self.n).fold(0.0_f64, |m, i| m.max(self.packed[(i, i)].abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn reconstructs_input() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[1.0, -1.0, 2.0],
        ])
        .unwrap();
        let qr = Qr::new(&a).unwrap();
        let recon = qr.q().matmul(&qr.r()).unwrap();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_close(recon[(i, j)], a[(i, j)], 1e-10);
            }
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let q = Qr::new(&a).unwrap().q();
        let qtq = q.transpose().matmul(&q).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_close(qtq[(i, j)], expect, 1e-12);
            }
        }
    }

    #[test]
    fn solves_square_system() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let x = Qr::new(&a)
            .unwrap()
            .solve_least_squares(&[9.0, 8.0])
            .unwrap();
        assert_close(x[0], 2.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        // Fit y = c0 + c1 t to four points.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.9, 5.1, 7.0];
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations solution computed by hand:
        // A^T A = [[4, 6], [6, 14]], A^T b = [16, 34.1]
        // det = 20; x = ([14*16 - 6*34.1]/20, [4*34.1 - 6*16]/20)
        assert_close(x[0], (14.0 * 16.0 - 6.0 * 34.1) / 20.0, 1e-10);
        assert_close(x[1], (4.0 * 34.1 - 6.0 * 16.0) / 20.0, 1e-10);
    }

    #[test]
    fn residual_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[1.0, 0.0], &[2.0, 1.0]]).unwrap();
        let b = [1.0, -1.0, 0.5, 2.0];
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let atr = a.matvec_transposed(&r).unwrap();
        for v in atr {
            assert_close(v, 0.0, 1e-10);
        }
    }

    #[test]
    fn rejects_wide_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Qr::new(&a), Err(SolverError::ShapeMismatch(_))));
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(SolverError::RankDeficient)
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let a = Matrix::from_rows(&[&[1.0], &[f64::NAN]]).unwrap();
        assert!(matches!(Qr::new(&a), Err(SolverError::NonFinite(_))));
    }

    #[test]
    fn apply_q_then_qt_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 7.0]]).unwrap();
        let qr = Qr::new(&a).unwrap();
        let original = vec![1.0, -2.0, 0.5];
        let mut v = original.clone();
        qr.apply_qt(&mut v);
        qr.apply_q(&mut v);
        for (x, y) in v.iter().zip(&original) {
            assert_close(*x, *y, 1e-12);
        }
    }
}
