//! Householder QR least squares: the independent reference the crate's
//! incremental Givens factor (`UpdatableLstsq`) is checked against. No
//! library path runs it. It shares no code with the crate — plain
//! row-major buffers, its own refusals — so a test that compares the two
//! compares two algorithms.
//!
//! The factorization `A = QR` is stored packed: the upper triangle of the
//! work buffer holds `R`, the columns below the diagonal the Householder
//! vectors (leading entry an implicit 1). A solve applies `Q^T` to the
//! right-hand side and back-substitutes; `Q` is never formed.
//!
//! Mounted with `#[path]` at the root of the crate's unit tests and of the
//! integration tests that use it, beside `lstsq.rs`.

#![allow(dead_code)]
#![allow(clippy::needless_range_loop)]

/// Relative tolerance below which a diagonal entry of `R` counts as zero:
/// the crate's `tol::RANK_TOL`, so both paths classify rank alike.
const RANK_TOL: f64 = 1e-12;

/// Why the reference refused a problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Fewer rows than columns, ragged rows, or a right-hand side of the
    /// wrong length.
    Shape,
    /// A non-finite entry.
    NonFinite,
    /// A numerically zero diagonal entry of `R`.
    RankDeficient,
}

/// Packed Householder QR factorization of an `m x n` matrix, `m >= n`.
#[derive(Debug, Clone)]
pub(crate) struct Qr {
    packed: Vec<f64>,
    betas: Vec<f64>,
    m: usize,
    n: usize,
}

impl Qr {
    /// Factors the matrix whose rows are `rows`.
    pub(crate) fn new(rows: &[Vec<f64>]) -> Result<Qr, Refusal> {
        let (m, n) = (rows.len(), rows.first().map_or(0, Vec::len));
        if m < n || rows.iter().any(|row| row.len() != n) {
            return Err(Refusal::Shape);
        }
        if rows.iter().flatten().any(|v| !v.is_finite()) {
            return Err(Refusal::NonFinite);
        }
        let mut a = rows.concat();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            let x0 = a[k * n + k];
            let sigma: f64 = (k + 1..m).map(|i| a[i * n + k] * a[i * n + k]).sum();
            if sigma == 0.0 {
                continue;
            }
            // v = x - mu e1, scaled so its leading entry is 1: H x = mu e1.
            let mu = (x0 * x0 + sigma).sqrt();
            let v0 = if x0 <= 0.0 {
                x0 - mu
            } else {
                -sigma / (x0 + mu)
            };
            let beta = 2.0 * v0 * v0 / (sigma + v0 * v0);
            betas[k] = beta;
            for i in k + 1..m {
                a[i * n + k] /= v0;
            }
            for j in k + 1..n {
                let mut w = a[k * n + j];
                for i in k + 1..m {
                    w += a[i * n + k] * a[i * n + j];
                }
                w *= beta;
                a[k * n + j] -= w;
                for i in k + 1..m {
                    a[i * n + j] -= w * a[i * n + k];
                }
            }
            a[k * n + k] = mu;
        }
        Ok(Qr {
            packed: a,
            betas,
            m,
            n,
        })
    }

    /// The upper-triangular factor `R`, `n` rows of `n`.
    pub(crate) fn r(&self) -> Vec<Vec<f64>> {
        let n = self.n;
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if j >= i { self.packed[i * n + j] } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// The orthogonal factor `Q` in thin form, `m` rows of `n`.
    pub(crate) fn q(&self) -> Vec<Vec<f64>> {
        let mut q = vec![vec![0.0; self.n]; self.m];
        for j in 0..self.n {
            let mut e = vec![0.0; self.m];
            e[j] = 1.0;
            self.apply_q(&mut e);
            for i in 0..self.m {
                q[i][j] = e[i];
            }
        }
        q
    }

    /// Applies `Q^T` to `b`, of length `m`, in place.
    pub(crate) fn apply_qt(&self, b: &mut [f64]) {
        for k in 0..self.n {
            self.reflect(k, b);
        }
    }

    /// Applies `Q` to `b`, of length `m`, in place.
    pub(crate) fn apply_q(&self, b: &mut [f64]) {
        for k in (0..self.n).rev() {
            self.reflect(k, b);
        }
    }

    /// Applies the `k`-th reflection `I - beta v v^T` to `b`.
    fn reflect(&self, k: usize, b: &mut [f64]) {
        assert_eq!(b.len(), self.m, "vector length must equal row count");
        let (beta, n) = (self.betas[k], self.n);
        if beta == 0.0 {
            return;
        }
        let mut w = b[k];
        for i in k + 1..self.m {
            w += self.packed[i * n + k] * b[i];
        }
        w *= beta;
        b[k] -= w;
        for i in k + 1..self.m {
            b[i] -= w * self.packed[i * n + k];
        }
    }

    /// Solves `min_x ||A x - b||_2`.
    pub(crate) fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, Refusal> {
        if b.len() != self.m {
            return Err(Refusal::Shape);
        }
        let n = self.n;
        let mut qtb = b.to_vec();
        self.apply_qt(&mut qtb);
        let scale = (0..n).fold(0.0_f64, |s, i| s.max(self.packed[i * n + i].abs()));
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let rii = self.packed[i * n + i];
            if rii.abs() <= RANK_TOL * scale.max(1.0) {
                return Err(Refusal::RankDeficient);
            }
            let mut s = qtb[i];
            for j in i + 1..n {
                s -= self.packed[i * n + j] * x[j];
            }
            x[i] = s / rii;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    /// `a * b` for row-major `a` (`m x k`) and `b` (`k x n`).
    fn product(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        a.iter()
            .map(|row| {
                (0..b[0].len())
                    .map(|j| row.iter().zip(b).map(|(x, bk)| x * bk[j]).sum())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn reconstructs_input() {
        let a = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
            vec![1.0, -1.0, 2.0],
        ];
        let qr = Qr::new(&a).unwrap();
        let recon = product(&qr.q(), &qr.r());
        for (got, want) in recon.iter().flatten().zip(a.iter().flatten()) {
            assert_close(*got, *want, 1e-10);
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = vec![vec![1.0, 1.0], vec![1.0, 2.0], vec![1.0, 3.0]];
        let q = Qr::new(&a).unwrap().q();
        for i in 0..2 {
            for j in 0..2 {
                let dot: f64 = q.iter().map(|row| row[i] * row[j]).sum();
                assert_close(dot, if i == j { 1.0 } else { 0.0 }, 1e-12);
            }
        }
    }

    #[test]
    fn solves_square_system() {
        let a = vec![vec![3.0, 1.0], vec![1.0, 2.0]];
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
        let a = vec![
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ];
        let b = [1.0, 2.9, 5.1, 7.0];
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        // A^T A = [[4, 6], [6, 14]], A^T b = [16, 34.1], det = 20.
        assert_close(x[0], (14.0 * 16.0 - 6.0 * 34.1) / 20.0, 1e-10);
        assert_close(x[1], (4.0 * 34.1 - 6.0 * 16.0) / 20.0, 1e-10);
    }

    #[test]
    fn residual_orthogonal_to_columns() {
        let a = vec![
            vec![1.0, 2.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 1.0],
        ];
        let b = [1.0, -1.0, 0.5, 2.0];
        let x = Qr::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let r: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(row, bi)| bi - row.iter().zip(&x).map(|(a, x)| a * x).sum::<f64>())
            .collect();
        for j in 0..2 {
            let atr: f64 = a.iter().zip(&r).map(|(row, ri)| row[j] * ri).sum();
            assert_close(atr, 0.0, 1e-10);
        }
    }

    #[test]
    fn rejects_wide_matrix() {
        let a = vec![vec![0.0; 3]; 2];
        assert_eq!(Qr::new(&a).unwrap_err(), Refusal::Shape);
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        let qr = Qr::new(&a).unwrap();
        assert_eq!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(Refusal::RankDeficient)
        );
    }

    #[test]
    fn rejects_non_finite() {
        let a = vec![vec![1.0], vec![f64::NAN]];
        assert_eq!(Qr::new(&a).unwrap_err(), Refusal::NonFinite);
    }

    #[test]
    fn apply_q_then_qt_is_identity() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 7.0]];
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
