//! The incremental Givens factor as it was stored before the crate
//! packed it: a row-major `p x p` buffer, `p = k + 1`, whose entries
//! below the diagonal stay zero. It is the bit-identity reference for
//! `UpdatableLstsq`'s packed triangle. The rotations, the back
//! substitution and the `R^2` conventions are the crate's, operation for
//! operation, so the two must agree bit for bit on every input; only the
//! storage differs. No library path runs it.
//!
//! It shares no code with the crate: its tolerances are the crate's
//! `tol::RANK_TOL` and zero-variance bound, restated. Mounted with
//! `#[path]` from the integration tests that use it.

#![allow(dead_code)]
#![allow(clippy::needless_range_loop)]

/// Relative tolerance below which a diagonal entry counts as zero: the
/// crate's `tol::RANK_TOL`.
const RANK_TOL: f64 = 1e-12;

/// Why the reference refused a row or a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// A row or coefficient slice of the wrong length.
    Shape,
    /// A non-finite value in a row.
    NonFinite,
    /// A numerically zero diagonal entry in the leading `k x k` block.
    RankDeficient,
}

/// What a solve reports besides the coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Quality {
    pub(crate) r_squared: f64,
    pub(crate) residual_sum_of_squares: f64,
    pub(crate) total_sum_of_squares: f64,
}

/// Least-squares state over a `(k+1) x (k+1)` square buffer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SquareLstsq {
    k: usize,
    p: usize,
    t: Vec<f64>,
    m: usize,
    sum_y: f64,
    sum_yy: f64,
}

impl SquareLstsq {
    /// An empty accumulator for designs with `k > 0` columns.
    pub(crate) fn new(k: usize) -> SquareLstsq {
        assert!(k > 0, "design needs at least one column");
        let p = k + 1;
        SquareLstsq {
            k,
            p,
            t: vec![0.0; p * p],
            m: 0,
            sum_y: 0.0,
            sum_yy: 0.0,
        }
    }

    pub(crate) fn num_coefficients(&self) -> usize {
        self.k
    }

    pub(crate) fn rows(&self) -> usize {
        self.m
    }

    pub(crate) fn sums(&self) -> (f64, f64) {
        (self.sum_y, self.sum_yy)
    }

    /// The upper triangle, row by row.
    pub(crate) fn triangle(&self) -> Vec<f64> {
        let p = self.p;
        (0..p)
            .flat_map(|i| self.t[i * p + i..(i + 1) * p].iter().copied())
            .collect()
    }

    /// Rotates `(row, y)` into the triangle; a refused row changes
    /// nothing.
    pub(crate) fn append(&mut self, row: &[f64], y: f64) -> Result<(), Refusal> {
        if row.len() != self.k {
            return Err(Refusal::Shape);
        }
        if row.iter().any(|v| !v.is_finite()) || !y.is_finite() {
            return Err(Refusal::NonFinite);
        }
        let p = self.p;
        let mut z = row.to_vec();
        z.push(y);
        for i in 0..p {
            let b = z[i];
            if b == 0.0 {
                continue;
            }
            let a = self.t[i * p + i];
            let r = (a * a + b * b).sqrt();
            let (c, s) = (a / r, b / r);
            self.t[i * p + i] = r;
            for j in i + 1..p {
                let tij = self.t[i * p + j];
                let zj = z[j];
                self.t[i * p + j] = c * tij + s * zj;
                z[j] = c * zj - s * tij;
            }
        }
        self.m += 1;
        self.sum_y += y;
        self.sum_yy += y * y;
        Ok(())
    }

    /// Back-substitutes into `coefficients` and reports the fit.
    pub(crate) fn solve_into(&self, coefficients: &mut [f64]) -> Result<Quality, Refusal> {
        let (k, p) = (self.k, self.p);
        if coefficients.len() != k {
            return Err(Refusal::Shape);
        }
        let scale = (0..k).fold(0.0_f64, |acc, i| acc.max(self.t[i * p + i].abs()));
        let threshold = RANK_TOL * scale.max(1.0);
        for i in (0..k).rev() {
            let rii = self.t[i * p + i];
            if rii.abs() <= threshold {
                return Err(Refusal::RankDeficient);
            }
            let mut s = self.t[i * p + k];
            for j in i + 1..k {
                s -= self.t[i * p + j] * coefficients[j];
            }
            coefficients[i] = s / rii;
        }
        let tkk = self.t[k * p + k];
        let residual_sum_of_squares = tkk * tkk;
        let total_sum_of_squares = if self.m == 0 {
            0.0
        } else {
            (self.sum_yy - self.sum_y * self.sum_y / self.m as f64).max(0.0)
        };
        let r_squared = if total_sum_of_squares > 0.0 {
            1.0 - residual_sum_of_squares / total_sum_of_squares
        } else if residual_sum_of_squares <= f64::EPSILON * self.m as f64 {
            1.0
        } else {
            0.0
        };
        Ok(Quality {
            r_squared,
            residual_sum_of_squares,
            total_sum_of_squares,
        })
    }
}
