//! Incrementally updatable least squares.
//!
//! [`UpdatableLstsq`] maintains the upper-triangular factor `T` of a QR
//! factorization of the *augmented* design `[X | y]`. Appending an
//! observation rotates one new row into the triangle with Givens rotations
//! (`O(k^2)` per row instead of the `O(m k^2)` of refactorizing), and
//! removing an observation applies the LINPACK `dchdd` downdating algorithm,
//! so a bounded sliding window costs `O(k^2)` per step regardless of how
//! many observations have ever been seen.
//!
//! Because the response column rides along inside the triangle, a solve
//! needs no access to past rows: the coefficients come from
//! back-substituting the leading `k x k` block against the response column,
//! and the residual sum of squares is the square of the triangle's last
//! diagonal entry. `R^2` follows from running response sums. The rank and
//! zero-variance conventions are shared with the batch path through
//! [`crate::tol`], so both paths classify a degenerate design identically.
//!
//! # Examples
//!
//! ```
//! use ref_solver::update::UpdatableLstsq;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut inc = UpdatableLstsq::new(2);
//! for t in 0..4 {
//!     inc.append(&[1.0, t as f64], 1.0 + 2.0 * t as f64)?;
//! }
//! let fit = inc.solve()?;
//! assert!((fit.coefficients()[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crate::error::{Result, SolverError};
use crate::tol;
use crate::vec_ops;

/// What a solve reports besides the coefficients; see
/// [`UpdatableLstsq::solve_into`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitQuality {
    /// Coefficient of determination, with the same zero-variance
    /// conventions as [`crate::lstsq::Fit::r_squared`].
    pub r_squared: f64,
    /// Residual sum of squares `||y - X b||^2`.
    pub residual_sum_of_squares: f64,
    /// Total sum of squares `sum (y_i - mean(y))^2`.
    pub total_sum_of_squares: f64,
}

/// Result of solving an [`UpdatableLstsq`] at its current window.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdatableFit {
    coefficients: Vec<f64>,
    quality: FitQuality,
}

impl UpdatableFit {
    /// Fitted coefficients, one per design column.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coefficient of determination, with the same zero-variance
    /// conventions as [`crate::lstsq::Fit::r_squared`].
    pub fn r_squared(&self) -> f64 {
        self.quality.r_squared
    }

    /// Residual sum of squares `||y - X b||^2`.
    pub fn residual_sum_of_squares(&self) -> f64 {
        self.quality.residual_sum_of_squares
    }
}

/// Triangle sides up to which a row's scratch lives on the stack: designs
/// of up to seven columns, a market of up to six resources.
const STACK_SIDE: usize = 8;

/// Least-squares state supporting `O(k^2)` row append and downdate.
///
/// The state is the `(k+1) x (k+1)` upper-triangular factor of `[X | y]`
/// plus the running sums needed for `R^2` — past rows are *not* stored, so
/// memory is constant in the number of observations. See the module docs
/// for the math.
///
/// [`triangle`](UpdatableLstsq::triangle), [`rows`](UpdatableLstsq::rows)
/// and [`sums`](UpdatableLstsq::sums) export that state and
/// [`from_parts`](UpdatableLstsq::from_parts) imports it, bit for bit: an
/// accumulator rebuilt from its parts appends, downdates and solves
/// exactly as the original would have. Equality compares the state only.
#[derive(Debug, Clone)]
pub struct UpdatableLstsq {
    /// Coefficient columns.
    k: usize,
    /// Triangle side `k + 1` (response column included).
    p: usize,
    /// Row-major `p x p` buffer; entries below the diagonal stay zero.
    t: Vec<f64>,
    /// Rows currently in the window (appends minus downdates).
    m: usize,
    sum_y: f64,
    sum_yy: f64,
}

impl UpdatableLstsq {
    /// Creates an empty accumulator for designs with `k` columns.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> UpdatableLstsq {
        assert!(k > 0, "design needs at least one column");
        let p = k + 1;
        UpdatableLstsq {
            k,
            p,
            t: vec![0.0; p * p],
            m: 0,
            sum_y: 0.0,
            sum_yy: 0.0,
        }
    }

    /// Number of design columns.
    pub fn num_coefficients(&self) -> usize {
        self.k
    }

    /// Rows currently folded into the window.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Running `(sum y, sum y^2)` over the window's responses.
    pub fn sums(&self) -> (f64, f64) {
        (self.sum_y, self.sum_yy)
    }

    /// Entries of the upper triangle of a factor over `k` columns:
    /// `(k+1)(k+2)/2`, the response column included.
    pub fn triangle_len(k: usize) -> usize {
        (k + 1) * (k + 2) / 2
    }

    /// The factor's upper triangle, row by row
    /// ([`triangle_len`](UpdatableLstsq::triangle_len) entries). Below the
    /// diagonal the factor is zero by construction.
    pub fn triangle(&self) -> impl Iterator<Item = f64> + '_ {
        let p = self.p;
        (0..p).flat_map(move |i| self.t[i * p + i..(i + 1) * p].iter().copied())
    }

    /// Rebuilds an accumulator over `k` columns from what
    /// [`triangle`](UpdatableLstsq::triangle), [`rows`](UpdatableLstsq::rows)
    /// and [`sums`](UpdatableLstsq::sums) exported.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidArgument`] if `k == 0`,
    /// [`SolverError::ShapeMismatch`] if `triangle` does not hold
    /// [`triangle_len`](UpdatableLstsq::triangle_len)`(k)` entries, and
    /// [`SolverError::NonFinite`] if any entry or sum is not finite.
    pub fn from_parts(
        k: usize,
        triangle: &[f64],
        rows: usize,
        (sum_y, sum_yy): (f64, f64),
    ) -> Result<UpdatableLstsq> {
        if k == 0 {
            return Err(SolverError::InvalidArgument(
                "design needs at least one column".to_string(),
            ));
        }
        if triangle.len() != Self::triangle_len(k) {
            return Err(SolverError::ShapeMismatch(format!(
                "a factor over {k} columns has {} triangle entries, got {}",
                Self::triangle_len(k),
                triangle.len()
            )));
        }
        if !vec_ops::all_finite(triangle) || !sum_y.is_finite() || !sum_yy.is_finite() {
            return Err(SolverError::NonFinite(
                "incremental least-squares state".to_string(),
            ));
        }
        let mut lstsq = UpdatableLstsq::new(k);
        let p = lstsq.p;
        let mut entries = triangle.iter();
        for i in 0..p {
            for t in &mut lstsq.t[i * p + i..(i + 1) * p] {
                *t = *entries.next().expect("length checked above");
            }
        }
        lstsq.m = rows;
        lstsq.sum_y = sum_y;
        lstsq.sum_yy = sum_yy;
        Ok(lstsq)
    }

    /// Rotates the observation `(row, y)` into the triangle.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `row.len() != k`, and
    /// [`SolverError::NonFinite`] for non-finite values (the triangle is
    /// left untouched in both cases).
    pub fn append(&mut self, row: &[f64], y: f64) -> Result<()> {
        let (mut stack, mut heap) = ([0.0; STACK_SIDE], Vec::new());
        let z = vec_ops::scratch(&mut stack, &mut heap, self.p);
        self.load_row(row, y, z)?;
        let p = self.p;
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

    /// Rotates the observation `(row, y)` back *out* of the triangle
    /// (LINPACK `dchdd`). The observation must be one that is currently in
    /// the window; removing anything else silently corrupts the state, as
    /// with any Cholesky downdate.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] / [`SolverError::NonFinite`]
    /// as [`append`](UpdatableLstsq::append) does, and
    /// [`SolverError::RankDeficient`] when the removal would leave a
    /// numerically rank-deficient triangle (`alpha^2 <= `
    /// `tol::DOWNDATE_TOL`) — the caller should refactorize from its
    /// retained rows instead. On any error the triangle is unchanged.
    pub fn downdate(&mut self, row: &[f64], y: f64) -> Result<()> {
        let p = self.p;
        let (mut z_stack, mut z_heap) = ([0.0; STACK_SIDE], Vec::new());
        let z = vec_ops::scratch(&mut z_stack, &mut z_heap, p);
        self.load_row(row, y, z)?;
        if self.m == 0 {
            return Err(SolverError::InvalidArgument(
                "cannot downdate an empty window".to_string(),
            ));
        }
        // Solve T^T a = z by forward substitution (reusing z as a).
        let diag_scale = (0..p).fold(0.0_f64, |acc, i| acc.max(self.t[i * p + i].abs()));
        let threshold = tol::rank_threshold(diag_scale);
        for i in 0..p {
            let mut s = z[i];
            for j in 0..i {
                s -= self.t[j * p + i] * z[j];
            }
            let d = self.t[i * p + i];
            if d.abs() <= threshold {
                return Err(SolverError::RankDeficient);
            }
            z[i] = s / d;
        }
        let norm_sq = vec_ops::dot(z, z);
        let alpha_sq = 1.0 - norm_sq;
        if alpha_sq <= tol::DOWNDATE_TOL {
            return Err(SolverError::RankDeficient);
        }
        // Build the rotation sequence bottom-up, then sweep it through every
        // column top-down; `xx` reconstructs the removed row as it goes.
        let mut alpha = alpha_sq.sqrt();
        let (mut c_stack, mut c_heap) = ([0.0; STACK_SIDE], Vec::new());
        let c = vec_ops::scratch(&mut c_stack, &mut c_heap, p);
        let (mut s_stack, mut s_heap) = ([0.0; STACK_SIDE], Vec::new());
        let s = vec_ops::scratch(&mut s_stack, &mut s_heap, p);
        for i in (0..p).rev() {
            let scale = alpha + z[i].abs();
            let aa = alpha / scale;
            let bb = z[i] / scale;
            let norm = (aa * aa + bb * bb).sqrt();
            c[i] = aa / norm;
            s[i] = bb / norm;
            alpha = scale * norm;
        }
        for j in 0..p {
            let mut xx = 0.0;
            for i in (0..=j).rev() {
                let tij = self.t[i * p + j];
                let rotated = c[i] * xx + s[i] * tij;
                self.t[i * p + j] = c[i] * tij - s[i] * xx;
                xx = rotated;
            }
        }
        self.m -= 1;
        self.sum_y -= y;
        self.sum_yy -= y * y;
        Ok(())
    }

    /// Solves the least-squares problem over the current window.
    ///
    /// # Errors
    ///
    /// As [`solve_into`](UpdatableLstsq::solve_into).
    pub fn solve(&self) -> Result<UpdatableFit> {
        let mut coefficients = vec![0.0; self.k];
        let quality = self.solve_into(&mut coefficients)?;
        Ok(UpdatableFit {
            coefficients,
            quality,
        })
    }

    /// Solves the least-squares problem over the current window into
    /// `coefficients`, one per design column, and returns the fit's
    /// quality: [`solve`](UpdatableLstsq::solve) without the allocation.
    /// On error `coefficients` holds no meaningful values.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] unless `coefficients` has
    /// one entry per design column, and [`SolverError::RankDeficient`]
    /// when the leading `k x k` block of the triangle has a numerically
    /// zero diagonal — the same relative test (`tol::rank_threshold`)
    /// the batch QR path applies, which an underdetermined window
    /// (`rows() < k`) always fails.
    pub fn solve_into(&self, coefficients: &mut [f64]) -> Result<FitQuality> {
        let (k, p) = (self.k, self.p);
        if coefficients.len() != k {
            return Err(SolverError::ShapeMismatch(format!(
                "{} coefficient slots for a design of {k} columns",
                coefficients.len()
            )));
        }
        let scale = (0..k).fold(0.0_f64, |acc, i| acc.max(self.t[i * p + i].abs()));
        let threshold = tol::rank_threshold(scale);
        for i in (0..k).rev() {
            let rii = self.t[i * p + i];
            if rii.abs() <= threshold {
                return Err(SolverError::RankDeficient);
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
        } else if residual_sum_of_squares <= tol::zero_variance_rss(self.m) {
            1.0
        } else {
            0.0
        };
        Ok(FitQuality {
            r_squared,
            residual_sum_of_squares,
            total_sum_of_squares,
        })
    }

    /// Validates `(row, y)` and stages it into the rotation scratch `z`.
    fn load_row(&self, row: &[f64], y: f64, z: &mut [f64]) -> Result<()> {
        if row.len() != self.k {
            return Err(SolverError::ShapeMismatch(format!(
                "observation has {} covariates, design has {}",
                row.len(),
                self.k
            )));
        }
        if !vec_ops::all_finite(row) || !y.is_finite() {
            return Err(SolverError::NonFinite(
                "incremental least-squares observation".to_string(),
            ));
        }
        z[..self.k].copy_from_slice(row);
        z[self.k] = y;
        Ok(())
    }
}

impl PartialEq for UpdatableLstsq {
    fn eq(&self, other: &UpdatableLstsq) -> bool {
        self.k == other.k
            && self.t == other.t
            && self.m == other.m
            && self.sum_y == other.sum_y
            && self.sum_yy == other.sum_yy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq;
    use crate::matrix::Matrix;

    fn design_25x3() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (i, &bw) in [0.8, 1.6, 3.2, 6.4, 12.8].iter().enumerate() {
            for (j, &mb) in [0.125, 0.25, 0.5, 1.0, 2.0].iter().enumerate() {
                rows.push(vec![1.0, f64::ln(bw), f64::ln(mb)]);
                // Noise with an i*j cross term so the response is NOT an
                // exact linear function of the covariates (the grids are
                // geometric, so ln bw / ln mb are linear in i / j).
                let noise = 0.02 * (i * j) as f64 + 0.013 * ((i + 2 * j) % 3) as f64;
                y.push(0.3 * f64::ln(bw) + 0.5 * f64::ln(mb) + noise);
            }
        }
        (rows, y)
    }

    fn batch(rows: &[Vec<f64>], y: &[f64]) -> lstsq::Fit {
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let x = Matrix::from_vec(rows.len(), rows[0].len(), flat).unwrap();
        lstsq::fit(&x, y).unwrap()
    }

    #[test]
    fn matches_batch_least_squares() {
        let (rows, y) = design_25x3();
        let mut inc = UpdatableLstsq::new(3);
        for (r, &yi) in rows.iter().zip(&y) {
            inc.append(r, yi).unwrap();
        }
        let fit = inc.solve().unwrap();
        let reference = batch(&rows, &y);
        for (a, b) in fit.coefficients().iter().zip(reference.coefficients()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert!((fit.r_squared() - reference.r_squared()).abs() < 1e-10);
        assert!(
            (fit.residual_sum_of_squares() - reference.residual_sum_of_squares()).abs() < 1e-10
        );
        assert_eq!(inc.rows(), 25);
    }

    #[test]
    fn downdate_reverses_append() {
        let (rows, y) = design_25x3();
        let mut inc = UpdatableLstsq::new(3);
        for (r, &yi) in rows.iter().zip(&y) {
            inc.append(r, yi).unwrap();
        }
        let before = inc.solve().unwrap();
        // A row inside the covariate range with an on-trend response keeps
        // its leverage well away from 1, so the downdate stays well posed.
        let extra = [1.0, 0.9, -0.8];
        inc.append(&extra, 0.3 * 0.9 - 0.5 * 0.8 + 0.02).unwrap();
        inc.downdate(&extra, 0.3 * 0.9 - 0.5 * 0.8 + 0.02).unwrap();
        let after = inc.solve().unwrap();
        for (a, b) in after.coefficients().iter().zip(before.coefficients()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert!((after.r_squared() - before.r_squared()).abs() < 1e-10);
        assert_eq!(inc.rows(), 25);
    }

    #[test]
    fn sliding_window_matches_fresh_triangle() {
        let (rows, y) = design_25x3();
        let window = 10;
        let mut inc = UpdatableLstsq::new(3);
        for (i, (r, &yi)) in rows.iter().zip(&y).enumerate() {
            inc.append(r, yi).unwrap();
            if i >= window {
                inc.downdate(&rows[i - window], y[i - window]).unwrap();
            }
        }
        let windowed = inc.solve().unwrap();
        let start = rows.len() - window;
        let reference = batch(&rows[start..], &y[start..]);
        for (a, b) in windowed.coefficients().iter().zip(reference.coefficients()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert!((windowed.r_squared() - reference.r_squared()).abs() < 1e-9);
    }

    #[test]
    fn collinear_design_is_rank_deficient() {
        let mut inc = UpdatableLstsq::new(2);
        for t in 0..5 {
            inc.append(&[t as f64, 2.0 * t as f64], t as f64).unwrap();
        }
        assert!(matches!(inc.solve(), Err(SolverError::RankDeficient)));
    }

    #[test]
    fn underdetermined_window_is_rank_deficient() {
        let mut inc = UpdatableLstsq::new(3);
        inc.append(&[1.0, 2.0, 3.0], 1.0).unwrap();
        assert!(matches!(inc.solve(), Err(SolverError::RankDeficient)));
    }

    #[test]
    fn rejects_bad_rows_without_state_change() {
        let mut inc = UpdatableLstsq::new(2);
        inc.append(&[1.0, 2.0], 1.0).unwrap();
        let snapshot = inc.clone();
        assert!(inc.append(&[1.0], 1.0).is_err());
        assert!(inc.append(&[1.0, f64::NAN], 1.0).is_err());
        assert!(inc.append(&[1.0, 2.0], f64::INFINITY).is_err());
        assert!(inc.downdate(&[1.0], 1.0).is_err());
        assert_eq!(inc.t, snapshot.t);
        assert_eq!(inc.rows(), 1);
    }

    #[test]
    fn downdating_to_deficiency_is_refused() {
        let mut inc = UpdatableLstsq::new(2);
        inc.append(&[1.0, 0.0], 1.0).unwrap();
        inc.append(&[0.0, 1.0], 2.0).unwrap();
        inc.append(&[1.0, 1.0], 3.0).unwrap();
        // Removing the only row that separates the columns degrades rank.
        let before = inc.clone();
        let r = inc.downdate(&[1.0, 0.0], 1.0).and_then(|()| {
            // Either the downdate itself or the subsequent solve must
            // flag the deficiency once a second independent row goes.
            inc.downdate(&[0.0, 1.0], 2.0)?;
            inc.solve().map(|_| ())
        });
        assert!(matches!(r, Err(SolverError::RankDeficient)), "{r:?}");
        drop(before);
    }

    #[test]
    fn zero_variance_conventions_match_batch() {
        let mut inc = UpdatableLstsq::new(2);
        let rows = [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]];
        for r in &rows {
            inc.append(r, 5.0).unwrap();
        }
        let fit = inc.solve().unwrap();
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
        assert!(fit.quality.total_sum_of_squares.abs() < 1e-9);
    }

    #[test]
    fn parts_round_trip_bit_for_bit() {
        let (rows, y) = design_25x3();
        let mut original = UpdatableLstsq::new(3);
        for (r, &yi) in rows.iter().zip(&y).take(12) {
            original.append(r, yi).unwrap();
        }
        let triangle: Vec<f64> = original.triangle().collect();
        assert_eq!(triangle.len(), UpdatableLstsq::triangle_len(3));
        let mut rebuilt =
            UpdatableLstsq::from_parts(3, &triangle, original.rows(), original.sums()).unwrap();
        assert_eq!(rebuilt, original);
        // The rebuilt accumulator continues exactly as the original does.
        for (r, &yi) in rows.iter().zip(&y).skip(12) {
            original.append(r, yi).unwrap();
            rebuilt.append(r, yi).unwrap();
        }
        original.downdate(&rows[3], y[3]).unwrap();
        rebuilt.downdate(&rows[3], y[3]).unwrap();
        let bits = |fit: UpdatableFit| {
            let mut v: Vec<u64> = fit.coefficients().iter().map(|c| c.to_bits()).collect();
            v.push(fit.r_squared().to_bits());
            v
        };
        assert_eq!(
            bits(rebuilt.solve().unwrap()),
            bits(original.solve().unwrap())
        );
        assert_eq!(rebuilt.t, original.t);
    }

    #[test]
    fn from_parts_refuses_malformed_state() {
        let good = vec![1.0; UpdatableLstsq::triangle_len(2)];
        assert!(UpdatableLstsq::from_parts(2, &good, 4, (1.0, 2.0)).is_ok());
        assert!(matches!(
            UpdatableLstsq::from_parts(0, &[1.0], 4, (1.0, 2.0)),
            Err(SolverError::InvalidArgument(_))
        ));
        assert!(matches!(
            UpdatableLstsq::from_parts(2, &good[1..], 4, (1.0, 2.0)),
            Err(SolverError::ShapeMismatch(_))
        ));
        let mut bad = good.clone();
        bad[4] = f64::NAN;
        assert!(matches!(
            UpdatableLstsq::from_parts(2, &bad, 4, (1.0, 2.0)),
            Err(SolverError::NonFinite(_))
        ));
        for sums in [(f64::INFINITY, 2.0), (1.0, f64::NAN)] {
            assert!(matches!(
                UpdatableLstsq::from_parts(2, &good, 4, sums),
                Err(SolverError::NonFinite(_))
            ));
        }
    }

    #[test]
    fn wide_designs_take_the_heap_scratch_and_solve_into_matches_solve() {
        // Ten columns: past the stack scratch, so append, downdate and the
        // rotation sequence all run on heap buffers.
        let k = 10;
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                (0..k)
                    .map(|j| match j {
                        0 => 1.0,
                        _ => f64::sin((0.37 + 0.29 * j as f64) * i as f64 + j as f64),
                    })
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| r.iter().sum::<f64>() + 0.01 * f64::cos(i as f64))
            .collect();
        let mut inc = UpdatableLstsq::new(k);
        for (r, &yi) in rows.iter().zip(&y) {
            inc.append(r, yi).unwrap();
        }
        inc.downdate(&rows[0], y[0]).unwrap();
        let fit = inc.solve().unwrap();
        let reference = batch(&rows[1..], &y[1..]);
        for (a, b) in fit.coefficients().iter().zip(reference.coefficients()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        let mut coefficients = vec![f64::NAN; k];
        let quality = inc.solve_into(&mut coefficients).unwrap();
        assert_eq!(coefficients, fit.coefficients());
        assert_eq!(quality.r_squared.to_bits(), fit.r_squared().to_bits());
        assert!(matches!(
            inc.solve_into(&mut [0.0; 3]),
            Err(SolverError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn empty_window_downdate_rejected() {
        let mut inc = UpdatableLstsq::new(1);
        assert!(inc.downdate(&[1.0], 1.0).is_err());
    }
}
