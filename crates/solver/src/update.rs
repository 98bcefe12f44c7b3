//! Incrementally updatable least squares.
//!
//! [`UpdatableLstsq`] maintains the upper-triangular factor `T` of a QR
//! factorization of the *augmented* design `[X | y]`. Appending an
//! observation rotates one new row into the triangle with Givens rotations
//! (`O(k^2)` per row instead of the `O(m k^2)` of refactorizing), whatever
//! the number of observations already seen.
//!
//! Because the response column rides along inside the triangle, a solve
//! needs no access to past rows: the coefficients come from
//! back-substituting the leading `k x k` block against the response column,
//! and the residual sum of squares is the square of the triangle's last
//! diagonal entry. `R^2` follows from running response sums. The rank and
//! zero-variance conventions are [`crate::tol`]'s. A batch fit is the same
//! factor with every row appended before one solve.
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
    /// Coefficient of determination `1 - SS_res / SS_tot`. A response
    /// with zero variance gets `1.0` when the residual is numerically zero
    /// (`tol::zero_variance_rss`) and `0.0` otherwise.
    pub r_squared: f64,
    /// Residual sum of squares `||y - X b||^2`.
    pub residual_sum_of_squares: f64,
    /// Total sum of squares `sum (y_i - mean(y))^2`.
    pub total_sum_of_squares: f64,
}

/// Result of solving an [`UpdatableLstsq`] over the rows folded in.
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

    /// Coefficient of determination; see [`FitQuality::r_squared`].
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

/// Triangle entries held inline: `triangle_len(3)`, a design of up to
/// three columns (an intercept and a market of up to two resources).
const INLINE: usize = 10;

/// The packed triangle's storage: inline up to [`INLINE`] entries, so the
/// factor of a market of up to two resources is no heap block of its own.
/// Only the first `triangle_len(k)` entries are the factor.
#[derive(Debug, Clone)]
enum Packed {
    Inline([f64; INLINE]),
    Heap(Box<[f64]>),
}

/// Least-squares state supporting `O(k^2)` row append.
///
/// The state is the upper triangle of the `(k+1) x (k+1)` factor of
/// `[X | y]`, packed row by row (`triangle_len(k)` entries, row `i`
/// holding columns `i..=k`), plus the running sums needed for `R^2` —
/// past rows are *not* stored, so memory is constant in the number of
/// observations. See the module docs for the math.
///
/// [`triangle`](UpdatableLstsq::triangle), [`rows`](UpdatableLstsq::rows)
/// and [`sums`](UpdatableLstsq::sums) export that state and
/// [`from_parts`](UpdatableLstsq::from_parts) imports it, bit for bit: an
/// accumulator rebuilt from its parts appends and solves
/// exactly as the original would have. Equality compares the state only.
#[derive(Debug, Clone)]
pub struct UpdatableLstsq {
    /// Coefficient columns; the triangle's side is `k + 1` (response
    /// column included).
    k: usize,
    /// Rows folded in.
    m: usize,
    sum_y: f64,
    sum_yy: f64,
    t: Packed,
}

impl UpdatableLstsq {
    /// Creates an empty accumulator for designs with `k` columns.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> UpdatableLstsq {
        assert!(k > 0, "design needs at least one column");
        let len = Self::triangle_len(k);
        let t = if len <= INLINE {
            Packed::Inline([0.0; INLINE])
        } else {
            Packed::Heap(vec![0.0; len].into_boxed_slice())
        };
        UpdatableLstsq {
            k,
            m: 0,
            sum_y: 0.0,
            sum_yy: 0.0,
            t,
        }
    }

    /// Number of design columns.
    pub fn num_coefficients(&self) -> usize {
        self.k
    }

    /// Rows folded in.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Running `(sum y, sum y^2)` over the responses folded in.
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
    pub fn triangle(&self) -> &[f64] {
        match &self.t {
            Packed::Inline(entries) => &entries[..Self::triangle_len(self.k)],
            Packed::Heap(entries) => entries,
        }
    }

    fn triangle_mut(&mut self) -> &mut [f64] {
        let len = Self::triangle_len(self.k);
        match &mut self.t {
            Packed::Inline(entries) => &mut entries[..len],
            Packed::Heap(entries) => entries,
        }
    }

    /// Where row `i`'s diagonal entry sits in the packed triangle: after
    /// rows `0..i`, row `r` holding `k + 1 - r` entries, so at
    /// `i (k + 1) - i (i - 1) / 2`.
    fn diagonal_at(&self, i: usize) -> usize {
        i * (2 * self.k + 3 - i) / 2
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
        lstsq.triangle_mut().copy_from_slice(triangle);
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
        let p = self.k + 1;
        let (mut stack, mut heap) = ([0.0; STACK_SIDE], Vec::new());
        let z = vec_ops::scratch(&mut stack, &mut heap, p);
        self.load_row(row, y, z)?;
        // Row `i` of the packed triangle is `T[i][i..p]`: its diagonal
        // first, then the entries to its right.
        let mut rest = self.triangle_mut();
        for i in 0..p {
            let (t, tail) = std::mem::take(&mut rest).split_at_mut(p - i);
            rest = tail;
            let b = z[i];
            if b == 0.0 {
                continue;
            }
            let a = t[0];
            let r = (a * a + b * b).sqrt();
            let (c, s) = (a / r, b / r);
            t[0] = r;
            for j in i + 1..p {
                let tij = t[j - i];
                let zj = z[j];
                t[j - i] = c * tij + s * zj;
                z[j] = c * zj - s * tij;
            }
        }
        self.m += 1;
        self.sum_y += y;
        self.sum_yy += y * y;
        Ok(())
    }

    /// Solves the least-squares problem over the rows folded in.
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

    /// Solves the least-squares problem over the rows folded in into
    /// `coefficients`, one per design column, and returns the fit's
    /// quality: [`solve`](UpdatableLstsq::solve) without the allocation.
    /// On error `coefficients` holds no meaningful values.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] unless `coefficients` has
    /// one entry per design column, and [`SolverError::RankDeficient`]
    /// when the leading `k x k` block of the triangle has a numerically
    /// zero diagonal (the relative test `tol::rank_threshold`), which an
    /// underdetermined design (`rows() < k`) always fails.
    pub fn solve_into(&self, coefficients: &mut [f64]) -> Result<FitQuality> {
        let k = self.k;
        if coefficients.len() != k {
            return Err(SolverError::ShapeMismatch(format!(
                "{} coefficient slots for a design of {k} columns",
                coefficients.len()
            )));
        }
        let t = self.triangle();
        let scale = (0..k).fold(0.0_f64, |acc, i| acc.max(t[self.diagonal_at(i)].abs()));
        let threshold = tol::rank_threshold(scale);
        for i in (0..k).rev() {
            // `T[i][i..=k]`, the response column last.
            let row = &t[self.diagonal_at(i)..][..k + 1 - i];
            let rii = row[0];
            if rii.abs() <= threshold {
                return Err(SolverError::RankDeficient);
            }
            let mut s = row[k - i];
            for j in i + 1..k {
                s -= row[j - i] * coefficients[j];
            }
            coefficients[i] = s / rii;
        }
        let tkk = t[t.len() - 1];
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
            && self.triangle() == other.triangle()
            && self.m == other.m
            && self.sum_y == other.sum_y
            && self.sum_yy == other.sum_yy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq;

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

    #[test]
    fn matches_batch_least_squares() {
        let (rows, y) = design_25x3();
        let mut inc = UpdatableLstsq::new(3);
        for (r, &yi) in rows.iter().zip(&y) {
            inc.append(r, yi).unwrap();
        }
        let fit = inc.solve().unwrap();
        let reference = lstsq::fit(&rows, &y).unwrap();
        for (a, b) in fit.coefficients().iter().zip(&reference.coefficients) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        assert!((fit.r_squared() - reference.r_squared).abs() < 1e-10);
        assert!((fit.residual_sum_of_squares() - reference.residual_sum_of_squares).abs() < 1e-10);
        assert_eq!(inc.rows(), 25);
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
        assert_eq!(inc.triangle(), snapshot.triangle());
        assert_eq!(inc.rows(), 1);
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
        let triangle = original.triangle().to_vec();
        assert_eq!(triangle.len(), UpdatableLstsq::triangle_len(3));
        let mut rebuilt =
            UpdatableLstsq::from_parts(3, &triangle, original.rows(), original.sums()).unwrap();
        assert_eq!(rebuilt, original);
        // The rebuilt accumulator continues exactly as the original does.
        for (r, &yi) in rows.iter().zip(&y).skip(12) {
            original.append(r, yi).unwrap();
            rebuilt.append(r, yi).unwrap();
        }
        let bits = |fit: UpdatableFit| {
            let mut v: Vec<u64> = fit.coefficients().iter().map(|c| c.to_bits()).collect();
            v.push(fit.r_squared().to_bits());
            v
        };
        assert_eq!(
            bits(rebuilt.solve().unwrap()),
            bits(original.solve().unwrap())
        );
        assert_eq!(rebuilt.triangle(), original.triangle());
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
        // Ten columns: past the stack scratch, so every append rotates its
        // row in a heap buffer.
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
        let fit = inc.solve().unwrap();
        let reference = lstsq::fit(&rows, &y).unwrap();
        for (a, b) in fit.coefficients().iter().zip(&reference.coefficients) {
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
}
