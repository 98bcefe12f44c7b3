//! Cholesky factorization of symmetric positive-definite matrices in
//! envelope storage.
//!
//! Used by the Newton steps inside [`crate::newton`] and
//! [`crate::barrier`], whose Hessians are symmetric, (after
//! regularization) positive definite, and — on the programs the REF
//! mechanisms build — mostly zero: a diagonal, small diagonal blocks, an
//! arrow. An [`Envelope`] stores each lower-triangle row from its first
//! non-zero column to the diagonal, and a Cholesky factor fills in nothing
//! outside that profile, so factor and solves cost time and memory in the
//! profile, not in `n^2`. A dense matrix is the full profile.

use crate::error::{Result, SolverError};
use crate::matrix::Matrix;

/// A symmetric matrix whose lower triangle is stored row by row, each row
/// from its first stored column to the diagonal (envelope, or skyline,
/// storage). Entries left of a row's first column are structural zeros.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Envelope {
    /// First stored column of each row, `first[i] <= i`.
    first: Vec<usize>,
    /// Row `i` owns `vals[starts[i]..starts[i + 1]]`: columns
    /// `first[i]..=i`.
    starts: Vec<usize>,
    vals: Vec<f64>,
}

impl Envelope {
    /// The zero matrix with the given profile: `first[i]` is the first
    /// stored column of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if some `first[i]` exceeds `i` (the diagonal is always
    /// stored).
    pub(crate) fn zeros(first: Vec<usize>) -> Envelope {
        let mut starts = Vec::with_capacity(first.len() + 1);
        let mut stored = 0;
        starts.push(0);
        for (i, &f) in first.iter().enumerate() {
            assert!(f <= i, "row {i} cannot start at column {f}");
            stored += i - f + 1;
            starts.push(stored);
        }
        Envelope {
            first,
            starts,
            vals: vec![0.0; stored],
        }
    }

    /// The lower triangle of the square matrix `a` under the full profile;
    /// the strict upper triangle is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotSquare`] for rectangular input.
    pub(crate) fn from_lower(a: &Matrix) -> Result<Envelope> {
        if !a.is_square() {
            return Err(SolverError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let mut e = Envelope::zeros(vec![0; a.rows()]);
        for i in 0..a.rows() {
            e.row_mut(i).copy_from_slice(&a.row(i)[..=i]);
        }
        Ok(e)
    }

    /// Dimension `n` of the `n x n` matrix.
    pub(crate) fn dim(&self) -> usize {
        self.first.len()
    }

    /// Number of stored entries.
    #[cfg(test)]
    pub(crate) fn stored(&self) -> usize {
        self.vals.len()
    }

    /// First stored column of row `i`.
    pub(crate) fn first(&self, i: usize) -> usize {
        self.first[i]
    }

    /// The stored part of row `i`: columns `first(i)..=i`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.vals[self.starts[i]..self.starts[i + 1]]
    }

    /// Mutable access to the stored part of row `i`.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.vals[self.starts[i]..self.starts[i + 1]]
    }

    /// Entry `(i, j)` of the symmetric matrix; zero outside the envelope.
    #[cfg(test)]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        match j.checked_sub(self.first[i]) {
            Some(k) => self.row(i)[k],
            None => 0.0,
        }
    }

    /// Sets every stored entry to zero.
    pub(crate) fn clear(&mut self) {
        self.vals.fill(0.0);
    }

    /// Largest absolute stored entry, or `0.0` for an empty matrix.
    pub(crate) fn max_abs(&self) -> f64 {
        self.vals.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// The lower triangle as a dense matrix (strict upper triangle zero).
    #[cfg(test)]
    pub(crate) fn to_lower(&self) -> Matrix {
        Matrix::from_fn(self.dim(), self.dim(), |i, j| {
            if j <= i {
                self.get(i, j)
            } else {
                0.0
            }
        })
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`, in the envelope
/// of `A`.
///
/// The factorization is the dense row-oriented algorithm with every
/// product by a structural zero left out: a factor entry outside `A`'s
/// envelope is an exact zero, so factor and solution are those of the
/// dense algorithm bit for bit whatever the profile.
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
    l: Envelope,
    /// Column `j` of the strict lower triangle has its stored entries in
    /// rows `col_rows[col_starts[j]..col_starts[j + 1]]`, ascending: the
    /// back substitution walks columns of a row-stored factor.
    col_starts: Vec<usize>,
    col_rows: Vec<usize>,
}

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// ignored, so callers may pass matrices with round-off asymmetry.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotSquare`] for rectangular input, and the
    /// errors of `refactor`.
    pub fn new(a: &Matrix) -> Result<Cholesky> {
        let a = Envelope::from_lower(a)?;
        let mut ch = Cholesky::with_profile(&a.first);
        ch.refactor(&a, 0.0)?;
        Ok(ch)
    }

    /// Storage for the factor of a matrix with the given profile (see
    /// [`Envelope::zeros`]), to be filled by
    /// [`refactor`](Cholesky::refactor).
    pub(crate) fn with_profile(first: &[usize]) -> Cholesky {
        let l = Envelope::zeros(first.to_vec());
        let n = first.len();
        let mut col_starts = vec![0; n + 1];
        for (k, &f) in first.iter().enumerate() {
            for j in f..k {
                col_starts[j + 1] += 1;
            }
        }
        for j in 0..n {
            col_starts[j + 1] += col_starts[j];
        }
        let mut next = col_starts.clone();
        let mut col_rows = vec![0; col_starts[n]];
        for (k, &f) in first.iter().enumerate() {
            for j in f..k {
                col_rows[next[j]] = k;
                next[j] += 1;
            }
        }
        Cholesky {
            l,
            col_starts,
            col_rows,
        }
    }

    /// Factors `a + ridge I` into this factor's storage, reallocating only
    /// when the profile changes — the Newton loop factors one Hessian per
    /// iterate, and again with a growing `ridge` when one loses
    /// definiteness to round-off. On error the factor holds garbage until
    /// the next successful call.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotPositiveDefinite`] if a non-positive pivot
    /// is encountered and [`SolverError::NonFinite`] if a pivot is not
    /// finite (every non-finite entry of `a` reaches its row's pivot).
    pub(crate) fn refactor(&mut self, a: &Envelope, ridge: f64) -> Result<()> {
        if self.l.first != a.first {
            *self = Cholesky::with_profile(&a.first);
        }
        let Envelope {
            first,
            starts,
            vals,
        } = &mut self.l;
        for i in 0..first.len() {
            let fi = first[i];
            let a_i = a.row(i);
            let (done, rest) = vals.split_at_mut(starts[i]);
            let row_i = &mut rest[..=i - fi];
            for j in fi..i {
                // Rows i and j overlap in columns lo..j; the two gaxpy
                // operands are contiguous slices of the rows.
                let fj = first[j];
                let lo = fi.max(fj);
                let row_j = &done[starts[j]..starts[j + 1]];
                let mut s = a_i[j - fi];
                for (x, y) in row_i[lo - fi..j - fi].iter().zip(&row_j[lo - fj..j - fj]) {
                    s -= x * y;
                }
                row_i[j - fi] = s / row_j[j - fj];
            }
            let mut s = a_i[i - fi] + ridge;
            for x in &row_i[..i - fi] {
                s -= x * x;
            }
            if !s.is_finite() {
                return Err(SolverError::NonFinite("Cholesky pivot".to_string()));
            }
            if s <= 0.0 {
                return Err(SolverError::NotPositiveDefinite);
            }
            row_i[i - fi] = s.sqrt();
        }
        Ok(())
    }

    /// The lower-triangular factor.
    #[cfg(test)]
    pub(crate) fn l(&self) -> &Envelope {
        &self.l
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `b.len()` differs from the
    /// dimension of `A`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// [`solve`](Cholesky::solve) into a caller-owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `b.len()` or `x.len()`
    /// differs from the dimension of `A`.
    pub(crate) fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        if b.len() != x.len() {
            return Err(SolverError::ShapeMismatch(format!(
                "rhs length {} but solution length {}",
                b.len(),
                x.len()
            )));
        }
        x.copy_from_slice(b);
        self.solve_in_place(x)
    }

    /// [`solve`](Cholesky::solve) with the right-hand side in `x` on entry
    /// and the solution there on return.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `x.len()` differs from the
    /// dimension of `A`.
    pub(crate) fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.l.dim();
        if x.len() != n {
            return Err(SolverError::ShapeMismatch(format!(
                "vector length {} but matrix dimension {n}",
                x.len()
            )));
        }
        let Envelope {
            first,
            starts,
            vals,
        } = &self.l;
        // Forward substitution: L y = b, y overwriting b entry by entry.
        for i in 0..n {
            let row = &vals[starts[i]..starts[i + 1] - 1];
            let mut s = x[i];
            for (l, y) in row.iter().zip(&x[first[i]..i]) {
                s -= l * y;
            }
            x[i] = s / vals[starts[i + 1] - 1];
        }
        // Back substitution: L^T x = y. Entry i of y is consumed before
        // x[i] overwrites it, and only x[k] for k > i is read.
        for i in (0..n).rev() {
            let mut s = x[i];
            for &k in &self.col_rows[self.col_starts[i]..self.col_starts[i + 1]] {
                s -= vals[starts[k] + i - first[k]] * x[k];
            }
            x[i] = s / vals[starts[i + 1] - 1];
        }
        Ok(())
    }
}

/// The dense row-oriented algorithm the envelope factorization is held to:
/// factor and both substitutions over a full matrix, multiplying through
/// every zero.
#[cfg(test)]
pub(crate) mod dense {
    use crate::matrix::Matrix;

    /// The factor `L` of `a` (lower triangle read), or `None` at a
    /// non-positive or non-finite pivot.
    pub(crate) fn factor(a: &Matrix) -> Option<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return None;
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// `x` with `L L^T x = b`.
    pub(crate) fn solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[(i, k)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in i + 1..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn an_arrow_envelope_stores_its_profile() {
        // An arrow: a diagonal plus a dense last row.
        let mut a = Envelope::zeros(vec![0, 1, 0]);
        assert_eq!((a.dim(), a.stored()), (3, 5));
        a.row_mut(2).copy_from_slice(&[1.0, 2.0, 9.0]);
        assert_eq!(a.get(2, 1), 2.0);
        assert_eq!(a.get(1, 0), 0.0);
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
        let l = ch.l().to_lower();
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
    fn rejects_indefinite_and_non_finite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(SolverError::NotPositiveDefinite)
        ));
        // A non-finite entry anywhere in a row reaches that row's pivot.
        for bad in [f64::NAN, f64::INFINITY] {
            let a = Matrix::from_rows(&[&[1.0, 0.0], &[bad, 1.0]]).unwrap();
            assert!(matches!(Cholesky::new(&a), Err(SolverError::NonFinite(_))));
        }
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(SolverError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_checks_lengths() {
        let a = Matrix::identity(2);
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_into(&[1.0, 1.0], &mut [0.0]).is_err());
    }

    #[test]
    fn a_ridge_makes_a_semidefinite_matrix_factorable() {
        let a =
            Envelope::from_lower(&Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap()).unwrap();
        let mut ch = Cholesky::with_profile(&[0, 0]);
        assert!(matches!(
            ch.refactor(&a, 0.0),
            Err(SolverError::NotPositiveDefinite)
        ));
        ch.refactor(&a, 1e-6).unwrap();
        let x = ch.solve(&[2.0, 2.0]).unwrap();
        assert_close(x[0], x[1], 1e-6);
        assert_close(x[0] + x[1], 2.0, 1e-5);
        // The ridge is added while factoring: `a` itself is untouched.
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn reads_lower_triangle_only() {
        let asym = Matrix::from_rows(&[&[4.0, 999.0], &[2.0, 3.0]]).unwrap();
        let sym = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let a = Cholesky::new(&asym).unwrap();
        let b = Cholesky::new(&sym).unwrap();
        assert_eq!(a.l(), b.l());
    }

    #[test]
    fn refactor_follows_a_change_of_profile() {
        let mut ch = Cholesky::with_profile(&[0, 1]);
        let mut a = Envelope::zeros(vec![0, 0, 2]);
        a.row_mut(0)[0] = 4.0;
        a.row_mut(1).copy_from_slice(&[2.0, 3.0]);
        a.row_mut(2)[0] = 9.0;
        ch.refactor(&a, 0.0).unwrap();
        assert_eq!(ch.l().stored(), 4);
        let x = ch.solve(&[8.0, 7.0, 18.0]).unwrap();
        assert_close(x[0], 1.25, 1e-12);
        assert_close(x[1], 1.5, 1e-12);
        assert_close(x[2], 2.0, 1e-12);
    }

    /// The four profiles the Newton systems take, over `n` rows in blocks
    /// of `block`: a diagonal, diagonal blocks, blocks plus a dense last
    /// row (an arrow), everything.
    fn profile(kind: u8, n: usize, block: usize) -> Vec<usize> {
        (0..n)
            .map(|i| match kind {
                0 => i,
                1 => i - i % block,
                2 if i + 1 == n => 0,
                2 => i - i % block,
                _ => 0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn envelope_factorization_is_the_dense_algorithm_on_every_profile(
            kind in 0u8..4,
            n in 1usize..=12,
            block in 1usize..=4,
            entries in prop::collection::vec(-1.0..1.0_f64, 144),
            rhs in prop::collection::vec(-10.0..10.0_f64, 12),
        ) {
            // A = G G^T for a lower-triangular G with the profile and a
            // diagonal away from zero is positive definite, and its
            // envelope is G's.
            let first = profile(kind, n, block);
            let g = Matrix::from_fn(n, n, |i, j| match (j >= first[i], i == j) {
                (true, true) => 1.0 + entries[i * 12 + j].abs(),
                (true, false) if j < i => entries[i * 12 + j],
                _ => 0.0,
            });
            let a = g.matmul(&g.transpose()).unwrap();
            let mut env = Envelope::zeros(first.clone());
            for i in 0..n {
                env.row_mut(i).copy_from_slice(&a.row(i)[first[i]..=i]);
                prop_assert!(a.row(i)[..first[i]].iter().all(|&v| v == 0.0));
            }
            prop_assert_eq!(env.stored(), (0..n).map(|i| i - first[i] + 1).sum::<usize>());
            let mut ch = Cholesky::with_profile(&first);
            ch.refactor(&env, 0.0).unwrap();
            let b = &rhs[..n];
            let (l, x) = (ch.l().to_lower(), ch.solve(b).unwrap());
            let want_l = dense::factor(&a).expect("positive definite");
            let want_x = dense::solve(&want_l, b);
            // Skipping a product by an exact zero changes nothing but,
            // possibly, the sign of a zero: equal as numbers on every
            // profile, and the same bits where nothing is skipped.
            prop_assert_eq!(&l, &want_l);
            prop_assert_eq!(&x, &want_x);
            if kind == 3 {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(l.as_slice()), bits(want_l.as_slice()));
                prop_assert_eq!(bits(&x), bits(&want_x));
            }
            // And it does solve the system.
            let ax = a.matvec(&x).unwrap();
            let scale = (1.0 + a.max_abs()) * (1.0 + crate::vec_ops::norm_inf(&x));
            for (got, want) in ax.iter().zip(b) {
                prop_assert!((got - want).abs() <= 1e-13 * n as f64 * scale, "{got} vs {want}");
            }
        }
    }
}
