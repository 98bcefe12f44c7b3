//! Dense, row-major, `f64` matrices.
//!
//! [`Matrix`] is the workhorse type for the factorizations ([`crate::qr`],
//! [`crate::cholesky`]) and the optimization stack. It is deliberately small:
//! just enough structure for regression and interior-point solvers, written
//! for clarity over raw speed.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::error::{Result, SolverError};

/// A dense matrix of `f64` values with row-major storage.
///
/// # Examples
///
/// ```
/// use ref_solver::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
    /// assert_eq!(m[(1, 1)], 2.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the rows have unequal
    /// lengths, and [`SolverError::InvalidArgument`] if `rows` is empty or the
    /// first row is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m[(1, 0)], 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Matrix> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(SolverError::InvalidArgument(
                "matrix must have at least one row and one column".to_string(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(SolverError::ShapeMismatch(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `data.len() != rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(m[(0, 1)], 2.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(SolverError::ShapeMismatch(format!(
                "buffer of length {} cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// let d = Matrix::diagonal(&[1.0, 2.0]);
    /// assert_eq!(d[(1, 1)], 2.0);
    /// assert_eq!(d[(0, 1)], 0.0);
    /// ```
    pub fn diagonal(diag: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The underlying row-major buffer.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A view of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose of this matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]])?;
    /// let t = m.transpose();
    /// assert_eq!((t.rows(), t.cols()), (3, 1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the inner dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]])?;
    /// let b = Matrix::from_rows(&[&[3.0], &[4.0]])?;
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c[(0, 0)], 11.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(SolverError::ShapeMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        // Blocked over the inner dimension: each panel of `other` rows is
        // streamed against every output row while it is cache-hot. For every
        // output entry the k-contributions still accumulate in ascending
        // order (panels ascend, k ascends within a panel), so the result is
        // bit-identical to the naive triple loop.
        const KC: usize = 64;
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        for k0 in (0..self.cols).step_by(KC) {
            let k1 = (k0 + KC).min(self.cols);
            for i in 0..self.rows {
                let arow = &self.data[i * self.cols..(i + 1) * self.cols];
                let crow = &mut out.data[i * n..(i + 1) * n];
                for k in k0..k1 {
                    let aik = arow[k];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &other.data[k * n..(k + 1) * n];
                    for (c, &b) in crow.iter_mut().zip(brow) {
                        *c += aik * b;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `x.len() != self.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ref_solver::Matrix;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(a.matvec(&[1.0, 1.0])?, vec![3.0, 7.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(SolverError::ShapeMismatch(format!(
                "{}x{} * vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Transposed matrix-vector product `self^T * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(SolverError::ShapeMismatch(format!(
                "({}x{})^T * vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * xi;
            }
        }
        Ok(out)
    }

    /// In-place scale by a constant.
    pub(crate) fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub(crate) fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// Adds `s * x x^T` to this square matrix (rank-one update), for the
    /// dense reference Hessians of the tests.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `x.len()` differs from the
    /// dimension.
    #[cfg(test)]
    pub(crate) fn rank_one_update(&mut self, s: f64, x: &[f64]) {
        assert!(self.is_square(), "rank-one update requires a square matrix");
        assert_eq!(x.len(), self.rows, "vector length must match dimension");
        for (i, &xi) in x.iter().enumerate() {
            // `s * x[i] * x[j]` associates left, so hoisting `s * x[i]` out
            // of the inner loop reproduces the same rounding.
            let sxi = s * xi;
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (r, &xj) in row.iter_mut().zip(x) {
                *r += sxi * xj;
            }
        }
    }

    /// In-place elementwise `self += s * other`.
    ///
    /// Equivalent to `self.add_matrix(&other.scaled(s))` without the two
    /// temporaries. Only the dense reference Hessians the tests hold the
    /// envelope kernels to accumulate this way.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the shapes differ.
    #[cfg(test)]
    pub(crate) fn axpy_matrix(&mut self, s: f64, other: &Matrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SolverError::ShapeMismatch(format!(
                "{}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
        Ok(())
    }

    /// Largest absolute entry, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Whether every entry is finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Elementwise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the shapes differ.
    pub(crate) fn add_matrix(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::ShapeMismatch`] if the shapes differ.
    pub fn sub_matrix(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(&self, other: &Matrix, f: F) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SolverError::ShapeMismatch(format!(
                "{}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs)
            .expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::sub_matrix`] for a fallible
    /// version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&sample()).unwrap(), sample());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, SolverError::ShapeMismatch(_)));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
        let empty: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty]).is_err());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn blocked_matmul_matches_naive_across_panel_boundary() {
        // Inner dimension larger than one k-panel exercises the panel loop.
        let k = 150;
        let a = Matrix::from_fn(3, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(k, 4, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);
        let c = a.matmul(&b).unwrap();
        let mut naive = Matrix::zeros(3, 4);
        for i in 0..3 {
            for kk in 0..k {
                let aik = a[(i, kk)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..4 {
                    naive[(i, j)] += aik * b[(kk, j)];
                }
            }
        }
        assert_eq!(c, naive);
    }

    #[test]
    fn axpy_matrix_accumulates_in_place() {
        let mut a = sample();
        let b = Matrix::identity(2);
        a.axpy_matrix(2.0, &b).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(1, 1)], 6.0);
        assert!(a.axpy_matrix(1.0, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_and_transposed() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 0.0]).unwrap(), vec![1.0, 3.0]);
        assert_eq!(a.matvec_transposed(&[1.0, 0.0]).unwrap(), vec![1.0, 2.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.matvec_transposed(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn rank_one_update_matches_formula() {
        let mut m = Matrix::zeros(2, 2);
        m.rank_one_update(2.0, &[1.0, 3.0]);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(0, 1)], 6.0);
        assert_eq!(m[(1, 1)], 18.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let neg = -&a;
        assert_eq!(neg[(1, 1)], -4.0);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 0)], 6.0);
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::zeros(1, 1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn diagonal_matrix() {
        let d = Matrix::diagonal(&[2.0, 3.0]);
        let v = d.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![2.0, 3.0]);
    }
}
