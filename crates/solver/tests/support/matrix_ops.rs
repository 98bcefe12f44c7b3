//! Dense products on `Matrix`, for tests: the crate's kernels never form
//! a product or a transpose of a dense matrix, but its tests build SPD
//! inputs as `G Gᵀ` and check solves and dense references with `A x`.
//!
//! Written on the public `Matrix` interface (`rows`, `cols`, `row`,
//! indexing) as plain loops. A shape mismatch returns `None`. Mounted
//! with `#[path]` at the root of the crate's unit tests, beside `qr.rs`
//! and `lstsq.rs`; the root must have `Matrix` in scope.

use super::Matrix;

/// The transpose of `a`.
pub(crate) fn transpose(a: &Matrix) -> Matrix {
    Matrix::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)])
}

/// The product `a b`; `None` when the inner dimensions differ.
pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Option<Matrix> {
    (a.cols() == b.rows()).then(|| {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|k| a[(i, k)] * b[(k, j)]).sum()
        })
    })
}

/// The product `a x`; `None` when `x.len() != a.cols()`.
pub(crate) fn matvec(a: &Matrix, x: &[f64]) -> Option<Vec<f64>> {
    (x.len() == a.cols()).then(|| {
        (0..a.rows())
            .map(|i| a.row(i).iter().zip(x).map(|(v, w)| v * w).sum())
            .collect()
    })
}

/// The product `aᵀ x`; `None` when `x.len() != a.rows()`.
pub(crate) fn matvec_transposed(a: &Matrix, x: &[f64]) -> Option<Vec<f64>> {
    (x.len() == a.rows()).then(|| {
        (0..a.cols())
            .map(|j| (0..a.rows()).map(|i| a[(i, j)] * x[i]).sum())
            .collect()
    })
}
