//! Dense matrices as their rows (`Vec<Vec<f64>>`, as `qr.rs` keeps
//! them), for tests: the crate stores no dense matrix, but its tests
//! build SPD inputs as `G Gᵀ`, write out the dense reference Hessians its
//! structured kernels are held to, and check solves with `A x`.
//!
//! Plain loops, sharing no code with the crate. A shape mismatch returns
//! `None`. Mounted with `#[path]` at the root of the crate's unit tests,
//! beside `qr.rs` and `lstsq.rs`.

/// The `rows x cols` zero matrix.
pub(crate) fn zeros(rows: usize, cols: usize) -> Vec<Vec<f64>> {
    vec![vec![0.0; cols]; rows]
}

/// The `n x n` identity.
pub(crate) fn identity(n: usize) -> Vec<Vec<f64>> {
    let mut m = zeros(n, n);
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// Number of columns: that of the first row, 0 without rows.
fn cols(a: &[Vec<f64>]) -> usize {
    a.first().map_or(0, Vec::len)
}

/// The transpose of `a`.
pub(crate) fn transpose(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
    (0..cols(a))
        .map(|j| a.iter().map(|row| row[j]).collect())
        .collect()
}

/// The product `a b`; `None` when the inner dimensions differ.
pub(crate) fn matmul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
    (cols(a) == b.len()).then(|| {
        a.iter()
            .map(|row| {
                (0..cols(b))
                    .map(|j| row.iter().zip(b).map(|(v, b_k)| v * b_k[j]).sum())
                    .collect()
            })
            .collect()
    })
}

/// The product `a x`; `None` when `x.len()` is not `a`'s column count.
pub(crate) fn matvec(a: &[Vec<f64>], x: &[f64]) -> Option<Vec<f64>> {
    (x.len() == cols(a)).then(|| {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(v, w)| v * w).sum())
            .collect()
    })
}

/// The product `aᵀ x`; `None` when `x.len()` is not `a`'s row count.
pub(crate) fn matvec_transposed(a: &[Vec<f64>], x: &[f64]) -> Option<Vec<f64>> {
    (x.len() == a.len()).then(|| {
        (0..cols(a))
            .map(|j| a.iter().zip(x).map(|(row, w)| row[j] * w).sum())
            .collect()
    })
}

/// Largest absolute entry, or `0.0` for an empty matrix.
pub(crate) fn max_abs(a: &[Vec<f64>]) -> f64 {
    a.iter().flatten().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `a += s x xᵀ`.
pub(crate) fn rank_one_update(a: &mut [Vec<f64>], s: f64, x: &[f64]) {
    for (row, &xi) in a.iter_mut().zip(x) {
        // `s * x[i] * x[j]` associates left, so hoisting `s * x[i]` out
        // of the inner loop reproduces the same rounding.
        let sxi = s * xi;
        for (r, &xj) in row.iter_mut().zip(x) {
            *r += sxi * xj;
        }
    }
}

/// `a += s b`, entry by entry.
pub(crate) fn axpy(a: &mut [Vec<f64>], s: f64, b: &[Vec<f64>]) {
    for (a, b) in a.iter_mut().flatten().zip(b.iter().flatten()) {
        *a += s * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<f64>> {
        vec![vec![1.0, 2.0], vec![3.0, 4.0]]
    }

    #[test]
    fn zeros_and_identity() {
        assert_eq!(zeros(2, 3), vec![vec![0.0; 3]; 2]);
        assert_eq!(matmul(&identity(2), &sample()).unwrap(), sample());
    }

    #[test]
    fn transpose_involution() {
        let m = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        assert_eq!(transpose(&m)[2], [3.0, 6.0]);
        assert_eq!(transpose(&transpose(&m)), m);
    }

    #[test]
    fn matmul_known_product() {
        let b = vec![vec![5.0, 6.0], vec![7.0, 8.0]];
        let want = vec![vec![19.0, 22.0], vec![43.0, 50.0]];
        assert_eq!(matmul(&sample(), &b).unwrap(), want);
    }

    #[test]
    fn matmul_shape_mismatch() {
        assert!(matmul(&zeros(2, 3), &zeros(2, 2)).is_none());
    }

    #[test]
    fn matvec_and_transposed() {
        let a = sample();
        assert_eq!(matvec(&a, &[1.0, 0.0]).unwrap(), vec![1.0, 3.0]);
        assert_eq!(matvec_transposed(&a, &[1.0, 0.0]).unwrap(), vec![1.0, 2.0]);
        assert!(matvec(&a, &[1.0]).is_none());
        assert!(matvec_transposed(&a, &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn norms() {
        assert_eq!(max_abs(&[vec![3.0, -4.0]]), 4.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn rank_one_update_matches_formula() {
        let mut m = zeros(2, 2);
        rank_one_update(&mut m, 2.0, &[1.0, 3.0]);
        assert_eq!(m, vec![vec![2.0, 6.0], vec![6.0, 18.0]]);
    }

    #[test]
    fn axpy_matrix_accumulates_in_place() {
        let mut a = sample();
        axpy(&mut a, 2.0, &identity(2));
        assert_eq!(a, vec![vec![3.0, 2.0], vec![3.0, 6.0]]);
    }
}
