//! Small vector helpers shared by the factorizations and optimizers.
//!
//! These operate on plain `&[f64]` slices; the crate does not define a vector
//! newtype because callers (regression, interior point) overwhelmingly work
//! with borrowed buffers.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(ref_solver::vec_ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Infinity norm (largest absolute entry), `0.0` for an empty slice.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y += s * x`, in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub(crate) fn axpy(s: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += s * xi;
    }
}

/// Sum of entries.
pub(crate) fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Arithmetic mean, `0.0` for an empty slice.
pub(crate) fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        sum(a) / a.len() as f64
    }
}

/// `n` zeroed floats of scratch: the front of `stack` when it is long
/// enough, otherwise `heap`, grown to `n`. A caller sizes `stack` for the
/// designs it expects, so small ones never allocate.
///
/// # Examples
///
/// ```
/// let (mut stack, mut heap) = ([0.0; 4], Vec::new());
/// assert_eq!(ref_solver::vec_ops::scratch(&mut stack, &mut heap, 3).len(), 3);
/// assert_eq!(ref_solver::vec_ops::scratch(&mut stack, &mut heap, 9).len(), 9);
/// assert_eq!(heap.len(), 9);
/// ```
pub fn scratch<'a>(stack: &'a mut [f64], heap: &'a mut Vec<f64>, n: usize) -> &'a mut [f64] {
    match stack.get_mut(..n) {
        Some(front) => front,
        None => {
            heap.resize(n, 0.0);
            &mut heap[..]
        }
    }
}

/// Whether every entry is finite.
pub(crate) fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|v| v.is_finite())
}

/// Numerically stable log-sum-exp: `log(sum_i exp(a_i))`.
///
/// Returns negative infinity for an empty slice (the sum of zero terms).
///
/// # Examples
///
/// ```
/// let v = ref_solver::vec_ops::log_sum_exp(&[1000.0, 1000.0]);
/// assert!((v - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
/// ```
pub fn log_sum_exp(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = a.iter().fold(f64::NEG_INFINITY, |acc, &v| acc.max(v));
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = a.iter().map(|&v| (v - m).exp()).sum();
    m + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn scale_sum_mean() {
        let a = vec![2.0, 4.0, 6.0];
        assert_eq!(sum(&a), 12.0);
        assert_eq!(mean(&a), 4.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn log_sum_exp_is_stable() {
        // Would overflow with a naive implementation.
        let v = log_sum_exp(&[1e4, 1e4 - 1.0]);
        assert!(v.is_finite());
        assert!(v > 1e4);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_matches_direct_for_small_values() {
        let direct = (0.5_f64.exp() + 1.5_f64.exp() + (-0.3_f64).exp()).ln();
        let stable = log_sum_exp(&[0.5, 1.5, -0.3]);
        assert!((direct - stable).abs() < 1e-12);
    }

    #[test]
    fn all_finite_detects_nan() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
