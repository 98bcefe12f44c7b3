//! Numerical tolerances for rank, degeneracy and definiteness decisions,
//! each with its rationale.
//!
//! The least-squares path ([`crate::update`]) classifies rank and zero
//! variance with these, the Newton steps take their ridge fallback from
//! them, and the market's tests build a collinear design from
//! [`RANK_TOL`].
//!
//! All thresholds are relative where possible: a diagonal entry is compared
//! against the largest diagonal magnitude (floored at 1.0 so an
//! all-tiny matrix is still declared deficient rather than scaled into
//! apparent health).

/// Relative tolerance below which a triangular diagonal entry is treated as
/// zero when deciding rank, by [`crate::update::UpdatableLstsq::solve`].
///
/// `1e-12` sits ~4 decimal digits above `f64::EPSILON`, absorbing the
/// round-off a Givens reduction introduces on a well-conditioned design
/// while still flagging genuinely collinear data.
pub const RANK_TOL: f64 = 1e-12;

/// Relative size of the initial ridge `tau` a Newton step
/// ([`crate::newton`]) puts on its Hessian's diagonal when the system loses
/// positive definiteness to round-off. Grows by [`RIDGE_GROWTH`] per retry.
pub(crate) const RIDGE_TOL: f64 = 1e-12;

/// Multiplicative growth of the ridge between factorization retries.
pub(crate) const RIDGE_GROWTH: f64 = 10.0;

/// Maximum ridge retries before giving up
/// (`tau` spans `RIDGE_TOL * RIDGE_GROWTH^RIDGE_RETRIES` relative to the
/// matrix scale — far beyond any system worth solving).
pub(crate) const RIDGE_RETRIES: usize = 40;

/// The rank threshold for a triangle whose largest diagonal magnitude is
/// `scale`: entries at or below this are treated as zero.
pub(crate) fn rank_threshold(scale: f64) -> f64 {
    RANK_TOL * scale.max(1.0)
}

/// The initial ridge for a matrix whose largest entry magnitude is `scale`.
pub(crate) fn initial_ridge(scale: f64) -> f64 {
    RIDGE_TOL * scale.max(1.0)
}

/// Residual sum of squares at or below this is "numerically zero" for a
/// response of `m` observations — the zero-variance R² convention of
/// [`crate::update`]: a zero-variance response gets R² = 1.0 when the
/// residual clears this bound and 0.0 otherwise.
pub(crate) fn zero_variance_rss(m: usize) -> f64 {
    f64::EPSILON * m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_relative_with_unit_floor() {
        assert_eq!(rank_threshold(0.5), RANK_TOL);
        assert_eq!(rank_threshold(2.0), 2.0 * RANK_TOL);
        assert_eq!(initial_ridge(0.0), RIDGE_TOL);
        assert_eq!(initial_ridge(1e6), 1e6 * RIDGE_TOL);
    }

    #[test]
    fn zero_variance_bound_scales_with_rows() {
        assert_eq!(zero_variance_rss(3), 3.0 * f64::EPSILON);
        assert!(zero_variance_rss(0) == 0.0);
    }
}
