//! Unified numerical tolerances for rank, degeneracy and definiteness
//! decisions.
//!
//! Before this module existed, `qr`, `lstsq` and `cholesky` each carried
//! their own ad-hoc constants for "numerically zero". They are collected
//! here with their rationale so that every layer — the batch QR path, the
//! incremental update path ([`crate::update`]), and the ridge fallback in
//! Newton steps — classifies the *same* matrix the same way. The market's
//! degenerate-refit quarantine logic depends on that consistency: an agent
//! must not flip between "collinear" and "fine" depending on which solver
//! path happened to run.
//!
//! All thresholds are relative where possible: a diagonal entry is compared
//! against the largest diagonal magnitude (floored at 1.0 so an
//! all-tiny matrix is still declared deficient rather than scaled into
//! apparent health).

/// Relative tolerance below which a triangular diagonal entry is treated as
/// zero when deciding rank. Shared by [`crate::qr::Qr::solve_least_squares`]
/// and [`crate::update::UpdatableLstsq::solve`].
///
/// `1e-12` sits ~4 decimal digits above `f64::EPSILON`, absorbing the
/// round-off a Householder or Givens reduction introduces on a
/// well-conditioned design while still flagging genuinely collinear data.
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

/// Floor on `alpha^2 = 1 - ||a||^2` in a row downdate
/// ([`crate::update::UpdatableLstsq::downdate`]). A removed row that drives
/// `alpha^2` at or below this leaves a numerically rank-deficient triangle,
/// so the downdate is refused and the caller refactorizes from scratch.
pub(crate) const DOWNDATE_TOL: f64 = 1e-12;

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
/// response of `m` observations — the zero-variance R² convention shared by
/// [`crate::lstsq::fit`] and the incremental path: a zero-variance response
/// gets R² = 1.0 when the residual clears this bound and 0.0 otherwise.
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
