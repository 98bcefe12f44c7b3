//! On-line profiling (§4.4): adapting a utility estimate at run time.
//!
//! "Without prior knowledge, a user assumes all resources contribute
//! equally to performance. Such a naive user reports utility
//! `u = x^0.5 y^0.5`. As the system allocates for this utility, the user
//! profiles software performance. And as profiles are accumulated for
//! varied allocations, the user adapts its utility function."
//!
//! [`OnlineEstimator`] implements exactly that loop: it starts from the
//! uniform prior, accumulates `(allocation, performance)` observations, and
//! refits the Cobb-Douglas elasticities by the same log-linear regression
//! the offline pipeline uses, as soon as — and whenever — the accumulated
//! design becomes informative.
//!
//! Refits are *incremental*: the estimator maintains the updatable
//! triangular factor of the log-design ([`ref_solver::update`]), so each
//! [`OnlineEstimator::observe`] costs `O(R^2)` — one Givens row append plus
//! a back-substitution — instead of refactorizing all `m` accumulated
//! observations (`O(m R^2)`). [`OnlineEstimator::with_window`] bounds the
//! design to a sliding window by downdating the oldest row as new ones
//! arrive, so long-lived agents track drifting workloads at constant cost.
//!
//! The estimator also carries a running 64-bit *digest* of its log
//! ([`OnlineEstimator::log_digest`]), extended in `O(R)` per observation,
//! so a replica can prove it holds the same log as its peer without
//! either side re-reading a history that only ever grows.

use ref_solver::update::UpdatableLstsq;

use crate::digest;
use crate::error::{CoreError, Result};
use crate::fitting::FitPoint;
use crate::utility::CobbDouglas;

/// An adaptive Cobb-Douglas estimate built from run-time observations.
///
/// # Examples
///
/// ```
/// use ref_core::online::OnlineEstimator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut est = OnlineEstimator::new(2)?;
/// // Naive prior: equal elasticities.
/// assert_eq!(est.utility().elasticities(), &[0.5, 0.5]);
///
/// // Observe performance at varied allocations of a workload whose true
/// // utility is x^0.8 y^0.2.
/// for &(x, y) in &[(1.0, 1.0), (2.0, 1.0), (4.0, 2.0), (1.0, 4.0), (8.0, 2.0), (2.0, 8.0)] {
///     let perf = f64::powf(x, 0.8) * f64::powf(y, 0.2);
///     est.observe(vec![x, y], perf)?;
/// }
/// assert!((est.utility().elasticity(0) - 0.8).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineEstimator {
    num_resources: usize,
    observations: Vec<FitPoint>,
    /// [`OnlineEstimator::digest_of`] `observations`, maintained as they
    /// arrive (the field is private so nothing else can move the log).
    log_digest: u64,
    /// Updatable triangular factor of the log-design `[1, ln x_1..ln x_R]`
    /// with response `ln u`; mirrors `observations` row for row.
    triangle: UpdatableLstsq,
    /// Sliding-window bound on the design, if any (see
    /// [`OnlineEstimator::with_window`]).
    window: Option<usize>,
    current: CobbDouglas,
    refits: usize,
    incremental_refits: usize,
    last_r_squared: Option<f64>,
    degenerate_refits: usize,
    consecutive_degenerate: usize,
}

impl OnlineEstimator {
    /// Creates an estimator with the naive uniform prior
    /// `u = prod_r x_r^{1/R}`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `num_resources == 0`.
    pub fn new(num_resources: usize) -> Result<OnlineEstimator> {
        if num_resources == 0 {
            return Err(CoreError::InvalidArgument(
                "need at least one resource".to_string(),
            ));
        }
        let prior = CobbDouglas::new(1.0, vec![1.0 / num_resources as f64; num_resources])?;
        Ok(OnlineEstimator {
            num_resources,
            observations: Vec::new(),
            log_digest: digest::SEED,
            triangle: UpdatableLstsq::new(num_resources + 1),
            window: None,
            current: prior,
            refits: 0,
            incremental_refits: 0,
            last_r_squared: None,
            degenerate_refits: 0,
            consecutive_degenerate: 0,
        })
    }

    /// Creates an estimator whose design is bounded to the most recent
    /// `window` observations.
    ///
    /// Each observation past the bound *downdates* the oldest row out of
    /// the triangular factor (LINPACK `dchdd`), so a long-lived agent
    /// tracks a drifting workload at `O(R^2)` per observation and constant
    /// memory instead of averaging over its entire history. When a
    /// downdate would destroy the factor's conditioning the estimator
    /// falls back to refactorizing the surviving rows from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `num_resources == 0` or
    /// the window is too small to ever fit (`window <= num_resources + 1`).
    pub fn with_window(num_resources: usize, window: usize) -> Result<OnlineEstimator> {
        let mut est = OnlineEstimator::new(num_resources)?;
        if window <= num_resources + 1 {
            return Err(CoreError::InvalidArgument(format!(
                "window of {window} observations can never fit {} + 1 parameters",
                num_resources + 1
            )));
        }
        est.window = Some(window);
        Ok(est)
    }

    /// Rebuilds an estimator by replaying recorded observations.
    ///
    /// Replay is deterministic: the same observation sequence produces the
    /// same refit count, the same fitted utility (bit for bit) and the same
    /// goodness of fit, which is what lets a restarted service resume a
    /// market mid-run from a serialized observation log.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `num_resources == 0` or any
    /// observation fails the checks [`OnlineEstimator::observe`] applies.
    pub fn from_observations(
        num_resources: usize,
        observations: &[FitPoint],
    ) -> Result<OnlineEstimator> {
        let mut est = OnlineEstimator::new(num_resources)?;
        for obs in observations {
            est.observe(obs.inputs.clone(), obs.output)?;
        }
        Ok(est)
    }

    /// The current utility estimate (the naive prior until the first
    /// successful refit).
    pub fn utility(&self) -> &CobbDouglas {
        &self.current
    }

    /// The accumulated observations, in arrival order.
    pub fn observations(&self) -> &[FitPoint] {
        &self.observations
    }

    /// Number of accumulated observations.
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// A 64-bit digest of [`OnlineEstimator::observations`]: every bit of
    /// every observation, in arrival order. Always equal to
    /// [`OnlineEstimator::digest_of`] the current log, but read in `O(1)`:
    /// [`OnlineEstimator::observe`] extends it by the new row alone.
    pub fn log_digest(&self) -> u64 {
        self.log_digest
    }

    /// The digest of an observation log, computed from scratch: what
    /// [`OnlineEstimator::log_digest`] reports for an estimator holding
    /// exactly `observations`. Changing one value — by as little as one
    /// bit — always changes it; reordering, dropping or adding rows does
    /// unless 64 bits collide (see [`digest::mix`]). The value is only
    /// comparable between builds that share this definition.
    pub fn digest_of(observations: &[FitPoint]) -> u64 {
        observations.iter().fold(digest::SEED, Self::extend_digest)
    }

    /// One observation's step: the output's bits, then each input's.
    fn extend_digest(log_digest: u64, point: &FitPoint) -> u64 {
        point
            .inputs
            .iter()
            .fold(digest::mix(log_digest, point.output.to_bits()), |d, x| {
                digest::mix(d, x.to_bits())
            })
    }

    /// Number of successful refits so far.
    pub fn refits(&self) -> usize {
        self.refits
    }

    /// Number of successful refits served by the incremental `O(R^2)`
    /// append path (as opposed to a from-scratch refactorization). With
    /// the current design every successful refit is incremental, so this
    /// equals [`OnlineEstimator::refits`]; it is tracked separately so the
    /// market can report fast-path coverage.
    pub fn incremental_refits(&self) -> usize {
        self.incremental_refits
    }

    /// The sliding-window bound, if this estimator was built with
    /// [`OnlineEstimator::with_window`].
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Goodness of fit of the latest refit, if any.
    pub fn r_squared(&self) -> Option<f64> {
        self.last_r_squared
    }

    /// Total refit attempts that produced a *degenerate* model — finite
    /// data whose regression yields a utility Cobb-Douglas cannot
    /// represent (e.g. an overflowed scale). Each one kept the previous
    /// estimate. Collinear designs are expected early on and are *not*
    /// counted here.
    pub fn degenerate_refits(&self) -> usize {
        self.degenerate_refits
    }

    /// Degenerate refits since the last successful one; a run of these
    /// means new data keeps failing to produce a usable model, which is
    /// what callers use to quarantine the estimate.
    pub fn consecutive_degenerate(&self) -> usize {
        self.consecutive_degenerate
    }

    /// Records a performance observation and refits if the data allows.
    ///
    /// Returns `true` if the utility estimate was updated. Refitting
    /// requires more observations than parameters and enough diversity in
    /// the observed allocations; until then (or whenever the design is
    /// collinear, e.g. the mechanism keeps granting the same bundle) the
    /// previous estimate is kept — the caller never loses a usable utility.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if the allocation dimension
    /// differs from the estimator's, or quantities/performance are not
    /// strictly positive finite values.
    pub fn observe(&mut self, allocation: Vec<f64>, performance: f64) -> Result<bool> {
        if allocation.len() != self.num_resources {
            return Err(CoreError::InvalidArgument(format!(
                "observation covers {} resources, estimator expects {}",
                allocation.len(),
                self.num_resources
            )));
        }
        // Reject non-finite measurements up front: a NaN or infinite sample
        // must never reach the regression (where it would poison every
        // subsequent refit through the accumulated design).
        if !performance.is_finite() {
            return Err(CoreError::InvalidArgument(format!(
                "performance observation must be finite, got {performance}"
            )));
        }
        if let Some(q) = allocation.iter().find(|q| !q.is_finite()) {
            return Err(CoreError::InvalidArgument(format!(
                "allocation quantities must be finite, got {q}"
            )));
        }
        let point = FitPoint::new(allocation, performance)?;
        self.triangle
            .append(&Self::log_row(&point), point.output.ln())
            .expect("validated observation rows are finite");
        self.log_digest = Self::extend_digest(self.log_digest, &point);
        self.observations.push(point);
        if let Some(window) = self.window {
            if self.observations.len() > window {
                let evicted = self.observations.remove(0);
                // A running digest cannot forget its oldest row; an
                // eviction re-digests the survivors, `O(window · R)`
                // beside the `O(window)` shift `remove(0)` already costs.
                self.log_digest = Self::digest_of(&self.observations);
                if self
                    .triangle
                    .downdate(&Self::log_row(&evicted), evicted.output.ln())
                    .is_err()
                {
                    // The factor is too close to singular to subtract the
                    // row stably; refactorize the surviving rows instead.
                    self.refactorize();
                }
            }
        }
        if self.observations.len() <= self.num_resources + 1 {
            return Ok(false);
        }
        let fit = match self.triangle.solve() {
            Ok(fit) => fit,
            // A collinear design is expected early on; keep the prior.
            Err(_) => return Ok(false),
        };
        // Post-process exactly as the batch pipeline
        // ([`crate::fitting::fit_cobb_douglas`]) does: exponentiate the
        // intercept, clamp negative elasticities, and substitute a tiny
        // uniform profile when every elasticity clamps to zero.
        let scale = fit.coefficients()[0].exp();
        let elasticities: Vec<f64> = fit.coefficients()[1..].iter().map(|a| a.max(0.0)).collect();
        let utility = if elasticities.iter().all(|a| *a == 0.0) {
            CobbDouglas::new(scale, vec![1e-9; self.num_resources])
        } else {
            CobbDouglas::new(scale, elasticities)
        };
        match utility {
            Ok(utility) => {
                self.current = utility;
                self.last_r_squared = Some(fit.r_squared());
                self.refits += 1;
                self.incremental_refits += 1;
                self.consecutive_degenerate = 0;
                Ok(true)
            }
            // A *degenerate* fit: individually valid points whose
            // aggregate regression produces an unusable model (e.g.
            // `exp(intercept)` overflowing the scale). Keep the last good
            // estimate and count it, instead of erroring — the point is
            // already in the log, so an error here would leave a log that
            // [`OnlineEstimator::from_observations`] cannot replay.
            Err(_) => {
                self.degenerate_refits += 1;
                self.consecutive_degenerate += 1;
                Ok(false)
            }
        }
    }

    /// The log-space design row for one observation: `[1, ln x_1..ln x_R]`.
    fn log_row(point: &FitPoint) -> Vec<f64> {
        let mut row = Vec::with_capacity(point.inputs.len() + 1);
        row.push(1.0);
        row.extend(point.inputs.iter().map(|x| x.ln()));
        row
    }

    /// Rebuilds the triangular factor from the surviving observations
    /// (used when a window downdate is refused for conditioning).
    fn refactorize(&mut self) {
        let mut triangle = UpdatableLstsq::new(self.num_resources + 1);
        for point in &self.observations {
            triangle
                .append(&Self::log_row(point), point.output.ln())
                .expect("previously accepted observations are finite");
        }
        self.triangle = triangle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{Mechanism, ProportionalElasticity};
    use crate::resource::Capacity;
    use crate::utility::Utility;

    #[test]
    fn starts_with_uniform_prior() {
        let est = OnlineEstimator::new(3).unwrap();
        for r in 0..3 {
            assert!((est.utility().elasticity(r) - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(est.num_observations(), 0);
        assert_eq!(est.refits(), 0);
        assert!(est.r_squared().is_none());
        assert!(OnlineEstimator::new(0).is_err());
    }

    #[test]
    fn converges_to_ground_truth() {
        let truth = CobbDouglas::new(0.7, vec![0.3, 0.5]).unwrap();
        let mut est = OnlineEstimator::new(2).unwrap();
        let mut updated_once = false;
        for i in 0..12_u32 {
            let x = 1.0 + (i % 4) as f64;
            let y = 0.5 + (i % 3) as f64;
            let perf = truth.value_slice(&[x, y]);
            updated_once |= est.observe(vec![x, y], perf).unwrap();
        }
        assert!(updated_once);
        assert!((est.utility().elasticity(0) - 0.3).abs() < 1e-9);
        assert!((est.utility().elasticity(1) - 0.5).abs() < 1e-9);
        assert!((est.utility().scale() - 0.7).abs() < 1e-9);
        assert!(est.r_squared().unwrap() > 0.999);
    }

    #[test]
    fn collinear_observations_keep_prior() {
        let mut est = OnlineEstimator::new(2).unwrap();
        // Same allocation every time: log-design is collinear.
        for _ in 0..10 {
            let updated = est.observe(vec![2.0, 2.0], 1.5).unwrap();
            assert!(!updated);
        }
        assert_eq!(est.utility().elasticities(), &[0.5, 0.5]);
        assert_eq!(est.refits(), 0);
    }

    #[test]
    fn validates_observations() {
        let mut est = OnlineEstimator::new(2).unwrap();
        assert!(est.observe(vec![1.0], 1.0).is_err());
        assert!(est.observe(vec![1.0, 0.0], 1.0).is_err());
        assert!(est.observe(vec![1.0, 1.0], -1.0).is_err());
    }

    #[test]
    fn rejects_non_finite_observations_without_poisoning_state() {
        let mut est = OnlineEstimator::new(2).unwrap();
        // Seed some good data first.
        for i in 0..3_u32 {
            let x = 1.0 + f64::from(i);
            est.observe(vec![x, 2.0 * x], x).unwrap();
        }
        let before = est.clone();
        for bad_perf in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                est.observe(vec![1.0, 1.0], bad_perf),
                Err(CoreError::InvalidArgument(_))
            ));
        }
        for bad_alloc in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                est.observe(vec![bad_alloc, 1.0], 1.0),
                Err(CoreError::InvalidArgument(_))
            ));
        }
        // The rejected samples must leave the estimator untouched: same
        // observation count, same utility, and future refits still work.
        assert_eq!(est.num_observations(), before.num_observations());
        assert_eq!(
            est.utility().elasticities(),
            before.utility().elasticities()
        );
        for i in 3..8_u32 {
            let x = 1.0 + f64::from(i % 4);
            let y = 0.5 + f64::from(i % 3);
            est.observe(vec![x, y], x.powf(0.7) * y.powf(0.3)).unwrap();
        }
        assert!(est.refits() > 0, "regression must stay usable");
    }

    #[test]
    fn degenerate_fits_keep_last_good_estimate_and_stay_replayable() {
        // A family of observations that is individually valid (finite,
        // positive) but whose exact log-linear fit has intercept 800:
        // the fitted scale `exp(800)` overflows, so the fit is degenerate
        // even though every point passed validation.
        let huge = |x: f64, y: f64| (800.0 + 20.0 * x.ln() + 20.0 * y.ln()).exp();
        let pts = [(0.01, 0.01), (0.02, 0.01), (0.01, 0.03), (0.05, 0.02)];
        let mut est = OnlineEstimator::new(2).unwrap();
        for &(x, y) in &pts {
            assert!(huge(x, y).is_finite(), "({x},{y})");
            let updated = est.observe(vec![x, y], huge(x, y)).unwrap();
            assert!(!updated);
        }
        // The first fit attempt (4th point) is degenerate: the naive
        // prior survives and the failure is counted, not erred.
        assert_eq!(est.utility().elasticities(), &[0.5, 0.5]);
        assert_eq!(est.degenerate_refits(), 1);
        assert_eq!(est.consecutive_degenerate(), 1);
        for &(x, y) in &[(0.03, 0.04), (0.02, 0.05)] {
            assert!(!est.observe(vec![x, y], huge(x, y)).unwrap());
        }
        assert_eq!(est.degenerate_refits(), 3);
        assert_eq!(est.consecutive_degenerate(), 3);
        assert_eq!(est.num_observations(), 6);
        // Regression: the log must stay replayable with degenerate points
        // in it — `from_observations` used to propagate the fit error,
        // breaking snapshot restore of any agent that ever hit one.
        let replayed = OnlineEstimator::from_observations(2, est.observations()).unwrap();
        assert_eq!(replayed.degenerate_refits(), est.degenerate_refits());
        assert_eq!(replayed.consecutive_degenerate(), 3);
        assert_eq!(
            replayed.utility().elasticities(),
            est.utility().elasticities()
        );
        // Enough sane data pulls the blended fit back to a finite scale;
        // success clears the consecutive run but not the lifetime total.
        let mut fixed = false;
        for i in 0..24_u32 {
            let x = 1.0 + f64::from(i % 5);
            let y = 0.5 + f64::from(i % 4);
            if est.observe(vec![x, y], x.powf(0.7) * y.powf(0.3)).unwrap() {
                fixed = true;
                break;
            }
        }
        assert!(fixed, "blended design never produced a finite fit");
        assert_eq!(est.consecutive_degenerate(), 0);
        assert!(est.degenerate_refits() >= 3);
    }

    #[test]
    fn every_successful_refit_uses_the_incremental_path() {
        let truth = CobbDouglas::new(0.7, vec![0.3, 0.5]).unwrap();
        let mut est = OnlineEstimator::new(2).unwrap();
        for i in 0..12_u32 {
            let x = 1.0 + (i % 4) as f64;
            let y = 0.5 + (i % 3) as f64;
            est.observe(vec![x, y], truth.value_slice(&[x, y])).unwrap();
        }
        assert!(est.refits() > 0);
        assert_eq!(est.incremental_refits(), est.refits());
        assert_eq!(est.window(), None);
    }

    #[test]
    fn window_requires_room_for_the_parameters() {
        assert!(OnlineEstimator::with_window(2, 3).is_err());
        assert!(OnlineEstimator::with_window(0, 9).is_err());
        let est = OnlineEstimator::with_window(2, 4).unwrap();
        assert_eq!(est.window(), Some(4));
    }

    #[test]
    fn windowed_estimator_bounds_observations_and_matches_suffix_fit() {
        let truth = CobbDouglas::new(1.2, vec![0.6, 0.3]).unwrap();
        let window = 8;
        let mut bounded = OnlineEstimator::with_window(2, window).unwrap();
        let points: Vec<(f64, f64)> = (0..24_u32)
            .map(|i| (1.0 + (i % 5) as f64 * 1.3, 0.5 + (i % 4) as f64 * 0.9))
            .collect();
        for &(x, y) in &points {
            bounded
                .observe(vec![x, y], truth.value_slice(&[x, y]))
                .unwrap();
        }
        assert_eq!(bounded.num_observations(), window);
        // An estimator fed only the surviving suffix must land on the same
        // model (up to downdate round-off).
        let mut suffix = OnlineEstimator::new(2).unwrap();
        for &(x, y) in &points[points.len() - window..] {
            suffix
                .observe(vec![x, y], truth.value_slice(&[x, y]))
                .unwrap();
        }
        for r in 0..2 {
            assert!(
                (bounded.utility().elasticity(r) - suffix.utility().elasticity(r)).abs() < 1e-9
            );
        }
        assert!((bounded.utility().scale() - suffix.utility().scale()).abs() < 1e-9);
    }

    #[test]
    fn log_digest_tracks_the_surviving_rows_across_evictions() {
        // The middle of the stream repeats one allocation, so evicting
        // the last distinct row leaves a collinear design: that downdate
        // is refused and the factor rebuilt. The digest must describe
        // the surviving rows either way.
        let window = 5;
        let mut unbounded = OnlineEstimator::new(2).unwrap();
        let mut bounded = OnlineEstimator::with_window(2, window).unwrap();
        assert_eq!(bounded.log_digest(), OnlineEstimator::digest_of(&[]));
        let mut digests = vec![bounded.log_digest()];
        for i in 0..30_u32 {
            let (x, y) = if (8..16).contains(&i) {
                (2.0, 3.0)
            } else {
                (1.0 + f64::from(i % 5) * 1.3, 0.5 + f64::from(i % 4) * 0.9)
            };
            let perf = x.powf(0.6) * y.powf(0.3) * (1.0 + f64::from(i) * 1e-3);
            unbounded.observe(vec![x, y], perf).unwrap();
            bounded.observe(vec![x, y], perf).unwrap();
            for est in [&unbounded, &bounded] {
                let replayed = OnlineEstimator::from_observations(2, est.observations()).unwrap();
                assert_eq!(est.log_digest(), replayed.log_digest(), "step {i}");
                assert_eq!(
                    est.log_digest(),
                    OnlineEstimator::digest_of(est.observations())
                );
            }
            let all = unbounded.observations();
            assert_eq!(
                bounded.observations(),
                &all[all.len().saturating_sub(window)..]
            );
            digests.push(bounded.log_digest());
        }
        // Every step moved the digest, and no two logs shared one.
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 31);
    }

    #[test]
    fn log_digest_sees_every_bit_and_the_order() {
        let points = [
            FitPoint::new(vec![1.0, 2.0], 3.0).unwrap(),
            FitPoint::new(vec![2.0, 1.0], 3.5).unwrap(),
            FitPoint::new(vec![4.0, 0.5], 2.0).unwrap(),
        ];
        let base = OnlineEstimator::digest_of(&points);
        for at in 0..points.len() {
            for field in 0..3 {
                let mut other = points.clone();
                let value = match field {
                    0 => &mut other[at].output,
                    f => &mut other[at].inputs[f - 1],
                };
                *value = f64::from_bits(value.to_bits() ^ 1);
                assert_ne!(OnlineEstimator::digest_of(&other), base, "{at}/{field}");
            }
        }
        let mut swapped = points.clone();
        swapped.swap(0, 2);
        assert_ne!(OnlineEstimator::digest_of(&swapped), base);
        assert_ne!(OnlineEstimator::digest_of(&points[..2]), base);
    }

    #[test]
    fn windowed_estimator_tracks_a_drifting_workload() {
        // The workload's true utility changes mid-run. The bounded
        // estimator forgets the old phase and locks on to the new one; an
        // unbounded estimator keeps averaging over both phases forever.
        let phase_a = CobbDouglas::new(1.0, vec![0.8, 0.1]).unwrap();
        let phase_b = CobbDouglas::new(1.0, vec![0.1, 0.8]).unwrap();
        let mut bounded = OnlineEstimator::with_window(2, 6).unwrap();
        let mut unbounded = OnlineEstimator::new(2).unwrap();
        let grid = |i: u32| (1.0 + (i % 4) as f64, 0.5 + (i % 3) as f64);
        for i in 0..12 {
            let (x, y) = grid(i);
            let perf = phase_a.value_slice(&[x, y]);
            bounded.observe(vec![x, y], perf).unwrap();
            unbounded.observe(vec![x, y], perf).unwrap();
        }
        for i in 12..24 {
            let (x, y) = grid(i);
            let perf = phase_b.value_slice(&[x, y]);
            bounded.observe(vec![x, y], perf).unwrap();
            unbounded.observe(vec![x, y], perf).unwrap();
        }
        // Once the window holds only phase-B points the fit is exact.
        assert!((bounded.utility().elasticity(1) - 0.8).abs() < 1e-9);
        // The unbounded estimator is stuck between the two phases.
        assert!((unbounded.utility().elasticity(1) - 0.8).abs() > 0.05);
    }

    #[test]
    fn replay_reconstructs_estimator_exactly() {
        let truth = CobbDouglas::new(0.9, vec![0.4, 0.6]).unwrap();
        let mut est = OnlineEstimator::new(2).unwrap();
        for i in 0..9_u32 {
            let x = 1.0 + f64::from(i % 4);
            let y = 0.5 + f64::from(i % 3);
            est.observe(vec![x, y], truth.value_slice(&[x, y])).unwrap();
        }
        let replayed = OnlineEstimator::from_observations(2, est.observations()).unwrap();
        assert_eq!(replayed.num_observations(), est.num_observations());
        assert_eq!(replayed.refits(), est.refits());
        assert_eq!(replayed.r_squared(), est.r_squared());
        // Bit-exact: replay runs the identical regression on identical data.
        assert_eq!(
            replayed.utility().elasticities(),
            est.utility().elasticities()
        );
        assert_eq!(
            replayed.utility().scale().to_bits(),
            est.utility().scale().to_bits()
        );
    }

    #[test]
    fn adaptive_allocation_loop_converges_to_true_ref_point() {
        // Closed loop: the system allocates by current estimates, each
        // agent observes its true performance (plus allocation jitter for
        // excitation), and the estimates converge so the allocation
        // approaches the REF point of the true utilities.
        let truths = [
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ];
        let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
        let mut estimators = [
            OnlineEstimator::new(2).unwrap(),
            OnlineEstimator::new(2).unwrap(),
        ];
        let mut final_alloc = None;
        for round in 0..30_u32 {
            let reported: Vec<CobbDouglas> =
                estimators.iter().map(|e| e.utility().clone()).collect();
            let alloc = ProportionalElasticity
                .allocate(&reported, &capacity)
                .unwrap();
            for (i, est) in estimators.iter_mut().enumerate() {
                // Deterministic excitation so the design gains rank.
                let jitter = 0.85 + 0.1 * ((round as f64 * 1.7 + i as f64).sin() + 1.0);
                let x = alloc.bundle(i).get(0) * jitter;
                let y = alloc.bundle(i).get(1) * (2.0 - jitter);
                let perf = truths[i].value_slice(&[x, y]);
                est.observe(vec![x, y], perf).unwrap();
            }
            final_alloc = Some(alloc);
        }
        let alloc = final_alloc.unwrap();
        // True REF point: (18, 4) / (6, 8).
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.5, "{alloc:?}");
        assert!((alloc.bundle(1).get(1) - 8.0).abs() < 0.5, "{alloc:?}");
    }
}
