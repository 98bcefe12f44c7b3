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
//! Rows are not kept: the factor already holds everything a refit reads.
//! An estimator is its [`EstimatorState`] — the factor, the current fit and
//! four counters, `O(R^2)` however many observations it has folded in —
//! plus, for a windowed estimator only, the rows of its window, which
//! downdating needs. [`OnlineEstimator::state`] exposes the state and
//! [`OnlineEstimator::from_state`] rebuilds an estimator from it bit for
//! bit, which is what lets a restarted service resume a market mid-run
//! without replaying its history.

use std::collections::VecDeque;
use std::iter;

/// The triangular factor an [`EstimatorState`] holds, re-exported so that
/// code persisting estimator states needs no direct solver dependency.
pub use ref_solver::update::UpdatableLstsq;
use ref_solver::vec_ops;

use crate::error::{CoreError, Result};
use crate::fitting::FitPoint;
use crate::utility::CobbDouglas;

/// Everything an unbounded [`OnlineEstimator`] holds, in `O(R^2)`.
///
/// [`OnlineEstimator::from_state`] rebuilds an estimator that observes,
/// refits and reports exactly as the one the state was taken from;
/// [`EstimatorState::check`] says whether a state is one some sequence of
/// observations could have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorState {
    /// Updatable triangular factor of the log-design `[1, ln x_1..ln x_R]`
    /// with response `ln u`; its row count is the number of observations.
    pub factor: UpdatableLstsq,
    /// The current utility estimate (the naive prior until the first
    /// successful refit).
    pub utility: CobbDouglas,
    /// Goodness of fit of the latest successful refit, if any.
    pub r_squared: Option<f64>,
    /// Successful refits.
    pub refits: usize,
    /// Successful refits served by the incremental append path.
    pub incremental_refits: usize,
    /// Refit attempts that produced a degenerate model.
    pub degenerate_refits: usize,
    /// Degenerate refits since the last successful one.
    pub consecutive_degenerate: usize,
}

impl EstimatorState {
    /// The state of a fresh estimator over `num_resources` resources: an
    /// empty factor and the naive uniform prior `u = prod_r x_r^{1/R}`.
    fn prior(num_resources: usize) -> Result<EstimatorState> {
        if num_resources == 0 {
            return Err(CoreError::InvalidArgument(
                "need at least one resource".to_string(),
            ));
        }
        Ok(EstimatorState {
            factor: UpdatableLstsq::new(num_resources + 1),
            utility: CobbDouglas::from_elasticities(
                1.0,
                iter::repeat_n(1.0 / num_resources as f64, num_resources),
            )?,
            r_squared: None,
            refits: 0,
            incremental_refits: 0,
            degenerate_refits: 0,
            consecutive_degenerate: 0,
        })
    }

    /// Checks that an unbounded estimator over `num_resources` resources
    /// could have reached this state: the factor and the fit cover the
    /// right number of resources, every refit attempt had an observation
    /// past the first `R + 1` to be made on, the counters nest, an `R^2`
    /// exists exactly when a refit succeeded, and an estimator that never
    /// refit still reports its prior.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] naming the first check that
    /// fails.
    pub fn check(&self, num_resources: usize) -> Result<()> {
        let invalid = |msg: String| Err(CoreError::InvalidArgument(msg));
        if self.factor.num_coefficients() != num_resources + 1 {
            return invalid(format!(
                "factor covers {} coefficients, {num_resources} resources need {}",
                self.factor.num_coefficients(),
                num_resources + 1
            ));
        }
        if self.utility.elasticities().len() != num_resources {
            return invalid(format!(
                "fit covers {} resources, estimator has {num_resources}",
                self.utility.elasticities().len()
            ));
        }
        let attempts = self.refits.checked_add(self.degenerate_refits);
        let informative = self.factor.rows().saturating_sub(num_resources + 1);
        if attempts.is_none_or(|a| a > informative) {
            return invalid(format!(
                "{} refit(s) and {} degenerate one(s) need more than {} observations",
                self.refits,
                self.degenerate_refits,
                self.factor.rows()
            ));
        }
        if self.incremental_refits > self.refits
            || self.consecutive_degenerate > self.degenerate_refits
        {
            return invalid("refit counters do not nest".to_string());
        }
        match (self.r_squared, self.refits) {
            (None, 0) if self.utility != Self::prior(num_resources)?.utility => {
                invalid("an estimator that never refit reports a fit".to_string())
            }
            (None, 0) => Ok(()),
            (Some(r2), refits) if refits > 0 && r2.is_finite() => Ok(()),
            (r2, refits) => invalid(format!("R^2 {r2:?} after {refits} successful refit(s)")),
        }
    }
}

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
    state: EstimatorState,
    /// The sliding window, if any (see [`OnlineEstimator::with_window`]).
    window: Option<Window>,
}

/// A bounded design: the rows still in the factor, oldest first.
#[derive(Debug, Clone)]
struct Window {
    size: usize,
    rows: VecDeque<FitPoint>,
}

impl OnlineEstimator {
    /// Creates an estimator with the naive uniform prior
    /// `u = prod_r x_r^{1/R}`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `num_resources == 0`.
    pub fn new(num_resources: usize) -> Result<OnlineEstimator> {
        let state = EstimatorState::prior(num_resources)?;
        Ok(OnlineEstimator::resume(num_resources, state))
    }

    fn resume(num_resources: usize, state: EstimatorState) -> OnlineEstimator {
        OnlineEstimator {
            num_resources,
            state,
            window: None,
        }
    }

    /// Creates an estimator whose design is bounded to the most recent
    /// `window` observations.
    ///
    /// Each observation past the bound *downdates* the oldest row out of
    /// the triangular factor (LINPACK `dchdd`), so a long-lived agent
    /// tracks a drifting workload at `O(R^2)` per observation and constant
    /// memory instead of averaging over its entire history. When a
    /// downdate would destroy the factor's conditioning the estimator
    /// falls back to refactorizing the surviving rows from scratch; those
    /// rows are what a windowed estimator keeps beside its
    /// [`EstimatorState`].
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
        est.window = Some(Window {
            size: window,
            rows: VecDeque::with_capacity(window + 1),
        });
        Ok(est)
    }

    /// Rebuilds an unbounded estimator from its [`EstimatorState`]. The
    /// result observes, refits and reports exactly — bit for bit — as the
    /// estimator the state was taken from.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if the state fails
    /// [`EstimatorState::check`] (which no state passes for zero
    /// resources).
    pub fn from_state(num_resources: usize, state: EstimatorState) -> Result<OnlineEstimator> {
        state.check(num_resources)?;
        Ok(OnlineEstimator::resume(num_resources, state))
    }

    /// The estimator's state: everything it holds apart from a window's
    /// rows. [`OnlineEstimator::from_state`] rebuilds unbounded estimators
    /// only: a windowed one also needs its window's rows, and its refit
    /// counters outgrow its row count.
    pub fn state(&self) -> &EstimatorState {
        &self.state
    }

    /// The current utility estimate (the naive prior until the first
    /// successful refit).
    pub fn utility(&self) -> &CobbDouglas {
        &self.state.utility
    }

    /// Number of observations in the design: every one observed, or, with
    /// a window, those still inside it.
    pub fn num_observations(&self) -> usize {
        self.state.factor.rows()
    }

    /// Number of successful refits so far.
    pub fn refits(&self) -> usize {
        self.state.refits
    }

    /// Number of successful refits served by the incremental `O(R^2)`
    /// append path (as opposed to a from-scratch refactorization). With
    /// the current design every successful refit is incremental, so this
    /// equals [`OnlineEstimator::refits`]; it is tracked separately so the
    /// market can report fast-path coverage.
    pub fn incremental_refits(&self) -> usize {
        self.state.incremental_refits
    }

    /// Goodness of fit of the latest refit, if any.
    pub fn r_squared(&self) -> Option<f64> {
        self.state.r_squared
    }

    /// Total refit attempts that produced a *degenerate* model — finite
    /// data whose regression yields a utility Cobb-Douglas cannot
    /// represent (e.g. an overflowed scale). Each one kept the previous
    /// estimate. Collinear designs are expected early on and are *not*
    /// counted here.
    pub fn degenerate_refits(&self) -> usize {
        self.state.degenerate_refits
    }

    /// Degenerate refits since the last successful one; a run of these
    /// means new data keeps failing to produce a usable model, which is
    /// what callers use to quarantine the estimate.
    pub fn consecutive_degenerate(&self) -> usize {
        self.state.consecutive_degenerate
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
    pub fn observe(&mut self, allocation: impl AsRef<[f64]>, performance: f64) -> Result<bool> {
        let allocation = allocation.as_ref();
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
        FitPoint::check(allocation, performance)?;
        // One scratch buffer, on the stack for up to six resources: the
        // log-space design rows folded in or out, then the coefficients.
        let (mut stack, mut heap) = ([0.0; 7], Vec::new());
        let scratch = vec_ops::scratch(&mut stack, &mut heap, self.num_resources + 1);
        let factor = &mut self.state.factor;
        factor
            .append(Self::log_row(scratch, allocation), performance.ln())
            .expect("validated observation rows are finite");
        if let Some(window) = &mut self.window {
            window.rows.push_back(FitPoint {
                inputs: allocation.to_vec(),
                output: performance,
            });
            if window.rows.len() > window.size {
                let evicted = window
                    .rows
                    .pop_front()
                    .expect("the window is over its bound");
                let row = Self::log_row(scratch, &evicted.inputs);
                if factor.downdate(row, evicted.output.ln()).is_err() {
                    // The factor is too close to singular to subtract the
                    // row stably; refactorize the surviving rows instead.
                    *factor = UpdatableLstsq::new(self.num_resources + 1);
                    for point in &window.rows {
                        factor
                            .append(Self::log_row(scratch, &point.inputs), point.output.ln())
                            .expect("previously accepted observations are finite");
                    }
                }
            }
        }
        if factor.rows() <= self.num_resources + 1 {
            return Ok(false);
        }
        let coefficients = scratch;
        let fit = match factor.solve_into(coefficients) {
            Ok(fit) => fit,
            // A collinear design is expected early on; keep the prior.
            Err(_) => return Ok(false),
        };
        // Post-process exactly as the batch pipeline
        // ([`crate::fitting::fit_cobb_douglas`]) does: exponentiate the
        // intercept, clamp negative elasticities, and substitute a tiny
        // uniform profile when every elasticity clamps to zero.
        let scale = coefficients[0].exp();
        let elasticities = coefficients[1..].iter().map(|a| a.max(0.0));
        let utility = if elasticities.clone().all(|a| a == 0.0) {
            CobbDouglas::from_elasticities(scale, iter::repeat_n(1e-9, self.num_resources))
        } else {
            CobbDouglas::from_elasticities(scale, elasticities)
        };
        let state = &mut self.state;
        match utility {
            Ok(utility) => {
                state.utility = utility;
                state.r_squared = Some(fit.r_squared);
                state.refits += 1;
                state.incremental_refits += 1;
                state.consecutive_degenerate = 0;
                Ok(true)
            }
            // A *degenerate* fit: individually valid points whose
            // aggregate regression produces an unusable model (e.g.
            // `exp(intercept)` overflowing the scale). Keep the last good
            // estimate and count it, instead of erroring — the point is
            // already in the factor, and an error would report it as
            // refused.
            Err(_) => {
                state.degenerate_refits += 1;
                state.consecutive_degenerate += 1;
                Ok(false)
            }
        }
    }

    /// Writes one observation's log-space design row, `[1, ln x_1..ln x_R]`,
    /// into the scratch `row` and returns it.
    fn log_row<'r>(row: &'r mut [f64], inputs: &[f64]) -> &'r [f64] {
        row[0] = 1.0;
        for (r, x) in row[1..].iter_mut().zip(inputs) {
            *r = x.ln();
        }
        row
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
    fn seven_resources_refit_through_heap_scratch() {
        // Past six resources the design row and coefficients leave the
        // stack; the fit must come out the same way.
        let truth = [0.05, 0.1, 0.15, 0.2, 0.05, 0.25, 0.2];
        let mut est = OnlineEstimator::new(truth.len()).unwrap();
        for i in 0..24_u32 {
            let x: Vec<f64> = (0..truth.len())
                .map(|r| 1.5 + f64::sin((0.37 + 0.29 * r as f64) * f64::from(i) + r as f64))
                .collect();
            let perf = x.iter().zip(&truth).map(|(x, a)| x.powf(*a)).product();
            est.observe(x, perf).unwrap();
        }
        for (r, a) in truth.iter().enumerate() {
            assert!((est.utility().elasticity(r) - a).abs() < 1e-9);
        }
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
        // Regression: the state must stay restorable with degenerate
        // points in it — a restore that refit would propagate the fit
        // error and lose every agent that ever hit one.
        let mut resumed = OnlineEstimator::from_state(2, est.state().clone()).unwrap();
        assert_eq!(resumed.state(), est.state());
        assert_eq!(resumed.consecutive_degenerate(), 3);
        // Enough sane data pulls the blended fit back to a finite scale;
        // success clears the consecutive run but not the lifetime total.
        // The restored estimator gets there on the same observation.
        let mut fixed = false;
        for i in 0..24_u32 {
            let x = 1.0 + f64::from(i % 5);
            let y = 0.5 + f64::from(i % 4);
            let perf = x.powf(0.7) * y.powf(0.3);
            let updated = est.observe(vec![x, y], perf).unwrap();
            assert_eq!(resumed.observe(vec![x, y], perf).unwrap(), updated);
            if updated {
                fixed = true;
                break;
            }
        }
        assert!(fixed, "blended design never produced a finite fit");
        assert_eq!(est.consecutive_degenerate(), 0);
        assert!(est.degenerate_refits() >= 3);
        assert_eq!(resumed.state(), est.state());
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
        assert!(est.window.is_none());
    }

    #[test]
    fn window_requires_room_for_the_parameters() {
        assert!(OnlineEstimator::with_window(2, 3).is_err());
        assert!(OnlineEstimator::with_window(0, 9).is_err());
        let est = OnlineEstimator::with_window(2, 4).unwrap();
        assert_eq!(est.window.map(|w| w.size), Some(4));
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
    fn window_rows_track_the_surviving_rows_across_evictions() {
        // The middle of the stream repeats one allocation, so evicting
        // the last distinct row leaves a collinear design: that downdate
        // is refused and the factor rebuilt from the kept rows. The
        // window must hold exactly the surviving rows either way.
        let window = 5;
        let mut unbounded = OnlineEstimator::new(2).unwrap();
        let mut bounded = OnlineEstimator::with_window(2, window).unwrap();
        let mut all = Vec::new();
        let mut rebuilt = 0;
        for i in 0..30_u32 {
            let (x, y) = if (8..16).contains(&i) {
                (2.0, 3.0)
            } else {
                (1.0 + f64::from(i % 5) * 1.3, 0.5 + f64::from(i % 4) * 0.9)
            };
            let perf = x.powf(0.6) * y.powf(0.3) * (1.0 + f64::from(i) * 1e-3);
            unbounded.observe(vec![x, y], perf).unwrap();
            bounded.observe(vec![x, y], perf).unwrap();
            all.push(FitPoint::new(vec![x, y], perf).unwrap());
            let survivors = &all[all.len().saturating_sub(window)..];
            let kept = &bounded.window.as_ref().unwrap().rows;
            assert!(kept.iter().eq(survivors), "step {i}");
            assert_eq!(bounded.num_observations(), survivors.len());
            assert_eq!(unbounded.num_observations(), all.len());
            // A factor refactorized from the survivors is the fresh one.
            let mut fresh = OnlineEstimator::new(2).unwrap();
            for p in survivors {
                fresh.observe(p.inputs.clone(), p.output).unwrap();
            }
            rebuilt += usize::from(bounded.state().factor == fresh.state().factor);
        }
        assert!(unbounded.window.is_none());
        // Besides the five steps before the first eviction, some
        // downdates were refused and rebuilt.
        assert!(rebuilt > window, "{rebuilt} rebuilt factor(s)");
    }

    #[test]
    fn from_state_refuses_states_no_estimator_reaches() {
        let truth = CobbDouglas::new(0.9, vec![0.4, 0.6]).unwrap();
        let mut est = OnlineEstimator::new(2).unwrap();
        for i in 0..9_u32 {
            let x = 1.0 + f64::from(i % 4);
            let y = 0.5 + f64::from(i % 3);
            est.observe(vec![x, y], truth.value_slice(&[x, y])).unwrap();
        }
        let good = est.state().clone();
        assert!(good.refits > 0 && good.check(2).is_ok());
        assert!(OnlineEstimator::from_state(0, good.clone()).is_err());
        assert!(OnlineEstimator::from_state(3, good.clone()).is_err());
        let with_rows = |rows: usize| {
            let triangle: Vec<f64> = good.factor.triangle().collect();
            UpdatableLstsq::from_parts(3, &triangle, rows, good.factor.sums()).unwrap()
        };
        let bad = [
            // More refit attempts than observations past the first R + 1.
            EstimatorState {
                factor: with_rows(3 + good.refits - 1),
                ..good.clone()
            },
            EstimatorState {
                degenerate_refits: 9,
                ..good.clone()
            },
            EstimatorState {
                refits: usize::MAX,
                ..good.clone()
            },
            EstimatorState {
                incremental_refits: good.refits + 1,
                ..good.clone()
            },
            EstimatorState {
                consecutive_degenerate: 1,
                ..good.clone()
            },
            EstimatorState {
                r_squared: None,
                ..good.clone()
            },
            EstimatorState {
                r_squared: Some(f64::NAN),
                ..good.clone()
            },
            EstimatorState {
                utility: CobbDouglas::new(1.0, vec![0.5, 0.2, 0.3]).unwrap(),
                ..good.clone()
            },
            // Never refit, yet reports a fit.
            EstimatorState {
                refits: 0,
                incremental_refits: 0,
                r_squared: None,
                ..good.clone()
            },
        ];
        for (i, state) in bad.into_iter().enumerate() {
            assert!(
                matches!(
                    OnlineEstimator::from_state(2, state),
                    Err(CoreError::InvalidArgument(_))
                ),
                "case {i}"
            );
        }
        // A fresh estimator's state is a valid one.
        let fresh = OnlineEstimator::new(2).unwrap();
        assert!(OnlineEstimator::from_state(2, fresh.state().clone()).is_ok());
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
    fn state_round_trip_reconstructs_estimator_exactly() {
        let truth = CobbDouglas::new(0.9, vec![0.4, 0.6]).unwrap();
        let mut est = OnlineEstimator::new(2).unwrap();
        let point = |i: u32| (1.0 + f64::from(i % 4), 0.5 + f64::from(i % 3));
        for i in 0..9_u32 {
            let (x, y) = point(i);
            est.observe(vec![x, y], truth.value_slice(&[x, y])).unwrap();
        }
        let mut resumed = OnlineEstimator::from_state(2, est.state().clone()).unwrap();
        assert_eq!(resumed.num_observations(), est.num_observations());
        assert_eq!(resumed.refits(), est.refits());
        assert_eq!(resumed.r_squared(), est.r_squared());
        // Bit-exact, now and after more observations: the resumed
        // estimator folds them into the identical factor.
        for i in 9..15_u32 {
            let (x, y) = point(i);
            let perf = truth.value_slice(&[x, y]) * (1.0 + f64::from(i) * 1e-3);
            assert_eq!(
                resumed.observe(vec![x, y], perf).unwrap(),
                est.observe(vec![x, y], perf).unwrap()
            );
        }
        assert_eq!(resumed.state(), est.state());
        assert_eq!(
            resumed.utility().scale().to_bits(),
            est.utility().scale().to_bits()
        );
        let (a, b) = (
            resumed.state().factor.triangle(),
            est.state().factor.triangle(),
        );
        assert!(a.map(f64::to_bits).eq(b.map(f64::to_bits)));
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
