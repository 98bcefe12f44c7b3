//! Credit-weighted allocation: an inner mechanism tilted by credit
//! balances (Zahedi & Freeman's credit fairness, adapted to REF).
//!
//! REF's guarantees are *per epoch*: an agent that receives less than its
//! fair share today is owed nothing tomorrow. The credit scheme closes
//! that gap across epochs. A ledger (maintained by the market layer)
//! tracks each agent's cumulative delivered-vs-entitled gap as a
//! normalized *credit balance*; agents below their cumulative fair share
//! carry positive credits. At allocation time those balances become
//! per-agent weights `w_i > 0`, and the [`CreditMechanism`] maximizes the
//! *weighted* objective of its inner mechanism — so a creditor is served
//! above its per-epoch entitlement until the debt is repaid.
//!
//! The tilt is implemented by exponent scaling: a Cobb-Douglas utility
//! raised to the power `w` is again Cobb-Douglas
//! (`(a0 * prod x^a)^w = a0^w * prod x^{w a}`), so the inner mechanism runs
//! unchanged on the tilted agents:
//!
//! - [`MaxWelfare`] (without fairness constraints): the objective
//!   `prod_i u_i^{w_i}` is exactly weighted Nash social welfare, whose
//!   optimum is the closed form `x_ir = C_r w_i a_ir / sum_j w_j a_jr` —
//!   one `O(N R)` pass, no solve and no warm-start hint.
//! - [`EqualSlowdown`]: the solver equalizes the normalized levels
//!   `U_i^{w_i}`; since `U_i <= 1` at any feasible point, a larger
//!   weight shrinks `U^w`, and the max-min step compensates by granting
//!   the agent more — the same monotone tilt. This one stays a geometric
//!   program, and because the tilted problem has the same variables as the
//!   untilted one (one block per agent plus the level), warm hints pass
//!   straight through: the market's `WarmStartCache` keeps seeding solves
//!   across epochs as credit balances drift.
//!
//! Uniform weights (`w_i = 1` for all `i`) leave the problem — and for a
//! warm-started solve, the exact iterate sequence — identical to the
//! untilted inner mechanism.

use ref_solver::gp::GpWarmStart;

use crate::error::{CoreError, Result};
use crate::mechanism::{validate_inputs, EqualSlowdown, MaxWelfare, Mechanism};
use crate::resource::{Allocation, Capacity};
use crate::utility::CobbDouglas;

/// Which optimization-backed mechanism a [`CreditMechanism`] tilts.
///
/// Only the *unconstrained* inner variants are offered: the Eq. 11
/// fairness constraints pin the solution to the per-epoch fair set,
/// which would forbid exactly the over-/under-service the credit tilt
/// exists to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditInner {
    /// Weighted Nash social welfare `prod_i u_i(x_i)^{w_i}`.
    MaxWelfare,
    /// Weighted egalitarian max-min over normalized levels `U_i^{w_i}`.
    EqualSlowdown,
}

/// An inner mechanism tilted by per-agent credit weights.
///
/// # Examples
///
/// A creditor (weight above 1) is served strictly more than it would be
/// under the untilted mechanism:
///
/// ```
/// use ref_core::mechanism::{CreditInner, CreditMechanism, Mechanism};
/// use ref_core::resource::Capacity;
/// use ref_core::utility::CobbDouglas;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let agents = vec![
///     CobbDouglas::new(1.0, vec![0.6, 0.4])?,
///     CobbDouglas::new(1.0, vec![0.2, 0.8])?,
/// ];
/// let capacity = Capacity::new(vec![24.0, 12.0])?;
/// let flat = CreditMechanism::new(CreditInner::MaxWelfare, vec![1.0, 1.0])?;
/// let tilted = CreditMechanism::new(CreditInner::MaxWelfare, vec![1.3, 1.0])?;
/// let base = flat.allocate(&agents, &capacity)?;
/// let favored = tilted.allocate(&agents, &capacity)?;
/// assert!(favored.bundle(0).get(0) > base.bundle(0).get(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CreditMechanism {
    inner: CreditInner,
    weights: Vec<f64>,
}

impl CreditMechanism {
    /// Creates a credit-tilted mechanism with one weight per agent (in
    /// the same order the agents will be passed to
    /// [`Mechanism::allocate`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `weights` is empty or
    /// any weight is non-finite or not strictly positive (a zero weight
    /// would erase the agent from the objective entirely).
    pub fn new(inner: CreditInner, weights: Vec<f64>) -> Result<CreditMechanism> {
        if weights.is_empty() {
            return Err(CoreError::InvalidArgument(
                "credit mechanism needs at least one weight".to_string(),
            ));
        }
        if let Some(w) = weights.iter().find(|w| !(w.is_finite() && **w > 0.0)) {
            return Err(CoreError::InvalidArgument(format!(
                "credit weights must be positive and finite, got {w}"
            )));
        }
        Ok(CreditMechanism { inner, weights })
    }

    /// Raises each agent's utility to its weight: `u^w` is Cobb-Douglas
    /// with scale `a0^w` and elasticities `w * a`. These are the agents the
    /// inner mechanism sees; the weighted level `U_i(x_i)^{w_i}` is the
    /// weighted utility of the tilted agent `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `agents.len()` differs
    /// from the number of weights.
    pub fn tilted(&self, agents: &[CobbDouglas]) -> Result<Vec<CobbDouglas>> {
        if agents.len() != self.weights.len() {
            return Err(CoreError::InvalidArgument(format!(
                "credit mechanism holds {} weights for {} agents",
                self.weights.len(),
                agents.len()
            )));
        }
        agents
            .iter()
            .zip(&self.weights)
            .map(|(u, &w)| {
                CobbDouglas::from_elasticities(
                    u.scale().powf(w),
                    u.elasticities().iter().map(|a| a * w),
                )
            })
            .collect()
    }
}

impl Mechanism for CreditMechanism {
    fn name(&self) -> &str {
        match self.inner {
            CreditInner::MaxWelfare => "credit-max-welfare",
            CreditInner::EqualSlowdown => "credit-equal-slowdown",
        }
    }

    fn allocate(&self, agents: &[CobbDouglas], capacity: &Capacity) -> Result<Allocation> {
        self.allocate_warm(agents, capacity, None)
            .map(|(alloc, _)| alloc)
    }

    fn allocate_warm(
        &self,
        agents: &[CobbDouglas],
        capacity: &Capacity,
        warm: Option<&GpWarmStart>,
    ) -> Result<(Allocation, Option<GpWarmStart>)> {
        validate_inputs(agents, capacity)?;
        let tilted = self.tilted(agents)?;
        // The tilted max-min program has the same variable layout as the
        // untilted one (agent blocks plus the level), so the warm hint
        // threads through unchanged.
        match self.inner {
            CreditInner::MaxWelfare => {
                MaxWelfare::without_fairness().allocate_warm(&tilted, capacity, warm)
            }
            CreditInner::EqualSlowdown => {
                EqualSlowdown::new().allocate_warm(&tilted, capacity, warm)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{NashProgram, WarmOutcome};
    use crate::utility::Utility;

    fn paper_agents() -> Vec<CobbDouglas> {
        vec![
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ]
    }

    fn paper_capacity() -> Capacity {
        Capacity::new(vec![24.0, 12.0]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_weights() {
        assert!(CreditMechanism::new(CreditInner::MaxWelfare, vec![]).is_err());
        assert!(CreditMechanism::new(CreditInner::MaxWelfare, vec![1.0, 0.0]).is_err());
        assert!(CreditMechanism::new(CreditInner::MaxWelfare, vec![-0.5]).is_err());
        assert!(CreditMechanism::new(CreditInner::MaxWelfare, vec![f64::NAN]).is_err());
        // Weight count must match the agent count at allocation time.
        let m = CreditMechanism::new(CreditInner::MaxWelfare, vec![1.0]).unwrap();
        assert!(m.allocate(&paper_agents(), &paper_capacity()).is_err());
    }

    #[test]
    fn uniform_weights_match_the_inner_mechanism() {
        let agents = paper_agents();
        let c = paper_capacity();
        let flat = CreditMechanism::new(CreditInner::MaxWelfare, vec![1.0, 1.0]).unwrap();
        let credit = flat.allocate(&agents, &c).unwrap();
        let inner = MaxWelfare::without_fairness()
            .allocate(&agents, &c)
            .unwrap();
        for i in 0..2 {
            for r in 0..2 {
                assert_eq!(
                    credit.bundle(i).get(r).to_bits(),
                    inner.bundle(i).get(r).to_bits(),
                    "agent {i} resource {r}"
                );
            }
        }
    }

    #[test]
    fn creditor_weight_buys_strictly_more_utility() {
        let agents = paper_agents();
        let c = paper_capacity();
        for inner in [CreditInner::MaxWelfare, CreditInner::EqualSlowdown] {
            let base = CreditMechanism::new(inner, vec![1.0, 1.0])
                .unwrap()
                .allocate(&agents, &c)
                .unwrap();
            let tilted = CreditMechanism::new(inner, vec![1.4, 1.0])
                .unwrap()
                .allocate(&agents, &c)
                .unwrap();
            let u0 = &agents[0];
            assert!(
                u0.value(tilted.bundle(0)) > u0.value(base.bundle(0)) * 1.001,
                "{inner:?}: tilt did not favor the creditor"
            );
            // Capacity stays respected.
            assert!(tilted.is_exhaustive(&c, 1e-3), "{inner:?}");
        }
    }

    #[test]
    fn tilt_is_monotone_in_the_weight() {
        let agents = paper_agents();
        let c = paper_capacity();
        let serve = |w0: f64| {
            let alloc = CreditMechanism::new(CreditInner::MaxWelfare, vec![w0, 1.0])
                .unwrap()
                .allocate(&agents, &c)
                .unwrap();
            agents[0].value(alloc.bundle(0))
        };
        let (low, mid, high) = (serve(0.8), serve(1.0), serve(1.3));
        assert!(low < mid && mid < high, "{low} {mid} {high}");
    }

    #[test]
    fn warm_started_allocation_agrees_with_cold() {
        // The max-min mechanism warm-starts itself; weighted Nash is
        // closed-form, so its program is solved directly.
        let agents = paper_agents();
        let c = paper_capacity();
        let weights = vec![1.2, 0.9];
        let tilted = CreditMechanism::new(CreditInner::MaxWelfare, weights.clone())
            .and_then(|m| m.tilted(&agents))
            .unwrap();
        let nash = NashProgram::new(&tilted, &c).unwrap();
        let (cold, hint) = nash.solve_warm(None).unwrap();
        let (rewarmed, next) = nash.solve_warm(Some(&hint)).unwrap();
        assert_eq!(next.stats.warm, WarmOutcome::Used);
        let mut pairs = vec![("weighted nash program", cold, rewarmed)];
        let slowdown = CreditMechanism::new(CreditInner::EqualSlowdown, weights).unwrap();
        let (cold, hint) = slowdown.allocate_warm(&agents, &c, None).unwrap();
        let hint = hint.expect("the max-min mechanism solves a GP");
        let (rewarmed, next) = slowdown.allocate_warm(&agents, &c, Some(&hint)).unwrap();
        assert_eq!(next.unwrap().stats.warm, WarmOutcome::Used);
        pairs.push(("credit-equal-slowdown", cold, rewarmed));
        for (label, cold, rewarmed) in pairs {
            for i in 0..2 {
                for r in 0..2 {
                    assert!(
                        (rewarmed.bundle(i).get(r) - cold.bundle(i).get(r)).abs() < 1e-3,
                        "{label} agent {i} resource {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn cold_solve_starts_interior_and_a_drifted_resolve_re_enters_the_path() {
        // The market's credit epoch: 48 agents on 16 elasticity levels,
        // their weighted-Nash program solved from the shared builder.
        let agents: Vec<CobbDouglas> = (0..48)
            .map(|i| {
                let a = 0.1 + 0.8 * (f64::from(i % 16) + 0.5) / 16.0;
                CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
            })
            .collect();
        let c = Capacity::new(vec![96.0, 48.0]).unwrap();
        let program = |tilt: f64| {
            let weights = (0..48).map(|i| 1.0 + tilt * f64::from(i % 5 - 2)).collect();
            let tilted = CreditMechanism::new(CreditInner::MaxWelfare, weights)
                .and_then(|m| m.tilted(&agents))
                .unwrap();
            NashProgram::new(&tilted, &c).unwrap()
        };
        let (_, hint) = program(0.050).solve_warm(None).unwrap();
        // The start is strictly inside the capacity constraints: no phase
        // I, and the whole path in at most 45 Newton iterations.
        assert_eq!(hint.stats.warm, WarmOutcome::Cold);
        assert_eq!(hint.stats.phase_one_iterations, 0);
        assert!(hint.stats.newton_iterations <= 45, "{:?}", hint.stats);

        let after = program(0.051);
        let (cold, cold_hint) = after.solve_warm(None).unwrap();
        let (warm, warm_hint) = after.solve_warm(Some(&hint)).unwrap();
        let (cold_stats, warm_stats) = (cold_hint.stats, warm_hint.stats);
        assert_eq!(warm_stats.warm, WarmOutcome::Used);
        assert!(
            2 * warm_stats.newton_iterations <= cold_stats.newton_iterations,
            "{warm_stats:?} vs {cold_stats:?}"
        );
        // Both paths end on the same stage, so on the same central point.
        for i in 0..48 {
            for r in 0..2 {
                let (w, k) = (warm.bundle(i).get(r), cold.bundle(i).get(r));
                assert!(
                    (w / k - 1.0).abs() < 1e-9,
                    "agent {i} resource {r}: {w} vs {k}"
                );
            }
        }
    }

    #[test]
    fn credit_max_welfare_is_the_weighted_closed_form_and_returns_no_hint() {
        let agents = paper_agents();
        let c = paper_capacity();
        let weights = [1.3, 0.7];
        let m = CreditMechanism::new(CreditInner::MaxWelfare, weights.to_vec()).unwrap();
        let (alloc, hint) = m.allocate_warm(&agents, &c, None).unwrap();
        assert!(hint.is_none());
        for r in 0..2 {
            let demand = |i: usize| weights[i] * agents[i].elasticity(r);
            let total = demand(0) + demand(1);
            for i in 0..2 {
                let want = c.get(r) * demand(i) / total;
                assert!((alloc.bundle(i).get(r) / want - 1.0).abs() < 1e-15);
            }
        }
        assert!(alloc.is_exhaustive(&c, 1e-15));
    }

    #[test]
    fn names_and_labels_distinguish_inners() {
        let mw = CreditMechanism::new(CreditInner::MaxWelfare, vec![1.0]).unwrap();
        let es = CreditMechanism::new(CreditInner::EqualSlowdown, vec![1.0]).unwrap();
        assert_ne!(mw.name(), es.name());
        assert_eq!(mw.inner, CreditInner::MaxWelfare);
        assert_eq!(mw.weights, [1.0]);
    }
}
