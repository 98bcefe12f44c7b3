//! Allocation mechanisms.
//!
//! The paper's contribution is [`ProportionalElasticity`] (§4.1), the
//! closed-form mechanism that provably provides sharing incentives,
//! envy-freeness, Pareto efficiency and strategy-proofness in the large.
//! For the evaluation's comparisons (§4.5, §5.5) the crate also implements:
//!
//! - [`EqualShare`] — the static `C/N` division (the SI reference point);
//! - [`MaxWelfare`] — Nash-social-welfare maximization: in closed form
//!   subject to capacity alone, as a geometric program ([`NashProgram`])
//!   under the game-theoretic fairness constraints;
//! - [`EqualSlowdown`] — max-min weighted utility, the conventional
//!   equal-slowdown objective of prior architecture work;
//! - [`CreditMechanism`] — an inner mechanism tilted by per-agent credit
//!   weights, the allocation half of cross-epoch credit fairness.
//!
//! REF and Nash welfare subject to capacity alone share one kernel,
//! `proportional_split`: both give every agent a share of each resource
//! proportional to its demand for it, REF's demand being the re-scaled
//! elasticity and weighted Nash's the weight times the elasticity.

mod credit;
mod equal_share;
mod equal_slowdown;
mod max_welfare;
mod proportional_elasticity;

pub use credit::{CreditInner, CreditMechanism};
pub use equal_share::EqualShare;
pub use equal_slowdown::EqualSlowdown;
pub use max_welfare::{MaxWelfare, NashProgram};
pub use proportional_elasticity::ProportionalElasticity;

pub use ref_solver::barrier::{SolveStats, WarmOutcome};
pub use ref_solver::gp::GpWarmStart;

use crate::error::{CoreError, Result};
use crate::resource::{Allocation, Bundle, Capacity};
use crate::utility::CobbDouglas;

/// A multi-resource allocation mechanism for Cobb-Douglas agents.
///
/// Implementations consume each agent's *reported* utility function and the
/// system capacities, and produce one bundle per agent.
pub trait Mechanism {
    /// Human-readable mechanism name (used in experiment output).
    fn name(&self) -> &str;

    /// Computes the allocation.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError::InvalidArgument`] for empty
    /// agent lists or dimension mismatches, and may propagate solver errors
    /// for optimization-based mechanisms.
    fn allocate(&self, agents: &[CobbDouglas], capacity: &Capacity) -> Result<Allocation>;

    /// Computes the allocation, optionally seeding the underlying
    /// optimizer from a previous optimum, and returns the hint to seed the
    /// *next* solve with.
    ///
    /// Optimization-backed mechanisms ([`MaxWelfare::with_fairness`],
    /// [`EqualSlowdown`] and the credit mechanism over it) thread the hint
    /// into the interior-point solver, which re-enters the
    /// central path at the latest stage the hint is still central for; an
    /// unusable hint (wrong shape after population churn, non-positive or
    /// non-finite values) is ignored, and one that does not help is
    /// abandoned after a bounded attempt — either way the cold start
    /// produces the allocation. The returned hint's
    /// [`stats`](GpWarmStart::stats) say which it was and what the solve
    /// cost in Newton iterations. Closed-form mechanisms ignore the hint
    /// and return `None` — there is nothing to warm.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Mechanism::allocate`] returns: a usable warm
    /// hint never changes which inputs are accepted.
    fn allocate_warm(
        &self,
        agents: &[CobbDouglas],
        capacity: &Capacity,
        warm: Option<&GpWarmStart>,
    ) -> Result<(Allocation, Option<GpWarmStart>)> {
        let _ = warm;
        Ok((self.allocate(agents, capacity)?, None))
    }
}

/// Validates the common preconditions shared by all mechanisms.
pub(crate) fn validate_inputs(agents: &[CobbDouglas], capacity: &Capacity) -> Result<()> {
    if agents.is_empty() {
        return Err(CoreError::InvalidArgument(
            "need at least one agent".to_string(),
        ));
    }
    let r = capacity.num_resources();
    for (i, a) in agents.iter().enumerate() {
        if a.elasticities().len() != r {
            return Err(CoreError::InvalidArgument(format!(
                "agent {i} reports {} elasticities, capacity covers {r} resources",
                a.elasticities().len()
            )));
        }
    }
    Ok(())
}

/// The proportional-split kernel: resource `r` of capacity `C_r` goes to
/// the agents in proportion to their demands `d_ir`, the elasticities of
/// `demand[i]`:
///
/// ```text
/// x_ir = d_ir / sum_j d_jr * C_r
/// ```
///
/// A resource nobody demands is split equally (any division of it is
/// welfare-neutral). One pass to total each resource, one to share it out:
/// `O(N R)`, and every capacity is exhausted to rounding.
pub(crate) fn proportional_split(
    demand: &[CobbDouglas],
    capacity: &Capacity,
) -> Result<Allocation> {
    let mut total = vec![0.0; capacity.num_resources()];
    for d in demand {
        for (t, &e) in total.iter_mut().zip(d.elasticities()) {
            *t += e;
        }
    }
    let share = |r: usize, e: f64| match total[r] {
        t if t > 0.0 => e / t * capacity.get(r),
        _ => capacity.get(r) / demand.len() as f64,
    };
    let bundles: Result<Vec<Bundle>> = demand
        .iter()
        .map(|d| {
            Bundle::from_quantities(
                d.elasticities()
                    .iter()
                    .enumerate()
                    .map(|(r, &e)| share(r, e)),
            )
        })
        .collect();
    Allocation::new(bundles?, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Capacity;

    #[test]
    fn validate_inputs_rejects_mismatch() {
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        assert!(validate_inputs(&[], &c).is_err());
        let wrong = CobbDouglas::new(1.0, vec![1.0]).unwrap();
        assert!(validate_inputs(&[wrong], &c).is_err());
        let ok = CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap();
        assert!(validate_inputs(&[ok], &c).is_ok());
    }

    #[test]
    fn mechanisms_are_object_safe() {
        let ms: Vec<Box<dyn Mechanism>> = vec![
            Box::new(ProportionalElasticity),
            Box::new(EqualShare),
            Box::new(MaxWelfare::with_fairness()),
            Box::new(EqualSlowdown::new()),
        ];
        let names: Vec<&str> = ms.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains(&"proportional-elasticity"));
    }
}
