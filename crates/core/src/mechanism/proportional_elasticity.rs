//! The REF proportional-elasticity mechanism (§4.1 of the paper).

use crate::error::Result;
use crate::mechanism::{proportional_split, validate_inputs, Mechanism};
use crate::resource::{Allocation, Capacity};
use crate::utility::CobbDouglas;

/// The paper's closed-form fair mechanism.
///
/// Procedure (Eqs. 12–13): re-scale each agent's elasticities to sum to
/// one, then give each agent a share of every resource proportional to its
/// re-scaled elasticity:
///
/// ```text
/// x_ir = (a^_ir / sum_j a^_jr) * C_r
/// ```
///
/// The resulting allocation is the Nash bargaining solution and a
/// competitive equilibrium from equal incomes for the re-scaled utilities,
/// hence it satisfies sharing incentives, envy-freeness and Pareto
/// efficiency (§4.2), and strategy-proofness in the large (§4.3). Unlike
/// the geometric-programming mechanisms it is computationally trivial.
///
/// # Examples
///
/// The paper's running example: capacities (24 GB/s, 12 MB) and utilities
/// `u1 = x^0.6 y^0.4`, `u2 = x^0.2 y^0.8` give user 1 (18 GB/s, 4 MB) and
/// user 2 (6 GB/s, 8 MB).
///
/// ```
/// use ref_core::mechanism::{Mechanism, ProportionalElasticity};
/// use ref_core::resource::Capacity;
/// use ref_core::utility::CobbDouglas;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let agents = vec![
///     CobbDouglas::new(1.0, vec![0.6, 0.4])?,
///     CobbDouglas::new(1.0, vec![0.2, 0.8])?,
/// ];
/// let capacity = Capacity::new(vec![24.0, 12.0])?;
/// let alloc = ProportionalElasticity.allocate(&agents, &capacity)?;
/// assert!((alloc.bundle(0).get(0) - 18.0).abs() < 1e-12);
/// assert!((alloc.bundle(0).get(1) - 4.0).abs() < 1e-12);
/// assert!((alloc.bundle(1).get(0) - 6.0).abs() < 1e-12);
/// assert!((alloc.bundle(1).get(1) - 8.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProportionalElasticity;

impl Mechanism for ProportionalElasticity {
    fn name(&self) -> &str {
        "proportional-elasticity"
    }

    fn allocate(&self, agents: &[CobbDouglas], capacity: &Capacity) -> Result<Allocation> {
        validate_inputs(agents, capacity)?;
        let rescaled: Vec<CobbDouglas> = agents.iter().map(CobbDouglas::rescaled).collect();
        proportional_split(&rescaled, capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn matches_paper_example() {
        let alloc = ProportionalElasticity
            .allocate(&paper_agents(), &paper_capacity())
            .unwrap();
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 1e-12);
        assert!((alloc.bundle(1).get(1) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn exhausts_capacity() {
        let alloc = ProportionalElasticity
            .allocate(&paper_agents(), &paper_capacity())
            .unwrap();
        assert!(alloc.is_exhaustive(&paper_capacity(), 1e-12));
    }

    #[test]
    fn unscaled_elasticities_are_rescaled_first() {
        // Scaling an agent's elasticities by a constant must not change the
        // allocation (the mechanism normalizes per agent).
        let raw = vec![
            CobbDouglas::new(2.0, vec![1.2, 0.8]).unwrap(), // = 2x (0.6, 0.4)
            CobbDouglas::new(0.5, vec![0.1, 0.4]).unwrap(), // = 0.5x (0.2, 0.8)
        ];
        let a = ProportionalElasticity
            .allocate(&raw, &paper_capacity())
            .unwrap();
        let b = ProportionalElasticity
            .allocate(&paper_agents(), &paper_capacity())
            .unwrap();
        for i in 0..2 {
            for r in 0..2 {
                assert!((a.bundle(i).get(r) - b.bundle(i).get(r)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identical_agents_split_equally() {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
        ];
        let c = paper_capacity();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        for i in 0..3 {
            assert!((alloc.bundle(i).get(0) - 8.0).abs() < 1e-12);
            assert!((alloc.bundle(i).get(1) - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_agent_takes_everything() {
        let agents = vec![CobbDouglas::new(1.0, vec![0.7, 0.3]).unwrap()];
        let c = paper_capacity();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        assert_eq!(alloc.bundle(0).as_slice(), c.as_slice());
    }

    #[test]
    fn provides_sharing_incentives_in_example() {
        let agents = paper_agents();
        let c = paper_capacity();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        let equal = c.equal_split(2);
        for (i, u) in agents.iter().enumerate() {
            assert!(
                u.value(alloc.bundle(i)) >= u.value(&equal),
                "agent {i} prefers the equal split"
            );
        }
    }

    #[test]
    fn zero_elasticity_resource_for_all_agents_splits_equally() {
        // Neither agent values resource 1.
        let agents = vec![
            CobbDouglas::new(1.0, vec![1.0, 0.0]).unwrap(),
            CobbDouglas::new(1.0, vec![1.0, 0.0]).unwrap(),
        ];
        let c = paper_capacity();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        assert!((alloc.bundle(0).get(1) - 6.0).abs() < 1e-12);
        assert!((alloc.bundle(1).get(1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn three_resources() {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.5, 0.3, 0.2]).unwrap(),
            CobbDouglas::new(1.0, vec![0.1, 0.1, 0.8]).unwrap(),
        ];
        let c = Capacity::new(vec![10.0, 10.0, 10.0]).unwrap();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        // Resource 2: shares 0.2 / (0.2 + 0.8).
        assert!((alloc.bundle(0).get(2) - 2.0).abs() < 1e-12);
        assert!((alloc.bundle(1).get(2) - 8.0).abs() < 1e-12);
        assert!(alloc.is_exhaustive(&c, 1e-12));
    }
}
