//! The equal-slowdown mechanism of prior architecture work (§4.5, §5.5).

use ref_solver::gp::{GeometricProgram, GpWarmStart, Monomial};

use crate::error::Result;
use crate::mechanism::{max_welfare, validate_inputs, Mechanism};
use crate::resource::{Allocation, Bundle, Capacity};
use crate::utility::{CobbDouglas, Utility};

/// Maximizes the minimum weighted utility `min_i U_i(x_i)` subject only to
/// capacity — the egalitarian objective that equalizes slowdown.
///
/// `U_i(x_i) = u_i(x_i) / u_i(C)` is each agent's performance when sharing
/// normalized by its performance when given the whole machine (the paper's
/// weighted progress, Eq. 17). Prior memory-scheduling work equalizes these
/// slowdowns; the paper shows this conventional objective guarantees
/// neither sharing incentives nor envy-freeness (§5.4).
///
/// As a geometric program: maximize `t` subject to
/// `t * u_i(C) / u_i(x_i) <= 1` for every agent and the capacity
/// posynomials.
///
/// [`EqualSlowdown::with_fairness`] additionally imposes the SI, EF and PE
/// conditions of Eq. 11 — the paper's "Fair Allocation for Egalitarian
/// Welfare", an empirical *lower* bound on fair performance (§4.5).
///
/// # Examples
///
/// ```
/// use ref_core::mechanism::{EqualSlowdown, Mechanism};
/// use ref_core::resource::Capacity;
/// use ref_core::utility::CobbDouglas;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let agents = vec![
///     CobbDouglas::new(1.0, vec![0.6, 0.4])?,
///     CobbDouglas::new(1.0, vec![0.2, 0.8])?,
/// ];
/// let capacity = Capacity::new(vec![24.0, 12.0])?;
/// let alloc = EqualSlowdown::new().allocate(&agents, &capacity)?;
/// assert_eq!(alloc.num_agents(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EqualSlowdown {
    fairness: bool,
}

impl EqualSlowdown {
    /// The conventional equal-slowdown objective: max-min subject to
    /// capacity only ("Equal Slowdown w/o Fairness").
    pub fn new() -> EqualSlowdown {
        EqualSlowdown { fairness: false }
    }

    /// Egalitarian welfare subject to the fairness conditions of Eq. 11
    /// ("Fair Allocation for Egalitarian Welfare").
    pub fn with_fairness() -> EqualSlowdown {
        EqualSlowdown { fairness: true }
    }
}

impl Mechanism for EqualSlowdown {
    fn name(&self) -> &str {
        if self.fairness {
            "egalitarian-with-fairness"
        } else {
            "equal-slowdown"
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
        let n = agents.len();
        let r_count = capacity.num_resources();
        // Variables: x_ir for all agents/resources, then the level t.
        let num_vars = n * r_count + 1;
        let t_var = n * r_count;

        // Objective: maximize t, i.e. minimize t^{-1}.
        let objective = Monomial::sparse(1.0, num_vars, &[(t_var, -1.0)])?;
        let mut gp = GeometricProgram::minimize(num_vars, objective.into())?;

        for c in max_welfare::capacity_constraints(n, capacity, num_vars)? {
            gp.add_constraint(c)?;
        }
        if self.fairness {
            for m in max_welfare::envy_free_constraints(agents, r_count, num_vars)? {
                gp.add_constraint(m.into())?;
            }
            for m in max_welfare::sharing_incentive_constraints(agents, capacity, num_vars)? {
                gp.add_constraint(m.into())?;
            }
            for m in max_welfare::pareto_constraints(agents, r_count, num_vars)? {
                gp.add_monomial_equality_with_tolerance(m, max_welfare::PE_BAND)?;
            }
        }
        // t <= U_i(x_i): t * u_i(C) / u_i(x_i) <= 1.
        let whole = capacity.as_bundle();
        let mut exp = Vec::with_capacity(r_count + 1);
        for (i, agent) in agents.iter().enumerate() {
            exp.clear();
            exp.push((t_var, 1.0));
            for r in 0..r_count {
                exp.push((i * r_count + r, -agent.elasticity(r)));
            }
            let u_c = agent.value(&whole);
            gp.add_constraint(Monomial::sparse(u_c / agent.scale(), num_vars, &exp)?.into())?;
        }

        // Start strictly inside every bundle constraint, with the level at
        // half the smallest U_i there, which clears every level constraint
        // by ln 2. U_i is taken in log space: many agents, or elasticity
        // sums a credit weight has scaled up, put it far below any fixed
        // floor, and u_i(C) alone can overflow.
        let mut x0 = vec![0.0; num_vars];
        max_welfare::interior_start(agents, capacity, self.fairness, &mut x0)?;
        let min_log_u = agents
            .iter()
            .enumerate()
            .map(|(i, a)| {
                (0..r_count)
                    .map(|r| a.elasticity(r) * (x0[i * r_count + r] / capacity.get(r)).ln())
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        x0[t_var] = 0.5 * min_log_u.exp();
        let sol = gp.solve_warm(&x0, warm)?;
        let hint = GpWarmStart::from_solution(&sol);
        let bundles: Result<Vec<Bundle>> = (0..n)
            .map(|i| Bundle::new((0..r_count).map(|r| sol.x[i * r_count + r]).collect()))
            .collect();
        Ok((Allocation::new(bundles?, capacity)?, Some(hint)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::welfare::weighted_utility;

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
    fn slowdowns_equalize_at_optimum() {
        let agents = paper_agents();
        let c = paper_capacity();
        let alloc = EqualSlowdown::new().allocate(&agents, &c).unwrap();
        let u0 = weighted_utility(&agents[0], alloc.bundle(0), &c);
        let u1 = weighted_utility(&agents[1], alloc.bundle(1), &c);
        assert!((u0 - u1).abs() < 1e-3, "U0 {u0} U1 {u1}");
        assert!(alloc.is_exhaustive(&c, 1e-3));
    }

    #[test]
    fn beats_equal_split_minimum() {
        // The max-min optimum is at least as good for the worst agent as
        // the equal division.
        let agents = paper_agents();
        let c = paper_capacity();
        let alloc = EqualSlowdown::new().allocate(&agents, &c).unwrap();
        let equal = c.equal_split(2);
        let worst_opt = agents
            .iter()
            .enumerate()
            .map(|(i, a)| weighted_utility(a, alloc.bundle(i), &c))
            .fold(f64::INFINITY, f64::min);
        let worst_equal = agents
            .iter()
            .map(|a| a.value(&equal) / a.value(&c.as_bundle()))
            .fold(f64::INFINITY, f64::min);
        assert!(worst_opt >= worst_equal * (1.0 - 1e-4));
    }

    #[test]
    fn identical_agents_get_equal_split() {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
        ];
        let c = paper_capacity();
        let alloc = EqualSlowdown::new().allocate(&agents, &c).unwrap();
        for r in 0..2 {
            assert!(
                (alloc.bundle(0).get(r) - alloc.bundle(1).get(r)).abs() < 0.05,
                "{alloc:?}"
            );
        }
    }

    #[test]
    fn asymmetric_scale_does_not_break_normalization() {
        // Multiplying an agent's utility by a constant changes u(C) and
        // u(x) equally, so the allocation must be unchanged.
        let a = vec![
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ];
        let b = vec![
            CobbDouglas::new(7.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(0.3, vec![0.2, 0.8]).unwrap(),
        ];
        let c = paper_capacity();
        let alloc_a = EqualSlowdown::new().allocate(&a, &c).unwrap();
        let alloc_b = EqualSlowdown::new().allocate(&b, &c).unwrap();
        for i in 0..2 {
            for r in 0..2 {
                assert!((alloc_a.bundle(i).get(r) - alloc_b.bundle(i).get(r)).abs() < 0.05);
            }
        }
    }

    #[test]
    fn fairness_variant_satisfies_properties() {
        use crate::properties::FairnessReport;
        let agents = vec![
            CobbDouglas::new(1.2, vec![0.8, 0.3]).unwrap(),
            CobbDouglas::new(0.7, vec![0.2, 0.6]).unwrap(),
        ];
        let c = paper_capacity();
        let alloc = EqualSlowdown::with_fairness()
            .allocate(&agents, &c)
            .unwrap();
        let report = FairnessReport::check_with_tolerance(&agents, &alloc, &c, 2e-3);
        assert!(report.sharing_incentives(), "{report:?}");
        assert!(report.envy_free(), "{report:?}");
    }

    #[test]
    fn fairness_variant_is_a_lower_bound_on_fair_welfare() {
        use crate::mechanism::MaxWelfare;
        use crate::welfare::weighted_system_throughput;
        let agents = vec![
            CobbDouglas::new(1.2, vec![0.8, 0.3]).unwrap(),
            CobbDouglas::new(0.7, vec![0.2, 0.6]).unwrap(),
        ];
        let c = paper_capacity();
        let egal = EqualSlowdown::with_fairness()
            .allocate(&agents, &c)
            .unwrap();
        let util = MaxWelfare::with_fairness().allocate(&agents, &c).unwrap();
        let t_egal = weighted_system_throughput(&agents, &egal, &c);
        let t_util = weighted_system_throughput(&agents, &util, &c);
        assert!(
            t_egal <= t_util * (1.0 + 1e-3),
            "egal {t_egal} util {t_util}"
        );
    }

    #[test]
    fn warm_started_allocation_agrees_with_cold() {
        let agents = paper_agents();
        let c = paper_capacity();
        let mech = EqualSlowdown::new();
        let (cold, hint) = mech.allocate_warm(&agents, &c, None).unwrap();
        let hint = hint.expect("GP mechanisms always return a hint");
        // The hint covers the level variable `t` as well as the bundles.
        assert_eq!(hint.x.len(), 2 * 2 + 1);
        let (rewarmed, _) = mech.allocate_warm(&agents, &c, Some(&hint)).unwrap();
        for i in 0..2 {
            for r in 0..2 {
                assert!((rewarmed.bundle(i).get(r) - cold.bundle(i).get(r)).abs() < 1e-3);
            }
        }
        let u0 = weighted_utility(&agents[0], rewarmed.bundle(0), &c);
        let u1 = weighted_utility(&agents[1], rewarmed.bundle(1), &c);
        assert!((u0 - u1).abs() < 1e-3, "U0 {u0} U1 {u1}");
    }

    #[test]
    fn both_variants_start_strictly_inside() {
        // Neither start sits on the capacity boundary (the equal split
        // does): the solver refuses a start that is not strictly inside.
        let agents = vec![
            CobbDouglas::new(1.2, vec![0.8, 0.3]).unwrap(),
            CobbDouglas::new(0.7, vec![0.2, 0.6]).unwrap(),
            CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap(),
        ];
        let c = paper_capacity();
        for mech in [EqualSlowdown::new(), EqualSlowdown::with_fairness()] {
            if let Err(e) = mech.allocate(&agents, &c) {
                panic!("{}: {e}", mech.name());
            }
        }
    }

    #[test]
    fn variant_names_differ() {
        assert_ne!(
            EqualSlowdown::new().name(),
            EqualSlowdown::with_fairness().name()
        );
        assert!(EqualSlowdown::with_fairness().fairness);
        assert!(!EqualSlowdown::new().fairness);
    }

    #[test]
    fn rejects_empty_agents() {
        let c = paper_capacity();
        assert!(EqualSlowdown::new().allocate(&[], &c).is_err());
    }
}
