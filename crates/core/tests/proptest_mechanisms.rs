//! Property-based tests for the optimization-based mechanisms. These run
//! interior-point solves per case, so case counts are kept moderate.

use proptest::prelude::*;
use ref_core::mechanism::{
    CreditInner, CreditMechanism, EqualShare, EqualSlowdown, MaxWelfare, Mechanism,
    ProportionalElasticity,
};
use ref_core::properties::FairnessReport;
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_core::welfare::{egalitarian_welfare, nash_welfare};

fn agents(n: usize) -> impl Strategy<Value = Vec<CobbDouglas>> {
    prop::collection::vec((0.2..2.0f64, 0.1..1.0f64, 0.1..1.0f64), n).prop_map(|rows| {
        rows.into_iter()
            .map(|(s, a, b)| CobbDouglas::new(s, vec![a, b]).expect("valid"))
            .collect()
    })
}

fn capacity() -> impl Strategy<Value = Capacity> {
    (5.0..50.0f64, 2.0..30.0f64).prop_map(|(x, y)| Capacity::new(vec![x, y]).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The constrained Nash-welfare mechanism always produces an SI + EF
    /// allocation, for arbitrary (unnormalized) populations.
    #[test]
    fn max_welfare_with_fairness_is_fair(pop in agents(3), cap in capacity()) {
        let alloc = MaxWelfare::with_fairness().allocate(&pop, &cap).unwrap();
        let report = FairnessReport::check_with_tolerance(&pop, &alloc, &cap, 2e-3);
        prop_assert!(report.sharing_incentives(), "{report:?}");
        prop_assert!(report.envy_free(), "{report:?}");
    }

    /// Unconstrained Nash welfare dominates every other mechanism on the
    /// Nash objective.
    #[test]
    fn unconstrained_nash_is_the_nash_optimum(pop in agents(3), cap in capacity()) {
        let best = MaxWelfare::without_fairness().allocate(&pop, &cap).unwrap();
        let best_val = nash_welfare(&pop, &best, &cap);
        for other in [
            ProportionalElasticity.allocate(&pop, &cap).unwrap(),
            EqualShare.allocate(&pop, &cap).unwrap(),
        ] {
            prop_assert!(best_val >= nash_welfare(&pop, &other, &cap) * (1.0 - 1e-3));
        }
    }

    /// Equal slowdown dominates every other mechanism on the egalitarian
    /// objective and (nearly) equalizes weighted utilities.
    #[test]
    fn equal_slowdown_is_the_maxmin_optimum(pop in agents(3), cap in capacity()) {
        let alloc = EqualSlowdown::new().allocate(&pop, &cap).unwrap();
        let best_min = egalitarian_welfare(&pop, &alloc, &cap);
        for other in [
            ProportionalElasticity.allocate(&pop, &cap).unwrap(),
            EqualShare.allocate(&pop, &cap).unwrap(),
        ] {
            prop_assert!(best_min >= egalitarian_welfare(&pop, &other, &cap) * (1.0 - 2e-3));
        }
    }

    /// All GP mechanisms respect capacity and exhaust it (PE requires no
    /// waste for strictly monotone utilities).
    #[test]
    fn gp_mechanisms_exhaust_capacity(pop in agents(2), cap in capacity()) {
        for m in [
            Box::new(MaxWelfare::with_fairness()) as Box<dyn Mechanism>,
            Box::new(MaxWelfare::without_fairness()),
            Box::new(EqualSlowdown::new()),
        ] {
            let alloc = m.allocate(&pop, &cap).unwrap();
            for r in 0..2 {
                let used: f64 = alloc.bundles().iter().map(|b| b.get(r)).sum();
                prop_assert!(used <= cap.get(r) * (1.0 + 1e-6), "{}", m.name());
                prop_assert!(used >= cap.get(r) * (1.0 - 1e-2), "{} wasted", m.name());
            }
        }
    }

    /// For already-normalized agents, the constrained Nash optimum
    /// coincides with the REF closed form (the §4.2 equivalence).
    #[test]
    fn fair_nash_equals_ref_for_normalized_agents(
        a0 in 0.1..0.9f64,
        a1 in 0.1..0.9f64,
        cap in capacity(),
    ) {
        let pop = vec![
            CobbDouglas::new(1.0, vec![a0, 1.0 - a0]).unwrap(),
            CobbDouglas::new(1.0, vec![a1, 1.0 - a1]).unwrap(),
        ];
        let nash = MaxWelfare::with_fairness().allocate(&pop, &cap).unwrap();
        let closed = ProportionalElasticity.allocate(&pop, &cap).unwrap();
        for i in 0..2 {
            for r in 0..2 {
                let gap = (nash.bundle(i).get(r) - closed.bundle(i).get(r)).abs();
                prop_assert!(gap <= 0.02 * cap.get(r), "agent {i} resource {r}: {gap}");
            }
        }
    }
}

/// `2..=192` identical agents on 1..=4 resources — a market at start-up,
/// where every agent still reports the prior and SI binds at REF — with
/// elasticities in `[0.05, 1]`, capacities in `[1, 100]` and one credit
/// weight in `[0.4, 1.6]` per agent.
fn identical_agents() -> impl Strategy<Value = (Vec<CobbDouglas>, Capacity, Vec<f64>)> {
    (
        2..=192usize,
        1..=4usize,
        prop::collection::vec((0.05..1.0f64, 1.0..100.0f64), 4),
        prop::collection::vec(0.4..1.6f64, 192),
    )
        .prop_map(|(n, r, resources, weights)| {
            let (a, c): (Vec<f64>, Vec<f64>) = resources[..r].iter().copied().unzip();
            let agent = CobbDouglas::new(1.0, a).expect("positive elasticities");
            let capacity = Capacity::new(c).expect("positive capacities");
            (vec![agent; n], capacity, weights[..n].to_vec())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every GP mechanism constructs a strictly interior start, which the
    /// solver requires (it refuses any other with `StartNotInterior`):
    /// `max-welfare-fair` and `equal-slowdown-fair` where SI binds at REF,
    /// and the max-min level far below any fixed floor once a credit tilt
    /// scales the elasticities up. Untilted, identical agents share
    /// equally. An envy row couples every pair of agents, so the fair
    /// kinds' Newton systems are dense `(N R)^2`: they run on the first
    /// `FAIR_AGENTS` agents, where the start rule, which does not depend on
    /// `N`, is the same.
    #[test]
    fn every_gp_mechanism_starts_strictly_inside(market in identical_agents()) {
        const FAIR_AGENTS: usize = 32;
        let (agents, capacity, weights) = market;
        let fair = &agents[..agents.len().min(FAIR_AGENTS)];
        let credit = CreditMechanism::new(CreditInner::EqualSlowdown, weights).unwrap();
        let runs: [(&dyn Mechanism, &[CobbDouglas], bool); 4] = [
            (&MaxWelfare::with_fairness(), fair, true),
            (&EqualSlowdown::with_fairness(), fair, true),
            (&EqualSlowdown::new(), &agents, true),
            (&credit, &agents, false),
        ];
        for (m, agents, equal) in runs {
            let alloc = match m.allocate(agents, &capacity) {
                Ok(alloc) => alloc,
                Err(e) => return Err(TestCaseError::fail(format!("{}: {e}", m.name()))),
            };
            for (i, bundle) in alloc.bundles().iter().enumerate().filter(|_| equal) {
                for r in 0..capacity.num_resources() {
                    let share = bundle.get(r) * agents.len() as f64 / capacity.get(r);
                    prop_assert!((share - 1.0).abs() < 1e-2, "{}: agent {i}, {share}", m.name());
                }
            }
        }
    }
}
