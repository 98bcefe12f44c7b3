//! The credit GPs at market sizes a dense Newton system cannot reach in a
//! debug build: a cold weighted-Nash solve at 384 agents would be six
//! gigaflops of unoptimised Cholesky, and at 2,000 agents two 128 MB
//! Hessian buffers. With the structured kernel an iterate is `O(N R^2)`,
//! so this file runs in seconds under plain `cargo test` — and stops doing
//! so if the structure is lost. `credit-max-welfare` allocates in closed
//! form, so its program (`NashProgram` over the tilted agents, the one
//! `max-welfare-fair` extends) is solved directly; `credit-equal-slowdown`
//! runs its own solve. Answers are held to oracles that share nothing with
//! the solver: the weighted-Nash closed form, and for max-min the
//! weak-duality bound of `welfare::egalitarian_bound`.

use ref_fairness::core::mechanism::{
    CreditInner, CreditMechanism, GpWarmStart, Mechanism, NashProgram,
};
use ref_fairness::core::resource::{Allocation, Capacity};
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::core::welfare::egalitarian_gap;

/// A value in `[0, 1)` keyed by `(stream, agent)` (SplitMix64 finalizer).
fn unit(stream: u64, agent: usize) -> f64 {
    let mut z = (stream << 32 | agent as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `agents` agents on two resources with elasticities `[a, 1 - a]`, `a` in
/// `[0.1, 0.9]`, credit weights in the ledger's `[0.4, 1.6]` band, and the
/// same weights after an epoch's drift of up to 0.5%.
struct Market {
    agents: Vec<CobbDouglas>,
    weights: Vec<f64>,
    drifted: Vec<f64>,
    capacity: Capacity,
}

impl Market {
    fn new(agents: usize) -> Market {
        let weights: Vec<f64> = (0..agents).map(|i| 0.4 + 1.2 * unit(1, i)).collect();
        Market {
            agents: (0..agents)
                .map(|i| {
                    let a = 0.1 + 0.8 * unit(0, i);
                    CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
                })
                .collect(),
            drifted: (0..agents)
                .map(|i| weights[i] * (1.0 + 0.005 * (2.0 * unit(2, i) - 1.0)))
                .collect(),
            weights,
            capacity: Capacity::new(vec![2.0 * agents as f64, agents as f64]).unwrap(),
        }
    }

    /// The GP behind `inner` at `weights`.
    fn solve(
        &self,
        inner: CreditInner,
        weights: &[f64],
        hint: Option<&GpWarmStart>,
    ) -> (Allocation, GpWarmStart) {
        let mechanism = CreditMechanism::new(inner, weights.to_vec()).unwrap();
        match inner {
            CreditInner::MaxWelfare => {
                NashProgram::new(&mechanism.tilted(&self.agents).unwrap(), &self.capacity)
                    .unwrap()
                    .solve_warm(hint)
                    .unwrap()
            }
            CreditInner::EqualSlowdown => {
                let (alloc, next) = mechanism
                    .allocate_warm(&self.agents, &self.capacity, hint)
                    .unwrap();
                (alloc, next.unwrap())
            }
        }
    }

    /// Largest relative distance of `alloc` from the weighted-Nash optimum
    /// `x_ir = C_r w_i a_ir / sum_j w_j a_jr`.
    fn nash_divergence(&self, weights: &[f64], alloc: &Allocation) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..2 {
            let demand = |i: usize| weights[i] * self.agents[i].elasticity(r);
            let total: f64 = (0..weights.len()).map(demand).sum();
            for i in 0..weights.len() {
                let want = self.capacity.get(r) * demand(i) / total;
                worst = worst.max((alloc.bundle(i).get(r) / want - 1.0).abs());
            }
        }
        worst
    }

    /// Certified distance of `alloc` from the max-min optimum over the
    /// weighted levels `U_i^{w_i}`, the weighted utilities of the tilted
    /// agents.
    fn max_min_gap(&self, weights: &[f64], alloc: &Allocation, hint: &GpWarmStart) -> f64 {
        let tilted = CreditMechanism::new(CreditInner::EqualSlowdown, weights.to_vec())
            .and_then(|m| m.tilted(&self.agents))
            .unwrap();
        let level = *hint.x.last().unwrap();
        egalitarian_gap(&tilted, alloc, &self.capacity, level)
    }
}

#[test]
fn credit_max_welfare_lands_on_the_closed_form_at_48_384_and_2000_agents() {
    for agents in [48, 384, 2000] {
        let market = Market::new(agents);
        let (cold, hint) = market.solve(CreditInner::MaxWelfare, &market.weights, None);
        let gap = market.nash_divergence(&market.weights, &cold);
        assert!(
            gap <= 1e-6,
            "{agents} agents cold: {gap:e} ({:?})",
            hint.stats
        );
        // The next epoch, from this optimum: same answer quality, and the
        // hint pays at every size.
        let (warm, warm_hint) = market.solve(CreditInner::MaxWelfare, &market.drifted, Some(&hint));
        let gap = market.nash_divergence(&market.drifted, &warm);
        assert!(
            gap <= 1e-6,
            "{agents} agents warm: {gap:e} ({:?})",
            warm_hint.stats
        );
        assert!(
            warm_hint.stats.newton_iterations < hint.stats.newton_iterations,
            "{agents} agents: warm {:?} vs cold {:?}",
            warm_hint.stats,
            hint.stats
        );
    }
}

#[test]
fn credit_equal_slowdown_reaches_the_max_min_bound_at_48_and_192_agents() {
    for agents in [48, 192] {
        let market = Market::new(agents);
        let (cold, hint) = market.solve(CreditInner::EqualSlowdown, &market.weights, None);
        let (warm, warm_hint) =
            market.solve(CreditInner::EqualSlowdown, &market.drifted, Some(&hint));
        for (label, weights, alloc, hint) in [
            ("cold", &market.weights, &cold, &hint),
            ("warm", &market.drifted, &warm, &warm_hint),
        ] {
            let gap = market.max_min_gap(weights, alloc, hint);
            assert!(
                gap <= 1e-5 && alloc.is_exhaustive(&market.capacity, 1e-3),
                "{agents} agents {label}: {gap:e} short of the bound ({:?})",
                hint.stats
            );
        }
    }
}
