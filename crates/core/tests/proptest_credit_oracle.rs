//! The credit-tilted mechanisms and the weighted-Nash geometric program
//! against oracles that share no code with the solver.
//!
//! `credit-max-welfare`: weighted Nash welfare over Cobb-Douglas utilities
//! has the closed form `x_ir = C_r w_i a_ir / L_r` with
//! `L_r = sum_j w_j a_jr`, and the mechanism allocates exactly that. The
//! program it would otherwise solve ([`NashProgram`] over the tilted
//! agents, the one `max-welfare-fair` extends) stays the solver's oracle
//! test: the barrier method's whole central path for it is known too — at
//! path parameter `t` the central point is `x_ir exp(-1 / (t L_r))`
//! (stationarity gives each capacity constraint the slack `1 / (t L_r)`
//! and leaves the shares untouched). The solver must land on that point
//! at the `t` it reports, cold and warm; how close that is to the optimum
//! itself is then arithmetic: within 1e-6 wherever `t L_r >= 2e6`, which
//! covers every market with a few agents who care about the resource. Run
//! the other way, the same bound holds the closed form to the solved
//! program, and the closed form exhausts every capacity to 1e-12 — which a
//! barrier stopped at a finite `t` cannot.
//!
//! `credit-equal-slowdown` has no closed form, but max-min has a
//! certificate: for any multipliers `lambda` on the simplex,
//! `min_i L_i <= prod_i L_i^{lambda_i}`, whose maximum over feasible
//! allocations is a weighted Nash welfare in closed form
//! ([`ref_core::welfare::egalitarian_bound`]). The allocation's lowest
//! weighted level `L_i = U_i(x_i)^{w_i}` must come within 1e-5 of that
//! bound at the multipliers its own slacks suggest, and exhaust every
//! capacity within 1e-3. (The levels themselves need not be equal at a
//! central point: an agent of small elasticity mass reaches the common
//! level on a 1e-18 share, costs the others nothing, and is left well
//! above it at any path parameter a solver stops at — on the dense kernel
//! as much as on this one.)
//!
//! Markets run to 384 agents: a Newton iterate costs `O(N R^2)` in the
//! structured kernel, where a dense 1,536-variable Hessian would cost a
//! gigaflop to factor. The max-min markets stop at 192: beyond some 200
//! agents on a single resource the damped Newton centering — on the dense
//! kernel exactly as on this one — can run past its 300-iteration cap.

use proptest::prelude::*;
use ref_core::mechanism::{
    CreditInner, CreditMechanism, GpWarmStart, MaxWelfare, Mechanism, NashProgram,
};
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::CobbDouglas;
use ref_core::welfare::egalitarian_gap;

const MAX_AGENTS: usize = 384;
const MAX_RESOURCES: usize = 4;

/// A market on 1..=4 resources: credit weights in `[0.25, 4]`, capacities
/// log-uniform in `[1e-3, 1e6]`, and a second set of weights up to 2%
/// away.
#[derive(Debug)]
struct Market {
    agents: Vec<CobbDouglas>,
    weights: Vec<f64>,
    drifted: Vec<f64>,
    capacity: Capacity,
}

/// Markets of `2..=max_agents` agents whose elasticities are
/// `elasticity(u)` of uniform `u` in `[0, 1)`.
fn market(max_agents: usize, elasticity: fn(f64) -> f64) -> impl Strategy<Value = Market> {
    (
        2..=max_agents,
        1..=MAX_RESOURCES,
        prop::collection::vec(0.0..1.0f64, MAX_AGENTS * MAX_RESOURCES),
        prop::collection::vec((0.25..4.0f64, -0.02..0.02f64), MAX_AGENTS),
        prop::collection::vec(0.0..1.0f64, MAX_RESOURCES),
    )
        .prop_map(move |(n, r, elasticities, weights, capacities)| Market {
            agents: elasticities
                .chunks(MAX_RESOURCES)
                .take(n)
                .map(|row| {
                    let row = row[..r].iter().map(|&u| elasticity(u)).collect();
                    CobbDouglas::new(1.0, row).expect("positive elasticities")
                })
                .collect(),
            weights: weights[..n].iter().map(|(w, _)| *w).collect(),
            drifted: weights[..n]
                .iter()
                .map(|(w, d)| (w * (1.0 + d)).clamp(0.25, 4.0))
                .collect(),
            capacity: Capacity::new(
                capacities[..r]
                    .iter()
                    .map(|u| 10f64.powf(9.0 * u - 3.0))
                    .collect(),
            )
            .expect("positive capacities"),
        })
}

impl Market {
    /// The GP behind `inner` at `weights`: the credit-tilted max-min
    /// mechanism's own solve, or for weighted Nash the program over the
    /// tilted agents (the mechanism itself is closed-form).
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
}

/// Checks `alloc` against the closed forms of weighted Nash welfare for
/// `weights` at the path parameter the solve reported.
fn check_max_welfare(
    market: &Market,
    weights: &[f64],
    alloc: &Allocation,
    hint: &GpWarmStart,
) -> Result<(), TestCaseError> {
    for r in 0..market.capacity.num_resources() {
        let demand = |i: usize| weights[i] * market.agents[i].elasticity(r);
        let total: f64 = (0..weights.len()).map(demand).sum();
        let slack = 1.0 / (hint.t * total);
        for i in 0..weights.len() {
            let optimum = market.capacity.get(r) * demand(i) / total;
            let got = alloc.bundle(i).get(r);
            let central = optimum * (-slack).exp();
            prop_assert!(
                (got / central - 1.0).abs() <= 1e-6,
                "agent {i} resource {r}: {got} vs central point {central} ({:?})",
                hint.stats
            );
            if hint.t * total >= 2e6 {
                prop_assert!(
                    (got / optimum - 1.0).abs() <= 1e-6,
                    "agent {i} resource {r}: {got} vs optimum {optimum}"
                );
            }
        }
    }
    Ok(())
}

/// Checks that `alloc` is a max-min point for `weights`: its lowest
/// weighted level within 1e-5 of a certified upper bound on any feasible
/// allocation's, every capacity exhausted within 1e-3.
fn check_equal_slowdown(
    market: &Market,
    weights: &[f64],
    alloc: &Allocation,
    hint: &GpWarmStart,
) -> Result<(), TestCaseError> {
    let tilted = CreditMechanism::new(CreditInner::EqualSlowdown, weights.to_vec())
        .and_then(|m| m.tilted(&market.agents))
        .expect("one positive weight per agent");
    let level = *hint.x.last().expect("the level variable is last");
    let gap = egalitarian_gap(&tilted, alloc, &market.capacity, level);
    prop_assert!(
        gap <= 1e-5,
        "lowest weighted level {gap:e} short of the bound ({:?})",
        hint.stats
    );
    prop_assert!(alloc.is_exhaustive(&market.capacity, 1e-3), "{alloc:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 2..=384 agents, elasticities log-uniform in `[1e-6, 1]`.
    #[test]
    fn credit_max_welfare_lands_on_the_closed_form_cold_and_warm(
        market in market(MAX_AGENTS, |u| 10f64.powf(-6.0 * u)),
    ) {
        let inner = CreditInner::MaxWelfare;
        let (alloc, hint) = market.solve(inner, &market.weights, None);
        check_max_welfare(&market, &market.weights, &alloc, &hint)?;
        // Re-solve after the weights drift, seeded with that optimum, and
        // cold for comparison: the same stage, the same point.
        let (warm, warm_hint) = market.solve(inner, &market.drifted, Some(&hint));
        check_max_welfare(&market, &market.drifted, &warm, &warm_hint)?;
        let (_, cold_hint) = market.solve(inner, &market.drifted, None);
        prop_assert_eq!(warm_hint.t, cold_hint.t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `credit-max-welfare` itself: the closed form, exact where the
    /// program is only close.
    #[test]
    fn credit_max_welfare_is_the_closed_form_the_program_converges_to(
        market in market(MAX_AGENTS, |u| 10f64.powf(-6.0 * u)),
    ) {
        let mechanism = CreditMechanism::new(CreditInner::MaxWelfare, market.weights.clone())
            .unwrap();
        let (exact, hint) = mechanism
            .allocate_warm(&market.agents, &market.capacity, None)
            .unwrap();
        prop_assert!(hint.is_none(), "a closed form has nothing to warm");
        // Every capacity exhausted to rounding.
        for r in 0..market.capacity.num_resources() {
            let used: f64 = exact.bundles().iter().map(|b| b.get(r)).sum();
            let cap = market.capacity.get(r);
            prop_assert!((used / cap - 1.0).abs() <= 1e-12, "resource {r}: {used} of {cap}");
        }
        // The solved program agrees wherever its slack is below 1e-6.
        let (solved, hint) = market.solve(CreditInner::MaxWelfare, &market.weights, None);
        for r in 0..market.capacity.num_resources() {
            let total: f64 = (0..market.agents.len())
                .map(|i| market.weights[i] * market.agents[i].elasticity(r))
                .sum();
            if hint.t * total < 2e6 {
                continue;
            }
            for i in 0..market.agents.len() {
                let (x, k) = (exact.bundle(i).get(r), solved.bundle(i).get(r));
                prop_assert!((x / k - 1.0).abs() <= 1e-6, "agent {i} resource {r}: {x} vs {k}");
            }
        }
        // Uniform weights are `max-welfare`, bit for bit.
        let flat = CreditMechanism::new(CreditInner::MaxWelfare, vec![1.0; market.agents.len()])
            .unwrap()
            .allocate(&market.agents, &market.capacity)
            .unwrap();
        let plain = MaxWelfare::without_fairness()
            .allocate(&market.agents, &market.capacity)
            .unwrap();
        for (a, b) in flat.bundles().iter().zip(plain.bundles()) {
            for r in 0..market.capacity.num_resources() {
                prop_assert_eq!(a.get(r).to_bits(), b.get(r).to_bits());
            }
        }
    }
}

proptest! {
    // A max-min solve takes two to four times the Newton iterations of a
    // Nash one.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2..=192 agents, elasticities uniform in `[0.05, 1]`.
    #[test]
    fn credit_equal_slowdown_reaches_the_max_min_bound_and_exhausts_capacity_cold_and_warm(
        market in market(MAX_AGENTS / 2, |u| 0.05 + 0.95 * u),
    ) {
        let inner = CreditInner::EqualSlowdown;
        let (alloc, hint) = market.solve(inner, &market.weights, None);
        check_equal_slowdown(&market, &market.weights, &alloc, &hint)?;
        let (warm, warm_hint) = market.solve(inner, &market.drifted, Some(&hint));
        check_equal_slowdown(&market, &market.drifted, &warm, &warm_hint)?;
        let (_, cold_hint) = market.solve(inner, &market.drifted, None);
        prop_assert_eq!(warm_hint.t, cold_hint.t);
    }
}
