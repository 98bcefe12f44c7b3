//! `credit-max-welfare` against an independent oracle. Weighted Nash
//! welfare over Cobb-Douglas utilities has the closed form
//! `x_ir = C_r w_i a_ir / L_r` with `L_r = sum_j w_j a_jr`, and so does the
//! barrier method's whole central path for it: at path parameter `t` the
//! central point is `x_ir exp(-1 / (t L_r))` (stationarity gives each
//! capacity constraint the slack `1 / (t L_r)` and leaves the shares
//! untouched). The solver must land on that point at the `t` it reports,
//! cold and warm; how close that is to the optimum itself is then
//! arithmetic: within 1e-6 wherever `t L_r >= 2e6`, which covers every
//! market with a few agents who care about the resource.

use proptest::prelude::*;
use ref_core::mechanism::{CreditInner, CreditMechanism, GpWarmStart, Mechanism};
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::CobbDouglas;

const MAX_AGENTS: usize = 64;
const MAX_RESOURCES: usize = 4;

/// A market of 2..=64 agents on 1..=4 resources: elasticities log-uniform
/// in `[1e-6, 1]`, credit weights in `[0.25, 4]`, capacities log-uniform
/// in `[1e-3, 1e6]`, and a second set of weights up to 2% away.
#[derive(Debug)]
struct Market {
    agents: Vec<CobbDouglas>,
    weights: Vec<f64>,
    drifted: Vec<f64>,
    capacity: Capacity,
}

fn market() -> impl Strategy<Value = Market> {
    (
        2..=MAX_AGENTS,
        1..=MAX_RESOURCES,
        prop::collection::vec(0.0..1.0f64, MAX_AGENTS * MAX_RESOURCES),
        prop::collection::vec((0.25..4.0f64, -0.02..0.02f64), MAX_AGENTS),
        prop::collection::vec(0.0..1.0f64, MAX_RESOURCES),
    )
        .prop_map(|(n, r, elasticities, weights, capacities)| Market {
            agents: elasticities
                .chunks(MAX_RESOURCES)
                .take(n)
                .map(|row| {
                    let row = row[..r].iter().map(|u| 10f64.powf(-6.0 * u)).collect();
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

/// Checks `alloc` against the closed forms for `weights` at the path
/// parameter the solve reported.
fn check(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn credit_max_welfare_lands_on_the_closed_form_cold_and_warm(market in market()) {
        let solve = |weights: &[f64], hint: Option<&GpWarmStart>| {
            let (alloc, next) = CreditMechanism::new(CreditInner::MaxWelfare, weights.to_vec())
                .unwrap()
                .allocate_warm(&market.agents, &market.capacity, hint)
                .unwrap();
            (alloc, next.unwrap())
        };
        let (alloc, hint) = solve(&market.weights, None);
        prop_assert_eq!(hint.stats.phase_one_iterations, 0);
        check(&market, &market.weights, &alloc, &hint)?;
        // Re-solve after the weights drift, seeded with that optimum, and
        // cold for comparison: the same stage, the same point.
        let (warm, warm_hint) = solve(&market.drifted, Some(&hint));
        check(&market, &market.drifted, &warm, &warm_hint)?;
        let (_, cold_hint) = solve(&market.drifted, None);
        prop_assert_eq!(warm_hint.t, cold_hint.t);
    }
}
