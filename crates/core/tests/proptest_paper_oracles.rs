//! REF against the paper's own characterisations of it, interior markets.
//!
//! For Cobb-Douglas utilities four allocations coincide (§4.2 and §4.5):
//! the REF closed form ([`ProportionalElasticity`], Eq. 12–13), the
//! competitive equilibrium from equal incomes
//! ([`ceei::competitive_equilibrium`]), the equal-weight Nash welfare
//! optimum over the re-scaled utilities in closed form
//! ([`MaxWelfare::without_fairness`]), and the same Nash program solved
//! as a geometric program ([`NashProgram`]). The three closed forms must
//! agree to 1e-12 relative. The barrier method stops at the central point
//! of its last path parameter `t`, which keeps each capacity constraint
//! the slack `1 / (t L_r)` (`L_r` the resource's total re-scaled
//! elasticity) and leaves the shares untouched: the solved bundles must
//! sit on that point within 1e-6, and so within `1 / (t L_r) + 1e-6` of
//! the closed form.
//!
//! On the REF allocation SI, EF and PE must hold under
//! [`FairnessReport::check_with_tolerance`]. REF is a CEEI, so the envy
//! audit's budget certificate ([`envy_audit`]) must clear every agent
//! without forming its row (`--nocapture` prints the count).
//!
//! Markets: 2–6 agents on 2–4 resources, elasticities in `[0.05, 0.95]`
//! at scales log-uniform in `[1e-6, 1e6]`, capacities log-uniform in
//! `[1e-6, 1e12]`. Zero elasticities (the boundary) are not drawn.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use ref_core::ceei::competitive_equilibrium;
use ref_core::mechanism::{MaxWelfare, Mechanism, NashProgram, ProportionalElasticity};
use ref_core::properties::{envy_audit, FairnessReport};
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::CobbDouglas;

const MAX_AGENTS: usize = 6;
const MAX_RESOURCES: usize = 4;

/// Relative tolerance of the fairness checks on the REF allocation.
const AUDIT_TOL: f64 = 1e-9;

fn market() -> impl Strategy<Value = (Vec<CobbDouglas>, Capacity)> {
    (
        2..=MAX_AGENTS,
        2..=MAX_RESOURCES,
        prop::collection::vec(
            (
                -6.0..6.0f64,
                prop::collection::vec(0.05..0.95f64, MAX_RESOURCES),
            ),
            MAX_AGENTS,
        ),
        prop::collection::vec(-6.0..12.0f64, MAX_RESOURCES),
    )
        .prop_map(|(n, r, rows, capacities)| {
            let agents = rows[..n]
                .iter()
                .map(|(scale, elasticities)| {
                    CobbDouglas::new(10f64.powf(*scale), elasticities[..r].to_vec())
                        .expect("positive scale and elasticities")
                })
                .collect();
            let capacity = Capacity::new(capacities[..r].iter().map(|c| 10f64.powf(*c)).collect())
                .expect("positive capacities");
            (agents, capacity)
        })
}

/// Asserts that `got` equals `want` bundle for bundle within `tol`
/// relative.
fn agree(what: &str, got: &Allocation, want: &Allocation, tol: f64) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.bundles().iter().zip(want.bundles()).enumerate() {
        for r in 0..g.as_slice().len() {
            let (g, w) = (g.get(r), w.get(r));
            prop_assert!(
                (g / w - 1.0).abs() <= tol,
                "{what}: agent {i} resource {r}: {g} vs {w}"
            );
        }
    }
    Ok(())
}

/// Checks one market; returns how many agents the budget certificate
/// cleared.
fn check(population: &[CobbDouglas], capacity: &Capacity) -> Result<u64, TestCaseError> {
    let rescaled: Vec<CobbDouglas> = population.iter().map(CobbDouglas::rescaled).collect();
    let reference = ProportionalElasticity
        .allocate(population, capacity)
        .unwrap();
    let ceei = competitive_equilibrium(population, capacity).unwrap();
    agree("CEEI", &ceei.allocation, &reference, 1e-12)?;
    let nash = MaxWelfare::without_fairness()
        .allocate(&rescaled, capacity)
        .unwrap();
    agree("Nash closed form", &nash, &reference, 1e-12)?;

    let (solved, hint) = NashProgram::new(&rescaled, capacity)
        .unwrap()
        .solve_warm(None)
        .unwrap();
    for r in 0..capacity.num_resources() {
        let total: f64 = rescaled.iter().map(|a| a.elasticity(r)).sum();
        let slack = 1.0 / (hint.t * total);
        for i in 0..rescaled.len() {
            let (got, optimum) = (solved.bundle(i).get(r), reference.bundle(i).get(r));
            let central = optimum * (-slack).exp();
            prop_assert!(
                (got / central - 1.0).abs() <= 1e-6,
                "GP: agent {i} resource {r}: {got} vs central point {central} ({:?})",
                hint.stats
            );
            prop_assert!(
                (got / optimum - 1.0).abs() <= slack + 1e-6,
                "GP: agent {i} resource {r}: {got} vs optimum {optimum}"
            );
        }
    }

    let report = FairnessReport::check_with_tolerance(population, &reference, capacity, AUDIT_TOL);
    prop_assert!(report.is_fair_with_si(), "{report:?}");
    let (edges, work) = envy_audit(population, &reference, AUDIT_TOL);
    prop_assert!(edges.is_empty());
    prop_assert_eq!(work.certified, population.len() as u64, "{:?}", work);
    Ok(work.certified)
}

/// 128 markets drawn as `proptest!` draws them; the certificate's
/// coverage is summed over all of them.
#[test]
fn ref_is_the_ceei_and_the_nash_optimum_on_interior_markets() {
    let strategy = market();
    let mut rng = TestRng::for_test(concat!(
        module_path!(),
        "::ref_is_the_ceei_and_the_nash_optimum_on_interior_markets"
    ));
    let (cases, mut agents, mut certified) = (128, 0, 0);
    for case in 1..=cases {
        let (population, capacity) = strategy.new_value(&mut rng);
        match check(&population, &capacity) {
            Ok(cleared) => certified += cleared,
            Err(e) => {
                panic!("case {case}/{cases} failed: {e}\n  market: {population:?} {capacity:?}")
            }
        }
        agents += population.len();
    }
    eprintln!("budget certificate cleared {certified} of {agents} agents over {cases} markets");
}
