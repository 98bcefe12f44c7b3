//! Integration: online estimation, the CEEI market equivalence and the
//! offline profile → fit pipeline composed together.

use ref_bench::pipeline::fit_benchmark;
use ref_fairness::core::ceei::{competitive_equilibrium, tatonnement};
use ref_fairness::core::mechanism::{Mechanism, ProportionalElasticity};
use ref_fairness::core::online::OnlineEstimator;
use ref_fairness::core::properties::FairnessReport;
use ref_fairness::core::resource::Capacity;
use ref_fairness::core::utility::{CobbDouglas, Utility};
use ref_fairness::workloads::profiler::ProfilerOptions;
use ref_fairness::workloads::profiles::by_name;

/// The fitted utility of a named benchmark at a test-sized profile length.
fn fitted(name: &str) -> CobbDouglas {
    let opts = ProfilerOptions {
        warmup_instructions: 20_000,
        instructions: 30_000,
        ..ProfilerOptions::default()
    };
    fit_benchmark(by_name(name).expect("known benchmark"), &opts).utility
}

#[test]
fn market_prices_explain_the_ref_allocation_of_fitted_tenants() {
    // Profile and fit two tenants, allocate with REF, then confirm the
    // allocation is a competitive equilibrium of the fitted utilities:
    // equal budgets, clearing prices, and demands equal to the granted
    // bundles.
    let utilities = vec![fitted("histogram"), fitted("dedup")];
    let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
    let allocation = ProportionalElasticity
        .allocate(&utilities, &capacity)
        .unwrap();
    let eq = competitive_equilibrium(&utilities, &capacity).unwrap();
    for i in 0..2 {
        for r in 0..2 {
            let a = allocation.bundle(i).get(r);
            let b = eq.allocation.bundle(i).get(r);
            assert!((a - b).abs() < 1e-9, "agent {i} resource {r}: {a} vs {b}");
        }
    }
    // And the tatonnement dynamic reaches the same prices from flat ones.
    let t = tatonnement(&utilities, &capacity, &[1.0, 1.0], 300).unwrap();
    for (p, q) in t.prices.iter().zip(&eq.prices) {
        assert!((p - q).abs() < 1e-6 * q);
    }
}

#[test]
fn online_estimates_feed_the_colocation_workflow() {
    // Learn a tenant's utility online, then allocate it alongside a
    // profiled tenant.
    let truth = CobbDouglas::new(1.0, vec![0.7, 0.3]).unwrap();
    let mut est = OnlineEstimator::new(2).unwrap();
    for i in 0..10_u32 {
        let x = 1.0 + f64::from(i % 4);
        let y = 0.5 + f64::from(i % 3);
        est.observe(vec![x, y], truth.value_slice(&[x, y])).unwrap();
    }
    let utilities = vec![est.utility().clone(), fitted("histogram")];
    let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
    let allocation = ProportionalElasticity
        .allocate(&utilities, &capacity)
        .unwrap();
    let report = FairnessReport::check_with_tolerance(&utilities, &allocation, &capacity, 1e-3);
    assert!(report.sharing_incentives());
    // The learned tenant's bandwidth lean must show in its share.
    let shares = allocation.shares(&capacity);
    assert!(shares[0][0] > shares[0][1], "{shares:?}");
}

#[test]
fn repeated_allocation_is_idempotent() {
    // Re-running the mechanism on its own output's implied preferences
    // changes nothing — a sanity property for control loops that
    // re-allocate periodically.
    let agents = vec![
        CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
        CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
    ];
    let c = Capacity::new(vec![24.0, 12.0]).unwrap();
    let a1 = ProportionalElasticity.allocate(&agents, &c).unwrap();
    let a2 = ProportionalElasticity.allocate(&agents, &c).unwrap();
    assert_eq!(a1, a2);
}
