//! End-to-end integration: simulate → profile → fit → allocate → verify →
//! enforce, across every crate in the workspace.

use ref_bench::pipeline::fit_benchmark;
use ref_fairness::core::mechanism::{Mechanism, ProportionalElasticity};
use ref_fairness::core::properties::FairnessReport;
use ref_fairness::core::resource::Capacity;
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::sim::config::{Bandwidth, CacheSize, PlatformConfig};
use ref_fairness::sim::system::MulticoreSystem;
use ref_fairness::workloads::profiler::ProfilerOptions;
use ref_fairness::workloads::profiles::by_name;

fn quick_opts() -> ProfilerOptions {
    ProfilerOptions {
        warmup_instructions: 40_000,
        instructions: 60_000,
        ..ProfilerOptions::default()
    }
}

fn fit_named(name: &str) -> CobbDouglas {
    fit_benchmark(by_name(name).expect("known benchmark"), &quick_opts()).utility
}

#[test]
fn profile_fit_allocate_verify() {
    // A cache-preferring and a bandwidth-preferring application.
    let agents = vec![fit_named("histogram"), fit_named("dedup")];
    let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
    let alloc = ProportionalElasticity.allocate(&agents, &capacity).unwrap();

    // The fitted preferences must drive the allocation the right way:
    // histogram gets most of the cache, dedup most of the bandwidth.
    let shares = alloc.shares(&capacity);
    assert!(shares[0][1] > 0.6, "histogram cache share {:?}", shares);
    assert!(shares[1][0] > 0.6, "dedup bandwidth share {:?}", shares);

    // And the allocation is fair.
    let report = FairnessReport::check_with_tolerance(&agents, &alloc, &capacity, 1e-3);
    assert!(report.is_fair_with_si(), "{report:?}");
}

#[test]
fn enforced_allocation_reflects_preferences_in_simulator() {
    let names = ["histogram", "dedup"];
    let agents: Vec<CobbDouglas> = names.iter().map(|n| fit_named(n)).collect();
    let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
    let alloc = ProportionalElasticity.allocate(&agents, &capacity).unwrap();

    let shares = alloc.shares(&capacity);
    let cache_shares: Vec<f64> = shares.iter().map(|s| s[1]).collect();
    let bw_shares: Vec<f64> = shares.iter().map(|s| s[0]).collect();
    let platform = PlatformConfig::asplos14()
        .with_l2_size(CacheSize::from_mib(12))
        .with_bandwidth(Bandwidth::from_gb_per_sec(24.0));
    let deps: Vec<f64> = names
        .iter()
        .map(|n| by_name(n).unwrap().params.dependent_fraction)
        .collect();
    let mut system = MulticoreSystem::new(&platform, &cache_shares, &bw_shares)
        .with_dependent_load_fractions(deps);
    let streams: Vec<_> = names
        .iter()
        .map(|n| by_name(n).unwrap().stream(3))
        .collect();
    let reports = system.run(streams, 120_000);

    // The cache-preferring agent received most of the L2 and should enjoy
    // the better hit rate.
    assert!(
        reports[0].l2.hit_rate() > reports[1].l2.hit_rate(),
        "histogram {} vs dedup {}",
        reports[0].l2.hit_rate(),
        reports[1].l2.hit_rate()
    );
    // Both made progress.
    assert!(reports.iter().all(|r| r.ipc() > 0.0));
}

#[test]
fn ref_dominates_equal_split_for_every_agent() {
    use ref_fairness::core::utility::Utility;
    let agents = vec![fit_named("raytrace"), fit_named("ocean_cp")];
    let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
    let alloc = ProportionalElasticity.allocate(&agents, &capacity).unwrap();
    let equal = capacity.equal_split(2);
    for (i, u) in agents.iter().enumerate() {
        assert!(
            u.value(alloc.bundle(i)) >= u.value(&equal) * (1.0 - 1e-9),
            "agent {i} lost by sharing"
        );
    }
}
