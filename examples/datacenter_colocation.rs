//! Datacenter co-location: the full REF pipeline on simulated hardware.
//!
//! Four applications are co-located on a chip multiprocessor. Each is
//! profiled on the cycle-level simulator over the paper's 25-configuration
//! grid, a Cobb-Douglas utility is fitted by log-linear regression, the
//! REF mechanism computes fair shares, and the shares are enforced in the
//! simulator via way-partitioned cache and token-bucket bandwidth.
//!
//! Run with: `cargo run --release --example datacenter_colocation`

use ref_bench::pipeline::fit_benchmark;
use ref_fairness::core::mechanism::{EqualShare, Mechanism, ProportionalElasticity};
use ref_fairness::core::properties::FairnessReport;
use ref_fairness::core::resource::Capacity;
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::core::welfare::weighted_system_throughput;
use ref_fairness::sim::config::PlatformConfig;
use ref_fairness::sim::system::MulticoreSystem;
use ref_fairness::workloads::profiler::ProfilerOptions;
use ref_fairness::workloads::profiles::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let names = ["histogram", "canneal", "freqmine", "dedup"];
    let opts = ProfilerOptions {
        warmup_instructions: 60_000,
        instructions: 100_000,
        ..ProfilerOptions::default()
    };

    // 1. Profile and fit each co-located application.
    println!(
        "profiling {} applications on the Table-1 grid...",
        names.len()
    );
    let mut agents: Vec<CobbDouglas> = Vec::new();
    for name in names {
        let fit = fit_benchmark(by_name(name).expect("known benchmark"), &opts);
        let (bw, cache) = fit.rescaled_elasticities();
        println!(
            "  {name:<12} R^2 {:.3}  rescaled elasticities: bw {bw:.3} cache {cache:.3}",
            fit.r_squared
        );
        agents.push(fit.utility);
    }

    // 2. Allocate the shared chip: 24 GB/s, 12 MB.
    let capacity = Capacity::new(vec![24.0, 12.0])?;
    let allocation = ProportionalElasticity.allocate(&agents, &capacity)?;
    println!("\nREF allocation:");
    for (name, bundle) in names.iter().zip(allocation.bundles()) {
        println!(
            "  {name:<12} {:>5.2} GB/s, {:>5.2} MB",
            bundle.get(0),
            bundle.get(1)
        );
    }
    let report = FairnessReport::check_with_tolerance(&agents, &allocation, &capacity, 1e-3);
    println!(
        "  SI {}  EF {}  PE {}",
        report.sharing_incentives(),
        report.envy_free(),
        report.pareto_efficient
    );

    let equal = EqualShare.allocate(&agents, &capacity)?;
    println!(
        "\nweighted system throughput: REF {:.3} vs equal split {:.3}",
        weighted_system_throughput(&agents, &allocation, &capacity),
        weighted_system_throughput(&agents, &equal, &capacity)
    );

    // 3. Enforce the shares in the simulator and measure per-app IPC.
    let shares = allocation.shares(&capacity);
    let cache_shares: Vec<f64> = shares.iter().map(|s| s[1]).collect();
    let bw_shares: Vec<f64> = shares.iter().map(|s| s[0]).collect();
    let deps: Vec<f64> = names
        .iter()
        .map(|n| by_name(n).expect("known").params.dependent_fraction)
        .collect();
    // The shared machine the allocation was computed for: 24 GB/s, 12 MB.
    let platform = PlatformConfig::asplos14()
        .with_l2_size(ref_fairness::sim::config::CacheSize::from_mib(12))
        .with_bandwidth(ref_fairness::sim::config::Bandwidth::from_gb_per_sec(24.0));
    let mut system = MulticoreSystem::new(&platform, &cache_shares, &bw_shares)
        .with_dependent_load_fractions(deps);
    let streams: Vec<_> = names
        .iter()
        .map(|n| by_name(n).expect("known").stream(7))
        .collect();
    println!("\nenforcing shares in the simulator (way-partitioned L2, token-bucket DRAM):");
    let reports = system.run(streams, 150_000);
    for ((name, r), ways) in names.iter().zip(&reports).zip(system.allocated_ways()) {
        println!(
            "  {name:<12} {ways} L2 ways, IPC {:.3}, L2 hit rate {:.2}",
            r.ipc(),
            r.l2.hit_rate()
        );
    }
    Ok(())
}
