//! The profile → fit pipeline shared by every figure.
//!
//! Conventions (matching the paper's §3 example):
//!
//! - resource 0 is memory bandwidth in GB/s, resource 1 is cache capacity
//!   in MB;
//! - an `N`-core system has capacity `(6 N GB/s, 3 N MB)` — the paper's
//!   quad-core example is 24 GB/s and 12 MB.

use std::collections::HashMap;

use ref_core::fitting::{fit_cobb_douglas, FitPoint};
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_workloads::profiler::{profile, ProfileGrid, ProfilerOptions};
use ref_workloads::profiles::Benchmark;
use ref_workloads::suite::WorkloadMix;

/// A workload with its fitted Cobb-Douglas utility and diagnostics.
#[derive(Debug, Clone)]
pub struct FittedWorkload {
    /// Benchmark name.
    pub name: String,
    /// Fitted (raw) utility.
    pub utility: CobbDouglas,
    /// Goodness of fit of the log-linear regression.
    pub r_squared: f64,
    /// The measured profile grid.
    pub grid: ProfileGrid,
    /// Model predictions at the grid points, in grid order.
    pub predictions: Vec<f64>,
}

impl FittedWorkload {
    /// Re-scaled elasticities `(alpha_mem, alpha_cache)` summing to one.
    pub fn rescaled_elasticities(&self) -> (f64, f64) {
        let r = self.utility.rescaled();
        (r.elasticity(0), r.elasticity(1))
    }

    /// `"C"` when cache elasticity dominates, `"M"` otherwise (§5.3).
    pub fn class(&self) -> &'static str {
        let (_, cache) = self.rescaled_elasticities();
        if cache > 0.5 {
            "C"
        } else {
            "M"
        }
    }
}

/// Fits a Cobb-Douglas utility to a measured profile grid, in the crate's
/// unit convention.
///
/// # Panics
///
/// Panics if fitting fails, which cannot happen for a full-rank grid of
/// positive IPCs such as every grid the profiler measures.
pub fn fit_grid(grid: ProfileGrid) -> FittedWorkload {
    let points: Vec<FitPoint> = grid
        .points
        .iter()
        .map(|p| {
            FitPoint::new(vec![p.bandwidth.gb_per_sec(), p.cache.mib_f64()], p.ipc)
                .expect("profiled IPC is positive")
        })
        .collect();
    let fit = fit_cobb_douglas(&points).expect("the profiled grid is full rank");
    FittedWorkload {
        name: grid.workload.clone(),
        utility: fit.utility().clone(),
        r_squared: fit.r_squared(),
        predictions: fit.predictions().to_vec(),
        grid,
    }
}

/// Profiles and fits one benchmark; panics where [`fit_grid`] does.
pub fn fit_benchmark(benchmark: &Benchmark, opts: &ProfilerOptions) -> FittedWorkload {
    fit_grid(profile(benchmark, opts))
}

/// Profiles and fits a set of benchmarks concurrently, one pool task per
/// benchmark. Each task's inner grid sweep runs serially (nested pool use
/// is inline), so parallelism comes from the benchmark fan-out without
/// oversubscribing. Output order matches input order and every fit is
/// bit-identical to [`fit_benchmark`] run serially.
pub fn fit_benchmarks(benchmarks: &[&Benchmark], opts: &ProfilerOptions) -> Vec<FittedWorkload> {
    ref_pool::par_map(benchmarks.len(), |i| fit_benchmark(benchmarks[i], opts))
}

/// Profiles and fits every member of a mix. Distinct members are fitted
/// concurrently; repeated members are fitted once and cloned.
pub fn fit_mix(mix: &WorkloadMix, opts: &ProfilerOptions) -> Vec<FittedWorkload> {
    let members = mix.benchmarks();
    let mut unique: Vec<&Benchmark> = Vec::new();
    for b in &members {
        if !unique.iter().any(|u| u.name == b.name) {
            unique.push(b);
        }
    }
    let fitted: HashMap<&str, FittedWorkload> = unique
        .iter()
        .map(|b| b.name)
        .zip(fit_benchmarks(&unique, opts))
        .collect();
    members
        .into_iter()
        .map(|b| fitted[b.name].clone())
        .collect()
}

/// Applies a `--jobs N` / `--jobs=N` / `-j N` command-line override of
/// the worker-pool width (0 or the flag's absence keeps the default:
/// `REF_THREADS`, then host parallelism) and returns the remaining
/// arguments, program name excluded.
///
/// # Panics
///
/// Panics with a usage message if the flag is present without a count.
pub fn init_jobs() -> Vec<String> {
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            let n = args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{arg} requires a thread count"));
            ref_pool::set_threads(n);
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            let n = v
                .parse()
                .unwrap_or_else(|_| panic!("--jobs= requires a thread count, got {v:?}"));
            ref_pool::set_threads(n);
        } else {
            rest.push(arg);
        }
    }
    rest
}

/// System capacity for an `N`-agent experiment: `(6 N GB/s, 3 N MB)`.
///
/// # Panics
///
/// Panics if `num_agents == 0`.
pub fn capacity_for_agents(num_agents: usize) -> Capacity {
    assert!(num_agents > 0, "need at least one agent");
    Capacity::new(vec![6.0 * num_agents as f64, 3.0 * num_agents as f64])
        .expect("positive capacities")
}

/// Profiler options for the figures: the paper's grid at a length that
/// keeps a full figure run under a minute.
pub fn experiment_options() -> ProfilerOptions {
    ProfilerOptions {
        warmup_instructions: 80_000,
        instructions: 150_000,
        ..ProfilerOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ref_workloads::profiles::by_name;
    use ref_workloads::suite::four_core_mixes;

    fn quick() -> ProfilerOptions {
        ProfilerOptions {
            warmup_instructions: 30_000,
            instructions: 40_000,
            ..ProfilerOptions::default()
        }
    }

    #[test]
    fn fit_benchmark_produces_sane_fit() {
        let f = fit_benchmark(by_name("dedup").unwrap(), &quick());
        assert_eq!(f.name, "dedup");
        assert!(f.r_squared > 0.5);
        assert_eq!(f.class(), "M");
        assert_eq!(f.predictions.len(), 25);
    }

    #[test]
    fn fit_mix_covers_members() {
        let mix = &four_core_mixes()[0];
        let fits = fit_mix(mix, &quick());
        assert_eq!(fits.len(), 4);
        assert_eq!(fits[0].name, "histogram");
    }

    #[test]
    fn capacity_convention_matches_paper_example() {
        let c = capacity_for_agents(4);
        assert_eq!(c.as_slice(), &[24.0, 12.0]);
        let c8 = capacity_for_agents(8);
        assert_eq!(c8.as_slice(), &[48.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "at least one agent")]
    fn zero_agents_panics() {
        let _ = capacity_for_agents(0);
    }
}
