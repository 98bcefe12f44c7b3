//! The 25-configuration profiling sweep (§5.1 of the paper).
//!
//! Profiles a workload's IPC over the cross product of L2 capacities and
//! memory bandwidths from Table 1 (or a custom grid for the ablation
//! studies), producing the data from which `ref-core` fits Cobb-Douglas
//! utilities.

use ref_sim::config::{Bandwidth, CacheSize, PlatformConfig};
use ref_sim::system::SingleCoreSystem;

use crate::memo::{self, SimKey};
use crate::profiles::Benchmark;

/// IPC measured at one (cache size, bandwidth) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Allocated L2 capacity.
    pub cache: CacheSize,
    /// Allocated memory bandwidth.
    pub bandwidth: Bandwidth,
    /// Measured instructions per cycle.
    pub ipc: f64,
}

/// A workload's full profile over a configuration grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileGrid {
    /// Workload name.
    pub workload: String,
    /// One point per simulated configuration, in row-major
    /// (bandwidth-major) order.
    pub points: Vec<ProfilePoint>,
}

impl ProfileGrid {
    /// The IPC measured at the largest cache and highest bandwidth in the
    /// grid (the "whole machine" reference used for weighted utility).
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty.
    pub fn peak_ipc(&self) -> f64 {
        self.points
            .iter()
            .max_by(|a, b| {
                let ka = (a.cache.bytes(), a.bandwidth.bytes_per_sec());
                let kb = (b.cache.bytes(), b.bandwidth.bytes_per_sec());
                ka.partial_cmp(&kb).expect("finite bandwidths")
            })
            .expect("profile grid must not be empty")
            .ipc
    }

    /// Looks up the measured IPC at an exact grid configuration.
    #[cfg(test)]
    pub(crate) fn ipc_at(&self, cache: CacheSize, bandwidth: Bandwidth) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.cache == cache && p.bandwidth == bandwidth)
            .map(|p| p.ipc)
    }
}

/// Options controlling a profiling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerOptions {
    /// Warmup instructions per configuration (caches populate, timing
    /// discarded).
    pub warmup_instructions: u64,
    /// Measured instructions per configuration.
    pub instructions: u64,
    /// Workload seed (streams are deterministic per seed).
    pub seed: u64,
    /// Cache capacities to sweep.
    pub cache_sizes: Vec<CacheSize>,
    /// Bandwidths to sweep.
    pub bandwidths: Vec<Bandwidth>,
    /// The platform every grid point runs on, with the point's L2 size
    /// and bandwidth: the paper's Table 1 by default, another DRAM page
    /// policy or prefetcher in the ablations.
    pub platform: PlatformConfig,
    /// Worker threads for the sweep: `None` uses the global `ref-pool`
    /// width ([`ref_pool::threads`]), `Some(1)` forces a serial sweep.
    /// Results are bit-identical at every width — each grid point is an
    /// independent simulation placed by index.
    pub threads: Option<usize>,
    /// Consult the process-wide simulation memo before simulating a grid
    /// point. Disable for timing runs that need cold-path measurements.
    pub use_memo: bool,
}

impl Default for ProfilerOptions {
    /// The paper's 5 x 5 Table-1 grid at a profile length that keeps the
    /// full 28-benchmark sweep interactive.
    fn default() -> ProfilerOptions {
        ProfilerOptions {
            warmup_instructions: 100_000,
            instructions: 200_000,
            seed: 0xA5F0_5EED,
            cache_sizes: PlatformConfig::l2_sweep().to_vec(),
            bandwidths: PlatformConfig::bandwidth_sweep().to_vec(),
            platform: PlatformConfig::asplos14(),
            threads: None,
            use_memo: true,
        }
    }
}

/// Profiles one benchmark over the configured grid.
///
/// # Examples
///
/// ```
/// use ref_workloads::profiler::{profile, ProfilerOptions};
/// use ref_workloads::profiles::by_name;
///
/// let mut opts = ProfilerOptions::default();
/// opts.instructions = 5_000; // keep the doctest fast
/// let grid = profile(by_name("dedup").unwrap(), &opts);
/// assert_eq!(grid.points.len(), 25);
/// assert!(grid.peak_ipc() > 0.0);
/// ```
pub fn profile(benchmark: &Benchmark, opts: &ProfilerOptions) -> ProfileGrid {
    let base = opts.platform;
    // Warm the caches for a fixed number of *memory accesses*:
    // compute-heavy workloads touch memory rarely, so a fixed
    // instruction budget would leave their working sets cold and
    // bias the fit toward cold-miss bandwidth noise.
    let warmup = (opts.warmup_instructions as f64
        * (0.30 / benchmark.params.memory_fraction).max(1.0)) as u64;
    let n_cache = opts.cache_sizes.len();
    let simulate = |k: usize| {
        // Bandwidth-major flat index: matches the historical nested-loop
        // emission order, so a grid built at any thread count is
        // byte-identical to the serial one.
        let bandwidth = opts.bandwidths[k / n_cache];
        let cache = opts.cache_sizes[k % n_cache];
        let mut platform = base.with_l2_size(cache).with_bandwidth(bandwidth);
        // Dependence structure is a property of the workload's code,
        // not the platform.
        platform.core.dependent_load_fraction = benchmark.params.dependent_fraction;
        let run = || {
            let mut system = SingleCoreSystem::new(&platform);
            system
                .run_with_warmup(benchmark.stream(opts.seed), warmup, opts.instructions)
                .ipc()
        };
        let ipc = if opts.use_memo {
            let key = SimKey::new(
                benchmark.name,
                &benchmark.params,
                opts.seed,
                warmup,
                opts.instructions,
                &platform,
            );
            memo::ipc_or_insert_with(key, run)
        } else {
            run()
        };
        ProfilePoint {
            cache,
            bandwidth,
            ipc,
        }
    };
    let len = n_cache * opts.bandwidths.len();
    let points = match opts.threads {
        Some(n) => ref_pool::par_map_threads(len, n, simulate),
        None => ref_pool::par_map(len, simulate),
    };
    ProfileGrid {
        workload: benchmark.name.to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::by_name;

    fn quick_opts() -> ProfilerOptions {
        ProfilerOptions {
            warmup_instructions: 60_000,
            instructions: 60_000,
            ..ProfilerOptions::default()
        }
    }

    #[test]
    fn grid_covers_25_configurations() {
        let grid = profile(by_name("dedup").unwrap(), &quick_opts());
        assert_eq!(grid.points.len(), 25);
        assert!(grid.points.iter().all(|p| p.ipc > 0.0 && p.ipc <= 4.0));
    }

    #[test]
    fn peak_is_best_corner() {
        let grid = profile(by_name("histogram").unwrap(), &quick_opts());
        let corner = grid
            .ipc_at(CacheSize::from_mib(2), PlatformConfig::bandwidth_sweep()[4])
            .unwrap();
        assert_eq!(grid.peak_ipc(), corner);
    }

    #[test]
    fn cache_heavy_workload_gains_from_cache() {
        let grid = profile(by_name("raytrace").unwrap(), &quick_opts());
        let bw = PlatformConfig::bandwidth_sweep()[2];
        let small = grid.ipc_at(CacheSize::from_kib(128), bw).unwrap();
        let large = grid.ipc_at(CacheSize::from_mib(2), bw).unwrap();
        assert!(large > 1.2 * small, "large {large} small {small}");
    }

    #[test]
    fn bandwidth_heavy_workload_gains_from_bandwidth() {
        let grid = profile(by_name("ocean_cp").unwrap(), &quick_opts());
        let cache = CacheSize::from_kib(512);
        let slow = grid
            .ipc_at(cache, PlatformConfig::bandwidth_sweep()[0])
            .unwrap();
        let fast = grid
            .ipc_at(cache, PlatformConfig::bandwidth_sweep()[4])
            .unwrap();
        assert!(fast > 1.5 * slow, "fast {fast} slow {slow}");
    }

    #[test]
    fn profiling_is_deterministic() {
        let a = profile(by_name("fft").unwrap(), &quick_opts());
        let b = profile(by_name("fft").unwrap(), &quick_opts());
        assert_eq!(a, b);
    }

    #[test]
    fn custom_grid_sizes_respected() {
        let opts = ProfilerOptions {
            warmup_instructions: 0,
            instructions: 10_000,
            cache_sizes: vec![CacheSize::from_kib(128), CacheSize::from_mib(2)],
            bandwidths: vec![PlatformConfig::bandwidth_sweep()[0]],
            ..ProfilerOptions::default()
        };
        let grid = profile(by_name("fft").unwrap(), &opts);
        assert_eq!(grid.points.len(), 2);
        assert!(grid
            .ipc_at(CacheSize::from_mib(2), opts.bandwidths[0])
            .is_some());
    }
}
