//! Whole-system compositions: single-core profiling runs and multi-core
//! partitioned runs.
//!
//! [`SingleCoreSystem`] is what the profiling sweep uses: one core with the
//! full L2 of a given capacity and the full channel bandwidth, replaying a
//! workload trace and reporting IPC. [`MulticoreSystem`] enforces a REF
//! allocation in the simulator: each agent receives a way-partitioned slice
//! of the shared L2 and a token-bucket share of DRAM bandwidth, and the
//! per-agent IPC can be compared against the fitted utility's prediction.

use crate::cache::{partition_ways, SetAssociativeCache};
use crate::config::PlatformConfig;
use crate::core::{Core, SimReport};
use crate::dram::Dram;
use crate::trace::Op;

/// One core, one L2, one DRAM channel at full bandwidth.
///
/// # Examples
///
/// ```
/// use ref_sim::config::PlatformConfig;
/// use ref_sim::system::SingleCoreSystem;
/// use ref_sim::trace::Op;
///
/// let mut sys = SingleCoreSystem::new(&PlatformConfig::asplos14());
/// let trace = (0..1000u64).map(|i| Op::Load(i * 64));
/// let report = sys.run(trace, 1000);
/// assert_eq!(report.instructions, 1000);
/// assert!(report.ipc() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SingleCoreSystem {
    platform: PlatformConfig,
}

impl SingleCoreSystem {
    /// Creates a system from platform parameters.
    pub fn new(platform: &PlatformConfig) -> SingleCoreSystem {
        SingleCoreSystem {
            platform: *platform,
        }
    }

    /// Replays up to `max_instructions` from `stream` and reports timing.
    ///
    /// Each call simulates from cold caches, so repeated runs are
    /// independent and deterministic.
    pub fn run<S: Iterator<Item = Op>>(&mut self, stream: S, max_instructions: u64) -> SimReport {
        self.run_with_warmup(stream, 0, max_instructions)
    }

    /// Replays `warmup` instructions to populate the caches, then measures
    /// the following `measured` instructions.
    ///
    /// Discarding the cold-start transient matters for workloads whose
    /// working set is comparable to the measurement length; the paper's
    /// region-of-interest methodology has the same purpose.
    pub fn run_with_warmup<S: Iterator<Item = Op>>(
        &mut self,
        stream: S,
        warmup: u64,
        measured: u64,
    ) -> SimReport {
        let mut core = Core::new(
            &self.platform,
            SetAssociativeCache::from_config(&self.platform.l2),
        );
        let mut dram = Dram::single_agent(&self.platform.dram, self.platform.core.clock_hz);
        let mut stream = stream;
        for op in stream.by_ref().take(warmup as usize) {
            core.step(op, &mut dram, 0);
        }
        let baseline = core.report();
        for op in stream.take(measured as usize) {
            core.step(op, &mut dram, 0);
        }
        core.finish().since(&baseline)
    }
}

/// N cores sharing a way-partitioned L2 and a bandwidth-partitioned DRAM
/// channel.
#[derive(Debug)]
pub struct MulticoreSystem {
    platform: PlatformConfig,
    cache_shares: Vec<f64>,
    bandwidth_shares: Vec<f64>,
    dependent_load_fractions: Option<Vec<f64>>,
}

impl MulticoreSystem {
    /// Creates a partitioned system.
    ///
    /// `cache_shares` and `bandwidth_shares` are each agent's fraction of
    /// the L2 capacity and channel bandwidth. Cache shares are rounded to
    /// whole ways with at least one way per agent
    /// ([`partition_ways`]); bandwidth shares are enforced exactly by the
    /// DRAM token buckets.
    ///
    /// # Panics
    ///
    /// Panics if the share vectors have different lengths or are empty, if
    /// bandwidth shares are non-positive or sum above 1, or if there are
    /// more agents than L2 ways.
    pub fn new(
        platform: &PlatformConfig,
        cache_shares: &[f64],
        bandwidth_shares: &[f64],
    ) -> MulticoreSystem {
        assert_eq!(
            cache_shares.len(),
            bandwidth_shares.len(),
            "one cache share and one bandwidth share per agent"
        );
        assert!(!cache_shares.is_empty(), "need at least one agent");
        MulticoreSystem {
            platform: *platform,
            cache_shares: cache_shares.to_vec(),
            bandwidth_shares: bandwidth_shares.to_vec(),
            dependent_load_fractions: None,
        }
    }

    /// Overrides the dependent-load fraction per agent (a property of each
    /// agent's code rather than of the platform).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the number of agents.
    pub fn with_dependent_load_fractions(mut self, fractions: Vec<f64>) -> MulticoreSystem {
        assert_eq!(
            fractions.len(),
            self.num_agents(),
            "one dependence fraction per agent"
        );
        self.dependent_load_fractions = Some(fractions);
        self
    }

    /// Number of agents.
    pub(crate) fn num_agents(&self) -> usize {
        self.cache_shares.len()
    }

    /// The way counts each agent receives after rounding.
    pub fn allocated_ways(&self) -> Vec<usize> {
        partition_ways(self.platform.l2.ways, &self.cache_shares)
    }

    /// Runs every agent for `instructions_per_agent` and reports per-agent
    /// timing.
    ///
    /// Agents are interleaved in simulated-time order (the agent with the
    /// smallest core clock steps next), so DRAM requests arrive in roughly
    /// global time order and a stalled agent cannot reserve banks at
    /// far-future times ahead of faster agents.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len()` differs from the number of agents.
    pub fn run<S: Iterator<Item = Op>>(
        &mut self,
        streams: Vec<S>,
        instructions_per_agent: u64,
    ) -> Vec<SimReport> {
        assert_eq!(
            streams.len(),
            self.num_agents(),
            "one instruction stream per agent"
        );
        let ways = self.allocated_ways();
        let sets = self.platform.l2.sets();
        let block = self.platform.l2.block_bytes;
        let mut cores: Vec<Core> = ways
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut platform = self.platform;
                if let Some(fracs) = &self.dependent_load_fractions {
                    platform.core.dependent_load_fraction = fracs[i];
                }
                Core::new(&platform, SetAssociativeCache::new(sets, w, block))
            })
            .collect();
        let mut dram = Dram::new(
            &self.platform.dram,
            self.platform.core.clock_hz,
            &self.bandwidth_shares,
        );
        let mut streams: Vec<S> = streams;
        let mut remaining = vec![instructions_per_agent; cores.len()];
        loop {
            let next = (0..cores.len())
                .filter(|&a| remaining[a] > 0)
                .min_by(|&a, &b| {
                    cores[a]
                        .now()
                        .partial_cmp(&cores[b].now())
                        .expect("core clocks are finite")
                });
            let Some(agent) = next else { break };
            match streams[agent].next() {
                Some(op) => {
                    cores[agent].step(op, &mut dram, agent);
                    remaining[agent] -= 1;
                }
                None => remaining[agent] = 0,
            }
        }
        cores.iter_mut().map(|c| c.finish()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, CacheSize};

    fn strided(seed: u64) -> impl Iterator<Item = Op> {
        (0..u64::MAX).map(move |i| Op::Load((seed + i) * 64))
    }

    fn looping(working_set_blocks: u64) -> impl Iterator<Item = Op> {
        (0..u64::MAX).map(move |i| Op::Load((i % working_set_blocks) * 64))
    }

    #[test]
    fn single_core_deterministic() {
        let p = PlatformConfig::asplos14();
        let mut sys = SingleCoreSystem::new(&p);
        let a = sys.run(strided(0), 10_000);
        let b = sys.run(strided(0), 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn single_core_counts_instructions() {
        let p = PlatformConfig::asplos14();
        let mut sys = SingleCoreSystem::new(&p);
        let r = sys.run(strided(0), 5_000);
        assert_eq!(r.instructions, 5_000);
        assert!(r.cycles > 0.0);
    }

    #[test]
    fn single_core_honors_short_stream() {
        let p = PlatformConfig::asplos14();
        let mut sys = SingleCoreSystem::new(&p);
        let r = sys.run(strided(0).take(100), 5_000);
        assert_eq!(r.instructions, 100);
    }

    #[test]
    fn multicore_partitions_ways() {
        let p = PlatformConfig::asplos14();
        let sys = MulticoreSystem::new(&p, &[0.75, 0.25], &[0.5, 0.5]);
        assert_eq!(sys.allocated_ways(), vec![6, 2]);
        assert_eq!(sys.num_agents(), 2);
    }

    #[test]
    fn bandwidth_share_shapes_streaming_ipc() {
        // Two identical streaming agents with very different bandwidth
        // shares: the richer agent must achieve higher IPC.
        let p = PlatformConfig::asplos14()
            .with_bandwidth(Bandwidth::from_gb_per_sec(1.6))
            .with_l2_size(CacheSize::from_kib(256));
        let mut sys = MulticoreSystem::new(&p, &[0.5, 0.5], &[0.8, 0.2]);
        let reports = sys.run(vec![strided(0), strided(1 << 30)], 20_000);
        assert!(
            reports[0].ipc() > 1.5 * reports[1].ipc(),
            "rich {} poor {}",
            reports[0].ipc(),
            reports[1].ipc()
        );
    }

    #[test]
    fn cache_share_shapes_reuse_ipc() {
        // Two agents walking 512 KiB working sets; one gets 7/8 of a 1 MiB
        // L2 (fits), the other 1/8 (thrashes).
        let p = PlatformConfig::asplos14().with_bandwidth(Bandwidth::from_gb_per_sec(3.2));
        let blocks = 512 * 1024 / 64;
        let mut sys = MulticoreSystem::new(&p, &[0.875, 0.125], &[0.5, 0.5]);
        let reports = sys.run(vec![looping(blocks), looping(blocks)], 60_000);
        assert!(
            reports[0].ipc() > 1.3 * reports[1].ipc(),
            "big {} small {}",
            reports[0].ipc(),
            reports[1].ipc()
        );
        assert!(reports[0].l2.hit_rate() > reports[1].l2.hit_rate());
    }

    #[test]
    #[should_panic(expected = "one instruction stream per agent")]
    fn multicore_checks_stream_count() {
        let p = PlatformConfig::asplos14();
        let mut sys = MulticoreSystem::new(&p, &[0.5, 0.5], &[0.5, 0.5]);
        let _ = sys.run(vec![strided(0)], 10);
    }

    #[test]
    #[should_panic(expected = "one cache share")]
    fn multicore_checks_share_lengths() {
        let p = PlatformConfig::asplos14();
        let _ = MulticoreSystem::new(&p, &[0.5, 0.5], &[1.0]);
    }
}
