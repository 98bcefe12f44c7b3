//! Property-based tests for the simulator substrate.

use std::collections::HashMap;

use proptest::prelude::*;
use ref_sim::cache::{partition_ways, AccessResult, SetAssociativeCache};
use ref_sim::config::{Bandwidth, PlatformConfig};
use ref_sim::dram::Dram;
use ref_sim::system::SingleCoreSystem;
use ref_sim::trace::Op;

fn addresses() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..(1 << 20), 1..300)
}

const BLOCK: u64 = 64;

/// The Table-1 platform at the `i`-th peak bandwidth of its sweep.
fn platform(i: usize) -> PlatformConfig {
    PlatformConfig::asplos14().with_bandwidth(PlatformConfig::bandwidth_sweep()[i])
}

fn peak_bytes_per_cycle(p: &PlatformConfig) -> f64 {
    p.dram.bandwidth.bytes_per_sec() / p.core.clock_hz
}

/// Addresses over 48 blocks, so that blocks recur at every reuse distance.
fn reusing_addresses() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((0u64..48, 0u64..BLOCK), 1..400).prop_map(|v| {
        v.into_iter()
            .map(|(block, byte)| block * BLOCK + byte)
            .collect()
    })
}

/// Per-set LRU stack distance of every access in `trace` (an agent and
/// an address each; agents share no blocks): how many distinct other
/// blocks of the same agent and set were touched since this block's last
/// touch, `usize::MAX` on its first touch (Mattson et al., 1970).
fn reuse_distances(sets: usize, trace: impl Iterator<Item = (usize, u64)>) -> Vec<usize> {
    let mut stacks: HashMap<(usize, u64), Vec<u64>> = HashMap::new();
    trace
        .map(|(agent, addr)| {
            let block = addr / BLOCK;
            let stack = stacks.entry((agent, block % sets as u64)).or_default();
            let depth = stack.iter().position(|&b| b == block);
            if let Some(d) = depth {
                stack.remove(d);
            }
            stack.insert(0, block);
            depth.unwrap_or(usize::MAX)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counter consistency on arbitrary streams.
    #[test]
    fn cache_stats_are_consistent(addrs in addresses()) {
        let mut c = SetAssociativeCache::new(16, 4, 64);
        for &a in &addrs {
            let _ = c.access(a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.hits <= s.accesses);
        prop_assert_eq!(s.misses(), s.accesses - s.hits);
        prop_assert!((0.0..=1.0).contains(&s.hit_rate()));
    }

    /// The most recently accessed block is always resident afterwards.
    #[test]
    fn last_access_is_resident(addrs in addresses()) {
        let mut c = SetAssociativeCache::new(8, 2, 64);
        for &a in &addrs {
            let _ = c.access(a);
            prop_assert!(c.probe(a), "block of {a} evicted immediately");
        }
    }

    /// Mattson's stack-distance oracle: at any set count, a `w`-way LRU
    /// cache misses exactly on the accesses whose per-set reuse distance
    /// is at least `w`, for every `w` in `1..=8`. (So a cache with more
    /// ways hits on a superset of the accesses.)
    #[test]
    fn lru_misses_exactly_at_reuse_distance_of_at_least_the_ways(
        sets in 1usize..=6,
        addrs in reusing_addresses(),
    ) {
        let distances = reuse_distances(sets, addrs.iter().map(|&a| (0, a)));
        for ways in 1..=8 {
            let mut cache = SetAssociativeCache::new(sets, ways, BLOCK);
            for (&a, &d) in addrs.iter().zip(&distances) {
                let miss = cache.access(a) == AccessResult::Miss;
                prop_assert_eq!(miss, d >= ways, "{} ways, address {}, distance {}", ways, a, d);
            }
        }
    }

    /// The same oracle on the private partitions a co-run builds: each
    /// agent's cache has the agent's `partition_ways` share of the ways
    /// over every set (as `MulticoreSystem::run` builds them), and misses
    /// exactly where that agent's own per-set reuse distance reaches it.
    #[test]
    fn partitioned_lru_misses_exactly_at_each_agents_reuse_distance(
        shares in prop::collection::vec(0.01..10.0f64, 1..5),
        extra in 0usize..12,
        trace in prop::collection::vec((0usize..4, 0u64..48, 0u64..BLOCK), 1..400),
    ) {
        let sets = 4;
        let ways = partition_ways(shares.len() + extra, &shares);
        let trace: Vec<(usize, u64)> = trace
            .into_iter()
            .map(|(agent, block, byte)| (agent % shares.len(), block * BLOCK + byte))
            .collect();
        let distances = reuse_distances(sets, trace.iter().copied());
        let mut caches: Vec<SetAssociativeCache> = ways
            .iter()
            .map(|&w| SetAssociativeCache::new(sets, w, BLOCK))
            .collect();
        for (&(agent, a), &d) in trace.iter().zip(&distances) {
            let miss = caches[agent].access(a) == AccessResult::Miss;
            prop_assert_eq!(miss, d >= ways[agent], "agent {} with {} ways", agent, ways[agent]);
        }
    }

    /// Way partitioning conserves ways and respects minimums.
    #[test]
    fn partition_ways_conserves(
        shares in prop::collection::vec(0.01..10.0f64, 1..8),
        extra in 0usize..16,
    ) {
        let total = shares.len() + extra;
        let ways = partition_ways(total, &shares);
        prop_assert_eq!(ways.iter().sum::<usize>(), total);
        prop_assert!(ways.iter().all(|&w| w >= 1));
    }

    /// Larger shares never receive fewer ways.
    #[test]
    fn partition_ways_is_monotone(a in 0.1..5.0f64, b in 0.1..5.0f64) {
        let ways = partition_ways(16, &[a, b]);
        if a > b {
            prop_assert!(ways[0] >= ways[1]);
        } else if b > a {
            prop_assert!(ways[1] >= ways[0]);
        }
    }

    /// DRAM completions never precede arrival plus the access latency, and
    /// per-agent counters add up.
    #[test]
    fn dram_completion_lower_bound(
        reqs in prop::collection::vec((0u64..1 << 16, 0u64..10_000), 1..100),
    ) {
        let p = PlatformConfig::asplos14();
        let mut d = Dram::new(&p.dram, p.core.clock_hz, &[0.5, 0.5]);
        let mut count = [0u64; 2];
        for (i, &(addr, now)) in reqs.iter().enumerate() {
            let agent = i % 2;
            let done = d.access(agent, addr * 64, now);
            count[agent] += 1;
            prop_assert!(done >= now + p.dram.access_latency_cycles);
        }
        prop_assert_eq!(d.agent_requests(0), count[0]);
        prop_assert_eq!(d.agent_requests(1), count[1]);
        prop_assert_eq!(d.stats().requests, reqs.len() as u64);
    }

    /// Token-bucket oracle: over any window between two of an agent's
    /// completions, the agent receives at most its share of the peak plus
    /// one burst plus one cycle (a burst starts on the whole cycle its
    /// token falls in), on any interleaving of agents, banks and arrival
    /// times.
    #[test]
    fn no_agent_exceeds_its_share_of_the_peak_plus_one_burst(
        weights in prop::collection::vec(0.05..1.0f64, 1..5),
        peak in 0usize..5,
        reqs in prop::collection::vec((0usize..4, 0u64..1 << 16, 0u64..400), 1..300),
    ) {
        let p = platform(peak);
        let total: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut d = Dram::new(&p.dram, p.core.clock_hz, &shares);
        let mut done: Vec<Vec<u64>> = vec![Vec::new(); shares.len()];
        let mut now = 0;
        for &(agent, block, gap) in &reqs {
            now += gap;
            let agent = agent % shares.len();
            done[agent].push(d.access(agent, block * BLOCK, now));
        }
        for (agent, times) in done.iter().enumerate() {
            let cycles_per_burst = BLOCK as f64 / (shares[agent] * peak_bytes_per_cycle(&p));
            for (i, &first) in times.iter().enumerate() {
                for (k, &last) in times[i..].iter().enumerate() {
                    // k + 1 bursts land in [first, last].
                    let allowed = (last - first + 1) as f64 / cycles_per_burst + 1.0;
                    prop_assert!(
                        (k + 1) as f64 <= allowed + 1e-9,
                        "agent {}: {} bursts in {} cycles",
                        agent,
                        k + 1,
                        last - first
                    );
                }
            }
        }
    }

    /// A lone agent streaming through consecutive blocks at share `s`
    /// reaches its share of the peak but for one cycle: the bucket paces
    /// tokens `c` cycles apart and keeps the fraction, and each burst
    /// starts on the whole cycle its token falls in, so `n` bursts after
    /// the first span at most `n c + 1` cycles (to the rounding of the
    /// token times' sum).
    #[test]
    fn a_lone_streaming_agent_reaches_its_share(percent in 5u32..101, peak in 0usize..5) {
        let share = f64::from(percent) / 100.0;
        let p = platform(peak);
        let mut d = Dram::new(&p.dram, p.core.clock_hz, &[share]);
        let bursts = 400_u64;
        let done: Vec<u64> = (0..bursts).map(|i| d.access(0, i * BLOCK, 0)).collect();
        let span = (done[done.len() - 1] - done[0]) as f64;
        let delivered = (bursts - 1) as f64 * BLOCK as f64 / span;
        let target = share * peak_bytes_per_cycle(&p);
        let paced = (bursts - 1) as f64 * BLOCK as f64 / target;
        prop_assert!(
            delivered >= target * paced / (paced + 1.0) * (1.0 - 1e-9),
            "delivered {} of {} bytes per cycle",
            delivered,
            target
        );
        prop_assert!(delivered <= target * (1.0 + 1e-9));
    }

    /// IPC is always within (0, issue width] for any nonempty run.
    #[test]
    fn ipc_bounds(seed in 0u64..1000) {
        let p = PlatformConfig::asplos14().with_bandwidth(Bandwidth::from_gb_per_sec(3.2));
        let mut sys = SingleCoreSystem::new(&p);
        let stream = (0..u64::MAX).map(move |i| {
            if (i + seed) % 3 == 0 {
                Op::Load(((i * 2654435761 + seed) % (1 << 22)) & !63)
            } else {
                Op::Compute
            }
        });
        let r = sys.run(stream, 5_000);
        prop_assert!(r.ipc() > 0.0);
        prop_assert!(r.ipc() <= f64::from(p.core.issue_width) + 1e-9);
        prop_assert_eq!(r.instructions, 5_000);
    }

    /// Warmup intervals compose: a run with warmup reports exactly the
    /// instructions of the measured interval.
    #[test]
    fn warmup_interval_accounting(warm in 0u64..3000, measured in 1u64..3000) {
        let p = PlatformConfig::asplos14();
        let mut sys = SingleCoreSystem::new(&p);
        let stream = (0..u64::MAX).map(|i| Op::Load((i * 64) % (1 << 20)));
        let r = sys.run_with_warmup(stream, warm, measured);
        prop_assert_eq!(r.instructions, measured);
        prop_assert!(r.cycles > 0.0);
    }
}
