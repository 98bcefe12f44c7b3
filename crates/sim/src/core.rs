//! Out-of-order core timing model.
//!
//! A deliberately compact stand-in for a cycle-accurate OOO pipeline that
//! preserves the effects the REF fitting pipeline measures:
//!
//! - base throughput limited by issue width;
//! - L2 hits stalling only dependent consumers (independent loads are hidden
//!   by the out-of-order window);
//! - DRAM misses overlapping up to the MSHR count (memory-level
//!   parallelism), with dependent loads serializing on completion;
//! - DRAM completion times shaped by the bank structure and the agent's
//!   bandwidth share ([`crate::dram`]).
//!
//! Instructions per cycle (IPC) therefore rises with cache capacity (fewer
//! DRAM trips) and with bandwidth (earlier completions), with diminishing
//! returns in both — the Cobb-Douglas shape the paper fits.

use crate::cache::{AccessResult, CacheStats, SetAssociativeCache};
use crate::config::{CoreConfig, PlatformConfig};
use crate::dram::Dram;
use crate::trace::Op;

/// Timing and hit-rate outcome of a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: f64,
    /// L1 data cache counters.
    pub l1: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// DRAM requests issued by this core.
    pub dram_requests: u64,
    /// Prefetches issued (zero unless the next-line prefetcher is on).
    pub prefetches: u64,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions as f64 / self.cycles
        } else {
            0.0
        }
    }

    /// The interval report `self - earlier`, used to discard a warmup phase
    /// from the measurement.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not actually an earlier snapshot of the same
    /// run.
    pub(crate) fn since(&self, earlier: &SimReport) -> SimReport {
        assert!(
            self.instructions >= earlier.instructions && self.cycles >= earlier.cycles,
            "snapshot is not earlier than self"
        );
        SimReport {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            l1: self.l1.since(&earlier.l1),
            l2: self.l2.since(&earlier.l2),
            dram_requests: self.dram_requests - earlier.dram_requests,
            prefetches: self.prefetches - earlier.prefetches,
        }
    }
}

/// Outstanding-miss completion times, bounded by the MSHR count.
///
/// Replaces the previous `BinaryHeap<Reverse<u64>>`: the entry count is
/// tiny (Table 1 uses 8 MSHRs), so linear scans beat heap maintenance,
/// and the backing storage is allocated once per core — the per-access
/// path never touches the heap allocator.
#[derive(Debug, Clone)]
struct MissQueue {
    completions: Vec<u64>,
}

impl MissQueue {
    fn with_capacity(entries: usize) -> MissQueue {
        MissQueue {
            completions: Vec::with_capacity(entries),
        }
    }

    fn len(&self) -> usize {
        self.completions.len()
    }

    fn push(&mut self, completion: u64) {
        self.completions.push(completion);
    }

    /// Removes and returns the earliest completion.
    fn pop_earliest(&mut self) -> Option<u64> {
        let at = self
            .completions
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)?;
        Some(self.completions.swap_remove(at))
    }

    /// Drops every entry that completed at or before `now`.
    fn drain_completed(&mut self, now: u64) {
        self.completions.retain(|&t| t > now);
    }

    /// Empties the queue, returning the earliest completion: retirement
    /// resumes once the oldest MSHR frees, so `finish` waits only for
    /// that entry (the historical drain semantics; changing it would
    /// shift every calibrated IPC in EXPERIMENTS.md).
    fn drain_earliest(&mut self) -> Option<u64> {
        let earliest = self.completions.iter().copied().min();
        self.completions.clear();
        earliest
    }
}

/// One core with private L1 and (a partition of) L2, issuing to a shared
/// DRAM channel.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    cfg: CoreConfig,
    l1: SetAssociativeCache,
    l2: SetAssociativeCache,
    l2_latency_cycles: u64,
    now: f64,
    instructions: u64,
    dram_requests: u64,
    prefetches: u64,
    outstanding: MissQueue,
    rng: u64,
}

impl Core {
    /// Creates a core from the platform parameters with a private L1 and
    /// the supplied L2.
    ///
    /// The L2 passed here is this core's own partition when the physical L2
    /// is shared (way partitioning gives each agent a private slice; see
    /// [`crate::cache::partition_ways`]).
    pub(crate) fn new(platform: &PlatformConfig, l2: SetAssociativeCache) -> Core {
        Core {
            cfg: platform.core,
            l1: SetAssociativeCache::from_config(&platform.l1),
            l2,
            l2_latency_cycles: platform.l2.latency_cycles,
            now: 0.0,
            instructions: 0,
            dram_requests: 0,
            prefetches: 0,
            outstanding: MissQueue::with_capacity(platform.core.mshr_entries),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Retires one instruction, advancing the core clock.
    ///
    /// `agent` is this core's index on the shared DRAM channel.
    pub(crate) fn step(&mut self, op: Op, dram: &mut Dram, agent: usize) {
        self.instructions = self.instructions.saturating_add(1);
        self.now += 1.0 / f64::from(self.cfg.issue_width);
        let addr = match op.address() {
            Some(a) => a,
            None => return,
        };
        let is_write = matches!(op, Op::Store(_));
        if self.l1.access_rw(addr, is_write).result == AccessResult::Hit {
            // L1 hits are fully pipelined (L1 write-backs into the L2 are
            // below this model's resolution).
            return;
        }
        // Stores never stall the pipeline (the store buffer hides them);
        // loads stall when a dependent consumer follows.
        let dependent = !is_write && self.next_dependent();
        let l2 = self.l2.access_rw(addr, is_write);
        if l2.result == AccessResult::Hit {
            if dependent {
                self.now += self.l2_latency_cycles as f64;
            }
            return;
        }
        // L2 miss: issue to DRAM, bounded by MSHR occupancy.
        if self.outstanding.len() >= self.cfg.mshr_entries {
            if let Some(earliest) = self.outstanding.pop_earliest() {
                self.now = self.now.max(earliest as f64);
            }
        }
        let completion = dram.access(agent, addr, self.now.ceil() as u64);
        self.dram_requests = self.dram_requests.saturating_add(1);
        // A displaced dirty line consumes write bandwidth; the core never
        // waits on it.
        if let Some(wb_addr) = l2.writeback {
            let _ = dram.access(agent, wb_addr, self.now.ceil() as u64);
            self.dram_requests = self.dram_requests.saturating_add(1);
        }
        // Next-line prefetch: on a demand miss, pull the sequential
        // neighbor into the L2 if absent. The fetch consumes bandwidth but
        // never stalls the core.
        if self.cfg.next_line_prefetch {
            let next = addr + self.l2.block_bytes();
            let pf = self.l2.access_rw(next, false);
            if pf.result == AccessResult::Miss {
                let _ = dram.access(agent, next, self.now.ceil() as u64);
                self.dram_requests = self.dram_requests.saturating_add(1);
                self.prefetches = self.prefetches.saturating_add(1);
                if let Some(wb_addr) = pf.writeback {
                    let _ = dram.access(agent, wb_addr, self.now.ceil() as u64);
                    self.dram_requests = self.dram_requests.saturating_add(1);
                }
            }
        }
        if dependent {
            self.now = self.now.max(completion as f64);
            // A dependent miss drains naturally; drop completed entries.
            self.outstanding.drain_completed(self.now as u64);
        } else {
            self.outstanding.push(completion);
        }
    }

    /// Drains outstanding misses and returns the final report.
    pub(crate) fn finish(&mut self) -> SimReport {
        if let Some(earliest) = self.outstanding.drain_earliest() {
            self.now = self.now.max(earliest as f64);
        }
        self.report()
    }

    /// The report so far, without draining outstanding misses.
    pub(crate) fn report(&self) -> SimReport {
        SimReport {
            instructions: self.instructions,
            cycles: self.now,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            dram_requests: self.dram_requests,
            prefetches: self.prefetches,
        }
    }

    /// Current core clock in cycles.
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Deterministic pseudo-random dependence draw (xorshift64*).
    fn next_dependent(&mut self) -> bool {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let u = (self.rng >> 11) as f64 / (1_u64 << 53) as f64;
        u < self.cfg.dependent_load_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, PlatformConfig};

    fn fixture(gb: f64, l2_kib: u64) -> (Core, Dram) {
        let p = PlatformConfig::asplos14()
            .with_bandwidth(Bandwidth::from_gb_per_sec(gb))
            .with_l2_size(crate::config::CacheSize::from_kib(l2_kib));
        let core = Core::new(&p, SetAssociativeCache::from_config(&p.l2));
        let dram = Dram::single_agent(&p.dram, p.core.clock_hz);
        (core, dram)
    }

    #[test]
    fn compute_only_reaches_issue_width() {
        let (mut core, mut dram) = fixture(6.4, 1024);
        for _ in 0..10_000 {
            core.step(Op::Compute, &mut dram, 0);
        }
        let r = core.finish();
        assert!((r.ipc() - 4.0).abs() < 1e-9, "ipc {}", r.ipc());
        assert_eq!(r.dram_requests, 0);
    }

    #[test]
    fn l1_hits_are_free() {
        let (mut core, mut dram) = fixture(6.4, 1024);
        // Two hot blocks: after cold misses everything hits in L1.
        for i in 0..10_000_u64 {
            core.step(Op::Load((i % 2) * 64), &mut dram, 0);
        }
        let r = core.finish();
        assert!(r.ipc() > 3.5, "ipc {}", r.ipc());
        assert!(r.l1.hit_rate() > 0.999);
    }

    #[test]
    fn dram_bound_stream_is_slow() {
        let (mut core, mut dram) = fixture(0.8, 128);
        // Strided stream touching a new block every access: misses
        // everywhere.
        for i in 0..20_000_u64 {
            core.step(Op::Load(i * 64), &mut dram, 0);
        }
        let r = core.finish();
        assert!(r.ipc() < 0.5, "ipc {}", r.ipc());
        assert!(r.dram_requests > 19_000);
    }

    #[test]
    fn more_bandwidth_helps_streaming() {
        let ipc_at = |gb: f64| {
            let (mut core, mut dram) = fixture(gb, 128);
            for i in 0..20_000_u64 {
                core.step(Op::Load(i * 64), &mut dram, 0);
            }
            core.finish().ipc()
        };
        let slow = ipc_at(0.8);
        let fast = ipc_at(12.8);
        assert!(fast > 2.0 * slow, "fast {fast} slow {slow}");
    }

    #[test]
    fn more_cache_helps_reuse() {
        // Working set of 512 KiB, re-walked repeatedly: fits in 1 MiB L2
        // but thrashes a 128 KiB L2.
        let ipc_at = |l2_kib: u64| {
            let (mut core, mut dram) = fixture(1.6, l2_kib);
            let blocks = 512 * 1024 / 64;
            for rep in 0..6_u64 {
                for b in 0..blocks {
                    core.step(Op::Load(b * 64), &mut dram, 0);
                }
                let _ = rep;
            }
            core.finish().ipc()
        };
        let small = ipc_at(128);
        let large = ipc_at(1024);
        assert!(large > 1.5 * small, "large {large} small {small}");
    }

    #[test]
    fn prefetcher_turns_streaming_misses_into_hits() {
        let prefetch_ipc = |enabled: bool| {
            let p = PlatformConfig::asplos14()
                .with_bandwidth(crate::config::Bandwidth::from_gb_per_sec(12.8))
                .with_next_line_prefetch(enabled);
            let mut core = Core::new(&p, SetAssociativeCache::from_config(&p.l2));
            let mut dram = Dram::single_agent(&p.dram, p.core.clock_hz);
            for i in 0..20_000_u64 {
                core.step(Op::Load(i * 64), &mut dram, 0);
            }
            core.finish()
        };
        let off = prefetch_ipc(false);
        let on = prefetch_ipc(true);
        assert_eq!(off.prefetches, 0);
        assert!(on.prefetches > 9_000, "prefetches {}", on.prefetches);
        // Sequential stream with prefetch-on-miss: demands alternate
        // miss/hit and each prefetch probe is itself a recorded miss, so
        // exactly one access in three hits.
        assert!(
            (on.l2.hit_rate() - 1.0 / 3.0).abs() < 0.02,
            "hit rate {}",
            on.l2.hit_rate()
        );
        assert!(on.ipc() > off.ipc(), "on {} off {}", on.ipc(), off.ipc());
    }

    #[test]
    fn report_before_finish_has_outstanding() {
        let (mut core, mut dram) = fixture(6.4, 1024);
        core.step(Op::Load(1 << 20), &mut dram, 0);
        let early = core.report();
        let done = core.finish();
        assert!(done.cycles >= early.cycles);
        assert_eq!(done.instructions, 1);
    }

    #[test]
    fn ipc_zero_for_empty_run() {
        let (mut core, _dram) = fixture(6.4, 1024);
        assert_eq!(core.finish().ipc(), 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut core, mut dram) = fixture(3.2, 256);
            for i in 0..5_000_u64 {
                core.step(Op::Load((i * 8191) % (1 << 22)), &mut dram, 0);
            }
            core.finish().cycles
        };
        assert_eq!(run(), run());
    }
}
