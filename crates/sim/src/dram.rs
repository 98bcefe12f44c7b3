//! Single-channel DRAM timing with bank structure and per-agent bandwidth
//! shares.
//!
//! The model captures what the REF fitting pipeline observes: a closed-page
//! access latency, bank occupancy that limits per-bank throughput, and a
//! per-agent token bucket that enforces the allocated share of channel
//! bandwidth (the paper assumes shares are enforceable by known schedulers
//! such as weighted fair queueing; `ref-sched` implements those).
//!
//! Simplifications relative to DRAMSim2, documented in `DESIGN.md`:
//! requests are serviced in arrival order per bank (rank-then-bank
//! round-robin emerges from bank interleaving rather than an explicit
//! scheduler queue). The paper's Table-1 controller is closed-page, so row
//! hits never occur in the reproduction configuration; an open-page mode
//! with row-buffer tracking is available for the `ablation_page_policy`
//! study ([`PagePolicy`]).

use crate::config::{DramConfig, PagePolicy};

/// Per-agent bandwidth regulator (token bucket over 64-byte bursts).
#[derive(Debug, Clone)]
struct AgentPort {
    /// Earliest cycle at which the next burst may start, as enforced by the
    /// agent's bandwidth share.
    next_token: f64,
    /// Cycles between bursts at the allocated bandwidth.
    cycles_per_burst: f64,
    /// Requests issued by this agent.
    requests: u64,
}

/// Counters describing DRAM activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total requests serviced.
    pub requests: u64,
    /// Sum over requests of (completion - arrival), in cycles.
    pub total_latency_cycles: u64,
    /// Requests that hit an open row (always zero under the closed-page
    /// policy).
    pub row_hits: u64,
}

/// A single-channel DRAM with banks and per-agent bandwidth shares.
///
/// # Examples
///
/// ```
/// use ref_sim::config::PlatformConfig;
/// use ref_sim::dram::Dram;
///
/// let p = PlatformConfig::asplos14();
/// let mut d = Dram::new(&p.dram, p.core.clock_hz, &[1.0]);
/// let done = d.access(0, 0x1000, 0);
/// assert!(done >= p.dram.access_latency_cycles);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    access_latency: u64,
    bank_occupancy: u64,
    /// `log2(burst bytes)`: bank striping by shift instead of division.
    burst_shift: u32,
    /// `bank count - 1` when the bank count is a power of two; `None`
    /// falls back to modulo on the request path.
    bank_mask: Option<u64>,
    page_policy: PagePolicy,
    row_hit_latency: u64,
    row_bytes: u64,
    /// `log2(row_bytes)` when the row size is a power of two.
    row_shift: Option<u32>,
    /// Cycle at which each bank becomes free, indexed `rank * banks + bank`.
    /// Allocated once at construction; the request path never allocates.
    bank_free: Vec<u64>,
    /// Open row per bank (`u64::MAX` = closed), only used under
    /// [`PagePolicy::OpenPage`].
    open_rows: Vec<u64>,
    ports: Vec<AgentPort>,
    stats: DramStats,
}

impl Dram {
    /// Creates a channel shared by agents with the given bandwidth shares.
    ///
    /// Each share is a fraction of the channel's peak bandwidth; shares must
    /// be positive and sum to at most 1 (small slack is allowed for
    /// round-off).
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty, any share is non-positive, or the sum
    /// exceeds `1 + 1e-9`.
    pub fn new(cfg: &DramConfig, clock_hz: f64, shares: &[f64]) -> Dram {
        assert!(!shares.is_empty(), "need at least one agent");
        assert!(
            shares.iter().all(|s| s.is_finite() && *s > 0.0),
            "bandwidth shares must be positive"
        );
        let total: f64 = shares.iter().sum();
        assert!(
            total <= 1.0 + 1e-9,
            "bandwidth shares sum to {total}, exceeding channel capacity"
        );
        let burst_bytes = 64_u64;
        let bytes_per_cycle = cfg.bandwidth.bytes_per_cycle(clock_hz);
        let ports = shares
            .iter()
            .map(|share| AgentPort {
                next_token: 0.0,
                cycles_per_burst: burst_bytes as f64 / (share * bytes_per_cycle),
                requests: 0,
            })
            .collect();
        let nbanks = cfg.ranks * cfg.banks_per_rank;
        Dram {
            access_latency: cfg.access_latency_cycles,
            bank_occupancy: cfg.bank_occupancy_cycles,
            burst_shift: burst_bytes.trailing_zeros(),
            bank_mask: (nbanks as u64).is_power_of_two().then(|| nbanks as u64 - 1),
            page_policy: cfg.page_policy,
            row_hit_latency: cfg.row_hit_latency_cycles,
            row_bytes: cfg.row_bytes,
            row_shift: cfg
                .row_bytes
                .is_power_of_two()
                .then(|| cfg.row_bytes.trailing_zeros()),
            bank_free: vec![0; nbanks],
            open_rows: vec![u64::MAX; nbanks],
            ports,
            stats: DramStats::default(),
        }
    }

    /// Creates a channel dedicated to a single agent at full bandwidth.
    pub(crate) fn single_agent(cfg: &DramConfig, clock_hz: f64) -> Dram {
        Dram::new(cfg, clock_hz, &[1.0])
    }

    /// Services a 64-byte read for `agent` arriving at cycle `now`; returns
    /// the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn access(&mut self, agent: usize, addr: u64, now: u64) -> u64 {
        assert!(agent < self.ports.len(), "agent {agent} out of range");
        // Bank interleave on block address bits (rank-then-bank striping),
        // by shift/mask when the geometry is a power of two.
        let block = addr >> self.burst_shift;
        let bank = match self.bank_mask {
            Some(mask) => (block & mask) as usize,
            None => (block % self.bank_free.len() as u64) as usize,
        };
        let latency = match self.page_policy {
            PagePolicy::ClosedPage => self.access_latency,
            PagePolicy::OpenPage => {
                // The row id is only needed here, off the closed-page
                // (Table-1) hot path.
                let row = match self.row_shift {
                    Some(shift) => addr >> shift,
                    None => addr / self.row_bytes,
                };
                if self.open_rows[bank] == row {
                    self.stats.row_hits = self.stats.row_hits.saturating_add(1);
                    self.row_hit_latency
                } else {
                    self.open_rows[bank] = row;
                    self.access_latency
                }
            }
        };
        let port = &mut self.ports[agent];
        let token_ready = port.next_token.max(now as f64);
        let token_cycle = token_ready.ceil() as u64;
        let start = token_cycle.max(self.bank_free[bank]);
        let completion = start + latency;
        self.bank_free[bank] = start + self.bank_occupancy.min(latency);
        // A burst the token gated spaces the next one from the token time,
        // not from the whole cycle it was rounded up to: the bucket keeps
        // its fractional credit, so a backlogged agent gets its share.
        let paced_from = if start == token_cycle {
            token_ready
        } else {
            start as f64
        };
        port.next_token = paced_from + port.cycles_per_burst;
        port.requests = port.requests.saturating_add(1);
        self.stats.requests = self.stats.requests.saturating_add(1);
        self.stats.total_latency_cycles = self
            .stats
            .total_latency_cycles
            .saturating_add(completion.saturating_sub(now));
        completion
    }

    /// Requests issued by one agent so far.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn agent_requests(&self, agent: usize) -> u64 {
        self.ports[agent].requests
    }

    /// Accumulated channel statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bandwidth, PlatformConfig};

    fn dram_with_bw(gb: f64, shares: &[f64]) -> Dram {
        let p = PlatformConfig::asplos14().with_bandwidth(Bandwidth::from_gb_per_sec(gb));
        Dram::new(&p.dram, p.core.clock_hz, shares)
    }

    #[test]
    fn isolated_access_pays_access_latency() {
        let mut d = dram_with_bw(12.8, &[1.0]);
        let done = d.access(0, 0, 1000);
        assert_eq!(done, 1000 + 126);
        assert_eq!(d.stats().requests, 1);
    }

    #[test]
    fn token_bucket_limits_throughput() {
        // 0.8 GB/s at 3 GHz = 0.2667 B/cycle; 64-byte bursts every 240
        // cycles. Issue 100 back-to-back requests at distinct banks and
        // check the finish time is bandwidth-limited, not bank-limited.
        let mut d = dram_with_bw(0.8, &[1.0]);
        let mut last = 0;
        for i in 0..100_u64 {
            last = d.access(0, i * 64, 0);
        }
        // 100 bursts at 240 cycles/burst = 24000 cycles of token delay.
        assert!(last >= 99 * 240, "finished too early: {last}");
        assert!(last <= 100 * 240 + 126 + 45, "finished too late: {last}");
    }

    #[test]
    fn higher_bandwidth_finishes_sooner() {
        let run = |gb: f64| {
            let mut d = dram_with_bw(gb, &[1.0]);
            let mut last = 0;
            for i in 0..200_u64 {
                last = d.access(0, i * 64, 0);
            }
            last
        };
        let slow = run(0.8);
        let fast = run(12.8);
        assert!(fast < slow / 4, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut d = dram_with_bw(12.8, &[1.0]);
        // Same bank: second access must wait for bank occupancy.
        let first = d.access(0, 0, 0);
        let nbanks = 16_u64;
        let second = d.access(0, nbanks * 64, 0);
        assert!(second > first - 126 + 45, "second {second} first {first}");
        // Different bank at high bandwidth: only token spacing applies.
        let mut d2 = dram_with_bw(12.8, &[1.0]);
        let a = d2.access(0, 0, 0);
        let b = d2.access(0, 64, 0);
        assert!(b - a < 45, "different banks should overlap: {a} {b}");
    }

    #[test]
    fn shares_throttle_each_agent() {
        // Two agents, 25% / 75% of 12.8 GB/s, on disjoint banks (even vs
        // odd) so only the token buckets limit progress. Compare the
        // completion of each agent's 50th request.
        let mut d = dram_with_bw(12.8, &[0.25, 0.75]);
        let mut done = [0_u64; 2];
        for i in 0..50_u64 {
            done[0] = d.access(0, (2 * i) * 64, 0);
            done[1] = d.access(1, (2 * i + 1) * 64, 0);
        }
        // Agent 0 gets 3.2 GB/s -> 60 cycles/burst; agent 1 gets 9.6 GB/s
        // -> 20 cycles/burst.
        assert!(done[0] > 2 * done[1], "{done:?}");
        assert_eq!(d.agent_requests(0), 50);
        assert_eq!(d.agent_requests(1), 50);
    }

    #[test]
    fn open_page_rewards_row_locality() {
        use crate::config::PagePolicy;
        let p = PlatformConfig::asplos14().with_page_policy(PagePolicy::OpenPage);
        let mut d = Dram::new(&p.dram, p.core.clock_hz, &[1.0]);
        // Two sequential bursts in the same row and bank (rows span 2 KiB
        // = 32 blocks; blocks 0 and 16 share bank 0 of 16 banks).
        let a = d.access(0, 0, 0);
        let b = d.access(0, 16 * 64, a);
        assert_eq!(a, 126, "first access opens the row");
        assert_eq!(b - a, 42, "second access is a row hit");
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn closed_page_never_counts_row_hits() {
        let mut d = dram_with_bw(12.8, &[1.0]);
        for i in 0..10 {
            let _ = d.access(0, i % 2 * 64, i);
        }
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn open_page_row_conflict_pays_full_latency() {
        use crate::config::PagePolicy;
        let p = PlatformConfig::asplos14().with_page_policy(PagePolicy::OpenPage);
        let mut d = Dram::new(&p.dram, p.core.clock_hz, &[1.0]);
        let a = d.access(0, 0, 0); // opens row 0 in bank 0
                                   // Block 1024 blocks later: same bank (1024 % 16 == 0), row 32.
        let b = d.access(0, 1024 * 64, a);
        assert_eq!(b - a, 126, "row conflict re-opens");
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    #[should_panic(expected = "exceeding channel capacity")]
    fn rejects_oversubscribed_shares() {
        let _ = dram_with_bw(12.8, &[0.7, 0.7]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_share() {
        let _ = dram_with_bw(12.8, &[0.0, 0.5]);
    }
}
