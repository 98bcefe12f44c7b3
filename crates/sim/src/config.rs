//! Platform configuration mirroring Table 1 of the REF paper.
//!
//! The paper simulates 3 GHz out-of-order cores with a two-level cache
//! hierarchy and a single-channel DRAM system, sweeping five L2 capacities
//! and five memory bandwidths (25 architectures). [`PlatformConfig::asplos14`]
//! reproduces those parameters; the sweep grids are exposed as
//! [`PlatformConfig::l2_sweep`] and [`PlatformConfig::bandwidth_sweep`].

use std::fmt;

/// A cache capacity in bytes.
///
/// # Examples
///
/// ```
/// use ref_sim::config::CacheSize;
///
/// let c = CacheSize::from_kib(512);
/// assert_eq!(c.bytes(), 512 * 1024);
/// assert_eq!(c.to_string(), "512 KiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheSize(u64);

impl CacheSize {
    /// Creates a capacity from raw bytes.
    pub fn from_bytes(bytes: u64) -> CacheSize {
        CacheSize(bytes)
    }

    /// Creates a capacity from KiB.
    pub fn from_kib(kib: u64) -> CacheSize {
        CacheSize(kib * 1024)
    }

    /// Creates a capacity from MiB.
    pub fn from_mib(mib: u64) -> CacheSize {
        CacheSize(mib * 1024 * 1024)
    }

    /// The capacity in bytes.
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// The capacity in MiB as a float (used when fitting utilities).
    pub fn mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for CacheSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{} MiB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{} KiB", self.0 / 1024)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// An off-chip memory bandwidth in bytes per second.
///
/// # Examples
///
/// ```
/// use ref_sim::config::Bandwidth;
///
/// let b = Bandwidth::from_gb_per_sec(3.2);
/// assert!((b.gb_per_sec() - 3.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from GB/s (decimal gigabytes).
    ///
    /// # Panics
    ///
    /// Panics if `gb` is not strictly positive and finite.
    pub fn from_gb_per_sec(gb: f64) -> Bandwidth {
        assert!(
            gb > 0.0 && gb.is_finite(),
            "bandwidth must be positive and finite, got {gb}"
        );
        Bandwidth(gb * 1e9)
    }

    /// Bandwidth in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Bandwidth in GB/s.
    pub fn gb_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// Bytes transferred per core cycle at the given clock.
    pub(crate) fn bytes_per_cycle(self, clock_hz: f64) -> f64 {
        self.0 / clock_hz
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} GB/s", self.gb_per_sec())
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity.
    pub size: CacheSize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
    /// Access latency in core cycles.
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/block, or capacity
    /// smaller than one way of blocks).
    pub(crate) fn sets(&self) -> usize {
        assert!(self.ways > 0 && self.block_bytes > 0, "degenerate geometry");
        let sets = self.size.bytes() / (self.ways as u64 * self.block_bytes);
        assert!(
            sets > 0,
            "capacity {} too small for {} ways of {}-byte blocks",
            self.size,
            self.ways,
            self.block_bytes
        );
        sets as usize
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Precharge after every access (the paper's Table-1 controller).
    /// Every access pays the full activate + CAS + precharge latency.
    ClosedPage,
    /// Leave the row open; accesses hitting the open row pay only the CAS
    /// latency. Used by the `ablation_page_policy` study.
    OpenPage,
}

/// DRAM timing and organization (single channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Peak channel bandwidth.
    pub bandwidth: Bandwidth,
    /// Number of ranks on the channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Full access latency (activate + CAS + precharge) in core cycles.
    pub access_latency_cycles: u64,
    /// Cycles a bank stays busy per access (row cycle time).
    pub bank_occupancy_cycles: u64,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// CAS-only latency for open-page row hits, in core cycles.
    pub row_hit_latency_cycles: u64,
    /// Row size in bytes (for open-page row-hit detection).
    pub row_bytes: u64,
}

/// Core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Issue/commit width in instructions per cycle.
    pub issue_width: u32,
    /// Miss-status-holding registers: maximum overlapping DRAM misses.
    pub mshr_entries: usize,
    /// Fraction of loads whose consumers stall the pipeline until data
    /// returns (models dependence chains; the remainder overlap fully).
    pub dependent_load_fraction: f64,
    /// Whether the L2 prefetches the next sequential block on every miss.
    /// Off in the Table-1 reproduction configuration; used by the
    /// `ablation_prefetcher` study.
    pub next_line_prefetch: bool,
}

/// Full single-channel platform: core, L1, L2, DRAM.
///
/// # Examples
///
/// ```
/// use ref_sim::config::PlatformConfig;
///
/// let p = PlatformConfig::asplos14();
/// assert_eq!(p.l1.ways, 4);
/// assert_eq!(PlatformConfig::l2_sweep().len(), 5);
/// assert_eq!(PlatformConfig::bandwidth_sweep().len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 (last-level) cache.
    pub l2: CacheConfig,
    /// DRAM channel.
    pub dram: DramConfig,
}

impl PlatformConfig {
    /// The Table-1 platform: 3 GHz 4-wide OOO core, 32 KB 4-way L1 (2-cycle),
    /// 8-way 64-byte-block L2 (20-cycle) and a single-channel closed-page
    /// DRAM system. The L2 size defaults to 1 MiB and bandwidth to 6.4 GB/s
    /// (middle of the sweep); override with [`with_l2_size`] and
    /// [`with_bandwidth`].
    ///
    /// [`with_l2_size`]: PlatformConfig::with_l2_size
    /// [`with_bandwidth`]: PlatformConfig::with_bandwidth
    pub fn asplos14() -> PlatformConfig {
        PlatformConfig {
            core: CoreConfig {
                clock_hz: 3.0e9,
                issue_width: 4,
                mshr_entries: 8,
                dependent_load_fraction: 0.35,
                next_line_prefetch: false,
            },
            l1: CacheConfig {
                size: CacheSize::from_kib(32),
                ways: 4,
                block_bytes: 64,
                latency_cycles: 2,
            },
            l2: CacheConfig {
                size: CacheSize::from_mib(1),
                ways: 8,
                block_bytes: 64,
                latency_cycles: 20,
            },
            dram: DramConfig {
                bandwidth: Bandwidth::from_gb_per_sec(6.4),
                ranks: 2,
                banks_per_rank: 8,
                // ~42 ns activate+CAS+precharge at 3 GHz.
                access_latency_cycles: 126,
                // ~15 ns row cycle residue per bank.
                bank_occupancy_cycles: 45,
                page_policy: PagePolicy::ClosedPage,
                // ~14 ns CAS at 3 GHz.
                row_hit_latency_cycles: 42,
                row_bytes: 2048,
            },
        }
    }

    /// Returns a copy with the L2 capacity replaced.
    pub fn with_l2_size(mut self, size: CacheSize) -> PlatformConfig {
        self.l2.size = size;
        self
    }

    /// Returns a copy with the DRAM bandwidth replaced.
    pub fn with_bandwidth(mut self, bandwidth: Bandwidth) -> PlatformConfig {
        self.dram.bandwidth = bandwidth;
        self
    }

    /// Returns a copy with the DRAM page policy replaced.
    pub fn with_page_policy(mut self, policy: PagePolicy) -> PlatformConfig {
        self.dram.page_policy = policy;
        self
    }

    /// Returns a copy with the next-line prefetcher toggled.
    pub fn with_next_line_prefetch(mut self, enabled: bool) -> PlatformConfig {
        self.core.next_line_prefetch = enabled;
        self
    }

    /// The five L2 capacities of Table 1: 128 KB to 2 MB.
    pub fn l2_sweep() -> [CacheSize; 5] {
        [
            CacheSize::from_kib(128),
            CacheSize::from_kib(256),
            CacheSize::from_kib(512),
            CacheSize::from_mib(1),
            CacheSize::from_mib(2),
        ]
    }

    /// The five DRAM bandwidths of Table 1: 0.8 to 12.8 GB/s.
    pub fn bandwidth_sweep() -> [Bandwidth; 5] {
        [
            Bandwidth::from_gb_per_sec(0.8),
            Bandwidth::from_gb_per_sec(1.6),
            Bandwidth::from_gb_per_sec(3.2),
            Bandwidth::from_gb_per_sec(6.4),
            Bandwidth::from_gb_per_sec(12.8),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_conversions() {
        assert_eq!(CacheSize::from_kib(128).bytes(), 131072);
        assert_eq!(CacheSize::from_mib(2).bytes(), 2048 * 1024);
        assert!((CacheSize::from_kib(512).mib_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_size_display() {
        assert_eq!(CacheSize::from_mib(2).to_string(), "2 MiB");
        assert_eq!(CacheSize::from_kib(128).to_string(), "128 KiB");
        assert_eq!(CacheSize::from_bytes(100).to_string(), "100 B");
    }

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::from_gb_per_sec(12.8);
        assert!((b.bytes_per_sec() - 12.8e9).abs() < 1.0);
        // At 3 GHz, 12.8 GB/s moves 4.266 bytes per cycle.
        assert!((b.bytes_per_cycle(3.0e9) - 4.2667).abs() < 1e-3);
        assert_eq!(b.to_string(), "12.8 GB/s");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::from_gb_per_sec(0.0);
    }

    #[test]
    fn cache_geometry_sets() {
        let c = CacheConfig {
            size: CacheSize::from_kib(32),
            ways: 4,
            block_bytes: 64,
            latency_cycles: 2,
        };
        // 32 KiB / (4 ways * 64 B) = 128 sets.
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn table1_sweeps_match_paper() {
        let l2: Vec<u64> = PlatformConfig::l2_sweep()
            .iter()
            .map(|c| c.bytes() / 1024)
            .collect();
        assert_eq!(l2, vec![128, 256, 512, 1024, 2048]);
        let bw: Vec<f64> = PlatformConfig::bandwidth_sweep()
            .iter()
            .map(|b| b.gb_per_sec())
            .collect();
        assert_eq!(bw, vec![0.8, 1.6, 3.2, 6.4, 12.8]);
    }

    #[test]
    fn page_policy_builder() {
        let p = PlatformConfig::asplos14();
        assert_eq!(p.dram.page_policy, PagePolicy::ClosedPage);
        let open = p.with_page_policy(PagePolicy::OpenPage);
        assert_eq!(open.dram.page_policy, PagePolicy::OpenPage);
        assert!(open.dram.row_hit_latency_cycles < open.dram.access_latency_cycles);
    }

    #[test]
    fn builders_override_fields() {
        let p = PlatformConfig::asplos14()
            .with_l2_size(CacheSize::from_kib(256))
            .with_bandwidth(Bandwidth::from_gb_per_sec(0.8));
        assert_eq!(p.l2.size.bytes(), 256 * 1024);
        assert!((p.dram.bandwidth.gb_per_sec() - 0.8).abs() < 1e-12);
        // Other fields untouched.
        assert_eq!(p.core.issue_width, 4);
    }
}
