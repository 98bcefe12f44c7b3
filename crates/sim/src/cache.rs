//! Set-associative caches with LRU replacement.
//!
//! The timing model uses one [`SetAssociativeCache`] per level. Way
//! partitioning of the shared L2 (the enforcement mechanism the REF paper
//! assumes for cache capacity) is expressed by giving each agent a private
//! cache over a subset of the ways — see [`partition_ways`] — which is
//! exactly equivalent for multiprogrammed workloads with disjoint address
//! spaces.

use crate::config::CacheConfig;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessResult {
    /// The block was present.
    Hit,
    /// The block was absent and has been filled (LRU victim evicted).
    Miss,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses.saturating_sub(self.hits)
    }

    /// Counter difference `self - earlier`, for measuring an interval after
    /// a warmup snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has larger counters than `self`.
    pub(crate) fn since(&self, earlier: &CacheStats) -> CacheStats {
        assert!(
            self.accesses >= earlier.accesses && self.hits >= earlier.hits,
            "snapshot is not earlier than self"
        );
        CacheStats {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
        }
    }

    /// Hit rate in `[0, 1]`; `0.0` when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Outcome of a read/write access, including any write-back the fill
/// displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessResponse {
    /// Hit or miss.
    pub result: AccessResult,
    /// Base address of an evicted dirty block that must be written back,
    /// if the fill displaced one.
    pub writeback: Option<u64>,
}

/// A set-associative cache with true-LRU replacement and per-line dirty
/// bits (write-back policy).
///
/// # Examples
///
/// ```
/// use ref_sim::cache::{AccessResult, SetAssociativeCache};
///
/// let mut c = SetAssociativeCache::new(2, 2, 64);
/// assert_eq!(c.access(0), AccessResult::Miss);
/// assert_eq!(c.access(0), AccessResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    sets: usize,
    ways: usize,
    block_bytes: u64,
    /// `log2(block_bytes)`: block index by shift instead of division.
    block_shift: u32,
    /// `log2(sets)` when the set count is a power of two, letting the
    /// set/tag split run as mask/shift index arithmetic on the hot path;
    /// `None` falls back to division for odd geometries.
    set_shift: Option<u32>,
    /// `sets * ways` tag slots; `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// Last-touch stamps for LRU, parallel to `tags`.
    stamps: Vec<u64>,
    /// Dirty bits, parallel to `tags`.
    dirty: Vec<bool>,
    clock: u64,
    stats: CacheStats,
}

/// Sentinel for an empty way; real tags are always smaller because they are
/// address bits shifted right.
const INVALID_TAG: u64 = u64::MAX;

impl SetAssociativeCache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `block_bytes` is not a power of
    /// two.
    pub fn new(sets: usize, ways: usize, block_bytes: u64) -> SetAssociativeCache {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        SetAssociativeCache {
            sets,
            ways,
            block_bytes,
            block_shift: block_bytes.trailing_zeros(),
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            tags: vec![INVALID_TAG; sets * ways],
            stamps: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Splits an address into `(set index, tag)` with shift/mask
    /// arithmetic when the geometry allows it.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        match self.set_shift {
            Some(shift) => ((block & (self.sets as u64 - 1)) as usize, block >> shift),
            None => (
                (block % self.sets as u64) as usize,
                block / self.sets as u64,
            ),
        }
    }

    /// Creates a cache from a [`CacheConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configured geometry is degenerate (see
    /// `CacheConfig::sets`).
    pub fn from_config(cfg: &CacheConfig) -> SetAssociativeCache {
        SetAssociativeCache::new(cfg.sets(), cfg.ways, cfg.block_bytes)
    }

    /// Reads the block containing `addr`, filling on a miss (any displaced
    /// dirty block's write-back is dropped; use
    /// `access_rw` to observe it).
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.access_rw(addr, false).result
    }

    /// Accesses the block containing `addr`, marking it dirty on a write,
    /// and reports any dirty block the fill displaced.
    pub(crate) fn access_rw(&mut self, addr: u64, write: bool) -> AccessResponse {
        self.clock += 1;
        self.stats.accesses = self.stats.accesses.saturating_add(1);
        let (set, tag) = self.locate(addr);
        let base = set * self.ways;
        // Single pass over the set: find the matching way and, for the
        // miss path, the first invalid way and the LRU way in the same
        // sweep (the previous code re-scanned the set up to three times).
        let mut invalid = usize::MAX;
        let mut lru = 0;
        let mut lru_stamp = u64::MAX;
        for w in 0..self.ways {
            let slot = base + w;
            let t = self.tags[slot];
            if t == tag {
                self.stamps[slot] = self.clock;
                self.dirty[slot] |= write;
                self.stats.hits = self.stats.hits.saturating_add(1);
                return AccessResponse {
                    result: AccessResult::Hit,
                    writeback: None,
                };
            }
            if t == INVALID_TAG {
                if invalid == usize::MAX {
                    invalid = w;
                }
            } else if self.stamps[slot] < lru_stamp {
                lru_stamp = self.stamps[slot];
                lru = w;
            }
        }
        // Fill: pick an invalid way, else the LRU way.
        let victim = if invalid != usize::MAX { invalid } else { lru };
        let writeback = if self.tags[base + victim] != INVALID_TAG && self.dirty[base + victim] {
            let victim_block = self.tags[base + victim] * self.sets as u64 + set as u64;
            Some(victim_block * self.block_bytes)
        } else {
            None
        };
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        self.dirty[base + victim] = write;
        AccessResponse {
            result: AccessResult::Miss,
            writeback,
        }
    }

    /// Whether the block containing `addr` is currently resident (no side
    /// effects, no stat updates).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Block size in bytes.
    pub(crate) fn block_bytes(&self) -> u64 {
        self.block_bytes
    }
}

/// Splits `total_ways` among agents in proportion to `shares` using
/// largest-remainder rounding, guaranteeing every agent at least one way.
///
/// # Panics
///
/// Panics if `shares` is empty, any share is negative or non-finite, the
/// shares sum to zero, or there are fewer ways than agents.
///
/// # Examples
///
/// ```
/// use ref_sim::cache::partition_ways;
///
/// assert_eq!(partition_ways(8, &[0.75, 0.25]), vec![6, 2]);
/// assert_eq!(partition_ways(8, &[1.0, 0.0]), vec![7, 1]);
/// ```
pub fn partition_ways(total_ways: usize, shares: &[f64]) -> Vec<usize> {
    assert!(!shares.is_empty(), "need at least one agent");
    assert!(
        shares.iter().all(|s| s.is_finite() && *s >= 0.0),
        "shares must be finite and non-negative"
    );
    let total: f64 = shares.iter().sum();
    assert!(total > 0.0, "shares must not all be zero");
    assert!(
        total_ways >= shares.len(),
        "need at least one way per agent ({} ways, {} agents)",
        total_ways,
        shares.len()
    );
    let n = shares.len();
    // Reserve one way per agent, distribute the rest by largest remainder.
    let spare = total_ways - n;
    let quotas: Vec<f64> = shares.iter().map(|s| s / total * spare as f64).collect();
    let mut ways: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = ways.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - ways[a] as f64;
        let rb = quotas[b] - ways[b] as f64;
        rb.partial_cmp(&ra).expect("remainders are finite")
    });
    for &i in order.iter().take(spare - assigned) {
        ways[i] += 1;
    }
    for w in &mut ways {
        *w += 1;
    }
    ways
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssociativeCache::new(4, 2, 64);
        assert_eq!(c.access(100), AccessResult::Miss);
        assert_eq!(c.access(100), AccessResult::Hit);
        // Same block, different byte.
        assert_eq!(c.access(127), AccessResult::Hit);
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // One set, two ways: blocks map to set 0 when block % 1 == 0.
        let mut c = SetAssociativeCache::new(1, 2, 64);
        c.access(0); // block 0
        c.access(64); // block 1
        c.access(0); // touch block 0 -> block 1 is LRU
        c.access(128); // block 2 evicts block 1
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssociativeCache::new(2, 1, 64);
        // Blocks 0 and 2 both map to set 0 in a 2-set cache.
        assert_eq!(c.access(0), AccessResult::Miss);
        assert_eq!(c.access(2 * 64), AccessResult::Miss);
        assert_eq!(c.access(0), AccessResult::Miss); // conflict, evicted
    }

    #[test]
    fn hit_rate_monotone_in_capacity() {
        // A cyclic working set larger than the small cache but inside the
        // big one: classic LRU pathology for the small cache.
        let run = |sets: usize| {
            let mut c = SetAssociativeCache::new(sets, 4, 64);
            let blocks = 64_u64;
            for rep in 0..20 {
                for b in 0..blocks {
                    let _ = c.access(b * 64);
                }
                let _ = rep;
            }
            c.stats().hit_rate()
        };
        let small = run(4); // 16 blocks capacity
        let large = run(32); // 128 blocks capacity
        assert!(large > small, "large {large} <= small {small}");
        assert!(large > 0.9);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = SetAssociativeCache::new(2, 2, 64);
        c.access(0);
        let stats_before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(1024));
        assert_eq!(c.stats(), stats_before);
    }

    #[test]
    fn from_config_matches_geometry() {
        let p = PlatformConfig::asplos14();
        let c = SetAssociativeCache::from_config(&p.l1);
        assert_eq!(c.ways, 4);
        assert_eq!(c.block_bytes(), 64);
        assert_eq!(c.sets, 128);
    }

    #[test]
    fn stats_hit_rate_empty() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn writeback_emitted_only_for_dirty_victims() {
        // One set, one way: every new block evicts the previous one.
        let mut c = SetAssociativeCache::new(1, 1, 64);
        // Clean fill, clean eviction.
        assert_eq!(c.access_rw(0, false).writeback, None);
        assert_eq!(c.access_rw(64, false).writeback, None);
        // Dirty fill: the next eviction must write block 1 back.
        let r = c.access_rw(64, true);
        assert_eq!(r.result, AccessResult::Hit);
        let r = c.access_rw(128, false);
        assert_eq!(r.result, AccessResult::Miss);
        assert_eq!(r.writeback, Some(64));
        // The dirty bit moved on: evicting the clean block 2 is silent.
        assert_eq!(c.access_rw(192, false).writeback, None);
    }

    #[test]
    fn writeback_address_reconstruction_multi_set() {
        let mut c = SetAssociativeCache::new(4, 1, 64);
        // Block 5 -> set 1, tag 1. Write it, then evict with block 13
        // (set 1, tag 3).
        let _ = c.access_rw(5 * 64, true);
        let r = c.access_rw(13 * 64, false);
        assert_eq!(r.writeback, Some(5 * 64));
    }

    #[test]
    fn read_hit_preserves_dirty_bit() {
        let mut c = SetAssociativeCache::new(1, 1, 64);
        let _ = c.access_rw(0, true);
        let _ = c.access_rw(0, false); // read hit must not clean the line
        let r = c.access_rw(64, false);
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn partition_ways_proportional() {
        assert_eq!(partition_ways(8, &[0.5, 0.5]), vec![4, 4]);
        assert_eq!(partition_ways(8, &[0.75, 0.25]), vec![6, 2]);
        let w = partition_ways(8, &[0.6, 0.2, 0.2]);
        assert_eq!(w.iter().sum::<usize>(), 8);
        assert!(w.iter().all(|&x| x >= 1));
    }

    #[test]
    fn partition_ways_guarantees_minimum() {
        let w = partition_ways(8, &[0.99, 0.005, 0.005]);
        assert!(w.iter().all(|&x| x >= 1));
        assert_eq!(w.iter().sum::<usize>(), 8);
        assert!(w[0] >= 6);
    }

    #[test]
    #[should_panic(expected = "at least one way per agent")]
    fn partition_ways_needs_enough_ways() {
        let _ = partition_ways(2, &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        let _ = SetAssociativeCache::new(2, 2, 48);
    }

    #[test]
    fn non_power_of_two_sets_fall_back_to_division() {
        // 3 sets exercises the division path of `locate`; behaviour must
        // match the modular mapping exactly.
        let mut c = SetAssociativeCache::new(3, 1, 64);
        assert_eq!(c.access(0), AccessResult::Miss); // block 0 -> set 0
        assert_eq!(c.access(3 * 64), AccessResult::Miss); // block 3 -> set 0, evicts
        assert!(!c.probe(0));
        assert!(c.probe(3 * 64));
        assert_eq!(c.access(4 * 64), AccessResult::Miss); // block 4 -> set 1
        assert_eq!(c.access(4 * 64), AccessResult::Hit);
    }
}
