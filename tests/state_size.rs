//! Market state is `O(agents)`, not `O(history)`: while a fixed
//! population keeps observing, the market's live heap and its encoded
//! snapshot stay flat, and an epoch served from the allocation cache
//! allocates a fixed handful of times per agent.
//!
//! This binary holds a single test on purpose. Its counting global
//! allocator sees every thread of the process — the pool's helper threads
//! must be counted, since they do half of an epoch's per-agent work — so
//! a second test running beside it would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use ref_fairness::core::resource::Capacity;
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::market::{
    MarketConfig, MarketEngine, MarketEvent, ObservationSource, ReallocationOutcome,
};

/// Counts allocations (a reallocation is one) and live heap bytes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn track(allocations: u64, bytes: i64) {
    ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const AGENTS: u64 = 500;

/// 500 ground-truth agents on `[4000, 2000]` under REF, elasticities
/// `[a, 1 - a]` on sixteen levels in `[0.1, 0.9]`. Each agent's
/// fitted estimate settles on its truth, so once converged every epoch is
/// a cache hit, and every epoch adds one observation per agent.
fn market() -> MarketEngine {
    let config = MarketConfig::new(Capacity::new(vec![4000.0, 2000.0]).unwrap());
    let mut market = MarketEngine::new(config).unwrap();
    for id in 0..AGENTS {
        let a = 0.1 + 0.8 * ((id % 16) as f64 + 0.5) / 16.0;
        let truth = CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap();
        market
            .apply_now(MarketEvent::AgentJoined {
                id,
                source: ObservationSource::GroundTruth(truth),
            })
            .unwrap();
    }
    market
}

#[test]
fn market_state_stays_flat_as_history_grows() {
    // A fixed width makes the per-call helper bookkeeping a fixed count.
    ref_pool::set_threads(2);
    let mut market = market();
    // (epoch, live heap bytes, snapshot bytes) at epochs 100 and 400.
    let mut marks = Vec::new();
    let mut hit_allocations = Vec::new();
    for epoch in 1..=400 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = market.apply_now(MarketEvent::EpochTick).unwrap().unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if epoch > 100 && report.realloc == ReallocationOutcome::CacheHit {
            hit_allocations.push(allocations);
        }
        drop(report);
        if epoch == 100 || epoch == 400 {
            let live = LIVE_BYTES.load(Ordering::Relaxed);
            marks.push((epoch, live, market.encode_snapshot().len()));
        }
    }
    assert_eq!(market.agent(0).unwrap().estimator.num_observations(), 400);
    let [(_, live_100, bytes_100), (_, live_400, bytes_400)] = marks[..] else {
        unreachable!("two marks");
    };

    // (a) Retained heap: 300 more observations per agent, under 64 bytes
    // more per agent (the observation rows themselves would be 7 KiB).
    let grown = live_400 - live_100;
    assert!(
        grown < 64 * AGENTS as i64,
        "live heap grew {grown} bytes over 300 epochs ({} per agent)",
        grown / AGENTS as i64
    );

    // (b) Snapshot size: under 1% growth (counters gain digits).
    assert!(
        (bytes_400 as f64) < 1.01 * bytes_100 as f64,
        "snapshot grew from {bytes_100} to {bytes_400} bytes"
    );

    // (c) Allocations per cache-hit epoch: five per agent (the reported
    // utility, its bundle in the copy of the cached allocation, the
    // jittered measurement, the refit's coefficients and elasticities)
    // plus a constant for the epoch itself and its pool calls, about 50
    // at this width.
    assert!(
        hit_allocations.len() > 250,
        "{} cache hits",
        hit_allocations.len()
    );
    for &allocations in &hit_allocations {
        let per_epoch = allocations - 5 * AGENTS;
        assert!(
            (30..=80).contains(&per_epoch),
            "a cache-hit epoch allocated {allocations} times: 5 x {AGENTS} + {per_epoch}"
        );
    }
}
