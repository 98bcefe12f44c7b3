//! Market state is `O(agents)`, not `O(history)`: while a fixed
//! population keeps observing, the market's live heap and its encoded
//! snapshot stay flat. An epoch allocates a constant however many agents
//! it holds: bundles and utilities of one or two resources are stored
//! inline, a refit's design row and coefficients live on the stack, and
//! the credit ledger keeps its balances and windows in flat columns, so
//! neither the cached allocation's copy, nor the reported utilities, nor
//! the jittered measurement point, nor a refit, nor a window takes a heap
//! block per agent.
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

/// The hidden elasticities `[a, 1 - a]` of level `level`: sixteen levels
/// in `[0.1, 0.9]`.
fn truth(level: u64) -> ObservationSource {
    let a = 0.1 + 0.8 * ((level % 16) as f64 + 0.5) / 16.0;
    ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap())
}

fn join(market: &mut MarketEngine, id: u64, source: ObservationSource) {
    market
        .apply_now(MarketEvent::AgentJoined { id, source })
        .unwrap();
}

/// `agents` ground-truth agents on `[4000, 2000]` under REF, agent `id` on
/// level `id % 16`. Each agent's fitted estimate settles on its truth, so
/// once converged every epoch is a cache hit, and every epoch adds one
/// observation per agent.
fn converging_market(agents: u64) -> MarketEngine {
    let config = MarketConfig::new(Capacity::new(vec![4000.0, 2000.0]).unwrap());
    let mut market = MarketEngine::new(config).unwrap();
    for id in 0..agents {
        join(&mut market, id, truth(id));
    }
    market
}

/// Ticks `market` through epochs `from..=to` and returns the allocations
/// of each cache-hit epoch past `warm`; `at` is called after the epochs
/// it names.
fn tick(
    market: &mut MarketEngine,
    epochs: std::ops::RangeInclusive<u64>,
    warm: u64,
    mut at: impl FnMut(u64, &MarketEngine),
) -> Vec<u64> {
    let mut hit_allocations = Vec::new();
    for epoch in epochs {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = market.apply_now(MarketEvent::EpochTick).unwrap().unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if epoch > warm && report.realloc == ReallocationOutcome::CacheHit {
            hit_allocations.push(allocations);
        }
        drop(report);
        at(epoch, market);
    }
    hit_allocations
}

/// (c) A cache-hit epoch allocates a constant — the epoch itself and its
/// pool calls, about 50 at this width — with no per-agent term: 48 to 59
/// at 500 and at 2,000 agents (547 and 2,050 when every refit returned
/// its coefficients in a fresh `Vec`).
fn assert_constant(agents: u64, hit_allocations: &[u64]) {
    for &allocations in hit_allocations {
        assert!(
            (20..=80).contains(&allocations),
            "a cache-hit epoch of {agents} agents allocated {allocations} times"
        );
    }
}

/// (d) The tick of `epoch_ref_churn`'s market: 8 external and 1,992
/// ground-truth agents (992 stable, a sliding window of 1,000 churning),
/// and before every tick 10 leaves, 10 joins and 20 demand changes. Every
/// tick reallocates; returns the allocations of each tick.
fn churn_ticks(rounds: u64) -> Vec<u64> {
    const CHURN: u64 = 10;
    const DEMANDS: u64 = 20;
    const STABLE: u64 = 992;
    const CHURN_POOL: u64 = 1_000;
    const CHURN_BASE: u64 = 100_000;
    let config = MarketConfig::new(Capacity::new(vec![4000.0, 2000.0]).unwrap());
    let mut market = MarketEngine::new(config).unwrap();
    for id in 1..=8 {
        join(&mut market, id, ObservationSource::External);
    }
    for id in 1_000..1_000 + STABLE {
        join(&mut market, id, truth(id));
    }
    for id in CHURN_BASE..CHURN_BASE + CHURN_POOL {
        join(&mut market, id, truth(id));
    }
    let mut draw = 0x5EED_u64;
    let mut ticks = Vec::new();
    for round in 0..rounds {
        for k in 0..CHURN {
            let id = CHURN_BASE + round * CHURN + k;
            market.apply_now(MarketEvent::AgentLeft { id }).unwrap();
            join(&mut market, id + CHURN_POOL, truth(id + CHURN_POOL));
        }
        for _ in 0..DEMANDS {
            // Any live ground-truth agent, to any level.
            draw = draw
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (draw >> 33) % (STABLE + CHURN_POOL);
            let id = match pick.checked_sub(STABLE) {
                None => 1_000 + pick,
                Some(k) => CHURN_BASE + (round + 1) * CHURN + k,
            };
            let ObservationSource::GroundTruth(new_truth) = truth(draw >> 60) else {
                unreachable!("truth is ground truth");
            };
            market
                .apply_now(MarketEvent::DemandChanged {
                    id,
                    new_truth: Some(new_truth),
                })
                .unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = market.apply_now(MarketEvent::EpochTick).unwrap().unwrap();
        ticks.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        assert_eq!(report.realloc, ReallocationOutcome::Reallocated);
        assert_eq!(report.agents.len(), 2_000);
    }
    ticks
}

#[test]
fn market_state_stays_flat_as_history_grows() {
    // A fixed width makes the per-call helper bookkeeping a fixed count.
    ref_pool::set_threads(2);
    const AGENTS: u64 = 500;
    let mut market = converging_market(AGENTS);
    // (epoch, live heap bytes, snapshot bytes) at epochs 100 and 400.
    let mut marks = Vec::new();
    let hit_allocations = tick(&mut market, 1..=400, 100, |epoch, market| {
        if epoch == 100 || epoch == 400 {
            let live = LIVE_BYTES.load(Ordering::Relaxed);
            marks.push((epoch, live, market.encode_snapshot().len()));
        }
    });
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

    // (c) At 500 agents and at 2,000.
    assert!(
        hit_allocations.len() > 250,
        "{} cache hits",
        hit_allocations.len()
    );
    assert_constant(AGENTS, &hit_allocations);
    drop(market);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut market = converging_market(2_000);
    let hit_allocations = tick(&mut market, 1..=150, 100, |_, _| {});
    assert!(
        hit_allocations.len() > 25,
        "{} cache hits",
        hit_allocations.len()
    );
    assert_constant(2_000, &hit_allocations);

    // (e) Live heap per agent at 2,000 agents, every window full and every
    // estimator refit: 934 bytes (1,386 when each ledger entry sat in a
    // B-tree with its own deque of 32 pairs, and each estimator kept two
    // scratch rows).
    let per_agent = (LIVE_BYTES.load(Ordering::Relaxed) - before) / 2_000;
    assert!(
        per_agent <= 1_000,
        "a 2,000-agent market holds {per_agent} live heap bytes per agent"
    );
    drop(market);

    // (d) The churning tick: a constant for the reallocation, the audit,
    // the ledger and enforcement, 62 to 67 (2,071 when each refit
    // allocated its coefficients).
    let mut ticks = churn_ticks(30);
    ticks.sort_unstable();
    let median = ticks[ticks.len() / 2];
    assert!(
        (50..=80).contains(&median),
        "a churning 2,000-agent tick allocated {median} times (median), ticks {ticks:?}"
    );
}
