//! What the in-memory journal costs per event, through
//! `ServiceCore::handle`: a WAL-less core fronting 128 external agents on
//! `[64, 32]` under REF, fed `serve_mem`'s op rule (a `tick` every 128th
//! op, else an agent `query` every third op, else an `observe`; the rule
//! of `allocations.rs`). The market's own state is flat in a fixed
//! population (`tests/state_size.rs`) and replies are dropped, so the
//! live heap grows by the journal alone.
//!
//! The journal keeps each event as its compact record: a two-resource
//! observation is 27 bytes and a tick one, which reads as ~52 bytes of
//! live heap per journaled event with the column's doubling slack. It
//! read 94 while the journal held `MarketEvent`s (48 bytes each, plus a
//! heap block for the observation's allocation).
//!
//! This binary holds a single test on purpose. Its counting global
//! allocator sees every thread of the process, so a second test running
//! beside it would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{parse_request, replay, JournalLimit, ServeMetrics, ServiceCore, Value};

/// Counts live heap bytes.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const AGENTS: u64 = 128;
const TICK_EVERY: usize = 128;
const WARM_UP: usize = 1_000;
const OPS: usize = 60_000;

/// Op `i` of the `serve_mem` rule over `AGENTS` agents, as its request
/// line.
fn op(i: usize, draw: &mut u64) -> String {
    let agent = 1 + i as u64 % AGENTS;
    if i % TICK_EVERY == TICK_EVERY - 1 {
        return r#"{"op":"tick"}"#.to_string();
    }
    if i % 3 == 2 {
        return format!(r#"{{"op":"query","agent":{agent}}}"#);
    }
    // A log-uniform point in [1/4, 4] times the equal share, measured
    // under the agent's hidden `x^a y^(1-a)`.
    let mut next = || {
        *draw = draw
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((*draw >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * 4f64.ln()
    };
    let (x, y) = (0.5 * next().exp(), 0.25 * next().exp());
    let a = 0.1 + 0.8 * ((agent % 16) as f64 + 0.5) / 16.0;
    let performance = x.powf(a) * y.powf(1.0 - a);
    format!(
        r#"{{"op":"observe","agent":{agent},"allocation":[{x},{y}],"performance":{performance}}}"#
    )
}

#[test]
fn a_journaled_serve_mem_event_costs_at_most_56_bytes_of_live_heap() {
    let config = MarketConfig::new(Capacity::new(vec![64.0, 32.0]).unwrap());
    let mut core = ServiceCore::new(config.clone(), JournalLimit::default()).unwrap();
    let metrics = ServeMetrics::default();
    let mut total = 0;
    let mut handle = |line: &str| {
        let request = parse_request(line).unwrap().request;
        let journaled = request.to_event().is_some();
        let reply = core.handle(&request, &metrics);
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{line}: {reply}");
        total += usize::from(journaled);
        journaled
    };
    for agent in 1..=AGENTS {
        handle(&format!(
            r#"{{"op":"join","agent":{agent},"source":{{"kind":"external"}}}}"#
        ));
    }

    let mut draw = 0x5EED;
    let mut before = 0;
    let mut journaled = 0u64;
    for i in 0..OPS {
        if i == WARM_UP {
            before = LIVE_BYTES.load(Ordering::Relaxed);
        }
        let line = op(i, &mut draw);
        if handle(&line) && i >= WARM_UP {
            journaled += 1;
        }
    }
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let per_event = growth as f64 / journaled as f64;
    println!("{journaled} events journaled, {growth} bytes of live heap: {per_event:.1} B each");
    assert!(
        per_event <= 56.0,
        "a journaled event costs {per_event:.1} bytes of live heap ({growth} over {journaled})"
    );

    // The records are the history: replayed, they rebuild the market.
    assert!(!core.journal_overflowed());
    let journal = core.journal();
    assert_eq!(journal.len(), total);
    let replayed = replay(config, &journal).unwrap();
    assert_eq!(replayed.snapshot().encode(), core.final_snapshot());
}
