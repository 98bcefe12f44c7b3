//! Heap allocations per `serve_mem` op class, taken through
//! `ServiceCore::handle`: a WAL-less core fronting 128 external agents on
//! `[64, 32]` under REF, fed `serve_mem`'s op rule (a `tick` every 128th
//! op, else an agent `query` every third op, else an `observe`). This is
//! a reading, not a budget: each class's median is pinned to a stated
//! band so that a change which moves it shows up here first. The parse
//! and the encode around `handle` are counted beside it and held to what
//! the request path promises: a request line becomes a `Request` with no
//! tree in between, and a reply is encoded into the connection's warm
//! buffer. The same rule over 2,000 agents checks that what a tick
//! allocates beyond the engine's own tick (its reply, the journal) does
//! not grow with the market.
//!
//! This binary holds a single test on purpose. Its counting global
//! allocator sees every thread of the process, so a second test running
//! beside it would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEngine};
use ref_serve::{parse_request, JournalLimit, ServeMetrics, ServiceCore, Value};

/// Counts allocations (a reallocation is one).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const AGENTS: u64 = 128;
const TICK_EVERY: usize = 128;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Op `i` of the `serve_mem` rule over `agents` agents, as its request
/// line.
fn op(i: usize, agents: u64, draw: &mut u64) -> (usize, String) {
    let agent = 1 + i as u64 % agents;
    if i % TICK_EVERY == TICK_EVERY - 1 {
        return (TICK, r#"{"op":"tick"}"#.to_string());
    }
    if i % 3 == 2 {
        return (QUERY, format!(r#"{{"op":"query","agent":{agent}}}"#));
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
    let line = format!(
        r#"{{"op":"observe","agent":{agent},"allocation":[{x},{y}],"performance":{performance}}}"#
    );
    (OBSERVE, line)
}

const OBSERVE: usize = 0;
const QUERY: usize = 1;
const TICK: usize = 2;
const CLASSES: [&str; 3] = ["observe", "query", "tick"];

fn median(counts: &mut [u64]) -> u64 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// One run of the rule over `agents` external agents: the median
/// (parse, handle, encode) counts per class, after four ticks of warm-up,
/// over twelve ticks' worth of ops, and the median of what `handle`
/// allocates for a tick beyond the engine's own tick (read on a twin
/// engine fed the same events).
fn reading(agents: u64) -> ([[u64; 3]; 3], u64) {
    let config = MarketConfig::new(Capacity::new(vec![64.0, 32.0]).unwrap());
    let mut core = ServiceCore::new(config.clone(), JournalLimit::default()).unwrap();
    let mut twin = MarketEngine::new(config).unwrap();
    let metrics = ServeMetrics::default();
    for agent in 1..=agents {
        let line = format!(r#"{{"op":"join","agent":{agent},"source":{{"kind":"external"}}}}"#);
        let request = parse_request(&line).unwrap().request;
        assert_eq!(
            core.handle(&request, &metrics).get("ok"),
            Some(&Value::Bool(true))
        );
        twin.apply_now(request.to_event().unwrap()).unwrap();
    }

    let mut counts: [[Vec<u64>; 3]; 3] = Default::default();
    let mut beyond_engine = Vec::new();
    let mut draw = 0x5EED;
    // The connection's reply buffer, warm: grown once to a tick reply
    // and larger than any reply of the run.
    let mut out = String::with_capacity(1 << 16);
    for i in 0..16 * TICK_EVERY {
        let (class, line) = op(i, agents, &mut draw);
        let (parse, envelope) = counted(|| parse_request(&line).unwrap());
        let (handle, reply) = counted(|| core.handle(&envelope.request, &metrics));
        out.clear();
        let (encode, ()) = counted(|| reply.encode_into(&mut out));
        assert!(out.starts_with(r#"{"ok":true"#), "{line}: {out}");
        let engine = envelope.request.to_event().map(|event| {
            let (n, applied) = counted(|| twin.apply_now(event));
            assert!(applied.is_ok(), "{line}");
            n
        });
        drop((envelope, reply));
        if i >= 4 * TICK_EVERY {
            for (stage, n) in [parse, handle, encode].into_iter().enumerate() {
                counts[class][stage].push(n);
            }
            if class == TICK {
                beyond_engine.push(handle - engine.unwrap());
            }
        }
    }
    let medians = counts.map(|mut stages| [0, 1, 2].map(|s| median(&mut stages[s])));
    (medians, median(&mut beyond_engine))
}

#[test]
fn serve_mem_ops_allocate_a_stated_handful() {
    let (medians, beyond_engine) = reading(AGENTS);
    for (class, m) in CLASSES.iter().zip(&medians) {
        println!("{class}: parse {} handle {} encode {}", m[0], m[1], m[2]);
    }
    // Parsing walks the line into the `Request` itself: an observe
    // allocates only the `allocation` vector the request owns, a query
    // and a tick nothing (10, 4 and 3 while each line became a `Value`
    // tree first).
    let parse_at_most = [1, 0, 0];
    // Encoding a reply into a warm buffer allocates nothing (3, 6 and 7
    // while `encode` grew a fresh `String` per reply).
    let encode_at_most = [0, 0, 0];
    // The bands `handle`'s median stays in, per class. Reading: 4, 13
    // and 46 (7, 16 and 50 while `ok_response` copied its fields into a
    // second and a third vector; an observe was 8 while the journal kept
    // a clone of each event, not its record; a tick 76 while the epoch
    // ran a stride scheduler per resource and the reply carried its
    // deviations, 87 to 92 while the epoch fanned out on a two-wide
    // pool, and 217 to 220 while its reply listed every agent and
    // bundle).
    let bands = [(4, 5), (12, 14), (40, 50)];
    for (c, class) in CLASSES.iter().enumerate() {
        let [parse, handle, encode] = medians[c];
        assert!(
            parse <= parse_at_most[c],
            "a {class} parsed with {parse} allocations (median), at most {}",
            parse_at_most[c]
        );
        assert!(
            encode <= encode_at_most[c],
            "a {class} reply encoded with {encode} allocations (median), at most {}",
            encode_at_most[c]
        );
        let (lo, hi) = bands[c];
        assert!(
            (lo..=hi).contains(&handle),
            "a {class} handled with {handle} allocations (median), band {lo}..={hi}"
        );
    }

    // What a tick allocates beyond the engine's own tick (the reply and
    // the journal) does not grow with the market: 2,000 agents read as
    // 128 do, within a few.
    let (_, beyond_engine_2000) = reading(2_000);
    println!(
        "tick beyond the engine: {beyond_engine} at {AGENTS} agents, {beyond_engine_2000} at 2,000"
    );
    assert!(
        beyond_engine_2000 <= beyond_engine + 4,
        "a 2,000-agent tick allocates {beyond_engine_2000} beyond the engine, {beyond_engine} at {AGENTS}"
    );
}
