//! What one `Wal::append` costs, as counts: the bytes it puts on disk and
//! the heap allocations it makes. A record is the 8-byte envelope (length
//! and CRC) around the event's binary record, so a `serve_mem`-shaped
//! observation (an agent below 128, two resources) takes 35 bytes and a
//! tick 9; as JSON they took 78 and 21. An append that does not rotate
//! frames its record in a buffer the log keeps, so it allocates nothing.
//!
//! This binary holds a single test on purpose: its counting global
//! allocator sees every thread of the process, so a second test running
//! beside it would pollute the counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

use ref_market::MarketEvent;
use ref_serve::{FaultPlan, Wal, WalConfig};

use common::TempDir;

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

/// Op `i` of `serve_mem`'s logged mix over 128 agents: a tick every
/// 128th op, else an observation.
fn event(i: u64) -> MarketEvent {
    if i % 128 == 127 {
        return MarketEvent::EpochTick;
    }
    MarketEvent::ObservationReported {
        id: i % 128,
        allocation: vec![0.5 + (i % 7) as f64 / 8.0, 0.25],
        performance: 0.4,
    }
}

#[test]
fn an_append_writes_the_framed_record_and_allocates_nothing() {
    let dir = TempDir::new("wal-record");
    let mut wal = Wal::open(WalConfig::new(dir.path()), FaultPlan::none())
        .unwrap()
        .wal;
    let segment = dir.path().join("segment-0000000000000000.wal");
    let size = || fs::metadata(&segment).unwrap().len();

    let observe = MarketEvent::ObservationReported {
        id: 127,
        allocation: vec![0.5, 0.25],
        performance: 0.4,
    };
    wal.append(&observe).unwrap();
    assert_eq!(size(), 8 + 27, "an observation");
    wal.append(&MarketEvent::EpochTick).unwrap();
    assert_eq!(size(), 8 + 27 + 9, "a tick");

    // Every append of 1,024 more (ticks included), each event built
    // before the count starts. Reading: 0 each; with a JSON payload an
    // observation's append made 14 and a tick's 7.
    let mut most = 0;
    for i in 0..1_024 {
        let event = event(i);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        wal.append(&event).unwrap();
        most = most.max(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    println!("allocations per append: at most {most}");
    assert_eq!(most, 0, "an append that does not rotate allocates");
    // 1,016 observations and 8 ticks after the first two, in one segment.
    assert_eq!(size(), 44 + 1_016 * 35 + 8 * 9, "no append rotated");
}
