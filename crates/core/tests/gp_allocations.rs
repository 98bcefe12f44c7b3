//! What one cold geometric-program solve allocates, on the program shape
//! that keeps its capacity rows apart: equal slowdown without fairness at
//! 48 agents on two resources (the market of `pinned_fairness_bits`),
//! whose Newton system is `S + U diag(c) U^T` with two columns. The
//! barrier method allocates its buffers once per solve and the `2 x 2`
//! capacitance system is eliminated in a buffer the Newton system owns,
//! so a Newton iterate allocates nothing: what is left is per solve and
//! per centering step.
//!
//! This binary holds a single test on purpose. Its counting global
//! allocator sees every thread of the process, so a second test running
//! beside it would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ref_core::mechanism::{EqualSlowdown, Mechanism};
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;

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

/// 48 agents on the 16 elasticity levels `[a, 1 - a]`, `a` evenly spaced
/// in `[0.1, 0.9]`, on the capacity `(96, 48)`.
fn market() -> (Vec<CobbDouglas>, Capacity) {
    let agents = (0..48u32)
        .map(|i| {
            let a = 0.1 + 0.8 * (f64::from(i % 16) + 0.5) / 16.0;
            CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
        })
        .collect();
    (agents, Capacity::new(vec![96.0, 48.0]).unwrap())
}

#[test]
fn a_cold_low_rank_solve_allocates_nothing_per_newton_iterate() {
    let (agents, capacity) = market();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (_, hint) = EqualSlowdown::new()
        .allocate_warm(&agents, &capacity, None)
        .unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let iterations = hint.unwrap().stats.newton_iterations;
    println!("{allocations} allocations over {iterations} Newton iterations");
    assert_eq!(iterations, 47, "the pinned solve's Newton count moved");
    // 697 in a release build, 701 in debug: building the program, its
    // workspace and the allocation. A Newton iterate that allocated even
    // one block would add 47 and leave the band.
    assert!(
        (650..=720).contains(&allocations),
        "{allocations} allocations"
    );
}
