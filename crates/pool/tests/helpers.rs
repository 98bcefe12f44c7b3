//! The pool's worker threads: a call spawns `min(threads, len) − 1`
//! scoped workers beside its caller and none when it runs serially, a
//! worker's panic reaches the caller, and a task on a worker runs its
//! nested calls serially.
//!
//! Every test takes `SERIAL`, so that `helpers_spawned` counts only its
//! own calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn on_helper() -> bool {
    thread::current()
        .name()
        .is_some_and(|name| name.starts_with("ref-pool-"))
}

/// Threads `call` spawned.
fn spawned_by(call: impl FnOnce()) -> usize {
    let before = ref_pool::helpers_spawned();
    call();
    ref_pool::helpers_spawned() - before
}

#[test]
fn a_call_spawns_one_thread_per_worker_beside_the_caller() {
    let _serial = serial();
    for (width, len) in [(2, 64), (3, 64), (8, 5), (4, 2), (16, 16)] {
        let expected = width.min(len) - 1;
        for round in 0..20 {
            let spawned = spawned_by(|| {
                let out = ref_pool::par_map_threads(len, width, |i| i * round);
                assert_eq!(out, (0..len).map(|i| i * round).collect::<Vec<_>>());
            });
            assert_eq!(spawned, expected, "width {width}, {len} items");
        }
    }
    // None at width 1, over one item or none, or from inside a task.
    for (width, len) in [(1, 64), (8, 1), (8, 0)] {
        let spawned = spawned_by(|| drop(ref_pool::par_map_threads(len, width, |i| i)));
        assert_eq!(spawned, 0, "width {width}, {len} items");
    }
    let nested = spawned_by(|| {
        ref_pool::par_map_threads(2, 2, |_| ref_pool::par_map_threads(8, 4, |i| i));
    });
    assert_eq!(nested, 1, "the nested calls spawned threads");
}

#[test]
fn concurrent_callers_get_their_own_results() {
    let _serial = serial();
    thread::scope(|scope| {
        for caller in 0..8usize {
            scope.spawn(move || {
                for round in 0..200 {
                    let out = ref_pool::par_map_threads(32, 2, |i| i * caller + round);
                    let expected: Vec<usize> = (0..32).map(|i| i * caller + round).collect();
                    assert_eq!(out, expected);
                }
            });
        }
    });
}

#[test]
fn a_panic_on_a_worker_reaches_the_caller() {
    let _serial = serial();
    // Each task waits for the other, so the caller runs one and the
    // spawned worker the other.
    let both = Barrier::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        ref_pool::par_map_threads(2, 2, |i| {
            both.wait();
            assert!(!on_helper(), "task {i} panics on the helper");
            i
        })
    }));
    let payload = result.expect_err("the worker's panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("panics on the helper"), "got {message:?}");
    assert!(!ref_pool::inside_pool());
    let out = ref_pool::par_map_threads(16, 2, |i| i * 2);
    assert_eq!(out[15], 30);
}

#[test]
fn a_task_on_the_helper_runs_nested_calls_serially() {
    let _serial = serial();
    let both = Barrier::new(2);
    let nested = ref_pool::par_map_threads(2, 2, |_| {
        both.wait();
        on_helper().then(|| {
            assert!(ref_pool::inside_pool());
            ref_pool::par_map_threads(8, 2, |i| (on_helper(), i))
        })
    });
    let on_the_helper: Vec<_> = nested.into_iter().flatten().collect();
    assert_eq!(on_the_helper.len(), 1, "one task ran on the spawned worker");
    for inner in on_the_helper {
        assert!(inner.iter().all(|&(helper, _)| helper));
        assert_eq!(inner.iter().map(|&(_, i)| i).sum::<usize>(), 28);
    }
}
