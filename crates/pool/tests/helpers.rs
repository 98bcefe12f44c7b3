//! The pool's helper threads persist: a call wakes parked helpers instead
//! of creating threads, waits only for the helpers that joined it, and
//! leaves them parked for the next call even when a task panics.
//!
//! Every test here fans out two wide, so the process has one helper, and
//! each takes `SERIAL` so that no other test's call can occupy it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn on_helper() -> bool {
    thread::current()
        .name()
        .is_some_and(|name| name.starts_with("ref-pool-"))
}

/// Polls `flag` for up to `seconds`; whether it was set.
fn wait_for(flag: &AtomicBool, seconds: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while !flag.load(Ordering::SeqCst) {
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Fans two slow tasks out two wide until a helper runs one of them (the
/// caller may drain both before a parked helper wakes).
fn until_a_helper_joins() {
    for _ in 0..100 {
        let helped = ref_pool::par_map_threads(2, 2, |_| {
            thread::sleep(Duration::from_millis(5));
            on_helper()
        });
        if helped.contains(&true) {
            return;
        }
    }
    panic!("no helper joined 100 calls of two 5 ms tasks");
}

#[test]
fn helpers_are_created_once_and_reused_by_every_call() {
    let _serial = serial();
    until_a_helper_joins();
    assert_eq!(ref_pool::helpers_spawned(), 1);
    for round in 0..1_000u64 {
        let out = ref_pool::par_map_threads(64, 2, |i| i as u64 * round);
        assert_eq!(out[63], 63 * round);
    }
    until_a_helper_joins();
    assert_eq!(
        ref_pool::helpers_spawned(),
        1,
        "a thousand calls two wide created threads"
    );
}

#[test]
fn a_call_does_not_wait_for_a_helper_busy_with_another_call() {
    let _serial = serial();
    until_a_helper_joins();
    let helper_busy = AtomicBool::new(false);
    let released = AtomicBool::new(false);
    thread::scope(|scope| {
        let first = scope.spawn(|| {
            ref_pool::par_map_threads(2, 2, |_| {
                if on_helper() {
                    helper_busy.store(true, Ordering::SeqCst);
                    assert!(wait_for(&released, 20), "the second call never returned");
                } else {
                    // Hold this call open until the helper has joined it.
                    wait_for(&helper_busy, 10);
                }
            })
        });
        assert!(wait_for(&helper_busy, 10), "the helper never joined");
        // The only helper is inside the first call: the second runs alone.
        let started = Instant::now();
        let out = ref_pool::par_map_threads(1_000, 2, |i| i * 3);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(out[999], 2_997);
        released.store(true, Ordering::SeqCst);
        first.join().expect("the first call returns");
    });
    assert_eq!(ref_pool::helpers_spawned(), 1);
}

#[test]
fn concurrent_callers_share_the_helper() {
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
    assert!(ref_pool::helpers_spawned() <= 1);
}

#[test]
fn a_panic_on_the_helper_leaves_it_parked_for_the_next_call() {
    let _serial = serial();
    until_a_helper_joins();
    let mut panicked = false;
    for _ in 0..100 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            ref_pool::par_map_threads(2, 2, |i| {
                thread::sleep(Duration::from_millis(5));
                assert!(!on_helper(), "task {i} panics on the helper");
                i
            })
        }));
        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(message.contains("panics on the helper"), "got {message:?}");
            panicked = true;
            break;
        }
    }
    assert!(panicked, "no task of 100 calls ran on the helper");
    assert!(!ref_pool::inside_pool());
    until_a_helper_joins();
    assert_eq!(ref_pool::helpers_spawned(), 1);
}

#[test]
fn a_task_on_the_helper_runs_nested_calls_serially() {
    let _serial = serial();
    let mut checked = false;
    for _ in 0..100 {
        if checked {
            break;
        }
        let nested = ref_pool::par_map_threads(2, 2, |_| {
            thread::sleep(Duration::from_millis(5));
            on_helper().then(|| {
                assert!(ref_pool::inside_pool());
                ref_pool::par_map_threads(8, 2, |i| (on_helper(), i))
            })
        });
        for inner in nested.into_iter().flatten() {
            assert!(inner.iter().all(|&(helper, _)| helper));
            assert_eq!(inner.iter().map(|&(_, i)| i).sum::<usize>(), 28);
            checked = true;
        }
    }
    assert!(checked, "no task of 100 calls ran on the helper");
    assert_eq!(ref_pool::helpers_spawned(), 1);
}
