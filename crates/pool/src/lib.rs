//! # ref-pool
//!
//! A dependency-free, std-only parallel map for the embarrassingly
//! parallel sweeps in the REF reproduction: the profiling grid and
//! per-benchmark fitting.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — [`par_map`] returns results placed by index, so
//!    the output is byte-identical to the serial `(0..len).map(f)` run no
//!    matter which worker computed which element.
//! 2. **No dependencies, no `unsafe`** — a call spawns `min(threads, len)
//!    − 1` scoped workers (`std::thread::scope`) and runs worker 0 on the
//!    calling thread; every worker pulls the next `(index, &mut item)`
//!    pair from one shared mutex-guarded iterator until it runs dry. The
//!    unit of work is one cycle-level simulation or one benchmark's fit,
//!    milliseconds each, so one uncontended lock per task and one thread
//!    spawn per worker per call cost nothing beside it; self-scheduling
//!    keeps skewed task costs balanced. A market epoch does not use the
//!    pool: one agent's share of it is about 1 µs, too little to pay for
//!    a thread.
//! 3. **Panic safety** — a panicking task stops only its worker; the
//!    others drain the rest, and the call re-raises the panic of the
//!    lowest worker that panicked once every worker has returned.
//! 4. **Nesting** — a `par_map` issued from inside a pool task runs
//!    serially on that worker instead of fanning out again, so nested
//!    parallelism cannot oversubscribe the host.
//!
//! Thread count resolution: an explicit [`set_threads`] override wins,
//! then the `REF_THREADS` environment variable, then
//! [`std::thread::available_parallelism`] (read once per process).
//!
//! # Examples
//!
//! ```
//! let squares = ref_pool::par_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Process-wide thread-count override (0 = no override).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker threads spawned so far in this process.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the current thread is already executing pool work.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the pool width for all subsequent calls that do not pass an
/// explicit thread count (`0` clears the override). Used by the
/// experiment binaries' `--jobs` flag.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The pool width [`par_map`] will use: the [`set_threads`] override if
/// set, else a positive integer `REF_THREADS`, else the host parallelism.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(value) = std::env::var("REF_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    // `available_parallelism` reads the affinity mask and the cgroup
    // quota files on every call (tens of microseconds).
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Whether the calling thread is itself a pool worker (nested calls run
/// serially).
pub fn inside_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Worker threads the pool has spawned in this process, over all calls:
/// a call `threads` wide over `len` items spawns `min(threads, len) − 1`,
/// and a serial or nested call none.
pub fn helpers_spawned() -> usize {
    SPAWNED.load(Ordering::SeqCst)
}

/// Maps `f` over `0..len` in parallel on [`threads`] workers; results are
/// ordered by index, byte-identical to the serial run.
///
/// # Panics
///
/// Re-raises the panic of the lowest worker whose `f` panicked, once
/// every worker has returned.
pub fn par_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_threads(len, threads(), f)
}

/// [`par_map`] with an explicit worker count (`<= 1` runs serially).
pub fn par_map_threads<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(len, || None);
    par_for_each_mut_threads(&mut slots, threads, |i, slot| *slot = Some(f(i)));
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is computed exactly once"))
        .collect()
}

/// Runs `f(i, &mut items[i])` for every index in parallel on `threads`
/// workers (`<= 1` runs serially). Each element is visited exactly once,
/// by exactly one worker.
pub fn par_for_each_mut_threads<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 || inside_pool() {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    // The lock is held only to take the next pair, never while `f` runs.
    let next = || {
        queue
            .lock()
            .expect("nothing panics under the queue lock")
            .next()
    };
    let work = || {
        let _guard = PoolGuard::enter();
        while let Some((i, item)) = next() {
            f(i, item);
        }
    };
    thread::scope(|scope| {
        // A spawn the host refuses leaves its share to the others.
        let spawned: Vec<_> = (1..workers)
            .filter_map(|k| {
                let worker = thread::Builder::new().name(format!("ref-pool-{k}"));
                worker.spawn_scoped(scope, work).ok()
            })
            .collect();
        SPAWNED.fetch_add(spawned.len(), Ordering::SeqCst);
        // A panic here is worker 0's: the scope joins the others, then
        // re-raises it.
        work();
        for worker in spawned {
            if let Err(payload) = worker.join() {
                resume_unwind(payload);
            }
        }
    });
}

/// Restores the thread's previous in-pool flag even if a task panics.
struct PoolGuard(bool);

impl PoolGuard {
    fn enter() -> PoolGuard {
        PoolGuard(IN_POOL.with(|flag| flag.replace(true)))
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let previous = self.0;
        IN_POOL.with(|flag| flag.set(previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn matches_serial_output() {
        for threads in [1, 2, 3, 8] {
            let parallel = par_map_threads(257, threads, |i| i * 31 + 7);
            let serial: Vec<usize> = (0..257).map(|i| i * 31 + 7).collect();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn mutates_every_element_once() {
        let mut counts = vec![0u32; 1000];
        par_for_each_mut_threads(&mut counts, 4, |i, c| *c += i as u32 + 1);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(*c, i as u32 + 1);
        }
    }

    #[test]
    fn work_is_actually_distributed() {
        // With more items than threads and a barrier-free counter we can
        // at least confirm every task ran under contention.
        let ran = AtomicU64::new(0);
        let out = par_map_threads(64, 4, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn override_wins_and_clears() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
