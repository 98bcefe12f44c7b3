//! # ref-pool
//!
//! A dependency-free, std-only work-stealing thread pool for the
//! embarrassingly parallel sweeps in the REF reproduction (profiling
//! grids, per-benchmark fitting, per-agent market refits, per-resource
//! enforcement).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — [`par_map`] returns results placed by index, so
//!    the output is byte-identical to the serial `(0..len).map(f)` run no
//!    matter how work was scheduled or stolen.
//! 2. **No dependencies** — `std::thread` workers, one mutex-guarded
//!    deque per worker, steal-half-from-the-front when a worker runs dry.
//!    The unit of work ranges from a fraction of a microsecond to
//!    milliseconds: one agent's observation and refit in a market epoch
//!    (a whole 2,000-agent REF epoch takes about 1.6 ms on one thread of a
//!    2-vCPU Xeon VM, 0.8 µs per agent, of which the refit is about
//!    0.2 µs) up to one cycle-level simulation. A task costs one
//!    uncontended lock of its worker's own deque, tens of nanoseconds
//!    beside even the smallest, so lock-free deques would buy little.
//! 3. **No thread per call** — the caller is worker 0. The other workers
//!    are process-wide helper threads, created the first time a call asks
//!    for more than exist, parked on a condition variable between calls
//!    and woken by each call. A call waits only for the helpers that
//!    joined it: one that wakes after the caller has drained the deques
//!    finds nothing posted and parks again, and concurrent callers share
//!    the helpers without deadlock (when all are busy, a caller steals its
//!    whole job itself).
//! 4. **Panic safety** — a panicking task does not deadlock the pool: the
//!    call returns only after every worker has left it, the first panic
//!    (lowest worker id) is re-raised on the caller, and the helper that
//!    caught it parks for the next call.
//! 5. **Nesting** — a `par_map` issued from inside a pool task runs
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

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Process-wide thread-count override (0 = no override).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The helper threads every call shares.
static HELPERS: Helpers = Helpers {
    board: Mutex::new(Board {
        jobs: Vec::new(),
        next_id: 0,
        spawned: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

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
    // quota files on every call (tens of microseconds), and an epoch asks
    // twice.
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Whether the calling thread is itself a pool worker (nested calls run
/// serially).
pub fn inside_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Helper threads the pool has created in this process. Helpers are never
/// torn down, so this is the widest fan-out asked for so far minus the
/// caller, however many calls have run.
pub fn helpers_spawned() -> usize {
    HELPERS.board().spawned
}

/// Maps `f` over `0..len` in parallel on [`threads`] workers; results are
/// ordered by index, byte-identical to the serial run.
///
/// # Panics
///
/// Re-raises the first panic from `f` after all workers have drained.
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

/// Runs `f(i, &mut items[i])` for every index in parallel on [`threads`]
/// workers. Each element is visited exactly once, by exactly one worker.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_mut_threads(items, threads(), f);
}

/// [`par_for_each_mut`] with an explicit worker count (`<= 1` runs
/// serially).
pub fn par_for_each_mut_threads<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    let workers = threads.max(1).min(len);
    if workers <= 1 || inside_pool() {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    // One deque per worker, pre-striped with contiguous index blocks.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * len / workers;
            let hi = (w + 1) * len / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let base = SharedMut(items.as_mut_ptr());
    let panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>> = Mutex::new(Vec::new());
    HELPERS.run(workers - 1, &|worker| {
        if let Err(payload) = worker_loop(&deques, worker, &base, &f) {
            lock(&panics).push((worker, payload));
        }
    });
    let first = panics
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .min_by_key(|&(worker, _)| worker);
    if let Some((_, payload)) = first {
        resume_unwind(payload);
    }
}

/// Shared base pointer into the item slice. Safety: the deque protocol
/// hands each index to exactly one worker, so the derived `&mut` borrows
/// are disjoint; `T: Send` lets them cross threads.
struct SharedMut<T>(*mut T);

unsafe impl<T: Send> Sync for SharedMut<T> {}

/// Locks `mutex`, ignoring poison: no task code runs under the pool's
/// own locks.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide helper threads and the jobs posted to them.
struct Helpers {
    board: Mutex<Board>,
    /// Parked helpers wait here for a job to be posted.
    posted: Condvar,
    /// Callers wait here for the helpers inside their job to leave it.
    left: Condvar,
}

/// What the helpers can see, under [`Helpers::board`].
struct Board {
    /// Jobs whose callers have not returned yet.
    jobs: Vec<Job>,
    next_id: u64,
    /// Helper threads created so far; they never exit.
    spawned: usize,
}

/// One call, as its helpers see it.
struct Job {
    id: u64,
    work: WorkRef,
    /// Helpers still welcome, and the worker id the next one takes (the
    /// caller is 0); the caller sets it to 0 once its deques are drained.
    wanted: usize,
    /// Helpers inside `work` now.
    active: usize,
}

/// `work(worker)` drains a call's deques as `worker`, catching the
/// task's panics. The borrow's lifetime is erased: [`Helpers::run`] keeps
/// the closure alive until no helper is inside it and none can join.
#[derive(Clone, Copy)]
struct WorkRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the closure is `Sync`, and it outlives every use (above).
unsafe impl Send for WorkRef {}

impl Helpers {
    fn board(&self) -> MutexGuard<'_, Board> {
        lock(&self.board)
    }

    /// Runs `work(0)` on the calling thread and offers `work(1..=wanted)`
    /// to the helpers; returns once `work(0)` has returned and every
    /// helper that joined has left. `work` must not unwind.
    fn run(&'static self, wanted: usize, work: &(dyn Fn(usize) + Sync)) {
        // SAFETY: `Withdraw` below outlives every helper's use of the
        // pointer, and `work` outlives `Withdraw`.
        let erased = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(work)
        };
        let id = {
            let mut board = self.board();
            while board.spawned < wanted && self.spawn(board.spawned + 1) {
                board.spawned += 1;
            }
            let id = board.next_id;
            board.next_id += 1;
            board.jobs.push(Job {
                id,
                work: WorkRef(erased),
                wanted,
                active: 0,
            });
            id
        };
        let _withdraw = Withdraw { helpers: self, id };
        for _ in 0..wanted {
            self.posted.notify_one();
        }
        work(0);
    }

    /// Starts helper thread `index`; `false` if the host refused (the
    /// callers then steal its share).
    fn spawn(&'static self, index: usize) -> bool {
        thread::Builder::new()
            .name(format!("ref-pool-{index}"))
            .spawn(move || self.helper_loop())
            .is_ok()
    }

    /// A helper's life: join any job that still wants a helper, run it,
    /// leave it; park while none does.
    fn helper_loop(&self) {
        IN_POOL.with(|flag| flag.set(true));
        let mut board = self.board();
        loop {
            let Some(job) = board.jobs.iter_mut().find(|job| job.wanted > 0) else {
                board = self
                    .posted
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let (id, work, worker) = (job.id, job.work, job.wanted);
            job.wanted -= 1;
            job.active += 1;
            drop(board);
            // SAFETY: the job's caller is blocked in `Withdraw::drop` until
            // `active` is back to 0, so the closure is alive.
            let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*work.0)(worker) }));
            board = self.board();
            let job = board
                .jobs
                .iter_mut()
                .find(|job| job.id == id)
                .expect("a job stays posted while a helper is inside it");
            job.active -= 1;
            if job.active == 0 {
                self.left.notify_all();
            }
        }
    }
}

/// Closes a posted job to further helpers and waits for the ones inside
/// it to leave, on return or unwind alike.
struct Withdraw {
    helpers: &'static Helpers,
    id: u64,
}

impl Drop for Withdraw {
    fn drop(&mut self) {
        let mut board = self.helpers.board();
        loop {
            let index = board
                .jobs
                .iter()
                .position(|job| job.id == self.id)
                .expect("only its caller withdraws a job");
            let job = &mut board.jobs[index];
            job.wanted = 0;
            if job.active == 0 {
                board.jobs.swap_remove(index);
                return;
            }
            board = self
                .helpers
                .left
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
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

/// Pops local work from the back, steals from victims' fronts when dry,
/// and applies `f` until no work remains anywhere. The closure's panics
/// are caught and returned so the caller can wait for every worker first.
fn worker_loop<T, F>(
    deques: &[Mutex<VecDeque<usize>>],
    worker: usize,
    base: &SharedMut<T>,
    f: &F,
) -> Result<(), Box<dyn Any + Send>>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let _guard = PoolGuard::enter();
    catch_unwind(AssertUnwindSafe(|| {
        while let Some(i) = next_index(deques, worker) {
            // SAFETY: `i` was popped from the deques exactly once, so no
            // other worker holds a reference to `items[i]`.
            let item = unsafe { &mut *base.0.add(i) };
            f(i, item);
        }
    }))
}

/// The worker's next index: its own deque's back, else half of the first
/// non-empty victim's front.
fn next_index(deques: &[Mutex<VecDeque<usize>>], worker: usize) -> Option<usize> {
    if let Some(i) = deques[worker]
        .lock()
        .expect("pool deque poisoned")
        .pop_back()
    {
        return Some(i);
    }
    let n = deques.len();
    for offset in 1..n {
        let victim = (worker + offset) % n;
        let stolen: Vec<usize> = {
            let mut queue = deques[victim].lock().expect("pool deque poisoned");
            let available = queue.len();
            if available == 0 {
                continue;
            }
            queue.drain(..available.div_ceil(2)).collect()
        };
        let mut own = deques[worker].lock().expect("pool deque poisoned");
        own.extend(stolen.iter().skip(1).copied());
        return Some(stolen[0]);
    }
    None
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
