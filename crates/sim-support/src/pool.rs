//! Zero-dependency work-stealing thread pool with a deterministic
//! scatter/gather executor.
//!
//! The experiment grids (13 apps × ~10 policies × many configurations) are
//! embarrassingly parallel, but PR 1's contract — every table regenerates
//! byte-identically — must survive going wide. The executor here guarantees
//! that by construction: [`ThreadPool::par_map`] writes each task's result
//! into a slot indexed by **submission order**, so the gathered `Vec` is
//! independent of completion order, scheduling, or worker count.
//!
//! Design:
//!
//! * One [`ThreadPool`] owns `n` workers. Each worker has its own deque;
//!   submissions are distributed round-robin, and an idle worker steals from
//!   the longest other deque (classic work stealing, coarsened under a single
//!   pool mutex — experiment cells run for milliseconds to seconds, so queue
//!   operations are nowhere near the critical path).
//! * [`ThreadPool::scope`] lets tasks borrow from the caller's stack (the
//!   figure closures borrow `Scale`, traces, pipelines). The scope blocks
//!   until every spawned task finished — including when a task panics — so
//!   borrowed data strictly outlives the tasks.
//! * Worker panics are captured and re-raised on the submitting thread with
//!   the original payload ([`std::panic::resume_unwind`]), never silently
//!   dropped.
//! * Thread count resolution: [`set_threads`] override (the binaries' \
//!   `--threads N` flag and the tests), else the `SIM_THREADS` environment
//!   variable, else [`std::thread::available_parallelism`]. A count of 1
//!   short-circuits to a plain serial loop on the calling thread — the exact
//!   pre-pool code path.
//!
//! ```
//! use sim_support::pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // submission order, always
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A queued unit of work. Scoped tasks are transmuted to `'static` (see
/// [`Scope::spawn`]); soundness rests on the scope blocking until they run.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    /// One deque per worker; submissions round-robin across them.
    queues: Vec<VecDeque<Job>>,
    /// Round-robin cursor for the next submission.
    next: usize,
    /// Total queued (not yet started) jobs, mirrored out of the deques so
    /// observers don't need to sum them.
    queued: usize,
    shutdown: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
    /// Jobs taken from a deque that was not the taking worker's own.
    steals: AtomicU64,
    /// Jobs executed by pool workers (excludes the submitting thread's own
    /// help-runs inside [`ThreadPool::scope`]).
    executed: AtomicU64,
    /// High-water mark of `Inner::queued`.
    depth_hwm: AtomicUsize,
}

impl Shared {
    fn push(&self, job: Job) {
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        let slot = inner.next;
        inner.next = (inner.next + 1) % inner.queues.len();
        inner.queues[slot].push_back(job);
        inner.queued += 1;
        self.depth_hwm.fetch_max(inner.queued, Ordering::Relaxed);
        drop(inner);
        self.available.notify_one();
    }

    /// Pops a job, preferring `own`'s deque and stealing from the longest
    /// other deque otherwise. `own == usize::MAX` means "no home deque"
    /// (the submitting thread helping inside a scope).
    fn pop(&self, own: usize) -> Option<Job> {
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        self.pop_locked(&mut inner, own)
    }

    fn pop_locked(&self, inner: &mut Inner, own: usize) -> Option<Job> {
        if own < inner.queues.len() {
            if let Some(job) = inner.queues[own].pop_front() {
                inner.queued -= 1;
                return Some(job);
            }
        }
        let victim = (0..inner.queues.len()).max_by_key(|&i| inner.queues[i].len())?;
        let job = inner.queues[victim].pop_back()?;
        inner.queued -= 1;
        if own < inner.queues.len() {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        Some(job)
    }
}

/// Work-stealing thread pool. See the [module docs](self) for the design.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queues: (0..threads).map(|_| VecDeque::new()).collect(),
                next: 0,
                queued: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            steals: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            depth_hwm: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sim-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs queued but not yet started. A snapshot, racy by nature; used for
    /// observability (`results/grid_stats.json`), never for control flow.
    pub fn queued(&self) -> usize {
        self.shared.inner.lock().expect("pool lock poisoned").queued
    }

    /// Cumulative observability counters since pool creation.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            depth_hwm: self.shared.depth_hwm.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing from the caller's
    /// stack may be spawned; returns once every spawned task completed.
    ///
    /// If any task panicked, the first captured payload is re-raised here
    /// (after all tasks finished, so borrows never dangle). If `f` itself
    /// panics the scope still drains its tasks before unwinding.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        let state = Arc::new(ScopeState {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help run queued work while waiting: keeps a 1-worker pool correct
        // even when the submitter holds the only free thread, and shortens
        // the tail when cells outnumber workers.
        let mut remaining = state.remaining.lock().expect("scope lock poisoned");
        while *remaining > 0 {
            drop(remaining);
            if let Some(job) = self.shared.pop(usize::MAX) {
                job();
                remaining = state.remaining.lock().expect("scope lock poisoned");
                continue;
            }
            remaining = state.remaining.lock().expect("scope lock poisoned");
            if *remaining > 0 {
                // Timed wait: a task finishing notifies `done`, but new
                // stealable work appearing does not — re-check periodically.
                remaining = state
                    .done
                    .wait_timeout(remaining, Duration::from_millis(1))
                    .expect("scope lock poisoned")
                    .0;
            }
        }
        drop(remaining);
        if let Some(payload) = state.panic.lock().expect("scope lock poisoned").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Runs `a` and `b` as two tasks of one scope and returns both results,
    /// in argument order. With one worker it runs `a`, then `b`, on the
    /// calling thread.
    pub fn join<A, B>(&self, a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B)
    where
        A: Send,
        B: Send,
    {
        if self.threads() == 1 {
            return (a(), b());
        }
        let (mut left, mut right) = (None, None);
        self.scope(|scope| {
            let (left, right) = (&mut left, &mut right);
            scope.spawn(move || *left = Some(a()));
            scope.spawn(move || *right = Some(b()));
        });
        (
            left.expect("scope completed, both tasks ran"),
            right.expect("scope completed, both tasks ran"),
        )
    }

    /// Applies `f` to every item and gathers the results **in submission
    /// order**, regardless of which worker finishes when. `f` receives the
    /// item's index alongside the item.
    ///
    /// With one worker (or zero/one items) this degenerates to a serial
    /// in-order loop on the calling thread.
    pub fn par_map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if self.threads() == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        self.scope(|scope| {
            for (slot, (index, item)) in slots.iter_mut().zip(items.iter().enumerate()) {
                let f = &f;
                scope.spawn(move || {
                    *slot = Some(f(index, item));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope completed, all slots filled"))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("pool lock poisoned");
            inner.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, own: usize) {
    loop {
        let job = {
            let mut inner = shared.inner.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = shared.pop_locked(&mut inner, own) {
                    break job;
                }
                if inner.shutdown {
                    return;
                }
                inner = shared.available.wait(inner).expect("pool lock poisoned");
            }
        };
        job();
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
pub struct Scope<'env, 'pool> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like [`std::thread::Scope`].
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env, '_> {
    /// Spawns a task that may borrow data living at least as long as the
    /// scope. Panics inside the task are captured and re-raised when the
    /// scope closes.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        // `remaining` must be incremented before the job is pushed: the
        // transmute below is only sound because `scope` cannot observe
        // `remaining == 0` (and return, ending `'env`) while this job is
        // queued or running.
        *self.state.remaining.lock().expect("scope lock poisoned") += 1;
        let state = Arc::clone(&self.state);
        let task = move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = outcome {
                let mut slot = state.panic.lock().expect("scope lock poisoned");
                slot.get_or_insert(payload);
            }
            let mut remaining = state.remaining.lock().expect("scope lock poisoned");
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        // SAFETY: `scope` blocks until `remaining` reaches zero — i.e. until
        // this job has run to completion — before returning, so every borrow
        // with lifetime `'env` strictly outlives the job. This is the same
        // contract `std::thread::scope` enforces.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.pool.shared.push(job);
    }
}

/// Cumulative pool counters, for `results/grid_stats.json`.
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    pub threads: usize,
    /// Jobs a worker took from another worker's deque.
    pub steals: u64,
    /// Jobs executed on pool workers.
    pub executed: u64,
    /// Highest number of simultaneously queued jobs observed.
    pub depth_hwm: usize,
}

// ---------------------------------------------------------------------------
// Process-wide thread-count configuration + shared pool handles.
// ---------------------------------------------------------------------------

/// `0` = no override (fall back to `SIM_THREADS` / available parallelism).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the process-wide thread count (the binaries' `--threads N`).
/// `0` clears the override. Takes effect on the next [`par_map`] call.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// Resolved thread count: [`set_threads`] override, else `SIM_THREADS`,
/// else [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    // simlint: allow(D04) -- SIM_THREADS override is documented in README.md and EXPERIMENTS.md
    if let Ok(value) = std::env::var("SIM_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Shared pools keyed by thread count, built lazily and kept for the process
/// lifetime (idle workers park on a condvar; keeping them costs nothing and
/// lets `--threads 1` vs `--threads 4` coexist in one test process).
fn shared_pool(threads: usize) -> Arc<ThreadPool> {
    static POOLS: Mutex<Vec<(usize, Arc<ThreadPool>)>> = Mutex::new(Vec::new());
    let mut pools = POOLS.lock().expect("pool registry poisoned");
    if let Some((_, pool)) = pools.iter().find(|(n, _)| *n == threads) {
        return Arc::clone(pool);
    }
    let pool = Arc::new(ThreadPool::new(threads));
    pools.push((threads, Arc::clone(&pool)));
    pool
}

/// Handle to the process-shared pool for the configured thread count, or
/// `None` when the configuration asks for the serial path (1 thread).
pub fn handle() -> Option<Arc<ThreadPool>> {
    let threads = configured_threads();
    if threads <= 1 {
        None
    } else {
        Some(shared_pool(threads))
    }
}

/// [`ThreadPool::par_map`] on the process-shared pool — or a plain serial
/// loop when the configured thread count is 1.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    match handle() {
        Some(pool) => pool.par_map(items, f),
        None => items.iter().enumerate().map(|(i, x)| f(i, x)).collect(),
    }
}

/// [`ThreadPool::join`] on the process-shared pool — or `a`, then `b`, on
/// the calling thread when the configured thread count is 1.
pub fn join<A, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B)
where
    A: Send,
    B: Send,
{
    match handle() {
        Some(pool) => pool.join(a, b),
        None => (a(), b()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn par_map_returns_submission_order_under_adversarial_delays() {
        let pool = ThreadPool::new(4);
        // Later submissions finish first: task i sleeps (n - i) ms, so
        // completion order is the exact reverse of submission order.
        let items: Vec<usize> = (0..16).collect();
        let out = pool.par_map(&items, |i, &x| {
            assert_eq!(i, x);
            std::thread::sleep(Duration::from_millis((items.len() - i) as u64));
            x * 10
        });
        assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_zero_and_single_task() {
        let pool = ThreadPool::new(3);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(pool.par_map(&empty, |_, x| *x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |i, x| *x + i as u32), vec![7]);
    }

    #[test]
    fn single_thread_pool_runs_serially_in_order() {
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..8).collect();
        let out = pool.par_map(&items, |i, &x| {
            order.lock().unwrap().push(i);
            x + 1
        });
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.par_map(&[1, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&(0..8).collect::<Vec<_>>(), |_, &x| {
                if x == 5 {
                    panic!("task {x} exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("payload preserved");
        assert_eq!(message, "task 5 exploded");
        // The pool survives a panicked scope and stays usable.
        assert_eq!(pool.par_map(&[1, 2], |_, x| x + 1), vec![2, 3]);
    }

    #[test]
    fn scope_tasks_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        pool.scope(|scope| {
            for chunk in data.chunks(7) {
                let total = &total;
                scope.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), data.iter().sum::<u64>());
    }

    #[test]
    fn join_returns_both_results_in_argument_order() {
        let data: Vec<u64> = (0..100).collect();
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let (sum, max) = pool.join(|| data.iter().sum::<u64>(), || data.iter().copied().max());
            assert_eq!((sum, max), (4950, Some(99)), "{threads} thread(s)");
        }
        // Two tasks that each wait for the other finish only if they run
        // at once.
        let pool = ThreadPool::new(2);
        let arrived = AtomicUsize::new(0);
        let meet = || {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
        };
        pool.join(meet, meet);
    }

    #[test]
    fn observability_counters_advance() {
        let pool = ThreadPool::new(4);
        let busy = AtomicUsize::new(0);
        pool.par_map(&(0..64).collect::<Vec<_>>(), |_, _| {
            busy.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(200));
        });
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        assert!(stats.depth_hwm > 0, "64 queued tasks must register a depth");
        assert!(
            stats.executed + pool.shared.steals.load(Ordering::Relaxed) > 0,
            "workers must have run something"
        );
        assert_eq!(busy.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn module_level_par_map_respects_serial_override() {
        // Not using set_threads here (process-global, other tests race);
        // exercise the serial fallback path directly instead.
        let out: Vec<u32> = super::par_map(&[1u32, 2, 3], |i, x| x + i as u32);
        assert_eq!(out, vec![1, 3, 5]);
    }
}
