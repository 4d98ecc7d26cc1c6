//! A persistent work-stealing thread pool for the compute kernels.
//!
//! Spawning fresh workers through `std::thread::scope` on every kernel
//! call cost tens of microseconds per matmul — more than the multiply
//! itself at small and medium sizes. This module replaces that with one
//! lazily-initialized process-wide pool ([`global`]) whose workers are
//! spawned once, park on a condvar when idle, and wake per submission.
//!
//! ## Architecture
//!
//! - One bounded-size deque (`Mutex<VecDeque<Task>>`) per worker. A batch
//!   submission splits its index range into chunk tasks and deals them
//!   round-robin across the deques.
//! - Workers pop their own deque front-first; an empty deque makes the
//!   worker *steal* from the back of a sibling's deque before parking.
//! - The submitting thread participates: it drains tasks alongside the
//!   workers and only blocks (on the batch's completion condvar) when no
//!   queued work is left. A pool sized for `t` configured threads therefore
//!   runs `t - 1` dedicated workers — the caller is the `t`-th.
//! - Nested submissions are fine: a worker that submits a batch from
//!   inside a task helps drain queues (its own sub-tasks included) until
//!   its batch completes, so the pool cannot deadlock on recursion.
//!
//! ## Determinism
//!
//! The pool never influences numerics. Batches are decomposed by *shape
//! only* (fixed chunk sizes, never derived from the worker count), every
//! output element is written by exactly one task, and tasks carry their
//! logical chunk index — which worker executes a chunk, and in what order,
//! is invisible in the result. `crates/tensor/tests/pool_determinism.rs`
//! pins bit-identical kernel outputs across `MOSS_THREADS` ∈ {1, 2, 4, 8}.
//!
//! ## Observability
//!
//! Submissions, steals, and a queue-depth high-water mark are counted on
//! relaxed atomics (readable via [`ThreadPool::stats`]) and mirrored into
//! `moss-obs` (`pool.tasks_submitted` / `pool.tasks_stolen` counters and
//! the `pool.queue_depth` gauge) so `MOSS_OBS=1` run reports show pool
//! behaviour. When observability is disabled the extra cost per batch is
//! one relaxed atomic load per moss-obs call site.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One unit of queued work: a chunk index of some in-flight batch.
struct Task {
    batch: Arc<Batch>,
    chunk: usize,
}

/// An in-flight `run_indexed` call. The closure pointer's lifetime is
/// erased; see the safety argument on [`ThreadPool::run_indexed`].
struct Batch {
    run: *const (dyn Fn(usize) + Sync),
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done: Condvar,
}

// SAFETY: `run` points at a `Sync` closure that `run_indexed` keeps alive
// (and borrows valid) until `remaining` reaches zero — it blocks before
// returning. Tasks only dereference `run` while `remaining > 0`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Executes one chunk and signals completion. Panics in the closure
    /// are caught so `remaining` always reaches zero (a poisoned batch
    /// re-panics on the submitting thread).
    fn execute(&self, chunk: usize) {
        // SAFETY: remaining > 0 (this task exists), so the closure borrow
        // is still live per the contract above.
        let run = unsafe { &*self.run };
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(chunk))).is_err() {
            self.panicked.store(true, Ordering::Release);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Lock pairs with the waiter's check-then-wait so the final
            // notify cannot slip between its load and its `wait`.
            let _g = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.done.notify_all();
        }
    }
}

/// Counters the pool maintains unconditionally (relaxed atomics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks ever submitted to worker deques.
    pub tasks_submitted: u64,
    /// Tasks executed by a thread other than the deque's owner (stolen),
    /// including tasks drained by the submitting thread.
    pub tasks_stolen: u64,
    /// High-water mark of queued (not yet claimed) tasks.
    pub max_queue_depth: u64,
    /// Dedicated worker threads currently alive.
    pub live_workers: usize,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Guards the park/unpark handshake (`wake` waits on it).
    park_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    live: AtomicUsize,
    submitted: AtomicU64,
    stolen: AtomicU64,
    queued: AtomicU64,
    max_depth: AtomicU64,
}

impl Shared {
    /// Pops a task: own deque front first, then steal from siblings'
    /// backs. `me` is the worker index, or `None` for the submitting
    /// thread (everything it takes counts as a steal).
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(me) = me {
            if let Some(t) = self.queues[me]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
            {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        let n = self.queues.len();
        let start = me.map_or(0, |m| m + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.queues[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back()
            {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                self.stolen.fetch_add(1, Ordering::Relaxed);
                moss_obs::counter("pool.tasks_stolen", 1);
                return Some(t);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queued.load(Ordering::Acquire) > 0
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    shared.live.fetch_add(1, Ordering::SeqCst);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Some(task) = shared.find_task(Some(me)) {
            task.batch.execute(task.chunk);
            continue;
        }
        // Park. The re-check under `park_lock` pairs with submitters
        // notifying under the same lock, so a push cannot be missed.
        let guard = shared.park_lock.lock().unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::Acquire) || shared.has_work() {
            continue;
        }
        drop(shared.wake.wait(guard));
    }
    shared.live.fetch_sub(1, Ordering::SeqCst);
}

/// A persistent pool of worker threads. Construct via [`ThreadPool::new`]
/// for an owned pool (joined on drop) or use the process-wide [`global`].
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl ThreadPool {
    /// A pool sized for `threads` total compute threads: `threads - 1`
    /// dedicated workers (the submitting thread is the last). `threads`
    /// of 0 or 1 gives a pool with no workers; every submission then runs
    /// inline on the caller.
    pub fn new(threads: usize) -> ThreadPool {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            park_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("moss-pool-{me}"))
                    .spawn(move || worker_loop(shared, me))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Dedicated worker threads (total parallelism is one more: the
    /// submitting thread participates).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Current counter values.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks_submitted: self.shared.submitted.load(Ordering::Relaxed),
            tasks_stolen: self.shared.stolen.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_depth.load(Ordering::Relaxed),
            live_workers: self.shared.live.load(Ordering::SeqCst),
        }
    }

    /// Runs `f(chunk)` for every `chunk` in `0..chunks`, fanning the
    /// chunks out across the pool. Blocks until all chunks finished; the
    /// submitting thread executes chunks too. With no workers (or a
    /// single chunk) everything runs inline, in chunk order.
    ///
    /// `f` must partition its work by chunk index alone: each chunk is
    /// executed exactly once, on an arbitrary thread, in an arbitrary
    /// order. Determinism is the *caller's* decomposition property — see
    /// the module docs.
    ///
    /// # Panics
    ///
    /// Re-panics on the submitting thread if any chunk panicked.
    pub fn run_indexed(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let workers = self.shared.queues.len();
        if workers == 0 || chunks == 1 {
            // Still counted as submitted work: on a zero-worker pool (one
            // core, or `MOSS_THREADS=1`) the report should show how much
            // traffic the pool *would* carry, not read as idle.
            self.shared
                .submitted
                .fetch_add(chunks as u64, Ordering::Relaxed);
            moss_obs::counter("pool.tasks_submitted", chunks as u64);
            for chunk in 0..chunks {
                f(chunk);
            }
            return;
        }

        // SAFETY: erase the borrow's lifetime to store it in the 'static
        // task queue. The loop below does not return until `remaining`
        // hits zero, and no task dereferences the pointer afterwards, so
        // the borrow outlives every use.
        let run: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let batch = Arc::new(Batch {
            run,
            remaining: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });

        self.shared
            .submitted
            .fetch_add(chunks as u64, Ordering::Relaxed);
        moss_obs::counter("pool.tasks_submitted", chunks as u64);
        let depth = self
            .shared
            .queued
            .fetch_add(chunks as u64, Ordering::AcqRel)
            + chunks as u64;
        self.shared.max_depth.fetch_max(depth, Ordering::Relaxed);
        moss_obs::gauge_max("pool.queue_depth", depth);
        for chunk in 0..chunks {
            self.shared.queues[chunk % workers]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(Task {
                    batch: Arc::clone(&batch),
                    chunk,
                });
        }
        {
            let _g = self
                .shared
                .park_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            self.shared.wake.notify_all();
        }

        // Participate until this batch is done. Any queued task (ours or a
        // nested batch's) is progress; block only when the queues are dry.
        while batch.remaining.load(Ordering::Acquire) != 0 {
            match self.shared.find_task(None) {
                Some(task) => task.batch.execute(task.chunk),
                None => {
                    let mut g = batch.done_lock.lock().unwrap_or_else(|e| e.into_inner());
                    while batch.remaining.load(Ordering::Acquire) != 0 {
                        if self.shared.has_work() {
                            // A nested batch landed while we slept; go
                            // help instead of idling.
                            break;
                        }
                        g = batch.done.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }
        if batch.panicked.load(Ordering::Acquire) {
            panic!("moss-tensor pool task panicked");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self
                .shared
                .park_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The process-wide worker count: `MOSS_THREADS` if set to a positive
/// integer, else `std::thread::available_parallelism`.
pub fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("MOSS_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The process-wide pool, lazily spawned on first use and sized by
/// [`configured_threads`]. Never torn down; its workers park when idle.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(configured_threads()))
}

/// A pool pinned to exactly `threads` compute threads. The process keeps
/// one pool per distinct count (created on demand, leaked — this exists
/// for `Kernels::with_threads` and the determinism tests, which compare a
/// handful of fixed counts).
pub fn with_threads(threads: usize) -> &'static ThreadPool {
    static PINNED: OnceLock<Mutex<Vec<(usize, &'static ThreadPool)>>> = OnceLock::new();
    let registry = PINNED.get_or_init(|| Mutex::new(Vec::new()));
    let mut pools = registry.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&(_, pool)) = pools.iter().find(|&&(n, _)| n == threads) {
        return pool;
    }
    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(threads)));
    pools.push((threads, pool));
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let stats = pool.stats();
        assert_eq!(stats.tasks_submitted, 1000);
        assert!(stats.max_queue_depth > 0);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 0);
        let mut order = Vec::new();
        let cell = std::sync::Mutex::new(&mut order);
        pool.run_indexed(5, &|i| cell.lock().unwrap().push(i));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_submissions_complete() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        pool.run_indexed(8, &|_| {
            pool.run_indexed(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(5);
        let shared = Arc::clone(&pool.shared);
        pool.run_indexed(64, &|_| {});
        // Workers may still be starting; live peaks at 4.
        drop(pool);
        assert_eq!(
            shared.live.load(Ordering::SeqCst),
            0,
            "workers lingered after pool teardown"
        );
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_indexed(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must stay usable after a panicked batch.
        let ok = AtomicUsize::new(0);
        pool.run_indexed(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }
}
