//! A persistent thread pool for the compute kernels.
//!
//! Spawning fresh workers through `std::thread::scope` on every kernel
//! call cost tens of microseconds per matmul — more than the multiply
//! itself at small and medium sizes. This module replaces that with one
//! lazily-initialized process-wide pool ([`global`]) whose workers are
//! spawned once, park on a condvar when idle, and wake per submission.
//!
//! ## Architecture
//!
//! - The pool keeps one list of open batches. A batch is one
//!   `run_indexed` call: the closure, an atomic claim cursor over its
//!   chunk indices, and a count of chunks not yet finished.
//! - Any thread claims the next chunk of a batch with one `fetch_add` on
//!   its cursor. A claim that lands past the last chunk means the batch is
//!   fully claimed; that thread unlists it.
//! - An idle worker takes the newest open batch and claims its chunks
//!   until none are left, then looks again, or parks when the list is
//!   empty.
//! - The submitting thread lists its batch, wakes the workers and claims
//!   chunks of *its own batch only*. Once every chunk is claimed it waits
//!   for the chunks other threads are still running. A pool sized for `t`
//!   configured threads therefore runs `t - 1` dedicated workers — the
//!   caller is the `t`-th.
//!
//! ## Why nesting cannot deadlock
//!
//! A submitter waits only after it has claimed every chunk of its batch
//! that nobody else claimed, so it waits only on chunks that are already
//! running on some other thread. A worker that submits from inside a chunk
//! is itself a submitter: it resolves its nested batch the same way before
//! its outer chunk can finish. So a running chunk waits only on batches
//! one nesting depth further in, the deepest batches wait on nothing, and
//! every wait ends.
//!
//! ## Determinism
//!
//! The pool never influences numerics. Batches are decomposed by *shape
//! only* (fixed chunk sizes, never derived from the worker count), every
//! output element is written by exactly one chunk, and each chunk receives
//! its logical index — which thread executes a chunk, and in what order,
//! is invisible in the result. `crates/tensor/tests/pool_determinism.rs`
//! pins bit-identical kernel outputs across `MOSS_THREADS` ∈ {1, 2, 4, 8}.
//!
//! ## Observability
//!
//! Submitted chunks are counted on a relaxed atomic (readable via
//! [`ThreadPool::stats`]) and mirrored into the `moss-obs`
//! `pool.tasks_submitted` counter. A batch captures its submitter's span
//! path ([`moss_obs::current_path`]), and a worker runs the batch's chunks
//! under that path, so a stage's spans report under the stage that
//! submitted them whichever thread ran them. When observability is
//! disabled the extra cost per batch is one relaxed atomic load per
//! moss-obs call site.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};

/// An in-flight `run_indexed` call. The closure pointer's lifetime is
/// erased; see the safety argument on [`ThreadPool::run_indexed`].
struct Batch {
    run: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The next unclaimed chunk index; at or past `chunks` once every
    /// chunk is claimed.
    next: AtomicUsize,
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// The submitter's span path, entered by the workers that run chunks.
    path: moss_obs::SpanPath,
    /// Unparked when `remaining` reaches zero.
    submitter: Thread,
}

// SAFETY: `run` points at a `Sync` closure that `run_indexed` keeps alive
// (and borrows valid) until `remaining` reaches zero — it blocks before
// returning. `run` is dereferenced only for a claimed chunk, and a chunk
// stays unfinished (so `remaining > 0`) until its call returns. Every
// other field is `Send + Sync` on its own.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and executes chunks until the cursor passes the last one.
    /// Panics in the closure are caught so `remaining` always reaches zero
    /// (a poisoned batch re-panics on the submitting thread).
    fn drain(&self) {
        loop {
            // Relaxed: the cursor only hands out distinct indices. The
            // batch and its closure reached this thread through the `open`
            // mutex (or were built on it), and `remaining`'s AcqRel
            // decrement publishes the chunk's writes to the submitter.
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            // SAFETY: `chunk` is claimed and unfinished, so the closure
            // borrow is still live per the contract above.
            let run = unsafe { &*self.run };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(chunk))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.submitter.unpark();
            }
        }
    }
}

/// Counters the pool maintains unconditionally (relaxed atomics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks ever submitted, including those run inline.
    pub tasks_submitted: u64,
    /// Dedicated worker threads currently alive.
    pub live_workers: usize,
}

struct Shared {
    /// Batches that may still have unclaimed chunks, oldest first.
    open: Mutex<Vec<Arc<Batch>>>,
    /// Idle workers wait on it (with `open` held).
    wake: Condvar,
    shutdown: AtomicBool,
    live: AtomicUsize,
    submitted: AtomicU64,
}

impl Shared {
    fn open(&self) -> MutexGuard<'_, Vec<Arc<Batch>>> {
        self.open.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Removes a fully claimed batch from the open list (idempotent).
fn unlist(open: &mut Vec<Arc<Batch>>, batch: &Arc<Batch>) {
    open.retain(|b| !Arc::ptr_eq(b, batch));
}

fn worker_loop(shared: Arc<Shared>) {
    shared.live.fetch_add(1, Ordering::SeqCst);
    let mut open = shared.open();
    while !shared.shutdown.load(Ordering::Acquire) {
        let Some(batch) = open.last().cloned() else {
            open = shared.wake.wait(open).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        drop(open);
        {
            let _path = batch.path.enter();
            batch.drain();
        }
        open = shared.open();
        unlist(&mut open, &batch);
    }
    drop(open);
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
        let shared = Arc::new(Shared {
            open: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
        });
        let handles = (0..threads.saturating_sub(1))
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("moss-pool-{me}"))
                    .spawn(move || worker_loop(shared))
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
        // Counted on the inline path too: on a zero-worker pool (one core,
        // or `MOSS_THREADS=1`) the report should show how much traffic the
        // pool *would* carry, not read as idle.
        self.shared
            .submitted
            .fetch_add(chunks as u64, Ordering::Relaxed);
        moss_obs::counter("pool.tasks_submitted", chunks as u64);
        if self.handles.is_empty() || chunks == 1 {
            for chunk in 0..chunks {
                f(chunk);
            }
            return;
        }

        // SAFETY: erase the borrow's lifetime to store it in the 'static
        // open list. This call does not return until `remaining` hits
        // zero, and only a claimed, unfinished chunk dereferences the
        // pointer, so the borrow outlives every use.
        let run: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let batch = Arc::new(Batch {
            run,
            chunks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(chunks),
            panicked: AtomicBool::new(false),
            path: moss_obs::current_path(),
            submitter: std::thread::current(),
        });
        self.shared.open().push(Arc::clone(&batch));
        self.shared.wake.notify_all();

        batch.drain();
        unlist(&mut self.shared.open(), &batch);
        // Every chunk is claimed; wait for the ones other threads run.
        while batch.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
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
            let _open = self.shared.open();
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
        assert_eq!(pool.stats().tasks_submitted, 1000);
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
    fn concurrent_submitters_with_nested_batches_run_each_index_once() {
        const SUBMITTERS: usize = 8;
        const OUTER: usize = 6;
        const INNER: usize = 5;
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..SUBMITTERS * OUTER * INNER)
            .map(|_| AtomicUsize::new(0))
            .collect();
        let start = std::sync::Barrier::new(SUBMITTERS);
        std::thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let (pool, hits, start) = (&pool, &hits, &start);
                s.spawn(move || {
                    start.wait();
                    pool.run_indexed(OUTER, &|o| {
                        pool.run_indexed(INNER, &|i| {
                            hits[(t * OUTER + o) * INNER + i].fetch_add(1, Ordering::Relaxed);
                        });
                    });
                });
            }
        });
        let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![1; SUBMITTERS * OUTER * INNER]);
        let per_submitter = (OUTER + OUTER * INNER) as u64;
        assert_eq!(
            pool.stats().tasks_submitted,
            SUBMITTERS as u64 * per_submitter
        );
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
