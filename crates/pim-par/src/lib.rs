//! Shared-cursor fork-join pool over a fixed set of persistent threads.
//!
//! The hybrid accelerator gets its throughput from many PE tiles operating
//! concurrently; the simulator mirrors that tile-level parallelism on the
//! host with this crate. [`WorkPool::run`] dispatches a task grid
//! (`0..tasks`) across the pool's persistent worker threads **and the
//! calling thread**, blocking until every task has finished — a scoped
//! fork-join, so task closures may borrow from the caller's stack.
//!
//! Design constraints, in order:
//!
//! * **std-only.** The workspace builds fully offline from vendored
//!   sources; this crate has no dependencies at all.
//! * **Determinism-friendly.** The pool never reorders *results* — callers
//!   hand out disjoint index ranges (see [`SharedSliceMut`]) and fold any
//!   order-sensitive accounting sequentially after the join. Nothing about
//!   scheduling leaks into outputs.
//! * **Degrades to serial.** A pool built with one thread — or built on a
//!   host with a single available core, where extra executors can only
//!   time-slice — spawns nothing and runs every task inline on the caller,
//!   byte-for-byte the serial code path with no dispatch attempt and no
//!   lock traffic. Concurrent dispatchers (e.g. several serving workers
//!   sharing one pool) never block each other: a contended dispatch also
//!   falls back to inline execution.
//! * **Idle workers sleep.** Workers park on a condvar between jobs.
//!
//! The fan-outs this pool serves are regular (tiles × batch blocks,
//! backbone row splits), so scheduling is one shared cursor: every
//! executor claims contiguous chunks of `tasks / (threads · 8)` indices
//! with a single `fetch_add` until the grid is exhausted. See `DESIGN.md`
//! §8 for the memory-ordering argument.

mod arena;
mod scheduler;
mod slice;

pub use arena::{current_executor, ScratchArena};
pub use slice::SharedSliceMut;

use scheduler::{Counters, Shared, TaskFn};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A point-in-time snapshot of a pool's internal counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolCounters {
    /// Jobs dispatched across the worker threads.
    pub jobs: u64,
    /// Jobs run inline (serial pool or single-task grid).
    pub inline_jobs: u64,
    /// Jobs run inline because another dispatch held the pool.
    pub contended_jobs: u64,
    /// Task indices executed by dispatching callers.
    pub caller_tasks: u64,
    /// Task indices executed by pool workers.
    pub worker_tasks: u64,
    /// Always 0: the shared-cursor pool has no deques to steal from. Kept
    /// so existing readers of the counter snapshot still build.
    pub steals: u64,
    /// Always 0: executors never park mid-job. Kept so existing readers of
    /// the counter snapshot still build.
    pub parks: u64,
}

/// Chunks per executor in a dispatched grid: enough slack for the ~2× cost
/// skew between packed and flat tiles to even out, coarse enough that
/// cursor traffic stays a rounding error.
const CHUNKS_PER_EXECUTOR: usize = 8;

/// A fixed-size pool of persistent worker threads for scoped fork-join
/// dispatch.
///
/// `WorkPool::new(n)` spawns `n - 1` workers; the caller of
/// [`run`](Self::run) is always the n-th executor. `n = 1` spawns nothing
/// and every job runs inline — the serial code path, bit-for-bit. The
/// requested width is clamped to the host's available cores: on a
/// single-core runner every pool is serial (extra executors could only
/// time-slice the one core and the dispatch overhead would make "parallel"
/// strictly slower than serial).
///
/// # Example
///
/// ```
/// use pim_par::{SharedSliceMut, WorkPool};
///
/// let pool = WorkPool::new(4);
/// let mut squares = vec![0u64; 1000];
/// {
///     let out = SharedSliceMut::new(&mut squares);
///     pool.for_each_chunk(1000, 128, |range| {
///         // SAFETY: chunk ranges from `for_each_chunk` are disjoint.
///         let chunk = unsafe { out.slice(range.clone()) };
///         for (v, i) in chunk.iter_mut().zip(range) {
///             *v = (i as u64) * (i as u64);
///         }
///     });
/// }
/// assert_eq!(squares[31], 961);
/// ```
pub struct WorkPool {
    /// `None` for a serial pool (one thread, nothing spawned).
    inner: Option<Arc<Shared>>,
    /// One dispatch at a time; `try_lock` losers run inline instead of
    /// queueing behind a foreign job.
    dispatch: Mutex<()>,
    counters: Arc<Counters>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// Creates a pool of `threads` executors (min 1): `threads - 1`
    /// persistent workers plus the dispatching caller. The width is
    /// clamped to the host's available cores, so on a single-core runner
    /// the pool degrades to pure-inline execution (no workers spawned, no
    /// dispatch attempt, no lock traffic) and can never be slower than
    /// the serial path.
    pub fn new(threads: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_forced_threads(threads.min(cores))
    }

    /// [`new`](Self::new) without the available-core clamp — a test/bench
    /// hook so dispatch and counter behaviour stay exercised on
    /// single-core CI runners. Production callers want `new`.
    pub fn with_forced_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let counters = Arc::new(Counters::default());
        if threads == 1 {
            return Self {
                inner: None,
                dispatch: Mutex::new(()),
                counters,
                threads,
                handles: Vec::new(),
            };
        }
        let inner = Arc::new(Shared::new());
        let handles = (0..threads - 1)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("pim-par-{i}"))
                    .spawn(move || scheduler::worker_loop(i + 1, &inner, &counters))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self {
            inner: Some(inner),
            dispatch: Mutex::new(()),
            counters,
            threads,
            handles,
        }
    }

    /// A serial pool: every job runs inline on the caller.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A shared `'static` serial pool for fallback paths that need a
    /// `&WorkPool` but were not given one — avoids constructing (and
    /// dropping) a pool per call on hot paths.
    pub fn serial_ref() -> &'static WorkPool {
        static SERIAL: OnceLock<WorkPool> = OnceLock::new();
        SERIAL.get_or_init(WorkPool::serial)
    }

    /// Executor count (workers + the dispatching caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the cumulative activity counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            inline_jobs: self.counters.inline_jobs.load(Ordering::Relaxed),
            contended_jobs: self.counters.contended_jobs.load(Ordering::Relaxed),
            caller_tasks: self.counters.caller_tasks.load(Ordering::Relaxed),
            worker_tasks: self.counters.worker_tasks.load(Ordering::Relaxed),
            steals: 0,
            parks: 0,
        }
    }

    /// Runs `f(i)` for every `i in 0..tasks`, fanning the indices out over
    /// the pool, and returns when **all** of them have finished. The
    /// caller participates, so a serial pool (or a single-task grid, or a
    /// contended dispatch) degrades to a plain inline loop.
    ///
    /// Each index is executed exactly once. No ordering is guaranteed
    /// between tasks — callers needing a deterministic fold run it
    /// sequentially after `run` returns.
    ///
    /// # Panics
    ///
    /// If any task panics, `run` panics after every task has completed
    /// (the scope never leaks running borrows).
    pub fn run<F: Fn(usize) + Sync>(&self, tasks: usize, f: F) {
        if tasks == 0 {
            return;
        }
        let shared = match &self.inner {
            Some(shared) if tasks > 1 => shared,
            _ => return self.run_inline(tasks, &f, &self.counters.inline_jobs),
        };
        let Ok(gate) = self.dispatch.try_lock() else {
            return self.run_inline(tasks, &f, &self.counters.contended_jobs);
        };
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        let grain = (tasks / (self.threads * CHUNKS_PER_EXECUTOR)).max(1);
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the 'static lifetime is a lie told only to the workers.
        // `run_job` does not return (and `f` is not dropped) until every
        // index has completed *and* every worker that joined the job has
        // checked back out, so no worker can observe the closure after it
        // dies — not even one that copied the descriptor and stalled.
        let erased: TaskFn = unsafe { std::mem::transmute(erased) };
        let panicked = scheduler::run_job(shared, &self.counters, erased, tasks, grain);
        drop(gate);
        assert!(!panicked, "pim-par: a parallel task panicked");
    }

    /// [`run`](Self::run) over `⌈total / chunk⌉` contiguous index ranges:
    /// task `t` receives `t·chunk .. min((t+1)·chunk, total)`. The ranges
    /// partition `0..total`, which is what makes disjoint
    /// [`SharedSliceMut`] writes safe.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn for_each_chunk<F>(&self, total: usize, chunk: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if total == 0 {
            return;
        }
        self.run(total.div_ceil(chunk), |t| {
            let start = t * chunk;
            f(start..(start + chunk).min(total));
        });
    }

    fn run_inline(
        &self,
        tasks: usize,
        f: &(impl Fn(usize) + Sync),
        counter: &std::sync::atomic::AtomicU64,
    ) {
        counter.fetch_add(1, Ordering::Relaxed);
        for i in 0..tasks {
            f(i);
        }
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("threads", &self.threads)
            .field("counters", &self.counters())
            .finish()
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            inner.begin_shutdown();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn every_index_runs_exactly_once() {
        // Forced widths: the available-core clamp must not hide the
        // dispatch path on a single-core CI runner.
        for threads in [1, 2, 4] {
            let pool = WorkPool::with_forced_threads(threads);
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "index {i} ({threads} threads)"
                );
            }
        }
    }

    #[test]
    fn serial_pool_spawns_nothing_and_runs_inline() {
        let pool = WorkPool::serial();
        assert_eq!(pool.threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        let c = pool.counters();
        assert_eq!(c.jobs, 0);
        assert_eq!(c.inline_jobs, 1);
        assert_eq!(c.worker_tasks, 0);
        assert_eq!((c.steals, c.parks), (0, 0));
    }

    #[test]
    fn serial_ref_is_shared_and_serial() {
        let a = WorkPool::serial_ref();
        let b = WorkPool::serial_ref();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.threads(), 1);
        let sum = AtomicU64::new(0);
        a.run(4, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn chunked_ranges_partition_the_total() {
        let pool = WorkPool::with_forced_threads(3);
        let mut seen = vec![0u8; 1001];
        {
            let out = SharedSliceMut::new(&mut seen);
            pool.for_each_chunk(1001, 64, |range| {
                // SAFETY: chunk ranges are disjoint by construction.
                for v in unsafe { out.slice(range) } {
                    *v += 1;
                }
            });
        }
        assert!(seen.iter().all(|&v| v == 1));
    }

    #[test]
    fn disjoint_parallel_writes_land() {
        let pool = WorkPool::with_forced_threads(4);
        let mut data = vec![0u64; 256];
        {
            let out = SharedSliceMut::new(&mut data);
            pool.run(256, |i| {
                // SAFETY: each task owns exactly element i.
                unsafe { out.slice(i..i + 1)[0] = 3 * i as u64 + 1 };
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == 3 * i as u64 + 1));
    }

    #[test]
    fn zero_and_single_task_grids_are_fine() {
        let pool = WorkPool::new(4);
        pool.run(0, |_| panic!("never called"));
        let ran = AtomicUsize::new(0);
        pool.run(1, |i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        pool.for_each_chunk(0, 8, |_| panic!("never called"));
    }

    #[test]
    fn task_panic_propagates_after_the_join() {
        let pool = WorkPool::with_forced_threads(4);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        // The join completed: every non-panicking task ran.
        assert_eq!(finished.load(Ordering::Relaxed), 15);
        // And the pool is still usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.run(8, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_dispatchers_fall_back_instead_of_blocking() {
        let pool = Arc::new(WorkPool::with_forced_threads(2));
        let total = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(8, |i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("dispatcher thread");
        }
        // 4 dispatchers × 50 jobs × Σ(1..=8) — nothing lost, nothing extra.
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 36);
        let c = pool.counters();
        assert_eq!(c.jobs + c.inline_jobs + c.contended_jobs, 200);
    }

    #[test]
    fn counters_attribute_tasks_to_executors() {
        let pool = WorkPool::with_forced_threads(4);
        pool.run(32, |_| {
            std::thread::yield_now();
        });
        let c = pool.counters();
        assert_eq!(c.jobs, 1);
        assert_eq!(c.caller_tasks + c.worker_tasks, 32);
    }

    #[test]
    fn requested_width_is_clamped_to_available_cores() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = WorkPool::new(1024);
        assert!(pool.threads() <= cores, "width never exceeds the host");
        // On a single-core host the clamp makes the pool fully serial:
        // every job is inline, nothing is ever dispatched.
        if cores == 1 {
            let sum = AtomicU64::new(0);
            pool.run(16, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 120);
            let c = pool.counters();
            assert_eq!(c.jobs, 0);
            assert_eq!(c.inline_jobs, 1);
            assert_eq!(c.worker_tasks, 0);
        }
    }
}
