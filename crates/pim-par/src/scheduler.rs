//! The shared-cursor chunk scheduler behind [`WorkPool`](crate::WorkPool).
//!
//! One job runs at a time (the pool's dispatch gate serializes callers).
//! The dispatcher resets the job's cursor, publishes a [`JobDesc`] under
//! the state mutex, wakes the workers, and then participates as executor
//! 0. Every executor runs the same loop: claim the next `grain` indices
//! with one `fetch_add` on the shared cursor, run them, add their count to
//! `completed`, and stop once a claim lands at or past `total`.
//!
//! Retiring a job takes two conditions. `completed == total` says every
//! index ran; `active == 0` says every worker that joined the job has
//! checked out. The second is what makes the lifetime erasure sound: a
//! worker copies the closure when it joins, and a late joiner may still be
//! about to touch the cursor after the last index finished. Only once it
//! has checked out may the dispatcher reset the cursor for the next job or
//! let the caller's closure die.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A lifetime-erased reference to the job closure. Only ever dereferenced
/// while the dispatching [`run`](crate::WorkPool::run) is blocked on the
/// job's retirement, which keeps the closure alive on the caller's stack.
pub(crate) type TaskFn = &'static (dyn Fn(usize) + Sync);

/// Cumulative pool activity counters (monotone; relaxed atomics).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Jobs dispatched across the worker threads.
    pub jobs: AtomicU64,
    /// Jobs run inline because the pool is serial or the grid is trivial.
    pub inline_jobs: AtomicU64,
    /// Jobs run inline because another dispatch held the pool.
    pub contended_jobs: AtomicU64,
    /// Task indices executed by the dispatching caller of a job.
    pub caller_tasks: AtomicU64,
    /// Task indices executed by pool workers.
    pub worker_tasks: AtomicU64,
}

/// The published description of the in-flight job. `Copy` so every
/// executor takes a private snapshot under the state mutex.
#[derive(Clone, Copy)]
struct JobDesc {
    f: TaskFn,
    total: usize,
    /// Indices claimed per cursor `fetch_add`.
    grain: usize,
    /// Monotone job id; a worker joins each generation at most once.
    gen: u64,
}

struct PoolState {
    job: Option<JobDesc>,
    shutdown: bool,
    /// Workers currently checked into the published job.
    active: usize,
    gen: u64,
}

/// Everything the executors share. Owned by the pool via `Arc`.
pub(crate) struct Shared {
    state: Mutex<PoolState>,
    /// Signaled when a job is published and at shutdown.
    work_ready: Condvar,
    /// Signaled when the last joined worker checks out.
    job_done: Condvar,
    /// The next unclaimed index of the current job.
    next: AtomicUsize,
    /// Indices finished (successfully or by panicking) in the current job.
    completed: AtomicUsize,
    panicked: AtomicBool,
}

/// The dispatcher's wait on the completion count: exponential spin rounds,
/// then yields, then the condvar.
const SPIN_ROUNDS: u32 = 6;
const YIELD_ROUNDS: u32 = 4;

impl Shared {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(PoolState {
                job: None,
                shutdown: false,
                active: 0,
                gen: 0,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        self.state.lock().expect("pool state lock").shutdown = true;
        self.work_ready.notify_all();
    }
}

/// Dispatches one job and blocks until it is retired. Returns whether any
/// task panicked. Caller holds the pool's dispatch gate.
pub(crate) fn run_job(
    shared: &Shared,
    counters: &Counters,
    f: TaskFn,
    total: usize,
    grain: usize,
) -> bool {
    // Reset is safe outside the lock: the previous job retired with
    // `active == 0` and `job == None`, so no executor touches these until
    // the publish below, whose unlock releases the stores to every joiner.
    shared.next.store(0, Ordering::Relaxed);
    shared.completed.store(0, Ordering::Relaxed);
    shared.panicked.store(false, Ordering::Relaxed);
    let job = {
        let mut st = shared.state.lock().expect("pool state lock");
        debug_assert!(st.job.is_none(), "dispatch gate admits one job at a time");
        st.gen += 1;
        let job = JobDesc {
            f,
            total,
            grain: grain.max(1),
            gen: st.gen,
        };
        st.job = Some(job);
        job
    };
    shared.work_ready.notify_all();
    execute(&job, shared, &counters.caller_tasks);
    // Whatever is still running belongs to a worker that will finish it
    // within microseconds; a condvar sleep costs more than that.
    for round in 0..SPIN_ROUNDS + YIELD_ROUNDS {
        if shared.completed.load(Ordering::Acquire) >= total {
            break;
        }
        if round < SPIN_ROUNDS {
            for _ in 0..(1u32 << round) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
    }
    let mut st = shared.state.lock().expect("pool state lock");
    // Every claimed chunk belongs to the dispatcher (finished above) or to
    // a checked-in worker, so `active == 0` implies `completed == total`.
    while st.active > 0 {
        st = shared.job_done.wait(st).expect("pool state lock");
    }
    debug_assert_eq!(shared.completed.load(Ordering::Acquire), total);
    st.job = None;
    drop(st);
    shared.panicked.load(Ordering::Relaxed)
}

/// The persistent worker thread body. `slot` is the executor's
/// [`current_executor`](crate::current_executor) tag (1-based; 0 is the
/// dispatching caller).
pub(crate) fn worker_loop(slot: usize, shared: &Shared, counters: &Counters) {
    crate::arena::set_executor(slot);
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state lock");
            loop {
                match st.job {
                    Some(j) if j.gen != seen => {
                        seen = j.gen;
                        st.active += 1;
                        break j;
                    }
                    _ => {
                        if st.shutdown {
                            return;
                        }
                        st = shared.work_ready.wait(st).expect("pool state lock");
                    }
                }
            }
        };
        execute(&job, shared, &counters.worker_tasks);
        let mut st = shared.state.lock().expect("pool state lock");
        st.active -= 1;
        if st.active == 0 {
            shared.job_done.notify_one();
        }
    }
}

/// One executor's participation in one job: claim and run chunks until
/// the cursor is exhausted.
fn execute(job: &JobDesc, shared: &Shared, task_ctr: &AtomicU64) {
    let f = job.f;
    let mut ran = 0;
    loop {
        let start = shared.next.fetch_add(job.grain, Ordering::Relaxed);
        if start >= job.total {
            break;
        }
        let end = (start + job.grain).min(job.total);
        for i in start..end {
            // Catch per index: a panicking index must not take the rest of
            // its chunk down with it (the join contract is "every
            // non-panicking index ran").
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                shared.panicked.store(true, Ordering::Relaxed);
            }
        }
        ran += end - start;
        shared.completed.fetch_add(end - start, Ordering::AcqRel);
    }
    task_ctr.fetch_add(ran as u64, Ordering::Relaxed);
}
