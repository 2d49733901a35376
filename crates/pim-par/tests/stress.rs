//! Pool hammer tests: many dispatchers, forced-wide pools,
//! randomized task durations and yields — asserting the only invariants
//! that matter: **no lost indices, no duplicated indices, panics propagate
//! and the pool survives them**.
//!
//! Iteration counts scale with `PIM_PAR_STRESS_ITERS` (default 40): the CI
//! stress leg runs these in `--release` with a high count, while a plain
//! `cargo test` stays fast.

use pim_par::WorkPool;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn stress_iters() -> usize {
    std::env::var("PIM_PAR_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(40)
}

/// Deterministic per-test randomness (no external RNG crate): xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn hammer_every_index_exactly_once_across_widths_and_shapes() {
    let iters = stress_iters();
    let mut rng = Rng(0xDEAD_BEEF_1234_5678);
    for round in 0..iters {
        let threads = [1, 2, 3, 4, 8][round % 5];
        let pool = WorkPool::with_forced_threads(threads);
        for _ in 0..4 {
            let tasks = 1 + (rng.next() % 4096) as usize;
            let spin = rng.next() % 64;
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                // Heterogeneous task costs make chunks finish out of order.
                if i % 7 == 0 {
                    for _ in 0..spin {
                        std::hint::spin_loop();
                    }
                }
                if i % 13 == 0 {
                    std::thread::yield_now();
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "index {i} of {tasks} ({threads} threads, round {round})"
                );
            }
        }
    }
}

#[test]
fn hammer_concurrent_dispatchers_conserve_every_job() {
    // N producer threads race one pool; losers of the dispatch gate run
    // inline. Whatever path each job takes, the per-job index sums must
    // all land and the job-count ledger must conserve.
    let iters = stress_iters();
    let producers = 4;
    let jobs_per_producer = 8.max(iters / 2);
    let pool = Arc::new(WorkPool::with_forced_threads(4));
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let mut rng = Rng(0x9E37_79B9 ^ (p as u64 + 1));
                for _ in 0..jobs_per_producer {
                    let tasks = 1 + (rng.next() % 256) as usize;
                    pool.run(tasks, |i| {
                        total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        if i % 11 == 0 {
                            std::thread::yield_now();
                        }
                    });
                    total.fetch_sub((tasks * (tasks + 1) / 2) as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread");
    }
    // Every job contributed Σ(1..=tasks) and subtracted it back: exact
    // conservation means no index was lost or run twice.
    assert_eq!(total.load(Ordering::Relaxed), 0);
    let c = pool.counters();
    assert_eq!(
        c.jobs + c.inline_jobs + c.contended_jobs,
        (producers * jobs_per_producer) as u64,
        "every dispatch accounted for exactly once"
    );
}

#[test]
fn hammer_panics_propagate_and_the_pool_survives() {
    let iters = stress_iters();
    let pool = WorkPool::with_forced_threads(4);
    let mut rng = Rng(0x5851_F42D_4C95_7F2D);
    for round in 0..iters {
        let tasks = 16 + (rng.next() % 512) as usize;
        let victim = (rng.next() % tasks as u64) as usize;
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(tasks, |i| {
                if i == victim {
                    panic!("injected failure at {i}");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(
            result.is_err(),
            "round {round}: panic must reach the caller"
        );
        assert_eq!(
            finished.load(Ordering::Relaxed),
            tasks - 1,
            "round {round}: every non-panicking index still ran"
        );
        // The pool must be fully reusable after each propagated panic.
        let ok = AtomicUsize::new(0);
        pool.run(32, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 32);
    }
}

#[test]
fn hammer_late_joiners_never_run_a_stale_or_foreign_index() {
    // Tiny grids on a wide pool: the dispatcher usually drains the cursor
    // before most workers wake, so workers keep joining generations whose
    // cursor is already exhausted. Retirement must wait for them to check
    // out; a worker that outlived its job would claim an index of the next
    // job with the previous closure, and that job would miss an index.
    let jobs = (50 * stress_iters()).max(2000);
    let pool = WorkPool::with_forced_threads(8);
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    for job in 0..jobs {
        let tasks = 2 + (rng.next() % 3) as usize;
        let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        pool.run(tasks, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} of {tasks} (job {job})"
            );
        }
    }
    let c = pool.counters();
    assert_eq!(
        c.jobs + c.inline_jobs + c.contended_jobs,
        jobs as u64,
        "every dispatch accounted for exactly once"
    );
}
