//! End-to-end determinism tests for the `pim-par` work pool: the
//! parallel forward path must be **bit-exact** with serial execution —
//! identical logits, identical f64 `PeStats` ledgers — at both the
//! `PeRepNet` level and through the serving runtime. CI runs this as the
//! threads=1 vs threads=4 smoke in the regression gate.

use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_runtime::{CompiledModel, Runtime};
use std::sync::Arc;
use std::time::Duration;

fn tiny_model(seed: u64) -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 5,
            seed,
        },
    )
}

/// Deterministic single-sample inputs matching `BackboneConfig::tiny()`.
fn tiny_inputs(count: usize) -> Vec<Tensor> {
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, count.div_ceil(10))
        .generate()
        .expect("synthetic task");
    (0..count)
        .map(|i| task.test.inputs().batch_item(i))
        .collect()
}

/// A deterministic `[N, C, H, W]` batch from the same generator.
fn tiny_batch(count: usize) -> Tensor {
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, count.div_ceil(10))
        .generate()
        .expect("synthetic task");
    let indices: Vec<usize> = (0..count).collect();
    let (x, _) = task.test.batch(&indices);
    x
}

fn logit_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn parallel_predict_is_bit_exact_with_serial() {
    let model = tiny_model(3);

    let mut serial = PeRepNet::compile(&model).expect("compile");
    let compiled_ledger = serial.cumulative_stats();
    let mut parallel = serial.clone();
    let pool = Arc::new(WorkPool::with_forced_threads(4));
    parallel.attach_pool(Arc::clone(&pool));

    let x = tiny_batch(8);
    let (logits_s, stats_s) = serial.predict(&model, &x);
    let (logits_p, stats_p) = parallel.predict(&model, &x);
    let first = pool.counters();

    assert_eq!(
        logit_bits(&logits_s),
        logit_bits(&logits_p),
        "4-thread logits diverged from serial at the bit level"
    );
    assert_eq!(stats_s, stats_p, "run ledgers must replay identically");
    // Each run is billed to the ledger it returns: at every pool width
    // the tiles keep exactly their compile-time load ledger.
    for branch in [&serial, &parallel] {
        assert_eq!(branch.cumulative_stats(), compiled_ledger);
    }

    // The forced-wide pool dispatches every multi-index grid of the
    // forward pass, and each executed index is counted exactly once: the
    // second, identical pass ran exactly as many indices as the first.
    let (logits_p2, _) = parallel.predict(&model, &x);
    assert_eq!(logit_bits(&logits_p), logit_bits(&logits_p2));
    let c = pool.counters();
    assert!(first.jobs > 0, "a forced 4-wide pool must dispatch");
    let ran = |c: pim_par::PoolCounters| c.caller_tasks + c.worker_tasks;
    assert!(
        ran(first) >= 2 * first.jobs,
        "dispatched grids have >= 2 indices"
    );
    assert_eq!(c.jobs, 2 * first.jobs);
    assert_eq!(ran(c), 2 * ran(first));
    // And on grids the test dispatches itself, the executed count equals
    // the dispatched count exactly.
    let grids = [2usize, 3, 7, 64, 257];
    for &tasks in &grids {
        pool.run(tasks, |_| {});
    }
    let after = pool.counters();
    assert_eq!(after.jobs - c.jobs, grids.len() as u64);
    assert_eq!(ran(after) - ran(c), grids.iter().sum::<usize>() as u64);
}

#[test]
fn runtime_threads_1_and_4_serve_identical_answers() {
    let model = tiny_model(9);
    let inputs = tiny_inputs(12);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serve = |par_threads: usize| {
        let mut builder = Runtime::builder()
            .workers(1)
            .queue_capacity(32)
            .max_batch(4)
            .max_wait(Duration::from_millis(20))
            .par_threads(par_threads);
        let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
        let runtime = builder.start();
        // The runtime clamps the requested width to the physical cores.
        assert_eq!(runtime.par_threads(), par_threads.min(cores));
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| runtime.submit(id, x).expect("submit"))
            .collect();
        let answers: Vec<(Vec<u32>, usize)> = tickets
            .into_iter()
            .map(|t| {
                let r = t.wait().expect("response");
                let bits = r.logits.iter().map(|v| v.to_bits()).collect();
                (bits, r.prediction)
            })
            .collect();
        let counters = runtime.pool_counters();
        let stats = runtime.shutdown();
        assert_eq!(stats.requests_completed, inputs.len() as u64);
        (answers, counters)
    };

    let (serial_answers, serial_counters) = serve(1);
    let (parallel_answers, parallel_counters) = serve(4);

    assert_eq!(
        serial_answers, parallel_answers,
        "served logits must be independent of the pool width"
    );

    // A serial pool never dispatches to workers. A 4-wide pool must have
    // actually fanned work out (and the caller always participates) —
    // unless the host has a single core, where the requested width
    // degrades to the pure-inline path with no dispatch at all.
    assert_eq!(serial_counters.jobs, 0, "a serial pool never dispatches");
    assert_eq!(serial_counters.worker_tasks, 0);
    if cores >= 2 {
        assert!(parallel_counters.jobs > 0, "no parallel jobs ran");
        assert!(
            parallel_counters.caller_tasks + parallel_counters.worker_tasks > 0,
            "jobs ran but no tasks were attributed"
        );
    } else {
        assert_eq!(parallel_counters.jobs, 0, "clamped pool must not dispatch");
        assert_eq!(parallel_counters.worker_tasks, 0);
        assert!(parallel_counters.inline_jobs > 0, "inline path must run");
    }
}
