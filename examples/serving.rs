//! Batched inference serving over the hybrid PE simulators.
//!
//! Compiles a RepNet once, starts a four-worker runtime, and fires 120
//! concurrent synthetic requests at it from eight client threads,
//! printing throughput, p50/p99 simulated latency, and the aggregate
//! energy/EDP bill. A spot-check confirms batched results are bit-exact
//! with sequential single-sample inference.
//!
//! Run with: `cargo run --release --example serving`

use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, InferResponse, Runtime, RuntimeError};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

const WORKERS: usize = 4;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 15;
const NUM_CLASSES: usize = 10;

fn main() {
    let total_requests = CLIENTS * REQUESTS_PER_CLIENT;
    println!("=== pim-runtime: batched inference serving ===\n");

    // -- Compile once ----------------------------------------------------
    let model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: NUM_CLASSES,
            seed: 42,
        },
    );
    let compiled = CompiledModel::compile("repnet-tiny", &model).expect("model fits the PEs");
    println!("compiled {compiled}");
    println!(
        "one-time lowering cost: {} tile loads, {}, {}\n",
        compiled.compile_stats().loads,
        compiled.compile_stats().busy_time,
        compiled.compile_stats().total_energy(),
    );

    // -- Synthetic request stream ----------------------------------------
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, total_requests.div_ceil(NUM_CLASSES))
        .generate()
        .expect("synthetic task");
    let inputs: Vec<Tensor> = (0..total_requests)
        .map(|i| task.test.inputs().batch_item(i))
        .collect();

    // -- Serve ------------------------------------------------------------
    let mut builder = Runtime::builder()
        .workers(WORKERS)
        .queue_capacity(64)
        .max_batch(8)
        .max_wait(Duration::from_millis(1));
    let id = builder.register(compiled);
    let runtime = builder.start();

    let responses: Mutex<Vec<(usize, InferResponse)>> =
        Mutex::new(Vec::with_capacity(total_requests));
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let runtime = &runtime;
            let inputs = &inputs;
            let responses = &responses;
            scope.spawn(move || {
                for r in 0..REQUESTS_PER_CLIENT {
                    let sample = client * REQUESTS_PER_CLIENT + r;
                    let ticket = loop {
                        match runtime.submit(id, &inputs[sample]) {
                            Ok(t) => break t,
                            // Backpressure: back off and retry.
                            Err(RuntimeError::QueueFull { .. }) => {
                                thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    };
                    let response = ticket.wait().expect("response");
                    responses
                        .lock()
                        .expect("client lock")
                        .push((sample, response));
                }
            });
        }
    });
    let mut responses = responses.into_inner().expect("client lock");
    responses.sort_by_key(|(sample, _)| *sample);
    let stats = runtime.shutdown();

    // -- Spot-check: batched == sequential, bit for bit -------------------
    let mut reference = PeRepNet::compile(&model).expect("compile");
    let mut checked = 0;
    for (sample, response) in responses.iter().take(10) {
        let (logits, _) = reference.predict(&model, &inputs[*sample]);
        assert_eq!(
            response.logits,
            logits.as_slice(),
            "sample {sample} diverged from sequential inference"
        );
        checked += 1;
    }
    println!("bit-exactness spot-check: {checked}/10 samples match sequential inference\n");

    // -- Report -----------------------------------------------------------
    assert_eq!(stats.requests_completed as usize, total_requests);
    println!(
        "served {} requests on {WORKERS} workers ({CLIENTS} clients)",
        total_requests
    );
    println!("  wall time          : {:?}", stats.wall_elapsed);
    println!("  throughput         : {:.0} req/s", stats.throughput_rps());
    println!(
        "  batches            : {} (mean {:.2} riders, max {})",
        stats.batches, stats.mean_batch_size, stats.max_batch_size
    );
    println!("  rejected (retried) : {}", stats.requests_rejected);
    println!("  sim latency p50    : {}", stats.p50_latency);
    println!("  sim latency p99    : {}", stats.p99_latency);
    println!("  sim latency mean   : {}", stats.mean_latency);
    println!("  mean queue wait    : {:?}", stats.mean_queue_wait);
    println!("  total PE energy    : {}", stats.total_energy);
    println!("  total PE busy time : {}", stats.simulated_busy);
    println!("  EDP                : {:.3e} pJ·ns", stats.edp);
    println!(
        "  PE matvecs / MACs  : {} / {}",
        stats.pe_matvecs, stats.macs
    );
}
