//! End-to-end tests of the `pim-runtime` serving engine: batching
//! bit-exactness, bounded-queue backpressure, and graceful shutdown.

use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, Runtime, RuntimeError};
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

#[test]
fn coalesced_batches_are_bit_exact_with_sequential_inference() {
    let model = tiny_model(3);
    let inputs = tiny_inputs(24);

    // Sequential reference: one sample at a time through a private
    // compiled branch.
    let mut reference = PeRepNet::compile(&model).expect("compile");
    let sequential: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| {
            let (logits, _) = reference.predict(&model, x);
            logits.as_slice().to_vec()
        })
        .collect();

    // One worker never holds a batch open, so coalescing comes from
    // backlog: requests submitted while it computes one batch queue up
    // behind it and ride the next one together.
    let mut builder = Runtime::builder()
        .workers(1)
        .queue_capacity(64)
        .max_batch(8)
        .max_wait(Duration::from_millis(100));
    let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let runtime = builder.start();

    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| runtime.submit(id, x).expect("submit"))
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("response"))
        .collect();

    for (i, (response, expected)) in responses.iter().zip(&sequential).enumerate() {
        assert_eq!(
            &response.logits, expected,
            "sample {i} diverged from sequential inference \
             (batch_size {})",
            response.batch_size
        );
        assert!(response.latency.as_ns() > 0.0, "sample {i} has no latency");
        assert!(response.energy.as_pj() > 0.0, "sample {i} has no energy");
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.requests_completed, 24);
    assert!(
        stats.max_batch_size > 1,
        "expected coalescing, got max batch {}",
        stats.max_batch_size
    );
    assert!(stats.batches < 24, "no batching happened at all");
    assert!(stats.total_energy.as_pj() > 0.0);
    assert!(stats.edp > 0.0);
}

#[test]
fn full_queue_rejects_with_typed_error_instead_of_blocking() {
    let model = tiny_model(5);

    // One worker and a two-slot queue. Back-to-back submits outrun the
    // worker: while it computes one batch, the queue fills behind it and
    // the next submit is refused at once instead of blocking. The burst
    // is bounded, so a worker that somehow kept up fails the test rather
    // than hanging it.
    let mut builder = Runtime::builder().workers(1).queue_capacity(2).max_batch(8);
    let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let runtime = builder.start();

    let input = Tensor::ones(runtime.models()[0].input_shape());
    let mut tickets = Vec::new();
    let mut refusal = None;
    for _ in 0..10_000 {
        match runtime.submit(id, &input) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                refusal = Some(e);
                break;
            }
        }
    }
    let refusal = refusal.expect("10,000 back-to-back submits never filled a 2-slot queue");
    assert!(
        matches!(refusal, RuntimeError::QueueFull { capacity: 2 }),
        "expected QueueFull, got {refusal:?}"
    );

    // Everyone accepted still gets an answer.
    let accepted = tickets.len() as u64;
    for ticket in tickets {
        assert!(ticket.wait().is_ok());
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.requests_completed, accepted);
    assert_eq!(stats.requests_rejected, 1);
}

#[test]
fn graceful_shutdown_answers_every_in_flight_request() {
    let model = tiny_model(9);
    let mut builder = Runtime::builder()
        .workers(2)
        .queue_capacity(64)
        .max_batch(4)
        .max_wait(Duration::from_millis(5));
    let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let runtime = builder.start();

    let inputs = tiny_inputs(20);
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| runtime.submit(id, x).expect("submit"))
        .collect();

    // Shut down immediately: intake closes, but every accepted request
    // must still be served before the workers exit.
    let stats = runtime.shutdown();
    assert_eq!(stats.requests_completed, 20);

    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().unwrap_or_else(|e| {
            panic!("request {i} was dropped during shutdown: {e}");
        });
        assert!(response.prediction < 5);
    }
}
