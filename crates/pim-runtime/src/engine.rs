//! The serving engine: builder, worker pool, and the submit and serve
//! paths around the one-lock admission queue and batcher (`queue.rs`).

use crate::compiled::CompiledModel;
use crate::error::RuntimeError;
use crate::queue::{AdmissionQueue, AdmitError};
use crate::request::{InferResponse, ModelId, QueuedRequest, Ticket};
use crate::stats::RuntimeStats;
use crate::telemetry::RuntimeTelemetry;
use pim_core::pe_inference::PeScratch;
use pim_nn::layers::predictions;
use pim_nn::tensor::Tensor;
use pim_par::{PoolCounters, WorkPool};
use pim_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// When a worker dispatches a batch instead of waiting for more riders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on riders per PE batch.
    pub max_batch: usize,
    /// Has no effect: a worker dispatches each batch as soon as it takes
    /// the seed, with the riders already queued, and never holds one open
    /// for later arrivals. Kept so existing callers keep compiling.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Runtime sizing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Serving worker threads, each with its own scratch.
    pub workers: usize,
    /// Bound of the shared request queue (backpressure past this).
    pub queue_capacity: usize,
    /// Batching policy.
    pub batch: BatchPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            batch: BatchPolicy::default(),
        }
    }
}

/// Runtime sizing defaults produced by a `pim-dse` sweep (the `"runtime"`
/// object of `TUNED.json`).
///
/// Feed one to [`RuntimeBuilder::tuned`] to replace the hard-coded
/// [`RuntimeConfig`] defaults with sweep-selected values. Explicit builder
/// calls always win over tuned defaults, regardless of call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedDefaults {
    /// Serving worker threads.
    pub workers: usize,
    /// Intra-request compute pool width.
    pub par_threads: usize,
    /// Per-batch rider cap.
    pub max_batch: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
}

/// Which knobs the user set explicitly (those always beat tuned defaults).
#[derive(Debug, Default, Clone, Copy)]
struct ExplicitKnobs {
    workers: bool,
    queue_capacity: bool,
    max_batch: bool,
}

/// Staged configuration for a [`Runtime`].
#[derive(Debug, Default)]
pub struct RuntimeBuilder {
    config: RuntimeConfig,
    models: Vec<CompiledModel>,
    telemetry: Option<Arc<Telemetry>>,
    /// Intra-request compute pool width; `None` sizes it to the cores left
    /// over after the serving workers.
    par_threads: Option<usize>,
    /// Extra `replica="<label>"` label on every telemetry family.
    replica_label: Option<String>,
    /// Sweep-selected defaults, applied at [`Self::start`] for every knob
    /// not explicitly set.
    tuned: Option<TunedDefaults>,
    explicit: ExplicitKnobs,
}

impl RuntimeBuilder {
    /// Sets the worker-thread count (min 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n.max(1);
        self.explicit.workers = true;
        self
    }

    /// Sets the bounded queue capacity (min 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n.max(1);
        self.explicit.queue_capacity = true;
        self
    }

    /// Sets the per-batch rider cap (min 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.batch.max_batch = n.max(1);
        self.explicit.max_batch = true;
        self
    }

    /// Installs sweep-selected [`TunedDefaults`] (typically loaded from
    /// `TUNED.json` by `pim-dse`). They replace the hard-coded defaults
    /// for `workers`, `par_threads`, `max_batch`, and `queue_capacity`;
    /// any of those knobs set explicitly — before *or* after this call —
    /// keeps its explicit value, because resolution happens once, at
    /// [`Self::start`].
    ///
    /// Tuning never changes served results: all four knobs only move work
    /// between threads and batches, and outputs are bit-identical at every
    /// setting (the `pim-par` determinism contract).
    pub fn tuned(mut self, defaults: TunedDefaults) -> Self {
        self.tuned = Some(defaults);
        self
    }

    /// Sets [`BatchPolicy::max_wait`], which has no effect: batches are
    /// never held open.
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.config.batch.max_wait = wait;
        self
    }

    /// Sets the width of the shared intra-request compute pool (min 1):
    /// every served forward pass fans its tile/row grids out over these
    /// threads (see `pim_par`). `1` degrades to the serial execution path,
    /// bit-for-bit. Without this call the pool is sized to the cores left
    /// over after the serving workers (never below 1), so the two thread
    /// pools don't oversubscribe the host.
    ///
    /// Outputs and PE ledgers are bit-identical at every width — the
    /// parallel tasks only compute; all accounting is folded serially in
    /// the deterministic sequential order.
    pub fn par_threads(mut self, n: usize) -> Self {
        self.par_threads = Some(n.max(1));
        self
    }

    /// Chooses the [`Telemetry`] bundle the runtime registers its metrics
    /// on — per-stage latency histograms (`pim_runtime_stage_seconds
    /// {stage=queue|batch_form|compute|reply}`), queue-depth, batch-size
    /// and simulated-latency series, request/rejection/swap counters and
    /// the `source="serve"` [`PeStats`](pim_pe::PeStats) ledger — and
    /// records per-request / per-batch spans and swap events into the
    /// bundle's tracer. Without this call the runtime registers the same
    /// metrics on a private bundle: they are its accounting either way,
    /// and [`RuntimeStats`] is a view of them.
    ///
    /// Runtimes sharing a bundle need distinct
    /// [`replica_label`](Self::replica_label)s: [`start`](Self::start)
    /// refuses a second runtime with the same label (or none) on one
    /// bundle, since both would write, and their stats read, the same
    /// series.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Tags every telemetry family this runtime registers with an extra
    /// `replica="<label>"` label, so several runtimes sharing one
    /// [`Telemetry`] bundle (a cluster) stay distinguishable per node.
    /// Distinct labels are distinct series under the registry's
    /// `(name, labels)` get-or-register rule; without this call the
    /// families stay unlabelled, exactly as a standalone runtime registers
    /// them.
    pub fn replica_label(mut self, label: impl Into<String>) -> Self {
        self.replica_label = Some(label.into());
        self
    }

    /// Registers a compiled model; requests name it by the returned id.
    pub fn register(&mut self, model: CompiledModel) -> ModelId {
        self.models.push(model);
        ModelId(self.models.len() - 1)
    }

    /// Spawns the worker pool and opens the queue.
    ///
    /// # Panics
    ///
    /// Panics if another runtime already registered this builder's
    /// [`replica_label`](Self::replica_label) (or, without one, no label)
    /// on the [`telemetry`](Self::telemetry) bundle.
    pub fn start(mut self) -> Runtime {
        // Resolve tuned defaults now, so explicit setter calls win no
        // matter where `tuned()` appeared in the chain.
        if let Some(t) = self.tuned {
            if !self.explicit.workers {
                self.config.workers = t.workers.max(1);
            }
            if !self.explicit.queue_capacity {
                self.config.queue_capacity = t.queue_capacity.max(1);
            }
            if !self.explicit.max_batch {
                self.config.batch.max_batch = t.max_batch.max(1);
            }
            if self.par_threads.is_none() {
                self.par_threads = Some(t.par_threads.max(1));
            }
        }
        let telemetry = RuntimeTelemetry::register(
            self.telemetry.unwrap_or_else(Telemetry::private),
            self.replica_label.as_deref(),
        );
        // One compute pool, shared by every worker: serving workers
        // parallelize across requests, the pool parallelizes within one.
        // Default width = cores not taken by the workers.
        let par_threads = self.par_threads.unwrap_or_else(|| {
            let cores = thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            cores.saturating_sub(self.config.workers).max(1)
        });
        let pool = Arc::new(WorkPool::new(par_threads));
        telemetry.workers.set(self.config.workers as f64);
        telemetry.pool_threads.set(pool.threads() as f64);
        let input_shapes = self
            .models
            .iter()
            .map(|m| m.input_shape().to_vec())
            .collect();
        let slots: Vec<ModelSlot> = self
            .models
            .into_iter()
            .map(|m| ModelSlot {
                version: 0,
                model: Arc::new(m),
            })
            .collect();
        let model_count = slots.len();
        let shared = Arc::new(Shared {
            pool,
            queue: AdmissionQueue::new(self.config.queue_capacity, model_count, self.config.batch),
            config: self.config.clone(),
            input_shapes,
            models: Mutex::new(slots),
            telemetry,
        });
        let workers = (0..self.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pim-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }
}

/// One registered serving slot. The [`ModelId`] handed to clients indexes
/// this table; hot swaps replace `model` in place and bump `version`, so
/// the id stays valid across publishes.
struct ModelSlot {
    /// Bumped on every swap.
    version: u64,
    model: Arc<CompiledModel>,
}

struct Shared {
    /// The intra-request compute pool every batch fans out over.
    pool: Arc<WorkPool>,
    /// Admission and batching under one lock: the closed flag, per-model
    /// FIFOs, per-model quotas and the live batching policy (`config.batch`
    /// is only its initial value). See `queue.rs`.
    queue: AdmissionQueue,
    config: RuntimeConfig,
    /// Expected `[C, H, W]` per slot, for `submit`'s checks without the
    /// model-table lock. Fixed at start: swaps must keep the shape.
    input_shapes: Vec<Vec<usize>>,
    /// The serving model table. Locked briefly by `swap_model` (one
    /// `Arc` store) and by each worker taking its batch's `Arc` — never
    /// across an inference. An update is a version bump and one `Arc`
    /// store, so a panic under the lock cannot leave the table
    /// half-written: holders recover the guard from a poisoned lock (see
    /// [`Shared::models`]).
    models: Mutex<Vec<ModelSlot>>,
    /// Pre-registered metric handles: the runtime's accounting.
    telemetry: RuntimeTelemetry,
}

impl Shared {
    /// The model table, recovered from a poisoned lock: each critical
    /// section reads slots or swaps one slot's `Arc`, so the table is
    /// whole whichever thread panicked while holding it.
    fn models(&self) -> MutexGuard<'_, Vec<ModelSlot>> {
        self.models.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The concurrent batched serving engine.
///
/// Compile models once ([`CompiledModel::compile`]), register them, and
/// submit single-sample requests from any number of threads; a sharded
/// worker pool coalesces compatible requests into PE batches under the
/// configured [`BatchPolicy`]. The queue is bounded: when full, `submit`
/// fails fast with [`RuntimeError::QueueFull`] instead of blocking.
///
/// # Example
///
/// ```no_run
/// use pim_runtime::{CompiledModel, Runtime};
/// # use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
/// # use pim_nn::tensor::Tensor;
/// let model = RepNet::new(
///     Backbone::new(BackboneConfig::tiny()),
///     RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 },
/// );
/// let mut builder = Runtime::builder().workers(4);
/// let id = builder.register(CompiledModel::compile("tiny", &model)?);
/// let runtime = builder.start();
/// let response = runtime.infer(id, &Tensor::ones(&[1, 8, 8]))?;
/// assert!(response.prediction < 5);
/// println!("{}", runtime.shutdown());
/// # Ok::<(), pim_runtime::RuntimeError>(())
/// ```
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Runtime {
    /// Starts configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// A snapshot of the models currently being served, in registration
    /// (id) order. Each entry is the artifact a request submitted *now*
    /// would run against; a concurrent [`swap_model`](Self::swap_model)
    /// may replace a slot after the snapshot is taken.
    pub fn models(&self) -> Vec<Arc<CompiledModel>> {
        self.shared
            .models()
            .iter()
            .map(|s| Arc::clone(&s.model))
            .collect()
    }

    /// Atomically publishes `replacement` into the serving slot `model`
    /// (RCU-style hot swap): the swap is one `Arc` store under the model
    /// table lock. A batch takes its slot's `Arc` when a worker forms it,
    /// so batches formed before the swap finish on the old artifact and
    /// every later batch runs on the new one; the swap never waits for
    /// in-flight inference and no worker copies anything. Returns the
    /// slot's new version number (starts at 0 when registered, +1 per
    /// swap).
    ///
    /// The replacement must keep the slot's client-visible interface:
    /// same input shape and class count. This is what lets `pim-learn`
    /// retrain and republish a model while clients keep using the same
    /// [`ModelId`].
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownModel`] — `model` was never registered.
    /// * [`RuntimeError::IncompatibleSwap`] — the replacement's input
    ///   shape or class count differs from the slot's.
    pub fn swap_model(
        &self,
        model: ModelId,
        replacement: CompiledModel,
    ) -> Result<u64, RuntimeError> {
        let replacement = Arc::new(replacement);
        let (version, retired) = {
            let mut slots = self.shared.models();
            let slot = slots
                .get_mut(model.0)
                .ok_or(RuntimeError::UnknownModel { id: model })?;
            if slot.model.input_shape() != replacement.input_shape()
                || slot.model.num_classes() != replacement.num_classes()
            {
                return Err(RuntimeError::IncompatibleSwap {
                    expected_input: slot.model.input_shape().to_vec(),
                    actual_input: replacement.input_shape().to_vec(),
                    expected_classes: slot.model.num_classes(),
                    actual_classes: replacement.num_classes(),
                });
            }
            slot.version += 1;
            (
                slot.version,
                std::mem::replace(&mut slot.model, replacement),
            )
        };
        // The old artifact is freed (if no batch still holds it) outside
        // the lock.
        drop(retired);
        let tel = &self.shared.telemetry;
        tel.swaps_total.inc();
        tel.bundle
            .tracer
            .event("serve.swap", &[("model", &model.0), ("version", &version)]);
        Ok(version)
    }

    /// Current queue depth (requests accepted but not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The bounded queue's capacity (admission-control limit).
    pub fn queue_capacity(&self) -> usize {
        self.shared.config.queue_capacity
    }

    /// The batching policy workers currently dispatch under (the builder's
    /// value until [`set_batch_policy`](Self::set_batch_policy) retunes it).
    pub fn batch_policy(&self) -> BatchPolicy {
        self.shared.queue.policy()
    }

    /// Retunes the live batching policy (min 1 rider). Workers pick the
    /// new policy up at their next batch boundary; batches already being
    /// coalesced finish under the old one. Purely a scheduling knob —
    /// outputs and ledgers are bit-identical at every setting — which is
    /// what lets a governor widen coalescing under pressure without
    /// touching served results.
    pub fn set_batch_policy(&self, policy: BatchPolicy) {
        self.shared.queue.set_policy(policy);
    }

    /// Sets (or with `None` clears) the admission quota of one model slot:
    /// while the slot has `quota` requests queued, further submits for it
    /// fail fast with [`RuntimeError::Throttled`]. Requests already queued
    /// are never dropped. A quota of 0 sheds the slot entirely.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownModel`] — `model` was never registered.
    pub fn set_queue_quota(
        &self,
        model: ModelId,
        quota: Option<usize>,
    ) -> Result<(), RuntimeError> {
        if self
            .shared
            .queue
            .set_quota(model.0, quota.unwrap_or(usize::MAX))
        {
            Ok(())
        } else {
            Err(RuntimeError::UnknownModel { id: model })
        }
    }

    /// Queued-but-undispatched requests per model slot, in registration
    /// (id) order — the per-tenant pressure readout quota decisions are
    /// based on.
    pub fn queued_per_model(&self) -> Vec<usize> {
        self.shared.queue.per_model()
    }

    /// Liveness probe: `true` while the queue is open and every worker
    /// thread is running. A worker that panicked (or a runtime that began
    /// shutting down) turns the probe `false`, and a cluster router stops
    /// sending traffic here.
    pub fn healthy(&self) -> bool {
        if self.workers.is_empty() || self.workers.iter().any(|h| h.is_finished()) {
            return false;
        }
        !self.shared.queue.closed()
    }

    /// Current version of every serving slot, in registration (id) order
    /// (0 when registered, +1 per [`swap_model`](Self::swap_model)).
    pub fn model_versions(&self) -> Vec<u64> {
        self.shared.models().iter().map(|s| s.version).collect()
    }

    /// Executor count of the shared intra-request compute pool.
    pub fn par_threads(&self) -> usize {
        self.shared.pool.threads()
    }

    /// A snapshot of the shared compute pool's activity counters
    /// (jobs dispatched, inline fallbacks, caller vs. worker task split).
    pub fn pool_counters(&self) -> PoolCounters {
        self.shared.pool.counters()
    }

    /// Enqueues one single-sample request (`[C, H, W]` or `[1, C, H, W]`)
    /// and returns a [`Ticket`] to wait on. Never blocks.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownModel`] — `model` was not registered.
    /// * [`RuntimeError::BadInput`] — shape mismatch (batched inputs are
    ///   rejected; batching is the runtime's job).
    /// * [`RuntimeError::QueueFull`] — backpressure; retry later.
    /// * [`RuntimeError::ShuttingDown`] — the runtime no longer accepts
    ///   work.
    pub fn submit(&self, model: ModelId, input: &Tensor) -> Result<Ticket, RuntimeError> {
        let expected = self
            .shared
            .input_shapes
            .get(model.0)
            .ok_or(RuntimeError::UnknownModel { id: model })?
            .as_slice();
        let shape = input.shape();
        let normalized = if shape == expected {
            let mut with_batch = vec![1];
            with_batch.extend_from_slice(shape);
            input
                .reshaped(with_batch)
                .expect("adding a unit batch axis preserves the element count")
        } else if shape.len() == 4 && shape[0] == 1 && &shape[1..] == expected {
            input.clone()
        } else {
            return Err(RuntimeError::BadInput {
                expected: expected.to_vec(),
                actual: shape.to_vec(),
            });
        };

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let admitted = self.shared.queue.admit(QueuedRequest {
            id,
            model,
            input: normalized,
            enqueued: Instant::now(),
            reply: tx,
        });
        // Rejections are counted after the queue lock is released.
        let tel = &self.shared.telemetry;
        match admitted {
            Ok(depth) => {
                tel.queue_depth.set(depth as f64);
                Ok(Ticket { request_id: id, rx })
            }
            Err(AdmitError::Closed) => Err(RuntimeError::ShuttingDown),
            Err(AdmitError::Full) => {
                tel.rejected_total.inc();
                Err(RuntimeError::QueueFull {
                    capacity: self.shared.config.queue_capacity,
                })
            }
            Err(AdmitError::Throttled { quota }) => {
                tel.throttled_total.inc();
                Err(RuntimeError::Throttled { model, quota })
            }
        }
    }

    /// Convenience: submit and block for the response.
    ///
    /// # Errors
    ///
    /// Propagates [`Runtime::submit`] errors, plus
    /// [`RuntimeError::Disconnected`] if the serving side hung up.
    pub fn infer(&self, model: ModelId, input: &Tensor) -> Result<InferResponse, RuntimeError> {
        self.submit(model, input)?.wait()
    }

    /// A point-in-time statistics snapshot, read from the runtime's
    /// metric handles.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.telemetry.stats()
    }

    /// Graceful shutdown: stops accepting work, lets workers drain every
    /// in-flight request (all tickets get answers), joins the pool, and
    /// returns the final statistics.
    pub fn shutdown(mut self) -> RuntimeStats {
        self.close_and_join();
        self.shared.telemetry.stats()
    }

    fn close_and_join(&mut self) {
        // Refuse all future admissions; requests already admitted stay
        // queued and workers drain them before exiting (every outstanding
        // ticket still gets an answer).
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Per-worker buffers reused across batches: after warm-up a worker
/// stacks inputs, runs the forward pass and records queue waits without
/// touching the allocator for scratch. Built once per worker and never
/// cloned; the models themselves are shared.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Row-major staging area the batch's input tensors are stacked into.
    staging: Vec<f32>,
    /// Per-rider queue waits for the stats and responses.
    waits: Vec<Duration>,
    /// Backbone and PE-layer working memory of the forward pass.
    pe: PeScratch,
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut scratch = WorkerScratch::default();
    while let Some(batch) = shared.queue.next_batch(worker) {
        shared.telemetry.queue_depth.set(batch.depth as f64);
        // RCU read side: the batch pins its slot's artifact now, so a
        // swap from here on serves later batches and this one finishes
        // on the model it was formed against.
        let model = Arc::clone(&shared.models()[batch.requests[0].model.0].model);
        serve_batch(shared, &model, batch.requests, batch.formed, &mut scratch);
    }
}

fn serve_batch(
    shared: &Shared,
    artifact: &CompiledModel,
    batch: Vec<QueuedRequest>,
    formed: Instant,
    scratch: &mut WorkerScratch,
) {
    let dispatched = Instant::now();
    let model = batch[0].model;
    // Stack inputs directly into the worker's staging buffer (one copy,
    // no per-request clones) and lend it to a Tensor for the forward
    // pass. Riders come from one model's FIFO and submit normalized them
    // to its `[1, C, H, W]`, so they share one shape.
    let mut data = std::mem::take(&mut scratch.staging);
    data.clear();
    let mut shape = batch[0].input.shape().to_vec();
    shape[0] = 0;
    for r in &batch {
        data.extend_from_slice(r.input.as_slice());
        shape[0] += r.input.shape()[0];
    }
    let stacked = Tensor::from_vec(shape, data).expect("riders share one shape");
    let compute_started = Instant::now();
    let (logits, sim) = artifact.infer(&stacked, &mut scratch.pe, &shared.pool);
    let compute = compute_started.elapsed();
    scratch.staging = stacked.into_vec();
    let preds = predictions(&logits);

    let size = batch.len();
    let classes = logits.shape()[1];
    let energy_share = sim.total_energy() / size as f64;
    scratch.waits.clear();
    scratch
        .waits
        .extend(batch.iter().map(|r| r.enqueued.elapsed()));
    // Count the batch before replying, so a client holding its response
    // is guaranteed to find it in the stats snapshot.
    let tel = &shared.telemetry;
    tel.pe.record(&sim);
    tel.record_batch(sim.busy_time, &scratch.waits);
    // Mirror the compute pool's cumulative activity into its gauges.
    tel.mirror_pool(&shared.pool.counters());
    tel.stage_batch_form
        .observe(dispatched.duration_since(formed).as_secs_f64());
    tel.stage_compute.observe(compute.as_secs_f64());
    for r in &batch {
        tel.stage_queue
            .observe(dispatched.duration_since(r.enqueued).as_secs_f64());
    }
    let reply_started = Instant::now();
    for ((row, req), wait) in batch.into_iter().enumerate().zip(scratch.waits.drain(..)) {
        let response = InferResponse {
            request_id: req.id,
            logits: logits.as_slice()[row * classes..(row + 1) * classes].to_vec(),
            prediction: preds[row],
            batch_size: size,
            queue_wait: wait,
            latency: sim.busy_time,
            energy: energy_share,
        };
        // The client may have dropped its ticket; serving proceeds.
        let _ = req.reply.send(response);
        tel.bundle.tracer.record_span_ending_now(
            "serve.request",
            req.enqueued.elapsed(),
            &[("id", &req.id), ("model", &model.0), ("batch_size", &size)],
        );
    }
    tel.stage_reply
        .observe(reply_started.elapsed().as_secs_f64());
    tel.bundle.tracer.record_span_ending_now(
        "serve.batch",
        formed.elapsed(),
        &[
            ("model", &model.0),
            ("size", &size),
            (
                "energy_pj",
                &format_args!("{:.3}", sim.total_energy().as_pj()),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};

    fn artifact(seed: u64) -> CompiledModel {
        let model = RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 5,
                seed,
            },
        );
        CompiledModel::compile(format!("s{seed}"), &model).expect("compile")
    }

    #[test]
    fn a_poisoned_model_table_still_swaps_and_serves_bit_exactly() {
        let mut builder = Runtime::builder().workers(2);
        let id = builder.register(artifact(1));
        let runtime = builder.start();
        let shared = Arc::clone(&runtime.shared);
        let panicked = thread::spawn(move || {
            let _table = shared.models.lock().expect("first lock is clean");
            panic!("worker dies holding the model table");
        })
        .join();
        assert!(panicked.is_err());
        assert!(runtime.shared.models.is_poisoned());

        let replacement = artifact(2);
        let input = Tensor::ones(&[1, 1, 8, 8]);
        let (want, _) = replacement.infer_reference(&input);
        assert_eq!(runtime.swap_model(id, replacement).expect("swap"), 1);
        assert_eq!(runtime.model_versions(), vec![1]);
        assert_eq!(runtime.models()[0].name(), "s2");
        for _ in 0..4 {
            let got = runtime.infer(id, &input).expect("served");
            assert_eq!(got.logits, want.as_slice(), "bit-exact after recovery");
        }
        assert_eq!(runtime.shutdown().requests_completed, 4);
    }
}
