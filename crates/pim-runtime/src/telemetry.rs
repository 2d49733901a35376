//! The runtime's pre-registered telemetry handles.
//!
//! Built once at [`Runtime`](crate::Runtime) start from the
//! [`Telemetry`] bundle passed to the builder; workers and `submit`
//! update the handles (plain atomics) and never touch the registry
//! again. Metric names are stable API — dashboards and tests re-acquire
//! the same series through the registry's get-or-register semantics.

use pim_pe::PeTelemetry;
use pim_telemetry::{exponential_buckets, Counter, Gauge, Histogram, Telemetry};
use std::sync::Arc;

/// Stage label values of [`STAGE_METRIC`], in pipeline order.
pub const STAGES: [&str; 4] = ["queue", "batch_form", "compute", "reply"];

/// Histogram family of per-stage wall-clock seconds.
pub const STAGE_METRIC: &str = "pim_runtime_stage_seconds";

/// The `source` label the runtime's [`PeTelemetry`] counters carry.
pub const PE_SOURCE: &str = "serve";

#[derive(Debug, Clone)]
pub(crate) struct RuntimeTelemetry {
    /// The bundle itself, for tracer access.
    pub bundle: Arc<Telemetry>,
    /// Requests accepted but not yet dispatched.
    pub queue_depth: Gauge,
    /// Riders per dispatched batch.
    pub batch_size: Histogram,
    /// Wall time from enqueue to worker dispatch, per rider.
    pub stage_queue: Histogram,
    /// Wall time from seed pop to dispatch, per batch.
    pub stage_batch_form: Histogram,
    /// Wall time of the PE forward pass, per batch.
    pub stage_compute: Histogram,
    /// Wall time spent answering tickets, per batch.
    pub stage_reply: Histogram,
    /// Requests answered.
    pub requests_total: Counter,
    /// Backpressure rejections.
    pub rejected_total: Counter,
    /// Per-model quota rejections (governor throttling).
    pub throttled_total: Counter,
    /// Hot model swaps published.
    pub swaps_total: Counter,
    /// Executors (worker threads + dispatching caller) of the shared
    /// intra-request compute pool.
    pub pool_threads: Gauge,
    /// Cumulative jobs the compute pool has dispatched across its workers.
    pub pool_jobs: Gauge,
    /// Cumulative jobs the pool ran inline (serial pool or contended
    /// dispatch).
    pub pool_inline_jobs: Gauge,
    /// Cumulative pool tasks executed by the dispatching worker itself.
    pub pool_caller_tasks: Gauge,
    /// Cumulative pool tasks executed by the pool's helper threads.
    pub pool_worker_tasks: Gauge,
    /// The `PeStats` mirror attached to every served branch.
    pub pe: PeTelemetry,
}

impl RuntimeTelemetry {
    /// Registers (or re-acquires) every serving family. With a `replica`
    /// label the same family names register **distinct series** carrying
    /// `replica="<label>"` — how a cluster keeps N runtimes apart in one
    /// registry — and with `None` the families are unlabelled, exactly as
    /// a standalone runtime has always registered them.
    pub(crate) fn register(bundle: Arc<Telemetry>, replica: Option<&str>) -> Self {
        let registry = &bundle.registry;
        // 1µs .. ~67s, factor 4: covers sub-batch waits through stalls.
        let seconds = exponential_buckets(1e-6, 4.0, 13);
        let base: Vec<(&str, &str)> = match replica {
            Some(r) => vec![("replica", r)],
            None => Vec::new(),
        };
        let stage = |stage: &str| {
            let mut labels = vec![("stage", stage)];
            labels.extend_from_slice(&base);
            registry.histogram_with(
                STAGE_METRIC,
                "Wall-clock seconds spent per serving stage",
                &seconds,
                &labels,
            )
        };
        let counter = |name: &str, help: &str| registry.counter_with(name, help, &base);
        let gauge = |name: &str, help: &str| registry.gauge_with(name, help, &base);
        Self {
            queue_depth: gauge(
                "pim_runtime_queue_depth",
                "Requests accepted but not yet dispatched",
            ),
            batch_size: registry.histogram_with(
                "pim_runtime_batch_size",
                "Riders per dispatched PE batch",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                &base,
            ),
            stage_queue: stage(STAGES[0]),
            stage_batch_form: stage(STAGES[1]),
            stage_compute: stage(STAGES[2]),
            stage_reply: stage(STAGES[3]),
            requests_total: counter(
                "pim_runtime_requests_total",
                "Requests answered by the serving pool",
            ),
            rejected_total: counter(
                "pim_runtime_rejected_total",
                "Requests refused with QueueFull backpressure",
            ),
            throttled_total: counter(
                "pim_runtime_throttled_total",
                "Requests refused by a per-model admission quota",
            ),
            swaps_total: counter(
                "pim_runtime_swaps_total",
                "Hot model swaps published into serving",
            ),
            // Gauges, not counters: they mirror the pool's own cumulative
            // snapshot (set, never inc'd) once per served batch.
            pool_threads: gauge(
                "pim_par_pool_threads",
                "Executors of the shared intra-request compute pool",
            ),
            pool_jobs: gauge(
                "pim_par_pool_jobs",
                "Cumulative fork-join jobs dispatched across pool workers",
            ),
            pool_inline_jobs: gauge(
                "pim_par_pool_inline_jobs",
                "Cumulative pool jobs run inline (serial or contended)",
            ),
            pool_caller_tasks: gauge(
                "pim_par_pool_caller_tasks",
                "Cumulative pool tasks executed by the dispatching thread",
            ),
            pool_worker_tasks: gauge(
                "pim_par_pool_worker_tasks",
                "Cumulative pool tasks executed by pool helper threads",
            ),
            pe: match replica {
                Some(r) => PeTelemetry::register_with(registry, PE_SOURCE, &[("replica", r)]),
                None => PeTelemetry::register(registry, PE_SOURCE),
            },
            bundle,
        }
    }

    /// Mirrors one compute-pool counter snapshot into the pool gauges.
    pub(crate) fn mirror_pool(&self, pc: &pim_par::PoolCounters) {
        self.pool_jobs.set(pc.jobs as f64);
        self.pool_inline_jobs.set(pc.inline_jobs as f64);
        self.pool_caller_tasks.set(pc.caller_tasks as f64);
        self.pool_worker_tasks.set(pc.worker_tasks as f64);
    }
}
