//! The runtime's metric handles — the one store its accounting lives in.
//!
//! Registered once at [`Runtime`](crate::Runtime) start, on the
//! [`Telemetry`] bundle passed to the builder or on a private one;
//! workers and `submit` update the handles (plain atomics) and never
//! touch the registry again, and [`RuntimeStats`] is a read-only view
//! built from the same handles. Metric names are stable API — dashboards
//! and tests re-acquire the same series through the registry's
//! get-or-register semantics.

use crate::stats::RuntimeStats;
use pim_device::Latency;
use pim_pe::PeTelemetry;
use pim_telemetry::{exponential_buckets, Counter, Gauge, Histogram, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage label values of [`STAGE_METRIC`], in pipeline order.
pub const STAGES: [&str; 4] = ["queue", "batch_form", "compute", "reply"];

/// Histogram family of per-stage wall-clock seconds.
pub const STAGE_METRIC: &str = "pim_runtime_stage_seconds";

/// The `source` label the runtime's [`PeTelemetry`] counters carry.
pub const PE_SOURCE: &str = "serve";

/// Gauge of a runtime's serving worker threads, claimed by the starting
/// runtime: a bundle holds one per replica label.
const WORKERS_METRIC: &str = "pim_runtime_workers";

/// Adjacent bounds of the simulated-latency histogram differ by this
/// factor, so a reported percentile over-states its sample by at most it.
pub const SIM_LATENCY_BUCKET_FACTOR: f64 = 1.25;

/// Bounds of the per-request simulated-latency histogram, in ns: 1 ns
/// up to about 110 s, [`SIM_LATENCY_BUCKET_FACTOR`] apart.
pub(crate) fn sim_latency_buckets() -> Vec<f64> {
    exponential_buckets(1.0, SIM_LATENCY_BUCKET_FACTOR, 115)
}

/// Bounds of the wall-clock histograms, in seconds: 1µs .. ~67s, factor
/// 4, covering sub-batch waits through stalls.
pub(crate) fn seconds_buckets() -> Vec<f64> {
    exponential_buckets(1e-6, 4.0, 13)
}

#[derive(Debug, Clone)]
pub(crate) struct RuntimeTelemetry {
    /// The bundle itself, for tracer access.
    pub bundle: Arc<Telemetry>,
    /// When the handles were registered: the stats' `wall_elapsed` origin.
    started: Instant,
    /// Serving worker threads.
    pub workers: Gauge,
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
    /// Largest batch dispatched (a running max).
    pub max_batch_size: Gauge,
    /// Simulated latency (ns) each rider was charged: its whole batch's.
    pub sim_latency: Histogram,
    /// Wall time from submit until the response is ready, per rider.
    pub request_wait: Histogram,
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
    /// The serving PE ledger, fed with every served batch's run ledger.
    pub pe: PeTelemetry,
}

impl RuntimeTelemetry {
    /// Registers every serving family. With a `replica` label the same
    /// family names register **distinct series** carrying
    /// `replica="<label>"` — how a cluster keeps N runtimes apart in one
    /// registry — and with `None` the families are unlabelled, exactly as
    /// a standalone runtime has always registered them.
    ///
    /// # Panics
    ///
    /// Panics if a runtime already registered the same label (or none)
    /// on `bundle`: the two would write, and their stats would read, the
    /// same series.
    pub(crate) fn register(bundle: Arc<Telemetry>, replica: Option<&str>) -> Self {
        let registry = &bundle.registry;
        let seconds = seconds_buckets();
        let base: Vec<(&str, &str)> = match replica {
            Some(r) => vec![("replica", r)],
            None => Vec::new(),
        };
        let Some(workers) = registry.claim_gauge_with(
            WORKERS_METRIC,
            "Serving worker threads of the runtime",
            &base,
        ) else {
            let label = match replica {
                Some(r) => format!("replica_label {r:?}"),
                None => "no replica_label".to_string(),
            };
            panic!(
                "a runtime with {label} is already registered on this telemetry bundle; \
                 runtimes sharing a bundle need distinct replica labels"
            );
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
            workers,
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
            max_batch_size: gauge("pim_runtime_max_batch_size", "Largest PE batch dispatched"),
            sim_latency: registry.histogram_with(
                "pim_runtime_sim_latency_nanoseconds",
                "Simulated PE latency charged to each request (its batch's)",
                &sim_latency_buckets(),
                &base,
            ),
            request_wait: registry.histogram_with(
                "pim_runtime_request_wait_seconds",
                "Wall-clock seconds from submit until the response is ready",
                &seconds,
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
            started: Instant::now(),
        }
    }

    /// Mirrors one compute-pool counter snapshot into the pool gauges.
    pub(crate) fn mirror_pool(&self, pc: &pim_par::PoolCounters) {
        self.pool_jobs.set(pc.jobs as f64);
        self.pool_inline_jobs.set(pc.inline_jobs as f64);
        self.pool_caller_tasks.set(pc.caller_tasks as f64);
        self.pool_worker_tasks.set(pc.worker_tasks as f64);
    }

    /// Counts one served batch of `waits.len()` riders: every rider is
    /// charged the batch's simulated latency `sim_busy`, and `waits` are
    /// their wall-clock waits. The batch's PE run ledger is counted apart,
    /// into [`pe`](Self::pe).
    pub(crate) fn record_batch(&self, sim_busy: Latency, waits: &[Duration]) {
        let size = waits.len();
        self.batch_size.observe(size as f64);
        self.max_batch_size.raise(size as f64);
        self.requests_total.add(size as f64);
        self.sim_latency.observe_n(sim_busy.as_ns(), size as u64);
        for wait in waits {
            self.request_wait.observe(wait.as_secs_f64());
        }
    }

    /// The [`RuntimeStats`] view of the handles.
    pub(crate) fn stats(&self) -> RuntimeStats {
        let sim = self.pe.totals();
        let batches = self.batch_size.snapshot();
        RuntimeStats {
            requests_completed: self.requests_total.value() as u64,
            requests_rejected: (self.rejected_total.value() + self.throttled_total.value()) as u64,
            batches: batches.count(),
            model_swaps: self.swaps_total.value() as u64,
            mean_batch_size: batches.mean(),
            max_batch_size: self.max_batch_size.value() as usize,
            total_energy: sim.total_energy(),
            simulated_busy: sim.busy_time,
            macs: sim.macs,
            pe_matvecs: sim.matvecs,
            wall_elapsed: self.started.elapsed(),
            sim_latency_ns: self.sim_latency.snapshot(),
            request_wait_s: self.request_wait.snapshot(),
            ..RuntimeStats::empty()
        }
        .derive_summaries()
    }
}
