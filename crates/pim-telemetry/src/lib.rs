//! # pim-telemetry — metrics, tracing, and Prometheus exposition
//!
//! The rest of the workspace reports *end-of-run* ledgers (`PeStats`,
//! `RuntimeStats`, `LearnReport`); this crate makes the same quantities
//! observable **mid-run** and attributes wall-clock time to pipeline
//! stages. It is deliberately small and `std`-only:
//!
//! * **[`TelemetryRegistry`]** — a lock-cheap metrics registry. Metric
//!   *registration* (rare) takes a mutex; metric *updates* (hot) are
//!   plain atomics on cloned handles: [`Counter`] (monotonic, f64),
//!   [`Gauge`] (set/add), and [`Histogram`] (fixed buckets chosen at
//!   registration). [`TelemetryRegistry::render_prometheus`] renders the
//!   whole registry in the Prometheus text exposition format.
//! * **[`Tracer`]** — a span/event recorder backed by a bounded ring
//!   buffer: when full, the oldest events are dropped (and counted), so
//!   tracing never grows without bound and never blocks the hot path for
//!   longer than a queue push. [`TraceDump`] renders a snapshot as JSONL
//!   for offline inspection.
//! * **[`Telemetry`]** — the bundle the other crates accept: one shared
//!   registry plus one shared tracer behind an `Arc`.
//!
//! Counter updates use compare-and-swap addition on `f64` bit patterns.
//! A *single-threaded* sequence of `add` calls therefore accumulates with
//! exactly the same floating-point rounding as the `+=` chains in the
//! simulator ledgers — which is what lets the integration tests assert
//! the energy counters match `PeStats` **bit-exactly** (multi-threaded
//! interleavings reorder the additions and agree only up to f64
//! associativity).
//!
//! # Example
//!
//! ```
//! use pim_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! let served = telemetry.registry.counter("requests_total", "Requests served");
//! served.inc();
//! let mut span = telemetry.tracer.span("serve.batch");
//! span.attr("batch_size", 4);
//! span.finish();
//! let text = telemetry.registry.render_prometheus();
//! assert!(text.contains("requests_total 1"));
//! assert_eq!(telemetry.tracer.snapshot().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    exponential_buckets, Counter, Gauge, Histogram, HistogramSnapshot, MetricKind,
    TelemetryRegistry,
};
pub use trace::{ActiveSpan, TraceDump, TraceEvent, Tracer};

use std::sync::Arc;

/// Default ring-buffer capacity of [`Telemetry::new`]'s tracer.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The bundle the instrumented crates accept: one metrics registry plus
/// one span tracer, shared behind an `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    /// The metrics registry (counters, gauges, histograms).
    pub registry: TelemetryRegistry,
    /// The span/event ring buffer.
    pub tracer: Tracer,
}

impl Telemetry {
    /// A fresh bundle with the [`DEFAULT_TRACE_CAPACITY`] ring buffer.
    pub fn new() -> Arc<Self> {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// The bundle a component registers on when its caller attached
    /// none: a fresh registry, which the component's own stats read, and
    /// a tracer that keeps nothing, since no caller asked for spans.
    pub fn private() -> Arc<Self> {
        Self::with_trace_capacity(0)
    }

    /// A fresh bundle whose tracer retains at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            registry: TelemetryRegistry::new(),
            tracer: Tracer::new(capacity),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_registry_and_tracer() {
        let t = Telemetry::new();
        let c = t.registry.counter("x_total", "x");
        c.add(2.5);
        assert_eq!(
            t.registry.counter("x_total", "x").value(),
            2.5,
            "get-or-register returns the same underlying cell"
        );
        t.tracer.event("boot", &[]);
        assert_eq!(t.tracer.snapshot().len(), 1);
    }
}
