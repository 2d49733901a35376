//! Measures what an attached telemetry bundle costs the serving hot
//! path: the same single-worker runtime serving the same tiny model, once
//! with no bundle attached and once with a full [`Telemetry`] bundle.
//! Both count into the same metric handles — they are the runtime's
//! accounting, registered on a private bundle when none is attached —
//! so the difference is the attached tracer's retained spans (a private
//! bundle's tracer keeps none). The design target is <2%
//! per-request overhead.
//!
//! The driver keeps a window of in-flight tickets so the worker is always
//! saturated: per-request time then reflects steady-state serving
//! throughput rather than lone-request thread-wakeup latency, whose
//! scheduler jitter (tens of µs on an idle box) would drown the effect
//! being measured.
//!
//! Appends `serve_infer_uninstrumented` / `serve_infer_instrumented` and
//! the derived `telemetry_overhead_frac` to `BENCH_kernels.json` (merged —
//! the kernels bench owns the rest of that baseline).

use pim_bench::{banner, merge_bench_json, BenchRecord};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, Runtime, Telemetry};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ITERS: u32 = 2_000;
/// In-flight request window: deep enough that the worker never idles
/// between batches, shallow enough to stay far from the queue bound.
const DEPTH: usize = 16;

fn serve_infer_ns(model: &RepNet, telemetry: Option<Arc<Telemetry>>) -> f64 {
    let mut builder = Runtime::builder().workers(1).max_wait(Duration::ZERO);
    if let Some(bundle) = telemetry {
        builder = builder.telemetry(bundle);
    }
    let id = builder.register(CompiledModel::compile("tiny", model).expect("compile"));
    let runtime = builder.start();
    let input = Tensor::ones(runtime.models()[0].input_shape());

    let mut window = VecDeque::with_capacity(DEPTH);
    for _ in 0..DEPTH {
        window.push_back(runtime.submit(id, &input).expect("prime"));
    }
    let started = Instant::now();
    for _ in 0..ITERS {
        window
            .pop_front()
            .expect("window stays primed")
            .wait()
            .expect("serving is up");
        window.push_back(runtime.submit(id, &input).expect("submit"));
    }
    let ns = started.elapsed().as_nanos() as f64 / f64::from(ITERS);
    for ticket in window {
        ticket.wait().expect("drain");
    }
    runtime.shutdown();
    ns
}

fn main() {
    banner("Telemetry overhead: instrumented vs uninstrumented serving");
    let model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 5,
            seed: 11,
        },
    );

    // Alternate the two configurations and keep each one's best run:
    // min-of-N discards the residual scheduler/thermal noise.
    let warm = serve_infer_ns(&model, None);
    let mut base_ns = f64::INFINITY;
    let mut instrumented_ns = f64::INFINITY;
    let mut telemetry = Telemetry::new();
    for _ in 0..5 {
        base_ns = base_ns.min(serve_infer_ns(&model, None));
        telemetry = Telemetry::new();
        instrumented_ns = instrumented_ns.min(serve_infer_ns(&model, Some(Arc::clone(&telemetry))));
    }
    let overhead_frac = (instrumented_ns - base_ns) / base_ns;

    println!("  warmup             : {warm:.1} ns/infer (discarded)");
    println!("  uninstrumented     : {base_ns:.1} ns/infer");
    println!("  instrumented       : {instrumented_ns:.1} ns/infer");
    println!(
        "  overhead           : {:+.2}% (target < 2%)",
        overhead_frac * 100.0
    );
    println!(
        "  series registered  : {}",
        telemetry.registry.metric_names().len()
    );
    println!(
        "  spans traced       : {} ({} dropped)",
        telemetry.tracer.len(),
        telemetry.tracer.dropped()
    );

    let records = [
        BenchRecord::new("serve_infer_uninstrumented", base_ns),
        BenchRecord::new("serve_infer_instrumented", instrumented_ns),
    ];
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    merge_bench_json(
        &out,
        "kernels",
        &records,
        &[("telemetry_overhead_frac", overhead_frac)],
    )
    .expect("writable workspace root");
}
