//! Live observability tour: one shared [`Telemetry`] bundle wired through
//! a serving [`Runtime`] and a continual-learning [`LearnEngine`] at the
//! same time. While traffic flows and the model retrains/republishes, the
//! example prints a per-stage latency breakdown (serve: queue → batch_form
//! → compute → reply; learn: step → preflight → write_back → swap) and the
//! per-channel PE energy counters — then proves at shutdown that the
//! telemetry mirror agrees with the authoritative `PeStats` ledgers to the
//! bit, renders the full Prometheus exposition, and saves the span trace
//! as JSONL.
//!
//! Run with: `cargo run --release --example telemetry`

use pim_learn::{LearnEngine, OnlineLearnerConfig, WritePolicy};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_pe::telemetry::ENERGY_CHANNELS;
use pim_pe::PeTelemetry;
use pim_runtime::{Runtime, Telemetry};
use pim_telemetry::{exponential_buckets, TelemetryRegistry, TraceDump};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn sample(i: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 8, 8],
        (0..64).map(|v| ((v * 3 + i) % 11) as f32 / 11.0).collect(),
    )
    .expect("sample shape")
}

/// Re-acquires the stage histograms and energy counters through the
/// registry's get-or-register semantics (same name + labels → same
/// series) and prints the live breakdown — exactly what a dashboard
/// polling `render_prometheus` would compute.
fn print_breakdown(registry: &TelemetryRegistry) {
    let seconds = exponential_buckets(1e-6, 4.0, 13);
    println!(
        "  {:<18} {:>6} {:>12} {:>12}",
        "stage", "count", "mean µs", "p95 µs"
    );
    for stage in pim_runtime::telemetry::STAGES {
        let h = registry.histogram_with(
            pim_runtime::telemetry::STAGE_METRIC,
            "Wall-clock seconds spent per serving stage",
            &seconds,
            &[("stage", stage)],
        );
        println!(
            "  serve/{:<12} {:>6} {:>12.2} {:>12.2}",
            stage,
            h.count(),
            h.mean() * 1e6,
            h.quantile(0.95) * 1e6
        );
    }
    for stage in pim_learn::telemetry::STAGES {
        let h = registry.histogram_with(
            pim_learn::telemetry::STAGE_METRIC,
            "Wall-clock seconds spent per continual-learning stage",
            &seconds,
            &[("stage", stage)],
        );
        println!(
            "  learn/{:<12} {:>6} {:>12.2} {:>12.2}",
            stage,
            h.count(),
            h.mean() * 1e6,
            h.quantile(0.95) * 1e6
        );
    }
    for source in ["serve", "learn"] {
        let pe = PeTelemetry::register(registry, source);
        let energy = pe.energy_pj();
        print!("  energy[{source}]  ");
        for (channel, pj) in ENERGY_CHANNELS.iter().zip(energy) {
            print!("{channel} {pj:.1} pJ  ");
        }
        println!("(total {:.1} pJ)", pe.total_energy_pj());
    }
}

fn main() {
    let telemetry = Telemetry::new();

    let model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 3,
            seed: 5,
        },
    );
    let mut engine = LearnEngine::new(
        "live",
        model,
        OnlineLearnerConfig {
            replay_capacity: 32,
            batch_size: 4,
            seed: 21,
            ..OnlineLearnerConfig::default()
        },
        // Finite bit budget so pim_learn_budget_used_ratio moves visibly
        // (the paper's SRAM deployment is effectively unbounded).
        WritePolicy::hybrid_dac24(1 << 20).with_bit_budget(16384.0),
    )
    .expect("adaptor fits the PEs");
    engine.attach_telemetry(&telemetry);

    // `RuntimeStats` is a view of the same registry counters, so the
    // serve-side checks below hold at any worker count; the learn-side
    // ones compare the counters against `LearnReport`'s own ledger, which
    // sees the same deltas in the same order.
    let mut builder = Runtime::builder()
        .workers(1)
        .max_wait(Duration::ZERO)
        .telemetry(Arc::clone(&telemetry));
    let id = builder.register(engine.compiled());
    let runtime = builder.start();

    for i in 0..24 {
        engine.observe(&sample(i), i % 3);
    }

    for round in 1..=3usize {
        println!("\n--- round {round}: serve 16 requests, take 4 SGD steps, publish ---");
        for i in 0..16 {
            let response = runtime
                .infer(id, &sample(round * 100 + i))
                .expect("serving is up");
            let _ = response.prediction;
        }
        for _ in 0..4 {
            engine.step().expect("replay buffer is fed");
        }
        let version = engine.publish(&runtime, id).expect("publish");
        println!("  published model version v{version}");
        print_breakdown(&telemetry.registry);
    }

    let stats = runtime.shutdown();
    let report = engine.report();

    // The telemetry mirror must agree with the authoritative ledgers to
    // the bit: same deltas, same order, same f64 rounding.
    let serve = PeTelemetry::register(&telemetry.registry, "serve");
    assert_eq!(
        serve.total_energy_pj().to_bits(),
        stats.total_energy.as_pj().to_bits(),
        "serve energy counters drifted from the RuntimeStats ledger"
    );
    let macs = telemetry
        .registry
        .counter_with(
            "pim_pe_macs_total",
            "MAC operations executed",
            &[("source", "serve")],
        )
        .value();
    assert_eq!(
        macs as u64, stats.macs,
        "MAC counter drifted from the ledger"
    );
    let learn = PeTelemetry::register(&telemetry.registry, "learn");
    assert_eq!(
        learn.energy_pj()[2].to_bits(),
        report.write_energy.as_pj().to_bits(),
        "learn write-energy counter drifted from the LearnReport ledger"
    );
    println!(
        "\nbit-exact: serve energy {:.3} pJ == RuntimeStats ledger; \
         learn write energy {:.3} pJ == LearnReport ledger",
        serve.total_energy_pj(),
        report.write_energy.as_pj()
    );
    println!("serve ledger : {stats}");
    println!("learn ledger : {report}");

    println!("\n--- Prometheus exposition ---");
    print!("{}", telemetry.registry.render_prometheus());

    let dump = TraceDump::from_tracer(&telemetry.tracer);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/telemetry_trace.jsonl");
    dump.save(&out).expect("writable target dir");
    println!(
        "\ntrace: {} spans recorded ({} dropped by the ring) -> {}",
        dump.len(),
        dump.dropped(),
        out.display()
    );
}
