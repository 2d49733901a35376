//! Design-space exploration: sweep, prune, measure, tune.
//!
//! Enumerates the dac24 neighborhood of the architecture grid (N:M
//! pattern × SRAM tile × weight precision × worker/thread split),
//! evaluates every valid point with the analytic `pim-arch` roll-up,
//! prunes to the {latency, energy, area, EDP} Pareto frontier, promotes
//! the lowest-EDP survivors to real PE micro-benches, and writes the
//! result as `TUNED.json`. The winning configuration's serving knobs are
//! then fed to a `RuntimeBuilder` and shown to produce bit-exact logits
//! against the hard-coded defaults.
//!
//! Run with: `cargo run --release --example dse`

use pim_dse::{run_sweep, SweepOptions, SweepSpace, Tier, TunedDoc, Workload};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, Runtime};
use pim_telemetry::TelemetryRegistry;
use std::path::Path;

/// The document with every host-timed `measured_ns` cleared.
fn without_timing(mut doc: TunedDoc) -> TunedDoc {
    doc.best.measured_ns = None;
    for entry in &mut doc.frontier {
        entry.measured_ns = None;
    }
    doc
}

fn main() {
    println!("=== pim-dse: design-space exploration ===\n");

    // -- Sweep -------------------------------------------------------------
    let space = SweepSpace::dac24_neighborhood();
    let workload = Workload::resnet50_repnet();
    let registry = TelemetryRegistry::new();
    println!(
        "sweeping {} grid points on `{}` (analytic tier)...",
        space.grid_size(),
        workload.name
    );
    let outcome = run_sweep(&space, &workload, &SweepOptions::default(), &registry)
        .expect("sweep of the dac24 neighborhood");
    println!(
        "evaluated {} valid points ({} invalid), frontier size {}\n",
        outcome.evaluated,
        outcome.invalid,
        outcome.frontier.len()
    );

    // -- Frontier table ----------------------------------------------------
    println!(
        "{:<42} {:>9} {:>12} {:>14} {:>9} {:>14}",
        "config", "tier", "latency", "energy", "area", "EDP"
    );
    for p in &outcome.frontier {
        println!(
            "{:<42} {:>9} {:>9.1} us {:>11.1} nJ {:>5.2} mm2 {:>11.3e} pJ.ns",
            p.label,
            p.tier,
            p.cost.latency_ns / 1e3,
            p.cost.energy_pj / 1e3,
            p.cost.area_mm2,
            p.edp(),
        );
    }
    let best = &outcome.doc.best;
    println!(
        "\nbest EDP: {} ({}, {:.1} ns/matvec on the host simulator)",
        best.label,
        best.tier,
        best.measured_ns.unwrap_or(f64::NAN)
    );
    assert_eq!(best.tier, Tier::Measured, "the winner is always promoted");
    assert!(
        outcome.frontier.iter().any(|p| p.tier == Tier::Analytic),
        "runner-up frontier rows stay analytic"
    );

    // -- TUNED.json round-trip ---------------------------------------------
    // `measured_ns` is a host timing that differs on every run, so the
    // committed file is rewritten only when the sweep found something else.
    let path = Path::new("TUNED.json");
    let committed = TunedDoc::load(path).ok().flatten().map(without_timing);
    let fresh = TunedDoc::parse(&outcome.doc.render()).map(without_timing);
    let rewrite = committed.is_none() || committed != fresh;
    if rewrite {
        outcome.doc.save(path).expect("write TUNED.json");
    }
    let reloaded = TunedDoc::load(path)
        .expect("readable")
        .expect("present and valid");
    assert_eq!(
        reloaded.best.config, outcome.doc.best.config,
        "the winning configuration survives the JSON round-trip exactly"
    );
    println!(
        "{} TUNED.json ({} frontier points) and verified the round-trip",
        if rewrite {
            "wrote"
        } else {
            "kept the committed"
        },
        reloaded.frontier.len()
    );

    // -- Tuned defaults drive the runtime, bit-exactly ----------------------
    let defaults = reloaded.runtime_defaults();
    println!(
        "\ntuned runtime defaults: {} workers x {} threads, batch {}, queue {}",
        defaults.workers, defaults.par_threads, defaults.max_batch, defaults.queue_capacity
    );

    let model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 10,
            seed: 7,
        },
    );
    let shape: Vec<usize> = CompiledModel::compile("repnet-tiny", &model)
        .expect("model fits")
        .input_shape()
        .to_vec();
    let input = Tensor::from_fn(&shape, |i| ((i * 13 + 5) % 17) as f32 / 16.0);

    let run = |tuned: Option<pim_runtime::TunedDefaults>| {
        let compiled = CompiledModel::compile("repnet-tiny", &model).expect("model fits");
        let mut builder = Runtime::builder();
        if let Some(t) = tuned {
            builder = builder.tuned(t);
        }
        let id = builder.register(compiled);
        let runtime = builder.start();
        let logits = runtime.infer(id, &input).expect("inference").logits;
        runtime.shutdown();
        logits
    };
    let baseline = run(None);
    let tuned = run(Some(defaults));
    assert_eq!(
        baseline, tuned,
        "tuned serving knobs change scheduling, never arithmetic"
    );
    println!(
        "bit-exactness: tuned runtime logits == default runtime logits ({} classes)",
        baseline.len()
    );
}
