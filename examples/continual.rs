//! Online continual learning with live publication into the serving
//! runtime — the paper's deployment story, end to end.
//!
//! A `LearnEngine` streams labelled samples into a replay buffer and takes
//! incremental SGD steps on the Rep-Net adaptor (backbone frozen in
//! write-protected MRAM). Every few steps it **differentially writes the
//! updated adaptor weights back** into its resident SRAM PE tiles —
//! toggling only the changed bit-cells, metered against the endurance
//! budget — and hot-swaps the new model version into a running
//! `pim-runtime` serving pool while clients keep querying it.
//!
//! The run closes with the hybrid contract ledger (MRAM writes must be
//! zero), a differential-vs-full write comparison, a live
//! Figure-8-style EDP bar chart against a modelled finetune-all-in-NVM
//! deployment, and a compact Table-1 scenario: the same frozen backbone
//! re-adapted to a sequence of downstream tasks through `HybridSystem`.
//!
//! Run with: `cargo run --release --example continual`

use pim_core::pe_inference::PeRepNet;
use pim_core::{HybridSystem, NmPattern, SystemConfig};
use pim_data::{downstream_suite, SyntheticSpec};
use pim_learn::{LearnEngine, OnlineLearnerConfig, WritePolicy};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::train::FitConfig;
use pim_runtime::Runtime;
use std::time::Duration;

const NUM_CLASSES: usize = 10;
const ROUNDS: usize = 4;
const STEPS_PER_ROUND: usize = 5;
const QUERIES_PER_ROUND: usize = 12;

fn main() {
    println!("=== pim-learn: continual learning with hot model swap ===\n");

    // -- The deployment: frozen backbone + learnable adaptor --------------
    let model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: NUM_CLASSES,
            seed: 42,
        },
    );
    let policy = WritePolicy::hybrid_dac24(1 << 22);
    println!("write policy : {policy}");
    let mut engine = LearnEngine::new(
        "repnet",
        model,
        OnlineLearnerConfig {
            replay_capacity: 128,
            batch_size: 8,
            lr: 0.01,
            seed: 7,
            ..OnlineLearnerConfig::default()
        },
        policy,
    )
    .expect("model fits the PEs");
    println!(
        "resident     : {} SRAM PE tiles, full reload = {} bit-writes\n",
        engine.tile_count(),
        engine.full_load_bits()
    );

    // -- Serving pool over the same model ---------------------------------
    let mut builder = Runtime::builder()
        .workers(2)
        .max_batch(8)
        .max_wait(Duration::from_micros(200));
    let id = builder.register(engine.compiled());
    let runtime = builder.start();

    // -- The labelled stream ----------------------------------------------
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(8, 4)
        .generate()
        .expect("synthetic task");

    // -- Learn, publish, serve — interleaved ------------------------------
    let mut sample = 0;
    for round in 0..ROUNDS {
        // New labelled samples arrive on-device.
        for _ in 0..8 {
            let (x, labels) = task.train.batch(&[sample % task.train.len()]);
            engine.observe(&x, labels[0]);
            sample += 1;
        }
        // A few incremental training steps over the replay buffer.
        let mut last_loss = 0.0;
        for _ in 0..STEPS_PER_ROUND {
            last_loss = engine.step().expect("online step").loss;
        }
        // Differential write-back + atomic hot swap into serving.
        let version = engine.publish(&runtime, id).expect("publish");
        // Clients keep querying across the swap.
        let mut correct = 0;
        for q in 0..QUERIES_PER_ROUND {
            let (x, labels) = task.test.batch(&[q % task.test.len()]);
            let response = runtime.infer(id, &x).expect("serve");
            if response.prediction == labels[0] {
                correct += 1;
            }
        }
        println!(
            "round {round}: loss {last_loss:.4} -> published v{version} \
             ({} bit-writes so far), serving {correct}/{QUERIES_PER_ROUND} test hits",
            engine.report().sram_write_bits
        );
    }
    println!();

    // -- Bit-exactness: serving matches a cold recompile -------------------
    let cold_model = engine.learner().model().clone();
    let mut cold_branch = PeRepNet::compile(&cold_model).expect("cold recompile");
    let (x, _) = task.test.batch(&[0]);
    let served = runtime.infer(id, &x).expect("serve");
    let (cold_logits, _) = cold_branch.predict(&cold_model, &x);
    assert_eq!(
        served.logits,
        cold_logits.as_slice(),
        "served logits must match a cold compile of the current weights"
    );
    println!("spot-check   : served logits bit-exact with cold recompile");

    // -- The hybrid contract ledger ----------------------------------------
    let report = engine.report();
    assert_eq!(report.mram_write_bits, 0, "backbone must stay untouched");
    assert!(report.within_budget());
    println!("learn ledger : {report}");
    println!(
        "differential : {} bit-writes across {} publishes vs {} for full reloads ({:.1}% saved)",
        report.sram_write_bits,
        report.publishes,
        engine.full_load_bits() * report.publishes,
        100.0
            * (1.0
                - report.sram_write_bits as f64
                    / (engine.full_load_bits() * report.publishes) as f64)
    );

    let serving = runtime.shutdown();
    println!("serve ledger : {serving}");
    assert_eq!(serving.model_swaps, ROUNDS as u64);

    // -- Live Figure 8 ------------------------------------------------------
    println!();
    let fig = engine
        .fig8("1:4")
        .expect("publishes happened, EDP is measured");
    print!("{fig}");

    // -- Table-1 scenario: one backbone, a sequence of tasks ---------------
    // The same property at system scope: pretrain a backbone once, then
    // re-adapt only the tiny 1:4-sparse Rep-Net path to each downstream
    // task. The backbone never takes a write, so every task switch is an
    // SRAM-only rewrite.
    println!("\n=== Table-1 scenario: frozen backbone, per-task adaptors ===\n");
    let backbone = BackboneConfig {
        in_channels: 3,
        image_size: 8,
        stage_widths: vec![16, 32],
        blocks_per_stage: 1,
        seed: 1,
    };
    let fit = FitConfig {
        epochs: 8,
        batch_size: 32,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 3,
    };
    let upstream = SyntheticSpec::upstream_pretraining()
        .with_geometry(8, 3)
        .generate()
        .expect("upstream spec");
    let mut system = HybridSystem::pretrain(
        SystemConfig {
            backbone,
            rep_channels: 8,
            pattern: Some(NmPattern::new(1, 4).expect("valid pattern")),
            seed: 7,
        },
        &upstream,
        &fit,
    );
    for spec in downstream_suite().into_iter().take(2) {
        let task = spec
            .with_geometry(8, 3)
            .with_samples(6, 3)
            .generate()
            .expect("task spec");
        let report = system.learn_task(&task, &fit);
        assert!(
            report.accuracy_fp32 > 0.2,
            "adaptor failed to learn the task: {report}"
        );
        assert!(
            report.accuracy_int8 > report.accuracy_fp32 - 0.25,
            "PTQ collapsed: {report}"
        );
        println!("  {report}");
    }
    let dep = system.deployment().expect("maps onto the PEs");
    assert!(dep.total_area().as_mm2() > 0.0);
    println!(
        "  deployment: {:.2} mm² total, write energy/step limited to the SRAM branch",
        dep.total_area().as_mm2()
    );
}
