//! Integration tests for the `pim-dse` design-space exploration stack.
//!
//! The load-bearing contracts:
//!
//! 1. The config-level tile costs the sweep evaluator prunes on
//!    (`SramPeConfig::matvec_cost`, `MramPeConfig::matvec_cost`) are
//!    exactly what the real `pim-pe` cycle-simulator ledgers advance by —
//!    not merely close — across sampled configurations and patterns
//!    (proptests). The PEs accumulate stats with field-wise `+=`, so the
//!    pinned form is `baseline + analytic_cost == after`, which is the
//!    exact f64 operation the simulator performs.
//! 2. Pareto pruning never drops a non-dominated point (proptest).
//! 3. An end-to-end sweep produces a non-empty mixed-tier frontier whose
//!    `TUNED.json` round-trips exactly and whose runtime defaults leave
//!    served logits bit-identical.

use pim_arch::ArchConfig;
use pim_dse::{
    dominates, evaluate, pareto_frontier, run_sweep, AnalyticCost, DesignPoint, SweepOptions,
    SweepSpace, Tier, TunedDoc, Workload,
};
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_pe::{MramSparsePe, SparsePe, SramSparsePe};
use pim_runtime::{CompiledModel, Runtime};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, Matrix, NmPattern};
use pim_telemetry::TelemetryRegistry;
use proptest::prelude::*;

/// Deterministic dense tile → N:M pruned CSC (seeded by position).
fn sparse_tile(rows: usize, cols: usize, pattern: NmPattern, seed: usize) -> CscMatrix {
    let dense = Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17 + seed) % 251) as i32 - 125) as i8
    });
    let mask = prune_magnitude(&dense, pattern).expect("non-empty tile");
    CscMatrix::compress(&dense, &mask).expect("shapes match")
}

/// Sampled sweep-space corners: the knobs `SweepSpace::dac24_neighborhood`
/// actually varies.
fn arb_config() -> impl Strategy<Value = ArchConfig> {
    let patterns = prop_oneof![
        Just(NmPattern::one_of_four()),
        Just(NmPattern::one_of_eight()),
        Just(NmPattern::new(2, 4).expect("2:4")),
    ];
    let tiles = prop_oneof![Just((128usize, 8usize)), Just((128, 4)), Just((64, 8))];
    let bits = prop_oneof![Just(8u32), Just(4)];
    (patterns, tiles, bits).prop_map(|(p, (rows, groups), w)| {
        ArchConfig::dac24()
            .with_pattern(p)
            .with_sram_tile(rows, groups)
            .with_weight_bits(w)
            .validated()
            .expect("sampled corner is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SRAM config-level matvec cost is the exact ledger delta of the
    /// cycle simulator: cycles, busy time, and every energy channel.
    /// Tiles run up to 256 rows, and `tail` leaves a partial last N:M
    /// group.
    #[test]
    fn sram_analytic_cost_is_bit_exact_against_the_pe_ledger(
        cfg in arb_config(),
        row_groups in 2usize..=32,
        tail in 0usize..8,
        cols in 1usize..4,
        seed in 0usize..64,
    ) {
        let pattern = cfg.pattern;
        let rows = row_groups * pattern.m() - tail % pattern.m();
        let csc = sparse_tile(rows, cols, pattern, seed);
        let mut pe = SramSparsePe::with_config(cfg.sram.clone());
        pe.load(&csc).expect("sampled tile fits the sampled PE");

        let baseline = *pe.stats();
        let x: Vec<i8> = (0..rows).map(|i| ((i * 37 + seed) % 256) as u8 as i8).collect();
        let report = pe.matvec(&x).expect("loaded");
        let after = *pe.stats();

        let cost = cfg.sram.matvec_cost(pattern.m(), rows);

        // The per-op report itself matches the model, field for field.
        prop_assert_eq!(cost.cycles, report.cycles);
        prop_assert_eq!(cost.latency, report.latency);
        prop_assert_eq!(cost.energy, report.energy);
        // And the cumulative ledger advanced by exactly the analytic cost,
        // in the simulator's own `+=` operation order.
        prop_assert_eq!(after.cycles - baseline.cycles, cost.cycles);
        prop_assert_eq!(baseline.busy_time + cost.latency, after.busy_time);
        prop_assert_eq!(baseline.energy + cost.energy, after.energy);
    }

    /// Same pin for the MRAM PE: `rows_used` and total stored pairs are
    /// derived from the CSC layout exactly as `load` packs it. Tiles run
    /// up to 512 rows, so a column can span several MRAM rows, and `tail`
    /// leaves a partial last N:M group.
    #[test]
    fn mram_analytic_cost_is_bit_exact_against_the_pe_ledger(
        cfg in arb_config(),
        row_groups in 2usize..=64,
        tail in 0usize..8,
        cols in 1usize..=8,
        seed in 0usize..64,
    ) {
        let pattern = cfg.pattern;
        let rows = row_groups * pattern.m() - tail % pattern.m();
        let csc = sparse_tile(rows, cols, pattern, seed);
        let mut pe = MramSparsePe::with_config(cfg.mram.clone());
        pe.load(&csc).expect("sampled tile fits the sampled PE");

        let baseline = *pe.stats();
        let x: Vec<i8> = (0..rows).map(|i| ((i * 41 + seed) % 256) as u8 as i8).collect();
        let report = pe.matvec(&x).expect("loaded");
        let after = *pe.stats();

        // One packed row never mixes logical columns, so each column
        // occupies ceil(slots / pairs_per_row) rows and contributes all
        // of its slots (occupied or not) to the sensed bits.
        let rows_used =
            (csc.slots_per_col().div_ceil(cfg.mram.pairs_per_row) * csc.cols()) as u64;
        let pairs = (csc.slots_per_col() * csc.cols()) as u64;
        let cost = cfg.mram.matvec_cost(rows_used, pairs);

        prop_assert_eq!(cost.cycles, report.cycles);
        prop_assert_eq!(cost.latency, report.latency);
        prop_assert_eq!(cost.energy, report.energy);
        prop_assert_eq!(after.cycles - baseline.cycles, cost.cycles);
        prop_assert_eq!(baseline.busy_time + cost.latency, after.busy_time);
        prop_assert_eq!(baseline.energy + cost.energy, after.energy);
    }
}

#[test]
fn evaluate_is_pinned_to_the_bit_across_the_dac24_neighborhood() {
    // Exact f64 patterns of (latency_ns, energy_pj, area_mm2) for every
    // point of the sweep space, in enumeration order.
    let pinned: [(&str, u64, u64, u64); 12] = [
        (
            "p1of4_s128x8_w8_m1024x42_k8_w4t1b8",
            0x412a21e400000000,
            0x41d9558fbb912e1e,
            0x4077060769ec2ce4,
        ),
        (
            "p1of4_s128x8_w8_m1024x42_k8_w2t2b8",
            0x412a21e400000000,
            0x41d9558fbb912e1e,
            0x4077060769ec2ce4,
        ),
        (
            "p1of4_s128x8_w4_m1024x64_k4_w4t1b8",
            0x412a003800000000,
            0x41d23af203bce702,
            0x407310438b04ab60,
        ),
        (
            "p1of4_s128x8_w4_m1024x64_k4_w2t2b8",
            0x412a003800000000,
            0x41d23af203bce702,
            0x407310438b04ab60,
        ),
        (
            "p1of8_s128x8_w8_m1024x42_k8_w4t1b8",
            0x412f8fc800000000,
            0x41d579beae1367a2,
            0x4070177a0f9096bc,
        ),
        (
            "p1of8_s128x8_w8_m1024x42_k8_w2t2b8",
            0x412f8fc800000000,
            0x41d579beae1367a2,
            0x4070177a0f9096bc,
        ),
        (
            "p1of8_s128x8_w4_m1024x64_k4_w4t1b8",
            0x4129cd8400000000,
            0x41d07c1a72cb4c19,
            0x406dd257d1782d38,
        ),
        (
            "p1of8_s128x8_w4_m1024x64_k4_w2t2b8",
            0x4129cd8400000000,
            0x41d07c1a72cb4c19,
            0x406dd257d1782d38,
        ),
        (
            "p2of4_s128x8_w8_m1024x42_k8_w4t1b8",
            0x412a313c00000000,
            0x41e3f881d00b98c8,
            0x4082b7b1800a7c5b,
        ),
        (
            "p2of4_s128x8_w8_m1024x42_k8_w2t2b8",
            0x412a313c00000000,
            0x41e3f881d00b98c8,
            0x4082b7b1800a7c5b,
        ),
        (
            "p2of4_s128x8_w4_m1024x64_k4_w4t1b8",
            0x412a218600000000,
            0x41da8d108bbfedf7,
            0x407d2ddb18548a9c,
        ),
        (
            "p2of4_s128x8_w4_m1024x64_k4_w2t2b8",
            0x412a218600000000,
            0x41da8d108bbfedf7,
            0x407d2ddb18548a9c,
        ),
    ];
    let (configs, invalid) = SweepSpace::dac24_neighborhood().enumerate();
    assert_eq!(invalid, 0);
    assert_eq!(configs.len(), pinned.len());
    let workload = Workload::resnet50_repnet();
    for (config, (label, latency, energy, area)) in configs.iter().zip(pinned) {
        assert_eq!(config.label(), label);
        let cost = evaluate(config, &workload).expect("valid point evaluates");
        assert_eq!(cost.latency_ns.to_bits(), latency, "{label} latency");
        assert_eq!(cost.energy_pj.to_bits(), energy, "{label} energy");
        assert_eq!(cost.area_mm2.to_bits(), area, "{label} area");
    }
}

fn point(lat: f64, energy: f64, area: f64) -> DesignPoint {
    DesignPoint::analytic(
        ArchConfig::dac24(),
        AnalyticCost {
            latency_ns: lat,
            energy_pj: energy,
            area_mm2: area,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frontier extraction is lossless for non-dominated points: every
    /// input either survives or is dominated by a survivor, and no two
    /// survivors dominate each other.
    #[test]
    fn pareto_pruning_never_drops_a_non_dominated_point(
        objectives in proptest::collection::vec((1u32..40, 1u32..40, 1u32..40), 1..24),
    ) {
        let points: Vec<DesignPoint> = objectives
            .iter()
            .map(|&(l, e, a)| point(l as f64, e as f64, a as f64))
            .collect();
        let frontier = pareto_frontier(&points);
        prop_assert!(!frontier.is_empty());

        for p in &points {
            let survives = frontier.iter().any(|f| f.objectives() == p.objectives());
            let dominated = frontier.iter().any(|f| dominates(f, p));
            prop_assert!(
                survives || dominated,
                "point {:?} neither survived nor is dominated",
                p.objectives()
            );
            // A dominated point must not survive.
            prop_assert!(!(survives && points.iter().any(|o| dominates(o, p))));
        }
        for f in &frontier {
            prop_assert!(!frontier.iter().any(|other| dominates(other, f)));
        }
    }
}

#[test]
fn end_to_end_sweep_tunes_the_runtime_bit_exactly() {
    // A trimmed neighborhood keeps this test fast while still exercising
    // both promotion tiers (the parallelism twins both reach the
    // frontier; only one is promoted).
    let mut space = SweepSpace::dac24_neighborhood();
    space.sram_tiles.truncate(1);
    space.weight_bits.truncate(1);
    let workload = Workload::resnet50_repnet();
    let registry = TelemetryRegistry::new();
    let outcome = run_sweep(
        &space,
        &workload,
        &SweepOptions {
            measure_top: 1,
            iters: 2,
        },
        &registry,
    )
    .expect("sweep succeeds");

    // Non-empty frontier with both tiers distinguished.
    assert!(!outcome.frontier.is_empty());
    assert_eq!(outcome.frontier[0].tier, Tier::Measured);
    assert!(outcome.frontier.iter().any(|p| p.tier == Tier::Analytic));
    assert!(outcome.frontier[0].measured_ns.unwrap() > 0.0);
    // The frontier is ascending in EDP and free of dominated points.
    for pair in outcome.frontier.windows(2) {
        assert!(pair[0].edp() <= pair[1].edp());
    }
    for p in &outcome.frontier {
        assert!(!outcome.frontier.iter().any(|other| dominates(other, p)));
    }

    // TUNED.json round-trips with the winning config intact.
    let text = outcome.doc.render();
    let parsed = TunedDoc::parse(&text).expect("own render parses");
    assert_eq!(parsed.best.config, outcome.doc.best.config);
    assert_eq!(parsed.frontier.len(), outcome.frontier.len());

    // The tuned serving knobs change scheduling, never arithmetic.
    let model = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 10,
            seed: 3,
        },
    );
    let shape: Vec<usize> = CompiledModel::compile("tiny", &model)
        .expect("compile")
        .input_shape()
        .to_vec();
    let input = Tensor::from_fn(&shape, |i| ((i * 7 + 3) % 19) as f32 / 18.0);
    let serve = |tuned: bool| {
        let compiled = CompiledModel::compile("tiny", &model).expect("compile");
        let mut builder = Runtime::builder();
        if tuned {
            builder = builder.tuned(parsed.runtime_defaults());
        }
        let id = builder.register(compiled);
        let runtime = builder.start();
        let logits = runtime.infer(id, &input).expect("infer").logits;
        runtime.shutdown();
        logits
    };
    assert_eq!(serve(false), serve(true));
}
