//! Smoke + shape tests for every experiment driver (the benches print the
//! full artifacts; these tests pin the structure and orderings).

use pim_core::experiments::ablation::{
    csc_vs_csr, index_width_sweep, transpose_pool_sweep, write_fault_sweep,
};
use pim_core::experiments::{run_fig7, run_fig8, run_table1, run_table2, Table1Config};
use pim_sparse::NmPattern;

#[test]
fn table2_reprints_the_paper_constants() {
    let t = run_table2();
    let s = t.to_string();
    // Spot-check the published values appear verbatim.
    assert!(s.contains("0.04400"), "adder tree area\n{s}");
    assert!(s.contains("16.300"), "adder tree power\n{s}");
    assert!(s.contains("4408"), "P resistance\n{s}");
    assert!((t.sram_total_area_mm2() - 0.26839).abs() < 1e-9);
}

#[test]
fn fig7_series_is_ordered_like_the_paper() {
    let fig = run_fig7().expect("profile maps");
    let areas: Vec<f64> = fig.points.iter().map(|p| p.area_norm).collect();
    // SRAM = 1.0 ≥ MRAM ≥ hybrid 1:4 ≥ hybrid 1:8.
    assert!(areas[0] >= areas[1]);
    assert!(areas[1] >= areas[2]);
    assert!(areas[2] >= areas[3]);
    // Power: the SRAM baseline dominates everything else.
    let p: Vec<f64> = fig.points.iter().map(|x| x.total_power_norm()).collect();
    assert!(p[1] < p[0] && p[2] < p[0] && p[3] < p[0], "{p:?}");
}

#[test]
fn fig8_series_is_ordered_like_the_paper() {
    let fig = run_fig8().expect("profile maps");
    let finetune_sram = fig.bar("SRAM[29] finetune-all").expect("bar");
    let finetune_mram = fig.bar("MRAM[30] finetune-all").expect("bar");
    let ours_14 = fig.bar("1:4").expect("bar");
    let ours_18 = fig.bar("1:8").expect("bar");
    assert!(finetune_mram > finetune_sram);
    assert!(ours_14 < finetune_sram && ours_18 < finetune_sram);
    assert!((ours_18 - 1.0).abs() < 1e-9, "normalization point");
}

#[test]
fn quick_table1_produces_the_five_rows() {
    let table = run_table1(&Table1Config::quick());
    assert_eq!(table.rows.len(), 5);
    assert_eq!(table.datasets.len(), 5);
    // Dense backbone should not be worse than heavily pruned backbone.
    let dense = table.row("Dense").expect("row").backbone_accuracy;
    let pruned = table.row("(1:8) FP32").expect("row").backbone_accuracy;
    assert!(
        dense + 1e-9 >= pruned - 0.05,
        "dense {dense} pruned {pruned}"
    );
}

#[test]
fn ablation_csc_wins_storage_at_every_pattern() {
    for pattern in [
        NmPattern::one_of_four(),
        NmPattern::one_of_eight(),
        NmPattern::two_of_four(),
    ] {
        let cmp = csc_vs_csr(256, 64, pattern);
        assert!(cmp.csc_bits < cmp.csr_bits, "{cmp}");
        assert!(cmp.csc_bits < cmp.dense_bits, "{cmp}");
    }
}

#[test]
fn ablation_index_sweep_shows_throughput_rising_with_sparsity() {
    let sweep = index_width_sweep();
    let one_four = sweep
        .iter()
        .find(|p| p.pattern.to_string() == "1:4")
        .expect("1:4");
    let one_sixteen = sweep
        .iter()
        .find(|p| p.pattern.to_string() == "1:16")
        .expect("1:16");
    assert!(one_sixteen.effective_macs_per_cycle > one_four.effective_macs_per_cycle);
    assert!(one_sixteen.storage_ratio < one_four.storage_ratio);
}

#[test]
fn ablation_transpose_pool_has_diminishing_returns() {
    let sweep = transpose_pool_sweep(&[1, 2, 4, 8, 16]);
    let first_gain = sweep[0].step_latency_ns / sweep[1].step_latency_ns;
    let last_gain = sweep[3].step_latency_ns / sweep[4].step_latency_ns;
    assert!(first_gain >= last_gain - 1e-9, "{sweep:?}");
}

#[test]
fn fig7_golden_values_are_stable() {
    // Regression pins (10% relative tolerance): these are the numbers
    // EXPERIMENTS.md reports; model changes that move them should be
    // deliberate.
    let fig = run_fig7().expect("profile maps");
    let close = |got: f64, expect: f64| (got / expect - 1.0).abs() < 0.10;
    assert!(close(fig.point("MRAM").unwrap().area_norm, 0.134), "{fig}");
    assert!(close(fig.point("1:4").unwrap().area_norm, 0.070), "{fig}");
    assert!(close(fig.point("1:8").unwrap().area_norm, 0.049), "{fig}");
    assert!(
        close(fig.point("SRAM").unwrap().leakage_power_norm, 0.915),
        "{fig}"
    );
}

#[test]
fn fig8_golden_values_are_stable() {
    let fig = run_fig8().expect("profile maps");
    let close = |got: f64, expect: f64| (got / expect - 1.0).abs() < 0.10;
    assert!(
        close(fig.bar("SRAM[29] finetune-all").unwrap(), 10.37),
        "{fig}"
    );
    assert!(
        close(fig.bar("MRAM[30] finetune-all").unwrap(), 96.84),
        "{fig}"
    );
    assert!(close(fig.bar("SRAM[29] RepNet").unwrap(), 1.375), "{fig}");
    assert!(close(fig.bar("MRAM[30] RepNet").unwrap(), 12.83), "{fig}");
    assert!(close(fig.bar("1:4").unwrap(), 0.608), "{fig}");
}

/// Compares `got` against an `f64` bit pattern and names the mismatch.
fn assert_bits(what: &str, got: f64, bits: u64) {
    assert_eq!(
        got.to_bits(),
        bits,
        "{what}: got {got:e}, pinned {:e}",
        f64::from_bits(bits)
    );
}

#[test]
fn fig7_points_are_pinned_to_the_bit() {
    // Exact f64 patterns of every Fig. 7 value. The tile costs behind them
    // live in one place (pim-pe's config-level cost functions); a
    // reordered add anywhere in the roll-up moves a low bit and fails
    // here, where the 10% band above would not notice.
    let pinned: [(&str, u64, u64, u64); 4] = [
        (
            "SRAM [29] (ISSCC'21)",
            0x3ff0000000000000,
            0x3fed44ed5e1ecef0,
            0x3fb5d8950f098880,
        ),
        (
            "MRAM [30] (ISCAS'23)",
            0x3fc12f232622e4d0,
            0x3fac36e470d15ad2,
            0x3fc5f658ca01a97e,
        ),
        (
            "Hybrid (1:4)",
            0x3fb1e8ecfcb11848,
            0x3fa0b07852bcd194,
            0x3fb8eea550154503,
        ),
        (
            "Hybrid (1:8)",
            0x3fa90906e527f360,
            0x3f994181ab9e6004,
            0x3fb10ac43dc3ac92,
        ),
    ];
    let fig = run_fig7().expect("profile maps");
    assert_eq!(fig.points.len(), pinned.len());
    for (p, (label, area, leakage, read)) in fig.points.iter().zip(pinned) {
        assert_eq!(p.label, label);
        assert_bits(&format!("{label} area"), p.area_norm, area);
        assert_bits(&format!("{label} leakage"), p.leakage_power_norm, leakage);
        assert_bits(&format!("{label} read"), p.read_power_norm, read);
    }
}

#[test]
fn fig8_bars_are_pinned_to_the_bit() {
    let pinned: [(&str, u64); 6] = [
        ("SRAM[29] finetune-all", 0x4024bfb62c151905),
        ("MRAM[30] finetune-all", 0x405835c9739cab51),
        ("SRAM[29] RepNet (dense)", 0x3ff5fee1a1c4d139),
        ("MRAM[30] RepNet (dense)", 0x4029a78f870966ae),
        ("Hybrid 1:4 sparse RepNet", 0x3fe377f40e189bf4),
        ("Hybrid 1:8 sparse RepNet", 0x3ff0000000000000),
    ];
    let fig = run_fig8().expect("profile maps");
    assert_eq!(fig.bars.len(), pinned.len());
    for ((label, got), (want_label, bits)) in fig.bars.iter().zip(pinned) {
        assert_eq!(label, want_label);
        assert_bits(label, *got, bits);
    }
}

#[test]
fn write_fault_sweep_is_deterministic() {
    let a = write_fault_sweep(&[1e-3], &[1]);
    let b = write_fault_sweep(&[1e-3], &[1]);
    assert_eq!(a, b);
}
