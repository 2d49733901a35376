//! Ablations of the design decisions DESIGN.md calls out.
//!
//! * [`csc_vs_csr`] — the paper's §3.1 argument quantified: CSC preserves
//!   in-array multiplication structure, CSR forces input gathers and
//!   per-row write-backs (and fatter indices).
//! * [`index_width_sweep`] — the cost of the 4-bit index field across
//!   `N:M` patterns: storage ratio, per-tile cycles, effective throughput.
//! * [`transpose_pool_sweep`] — sizing the transposed-SRAM-PE pool (§4):
//!   backprop-step latency versus the number of buffers.
//! * [`write_fault_sweep`] — MRAM write-instability (another §1 concern):
//!   output corruption versus write error rate and write-verify retries.

use crate::profile::profile_repnet;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_pe::{MramPeConfig, MramSparsePe, SparsePe, SramPeConfig, TransposedSramPe};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, CsrMatrix, Matrix, NmPattern};
use std::fmt;

/// Comparison of the two compression formats on the same sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscVsCsr {
    /// Pattern compared.
    pub pattern: NmPattern,
    /// Logical matrix shape.
    pub shape: (usize, usize),
    /// Dense storage bits.
    pub dense_bits: u64,
    /// CSC storage bits (fixed-geometry slots + 4-bit offsets).
    pub csc_bits: u64,
    /// CSR storage bits (full column indices + row pointers).
    pub csr_bits: u64,
    /// Stored non-zeros.
    pub nnz: u64,
    /// Input gathers a CSR mapping performs per matvec.
    pub csr_input_gathers: u64,
    /// Partial-sum write-backs a CSR mapping performs per matvec.
    pub csr_writebacks: u64,
}

impl fmt::Display for CscVsCsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CSC vs CSR at {} on {}x{}:",
            self.pattern, self.shape.0, self.shape.1
        )?;
        writeln!(f, "  dense: {} bits", self.dense_bits)?;
        writeln!(
            f,
            "  CSC:   {} bits ({:.3}x dense), 0 gathers, 0 write-backs",
            self.csc_bits,
            self.csc_bits as f64 / self.dense_bits as f64
        )?;
        writeln!(
            f,
            "  CSR:   {} bits ({:.3}x dense), {} gathers, {} write-backs per matvec",
            self.csr_bits,
            self.csr_bits as f64 / self.dense_bits as f64,
            self.csr_input_gathers,
            self.csr_writebacks
        )
    }
}

/// Quantifies the CSC-vs-CSR trade-off on a representative sparse matrix.
pub fn csc_vs_csr(rows: usize, cols: usize, pattern: NmPattern) -> CscVsCsr {
    let dense = Matrix::from_fn(rows, cols, |r, c| {
        (((r * 37 + c * 11) % 251) as i32 - 125) as i8
    });
    let mask = prune_magnitude(&dense, pattern).expect("non-empty");
    let masked = mask.apply(&dense).expect("shapes agree");
    let csc = CscMatrix::compress(&masked, &mask).expect("mask fits");
    let csr = CsrMatrix::from_dense(&masked);
    let x = vec![1i32; rows];
    let (_, stats) = csr.matvec_with_stats(&x).expect("length matches");
    CscVsCsr {
        pattern,
        shape: (rows, cols),
        dense_bits: (rows * cols * 8) as u64,
        csc_bits: csc.storage_bits(8),
        csr_bits: csr.storage_bits(8),
        nnz: csr.nnz() as u64,
        csr_input_gathers: stats.input_gathers,
        csr_writebacks: stats.writebacks,
    }
}

/// One point of the index-width sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexWidthPoint {
    /// The pattern.
    pub pattern: NmPattern,
    /// Index bits the pattern needs.
    pub index_bits: u32,
    /// Compressed storage relative to dense (incl. index overhead).
    pub storage_ratio: f64,
    /// SRAM PE cycles per tile matvec (`8·M + 3`).
    pub sram_tile_cycles: u64,
    /// Effective dense-equivalent MACs per cycle per SRAM PE.
    pub effective_macs_per_cycle: f64,
}

impl fmt::Display for IndexWidthPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>5}: {} idx bits, {:.3}x storage, {:>3} cycles/tile, {:>8.1} eff MAC/cyc",
            self.pattern.to_string(),
            self.index_bits,
            self.storage_ratio,
            self.sram_tile_cycles,
            self.effective_macs_per_cycle
        )
    }
}

/// Sweeps the supported `N:M` patterns.
pub fn index_width_sweep() -> Vec<IndexWidthPoint> {
    let patterns = [
        NmPattern::new(1, 4).expect("valid"),
        NmPattern::new(2, 4).expect("valid"),
        NmPattern::new(1, 8).expect("valid"),
        NmPattern::new(2, 8).expect("valid"),
        NmPattern::new(1, 16).expect("valid"),
        NmPattern::new(4, 16).expect("valid"),
    ];
    let sram = SramPeConfig::dac24();
    patterns
        .into_iter()
        .map(|pattern| {
            let cycles = sram.matvec_cost(pattern.m(), 0).cycles;
            // A full 1024-slot tile covers 1024·(M/N) logical weights.
            let logical = sram.capacity_slots() as f64 * pattern.m() as f64 / pattern.n() as f64;
            IndexWidthPoint {
                pattern,
                index_bits: pattern.index_bits(),
                storage_ratio: pattern.storage_ratio(8),
                sram_tile_cycles: cycles,
                effective_macs_per_cycle: logical / cycles as f64,
            }
        })
        .collect()
}

/// One point of the transposed-buffer pool sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TransposePoolPoint {
    /// Buffers in the pool.
    pub pool_size: usize,
    /// Backprop-step latency in nanoseconds (all layers' transposed writes
    /// + error-propagation matvecs, scheduled longest-first over the pool).
    pub step_latency_ns: f64,
}

/// Sweeps the transposed-SRAM-PE pool size for the Rep-Net path of a
/// reference model, reporting the per-step backprop latency. The paper
/// bounds the pool by the largest per-layer learnable footprint; the sweep
/// shows the latency knee.
pub fn transpose_pool_sweep(pool_sizes: &[usize]) -> Vec<TransposePoolPoint> {
    // A representative trained-scale rep path.
    let net = RepNet::new(
        Backbone::new(BackboneConfig::default()),
        RepNetConfig {
            rep_channels: 8,
            num_classes: 100,
            seed: 9,
        },
    );
    let profile = profile_repnet(&net);
    // Per-layer cost: write Wᵀ + one error-propagation matvec, measured on
    // an actual transposed buffer for a layer-shaped matrix.
    let layer_costs: Vec<f64> = profile
        .layers
        .iter()
        .map(|l| {
            let rows = l.reduction.min(1024);
            let cols = l.outputs.min(128);
            // A buffer holds ≤1024 entries, so large layers refresh the
            // buffer in chunks of input rows; the per-step cost is the sum
            // over chunks (they serialize on one buffer).
            let rows_per_chunk = (1024 / cols).max(1).min(rows);
            let mut total = 0.0;
            let mut r0 = 0;
            while r0 < rows {
                let chunk_rows = rows_per_chunk.min(rows - r0);
                let w = Matrix::from_fn(chunk_rows, cols, |r, c| {
                    if (r0 + r + c) % 4 == 0 {
                        (((r0 + r) * 7 + c) % 31) as i8 - 15
                    } else {
                        0
                    }
                });
                let mut buf = TransposedSramPe::new();
                let write = buf.write_transposed(&w).expect("chunk fits the buffer");
                let mv = buf.matvec(&vec![1i32; cols]).expect("loaded");
                total += write.latency.as_ns() + mv.latency.as_ns();
                r0 += chunk_rows;
            }
            total
        })
        .collect();

    pool_sizes
        .iter()
        .map(|&pool| {
            // Longest-processing-time-first scheduling over `pool` buffers.
            let mut sorted = layer_costs.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            let mut lanes = vec![0.0f64; pool.max(1)];
            for cost in sorted {
                let min = lanes
                    .iter_mut()
                    .min_by(|a, b| a.partial_cmp(b).expect("finite"))
                    .expect("non-empty pool");
                *min += cost;
            }
            TransposePoolPoint {
                pool_size: pool.max(1),
                step_latency_ns: lanes.iter().cloned().fold(0.0, f64::max),
            }
        })
        .collect()
}

/// One point of the MRAM write-fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Per-pulse MTJ write error rate.
    pub write_error_rate: f64,
    /// Write-verify retry budget.
    pub retries: u32,
    /// Fraction of stored weight bits left flipped.
    pub corrupted_bit_fraction: f64,
    /// Relative L1 deviation of a matvec versus the fault-free tile.
    pub output_deviation: f64,
    /// Extra write energy burned by retries, relative to the clean load.
    pub retry_energy_overhead: f64,
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WER {:.0e}, {} retries: {:.3e} bits flipped, output dev {:.3e}, +{:.1}% write energy",
            self.write_error_rate,
            self.retries,
            self.corrupted_bit_fraction,
            self.output_deviation,
            100.0 * self.retry_energy_overhead
        )
    }
}

/// Sweeps the MRAM write error rate × retry budget over a representative
/// backbone tile, quantifying the instability concern of the paper's
/// introduction and the cost of suppressing it with write-verify.
pub fn write_fault_sweep(rates: &[f64], retries: &[u32]) -> Vec<FaultPoint> {
    let dense = Matrix::from_fn(1024, 8, |r, c| {
        (((r * 31 + c * 17) % 251) as i32 - 125) as i8
    });
    let mask = prune_magnitude(&dense, NmPattern::one_of_four()).expect("non-empty");
    let csc = CscMatrix::compress(&dense, &mask).expect("fits");
    let x: Vec<i8> = (0..1024).map(|i| (i % 200) as i8).collect();

    let mut clean = MramSparsePe::new();
    let clean_load = clean.load(&csc).expect("capacity");
    let reference = clean.matvec(&x).expect("loaded").outputs;
    let ref_l1: f64 = reference.iter().map(|&v| (v as f64).abs()).sum();
    let stored_bits = (csc.nnz() * 8) as f64;

    let mut points = Vec::new();
    for &rate in rates {
        for &retry in retries {
            let mut cfg = MramPeConfig::dac24();
            cfg.mtj.write_error_rate = rate;
            let mut pe = MramSparsePe::with_config(cfg);
            let report = pe.load_with_faults(&csc, 1234, retry).expect("capacity");
            let outputs = pe.matvec(&x).expect("loaded").outputs;
            let dev: f64 = outputs
                .iter()
                .zip(&reference)
                .map(|(&a, &b)| (a as f64 - b as f64).abs())
                .sum();
            points.push(FaultPoint {
                write_error_rate: rate,
                retries: retry,
                corrupted_bit_fraction: report.corrupted_bits as f64 / stored_bits,
                output_deviation: dev / ref_l1.max(1.0),
                retry_energy_overhead: (report.load.energy.write.as_pj()
                    - clean_load.energy.write.as_pj())
                    / clean_load.energy.write.as_pj(),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_beats_csr_on_storage_and_traffic() {
        let cmp = csc_vs_csr(256, 64, NmPattern::one_of_four());
        assert!(cmp.csc_bits < cmp.csr_bits, "{cmp}");
        assert!(cmp.csc_bits < cmp.dense_bits / 2);
        assert!(cmp.csr_input_gathers > 0);
        assert!(cmp.csr_writebacks > 0);
    }

    #[test]
    fn csr_index_payload_grows_with_width() {
        let narrow = csc_vs_csr(128, 16, NmPattern::one_of_four());
        let wide = csc_vs_csr(128, 512, NmPattern::one_of_four());
        // Per-nonzero payload excluding row pointers: CSR needs
        // ceil(log2(cols)) index bits per entry, so it grows with width;
        // CSC's 4-bit offsets do not.
        let ptr_bits = 32 * (128 + 1) as u64;
        let narrow_per_nnz = (narrow.csr_bits - ptr_bits) as f64 / narrow.nnz as f64;
        let wide_per_nnz = (wide.csr_bits - ptr_bits) as f64 / wide.nnz as f64;
        assert!(wide_per_nnz > narrow_per_nnz, "{narrow} {wide}");
        let csc_per_slot_narrow = narrow.csc_bits as f64 / narrow.nnz as f64;
        let csc_per_slot_wide = wide.csc_bits as f64 / wide.nnz as f64;
        assert!((csc_per_slot_narrow - csc_per_slot_wide).abs() < 1e-9);
    }

    #[test]
    fn index_sweep_covers_all_pattern_families() {
        let sweep = index_width_sweep();
        assert_eq!(sweep.len(), 6);
        // Higher M needs more index bits and more cycles per tile...
        let p14 = &sweep[0];
        let p116 = &sweep[4];
        assert!(p116.index_bits > p14.index_bits);
        assert!(p116.sram_tile_cycles > p14.sram_tile_cycles);
        // ...but covers more logical weights per tile: effective
        // throughput still rises with sparsity.
        assert!(p116.effective_macs_per_cycle > p14.effective_macs_per_cycle);
    }

    #[test]
    fn transpose_pool_latency_is_monotone_in_pool_size() {
        let sweep = transpose_pool_sweep(&[1, 2, 4, 8]);
        assert_eq!(sweep.len(), 4);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].step_latency_ns <= pair[0].step_latency_ns + 1e-9,
                "{pair:?}"
            );
        }
        // The pool saturates: a huge pool is no better than one buffer per
        // layer.
        let many = transpose_pool_sweep(&[64]);
        let eight = &sweep[3];
        assert!(many[0].step_latency_ns <= eight.step_latency_ns + 1e-9);
    }

    #[test]
    fn write_fault_sweep_shows_verify_retries_working() {
        let points = write_fault_sweep(&[1e-2], &[0, 2, 4]);
        assert_eq!(points.len(), 3);
        // More retries → fewer corrupted bits, smaller output deviation,
        // more retry energy.
        assert!(points[0].corrupted_bit_fraction > points[1].corrupted_bit_fraction);
        assert!(points[1].corrupted_bit_fraction >= points[2].corrupted_bit_fraction);
        assert!(points[2].output_deviation <= points[0].output_deviation);
        assert!(points[2].retry_energy_overhead >= points[1].retry_energy_overhead);
    }

    #[test]
    fn fault_free_rate_is_exactly_clean() {
        let points = write_fault_sweep(&[0.0], &[0]);
        assert_eq!(points[0].corrupted_bit_fraction, 0.0);
        assert_eq!(points[0].output_deviation, 0.0);
    }

    #[test]
    fn reports_display() {
        assert!(csc_vs_csr(64, 8, NmPattern::two_of_four())
            .to_string()
            .contains("CSC"));
        assert!(index_width_sweep()[0].to_string().contains("idx bits"));
        assert!(write_fault_sweep(&[1e-3], &[1])[0]
            .to_string()
            .contains("WER"));
    }
}
