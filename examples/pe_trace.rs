//! Single-PE micro-trace: watch one sparse matrix travel through both PE
//! designs and the transposed buffer, with cycle and energy reports.
//!
//! Run with: `cargo run --release --example pe_trace`

use pim_pe::{MramSparsePe, SparsePe, SramSparsePe, TransposedSramPe};
use pim_sparse::gemm::{dense_matvec, masked_dense};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, Matrix, NmPattern};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // A 128×8 weight tile at 1:4 sparsity.
    let pattern = NmPattern::new(1, 4)?;
    let dense = Matrix::from_fn(128, 8, |r, c| {
        (((r * 37 + c * 13) % 251) as i32 - 125) as i8
    });
    let mask = prune_magnitude(&dense, pattern)?;
    let csc = CscMatrix::compress(&dense, &mask)?;
    println!("tile: {csc}");
    println!(
        "storage: dense {} bits -> compressed {} bits",
        dense.len() * 8,
        csc.storage_bits(8)
    );

    let x: Vec<i8> = (0..128).map(|i| ((i * 7) % 200) as i8).collect();
    let x_wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
    let reference = dense_matvec(&masked_dense(&dense, &mask)?, &x_wide)?;

    println!("\n== SRAM sparse PE (bit-serial, 8 column groups) ==");
    let mut sram = SramSparsePe::new();
    let load = sram.load(&csc)?;
    println!("load : {} cycles, {}", load.cycles, load.energy);
    let run = sram.matvec(&x)?;
    println!("mv   : {} cycles, {}", run.cycles, run.energy);
    println!("exact: {}", run.outputs == reference);

    println!("\n== MRAM sparse PE (near-memory, 3-stage pipeline) ==");
    let mut mram = MramSparsePe::new();
    let load = mram.load(&csc)?;
    println!(
        "load : {} cycles over {} ({} MTJ bits toggled), {}",
        load.cycles, load.latency, load.bits_written, load.energy
    );
    let run = mram.matvec(&x)?;
    println!("mv   : {} cycles, {}", run.cycles, run.energy);
    println!("exact: {}", run.outputs == reference);

    println!("\n== Transposed SRAM buffer (backprop eq. 1) ==");
    let masked = mask.apply(&dense)?;
    let mut buf = TransposedSramPe::new();
    let load = buf.write_transposed(&masked)?;
    println!(
        "write Wᵀ: {} cycles, {} bits, {}",
        load.cycles, load.bits_written, load.energy
    );
    let e: Vec<i32> = (0..8).map(|i| i * 3 - 12).collect();
    let back = buf.matvec(&e)?;
    let expect = dense_matvec(&masked.transposed(), &e)?;
    println!(
        "e_prev : {} cycles, exact: {}",
        back.cycles,
        back.outputs == expect
    );

    println!("\n== cumulative stats ==");
    println!("SRAM PE: {}", sram.stats());
    println!("MRAM PE: {}", mram.stats());

    Ok(())
}
