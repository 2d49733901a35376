//! Cycle-level simulators of the paper's two sparse processing engines.
//!
//! * [`SramSparsePe`] — the fully-digital bit-serial SRAM PE of Fig. 3:
//!   a 128×96 array (128×8 INT8 weights + 128×8 4-bit CSC indices), eight
//!   column groups each with an index generator, comparators, and an adder
//!   tree, plus a shift accumulator for bit-serial input precision and a
//!   row-wise accumulator for columns that spill across groups.
//! * [`MramSparsePe`] — the near-memory MRAM PE of Fig. 5: a 1024×512 MTJ
//!   array holding weight+index pairs, read row-by-row through a 3-stage
//!   pipeline (read idx+weight → fetch activation via MUX → parallel
//!   shift-accumulate), aggregated by an adder tree.
//! * [`TransposedSramPe`] — the transposed-weight buffer of Fig. 6 used
//!   during backpropagation: the current layer's weights (or errors) are
//!   transposed and *written* into SRAM each step, then used for error
//!   propagation `e^{l−1} = Wᵀ·e^l`.
//!
//! **Functional exactness invariant.** Every PE produces bit-identical
//! results to `pim_sparse`'s reference kernels on the same operands; the
//! cycle and energy numbers are modelled on top of the exact computation
//! (cycle model documented per PE; energy seeded from the paper's Table 2
//! via `pim-device`).
//!
//! # Example
//!
//! ```
//! use pim_pe::{SparsePe, SramSparsePe};
//! use pim_sparse::{CscMatrix, Matrix, NmPattern};
//!
//! let w = Matrix::from_fn(32, 8, |r, c| if r % 4 == 0 { (r + c) as i8 } else { 0 });
//! let csc = CscMatrix::compress_auto(&w, NmPattern::new(1, 4)?)?;
//! let mut pe = SramSparsePe::new();
//! pe.load(&csc)?;
//! let x: Vec<i8> = (0..32).map(|i| i as i8 - 16).collect();
//! let report = pe.matvec(&x)?;
//! let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
//! assert_eq!(report.outputs, csc.matvec(&wide)?);
//! assert!(report.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod kernel;
mod mram;
mod sram;
mod stats;
pub mod telemetry;
mod transpose;

pub use error::PeError;
pub use mram::{FaultReport, MramPeConfig, MramSparsePe, StochasticWrites};
pub use sram::{SramPeConfig, SramSparsePe};
pub use stats::{LoadReport, MatvecCost, MatvecReport, PeStats};
pub use telemetry::PeTelemetry;
pub use transpose::TransposedSramPe;

use pim_sparse::CscMatrix;

/// Common interface of the sparse processing engines.
///
/// A PE holds one compressed weight tile at a time; the architecture layer
/// (`pim-arch`) tiles larger matrices across PEs or sequential loads.
pub trait SparsePe {
    /// Loads a compressed weight tile, replacing any previous contents.
    ///
    /// # Errors
    ///
    /// Returns [`PeError::CapacityExceeded`] if the tile does not fit the
    /// array, or [`PeError::PatternUnsupported`] if the pattern's index
    /// width exceeds the 4-bit hardware field.
    fn load(&mut self, weights: &CscMatrix) -> Result<LoadReport, PeError>;

    /// Computes `y[c] = Σ_r W[r][c]·x[r]` on the loaded tile, bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PeError::NotLoaded`] if no tile is loaded, or
    /// [`PeError::InputLength`] on an operand length mismatch.
    fn matvec(&mut self, x: &[i8]) -> Result<MatvecReport, PeError>;

    /// Zero-alloc matvec: writes the outputs into caller-owned `y` (one
    /// `i32` per logical column) and returns the analytic per-matvec
    /// [`MatvecCost`]. Outputs, statistics, and the returned cost are
    /// bit-identical to [`matvec`](Self::matvec) on the same operand.
    ///
    /// The default implementation delegates to `matvec` (allocating); the
    /// concrete PEs override it with their compiled flat kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`matvec`](Self::matvec).
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the loaded tile's column count.
    fn matvec_into(&mut self, x: &[i8], y: &mut [i32]) -> Result<MatvecCost, PeError> {
        let report = self.matvec(x)?;
        assert_eq!(
            y.len(),
            report.outputs.len(),
            "output buffer does not match the tile's column count"
        );
        y.copy_from_slice(&report.outputs);
        Ok(report.cost())
    }

    /// Batched matvec over `batch` row-major input vectors: input `b` is
    /// `xs[b·rows..(b+1)·rows]`, its outputs land in
    /// `y[b·cols..(b+1)·cols]`. Functionally and statistically identical
    /// to `batch` sequential [`matvec_into`](Self::matvec_into) calls —
    /// `batch` matvecs land in [`stats`](Self::stats) — but the tile is
    /// swept once per input with the flat weight arrays staying
    /// cache-resident, which is where the batching speedup comes from.
    ///
    /// Returns the **per-matvec** cost (every matvec on a loaded tile
    /// costs the same; the batch's total is `batch ×` the returned cost).
    ///
    /// # Errors
    ///
    /// Same conditions as [`matvec`](Self::matvec); operand lengths are
    /// validated against `batch × rows` / `batch × cols`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `y.len() != batch × cols`.
    fn matvec_batch(
        &mut self,
        xs: &[i8],
        batch: usize,
        y: &mut [i32],
    ) -> Result<MatvecCost, PeError> {
        assert!(batch > 0, "batch must be non-empty");
        assert_eq!(y.len() % batch, 0, "output buffer must split evenly");
        let rows = xs.len() / batch;
        let cols = y.len() / batch;
        let mut cost = MatvecCost::default();
        for b in 0..batch {
            cost = self.matvec_into(
                xs.get(b * rows..(b + 1) * rows)
                    .ok_or(PeError::InputLength {
                        expected: batch * rows,
                        actual: xs.len(),
                    })?,
                &mut y[b * cols..(b + 1) * cols],
            )?;
        }
        Ok(cost)
    }

    /// Cumulative statistics since construction or the last reset.
    fn stats(&self) -> &PeStats;

    /// Clears the cumulative statistics.
    fn reset_stats(&mut self);

    /// Total compressed weight slots the array can hold.
    fn capacity_slots(&self) -> usize;
}
