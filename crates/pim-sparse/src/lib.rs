//! N:M structured sparsity, CSC/CSR encodings, and reference sparse kernels
//! for the MRAM-SRAM hybrid PIM accelerator (DAC'24 reproduction).
//!
//! The paper's PEs store and process **N:M structured-sparse** weights: out
//! of every `M` contiguous, aligned elements along the reduction dimension,
//! at most `N` are non-zero (NVIDIA Ampere popularized 2:4; the paper
//! evaluates 1:4 and 1:8 with the index field sized for up to `N:16`).
//! Weights are compressed in **compressed sparse column (CSC)** form because
//! CSC preserves the in-array multiplication structure and only breaks
//! accumulation, which the PE gates with per-row index comparators.
//!
//! This crate is the *functional ground truth*: the cycle-level PE
//! simulators in `pim-pe` must produce bit-identical results to the
//! reference kernels here, which in turn must equal the dense kernel on
//! masked weights. Property tests enforce both equalities.
//!
//! # Modules
//!
//! * [`pattern`] — the [`NmPattern`] type (N, M, index width).
//! * [`matrix`] — a minimal row-major [`Matrix`] container.
//! * [`prune`] — magnitude- and saliency-based N:M mask selection.
//! * [`permute`] — channel-permutation search for higher-quality masks
//!   (the paper's ref \[19\]).
//! * [`mask`] — [`NmMask`] application and validation.
//! * [`csc`] — the structured [`CscMatrix`] the PEs consume.
//! * [`csr`] — [`CsrMatrix`], the row-compressed dual (for the ablation).
//! * [`gemm`] — dense and sparse reference kernels (INT8 × INT8 → INT32).
//!
//! # Example
//!
//! ```
//! use pim_sparse::{CscMatrix, Matrix, NmPattern};
//! use pim_sparse::prune::prune_magnitude;
//! use pim_sparse::gemm::{dense_matvec, masked_dense};
//!
//! let pattern = NmPattern::new(1, 4)?;
//! let dense = Matrix::from_rows(vec![
//!     vec![3i8, -1, 0, 2],
//!     vec![0, 5, 1, 0],
//!     vec![7, 0, 0, -2],
//!     vec![0, 0, 4, 1],
//! ])?;
//! // Keep the largest-magnitude entry in every group of 4 down each column.
//! let mask = prune_magnitude(&dense, pattern)?;
//! let csc = CscMatrix::compress(&dense, &mask)?;
//! let x = vec![1i32, 2, 3, 4];
//! let sparse_y = csc.matvec(&x)?;
//! let dense_y = dense_matvec(&masked_dense(&dense, &mask)?, &x)?;
//! assert_eq!(sparse_y, dense_y);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod csc;
pub mod csr;
pub mod gemm;
pub mod mask;
pub mod matrix;
pub mod pattern;
pub mod permute;
pub mod prune;

pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use mask::NmMask;
pub use matrix::Matrix;
pub use pattern::NmPattern;
