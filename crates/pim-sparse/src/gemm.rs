//! Reference GEMM kernels: the functional ground truth for everything else.
//!
//! All kernels share the PE orientation: weights are `(rows = reduction,
//! cols = outputs)`, so a matvec computes `y[c] = Σ_r W[r][c] · x[r]` —
//! inputs stream across array rows, outputs accumulate down array columns.
//!
//! [`bit_serial_matvec`] reproduces the SRAM PE's arithmetic exactly:
//! activations are decomposed into bit planes (two's-complement, MSB
//! negatively weighted), each plane contributes a 1-bit AND partial product
//! per weight, and a shift accumulator recombines the planes. Its result is
//! provably identical to [`dense_matvec`]; a property test pins that down.

use crate::mask::{MaskShapeError, NmMask};
use crate::matrix::Matrix;
use std::fmt;

pub use crate::csc::DimensionError;

/// Dense reference matvec with `i32` accumulation.
///
/// # Errors
///
/// Returns [`DimensionError`] if `x.len() != weights.rows()`.
#[allow(clippy::needless_range_loop)] // row index r addresses both operands
pub fn dense_matvec(weights: &Matrix<i8>, x: &[i32]) -> Result<Vec<i32>, DimensionError> {
    if x.len() != weights.rows() {
        return Err(DimensionError {
            expected: weights.rows(),
            actual: x.len(),
        });
    }
    let mut y = vec![0i32; weights.cols()];
    for r in 0..weights.rows() {
        let xr = x[r];
        if xr == 0 {
            continue;
        }
        let row = weights.row(r);
        for (c, &w) in row.iter().enumerate() {
            y[c] += w as i32 * xr;
        }
    }
    Ok(y)
}

/// Applies a mask to a dense matrix (zeroing pruned entries); convenience
/// re-export of [`NmMask::apply`] for the common test pattern
/// `dense_matvec(&masked_dense(..)?, ..)`.
///
/// # Errors
///
/// Returns [`MaskShapeError`] if the shapes differ.
pub fn masked_dense(weights: &Matrix<i8>, mask: &NmMask) -> Result<Matrix<i8>, MaskShapeError> {
    mask.apply(weights)
}

/// Bit-serial matvec mirroring the SRAM PE arithmetic.
///
/// Activations are INT8 in two's complement. For bit plane `b` (LSB = 0),
/// each input contributes its bit `x[r]>>b & 1`; the in-array AND against
/// the weight produces the partial product, the adder tree sums the column,
/// and the shift accumulator adds `partial << b` — except the sign plane
/// (bit 7), which is subtracted (two's-complement weighting of −2⁷).
///
/// This walk is the retained **ground-truth oracle** for the PE
/// simulators: `pim-pe` executes matvecs through flat compiled kernels
/// (plain gather-multiply-accumulate over occupied slots), and its
/// property tests pin those kernels against this function bit for bit —
/// the bit-plane decomposition recombines to exactly `Σ w·x`, so the two
/// formulations must never disagree on any input.
///
/// # Errors
///
/// Returns [`DimensionError`] if `x.len() != weights.rows()`.
///
/// # Example
///
/// ```
/// use pim_sparse::Matrix;
/// use pim_sparse::gemm::{bit_serial_matvec, dense_matvec};
///
/// let w = Matrix::from_rows(vec![vec![3i8, -4], vec![-128, 127]])?;
/// let x = [-7i8, 100];
/// let serial = bit_serial_matvec(&w, &x)?;
/// let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
/// assert_eq!(serial, dense_matvec(&w, &wide)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::needless_range_loop)] // row index r addresses both operands
pub fn bit_serial_matvec(weights: &Matrix<i8>, x: &[i8]) -> Result<Vec<i32>, DimensionError> {
    if x.len() != weights.rows() {
        return Err(DimensionError {
            expected: weights.rows(),
            actual: x.len(),
        });
    }
    let mut acc = vec![0i64; weights.cols()];
    for bit in 0..8u32 {
        // Per-plane column sums (what one adder-tree pass produces).
        let mut plane = vec![0i64; weights.cols()];
        for r in 0..weights.rows() {
            if (x[r] as u8 >> bit) & 1 == 1 {
                for (c, &w) in weights.row(r).iter().enumerate() {
                    plane[c] += w as i64;
                }
            }
        }
        let weight = 1i64 << bit;
        for c in 0..weights.cols() {
            if bit == 7 {
                acc[c] -= plane[c] * weight; // sign plane
            } else {
                acc[c] += plane[c] * weight;
            }
        }
    }
    Ok(acc.into_iter().map(|v| v as i32).collect())
}

/// Floating-point dense matvec, used by the NN substrate's reference paths.
///
/// # Errors
///
/// Returns [`DimensionError`] if `x.len() != weights.rows()`.
#[allow(clippy::needless_range_loop)] // row index r addresses both operands
pub fn dense_matvec_f32(weights: &Matrix<f32>, x: &[f32]) -> Result<Vec<f32>, DimensionError> {
    if x.len() != weights.rows() {
        return Err(DimensionError {
            expected: weights.rows(),
            actual: x.len(),
        });
    }
    let mut y = vec![0f32; weights.cols()];
    for r in 0..weights.rows() {
        let xr = x[r];
        for (c, &w) in weights.row(r).iter().enumerate() {
            y[c] += w * xr;
        }
    }
    Ok(y)
}

/// Operation counts of a dense vs sparse matvec — the complexity reduction
/// the paper's Fig. 2 illustrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Weight operands fetched.
    pub weight_fetches: u64,
}

impl OpCounts {
    /// Op counts of a dense matvec on a `(rows × cols)` matrix.
    pub fn dense(rows: usize, cols: usize) -> Self {
        let ops = (rows * cols) as u64;
        Self {
            macs: ops,
            weight_fetches: ops,
        }
    }

    /// Op counts of an N:M sparse matvec: only stored slots are processed.
    pub fn sparse(csc: &crate::CscMatrix) -> Self {
        let ops = (csc.slots_per_col() * csc.cols()) as u64;
        Self {
            macs: ops,
            weight_fetches: ops,
        }
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} MACs, {} weight fetches",
            self.macs, self.weight_fetches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::NmPattern;
    use crate::prune::prune_magnitude;
    use crate::CscMatrix;

    #[test]
    fn dense_matvec_small_known_answer() {
        // W = [[1,2],[3,4]] (rows = reduction): y = Wᵀx.
        let w = Matrix::from_rows(vec![vec![1i8, 2], vec![3, 4]]).unwrap();
        let y = dense_matvec(&w, &[10, 100]).unwrap();
        assert_eq!(y, vec![310, 420]);
    }

    #[test]
    fn bit_serial_equals_dense_on_extremes() {
        let w = Matrix::from_rows(vec![vec![i8::MIN, i8::MAX], vec![-1, 1], vec![0, -77]]).unwrap();
        for x in [
            [i8::MIN, i8::MIN, i8::MIN],
            [i8::MAX, i8::MAX, i8::MAX],
            [0, -1, 1],
            [-128, 127, -64],
        ] {
            let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
            assert_eq!(
                bit_serial_matvec(&w, &x).unwrap(),
                dense_matvec(&w, &wide).unwrap(),
                "x = {x:?}"
            );
        }
    }

    #[test]
    fn sparse_path_agrees_with_dense_on_masked_weights() {
        let w = Matrix::from_fn(32, 8, |r, c| (((r * 13 + c * 7) % 31) as i32 - 15) as i8);
        let pattern = NmPattern::one_of_eight();
        let mask = prune_magnitude(&w, pattern).unwrap();
        let csc = CscMatrix::compress(&w, &mask).unwrap();
        let x: Vec<i32> = (0..32).map(|i| i * 3 - 40).collect();
        assert_eq!(
            csc.matvec(&x).unwrap(),
            dense_matvec(&masked_dense(&w, &mask).unwrap(), &x).unwrap()
        );
    }

    #[test]
    fn op_counts_reflect_compression_factor() {
        let w = Matrix::from_fn(64, 8, |r, c| ((r + c) % 5) as i8);
        let pattern = NmPattern::one_of_four();
        let csc = CscMatrix::compress_auto(&w, pattern).unwrap();
        let dense = OpCounts::dense(64, 8);
        let sparse = OpCounts::sparse(&csc);
        assert_eq!(dense.macs, 512);
        assert_eq!(sparse.macs, 128); // 64/4 slots × 8 cols
        assert_eq!(dense.macs / sparse.macs, 4);
    }

    #[test]
    fn f32_matvec_reference() {
        let w = Matrix::from_rows(vec![vec![0.5f32, -1.0], vec![2.0, 0.25]]).unwrap();
        let y = dense_matvec_f32(&w, &[2.0, 4.0]).unwrap();
        assert!((y[0] - 9.0).abs() < 1e-6);
        assert!((y[1] - (-2.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn dimension_errors_are_reported() {
        let w: Matrix<i8> = Matrix::zeros(4, 2);
        assert!(dense_matvec(&w, &[1, 2]).is_err());
        assert!(bit_serial_matvec(&w, &[1, 2]).is_err());
        let wf: Matrix<f32> = Matrix::zeros(4, 2);
        assert!(dense_matvec_f32(&wf, &[1.0]).is_err());
    }

    #[test]
    fn zero_activation_rows_are_skipped_consistently() {
        let w = Matrix::from_fn(8, 4, |r, c| (r * c % 7) as i8);
        let x = vec![0, 5, 0, -3, 0, 0, 2, 0];
        let full: Vec<i32> = x.clone();
        let y = dense_matvec(&w, &full).unwrap();
        // Recompute without the skip optimization.
        let mut expect = vec![0i32; 4];
        for r in 0..8 {
            for c in 0..4 {
                expect[c] += w[(r, c)] as i32 * x[r];
            }
        }
        assert_eq!(y, expect);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pattern::NmPattern;
    use crate::prune::prune_magnitude;
    use crate::CscMatrix;
    use proptest::prelude::*;

    fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix<i8>> {
        (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
            proptest::collection::vec(any::<i8>(), r * c)
                .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized correctly"))
        })
    }

    proptest! {
        #[test]
        fn bit_serial_always_equals_dense(
            w in arb_matrix(24, 8),
            xs in proptest::collection::vec(any::<i8>(), 24),
        ) {
            let x = &xs[..w.rows()];
            let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
            prop_assert_eq!(
                bit_serial_matvec(&w, x).unwrap(),
                dense_matvec(&w, &wide).unwrap()
            );
        }

        #[test]
        fn csc_matvec_always_equals_masked_dense(
            w in arb_matrix(40, 6),
            xs in proptest::collection::vec(-1000i32..1000, 40),
            pat_idx in 0usize..3,
        ) {
            let pattern = [
                NmPattern::one_of_four(),
                NmPattern::one_of_eight(),
                NmPattern::two_of_four(),
            ][pat_idx];
            let x = &xs[..w.rows()];
            let mask = prune_magnitude(&w, pattern).unwrap();
            let csc = CscMatrix::compress(&w, &mask).unwrap();
            let masked = masked_dense(&w, &mask).unwrap();
            prop_assert_eq!(
                csc.matvec(x).unwrap(),
                dense_matvec(&masked, x).unwrap()
            );
        }

        #[test]
        fn csc_decompress_is_masked_dense(
            w in arb_matrix(32, 5),
        ) {
            let pattern = NmPattern::two_of_four();
            let mask = prune_magnitude(&w, pattern).unwrap();
            let csc = CscMatrix::compress(&w, &mask).unwrap();
            prop_assert_eq!(csc.decompress(), mask.apply(&w).unwrap());
        }

        #[test]
        fn csr_matvec_always_equals_dense(
            w in arb_matrix(24, 8),
            xs in proptest::collection::vec(-1000i32..1000, 24),
        ) {
            let x = &xs[..w.rows()];
            let csr = crate::CsrMatrix::from_dense(&w);
            prop_assert_eq!(
                csr.matvec(x).unwrap(),
                dense_matvec(&w, x).unwrap()
            );
        }
    }
}
