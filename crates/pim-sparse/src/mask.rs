//! N:M sparsity masks.
//!
//! An [`NmMask`] is a boolean matrix paired with the [`NmPattern`] it
//! conforms to. Groups run **down each column** (along the reduction
//! dimension), matching the PE array layout where inputs stream across rows
//! and each array column accumulates one output neuron.

use crate::matrix::Matrix;
use crate::pattern::NmPattern;
use std::fmt;

/// A validated N:M mask: `true` entries are kept, `false` are pruned.
///
/// # Example
///
/// ```
/// use pim_sparse::{Matrix, NmMask, NmPattern};
///
/// let keep = Matrix::from_rows(vec![
///     vec![true, false],
///     vec![false, true],
///     vec![false, false],
///     vec![false, false],
/// ])?;
/// let mask = NmMask::new(keep, NmPattern::new(1, 4)?)?;
/// assert_eq!(mask.kept(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NmMask {
    keep: Matrix<bool>,
    pattern: NmPattern,
}

impl NmMask {
    /// Wraps a boolean matrix after verifying it satisfies `pattern`
    /// (at most `n` kept entries in every aligned `m`-group down each
    /// column; the final partial group, if any, is bounded the same way).
    ///
    /// # Errors
    ///
    /// Returns [`MaskViolationError`] naming the first offending group.
    pub fn new(keep: Matrix<bool>, pattern: NmPattern) -> Result<Self, MaskViolationError> {
        let m = pattern.m();
        for c in 0..keep.cols() {
            let mut g = 0;
            while g * m < keep.rows() {
                let start = g * m;
                let end = (start + m).min(keep.rows());
                let kept = (start..end).filter(|&r| keep[(r, c)]).count();
                if kept > pattern.n() {
                    return Err(MaskViolationError {
                        col: c,
                        group: g,
                        kept,
                        pattern,
                    });
                }
                g += 1;
            }
        }
        Ok(Self { keep, pattern })
    }

    /// A mask that keeps everything (only valid for a dense pattern).
    ///
    /// # Errors
    ///
    /// Returns [`MaskViolationError`] if `pattern` is not dense.
    pub fn all_kept(
        rows: usize,
        cols: usize,
        pattern: NmPattern,
    ) -> Result<Self, MaskViolationError> {
        Self::new(Matrix::from_fn(rows, cols, |_, _| true), pattern)
    }

    /// The pattern this mask conforms to.
    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    /// `(rows, cols)` of the mask.
    pub fn shape(&self) -> (usize, usize) {
        self.keep.shape()
    }

    /// Whether position `(row, col)` is kept.
    pub fn is_kept(&self, row: usize, col: usize) -> bool {
        self.keep[(row, col)]
    }

    /// Total number of kept positions.
    pub fn kept(&self) -> usize {
        self.keep.as_slice().iter().filter(|&&b| b).count()
    }

    /// Measured density `kept / total` (≤ the pattern's nominal density).
    pub fn density(&self) -> f64 {
        if self.keep.is_empty() {
            0.0
        } else {
            self.kept() as f64 / self.keep.len() as f64
        }
    }

    /// Applies the mask to a same-shaped matrix, zeroing pruned entries.
    ///
    /// # Errors
    ///
    /// Returns [`MaskShapeError`] if the shapes differ.
    pub fn apply<T: Copy + Default>(&self, dense: &Matrix<T>) -> Result<Matrix<T>, MaskShapeError> {
        if dense.shape() != self.keep.shape() {
            return Err(MaskShapeError {
                mask: self.keep.shape(),
                matrix: dense.shape(),
            });
        }
        Ok(Matrix::from_fn(dense.rows(), dense.cols(), |r, c| {
            if self.keep[(r, c)] {
                dense[(r, c)]
            } else {
                T::default()
            }
        }))
    }

    /// Kept row indices within column `col`, group `group`, as offsets into
    /// the group (`0..m`). This is exactly what the hardware index field
    /// stores.
    pub fn group_offsets(&self, col: usize, group: usize) -> Vec<u8> {
        let m = self.pattern.m();
        let start = group * m;
        let end = (start + m).min(self.keep.rows());
        (start..end)
            .filter(|&r| self.keep[(r, col)])
            .map(|r| (r - start) as u8)
            .collect()
    }
}

/// Error: a boolean matrix violated its claimed N:M pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskViolationError {
    /// Column containing the violation.
    pub col: usize,
    /// Group index (along the rows) containing the violation.
    pub group: usize,
    /// Number of kept entries found in that group.
    pub kept: usize,
    /// The pattern that was violated.
    pub pattern: NmPattern,
}

impl fmt::Display for MaskViolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "group {} of column {} keeps {} entries, exceeding pattern {}",
            self.group, self.col, self.kept, self.pattern
        )
    }
}

impl std::error::Error for MaskViolationError {}

/// Error: a mask was applied to a matrix of a different shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskShapeError {
    /// Mask shape.
    pub mask: (usize, usize),
    /// Matrix shape.
    pub matrix: (usize, usize),
}

impl fmt::Display for MaskShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mask shape {:?} does not match matrix shape {:?}",
            self.mask, self.matrix
        )
    }
}

impl std::error::Error for MaskShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p14() -> NmPattern {
        NmPattern::one_of_four()
    }

    #[test]
    fn accepts_conforming_mask() {
        let keep = Matrix::from_fn(8, 2, |r, _| r % 4 == 0);
        let mask = NmMask::new(keep, p14()).unwrap();
        assert_eq!(mask.kept(), 4);
        assert!((mask.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_violating_mask() {
        // Two kept entries in the first group of column 0.
        let keep = Matrix::from_fn(4, 1, |r, _| r < 2);
        let err = NmMask::new(keep, p14()).unwrap_err();
        assert_eq!(err.col, 0);
        assert_eq!(err.group, 0);
        assert_eq!(err.kept, 2);
        assert!(err.to_string().contains("1:4"));
    }

    #[test]
    fn partial_tail_group_is_checked() {
        // 6 rows with m=4: tail group is rows 4..6.
        let keep = Matrix::from_fn(6, 1, |r, _| r >= 4);
        assert!(NmMask::new(keep, p14()).is_err());
        let keep = Matrix::from_fn(6, 1, |r, _| r == 5);
        assert!(NmMask::new(keep, p14()).is_ok());
    }

    #[test]
    fn all_kept_requires_dense_pattern() {
        assert!(NmMask::all_kept(4, 4, p14()).is_err());
        let dense = NmPattern::new(4, 4).unwrap();
        let mask = NmMask::all_kept(4, 4, dense).unwrap();
        assert_eq!(mask.kept(), 16);
    }

    #[test]
    fn apply_zeroes_pruned_entries() {
        let keep = Matrix::from_fn(4, 1, |r, _| r == 2);
        let mask = NmMask::new(keep, p14()).unwrap();
        let dense = Matrix::from_rows(vec![vec![10i8], vec![20], vec![30], vec![40]]).unwrap();
        let masked = mask.apply(&dense).unwrap();
        assert_eq!(masked.col(0), vec![0, 0, 30, 0]);
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let mask = NmMask::new(Matrix::from_fn(4, 1, |_, _| false), p14()).unwrap();
        let dense: Matrix<i8> = Matrix::zeros(4, 2);
        let err = mask.apply(&dense).unwrap_err();
        assert_eq!(err.mask, (4, 1));
        assert_eq!(err.matrix, (4, 2));
    }

    #[test]
    fn group_offsets_match_hardware_index_semantics() {
        let pattern = NmPattern::new(2, 4).unwrap();
        let keep = Matrix::from_fn(8, 1, |r, _| r == 1 || r == 3 || r == 4);
        let mask = NmMask::new(keep, pattern).unwrap();
        assert_eq!(mask.group_offsets(0, 0), vec![1, 3]);
        assert_eq!(mask.group_offsets(0, 1), vec![0]);
    }

    #[test]
    fn empty_mask_density_is_zero() {
        let mask = NmMask::new(Matrix::from_rows(vec![]).unwrap(), p14()).unwrap();
        assert_eq!(mask.density(), 0.0);
    }
}
