//! The compiled execution kernel shared by the sparse PEs.
//!
//! Both PE simulators used to *walk their hardware structures* to compute a
//! matvec — the SRAM PE swept `weight_bits × segments × slots` with a
//! branch on `slot.occupied` per cell, the MRAM PE streamed its packed rows
//! with the same branch. That step-wise walk is a simulation artifact: the
//! PEs are fully digital and deterministic, so the bit-serial / row-stream
//! arithmetic is mathematically identical to a plain sparse dot product
//! (bit-plane decomposition recombines to `Σ w·x` exactly; see
//! `pim_sparse::gemm::bit_serial_matvec`, the retained ground-truth
//! oracle).
//!
//! [`FlatKernel`] is the compiled form: at `load`/`update` time the
//! segment/slot (or row/pair) structure is flattened into cache-friendly
//! CSR-style arrays — `col_ptr`, `row_idx`, `val` — holding **occupied
//! slots only**, so the hot loop is a single-pass gather-multiply-
//! accumulate with no occupancy branch and no bit loop. Timing and energy
//! are *not* derived from the walk (they never depended on it — the cycle
//! and energy expressions are closed-form in the tile shape and config);
//! the PEs precompute them once per load as a [`MatvecCost`].
//!
//! Accumulation is exact: each `i8×i8` product and the running sum are
//! carried in `i64`, then truncated to `i32` exactly as the step-wise
//! simulators did, so outputs are bit-identical on every input including
//! `i8::MIN`/`i8::MAX` extremes. It is the only compiled form in either PE;
//! the PE tests pin it against `bit_serial_matvec`.

/// A weight tile compiled to flat occupied-only CSR-style arrays.
///
/// Column `c`'s entries live at `col_ptr[c]..col_ptr[c+1]`; `row_idx[k]`
/// is the *logical* reduction row of entry `k` (group and offset already
/// resolved), `val[k]` its INT8 weight.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatKernel {
    /// Logical reduction length (expected input length).
    rows: usize,
    /// Logical output columns.
    cols: usize,
    /// `cols + 1` offsets into `row_idx`/`val`.
    col_ptr: Vec<u32>,
    /// Logical reduction row of each occupied entry.
    row_idx: Vec<u32>,
    /// Weight value of each occupied entry.
    val: Vec<i8>,
}

impl FlatKernel {
    /// Compiles occupied entries into the flat form.
    ///
    /// `entries` yields `(logical_col, logical_row, value)` with the
    /// logical column **non-decreasing** — the natural order both PEs pack
    /// their structures in. Columns with no occupied entries (empty
    /// columns) are valid and produce zero outputs.
    /// (Tests compile from scratch; the PEs keep a kernel resident and
    /// [`recompile`](Self::recompile) it in place.)
    #[cfg(test)]
    pub fn compile(
        rows: usize,
        cols: usize,
        entries: impl Iterator<Item = (usize, usize, i8)>,
    ) -> Self {
        let mut kernel = Self::default();
        kernel.recompile(rows, cols, entries);
        kernel
    }

    /// [`compile`](Self::compile) in place, reusing the existing arrays'
    /// capacity. The update/refresh path rewrites tiles at a fixed layout
    /// (same shape, same occupancy), so steady-state recompilation after a
    /// differential write touches the allocator not at all.
    pub fn recompile(
        &mut self,
        rows: usize,
        cols: usize,
        entries: impl Iterator<Item = (usize, usize, i8)>,
    ) {
        self.rows = rows;
        self.cols = cols;
        self.col_ptr.clear();
        self.row_idx.clear();
        self.val.clear();
        self.col_ptr.reserve(cols + 1);
        self.col_ptr.push(0u32);
        let mut cur = 0usize;
        for (c, r, v) in entries {
            debug_assert!(c >= cur, "entries must arrive in column order");
            debug_assert!(c < cols && r < rows, "entry outside the tile");
            while cur < c {
                self.col_ptr.push(self.row_idx.len() as u32);
                cur += 1;
            }
            self.row_idx.push(r as u32);
            self.val.push(v);
        }
        while cur < cols {
            self.col_ptr.push(self.row_idx.len() as u32);
            cur += 1;
        }
    }

    /// Logical output columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (occupied) entries.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Single-pass gather-multiply-accumulate: `y[c] = Σ val·x[row_idx]`,
    /// bit-identical to `bit_serial_matvec` over the same masked tile.
    ///
    /// # Panics
    ///
    /// Debug-asserts the operand lengths; the PEs validate them first.
    #[allow(clippy::needless_range_loop)] // c indexes y and brackets col_ptr
    pub fn matvec_into(&self, x: &[i8], y: &mut [i32]) {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(y.len(), self.cols);
        for c in 0..self.cols {
            let (s, e) = (self.col_ptr[c] as usize, self.col_ptr[c + 1] as usize);
            let mut acc = 0i64;
            for (&r, &v) in self.row_idx[s..e].iter().zip(&self.val[s..e]) {
                acc += v as i64 * x[r as usize] as i64;
            }
            y[c] = acc as i32;
        }
    }

    /// Batched matvec over `batch` row-major input vectors: input `b` is
    /// `xs[b·rows..(b+1)·rows]`, its outputs land in
    /// `y[b·cols..(b+1)·cols]`.
    ///
    /// Inputs are register-blocked four at a time so each `(row, weight)`
    /// entry loaded from the flat arrays feeds four accumulators — the
    /// weight stream is read once per block instead of once per input.
    /// Pure integer arithmetic, so identical to per-input
    /// [`matvec_into`](Self::matvec_into) calls.
    pub fn matmul_into(&self, xs: &[i8], batch: usize, y: &mut [i32]) {
        debug_assert_eq!(xs.len(), batch * self.rows);
        debug_assert_eq!(y.len(), batch * self.cols);
        let (rows, cols) = (self.rows, self.cols);
        let mut b = 0;
        while b + 4 <= batch {
            let x0 = &xs[b * rows..(b + 1) * rows];
            let x1 = &xs[(b + 1) * rows..(b + 2) * rows];
            let x2 = &xs[(b + 2) * rows..(b + 3) * rows];
            let x3 = &xs[(b + 3) * rows..(b + 4) * rows];
            for c in 0..cols {
                let (s, e) = (self.col_ptr[c] as usize, self.col_ptr[c + 1] as usize);
                let (mut a0, mut a1, mut a2, mut a3) = (0i64, 0i64, 0i64, 0i64);
                for (&r, &v) in self.row_idx[s..e].iter().zip(&self.val[s..e]) {
                    let (r, v) = (r as usize, v as i64);
                    a0 += v * x0[r] as i64;
                    a1 += v * x1[r] as i64;
                    a2 += v * x2[r] as i64;
                    a3 += v * x3[r] as i64;
                }
                y[b * cols + c] = a0 as i32;
                y[(b + 1) * cols + c] = a1 as i32;
                y[(b + 2) * cols + c] = a2 as i32;
                y[(b + 3) * cols + c] = a3 as i32;
            }
            b += 4;
        }
        while b < batch {
            self.matvec_into(
                &xs[b * rows..(b + 1) * rows],
                &mut y[b * cols..(b + 1) * cols],
            );
            b += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_columns_yield_zero() {
        // Entries only in column 1 of 3; columns 0 and 2 are empty.
        let k = FlatKernel::compile(4, 3, [(1usize, 0usize, 2i8), (1, 3, -1)].into_iter());
        let mut y = [99i32; 3];
        k.matvec_into(&[1, 2, 3, 4], &mut y);
        assert_eq!(y, [0, 2 - 4, 0]);
        assert_eq!(k.nnz(), 2);
        assert_eq!(k.cols(), 3);
    }

    #[test]
    fn fully_empty_kernel_is_all_zero() {
        let k = FlatKernel::compile(2, 2, std::iter::empty());
        let mut y = [7i32; 2];
        k.matvec_into(&[5, 5], &mut y);
        assert_eq!(y, [0, 0]);
    }

    #[test]
    fn truncation_matches_i64_cast() {
        // Sum exceeding i32 range truncates exactly like the step-wise
        // simulators' `as i32`.
        let entries = (0..40_000).map(|i| (0usize, i % 4, i8::MAX));
        let k = FlatKernel::compile(4, 1, entries);
        let mut y = [0i32; 1];
        k.matvec_into(&[i8::MAX; 4], &mut y);
        let exact: i64 = 40_000i64 * (i8::MAX as i64) * (i8::MAX as i64);
        assert_eq!(y[0], exact as i32);
    }

    #[test]
    fn batched_equals_sequential() {
        let k = FlatKernel::compile(
            3,
            2,
            [(0usize, 0usize, 1i8), (0, 2, -2), (1, 1, 3)].into_iter(),
        );
        let xs = [1i8, 2, 3, -4, -5, -6];
        let mut batched = [0i32; 4];
        k.matmul_into(&xs, 2, &mut batched);
        let mut a = [0i32; 2];
        let mut b = [0i32; 2];
        k.matvec_into(&xs[..3], &mut a);
        k.matvec_into(&xs[3..], &mut b);
        assert_eq!(&batched[..2], &a);
        assert_eq!(&batched[2..], &b);
    }

    #[test]
    fn batched_covers_blocked_and_remainder_paths() {
        // batch = 6 exercises the 4-wide register-blocked pass and the
        // scalar remainder, including i8 extremes.
        let entries = [(0usize, 0usize, i8::MIN), (0, 3, 5i8), (1, 2, i8::MAX)];
        let k = FlatKernel::compile(4, 2, entries.into_iter());
        let xs: Vec<i8> = (0..24)
            .map(|i| match i % 5 {
                0 => i8::MIN,
                1 => i8::MAX,
                n => (n * 7) as i8 - 60,
            })
            .collect();
        let mut batched = vec![0i32; 12];
        k.matmul_into(&xs, 6, &mut batched);
        for b in 0..6 {
            let mut y = [0i32; 2];
            k.matvec_into(&xs[b * 4..(b + 1) * 4], &mut y);
            assert_eq!(&batched[b * 2..(b + 1) * 2], &y, "input {b}");
        }
    }
}
