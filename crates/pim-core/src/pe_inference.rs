//! End-to-end inference of the learnable branch **on the cycle-level PEs**.
//!
//! [`PeRepNet`] compiles a trained [`RepNet`]'s Rep-Net path and classifier
//! into weight-stationary [`SramSparsePe`] tiles — exactly the SRAM-side
//! deployment of the paper — and executes the forward pass through them:
//! every multiply-accumulate of the learnable branch happens inside a
//! simulated PE array with INT8 weights, CSC-compressed indices, and
//! bit-serial arithmetic. Elementwise glue (bias add, ReLU, average
//! pooling, dequantization) runs in the digital periphery the paper's PE
//! already contains (global ReLU, shift accumulators).
//!
//! The frozen backbone taps come from the NN backbone (the MRAM-side
//! layers are verified bit-exactly against the MRAM PE in
//! [`crate::verify`]); the compiled branch re-quantizes activations per
//! layer with calibrated per-tensor scales, which is the standard INT8
//! deployment flow. Tests check that PE-executed predictions agree with
//! the NN-side fake-quant model on the overwhelming majority of inputs.

use pim_nn::layers::predictions;
use pim_nn::models::{BackboneOutput, BackboneScratch, FrozenBackbone, RepNet};
use pim_nn::quant::QuantParams;
use pim_nn::sparse::{SparseConv2d, SparseLinear};
use pim_nn::tensor::Tensor;
use pim_par::{ScratchArena, SharedSliceMut, WorkPool};
use pim_pe::{MatvecCost, PeError, PeStats, PeTelemetry, SparsePe, SramSparsePe};
use pim_sparse::prune::prune_magnitude;
use pim_sparse::{CscMatrix, Matrix, NmPattern};
use std::fmt;
use std::sync::Arc;

/// One loaded PE column tile of a layer.
#[derive(Debug, Clone)]
pub(crate) struct PeTile {
    pub(crate) pe: SramSparsePe,
    /// Output-column range `[col_start, col_end)` this tile covers.
    pub(crate) col_start: usize,
    pub(crate) col_end: usize,
    /// Occupied CSC slots — the MACs one matvec on this tile performs.
    pub(crate) nnz: u64,
    /// The resident program's per-matvec bill, fixed at load time: the
    /// run ledger folds it without touching the PE.
    pub(crate) cost: MatvecCost,
}

impl PeTile {
    fn new(pe: SramSparsePe, col_start: usize, col_end: usize, nnz: u64) -> Self {
        let cost = pe.matvec_cost().expect("tile loaded before it is wrapped");
        Self {
            pe,
            col_start,
            col_end,
            nnz,
            cost,
        }
    }
}

/// One caller's working memory for running compiled branches: the
/// backbone's convolution arenas, the PE layers' quantized inputs and
/// accumulators, and the classifier's feature rows. A serving worker owns
/// one and reuses it for every batch of every model it serves: buffers
/// grow to the largest layer on first use, so after warm-up a forward
/// pass allocates no scratch. Cloning yields empty scratch — its contents
/// are never state.
#[derive(Debug, Default)]
pub struct PeScratch {
    pub(crate) backbone: BackboneScratch,
    pub(crate) layer: LayerScratch,
    clf_rows: Vec<f32>,
}

impl Clone for PeScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The PE layers' share of [`PeScratch`]: quantized inputs, per-input
/// scales and PE accumulators. Layers run one after another, so one set
/// serves them all.
#[derive(Debug, Default)]
pub(crate) struct LayerScratch {
    /// `batch × reduction` quantized activations.
    x_q: Vec<i8>,
    /// Per-input dequantization scale (`weight_scale × activation_scale`).
    scales: Vec<f32>,
    /// `batch × tile_cols` raw PE accumulators of every tile.
    acc: Vec<i32>,
    /// Prefix offsets of each tile's region in the shared `acc` arena
    /// (`tiles + 1` entries) — lets parallel tile tasks write disjointly.
    tile_off: Vec<usize>,
    /// Per-executor `reduction`-sized gather rows for the direct-conv
    /// fan-out: tasks run on whichever executor claims them, so the row
    /// staging is keyed by executor slot instead of being reallocated
    /// inside every chunk closure.
    row_bufs: ScratchArena<Vec<f32>>,
}

/// Rows per parallel batch block: enough blocks to feed every executor
/// roughly twice (for load balance against uneven tile sizes), never
/// smaller than one row. A serial pool keeps the whole batch in one block.
pub(crate) fn par_block(batch: usize, threads: usize) -> usize {
    if threads <= 1 {
        batch
    } else {
        batch.div_ceil(threads * 2).max(1)
    }
}

/// Row-block size of a tile × row-block compute grid: when the layer
/// already holds enough tiles to feed every executor roughly twice, the
/// batch stays whole (tile-level split — fewer, larger tasks); otherwise
/// the rows split into [`par_block`] blocks (batch-level split) to
/// manufacture enough grid cells. Either way the split is
/// bit-transparent: each cell computes outputs that depend only on its
/// own (input row, column) pairs.
pub(crate) fn grid_block(batch: usize, tiles: usize, threads: usize) -> usize {
    if threads <= 1 || tiles >= threads * 2 {
        batch
    } else {
        par_block(batch, threads)
    }
}

/// A conv or linear layer compiled into weight-stationary SRAM PE tiles.
#[derive(Debug, Clone)]
pub(crate) struct PeLayer {
    pub(crate) name: String,
    pub(crate) tiles: Vec<PeTile>,
    weight_scale: f32,
    bias: Vec<f32>,
    pub(crate) reduction: usize,
    pub(crate) outputs: usize,
    pub(crate) kernel: usize,
    pub(crate) stride: usize,
    pub(crate) padding: usize,
}

impl PeLayer {
    /// Compiles a reduction-first weight matrix under `pattern`.
    fn compile(
        name: &str,
        w: &Matrix<f32>,
        bias: &[f32],
        pattern: NmPattern,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, PeError> {
        let params = QuantParams::calibrate(w.as_slice());
        let quantized = w.map(|v| params.quantize_value(v));
        let slots_per_col = pattern.slots_for(w.rows());
        let groups_per_col = slots_per_col.div_ceil(128).max(1);
        let cols_per_tile = (8 / groups_per_col).max(1);
        let mut tiles = Vec::new();
        let mut c = 0;
        while c < w.cols() {
            let end = (c + cols_per_tile).min(w.cols());
            let block = Matrix::from_fn(w.rows(), end - c, |r, j| quantized[(r, c + j)]);
            let mask = prune_magnitude(&block, pattern).expect("non-empty block");
            let csc = CscMatrix::compress(&block, &mask).expect("mask fits block");
            let mut pe = SramSparsePe::new();
            pe.load(&csc)?;
            tiles.push(PeTile::new(pe, c, end, csc.nnz() as u64));
            c = end;
        }
        Ok(Self {
            name: name.to_owned(),
            tiles,
            weight_scale: params.scale(),
            bias: bias.to_vec(),
            reduction: w.rows(),
            outputs: w.cols(),
            kernel,
            stride,
            padding,
        })
    }

    /// Differentially re-targets the loaded tiles at new weights: each
    /// tile re-quantizes its column block and rewrites only the changed
    /// bit-cells via [`SramSparsePe::update`]. The tile geometry is fixed
    /// at compile time (shapes and pattern don't change between updates),
    /// so the resulting programs are identical to a cold
    /// [`compile`](PeLayer::compile) of the same weights. Returns the PE
    /// ledger delta of the rewrite (the online-learning write bill).
    fn update(
        &mut self,
        w: &Matrix<f32>,
        bias: &[f32],
        pattern: NmPattern,
    ) -> Result<PeStats, PeError> {
        assert_eq!(w.rows(), self.reduction, "layer {}: reduction", self.name);
        assert_eq!(w.cols(), self.outputs, "layer {}: outputs", self.name);
        let params = QuantParams::calibrate(w.as_slice());
        let quantized = w.map(|v| params.quantize_value(v));
        let mut delta = PeStats::new();
        for tile in &mut self.tiles {
            let (c, end) = (tile.col_start, tile.col_end);
            let block = Matrix::from_fn(w.rows(), end - c, |r, j| quantized[(r, c + j)]);
            let mask = prune_magnitude(&block, pattern).expect("non-empty block");
            let csc = CscMatrix::compress(&block, &mask).expect("mask fits block");
            let before = *tile.pe.stats();
            tile.pe.update(&csc)?;
            delta += tile.pe.stats().since(&before);
            tile.nnz = csc.nnz() as u64;
            tile.cost = tile.pe.matvec_cost()?;
        }
        self.weight_scale = params.scale();
        self.bias = bias.to_vec();
        Ok(delta)
    }

    /// The compute half of [`forward_batch`](BranchLayer::forward_batch):
    /// quantizes and runs the tile × batch-block grid **without**
    /// touching any ledger. The sharded execution path calls this on
    /// every macro group and then interleaves all groups' bills into the
    /// canonical global replay order itself.
    pub(crate) fn forward_batch_compute(
        &self,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
        scratch: &mut LayerScratch,
        pool: &WorkPool,
    ) {
        debug_assert_eq!(xs.len(), batch * self.reduction);
        debug_assert_eq!(out.len(), batch * self.outputs);
        let reduction = self.reduction;
        let outputs = self.outputs;
        scratch.x_q.resize(batch * reduction, 0);
        scratch.scales.resize(batch, 0.0);
        {
            // Per-input quantization is row-local, so rows fan out freely.
            let weight_scale = self.weight_scale;
            let x_q = SharedSliceMut::new(&mut scratch.x_q);
            let scales = SharedSliceMut::new(&mut scratch.scales);
            pool.for_each_chunk(batch, par_block(batch, pool.threads()), |rows| {
                // SAFETY: chunk row ranges are disjoint, so the x_q and
                // scales regions they map to are disjoint too.
                let (q, sc) = unsafe {
                    (
                        x_q.slice(rows.start * reduction..rows.end * reduction),
                        scales.slice(rows.clone()),
                    )
                };
                for (i, b) in rows.enumerate() {
                    let row = &xs[b * reduction..(b + 1) * reduction];
                    let x_params = QuantParams::calibrate(row);
                    sc[i] = weight_scale * x_params.scale();
                    x_params.quantize_into(row, &mut q[i * reduction..(i + 1) * reduction]);
                }
            });
        }

        // Tile × batch-block compute grid. Integer kernel outputs depend
        // only on their own (input, column) pair, so the block split is
        // bit-transparent; no ledger is touched until after the join.
        let LayerScratch {
            x_q,
            scales,
            acc,
            tile_off,
            ..
        } = scratch;
        tile_off.clear();
        tile_off.push(0);
        for tile in &self.tiles {
            let last = *tile_off.last().expect("seeded with 0");
            tile_off.push(last + (tile.col_end - tile.col_start) * batch);
        }
        acc.resize(*tile_off.last().expect("seeded with 0"), 0);
        let block = grid_block(batch, self.tiles.len(), pool.threads());
        let n_blocks = batch.div_ceil(block);
        {
            let tiles = &self.tiles;
            let bias = &self.bias;
            let x_q = &*x_q;
            let scales = &*scales;
            let tile_off = &*tile_off;
            let acc_view = SharedSliceMut::new(acc);
            let out_view = SharedSliceMut::new(out);
            pool.run(tiles.len() * n_blocks, |t| {
                let (ti, blk) = (t / n_blocks, t % n_blocks);
                let tile = &tiles[ti];
                let tc = tile.col_end - tile.col_start;
                let (b0, b1) = (blk * block, ((blk + 1) * block).min(batch));
                // SAFETY: tile ti owns acc[tile_off[ti]..tile_off[ti+1]],
                // sliced by disjoint row blocks — pairwise disjoint across
                // the grid.
                let acc_region =
                    unsafe { acc_view.slice(tile_off[ti] + b0 * tc..tile_off[ti] + b1 * tc) };
                tile.pe
                    .matvec_batch_compute(&x_q[b0 * reduction..b1 * reduction], b1 - b0, acc_region)
                    .expect("tile loaded at compile time");
                for b in b0..b1 {
                    let scale = scales[b];
                    // SAFETY: row b is private to this block and the
                    // column range is private to this tile.
                    let dst = unsafe {
                        out_view.slice(b * outputs + tile.col_start..b * outputs + tile.col_end)
                    };
                    for ((d, &a), &bi) in dst
                        .iter_mut()
                        .zip(&acc_region[(b - b0) * tc..(b - b0 + 1) * tc])
                        .zip(&bias[tile.col_start..tile.col_end])
                    {
                        *d = a as f32 * scale + bi;
                    }
                }
            });
        }
    }

    /// Folds `batch` matvecs of every tile into the run ledger
    /// input-major, tile-minor — the sequential-execution order.
    pub(crate) fn replay_costs(&self, batch: usize, stats: &mut PeStats) {
        for _ in 0..batch {
            for tile in &self.tiles {
                stats.record_matvec_cost(&tile.cost, tile.nnz);
            }
        }
    }

    /// Splits the layer into `groups` macro-group parts, tile `i` going
    /// to part `i % groups` (round-robin keeps per-group work balanced
    /// when tiles are uneven). Each part keeps the full output width and
    /// bias — its tiles still write only the columns they own — so running
    /// every part over the same input writes disjoint column sets that
    /// together reconstruct exactly the unsplit layer's output. A part may
    /// hold no tiles when the layer has fewer tiles than groups.
    pub(crate) fn split_round_robin(&self, groups: usize) -> Vec<PeLayer> {
        (0..groups)
            .map(|g| PeLayer {
                name: format!("{}#g{g}", self.name),
                tiles: self
                    .tiles
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % groups == g)
                    .map(|(_, t)| t.clone())
                    .collect(),
                weight_scale: self.weight_scale,
                bias: self.bias.clone(),
                reduction: self.reduction,
                outputs: self.outputs,
                kernel: self.kernel,
                stride: self.stride,
                padding: self.padding,
            })
            .collect()
    }

    /// Cumulative statistics of this layer's tiles, as the PEs account
    /// them: the compile-time load and every refresh.
    pub(crate) fn cumulative_stats(&self) -> PeStats {
        self.tiles.iter().map(|t| *t.pe.stats()).sum()
    }

    /// The compute half of [`conv_forward`](BranchLayer::conv_forward):
    /// fused gather + quantize fan-out and tile × row-block PE grid with
    /// strided NCHW dequant writes, without touching any ledger. The
    /// sharded path calls this per macro group (each group re-gathers the
    /// broadcast activations and writes only its own output channels) and
    /// interleaves the groups' bills itself.
    pub(crate) fn conv_forward_compute(
        &self,
        input: &Tensor,
        out: &mut [f32],
        scratch: &mut LayerScratch,
        pool: &WorkPool,
    ) {
        let s = input.shape();
        let (n, cin, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.kernel;
        assert_eq!(cin * k * k, self.reduction, "layer {}: geometry", self.name);
        let (oh, ow) = conv_out_dims(h, w, k, self.stride, self.padding);
        let positions = oh * ow;
        let rows = n * positions;
        debug_assert_eq!(out.len(), n * self.outputs * positions);
        let reduction = self.reduction;
        let outputs = self.outputs;
        let x = input.as_slice();
        scratch.x_q.resize(rows * reduction, 0);
        scratch.scales.resize(rows, 0.0);
        scratch.row_bufs.ensure_slots(pool.threads());
        {
            // Fused gather + calibrate + quantize: each position's window
            // lands in a per-executor arena row and leaves it as INT8 —
            // identical f32 values to the staged gather, hence an
            // identical per-row scale and identical quantized codes.
            let weight_scale = self.weight_scale;
            let (stride, padding) = (self.stride, self.padding);
            let x_q = SharedSliceMut::new(&mut scratch.x_q);
            let scales = SharedSliceMut::new(&mut scratch.scales);
            let row_bufs = &scratch.row_bufs;
            pool.for_each_chunk(rows, par_block(rows, pool.threads()), |range| {
                // SAFETY: chunk row ranges are disjoint, so the x_q and
                // scales regions they map to are disjoint too.
                let (q, sc) = unsafe {
                    (
                        x_q.slice(range.start * reduction..range.end * reduction),
                        scales.slice(range.clone()),
                    )
                };
                row_bufs.with(|row_buf| {
                    row_buf.clear();
                    row_buf.resize(reduction, 0.0);
                    for (i, p) in range.enumerate() {
                        let (ni, pos) = (p / positions, p % positions);
                        let (oy, ox) = (pos / ow, pos % ow);
                        row_buf.fill(0.0);
                        gather_patch_into(x, row_buf, ni, oy, ox, cin, h, w, k, stride, padding);
                        let x_params = QuantParams::calibrate(row_buf);
                        sc[i] = weight_scale * x_params.scale();
                        x_params.quantize_into(row_buf, &mut q[i * reduction..(i + 1) * reduction]);
                    }
                });
            });
        }

        // Tile × row-block compute grid, as in `forward_batch_compute`,
        // except each cell dequantizes straight into its own strided
        // (image, channel, position) cells of the NCHW output.
        let LayerScratch {
            x_q,
            scales,
            acc,
            tile_off,
            ..
        } = scratch;
        tile_off.clear();
        tile_off.push(0);
        for tile in &self.tiles {
            let last = *tile_off.last().expect("seeded with 0");
            tile_off.push(last + (tile.col_end - tile.col_start) * rows);
        }
        acc.resize(*tile_off.last().expect("seeded with 0"), 0);
        let block = grid_block(rows, self.tiles.len(), pool.threads());
        let n_blocks = rows.div_ceil(block);
        {
            let tiles = &self.tiles;
            let bias = &self.bias;
            let x_q = &*x_q;
            let scales = &*scales;
            let tile_off = &*tile_off;
            let acc_view = SharedSliceMut::new(acc);
            let out_view = SharedSliceMut::new(out);
            pool.run(tiles.len() * n_blocks, |t| {
                let (ti, blk) = (t / n_blocks, t % n_blocks);
                let tile = &tiles[ti];
                let tc = tile.col_end - tile.col_start;
                let (b0, b1) = (blk * block, ((blk + 1) * block).min(rows));
                // SAFETY: tile ti owns acc[tile_off[ti]..tile_off[ti+1]],
                // sliced by disjoint row blocks — pairwise disjoint across
                // the grid.
                let acc_region =
                    unsafe { acc_view.slice(tile_off[ti] + b0 * tc..tile_off[ti] + b1 * tc) };
                tile.pe
                    .matvec_batch_compute(&x_q[b0 * reduction..b1 * reduction], b1 - b0, acc_region)
                    .expect("tile loaded at compile time");
                for b in b0..b1 {
                    let scale = scales[b];
                    let (ni, pos) = (b / positions, b % positions);
                    for (j, &a) in acc_region[(b - b0) * tc..(b - b0 + 1) * tc]
                        .iter()
                        .enumerate()
                    {
                        let co = tile.col_start + j;
                        // SAFETY: position rows are private to this block
                        // and output channels private to this tile, so the
                        // (row, channel) cells are pairwise distinct
                        // across the grid.
                        unsafe {
                            out_view.write(
                                (ni * outputs + co) * positions + pos,
                                a as f32 * scale + bias[co],
                            );
                        }
                    }
                }
            });
        }
    }

    /// Reference im2col convolution — gather the full patch matrix, run
    /// one merged batched call, scatter the staged rows into NCHW. Kept
    /// as the differential oracle the streaming
    /// [`conv_forward`](BranchLayer::conv_forward) is tested against.
    #[cfg(test)]
    pub(crate) fn conv_forward_im2col(
        &self,
        input: &Tensor,
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    ) -> Tensor {
        let s = input.shape();
        let (n, h, w) = (s[0], s[2], s[3]);
        let k = self.kernel;
        let (oh, ow) = conv_out_dims(h, w, k, self.stride, self.padding);
        let positions = oh * ow;
        let rows = n * positions;
        let mut out = Tensor::zeros(&[n, self.outputs, oh, ow]);
        let mut patches = Vec::new();
        let mut staged = vec![0.0; rows * self.outputs];
        gather_patches(
            input,
            self.reduction,
            k,
            self.stride,
            self.padding,
            oh,
            ow,
            &mut patches,
        );
        self.forward_batch(&patches, rows, &mut staged, scratch, stats, pool);
        scatter_staged(&staged, out.as_mut_slice(), self.outputs, positions);
        out
    }

    /// The exact bit-toggle bill an [`update`](PeLayer::update) to `w`
    /// would pay, computed **without writing anything**: per tile,
    /// re-quantize the column block and XOR-count it against the resident
    /// program ([`SramSparsePe::diff_bits`]). Tiles are independent and
    /// the u64 sum is order-free, so the diff fans out over the pool while
    /// still matching the sequential rewrite's bill exactly.
    fn pending_write_bits(
        &self,
        w: &Matrix<f32>,
        pattern: NmPattern,
        pool: &WorkPool,
    ) -> Result<u64, PeError> {
        assert_eq!(w.rows(), self.reduction, "layer {}: reduction", self.name);
        assert_eq!(w.cols(), self.outputs, "layer {}: outputs", self.name);
        let params = QuantParams::calibrate(w.as_slice());
        let quantized = w.map(|v| params.quantize_value(v));
        let mut bits: Vec<Result<u64, PeError>> = vec![Ok(0); self.tiles.len()];
        {
            let tiles = &self.tiles;
            let quantized = &quantized;
            let view = SharedSliceMut::new(&mut bits);
            pool.run(tiles.len(), |ti| {
                let tile = &tiles[ti];
                let (c, end) = (tile.col_start, tile.col_end);
                let block =
                    Matrix::from_fn(quantized.rows(), end - c, |r, j| quantized[(r, c + j)]);
                let mask = prune_magnitude(&block, pattern).expect("non-empty block");
                let csc = CscMatrix::compress(&block, &mask).expect("mask fits block");
                // SAFETY: each task owns exactly slot ti.
                unsafe { view.slice(ti..ti + 1)[0] = tile.pe.diff_bits(&csc) };
            });
        }
        bits.into_iter().try_fold(0u64, |acc, b| Ok(acc + b?))
    }
}

/// Output height/width of a `k×k` conv with `stride`/`padding` over `h×w`.
pub(crate) fn conv_out_dims(
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> (usize, usize) {
    (
        (h + 2 * padding - k) / stride + 1,
        (w + 2 * padding - k) / stride + 1,
    )
}

/// Gathers the whole batch's `n·oh·ow × reduction` im2col patch matrix in
/// position-major row order. `patches` is resized to fit. Only the
/// reference [`conv_forward_im2col`](PeLayer::conv_forward_im2col) oracle
/// still stages the full matrix — production conv streams patches
/// directly.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_patches(
    input: &Tensor,
    reduction: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    patches: &mut Vec<f32>,
) {
    let s = input.shape();
    let (n, cin, h, w) = (s[0], s[1], s[2], s[3]);
    debug_assert_eq!(cin * k * k, reduction);
    let positions = oh * ow;
    let x = input.as_slice();
    patches.clear();
    patches.resize(n * positions * reduction, 0.0);
    for (p, patch) in patches.chunks_exact_mut(reduction).enumerate() {
        let (ni, pos) = (p / positions, p % positions);
        let (oy, ox) = (pos / ow, pos % ow);
        gather_patch_into(x, patch, ni, oy, ox, cin, h, w, k, stride, padding);
    }
}

/// Gathers the single im2col patch row of output position `(oy, ox)` in
/// image `ni` into `patch` (length `cin·k·k`, **pre-zeroed** by the
/// caller — out-of-bounds window cells keep the zero padding). Shared by
/// the batched [`gather_patches`] staging and the direct-conv streaming
/// path so both produce bit-identical rows.
#[allow(clippy::too_many_arguments)]
fn gather_patch_into(
    x: &[f32],
    patch: &mut [f32],
    ni: usize,
    oy: usize,
    ox: usize,
    cin: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
) {
    for ci in 0..cin {
        for ky in 0..k {
            let iy = (oy * stride + ky) as isize - padding as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            for kx in 0..k {
                let ix = (ox * stride + kx) as isize - padding as isize;
                if ix < 0 || ix >= w as isize {
                    continue;
                }
                patch[(ci * k + ky) * k + kx] =
                    x[((ni * cin + ci) * h + iy as usize) * w + ix as usize];
            }
        }
    }
}

/// Scatters position-major staged rows (`n·positions × outputs`) into the
/// NCHW output slice. Like [`gather_patches`], only the im2col test oracle
/// still needs this.
#[cfg(test)]
pub(crate) fn scatter_staged(staged: &[f32], os: &mut [f32], outputs: usize, positions: usize) {
    for (row, vals) in staged.chunks_exact(outputs).enumerate() {
        let (ni, p) = (row / positions, row % positions);
        for (co, &v) in vals.iter().enumerate() {
            os[(ni * outputs + co) * positions + p] = v;
        }
    }
}

/// The pattern a layer compiles under: its mask's, or dense `4:4`.
fn pattern_of_conv(conv: &SparseConv2d) -> NmPattern {
    conv.mask()
        .map(|m| m.pattern())
        .unwrap_or_else(|| NmPattern::new(4, 4).expect("dense encoding"))
}

fn pattern_of_linear(fc: &SparseLinear) -> NmPattern {
    fc.mask()
        .map(|m| m.pattern())
        .unwrap_or_else(|| NmPattern::new(4, 4).expect("dense encoding"))
}

/// One Rep-Net module compiled onto PEs: `L` is a single-macro
/// [`PeLayer`] or a layer sharded across macro groups.
#[derive(Debug, Clone)]
pub(crate) struct PeModule<L = PeLayer> {
    pub(crate) pools_prev: bool,
    pub(crate) proj: L,
    pub(crate) conv3: L,
    pub(crate) conv1: L,
}

/// What the branch forward needs of a compiled layer, whether its tiles
/// sit in one macro or are dealt across several.
pub(crate) trait BranchLayer {
    fn outputs(&self) -> usize;
    fn reduction(&self) -> usize;
    fn conv_forward(
        &self,
        input: &Tensor,
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    ) -> Tensor;
    fn forward_batch(
        &self,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    );
}

impl BranchLayer for PeLayer {
    fn outputs(&self) -> usize {
        self.outputs
    }

    fn reduction(&self) -> usize {
        self.reduction
    }

    /// Direct sparse convolution over an NCHW tensor — **no im2col
    /// round-trip**. Each of the `n × oh×ow` output positions streams
    /// through the pipeline whole: its window is gathered into a
    /// task-local row, calibrated and quantized immediately (same values
    /// as the staged path, so the per-row scale is bit-identical), the
    /// tile × row-block grid runs over the quantized rows, and each cell
    /// dequantizes its accumulators **directly into the strided NCHW
    /// output** — the `rows × reduction` f32 patch arena and the
    /// `rows × outputs` staged arena of the old path are never written.
    /// The flat `(position, tile)` cost replay is the same sequence the
    /// merged im2col call billed, so the ledgers are unchanged.
    fn conv_forward(
        &self,
        input: &Tensor,
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    ) -> Tensor {
        let s = input.shape();
        let (n, h, w) = (s[0], s[2], s[3]);
        let (oh, ow) = conv_out_dims(h, w, self.kernel, self.stride, self.padding);
        let mut out = Tensor::zeros(&[n, self.outputs, oh, ow]);
        self.conv_forward_compute(input, out.as_mut_slice(), scratch, pool);
        self.replay_costs(n * oh * ow, stats);
        out
    }

    /// Batched quantized matvecs through the tiles:
    /// `out[b] = deq(PE(q(xs[b]))) + bias` for each of the `batch`
    /// row-major input rows, activations quantized **per input** exactly
    /// as sequential execution does. The compute fans out over `pool` as a
    /// tile × batch-block grid (each cell runs
    /// [`SramSparsePe::matvec_batch_compute`] into its own region of the
    /// accumulator arena and its own rows/columns of `out`), then the
    /// `batch × tiles` matvec bills are folded into the run ledger
    /// **after the join, serially**, in the sequential (input, tile) order
    /// — so both outputs and the f64 run ledger are bit-identical to
    /// one-at-a-time calls regardless of thread count or interleaving.
    /// Zero heap allocation after the scratch has warmed up.
    fn forward_batch(
        &self,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    ) {
        self.forward_batch_compute(xs, batch, out, scratch, pool);
        self.replay_costs(batch, stats);
    }
}

/// The learnable branch over the frozen backbone's outputs: every MAC on
/// the compiled layers, elementwise glue (mix, ReLU, pooling) in the
/// digital periphery. Returns logits and the run ledger, folded in the
/// sequential order whatever the layers' macro topology.
pub(crate) fn branch_forward<L: BranchLayer>(
    modules: &[PeModule<L>],
    classifier: &L,
    feature_width: usize,
    out: &BackboneOutput,
    scratch: &mut PeScratch,
    pool: &WorkPool,
) -> (Tensor, PeStats) {
    let mut stats = PeStats::default();
    let batch = out.features.shape()[0];
    let PeScratch {
        layer, clf_rows, ..
    } = scratch;
    let mut rep: Option<Tensor> = None;
    for (module, tap) in modules.iter().zip(&out.taps) {
        // Activation connector on PE.
        let projected = module.proj.conv_forward(tap, layer, &mut stats, pool);
        // Mix with the (pooled) carried state; digital periphery.
        let mut a = match (&rep, module.pools_prev) {
            (Some(r), true) => projected.add(&avg_pool2(r)).expect("rep shapes align"),
            (Some(r), false) => projected.add(r).expect("rep shapes align"),
            (None, _) => projected,
        };
        relu_in_place(&mut a); // global ReLU, no fresh tensor
        let mut h = module.conv3.conv_forward(&a, layer, &mut stats, pool);
        relu_in_place(&mut h);
        let mut o = module.conv1.conv_forward(&h, layer, &mut stats, pool);
        relu_in_place(&mut o);
        rep = Some(o);
    }
    let rep_state = rep.expect("at least one module");
    let rep_feat = global_avg_pool(&rep_state);
    // Classifier on PE: stage the feature rows and run the whole batch as
    // one batched call per tile.
    let rc = rep_feat.shape()[1];
    let width = classifier.reduction();
    debug_assert_eq!(feature_width + rc, width);
    clf_rows.resize(batch * width, 0.0);
    for b in 0..batch {
        let dst = &mut clf_rows[b * width..(b + 1) * width];
        dst[..feature_width]
            .copy_from_slice(&out.features.as_slice()[b * feature_width..(b + 1) * feature_width]);
        dst[feature_width..].copy_from_slice(&rep_feat.as_slice()[b * rc..(b + 1) * rc]);
    }
    let mut logits = Tensor::zeros(&[batch, classifier.outputs()]);
    classifier.forward_batch(
        clf_rows,
        batch,
        logits.as_mut_slice(),
        layer,
        &mut stats,
        pool,
    );
    (logits, stats)
}

/// The Rep-Net learnable branch compiled onto SRAM sparse PEs.
///
/// Inference has one path, [`infer`](Self::infer): it runs on `&self`
/// with caller-owned scratch and a [`FrozenBackbone`], so one compiled
/// branch can sit behind an `Arc` and serve any number of threads, and
/// it returns the run's PE ledger. A caller that wants a total sums run
/// ledgers. [`predict`](Self::predict) is `infer` on a freshly frozen
/// backbone with the branch's own scratch and pool, plus a record into
/// attached telemetry. The tiles' own ledgers
/// ([`cumulative_stats`](Self::cumulative_stats)) hold only what belongs
/// to a tile: its compile-time load and every [`refresh`](Self::refresh).
///
/// # Example
///
/// ```no_run
/// use pim_core::pe_inference::PeRepNet;
/// # use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
/// # use pim_nn::tensor::Tensor;
/// let model = RepNet::new(
///     Backbone::new(BackboneConfig::tiny()),
///     RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 },
/// );
/// let mut compiled = PeRepNet::compile(&model)?;
/// let x = Tensor::ones(&[1, 1, 8, 8]);
/// let (logits, stats) = compiled.predict(&model, &x);
/// assert_eq!(logits.shape(), &[1, 5]);
/// assert!(stats.matvecs > 0);
/// # Ok::<(), pim_pe::PeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PeRepNet {
    pub(crate) modules: Vec<PeModule>,
    pub(crate) classifier: PeLayer,
    pub(crate) feature_width: usize,
    /// Live counter mirror of `predict`/`refresh` ledgers (clones share
    /// the same counters).
    telemetry: Option<PeTelemetry>,
    /// Compute pool of `predict` and `pending_write_bits`. Defaults to a
    /// serial pool; clones share it.
    pool: Arc<WorkPool>,
    /// Working memory of `predict`.
    scratch: PeScratch,
}

impl PeRepNet {
    /// Compiles the learnable branch of `model` into loaded PE tiles.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] if a layer tile exceeds PE capacity.
    pub fn compile(model: &RepNet) -> Result<Self, PeError> {
        let mut modules = Vec::new();
        for (i, module) in model.modules().iter().enumerate() {
            let proj_conv = module.connector();
            let [conv3, conv1] = module.sparse_convs();
            modules.push(PeModule {
                pools_prev: i > 0,
                proj: PeLayer::compile(
                    &format!("rep{i}.proj"),
                    &proj_conv.weight_matrix(),
                    proj_conv.bias_values(),
                    NmPattern::new(4, 4).expect("dense encoding"),
                    proj_conv.kernel(),
                    proj_conv.stride(),
                    proj_conv.padding(),
                )?,
                conv3: PeLayer::compile(
                    &format!("rep{i}.conv3"),
                    &conv3.inner().weight_matrix(),
                    conv3.inner().bias_values(),
                    pattern_of_conv(conv3),
                    conv3.inner().kernel(),
                    conv3.inner().stride(),
                    conv3.inner().padding(),
                )?,
                conv1: PeLayer::compile(
                    &format!("rep{i}.conv1"),
                    &conv1.inner().weight_matrix(),
                    conv1.inner().bias_values(),
                    pattern_of_conv(conv1),
                    conv1.inner().kernel(),
                    conv1.inner().stride(),
                    conv1.inner().padding(),
                )?,
            });
        }
        let clf = model.classifier();
        let classifier = PeLayer::compile(
            "classifier",
            &clf.inner().weight_matrix(),
            clf.inner().bias_values(),
            pattern_of_linear(clf),
            1,
            1,
            0,
        )?;
        let feature_width = model.backbone().config().feature_width();
        Ok(Self {
            modules,
            classifier,
            feature_width,
            telemetry: None,
            pool: Arc::new(WorkPool::serial()),
            scratch: PeScratch::default(),
        })
    }

    /// Attaches a shared [`WorkPool`]: from now on
    /// [`predict`](PeRepNet::predict) (backbone convolutions and PE tile
    /// grids) and [`pending_write_bits`](PeRepNet::pending_write_bits)
    /// fan out over it. Outputs and ledgers are bit-identical at every
    /// thread count (see the module docs of `pim_par`); a 1-thread pool
    /// **is** the serial path. Clones made after attachment share the
    /// pool.
    pub fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        self.pool = pool;
    }

    /// The attached compute pool (serial by default).
    pub fn pool(&self) -> &Arc<WorkPool> {
        &self.pool
    }

    /// Attaches a [`PeTelemetry`] counter bundle: from now on every
    /// [`predict`](PeRepNet::predict) run ledger and every
    /// [`refresh`](PeRepNet::refresh) write-back delta is also recorded
    /// into its registry, making read/write/leakage energy observable
    /// mid-run. Replaces any previous attachment; clones of the branch
    /// share the same counters. [`infer`](PeRepNet::infer) never records:
    /// its caller owns the ledger it returns.
    pub fn attach_telemetry(&mut self, telemetry: PeTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Differentially rewrites the resident SRAM tiles with `model`'s
    /// current learnable weights — the on-device learning write-back path:
    /// only changed bit-cells toggle and pay write energy, while the tile
    /// geometry (and the frozen backbone) stays put. Afterwards the branch
    /// is indistinguishable from a cold [`compile`](PeRepNet::compile) of
    /// the same model: predictions are bit-exact.
    ///
    /// Returns the PE ledger delta of the rewrite (loads, cycles, write
    /// bits and energy), which `pim-learn` meters against the endurance
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`PeError`] if a rewritten layer no longer fits its PEs
    /// (cannot happen while shapes and patterns are unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `model` is structurally different from the model this
    /// branch was compiled from.
    pub fn refresh(&mut self, model: &RepNet) -> Result<PeStats, PeError> {
        assert_eq!(
            self.modules.len(),
            model.modules().len(),
            "branch was compiled from a different model"
        );
        let mut delta = PeStats::new();
        for (pm, module) in self.modules.iter_mut().zip(model.modules()) {
            let proj_conv = module.connector();
            let [conv3, conv1] = module.sparse_convs();
            delta += pm.proj.update(
                &proj_conv.weight_matrix(),
                proj_conv.bias_values(),
                NmPattern::new(4, 4).expect("dense encoding"),
            )?;
            delta += pm.conv3.update(
                &conv3.inner().weight_matrix(),
                conv3.inner().bias_values(),
                pattern_of_conv(conv3),
            )?;
            delta += pm.conv1.update(
                &conv1.inner().weight_matrix(),
                conv1.inner().bias_values(),
                pattern_of_conv(conv1),
            )?;
        }
        let clf = model.classifier();
        delta += self.classifier.update(
            &clf.inner().weight_matrix(),
            clf.inner().bias_values(),
            pattern_of_linear(clf),
        )?;
        if let Some(t) = &self.telemetry {
            t.record(&delta);
        }
        Ok(delta)
    }

    /// The exact number of SRAM bits a [`refresh`](PeRepNet::refresh) to
    /// `model`'s current weights would toggle, **without writing
    /// anything** — the write-back preflight `pim-learn` authorizes
    /// against its endurance budget. Per-tile diffs fan out over the
    /// attached pool; the u64 sum is order-independent, so the figure is
    /// identical to what the sequential rewrite will bill.
    ///
    /// # Errors
    ///
    /// Same conditions as [`refresh`](PeRepNet::refresh).
    ///
    /// # Panics
    ///
    /// Panics if `model` is structurally different from the model this
    /// branch was compiled from.
    pub fn pending_write_bits(&self, model: &RepNet) -> Result<u64, PeError> {
        assert_eq!(
            self.modules.len(),
            model.modules().len(),
            "branch was compiled from a different model"
        );
        let pool = &self.pool;
        let mut total = 0u64;
        for (pm, module) in self.modules.iter().zip(model.modules()) {
            let proj_conv = module.connector();
            let [conv3, conv1] = module.sparse_convs();
            total += pm.proj.pending_write_bits(
                &proj_conv.weight_matrix(),
                NmPattern::new(4, 4).expect("dense encoding"),
                pool,
            )?;
            total += pm.conv3.pending_write_bits(
                &conv3.inner().weight_matrix(),
                pattern_of_conv(conv3),
                pool,
            )?;
            total += pm.conv1.pending_write_bits(
                &conv1.inner().weight_matrix(),
                pattern_of_conv(conv1),
                pool,
            )?;
        }
        let clf = model.classifier();
        total += self.classifier.pending_write_bits(
            &clf.inner().weight_matrix(),
            pattern_of_linear(clf),
            pool,
        )?;
        Ok(total)
    }

    /// Runs a `[N, C, H, W]` batch: backbone taps from `backbone` (the
    /// frozen backbone of the model this branch was compiled from), every
    /// learnable MAC on the PEs. Returns logits and the run ledger; the
    /// tiles' own ledgers and any attached telemetry are left alone, so
    /// any number of threads may share one branch, each with its own
    /// `scratch`. Outputs and ledger are bit-identical at every `pool`
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `backbone` does not match the compiled branch's shapes.
    pub fn infer(
        &self,
        backbone: &FrozenBackbone,
        input: &Tensor,
        scratch: &mut PeScratch,
        pool: &WorkPool,
    ) -> (Tensor, PeStats) {
        let out = backbone.forward(input, &mut scratch.backbone, pool);
        branch_forward(
            &self.modules,
            &self.classifier,
            self.feature_width,
            &out,
            scratch,
            pool,
        )
    }

    /// [`infer`](Self::infer) on `model`'s backbone, frozen for this
    /// call, with the branch's own scratch and attached pool; the run
    /// ledger is also recorded into attached telemetry. Returns logits
    /// and the run ledger. Freezing costs what the eval forward of each
    /// convolution always paid: one reduction-major weight copy.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model this branch was compiled from
    /// (shape mismatches).
    pub fn predict(&mut self, model: &RepNet, input: &Tensor) -> (Tensor, PeStats) {
        self.predict_frozen(&model.backbone().freeze(), input)
    }

    /// [`predict`](Self::predict) on an already frozen backbone: the
    /// branch's own scratch and pool, and a record into attached
    /// telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `backbone` does not match the compiled branch's shapes.
    pub fn predict_frozen(
        &mut self,
        backbone: &FrozenBackbone,
        input: &Tensor,
    ) -> (Tensor, PeStats) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let (logits, stats) = self.infer(backbone, input, &mut scratch, &self.pool);
        self.scratch = scratch;
        if let Some(t) = &self.telemetry {
            t.record(&stats);
        }
        (logits, stats)
    }

    /// Convenience: classify a batch on the PEs.
    pub fn classify(&mut self, model: &RepNet, input: &Tensor) -> (Vec<usize>, PeStats) {
        let (logits, stats) = self.predict(model, input);
        (predictions(&logits), stats)
    }

    /// Runs only the first module's compiled 3×3 conv stage — the direct
    /// sparse convolution (fused gather → quantize → PE tile grid →
    /// strided dequant) without the f32 backbone in front of it.
    /// `features` must be `[N, C, H, W]` with `C` equal to the module's
    /// rep width. Bench/diagnostic hook: this is the kernel
    /// `BENCH_kernels.json` tracks as `direct_conv_*`; the full pipeline
    /// is [`predict`](Self::predict). Tile ledgers are left alone.
    pub fn conv3_stage_forward(&mut self, features: &Tensor) -> (Tensor, PeStats) {
        let mut stats = PeStats::default();
        let module = self.modules.first().expect("compiled branch is non-empty");
        let out =
            module
                .conv3
                .conv_forward(features, &mut self.scratch.layer, &mut stats, &self.pool);
        (out, stats)
    }

    /// Every compiled layer in execution order: module-major proj, conv3,
    /// conv1, then the classifier.
    fn layers(&self) -> impl Iterator<Item = &PeLayer> {
        self.modules
            .iter()
            .flat_map(|m| [&m.proj, &m.conv3, &m.conv1])
            .chain(std::iter::once(&self.classifier))
    }

    /// Number of PE tiles loaded across the branch.
    pub fn tile_count(&self) -> usize {
        self.layers().map(|l| l.tiles.len()).sum()
    }

    /// Number of classifier outputs.
    pub fn num_classes(&self) -> usize {
        self.classifier.outputs
    }

    /// Per-layer cumulative statistics, straight from each tile's own
    /// [`PeStats`] ledger: the costs that belong to a tile, its
    /// compile-time load and every [`refresh`](Self::refresh) rewrite.
    /// Inference bills no tile; each run returns its own ledger.
    pub fn layer_stats(&self) -> Vec<(String, PeStats)> {
        self.layers()
            .map(|l| (l.name.clone(), l.cumulative_stats()))
            .collect()
    }

    /// Cumulative statistics over the whole branch: tile loads and
    /// refresh rewrites.
    pub fn cumulative_stats(&self) -> PeStats {
        self.layer_stats().into_iter().map(|(_, s)| s).sum()
    }
}

impl fmt::Display for PeRepNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PeRepNet: {} modules + classifier across {} SRAM PE tiles",
            self.modules.len(),
            self.tile_count()
        )
    }
}

/// In-place ReLU (digital periphery — the PE's global ReLU unit).
pub(crate) fn relu_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// 2×2 average pooling (digital periphery — shift-add).
pub(crate) fn avg_pool2(t: &Tensor) -> Tensor {
    let s = t.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let x = t.as_slice();
    let mut out = Tensor::zeros(&[n, c, h / 2, w / 2]);
    let os = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..h / 2 {
                for ox in 0..w / 2 {
                    let mut acc = 0.0;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            acc += x[((ni * c + ci) * h + oy * 2 + ky) * w + ox * 2 + kx];
                        }
                    }
                    os[((ni * c + ci) * (h / 2) + oy) * (w / 2) + ox] = acc * 0.25;
                }
            }
        }
    }
    out
}

/// Global average pooling NCHW → `[N, C]`.
pub(crate) fn global_avg_pool(t: &Tensor) -> Tensor {
    let s = t.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let x = t.as_slice();
    let mut out = Tensor::zeros(&[n, c]);
    let os = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            os[ni * c + ci] = x[base..base + h * w].iter().sum::<f32>() / (h * w) as f32;
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pim_data::SyntheticSpec;
    use pim_nn::models::{Backbone, BackboneConfig, RepNetConfig};
    use pim_nn::train::{fit, FitConfig, Model};
    use proptest::prelude::*;

    fn trained_model(pattern: Option<NmPattern>) -> (RepNet, pim_data::Task) {
        let backbone_cfg = BackboneConfig {
            in_channels: 3,
            image_size: 8,
            stage_widths: vec![8, 16],
            blocks_per_stage: 1,
            seed: 1,
        };
        let task = SyntheticSpec::cifar10_like()
            .with_geometry(8, 3)
            .with_samples(8, 6)
            .with_difficulty(0.4)
            .generate()
            .expect("valid spec");
        let mut model = RepNet::new(
            Backbone::new(backbone_cfg),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 10,
                seed: 3,
            },
        );
        if let Some(p) = pattern {
            model.apply_pattern(p);
        }
        fit(
            &mut model,
            &task.train,
            &FitConfig {
                epochs: 8,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 5,
            },
        );
        (model, task)
    }

    #[test]
    fn pe_executed_branch_agrees_with_the_quantized_nn() {
        let (model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");

        // Reference: the NN model under fake-quant evaluation.
        let mut quantized = model.clone();
        quantized.quantize_weights_int8();
        quantized.set_int8_eval(true);

        let indices: Vec<usize> = (0..task.test.len()).collect();
        let (x, _) = task.test.batch(&indices);
        let (pe_preds, stats) = compiled.classify(&model, &x);
        let nn_logits = quantized.predict(&x, false);
        let nn_preds = predictions(&nn_logits);
        let agree = pe_preds
            .iter()
            .zip(&nn_preds)
            .filter(|(a, b)| a == b)
            .count();
        let frac = agree as f64 / pe_preds.len() as f64;
        assert!(
            frac > 0.7,
            "PE vs quantized-NN prediction agreement only {frac}"
        );
        assert!(stats.matvecs > 0);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn pe_executed_branch_retains_task_accuracy() {
        let (model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let indices: Vec<usize> = (0..task.test.len()).collect();
        let (x, labels) = task.test.batch(&indices);
        let (preds, _) = compiled.classify(&model, &x);
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        let acc = correct as f64 / labels.len() as f64;
        // Must stay meaningfully above 10-class chance.
        assert!(acc > 0.2, "PE-executed accuracy {acc}");
    }

    #[test]
    fn dense_model_also_compiles_under_4_of_4() {
        let (model, _) = trained_model(None);
        let compiled = PeRepNet::compile(&model).expect("dense encoding fits");
        assert!(compiled.tile_count() > 0);
        assert!(compiled.to_string().contains("SRAM PE tiles"));
    }

    #[test]
    fn run_stats_carry_energy_and_latency() {
        let (model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let compiled_ledger = compiled.cumulative_stats();
        let (x, _) = task.test.batch(&[0]);
        let (_, stats) = compiled.predict(&model, &x);
        assert!(stats.total_energy().as_pj() > 0.0);
        assert!(stats.busy_time.as_ns() > 0.0);
        assert!(stats.macs > 0);
        assert_eq!(stats.loads, 0, "predict never reloads tiles");
        // Per-layer ledgers hold the compile-time loads; the run is billed
        // to the ledger `predict` returns, not to the tiles.
        let layers = compiled.layer_stats();
        assert_eq!(layers.len(), 3 * 2 + 1);
        let total = compiled.cumulative_stats();
        assert_eq!(total.loads as usize, compiled.tile_count());
        assert_eq!(total.matvecs, 0);
        assert_eq!(ledger_bits(&total), ledger_bits(&compiled_ledger));
    }

    #[test]
    fn refresh_matches_cold_recompile_bit_exactly() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        // Move the learnable weights, as online steps would.
        fit(
            &mut model,
            &task.train,
            &FitConfig {
                epochs: 1,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 9,
            },
        );
        let delta = compiled.refresh(&model).expect("geometry unchanged");
        assert_eq!(delta.loads as usize, compiled.tile_count());
        assert!(delta.write_bits > 0, "training must have moved some codes");

        let cold_model = model.clone();
        let mut cold = PeRepNet::compile(&cold_model).expect("fits PEs");
        let (x, _) = task.test.batch(&[0, 1, 2, 3]);
        let (a, _) = compiled.predict(&model, &x);
        let (b, _) = cold.predict(&cold_model, &x);
        assert_eq!(a.as_slice(), b.as_slice());

        // Differential write bill is bounded by a full reprogram.
        let cold_compile = cold.cumulative_stats();
        assert!(delta.energy.write.as_pj() <= cold_compile.energy.write.as_pj() + 1e-9);
        assert!(delta.write_bits <= cold_compile.write_bits);
    }

    #[test]
    fn unchanged_refresh_writes_nothing() {
        let (model, _) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let delta = compiled.refresh(&model).expect("geometry unchanged");
        assert_eq!(delta.write_bits, 0);
        assert!(delta.energy.write.is_zero());
    }

    #[test]
    fn cloned_branch_replays_bit_exactly() {
        let (model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let mut replica = compiled.clone();
        let (x, _) = task.test.batch(&[0, 1, 2]);
        let (a, _) = compiled.predict(&model, &x);
        let (b, _) = replica.predict(&model, &x);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn parallel_pool_is_bit_exact_with_serial() {
        let (model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut serial = PeRepNet::compile(&model).expect("fits PEs");
        let mut parallel = serial.clone();
        parallel.attach_pool(Arc::new(WorkPool::with_forced_threads(4)));
        assert_eq!(parallel.pool().threads(), 4);

        let (x, _) = task.test.batch(&[0, 1, 2, 3, 4, 5]);
        let (logits_s, stats_s) = serial.predict(&model, &x);
        let (logits_p, stats_p) = parallel.predict(&model, &x);
        // Bit-level equality on outputs AND on the full f64 run ledger.
        assert_eq!(tensor_bits(&logits_s), tensor_bits(&logits_p));
        assert_eq!(ledger_bits(&stats_s), ledger_bits(&stats_p));
        assert_eq!(
            ledger_bits(&serial.cumulative_stats()),
            ledger_bits(&parallel.cumulative_stats()),
            "per-tile ledgers agree bit-exactly"
        );
    }

    #[test]
    fn shared_infer_matches_predict_and_leaves_tile_ledgers_alone() {
        let (model, task) = trained_model(Some(NmPattern::one_of_four()));
        let backbone = model.backbone().freeze();
        let shared = PeRepNet::compile(&model).expect("fits PEs");
        let compiled_ledger = ledger_bits(&shared.cumulative_stats());
        let (x, _) = task.test.batch(&[0, 1, 2, 3, 4]);
        let mut scratch = PeScratch::default();
        let (want, want_stats) = shared.infer(&backbone, &x, &mut scratch, &WorkPool::serial());
        let (want, want_stats) = (tensor_bits(&want), ledger_bits(&want_stats));
        for threads in [1, 4] {
            let pool = Arc::new(WorkPool::with_forced_threads(threads));
            let (logits, stats) = shared.infer(&backbone, &x, &mut scratch, &pool);
            assert_eq!(tensor_bits(&logits), want, "infer, {threads} threads");
            assert_eq!(ledger_bits(&stats), want_stats, "infer, {threads} threads");
            // `predict` is `infer` on the model's backbone frozen for the
            // call; however many calls, the tiles keep only their load.
            let mut resident = shared.clone();
            resident.attach_pool(pool);
            for call in 1..=2 {
                let (logits, stats) = resident.predict(&model, &x);
                assert_eq!(
                    tensor_bits(&logits),
                    want,
                    "predict {call}, {threads} threads"
                );
                assert_eq!(
                    ledger_bits(&stats),
                    want_stats,
                    "predict {call}, {threads} threads"
                );
                assert_eq!(ledger_bits(&resident.cumulative_stats()), compiled_ledger);
            }
        }
        assert_eq!(ledger_bits(&shared.cumulative_stats()), compiled_ledger);
    }

    #[test]
    fn pending_write_bits_predicts_the_refresh_delta() {
        let (mut model, task) = trained_model(Some(NmPattern::one_of_four()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        compiled.attach_pool(Arc::new(WorkPool::with_forced_threads(2)));
        assert_eq!(
            compiled.pending_write_bits(&model).expect("same geometry"),
            0,
            "freshly compiled branch has nothing pending"
        );
        fit(
            &mut model,
            &task.train,
            &FitConfig {
                epochs: 1,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                seed: 11,
            },
        );
        let pending = compiled.pending_write_bits(&model).expect("same geometry");
        let delta = compiled.refresh(&model).expect("geometry unchanged");
        assert_eq!(pending, delta.write_bits, "preflight is exact");
        assert!(pending > 0, "training must have moved some codes");
    }

    #[test]
    fn run_stats_scale_with_batch() {
        let (model, task) = trained_model(Some(NmPattern::one_of_eight()));
        let mut compiled = PeRepNet::compile(&model).expect("fits PEs");
        let (x1, _) = task.test.batch(&[0]);
        let (x4, _) = task.test.batch(&[0, 1, 2, 3]);
        let (_, s1) = compiled.predict(&model, &x1);
        let (_, s4) = compiled.predict(&model, &x4);
        assert!((3 * s1.matvecs..=5 * s1.matvecs).contains(&s4.matvecs));
    }

    /// A standalone conv layer with deterministic pseudo-random weights.
    pub(crate) fn conv_layer(
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        padding: usize,
        pattern: NmPattern,
        seed: usize,
    ) -> PeLayer {
        let w = Matrix::from_fn(cin * k * k, cout, |r, c| {
            let t = (r * 31 + c * 17 + seed * 101) % 23;
            (t as f32 - 11.0) / 11.0
        });
        let bias: Vec<f32> = (0..cout).map(|c| (c as f32 - 1.5) * 0.05).collect();
        PeLayer::compile("conv", &w, &bias, pattern, k, stride, padding).expect("tile fits PE")
    }

    /// A deterministic NCHW probe tensor with varied magnitudes.
    pub(crate) fn probe_input(n: usize, cin: usize, h: usize, w: usize, seed: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, cin, h, w]);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            let u = (i * 37 + seed * 13) % 29;
            *v = (u as f32 - 14.0) / 10.0;
        }
        t
    }

    fn tensor_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every field of a ledger, the f64 ones by bit pattern.
    fn ledger_bits(s: &PeStats) -> [u64; 12] {
        [
            s.cycles,
            s.busy_time.as_ns().to_bits(),
            s.energy.leakage.as_pj().to_bits(),
            s.energy.read.as_pj().to_bits(),
            s.energy.write.as_pj().to_bits(),
            s.energy.compute.as_pj().to_bits(),
            s.loads,
            s.matvecs,
            s.macs,
            s.write_bits,
            s.write_retries,
            s.write_faults,
        ]
    }

    #[test]
    fn direct_conv_matches_the_im2col_oracle_bitwise() {
        // Strides/paddings that exercise zero-padded borders, and both a
        // serial pool and a forced 4-wide pool.
        for (stride, padding, threads) in [(1, 1, 1), (2, 1, 4), (1, 0, 4)] {
            let pool = WorkPool::with_forced_threads(threads);
            let layer = conv_layer(3, 8, 3, stride, padding, NmPattern::one_of_four(), 7);
            let x = probe_input(2, 3, 8, 8, 11);
            let mut stats_d = PeStats::new();
            let mut stats_o = PeStats::new();
            let out_d = layer.conv_forward(&x, &mut LayerScratch::default(), &mut stats_d, &pool);
            let out_o =
                layer.conv_forward_im2col(&x, &mut LayerScratch::default(), &mut stats_o, &pool);
            assert_eq!(out_d.shape(), out_o.shape());
            assert_eq!(tensor_bits(&out_d), tensor_bits(&out_o));
            assert_eq!(stats_d, stats_o, "run ledgers replay identically");
        }
    }

    #[test]
    fn pool_width_does_not_change_conv_results() {
        let serial = WorkPool::serial();
        let wide = WorkPool::with_forced_threads(3);
        let a = conv_layer(2, 6, 3, 1, 1, NmPattern::two_of_four(), 3);
        let b = a.clone();
        let x = probe_input(3, 2, 6, 6, 5);
        let mut stats_a = PeStats::new();
        let mut stats_b = PeStats::new();
        let out_a = a.conv_forward(&x, &mut LayerScratch::default(), &mut stats_a, &serial);
        let out_b = b.conv_forward(&x, &mut LayerScratch::default(), &mut stats_b, &wide);
        assert_eq!(tensor_bits(&out_a), tensor_bits(&out_b));
        assert_eq!(stats_a, stats_b, "chunking never leaks into ledgers");
    }

    proptest! {
        // The direct streaming conv is a pure refactor of the im2col
        // round-trip: same gathered values, same per-row calibration,
        // same kernel calls, same replay order — so logits AND the f64
        // run ledgers must agree bit-for-bit over random geometry, sparsity
        // pattern, batch, and pool width.
        #[test]
        fn direct_conv_is_a_bitwise_refactor_of_im2col(
            (cin, cout, k, stride, padding) in prop_oneof![
                Just((3usize, 8usize, 3usize, 1usize, 1usize)),
                Just((2, 4, 3, 2, 1)),
                Just((1, 6, 3, 1, 0)),
                Just((4, 4, 1, 1, 0)),
            ],
            pattern in prop_oneof![
                Just(NmPattern::one_of_four()),
                Just(NmPattern::two_of_four()),
                Just(NmPattern::one_of_eight()),
            ],
            n in 1usize..=3,
            hw in 4usize..=9,
            threads in prop_oneof![Just(1usize), Just(4usize)],
            seed in 0usize..64,
        ) {
            let pool = WorkPool::with_forced_threads(threads);
            let layer = conv_layer(cin, cout, k, stride, padding, pattern, seed);
            let x = probe_input(n, cin, hw, hw, seed + 1);
            let mut stats_d = PeStats::new();
            let mut stats_o = PeStats::new();
            let out_d = layer.conv_forward(&x, &mut LayerScratch::default(), &mut stats_d, &pool);
            let out_o = layer.conv_forward_im2col(&x, &mut LayerScratch::default(), &mut stats_o, &pool);
            prop_assert_eq!(tensor_bits(&out_d), tensor_bits(&out_o));
            prop_assert_eq!(stats_d, stats_o);
        }
    }
}
