//! 2-D convolution via im2col.
//!
//! The weight is held as `[out_channels, in_channels, kh, kw]` but every
//! PIM-facing export uses the **reduction-first matrix view**
//! `[in_channels·kh·kw, out_channels]`, the same orientation as
//! [`super::Linear`] — so N:M pruning groups run along the input-channel ×
//! kernel axis, exactly where NVIDIA-style N:M sparsity lives.

use super::{Layer, Param};
use crate::init::kaiming_uniform;
use crate::tensor::Tensor;
use pim_par::{SharedSliceMut, WorkPool};
use pim_sparse::Matrix;
use std::ops::Range;

/// 2-D convolution over NCHW tensors.
///
/// # Example
///
/// ```
/// use pim_nn::layers::{Conv2d, Layer};
/// use pim_nn::tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0); // 3→8, 3×3, stride 1, pad 1
/// let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), false);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached: Option<CachedForward>,
    /// Eval-mode arenas reused across forwards so steady-state inference
    /// allocates nothing.
    scratch: ConvScratch,
    /// Reduction-major weight copy, rebuilt per forward because training
    /// steps the weights.
    wt: Vec<f32>,
}

/// The im2col arena and row-major output arena of an eval convolution,
/// owned by the caller and reused across forwards (and across every
/// convolution of one network: they only grow).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvScratch {
    cols: Vec<f32>,
    flat: Vec<f32>,
}

/// A convolution's geometry: everything its forward needs besides the
/// weights.
#[derive(Debug, Clone, Copy)]
struct ConvShape {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

/// A convolution frozen for inference: its reduction-major weight copy
/// is built once, so the forward runs on `&self`.
#[derive(Debug, Clone)]
pub(crate) struct FrozenConv {
    shape: ConvShape,
    wt: Vec<f32>,
    bias: Vec<f32>,
}

impl FrozenConv {
    /// The eval forward — the same kernel [`Conv2d`]'s `Layer::forward`
    /// runs, so the output is bit-identical.
    pub(crate) fn forward(
        &self,
        input: &Tensor,
        scratch: &mut ConvScratch,
        pool: &WorkPool,
    ) -> Tensor {
        self.shape
            .forward(&self.wt, &self.bias, input, scratch, pool)
    }
}

#[derive(Debug, Clone)]
struct CachedForward {
    /// im2col matrix `[n·oh·ow, cin·k·k]`.
    cols: Vec<f32>,
    input_shape: [usize; 4],
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of channels, kernel, or stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "degenerate convolution"
        );
        let fan_in = in_channels * kernel * kernel;
        Self {
            weight: Param::new(kaiming_uniform(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                seed,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached: None,
            scratch: ConvScratch::default(),
            wt: Vec::new(),
        }
    }

    fn shape(&self) -> ConvShape {
        ConvShape {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// Freezes the current weights for `&self` inference.
    pub(crate) fn freeze(&self) -> FrozenConv {
        let mut wt = Vec::new();
        reduction_major(
            self.weight.value.as_slice(),
            self.out_channels,
            self.reduction_len(),
            &mut wt,
        );
        FrozenConv {
            shape: self.shape(),
            wt,
            bias: self.bias.value.as_slice().to_vec(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel edge length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each side.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The bias vector, one entry per output channel.
    pub fn bias_values(&self) -> &[f32] {
        self.bias.value.as_slice()
    }

    /// Reduction length of the matrix view, `cin · k · k`.
    pub fn reduction_len(&self) -> usize {
        self.shape().reduction_len()
    }

    /// Read access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Output spatial size for an `(h, w)` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.shape().output_hw(h, w)
    }

    /// Exports the weight as a reduction-first `[cin·k·k, cout]` matrix.
    pub fn weight_matrix(&self) -> Matrix<f32> {
        let red = self.reduction_len();
        let cout = self.out_channels;
        let w = self.weight.value.as_slice();
        // Stored layout is [cout, red]; transpose into [red, cout].
        Matrix::from_fn(red, cout, |r, c| w[c * red + r])
    }

    /// Overwrites the weight from a reduction-first matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape is not `[cin·k·k, cout]`.
    pub fn set_weight_matrix(&mut self, m: &Matrix<f32>) {
        let red = self.reduction_len();
        assert_eq!(m.shape(), (red, self.out_channels), "weight shape mismatch");
        let w = self.weight.value.as_mut_slice();
        for r in 0..red {
            for c in 0..self.out_channels {
                w[c * red + r] = m[(r, c)];
            }
        }
    }
}

impl ConvShape {
    fn reduction_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// The eval forward over an NCHW batch: `wt` is the weight in
    /// reduction-major layout `[cin·k·k, cout]`. Every output element
    /// keeps its serial f32 accumulation chain however `pool` splits the
    /// rows, so the result is bit-identical at every pool width. After
    /// the call `scratch.cols` holds the batch's im2col matrix (the
    /// training forward keeps it for backward).
    fn forward(
        &self,
        wt: &[f32],
        b: &[f32],
        input: &Tensor,
        scratch: &mut ConvScratch,
        pool: &WorkPool,
    ) -> Tensor {
        assert_eq!(input.rank(), 4, "conv expects NCHW input");
        let s = input.shape();
        let (n, cin, h, w_in) = (s[0], s[1], s[2], s[3]);
        assert_eq!(cin, self.in_channels, "input channel mismatch");
        let (oh, ow) = self.output_hw(h, w_in);
        let red = self.reduction_len();
        let cout = self.out_channels;
        let rows = n * oh * ow;
        let chunk = row_chunk(rows, pool.threads());
        let x = input.as_slice();

        // im2col, fanned out over row ranges (disjoint `cols` regions),
        // re-zeroed for the padding positions `fill_cols` skips.
        let cols = &mut scratch.cols;
        cols.clear();
        cols.resize(rows * red, 0.0);
        let cols_view = SharedSliceMut::new(cols);
        pool.for_each_chunk(rows, chunk, |range| {
            // SAFETY: chunk row ranges are disjoint, so their `cols`
            // regions are too.
            let dst = unsafe { cols_view.slice(range.start * red..range.end * red) };
            self.fill_cols(x, cin, h, w_in, oh, ow, range, dst);
        });

        // out[row, co] = Σ_r cols[row, r] · wt[r, co] + b[co], fanned out
        // over the same row ranges (disjoint `flat` regions). Each task
        // keeps the serial per-row accumulation order, so the split is
        // f32-bit-exact.
        let cols = &scratch.cols;
        let flat = &mut scratch.flat;
        flat.clear();
        flat.resize(rows * cout, 0.0);
        let flat_view = SharedSliceMut::new(flat);
        pool.for_each_chunk(rows, chunk, |range| {
            // SAFETY: chunk row ranges are disjoint, so their `flat`
            // regions are too.
            let dst = unsafe { flat_view.slice(range.start * cout..range.end * cout) };
            self.matmul_rows_t(
                wt,
                b,
                &cols[range.start * red..range.end * red],
                range.len(),
                dst,
            );
        });

        // Reorder [n, oh, ow, cout] → NCHW, one image per task (disjoint
        // per-image output blocks).
        let flat = &scratch.flat;
        let mut y = Tensor::zeros(&[n, cout, oh, ow]);
        let y_view = SharedSliceMut::new(y.as_mut_slice());
        pool.run(n, |ni| {
            // SAFETY: image ni owns this output block alone.
            let img = unsafe { y_view.slice(ni * cout * oh * ow..(ni + 1) * cout * oh * ow) };
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (ni * oh + oy) * ow + ox;
                    for co in 0..cout {
                        img[(co * oh + oy) * ow + ox] = flat[row * cout + co];
                    }
                }
            }
        });
        y
    }

    /// Fills the im2col rows in `rows` (flat index `(ni·oh + oy)·ow + ox`)
    /// into `dst`, which spans exactly those rows (`rows.len() · red`,
    /// pre-zeroed).
    #[allow(clippy::too_many_arguments)]
    fn fill_cols(
        &self,
        x: &[f32],
        cin: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        rows: Range<usize>,
        dst: &mut [f32],
    ) {
        let red = self.reduction_len();
        let k = self.kernel;
        for (i, row) in rows.enumerate() {
            let (ni, pos) = (row / (oh * ow), row % (oh * ow));
            let (oy, ox) = (pos / ow, pos % ow);
            let out = &mut dst[i * red..(i + 1) * red];
            // Consecutive `kx` map to consecutive input columns, so each
            // (ci, ky) line is one contiguous copy of the un-clipped span
            // `kx0..kx1`; clipped positions keep the pre-zeroed padding.
            let x0 = ox * self.stride;
            let kx0 = self.padding.saturating_sub(x0);
            let kx1 = (w + self.padding).saturating_sub(x0).min(k);
            for ci in 0..cin {
                for ky in 0..k {
                    let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    if kx0 >= kx1 {
                        continue;
                    }
                    let src = ((ni * cin + ci) * h + iy as usize) * w + x0 + kx0 - self.padding;
                    let base = (ci * k + ky) * k;
                    out[base + kx0..base + kx1].copy_from_slice(&x[src..src + (kx1 - kx0)]);
                }
            }
        }
    }

    /// Computes `out[row, co] = Σ_r cols[row, r] · wt[r, co] + b[co]` for
    /// the rows in `rows`; `cols`/`dst` span exactly those rows and `wt`
    /// is the weight in **reduction-major** layout `[red, cout]`.
    ///
    /// The inner loop runs across output channels — contiguous SIMD lanes
    /// the compiler vectorizes, in register blocks of 16/8/4 channels for
    /// ILP. Lanes never mix: each channel is still one accumulator chain
    /// summing its channel in the exact original `r` order, so results
    /// are f32-bit-identical to the one-channel-at-a-time loop.
    fn matmul_rows_t(&self, wt: &[f32], b: &[f32], cols: &[f32], rows: usize, dst: &mut [f32]) {
        let red = self.reduction_len();
        let cout = self.out_channels;
        for row in 0..rows {
            let crow = &cols[row * red..(row + 1) * red];
            let orow = &mut dst[row * cout..(row + 1) * cout];
            let mut co = 0;
            while co + 16 <= cout {
                lane_block::<16>(wt, b, crow, cout, co, orow);
                co += 16;
            }
            if co + 8 <= cout {
                lane_block::<8>(wt, b, crow, cout, co, orow);
                co += 8;
            }
            if co + 4 <= cout {
                lane_block::<4>(wt, b, crow, cout, co, orow);
                co += 4;
            }
            while co < cout {
                let mut acc = b[co];
                for (r, &cv) in crow.iter().enumerate() {
                    acc += cv * wt[r * cout + co];
                }
                orow[co] = acc;
                co += 1;
            }
        }
    }
}

/// Reduction-major copy `[red, cout]` of a `[cout, red]` weight: adjacent
/// output channels land in adjacent lanes for `matmul_rows_t`. Pure data
/// movement.
fn reduction_major(w: &[f32], cout: usize, red: usize, wt: &mut Vec<f32>) {
    wt.clear();
    wt.resize(red * cout, 0.0);
    for co in 0..cout {
        for (r, &wv) in w[co * red..(co + 1) * red].iter().enumerate() {
            wt[r * cout + co] = wv;
        }
    }
}

/// `L` adjacent output channels of one im2col row as `L` independent
/// register accumulator chains (bias-seeded, summed in `r` order).
#[inline(always)]
fn lane_block<const L: usize>(
    wt: &[f32],
    b: &[f32],
    crow: &[f32],
    cout: usize,
    co: usize,
    orow: &mut [f32],
) {
    let mut acc = [0.0f32; L];
    acc.copy_from_slice(&b[co..co + L]);
    for (r, &cv) in crow.iter().enumerate() {
        let wrow = &wt[r * cout + co..r * cout + co + L];
        for (a, &wv) in acc.iter_mut().zip(wrow) {
            *a += cv * wv;
        }
    }
    orow[co..co + L].copy_from_slice(&acc);
}

/// Chunk size splitting `total` rows into ~2 blocks per pool executor.
fn row_chunk(total: usize, threads: usize) -> usize {
    if threads <= 1 {
        total.max(1)
    } else {
        total.div_ceil(threads * 2).max(1)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        reduction_major(
            self.weight.value.as_slice(),
            self.out_channels,
            self.reduction_len(),
            &mut self.wt,
        );
        // Training and eval forwards run serially; only the frozen
        // backbone's forward takes a pool.
        let y = self.shape().forward(
            &self.wt,
            self.bias.value.as_slice(),
            input,
            &mut self.scratch,
            WorkPool::serial_ref(),
        );
        if train {
            let s = input.shape();
            self.cached = Some(CachedForward {
                cols: std::mem::take(&mut self.scratch.cols),
                input_shape: [s[0], s[1], s[2], s[3]],
                out_hw: (y.shape()[2], y.shape()[3]),
            });
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cached = self
            .cached
            .as_ref()
            .expect("backward called before forward(train = true)");
        let [n, cin, h, w] = cached.input_shape;
        let (oh, ow) = cached.out_hw;
        let red = self.reduction_len();
        let cout = self.out_channels;
        let k = self.kernel;
        assert_eq!(grad_output.shape(), &[n, cout, oh, ow]);
        let go = grad_output.as_slice();
        let weight = self.weight.value.as_slice();
        let gw = self.weight.grad.as_mut_slice();
        let gb = self.bias.grad.as_mut_slice();

        // Per-position upstream in [row, cout] order.
        let rows = n * oh * ow;
        let mut go_rows = vec![0.0f32; rows * cout];
        for ni in 0..n {
            for co in 0..cout {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let row = (ni * oh + oy) * ow + ox;
                        go_rows[row * cout + co] = go[((ni * cout + co) * oh + oy) * ow + ox];
                    }
                }
            }
        }

        // dW[co, r] += Σ_rows cols[row, r]·go[row, co]; db[co] += Σ go.
        for row in 0..rows {
            let crow = &cached.cols[row * red..(row + 1) * red];
            let grow = &go_rows[row * cout..(row + 1) * cout];
            for (co, &g) in grow.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                gb[co] += g;
                let gwrow = &mut gw[co * red..(co + 1) * red];
                for (r, &cv) in crow.iter().enumerate() {
                    gwrow[r] += cv * g;
                }
            }
        }

        // dcols[row, r] = Σ_co go[row, co]·w[co, r], then col2im scatter.
        let mut gx = Tensor::zeros(&[n, cin, h, w]);
        let gxs = gx.as_mut_slice();
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (ni * oh + oy) * ow + ox;
                    let grow = &go_rows[row * cout..(row + 1) * cout];
                    for ci in 0..cin {
                        for ky in 0..k {
                            let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let r = (ci * k + ky) * k + kx;
                                let mut acc = 0.0;
                                for (co, &g) in grow.iter().enumerate() {
                                    acc += g * weight[co * red + r];
                                }
                                gxs[((ni * cin + ci) * h + iy as usize) * w + ix as usize] += acc;
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        conv.weight.value = Tensor::ones(&[1, 1, 1, 1]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let y = conv.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 0);
        conv.weight.value = Tensor::ones(&[1, 1, 3, 3]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice()[0], 9.0);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, 1);
        let y = conv.forward(&Tensor::ones(&[1, 2, 5, 5]), false);
        assert_eq!(y.shape(), &[1, 4, 5, 5]);
    }

    #[test]
    fn stride_two_halves_spatial_size() {
        let mut conv = Conv2d::new(1, 1, 3, 2, 1, 2);
        let y = conv.forward(&Tensor::ones(&[1, 1, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn backward_input_grad_matches_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 11);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| ((i * 7) % 5) as f32 * 0.3 - 0.5);
        let y = conv.forward(&x, true);
        let upstream = Tensor::from_fn(y.shape(), |i| ((i % 3) as f32 - 1.0) * 0.5);
        let gx = conv.backward(&upstream);

        let eps = 1e-2;
        // Spot-check a handful of positions (full check is slow).
        for idx in [0usize, 5, 13, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp: f32 = conv
                .forward(&xp, false)
                .as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv
                .forward(&xm, false)
                .as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gx.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: numeric {numeric} analytic {}",
                gx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_weight_grad_matches_finite_differences() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, 4);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i as f32 * 0.13).sin());
        let y = conv.forward(&x, true);
        let upstream = Tensor::ones(y.shape());
        conv.backward(&upstream);
        let analytic = conv.weight.grad.clone();

        let eps = 1e-2;
        for idx in [0usize, 4, 8, 12, 17] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp: f32 = conv.forward(&x, false).sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm: f32 = conv.forward(&x, false).sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}"
            );
        }
    }

    #[test]
    fn weight_matrix_round_trip_is_exact() {
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, 9);
        let m = conv.weight_matrix();
        assert_eq!(m.shape(), (27, 5));
        let orig = conv.weight.value.clone();
        conv.set_weight_matrix(&m);
        assert_eq!(conv.weight.value, orig);
    }

    #[test]
    fn conv1x1_equals_linear_per_pixel() {
        // A 1×1 conv is a per-pixel linear map — cross-check the two paths.
        let mut conv = Conv2d::new(3, 2, 1, 1, 0, 21);
        let x = Tensor::from_fn(&[1, 3, 2, 2], |i| i as f32 * 0.1);
        let y = conv.forward(&x, false);
        let wm = conv.weight_matrix(); // [3, 2]
        for py in 0..2 {
            for px in 0..2 {
                for co in 0..2 {
                    let mut expect = conv.bias.value.as_slice()[co];
                    for ci in 0..3 {
                        expect += x.at(&[0, ci, py, px]) * wm[(ci, co)];
                    }
                    assert!((y.at(&[0, co, py, px]) - expect).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input channel mismatch")]
    fn rejects_wrong_channel_count() {
        let mut conv = Conv2d::new(3, 2, 3, 1, 1, 0);
        let _ = conv.forward(&Tensor::ones(&[1, 4, 4, 4]), false);
    }
}
