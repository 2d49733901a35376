//! The fixed main-branch backbone.
//!
//! A compact ResNet-style CNN: stem convolution, then stages of residual
//! blocks separated by stride-2 transitions, finishing in global average
//! pooling. In the hybrid system the backbone is **frozen** and mapped to
//! the MRAM PEs; the per-stage activations ("taps") are handed to the
//! Rep-Net path.

use crate::layers::{
    global_avg_pool, BatchNorm2d, Conv2d, ConvScratch, FrozenBn, FrozenConv, GlobalAvgPool, Layer,
    Param, Relu,
};
use crate::tensor::Tensor;
use pim_par::WorkPool;
use pim_sparse::prune::prune_magnitude;
use pim_sparse::NmPattern;

/// Conv → BatchNorm → ReLU, the backbone's basic unit.
#[derive(Debug, Clone)]
pub struct ConvBnRelu {
    conv: Conv2d,
    bn: BatchNorm2d,
    relu: Relu,
}

impl ConvBnRelu {
    /// Creates the unit.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        Self {
            conv: Conv2d::new(in_channels, out_channels, kernel, stride, padding, seed),
            bn: BatchNorm2d::new(out_channels),
            relu: Relu::new(),
        }
    }

    /// The wrapped convolution (for pruning / PE export).
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// Mutable access to the wrapped convolution.
    pub fn conv_mut(&mut self) -> &mut Conv2d {
        &mut self.conv
    }

    fn freeze(&self) -> FrozenCbr {
        FrozenCbr {
            conv: self.conv.freeze(),
            bn: self.bn.freeze(),
        }
    }
}

impl Layer for ConvBnRelu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let x = self.conv.forward(input, train);
        let x = self.bn.forward(&x, train);
        self.relu.forward(&x, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.relu.backward(grad_output);
        let g = self.bn.backward(&g);
        self.conv.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
        self.bn.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.bn.visit_buffers(f);
    }
}

/// Basic residual block: `y = relu(bn2(conv2(cbr1(x))) + x)`.
///
/// Channel count is preserved, so the skip is the identity.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    cbr1: ConvBnRelu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu: Relu,
}

impl ResidualBlock {
    /// Creates a block over `channels` feature maps.
    pub fn new(channels: usize, seed: u64) -> Self {
        Self {
            cbr1: ConvBnRelu::new(channels, channels, 3, 1, 1, seed),
            conv2: Conv2d::new(channels, channels, 3, 1, 1, seed.wrapping_add(1)),
            bn2: BatchNorm2d::new(channels),
            relu: Relu::new(),
        }
    }

    /// The two convolutions of the block (for pruning / PE export).
    pub fn convs(&self) -> [&Conv2d; 2] {
        [self.cbr1.conv(), &self.conv2]
    }

    /// Mutable access to the two convolutions.
    pub fn convs_mut(&mut self) -> [&mut Conv2d; 2] {
        [self.cbr1.conv_mut(), &mut self.conv2]
    }

    fn freeze(&self) -> FrozenBlock {
        FrozenBlock {
            cbr1: self.cbr1.freeze(),
            conv2: self.conv2.freeze(),
            bn2: self.bn2.freeze(),
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let h = self.cbr1.forward(input, train);
        let h = self.conv2.forward(&h, train);
        let h = self.bn2.forward(&h, train);
        let s = h.add(input).expect("residual shapes match");
        self.relu.forward(&s, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.relu.backward(grad_output);
        // The sum node fans the gradient into both the path and the skip.
        let g_path = self.bn2.backward(&g);
        let g_path = self.conv2.backward(&g_path);
        let g_path = self.cbr1.backward(&g_path);
        g_path.add(&g).expect("residual shapes match")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.cbr1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.cbr1.visit_buffers(f);
        self.bn2.visit_buffers(f);
    }
}

#[derive(Debug, Clone)]
struct Stage {
    /// Stride-2 width-changing transition (absent for the first stage).
    transition: Option<ConvBnRelu>,
    blocks: Vec<ResidualBlock>,
}

/// Shape of the backbone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackboneConfig {
    /// Input image channels.
    pub in_channels: usize,
    /// Square input edge length.
    pub image_size: usize,
    /// Channel width of each stage; stage `i > 0` starts with a stride-2
    /// transition, halving the spatial size.
    pub stage_widths: Vec<usize>,
    /// Residual blocks per stage.
    pub blocks_per_stage: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for BackboneConfig {
    /// The configuration used by the reproduction's experiments: 3-channel
    /// 16×16 inputs, three stages (16/32/64 channels), two blocks each.
    fn default() -> Self {
        Self {
            in_channels: 3,
            image_size: 16,
            stage_widths: vec![16, 32, 64],
            blocks_per_stage: 2,
            seed: 0,
        }
    }
}

impl BackboneConfig {
    /// A tiny configuration for fast tests.
    pub fn tiny() -> Self {
        Self {
            in_channels: 1,
            image_size: 8,
            stage_widths: vec![4, 8],
            blocks_per_stage: 1,
            seed: 0,
        }
    }

    /// Spatial edge length of the tap after stage `i`.
    pub fn tap_size(&self, stage: usize) -> usize {
        self.image_size >> stage
    }

    /// Feature width produced by the final global pool.
    pub fn feature_width(&self) -> usize {
        *self.stage_widths.last().expect("at least one stage")
    }
}

/// Output of [`Backbone::forward_with_taps`].
pub struct BackboneOutput {
    /// Per-stage activations (NCHW), one per stage in order.
    pub taps: Vec<Tensor>,
    /// Globally pooled features `[N, C_last]`.
    pub features: Tensor,
}

/// The fixed main branch.
///
/// # Example
///
/// ```
/// use pim_nn::models::{Backbone, BackboneConfig};
/// use pim_nn::tensor::Tensor;
///
/// let mut bb = Backbone::new(BackboneConfig::tiny());
/// let out = bb.forward_with_taps(&Tensor::ones(&[2, 1, 8, 8]), false);
/// assert_eq!(out.taps.len(), 2);
/// assert_eq!(out.features.shape(), &[2, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Backbone {
    config: BackboneConfig,
    stem: ConvBnRelu,
    stages: Vec<Stage>,
    gap: GlobalAvgPool,
}

impl Backbone {
    /// Builds the backbone from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no stages or the image does not
    /// survive the stride-2 transitions.
    pub fn new(config: BackboneConfig) -> Self {
        assert!(!config.stage_widths.is_empty(), "need at least one stage");
        assert!(
            config.image_size >> (config.stage_widths.len() - 1) >= 1,
            "image too small for {} stages",
            config.stage_widths.len()
        );
        let mut seed = config.seed;
        let mut next_seed = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        let stem = ConvBnRelu::new(
            config.in_channels,
            config.stage_widths[0],
            3,
            1,
            1,
            next_seed(),
        );
        let mut stages = Vec::new();
        for (i, &width) in config.stage_widths.iter().enumerate() {
            let transition = if i == 0 {
                None
            } else {
                Some(ConvBnRelu::new(
                    config.stage_widths[i - 1],
                    width,
                    3,
                    2,
                    1,
                    next_seed(),
                ))
            };
            let blocks = (0..config.blocks_per_stage)
                .map(|_| ResidualBlock::new(width, next_seed()))
                .collect();
            stages.push(Stage { transition, blocks });
        }
        Self {
            config,
            stem,
            stages,
            gap: GlobalAvgPool::new(),
        }
    }

    /// The configuration this backbone was built from.
    pub fn config(&self) -> &BackboneConfig {
        &self.config
    }

    /// Number of stages (and taps).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Runs the backbone, returning both the per-stage taps and the pooled
    /// features. With `train = false` nothing is cached (the mode used
    /// when the backbone is frozen under the Rep-Net path).
    pub fn forward_with_taps(&mut self, input: &Tensor, train: bool) -> BackboneOutput {
        let mut x = self.stem.forward(input, train);
        let mut taps = Vec::with_capacity(self.stages.len());
        for stage in &mut self.stages {
            if let Some(t) = &mut stage.transition {
                x = t.forward(&x, train);
            }
            for block in &mut stage.blocks {
                x = block.forward(&x, train);
            }
            taps.push(x.clone());
        }
        let features = self.gap.forward(&x, train);
        BackboneOutput { taps, features }
    }

    /// Freezes the current weights into a [`FrozenBackbone`] for `&self`
    /// inference.
    pub fn freeze(&self) -> FrozenBackbone {
        FrozenBackbone {
            config: self.config.clone(),
            stem: self.stem.freeze(),
            stages: self
                .stages
                .iter()
                .map(|stage| FrozenStage {
                    transition: stage.transition.as_ref().map(ConvBnRelu::freeze),
                    blocks: stage.blocks.iter().map(ResidualBlock::freeze).collect(),
                })
                .collect(),
        }
    }

    /// Magnitude-prunes every convolution to `pattern` (used for the
    /// `backbone@upstream` sparsity column; no fine-tuning follows, exactly
    /// as in the paper's PTQ+prune assessment).
    pub fn apply_pattern(&mut self, pattern: NmPattern) {
        let prune_conv = |conv: &mut Conv2d| {
            let w = conv.weight_matrix();
            let mask = prune_magnitude(&w, pattern).expect("non-empty conv weight");
            let masked = mask.apply(&w).expect("mask fits");
            conv.set_weight_matrix(&masked);
        };
        prune_conv(self.stem.conv_mut());
        for stage in &mut self.stages {
            if let Some(t) = &mut stage.transition {
                prune_conv(t.conv_mut());
            }
            for block in &mut stage.blocks {
                for conv in block.convs_mut() {
                    prune_conv(conv);
                }
            }
        }
    }

    /// Re-estimates every BatchNorm running statistic by streaming
    /// `batches` mini-batches of `data` through the network in training
    /// mode (weights untouched). Standard practice after post-training
    /// pruning or quantization: compressing convolution weights shifts the
    /// activation statistics the frozen BN layers were calibrated for, and
    /// without this pass the pruned backbone's features collapse.
    pub fn recalibrate_bn(
        &mut self,
        data: &crate::train::Dataset,
        batch_size: usize,
        batches: usize,
    ) {
        let n = data.len();
        if n == 0 {
            return;
        }
        let mut start = 0usize;
        for _ in 0..batches.max(1) {
            let indices: Vec<usize> = (0..batch_size.max(2)).map(|i| (start + i) % n).collect();
            start = (start + batch_size.max(2)) % n;
            let (x, _) = data.batch(&indices);
            let _ = self.forward_with_taps(&x, true);
        }
    }

    /// Fake-quantizes every weight to INT8 (per-tensor symmetric PTQ).
    pub fn quantize_weights_int8(&mut self) {
        self.visit_params(&mut |p: &mut Param| {
            p.value = crate::quant::fake_quant_auto(&p.value);
        });
    }

    /// Visits every convolution with its reduction-first weight matrix
    /// (used by the architecture mapper to size the MRAM deployment).
    pub fn visit_conv_weights(&self, mut f: impl FnMut(pim_sparse::Matrix<f32>)) {
        f(self.stem.conv().weight_matrix());
        for stage in &self.stages {
            if let Some(t) = &stage.transition {
                f(t.conv().weight_matrix());
            }
            for block in &stage.blocks {
                for conv in block.convs() {
                    f(conv.weight_matrix());
                }
            }
        }
    }
}

/// The backbone frozen for inference: each convolution's reduction-major
/// weight copy and each BatchNorm's inference constants are built once
/// (by [`Backbone::freeze`]), so [`forward`](Self::forward) runs on
/// `&self` with caller-owned scratch. One frozen backbone can sit behind
/// an `Arc` and serve any number of threads — the software analogue of
/// the write-protected MRAM the backbone lives in. Its outputs are
/// bit-identical to [`Backbone::forward_with_taps`] in eval mode: both
/// run the same convolution, normalization and pooling kernels.
#[derive(Debug, Clone)]
pub struct FrozenBackbone {
    config: BackboneConfig,
    stem: FrozenCbr,
    stages: Vec<FrozenStage>,
}

#[derive(Debug, Clone)]
struct FrozenCbr {
    conv: FrozenConv,
    bn: FrozenBn,
}

impl FrozenCbr {
    fn forward(&self, input: &Tensor, scratch: &mut ConvScratch, pool: &WorkPool) -> Tensor {
        let mut y = self.bn.forward(&self.conv.forward(input, scratch, pool));
        relu_in_place(&mut y);
        y
    }
}

#[derive(Debug, Clone)]
struct FrozenBlock {
    cbr1: FrozenCbr,
    conv2: FrozenConv,
    bn2: FrozenBn,
}

impl FrozenBlock {
    fn forward(&self, input: &Tensor, scratch: &mut ConvScratch, pool: &WorkPool) -> Tensor {
        let h = self.cbr1.forward(input, scratch, pool);
        let mut h = self.bn2.forward(&self.conv2.forward(&h, scratch, pool));
        for (a, &b) in h.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *a = (*a + b).max(0.0);
        }
        h
    }
}

#[derive(Debug, Clone)]
struct FrozenStage {
    transition: Option<FrozenCbr>,
    blocks: Vec<FrozenBlock>,
}

fn relu_in_place(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = v.max(0.0);
    }
}

/// Caller-owned working memory of [`FrozenBackbone::forward`]: the
/// convolutions' im2col and output arenas. Buffers only grow, so after
/// the first forward at a given batch size no arena is reallocated.
#[derive(Debug, Default)]
pub struct BackboneScratch {
    conv: ConvScratch,
}

impl FrozenBackbone {
    /// The configuration the backbone was built from.
    pub fn config(&self) -> &BackboneConfig {
        &self.config
    }

    /// Runs the backbone in eval mode, returning the per-stage taps and
    /// the pooled features. The convolutions' rows fan out over `pool`,
    /// bit-identically to the serial path.
    pub fn forward(
        &self,
        input: &Tensor,
        scratch: &mut BackboneScratch,
        pool: &WorkPool,
    ) -> BackboneOutput {
        let conv = &mut scratch.conv;
        let mut x = self.stem.forward(input, conv, pool);
        let mut taps = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            if let Some(t) = &stage.transition {
                x = t.forward(&x, conv, pool);
            }
            for block in &stage.blocks {
                x = block.forward(&x, conv, pool);
            }
            taps.push(x.clone());
        }
        let features = global_avg_pool(&x);
        BackboneOutput { taps, features }
    }
}

impl Layer for Backbone {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.forward_with_taps(input, train).features
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = self.gap.backward(grad_output);
        for stage in self.stages.iter_mut().rev() {
            for block in stage.blocks.iter_mut().rev() {
                g = block.backward(&g);
            }
            if let Some(t) = &mut stage.transition {
                g = t.backward(&g);
            }
        }
        self.stem.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params(f);
        for stage in &mut self.stages {
            if let Some(t) = &mut stage.transition {
                t.visit_params(f);
            }
            for block in &mut stage.blocks {
                block.visit_params(f);
            }
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.stem.visit_buffers(f);
        for stage in &mut self.stages {
            if let Some(t) = &mut stage.transition {
                t.visit_buffers(f);
            }
            for block in &mut stage.blocks {
                block.visit_buffers(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_shapes_follow_stage_schedule() {
        let mut bb = Backbone::new(BackboneConfig {
            in_channels: 3,
            image_size: 16,
            stage_widths: vec![8, 16, 32],
            blocks_per_stage: 1,
            seed: 3,
        });
        let out = bb.forward_with_taps(&Tensor::ones(&[2, 3, 16, 16]), false);
        assert_eq!(out.taps[0].shape(), &[2, 8, 16, 16]);
        assert_eq!(out.taps[1].shape(), &[2, 16, 8, 8]);
        assert_eq!(out.taps[2].shape(), &[2, 32, 4, 4]);
        assert_eq!(out.features.shape(), &[2, 32]);
    }

    #[test]
    fn frozen_forward_is_bit_exact_with_the_eval_forward() {
        let mut bb = Backbone::new(BackboneConfig {
            in_channels: 3,
            image_size: 8,
            stage_widths: vec![4, 8, 8],
            blocks_per_stage: 2,
            seed: 3,
        });
        // Non-trivial running statistics, as after pretraining.
        let warm = Tensor::from_fn(&[4, 3, 8, 8], |i| (i as f32 * 0.11).sin() * 2.0 + 0.3);
        let _ = bb.forward_with_taps(&warm, true);
        let x = Tensor::from_fn(&[3, 3, 8, 8], |i| (i as f32 * 0.07).cos());
        let want = bb.forward_with_taps(&x, false);
        let frozen = bb.freeze();
        let mut scratch = BackboneScratch::default();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 3] {
            let pool = WorkPool::with_forced_threads(threads);
            // Twice: the second pass reuses warmed scratch.
            for _ in 0..2 {
                let got = frozen.forward(&x, &mut scratch, &pool);
                assert_eq!(got.taps.len(), want.taps.len());
                for (g, w) in got.taps.iter().zip(&want.taps) {
                    assert_eq!(bits(g), bits(w), "tap diverged at {threads} threads");
                }
                assert_eq!(bits(&got.features), bits(&want.features));
            }
        }
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut bb = Backbone::new(BackboneConfig::tiny());
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i as f32 * 0.07).sin());
        let y = Layer::forward(&mut bb, &x, true);
        let gx = Layer::backward(&mut bb, &Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.max_abs() > 0.0);
    }

    #[test]
    fn residual_block_gradient_flows_through_skip() {
        let mut block = ResidualBlock::new(4, 7);
        let x = Tensor::from_fn(&[1, 4, 4, 4], |i| (i as f32 * 0.19).cos());
        block.forward(&x, true);
        let gx = block.backward(&Tensor::ones(&[1, 4, 4, 4]));
        // Even if the conv path vanished, the skip delivers gradient ≈ the
        // ReLU-gated upstream; the total must be nonzero.
        assert!(gx.max_abs() > 0.0);
    }

    #[test]
    fn pruning_makes_conv_weights_nm_sparse() {
        let mut bb = Backbone::new(BackboneConfig::tiny());
        bb.apply_pattern(NmPattern::one_of_four());
        let pattern = NmPattern::one_of_four();
        bb.visit_conv_weights(|w| {
            let nonzero = w.as_slice().iter().filter(|&&v| v != 0.0).count();
            // Bound accounts for partial tail groups (ceil(rows/m)·n slots).
            let bound = pattern.groups_for(w.rows()) * pattern.n() * w.cols();
            assert!(
                nonzero <= bound,
                "density too high: {nonzero}/{} (bound {bound})",
                w.len()
            );
        });
    }

    #[test]
    fn quantization_snaps_weights_to_grid() {
        let mut bb = Backbone::new(BackboneConfig::tiny());
        bb.quantize_weights_int8();
        // Every weight must now be one of ≤255 distinct values per tensor.
        let mut checked = false;
        Layer::visit_params(&mut bb, &mut |p: &mut Param| {
            if p.value.len() > 64 {
                let mut vals: Vec<i64> = p
                    .value
                    .as_slice()
                    .iter()
                    .map(|&v| (v * 1e6) as i64)
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                assert!(vals.len() <= 255, "{} distinct values", vals.len());
                checked = true;
            }
        });
        assert!(checked);
    }

    #[test]
    fn param_count_scales_with_width() {
        let mut small = Backbone::new(BackboneConfig::tiny());
        let mut big = Backbone::new(BackboneConfig::default());
        assert!(Layer::param_count(&mut big) > 10 * Layer::param_count(&mut small));
    }

    #[test]
    #[should_panic(expected = "image too small")]
    fn rejects_too_many_stages() {
        let _ = Backbone::new(BackboneConfig {
            in_channels: 1,
            image_size: 4,
            stage_widths: vec![4, 8, 16, 32],
            blocks_per_stage: 1,
            seed: 0,
        });
    }
}
