//! Batch normalization over NCHW tensors.

use super::{Layer, Param};
use crate::tensor::Tensor;

/// Per-channel batch normalization with learnable affine parameters and
/// running statistics for inference.
///
/// In training mode the layer normalizes with batch moments and updates the
/// running moments with `momentum`; in inference mode (or when frozen inside
/// the backbone) it uses the running moments, which is how the MRAM-mapped
/// backbone evaluates.
///
/// # Example
///
/// ```
/// use pim_nn::layers::{BatchNorm2d, Layer};
/// use pim_nn::tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(3);
/// let x = Tensor::from_fn(&[4, 3, 2, 2], |i| i as f32);
/// let y = bn.forward(&x, true);
/// assert_eq!(y.shape(), x.shape());
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
    cached: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    normalized: Tensor,
    batch_std: Vec<f32>,
    input_shape: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a BN layer for `channels` feature maps (γ = 1, β = 0,
    /// momentum 0.1, ε = 1e-5).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be nonzero");
        Self {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cached: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Running mean per channel (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance per channel (inference statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Freezes the inference constants for `&self` evaluation.
    pub(crate) fn freeze(&self) -> FrozenBn {
        FrozenBn {
            mean: self.running_mean.clone(),
            std: std_of(&self.running_var, self.eps),
            gamma: self.gamma.value.as_slice().to_vec(),
            beta: self.beta.value.as_slice().to_vec(),
        }
    }
}

/// A BatchNorm frozen for inference: running mean, `sqrt(var + ε)`, γ
/// and β, computed once.
#[derive(Debug, Clone)]
pub(crate) struct FrozenBn {
    mean: Vec<f32>,
    std: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

impl FrozenBn {
    /// The inference forward, bit-identical to `Layer::forward(_, false)`.
    pub(crate) fn forward(&self, input: &Tensor) -> Tensor {
        normalize(input, &self.mean, &self.std, &self.gamma, &self.beta, None)
    }
}

fn std_of(var: &[f32], eps: f32) -> Vec<f32> {
    var.iter().map(|&v| (v + eps).sqrt()).collect()
}

/// `y = γ·x̂ + β` with `x̂ = (x − mean) / std` per channel of an NCHW
/// tensor; `x̂` is also stored into `normalized` when given (the training
/// forward caches it for backward).
fn normalize(
    input: &Tensor,
    mean: &[f32],
    std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    mut normalized: Option<&mut [f32]>,
) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "batchnorm expects NCHW input");
    let (n, c, hw) = (s[0], s[1], s[2] * s[3]);
    assert_eq!(c, mean.len(), "channel mismatch");
    let x = input.as_slice();
    let mut y = Tensor::zeros(s);
    let ys = y.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * hw;
            for i in base..base + hw {
                let nv = (x[i] - mean[ci]) / std[ci];
                if let Some(ns) = normalized.as_deref_mut() {
                    ns[i] = nv;
                }
                ys[i] = gamma[ci] * nv + beta[ci];
            }
        }
    }
    y
}

impl Layer for BatchNorm2d {
    #[allow(clippy::needless_range_loop)] // ci addresses several arrays
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "batchnorm expects NCHW input");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.channels, "channel mismatch");
        let count = (n * h * w) as f32;
        let x = input.as_slice();

        if !train {
            let std = std_of(&self.running_var, self.eps);
            return normalize(
                input,
                &self.running_mean,
                &std,
                self.gamma.value.as_slice(),
                self.beta.value.as_slice(),
                None,
            );
        }
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ci in 0..c {
            let mut acc = 0.0;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                acc += x[base..base + h * w].iter().sum::<f32>();
            }
            mean[ci] = acc / count;
        }
        for ci in 0..c {
            let mut acc = 0.0;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                acc += x[base..base + h * w]
                    .iter()
                    .map(|&v| (v - mean[ci]).powi(2))
                    .sum::<f32>();
            }
            var[ci] = acc / count;
        }
        for ci in 0..c {
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
        }
        let std = std_of(&var, self.eps);
        let mut normalized = Tensor::zeros(s);
        let y = normalize(
            input,
            &mean,
            &std,
            self.gamma.value.as_slice(),
            self.beta.value.as_slice(),
            Some(normalized.as_mut_slice()),
        );
        self.cached = Some(BnCache {
            normalized,
            batch_std: std,
            input_shape: [n, c, h, w],
        });
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cached
            .as_ref()
            .expect("backward called before forward(train = true)");
        let [n, c, h, w] = cache.input_shape;
        let count = (n * h * w) as f32;
        let go = grad_output.as_slice();
        let xn = cache.normalized.as_slice();
        let gamma = self.gamma.value.as_slice();
        let ggamma = self.gamma.grad.as_mut_slice();
        let gbeta = self.beta.grad.as_mut_slice();

        // Per-channel reductions.
        let mut sum_go = vec![0.0f32; c];
        let mut sum_go_xn = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    sum_go[ci] += go[i];
                    sum_go_xn[ci] += go[i] * xn[i];
                }
            }
        }
        for ci in 0..c {
            ggamma[ci] += sum_go_xn[ci];
            gbeta[ci] += sum_go[ci];
        }

        // Standard BN input gradient:
        // dx = γ/σ · (dy − mean(dy) − x̂·mean(dy·x̂))
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        let gxs = gx.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let scale = gamma[ci] / cache.batch_std[ci];
                let m_go = sum_go[ci] / count;
                let m_go_xn = sum_go_xn[ci] / count;
                for i in base..base + h * w {
                    gxs[i] = scale * (go[i] - m_go - xn[i] * m_go_xn);
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_forward_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_fn(&[8, 2, 2, 2], |i| (i % 13) as f32 - 6.0);
        let y = bn.forward(&x, true);
        // Per-channel mean ≈ 0, std ≈ 1 after normalization (γ=1, β=0).
        for ci in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..8 {
                for py in 0..2 {
                    for px in 0..2 {
                        vals.push(y.at(&[ni, ci, py, px]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Train several batches so running stats converge toward the data.
        let x = Tensor::from_fn(&[16, 1, 2, 2], |i| 10.0 + (i % 7) as f32);
        for _ in 0..50 {
            bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        // With converged stats, inference output should also be normalized.
        assert!(y.mean().abs() < 0.1, "mean {}", y.mean());
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_fn(&[2, 2, 2, 2], |i| (i as f32 * 0.37).sin() * 2.0);
        let upstream = Tensor::from_fn(&[2, 2, 2, 2], |i| ((i % 5) as f32 - 2.0) * 0.3);

        bn.forward(&x, true);
        let gx = bn.backward(&upstream);

        let eps = 1e-2;
        for idx in [0usize, 3, 7, 11, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            // Use train-mode forward so batch stats are recomputed, but on a
            // fresh layer so running stats don't drift into the check.
            let mut bn_p = BatchNorm2d::new(2);
            let mut bn_m = BatchNorm2d::new(2);
            let lp: f32 = bn_p
                .forward(&xp, true)
                .as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = bn_m
                .forward(&xm, true)
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
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_fn(&[2, 1, 2, 2], |i| i as f32);
        bn.forward(&x, true);
        bn.backward(&Tensor::ones(&[2, 1, 2, 2]));
        // dβ = Σ dy = 8.
        assert!((bn.beta.grad.as_slice()[0] - 8.0).abs() < 1e-5);
        // dγ = Σ dy·x̂ = Σ x̂ ≈ 0 for a normalized batch.
        assert!(bn.gamma.grad.as_slice()[0].abs() < 1e-4);
    }

    #[test]
    fn param_count_is_two_per_channel() {
        let mut bn = BatchNorm2d::new(7);
        assert_eq!(bn.param_count(), 14);
    }
}
