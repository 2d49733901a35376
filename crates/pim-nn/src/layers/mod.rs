//! Layer zoo with explicit forward / backward passes.
//!
//! Every layer implements [`Layer`]: `forward` caches whatever the backward
//! pass needs, `backward` consumes the output-side error and returns the
//! input-side error while accumulating parameter gradients — exactly the
//! paper's backpropagation set (eqs. 1–3):
//!
//! * error propagation `e^{l−1} = (W^l)ᵀ · e^l`,
//! * gradient `g^l = a^l · (e^l)ᵀ`,
//! * weight update `W ← W − η·g` (applied by [`crate::train::Sgd`]).
//!
//! Parameters are exposed through the visitor [`Layer::visit_params`], which
//! lets the optimizer walk arbitrarily nested models without any downcasts,
//! and lets the backbone be frozen by setting [`Param::frozen`].

mod activation;
mod conv;
mod linear;
mod norm;
mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub(crate) use conv::{ConvScratch, FrozenConv};
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub(crate) use norm::FrozenBn;
pub(crate) use pool::global_avg_pool;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};

use crate::tensor::Tensor;

/// A trainable parameter: value, accumulated gradient, freeze flag.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Frozen parameters are skipped by optimizers (the paper freezes the
    /// whole backbone in MRAM).
    pub frozen: bool,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            value,
            grad,
            frozen: false,
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A differentiable module.
///
/// `forward(_, train)` must cache activations needed by `backward` when
/// `train` is `true`; with `train = false` layers may skip caching and use
/// inference statistics (e.g. [`BatchNorm2d`] running moments).
pub trait Layer {
    /// Computes the layer output, caching for backward when `train`.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates the error: accumulates parameter gradients and returns
    /// the gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a `forward(_, true)`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits every parameter (mutably) in a stable order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-parameter state buffer (e.g. BatchNorm running
    /// statistics) in a stable order. Buffers are not touched by
    /// optimizers but must be captured by checkpoints.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Freezes or unfreezes every parameter of the layer.
    fn set_frozen(&mut self, frozen: bool) {
        self.visit_params(&mut |p| p.frozen = frozen);
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.value.len());
        count
    }
}

/// A straight-line stack of layers.
///
/// # Example
///
/// ```
/// use pim_nn::layers::{Layer, Linear, Relu, Sequential};
/// use pim_nn::tensor::Tensor;
///
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, 1));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 2, 2));
/// let y = net.forward(&Tensor::ones(&[3, 4]), true);
/// assert_eq!(y.shape(), &[3, 2]);
/// let gx = net.backward(&Tensor::ones(&[3, 2]));
/// assert_eq!(gx.shape(), &[3, 4]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }
}

/// Softmax cross-entropy loss over logits `[N, C]`.
///
/// Returns `(mean loss, dlogits)` where `dlogits = (softmax − onehot) / N`,
/// the canonical fused gradient.
///
/// # Panics
///
/// Panics if `logits` is not rank 2, `labels.len()` differs from the batch
/// size, or any label is out of range.
///
/// # Example
///
/// ```
/// use pim_nn::layers::softmax_cross_entropy;
/// use pim_nn::tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![1, 3], vec![2.0, 0.0, -2.0])?;
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 0.2); // confident and correct ⇒ small loss
/// assert_eq!(grad.shape(), &[1, 3]);
/// # Ok::<(), pim_nn::tensor::TensorError>(())
/// ```
#[allow(clippy::needless_range_loop)] // i/j address logits, labels and grad
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), n, "one label per batch item");
    let mut grad = Tensor::zeros(&[n, c]);
    let mut loss = 0.0f64;
    for i in 0..n {
        let row = &logits.as_slice()[i * c..(i + 1) * c];
        let label = labels[i];
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        for j in 0..c {
            let p = exps[j] / denom;
            grad.as_mut_slice()[i * c + j] = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
        loss -= ((exps[label] / denom).max(1e-12) as f64).ln();
    }
    ((loss / n as f64) as f32, grad)
}

/// Argmax prediction per batch row of logits `[N, C]`.
///
/// # Panics
///
/// Panics if `logits` is not rank 2 or has zero classes.
pub fn predictions(logits: &Tensor) -> Vec<usize> {
    assert_eq!(logits.rank(), 2, "logits must be [batch, classes]");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    assert!(c > 0, "need at least one class");
    (0..n)
        .map(|i| {
            let row = &logits.as_slice()[i * c..(i + 1) * c];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN logits"))
                .map(|(j, _)| j)
                .expect("non-empty row")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut net = Sequential::new();
        net.push(Linear::new(3, 5, 1));
        net.push(Relu::new());
        net.push(Linear::new(5, 2, 2));
        assert_eq!(net.len(), 3);
        let x = Tensor::ones(&[4, 3]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[4, 2]);
        let gx = net.backward(&Tensor::ones(&[4, 2]));
        assert_eq!(gx.shape(), &[4, 3]);
        // Both Linears collected gradients.
        let mut grads = 0;
        net.visit_params(&mut |p| {
            if p.grad.max_abs() > 0.0 {
                grads += 1;
            }
        });
        assert!(grads >= 2);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, 3));
        let x = Tensor::ones(&[1, 2]);
        net.forward(&x, true);
        net.backward(&Tensor::ones(&[1, 2]));
        net.zero_grad();
        net.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }

    #[test]
    fn set_frozen_marks_all_params() {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, 3));
        net.set_frozen(true);
        net.visit_params(&mut |p| assert!(p.frozen));
    }

    #[test]
    fn param_count_sums_scalars() {
        let mut net = Sequential::new();
        net.push(Linear::new(4, 3, 0)); // 4*3 + 3 = 15
        assert_eq!(net.param_count(), 15);
    }

    #[test]
    fn cross_entropy_is_minimal_on_correct_confident_logits() {
        let good = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]).unwrap();
        let bad = Tensor::from_vec(vec![1, 2], vec![-10.0, 10.0]).unwrap();
        let (l_good, _) = softmax_cross_entropy(&good, &[0]);
        let (l_bad, _) = softmax_cross_entropy(&bad, &[0]);
        assert!(l_good < 1e-3);
        assert!(l_bad > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 0.0, 0.0, 0.0]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[2, 0]);
        for i in 0..2 {
            let row_sum: f32 = grad.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![1, 3], vec![0.3, -0.7, 1.1]).unwrap();
        let labels = [1usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for j in 0..3 {
            let mut plus = logits.clone();
            plus.as_mut_slice()[j] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[j] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.as_slice()[j]).abs() < 1e-3,
                "dim {j}: numeric {numeric} vs analytic {}",
                grad.as_slice()[j]
            );
        }
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn cross_entropy_rejects_bad_label() {
        let logits = Tensor::zeros(&[1, 3]);
        let _ = softmax_cross_entropy(&logits, &[5]);
    }

    #[test]
    fn predictions_take_argmax() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.0, 2.0, -1.0, 1.5]).unwrap();
        assert_eq!(predictions(&logits), vec![1, 0]);
    }
}
