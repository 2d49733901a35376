//! SGD optimizer, datasets, and the training / evaluation loops.

use crate::layers::{predictions, softmax_cross_entropy, Layer, Param};
use crate::models::RepNet;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Anything that maps a batch of inputs to logits and can backpropagate a
/// logits-side error. [`Layer`]s get this for free; composite models
/// (e.g. Rep-Net) implement it directly.
pub trait Model {
    /// Computes logits for a batch.
    fn predict(&mut self, input: &Tensor, train: bool) -> Tensor;
    /// Backpropagates the logits-side gradient, accumulating parameter
    /// gradients.
    fn backprop(&mut self, grad_logits: &Tensor);
    /// Visits every parameter in a stable order.
    fn params(&mut self, f: &mut dyn FnMut(&mut Param));
    /// Visits every non-parameter state buffer (e.g. BatchNorm running
    /// statistics) in a stable order.
    fn buffers(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}
    /// Clears all gradients.
    fn clear_grads(&mut self) {
        self.params(&mut |p| p.zero_grad());
    }
    /// Counts trainable (non-frozen) scalar parameters.
    fn trainable_params(&mut self) -> usize {
        let mut n = 0;
        self.params(&mut |p| {
            if !p.frozen {
                n += p.value.len();
            }
        });
        n
    }
}

impl<L: Layer> Model for L {
    fn predict(&mut self, input: &Tensor, train: bool) -> Tensor {
        Layer::forward(self, input, train)
    }
    fn backprop(&mut self, grad_logits: &Tensor) {
        let _ = Layer::backward(self, grad_logits);
    }
    fn params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        Layer::visit_params(self, f);
    }
    fn buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        Layer::visit_buffers(self, f);
    }
}

/// Plain SGD with momentum and weight decay.
///
/// Velocity state is kept per parameter *index* in visit order, which is
/// stable for a fixed model structure.
///
/// # Example
///
/// ```
/// use pim_nn::layers::{Layer, Linear};
/// use pim_nn::train::Sgd;
/// use pim_nn::tensor::Tensor;
///
/// let mut fc = Linear::new(2, 1, 0);
/// let mut sgd = Sgd::new(0.1, 0.9, 1e-4);
/// fc.forward(&Tensor::ones(&[1, 2]), true);
/// fc.backward(&Tensor::ones(&[1, 1]));
/// sgd.step(&mut fc);
/// ```
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update to every non-frozen parameter:
    /// `v ← µv + (g + λw)`, `w ← w − η·v` (paper eq. 3 with momentum).
    pub fn step(&mut self, model: &mut (impl Model + ?Sized)) {
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        let mut idx = 0;
        model.params(&mut |p: &mut Param| {
            if velocity.len() == idx {
                velocity.push(Tensor::zeros(p.value.shape()));
            }
            if !p.frozen {
                let v = &mut velocity[idx];
                debug_assert_eq!(v.shape(), p.value.shape(), "param order changed");
                for ((vi, &gi), wi) in v
                    .as_mut_slice()
                    .iter_mut()
                    .zip(p.grad.as_slice())
                    .zip(p.value.as_slice())
                {
                    *vi = momentum * *vi + gi + wd * wi;
                }
                p.value
                    .add_scaled(v, -lr)
                    .expect("velocity matches value shape");
            }
            idx += 1;
        });
    }
}

/// Adam optimizer (Kingma & Ba) — provided alongside [`Sgd`] for library
/// completeness; the paper's experiments use SGD with momentum, but
/// adaptive optimizers are the norm for on-device adaptation work built
/// on top of this crate.
///
/// # Example
///
/// ```
/// use pim_nn::layers::{Layer, Linear};
/// use pim_nn::train::Adam;
/// use pim_nn::tensor::Tensor;
///
/// let mut fc = Linear::new(2, 1, 0);
/// let mut adam = Adam::new(1e-2);
/// fc.forward(&Tensor::ones(&[1, 2]), true);
/// fc.backward(&Tensor::ones(&[1, 1]));
/// adam.step(&mut fc);
/// ```
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    first: Vec<Tensor>,
    second: Vec<Tensor>,
}

impl Adam {
    /// Creates the optimizer with the canonical β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates the optimizer with explicit moment decays.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or a beta is outside `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas must be in [0, 1)"
        );
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            step: 0,
            first: Vec::new(),
            second: Vec::new(),
        }
    }

    /// Applies one bias-corrected Adam update to every non-frozen
    /// parameter.
    pub fn step(&mut self, model: &mut (impl Model + ?Sized)) {
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        let lr = self.lr;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let first = &mut self.first;
        let second = &mut self.second;
        let mut idx = 0;
        model.params(&mut |p: &mut Param| {
            if first.len() == idx {
                first.push(Tensor::zeros(p.value.shape()));
                second.push(Tensor::zeros(p.value.shape()));
            }
            if !p.frozen {
                let m = first[idx].as_mut_slice();
                let v = second[idx].as_mut_slice();
                let g = p.grad.as_slice();
                let w = p.value.as_mut_slice();
                for i in 0..w.len() {
                    m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                    v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                    let m_hat = m[i] / bc1;
                    let v_hat = v[i] / bc2;
                    w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            idx += 1;
        });
    }
}

/// A labelled classification dataset held fully in memory.
#[derive(Debug, Clone)]
pub struct Dataset {
    inputs: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Wraps inputs (batch-first tensor) and labels.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] if the batch size and label count differ or
    /// any label is out of range.
    pub fn new(inputs: Tensor, labels: Vec<usize>, classes: usize) -> Result<Self, DatasetError> {
        let batch = inputs.shape().first().copied().unwrap_or(0);
        if batch != labels.len() {
            return Err(DatasetError::LengthMismatch {
                inputs: batch,
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(DatasetError::LabelOutOfRange {
                label: bad,
                classes,
            });
        }
        Ok(Self {
            inputs,
            labels,
            classes,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The full input tensor.
    pub fn inputs(&self) -> &Tensor {
        &self.inputs
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gathers a batch by example indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let items: Vec<Tensor> = indices.iter().map(|&i| self.inputs.batch_item(i)).collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (
            Tensor::stack_batch(&items).expect("items share trailing shape"),
            labels,
        )
    }
}

/// Errors constructing a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetError {
    /// Input batch and label counts differ.
    LengthMismatch {
        /// Number of inputs.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A label was ≥ the class count.
    LabelOutOfRange {
        /// Offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { inputs, labels } => {
                write!(f, "{inputs} inputs but {labels} labels")
            }
            Self::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// Hyper-parameters for [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
        }
    }
}

/// Per-epoch record returned by [`fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

/// Per-batch record returned by [`train_step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean softmax cross-entropy loss over the batch.
    pub loss: f32,
    /// Correctly classified examples in the batch.
    pub correct: usize,
    /// Batch size.
    pub batch: usize,
}

impl StepStats {
    /// Fraction of the batch classified correctly.
    pub fn accuracy(&self) -> f64 {
        if self.batch == 0 {
            0.0
        } else {
            self.correct as f64 / self.batch as f64
        }
    }
}

/// Performs one incremental optimization step on a single labelled batch:
/// forward, softmax cross-entropy, backprop, SGD update.
///
/// This is the unit of work of the offline [`fit`] loop; online continual
/// learning (`pim-learn`) takes the same step from memoised backbone taps
/// through [`train_step_from_taps`].
///
/// # Panics
///
/// Panics if `labels` is empty or its length differs from the batch
/// dimension of `x`.
pub fn train_step(
    model: &mut (impl Model + ?Sized),
    sgd: &mut Sgd,
    x: &Tensor,
    labels: &[usize],
) -> StepStats {
    assert!(!labels.is_empty(), "cannot step on an empty batch");
    assert_eq!(
        x.shape().first().copied().unwrap_or(0),
        labels.len(),
        "batch dimension must match label count"
    );
    model.clear_grads();
    let logits = model.predict(x, true);
    descend(model, sgd, &logits, labels)
}

/// [`train_step`] for a [`RepNet`] whose frozen-backbone taps and pooled
/// features were computed earlier by [`RepNet::backbone_outputs`] (the
/// paper's "saved activation" buffers): the same clear, forward of the
/// learnable path only, loss, backprop and SGD update. Because the
/// backbone never trains, the step is bit-identical to [`train_step`] on
/// the inputs the taps came from.
///
/// # Panics
///
/// Panics if `labels` is empty, its length differs from the batch
/// dimension of `features`, or `taps` has not one tensor per rep module.
pub fn train_step_from_taps(
    model: &mut RepNet,
    sgd: &mut Sgd,
    taps: &[Tensor],
    features: &Tensor,
    labels: &[usize],
) -> StepStats {
    assert!(!labels.is_empty(), "cannot step on an empty batch");
    assert_eq!(
        features.shape().first().copied().unwrap_or(0),
        labels.len(),
        "batch dimension must match label count"
    );
    model.clear_grads();
    let logits = model.predict_from_taps(taps, features, true);
    descend(model, sgd, &logits, labels)
}

/// The shared tail of a training step: loss on `logits`, backprop, one
/// SGD update.
fn descend(
    model: &mut (impl Model + ?Sized),
    sgd: &mut Sgd,
    logits: &Tensor,
    labels: &[usize],
) -> StepStats {
    let (loss, grad) = softmax_cross_entropy(logits, labels);
    let correct = predictions(logits)
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    model.backprop(&grad);
    sgd.step(model);
    StepStats {
        loss,
        correct,
        batch: labels.len(),
    }
}

/// Trains `model` on `data` with softmax cross-entropy, returning per-epoch
/// statistics.
///
/// # Panics
///
/// Panics if the dataset is empty or the batch size is zero.
pub fn fit(model: &mut (impl Model + ?Sized), data: &Dataset, cfg: &FitConfig) -> Vec<EpochStats> {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert!(cfg.batch_size > 0, "batch size must be nonzero");
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let (x, labels) = data.batch(chunk);
            let step = train_step(model, &mut sgd, &x, &labels);
            correct += step.correct;
            total_loss += step.loss as f64;
            batches += 1;
        }
        history.push(EpochStats {
            loss: (total_loss / batches as f64) as f32,
            accuracy: correct as f64 / data.len() as f64,
        });
    }
    history
}

/// Evaluates classification accuracy (inference mode, batched).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn evaluate(model: &mut (impl Model + ?Sized), data: &Dataset, batch_size: usize) -> f64 {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let indices: Vec<usize> = (0..data.len()).collect();
    let mut correct = 0usize;
    for chunk in indices.chunks(batch_size.max(1)) {
        let (x, labels) = data.batch(chunk);
        let logits = model.predict(&x, false);
        correct += predictions(&logits)
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count();
    }
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu, Sequential};

    fn xor_dataset() -> Dataset {
        // XOR-ish 2-class problem with margins, 2 features.
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let (a, b) = ((i / 2) % 2, i % 2);
            let jitter = (i as f32 * 0.013).sin() * 0.05;
            inputs.extend_from_slice(&[a as f32 + jitter, b as f32 - jitter]);
            labels.push((a ^ b) as usize);
        }
        Dataset::new(Tensor::from_vec(vec![40, 2], inputs).unwrap(), labels, 2).unwrap()
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        // Single linear neuron fitting y = 0: loss ~ y², SGD must drive the
        // output toward zero.
        let mut fc = Linear::new(1, 1, 1);
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        let start = Layer::forward(&mut fc, &Tensor::ones(&[1, 1]), false).as_slice()[0].abs();
        for _ in 0..50 {
            fc.zero_grad();
            let y = Layer::forward(&mut fc, &Tensor::ones(&[1, 1]), true);
            // dL/dy = y for L = y²/2.
            let _ = Layer::backward(&mut fc, &y);
            sgd.step(&mut fc);
        }
        let end = Layer::forward(&mut fc, &Tensor::ones(&[1, 1]), false).as_slice()[0].abs();
        assert!(end < start * 0.1, "start {start} end {end}");
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut fc = Linear::new(2, 2, 3);
        Layer::set_frozen(&mut fc, true);
        let before = fc.weight().value.clone();
        let mut sgd = Sgd::new(0.5, 0.0, 0.0);
        Layer::forward(&mut fc, &Tensor::ones(&[1, 2]), true);
        Layer::backward(&mut fc, &Tensor::ones(&[1, 2]));
        sgd.step(&mut fc);
        assert_eq!(fc.weight().value, before);
    }

    #[test]
    fn fit_learns_xor() {
        let data = xor_dataset();
        let mut net = Sequential::new();
        net.push(Linear::new(2, 16, 10));
        net.push(Relu::new());
        net.push(Linear::new(16, 2, 11));
        let cfg = FitConfig {
            epochs: 60,
            batch_size: 8,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            seed: 5,
        };
        let history = fit(&mut net, &data, &cfg);
        assert!(history.last().unwrap().accuracy > 0.95);
        assert!(history.last().unwrap().loss < history.first().unwrap().loss);
        assert!(evaluate(&mut net, &data, 16) > 0.95);
    }

    #[test]
    fn train_step_matches_manual_loop() {
        // One train_step must be exactly one clear/forward/backward/step.
        let data = xor_dataset();
        let build = || {
            let mut net = Sequential::new();
            net.push(Linear::new(2, 8, 20));
            net.push(Relu::new());
            net.push(Linear::new(8, 2, 21));
            net
        };
        let (x, labels) = data.batch(&[0, 1, 2, 3]);

        let mut a = build();
        let mut sgd_a = Sgd::new(0.1, 0.9, 1e-4);
        let step = train_step(&mut a, &mut sgd_a, &x, &labels);
        assert!(step.loss.is_finite());
        assert_eq!(step.batch, 4);
        assert!(step.accuracy() <= 1.0);

        let mut b = build();
        let mut sgd_b = Sgd::new(0.1, 0.9, 1e-4);
        b.clear_grads();
        let logits = b.predict(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        b.backprop(&grad);
        sgd_b.step(&mut b);

        let after_a = a.predict(&x, false);
        let after_b = b.predict(&x, false);
        assert_eq!(after_a.as_slice(), after_b.as_slice());
    }

    #[test]
    #[should_panic(expected = "cannot step on an empty batch")]
    fn train_step_rejects_empty_batch() {
        let mut net = Linear::new(2, 2, 0);
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        let _ = train_step(&mut net, &mut sgd, &Tensor::zeros(&[0, 2]), &[]);
    }

    #[test]
    fn dataset_validation() {
        let t = Tensor::zeros(&[3, 2]);
        assert!(matches!(
            Dataset::new(t.clone(), vec![0, 1], 2),
            Err(DatasetError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(t, vec![0, 1, 5], 2),
            Err(DatasetError::LabelOutOfRange { label: 5, .. })
        ));
    }

    #[test]
    fn batch_gathers_requested_rows() {
        let data = Dataset::new(
            Tensor::from_vec(vec![3, 2], vec![0., 0., 1., 1., 2., 2.]).unwrap(),
            vec![0, 1, 0],
            2,
        )
        .unwrap();
        let (x, labels) = data.batch(&[2, 0]);
        assert_eq!(x.as_slice(), &[2., 2., 0., 0.]);
        assert_eq!(labels, vec![0, 0]);
    }

    #[test]
    fn trainable_params_excludes_frozen() {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, 0)); // 6 params
        net.push(Linear::new(2, 2, 1)); // 6 params
        assert_eq!(Model::trainable_params(&mut net), 12);
        Layer::set_frozen(&mut net, true);
        assert_eq!(Model::trainable_params(&mut net), 0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn sgd_rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut fc = Linear::new(1, 1, 1);
        let mut adam = Adam::new(0.05);
        let start = Layer::forward(&mut fc, &Tensor::ones(&[1, 1]), false).as_slice()[0].abs();
        for _ in 0..200 {
            fc.zero_grad();
            let y = Layer::forward(&mut fc, &Tensor::ones(&[1, 1]), true);
            let _ = Layer::backward(&mut fc, &y);
            adam.step(&mut fc);
        }
        let end = Layer::forward(&mut fc, &Tensor::ones(&[1, 1]), false).as_slice()[0].abs();
        assert!(end < start * 0.1 || end < 1e-3, "start {start} end {end}");
    }

    #[test]
    fn adam_respects_frozen_params() {
        let mut fc = Linear::new(2, 2, 3);
        Layer::set_frozen(&mut fc, true);
        let before = fc.weight().value.clone();
        let mut adam = Adam::new(0.1);
        Layer::forward(&mut fc, &Tensor::ones(&[1, 2]), true);
        Layer::backward(&mut fc, &Tensor::ones(&[1, 2]));
        adam.step(&mut fc);
        assert_eq!(fc.weight().value, before);
    }

    #[test]
    fn adam_first_step_has_unit_scale_regardless_of_gradient_magnitude() {
        // Bias correction: the first step moves ≈ lr in the gradient
        // direction whether the gradient is 1e-3 or 1e3.
        for scale in [1e-3f32, 1.0, 1e3] {
            let mut fc = Linear::new(1, 1, 2);
            let w0 = fc.weight().value.as_slice()[0];
            let mut adam = Adam::new(0.01);
            fc.zero_grad();
            fc.weight_mut().grad.fill(scale);
            adam.step(&mut fc);
            let delta = (fc.weight().value.as_slice()[0] - w0).abs();
            assert!((delta - 0.01).abs() < 1e-3, "scale {scale}: delta {delta}");
        }
    }

    #[test]
    #[should_panic(expected = "betas must be in [0, 1)")]
    fn adam_rejects_bad_betas() {
        let _ = Adam::with_betas(0.1, 1.0, 0.9);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        // With a constant unit gradient, momentum should produce strictly
        // growing per-step displacement early on.
        let mut fc = Linear::new(1, 1, 2);
        let mut sgd = Sgd::new(0.1, 0.9, 0.0);
        let mut prev = fc.weight().value.as_slice()[0];
        let mut deltas = Vec::new();
        for _ in 0..4 {
            fc.zero_grad();
            fc.weight_mut().grad.fill(1.0);
            sgd.step(&mut fc);
            let now = fc.weight().value.as_slice()[0];
            deltas.push(prev - now);
            prev = now;
        }
        assert!(deltas[1] > deltas[0]);
        assert!(deltas[2] > deltas[1]);
    }
}
