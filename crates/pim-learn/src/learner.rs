//! The incremental trainer: replay buffer + online SGD steps.
//!
//! Continual learning on-device is a stream, not a dataset: labelled
//! samples trickle in, and each arrival may trigger a small number of
//! optimization steps over a bounded **replay buffer** (the streaming
//! stand-in for an epoch). Each step is one
//! [`pim_nn::train::train_step_from_taps`] on memoised backbone taps:
//! the backbone is frozen, so a replayed sample's taps and pooled
//! features (the paper's "saved activation" buffers) are computed the
//! first time a step draws it and reused afterwards. The step is
//! bit-identical to a [`pim_nn::train::train_step`] on the raw inputs,
//! so online and offline training stay numerically identical given the
//! same batches.

use crate::error::LearnError;
use pim_nn::checkpoint::{self, CheckpointError};
use pim_nn::models::{BackboneScratch, FrozenBackbone, RepNet};
use pim_nn::tensor::Tensor;
use pim_nn::train::{train_step_from_taps, Dataset, Sgd, StepStats};
use pim_par::WorkPool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::Arc;

/// Hyperparameters of the online trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineLearnerConfig {
    /// Bounded replay capacity; the oldest sample is evicted when full.
    pub replay_capacity: usize,
    /// Samples drawn (with replacement) per training step.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Replay-sampling seed (runs are deterministic per seed).
    pub seed: u64,
}

impl Default for OnlineLearnerConfig {
    fn default() -> Self {
        Self {
            replay_capacity: 256,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 7,
        }
    }
}

/// Incremental Rep-Net trainer over a labelled sample stream.
///
/// Only the adaptor path and classifier learn — the backbone parameters
/// are frozen inside the [`RepNet`], matching the hybrid deployment where
/// backbone weights sit in write-protected MRAM.
pub struct OnlineLearner {
    model: RepNet,
    /// `model`'s backbone frozen for serving, rebuilt only when a
    /// checkpoint restore rewrites the backbone: every artifact published
    /// in between shares it.
    frozen: Arc<FrozenBackbone>,
    /// Working memory of the replay taps' backbone forwards.
    scratch: BackboneScratch,
    sgd: Sgd,
    rng: StdRng,
    /// Replayed samples, oldest first.
    replay: VecDeque<ReplayEntry>,
    config: OnlineLearnerConfig,
    steps: u64,
    samples_observed: u64,
}

/// One replay-buffer sample with its memoised backbone outputs.
struct ReplayEntry {
    /// The `[1, C, H, W]` sample.
    input: Tensor,
    label: usize,
    /// Per-stage backbone taps and pooled features of `input`, filled the
    /// first time a step draws the entry and cleared when the backbone
    /// is restored from a checkpoint.
    taps: Option<(Vec<Tensor>, Tensor)>,
}

impl std::fmt::Debug for OnlineLearner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Sgd keeps opaque velocity state; summarize instead of deriving.
        f.debug_struct("OnlineLearner")
            .field("config", &self.config)
            .field("replay_len", &self.replay.len())
            .field("steps", &self.steps)
            .field("samples_observed", &self.samples_observed)
            .finish_non_exhaustive()
    }
}

impl OnlineLearner {
    /// Wraps `model` for online training.
    ///
    /// # Panics
    ///
    /// Panics if the config's capacity or batch size is zero.
    pub fn new(model: RepNet, config: OnlineLearnerConfig) -> Self {
        assert!(
            config.replay_capacity > 0,
            "replay capacity must be nonzero"
        );
        assert!(config.batch_size > 0, "batch size must be nonzero");
        Self {
            frozen: Arc::new(model.backbone().freeze()),
            scratch: BackboneScratch::default(),
            model,
            sgd: Sgd::new(config.lr, config.momentum, config.weight_decay),
            rng: StdRng::seed_from_u64(config.seed),
            replay: VecDeque::with_capacity(config.replay_capacity),
            config,
            steps: 0,
            samples_observed: 0,
        }
    }

    /// Admits one labelled sample (`[C, H, W]` or `[1, C, H, W]`) into
    /// the replay buffer, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics if the input is not a single sample.
    pub fn observe(&mut self, input: &Tensor, label: usize) {
        let shape = input.shape();
        let sample = if shape.len() == 4 && shape[0] == 1 {
            input.clone()
        } else {
            assert_eq!(shape.len(), 3, "expected a [C, H, W] sample, got {shape:?}");
            let mut with_batch = vec![1];
            with_batch.extend_from_slice(shape);
            input
                .reshaped(with_batch)
                .expect("adding a unit batch axis preserves the element count")
        };
        if self.replay.len() == self.config.replay_capacity {
            self.replay.pop_front();
        }
        self.replay.push_back(ReplayEntry {
            input: sample,
            label,
            taps: None,
        });
        self.samples_observed += 1;
    }

    /// Streams every sample of `data` through [`observe`](Self::observe)
    /// in index order.
    pub fn observe_dataset(&mut self, data: &Dataset) {
        for i in 0..data.len() {
            let (x, labels) = data.batch(&[i]);
            self.observe(&x, labels[0]);
        }
    }

    /// Performs one incremental training step on a batch drawn (with
    /// replacement) from the replay buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::EmptyReplay`] before any sample arrived.
    pub fn step(&mut self) -> Result<StepStats, LearnError> {
        if self.replay.is_empty() {
            return Err(LearnError::EmptyReplay);
        }
        let n = self.config.batch_size.min(self.replay.len());
        let picks: Vec<usize> = (0..n)
            .map(|_| self.rng.random_range(0..self.replay.len()))
            .collect();
        self.tap_first_use(&picks);
        let cached: Vec<&(Vec<Tensor>, Tensor)> = picks
            .iter()
            .map(|&i| self.replay[i].taps.as_ref().expect("picks were tapped"))
            .collect();
        let taps: Vec<Tensor> = (0..cached[0].0.len())
            .map(|t| stack(cached.iter().map(|c| c.0[t].clone())))
            .collect();
        let features = stack(cached.iter().map(|c| c.1.clone()));
        let labels: Vec<usize> = picks.iter().map(|&i| self.replay[i].label).collect();
        let stats = train_step_from_taps(&mut self.model, &mut self.sgd, &taps, &features, &labels);
        self.steps += 1;
        Ok(stats)
    }

    /// Runs the distinct `picks` without memoised taps through one
    /// batched forward of the frozen backbone (serial; bit-identical to
    /// the model's eval forward) and stores each sample's share.
    fn tap_first_use(&mut self, picks: &[usize]) {
        let mut fresh: Vec<usize> = Vec::new();
        for &i in picks {
            if self.replay[i].taps.is_none() && !fresh.contains(&i) {
                fresh.push(i);
            }
        }
        if fresh.is_empty() {
            return;
        }
        let batch = stack(fresh.iter().map(|&i| self.replay[i].input.clone()));
        let out = self
            .frozen
            .forward(&batch, &mut self.scratch, WorkPool::serial_ref());
        for (j, &i) in fresh.iter().enumerate() {
            let taps = out.taps.iter().map(|t| t.batch_item(j)).collect();
            self.replay[i].taps = Some((taps, out.features.batch_item(j)));
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &RepNet {
        &self.model
    }

    /// The model's frozen backbone, shared by every artifact published
    /// from it; a [`load_checkpoint`](Self::load_checkpoint) replaces it.
    pub fn frozen_backbone(&self) -> &Arc<FrozenBackbone> {
        &self.frozen
    }

    /// Mutable model access (the engine's parameter count needs it:
    /// `Layer::params` visits parameters through `&mut`).
    ///
    /// Callers must not modify the frozen backbone: replay taps are
    /// memoised against it, and only
    /// [`load_checkpoint`](Self::load_checkpoint) invalidates them.
    pub(crate) fn model_mut(&mut self) -> &mut RepNet {
        &mut self.model
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Samples observed so far (admitted to replay, including evicted).
    pub fn samples_observed(&self) -> u64 {
        self.samples_observed
    }

    /// Samples currently held in the replay buffer.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Serializes the model parameters and BatchNorm state through
    /// [`pim_nn::checkpoint`]. Optimizer momentum and the replay buffer
    /// are transient and restart cold after a restore.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn save_checkpoint<W: Write>(&mut self, writer: W) -> std::io::Result<()> {
        checkpoint::save(&mut self.model, writer)
    }

    /// Restores model parameters and BatchNorm state saved by
    /// [`save_checkpoint`](Self::save_checkpoint). The restore rewrites
    /// the backbone, so every memoised replay tap is dropped and the
    /// [`frozen_backbone`](Self::frozen_backbone) rebuilt (even when
    /// loading fails part way); taps are recomputed on next use.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointError`] on format or shape mismatch.
    pub fn load_checkpoint<R: Read>(&mut self, reader: R) -> Result<(), CheckpointError> {
        for entry in &mut self.replay {
            entry.taps = None;
        }
        let loaded = checkpoint::load(&mut self.model, reader);
        self.frozen = Arc::new(self.model.backbone().freeze());
        loaded
    }
}

/// Stacks same-shaped replay tensors along the batch axis.
fn stack(items: impl Iterator<Item = Tensor>) -> Tensor {
    let items: Vec<Tensor> = items.collect();
    Tensor::stack_batch(&items).expect("replay samples share one shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNetConfig};
    use pim_nn::train::{train_step, Model};

    fn tiny_model() -> RepNet {
        RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 3,
                seed: 5,
            },
        )
    }

    fn tiny_config(seed: u64) -> OnlineLearnerConfig {
        OnlineLearnerConfig {
            replay_capacity: 8,
            batch_size: 4,
            seed,
            ..OnlineLearnerConfig::default()
        }
    }

    fn tiny_learner(seed: u64) -> OnlineLearner {
        OnlineLearner::new(tiny_model(), tiny_config(seed))
    }

    /// The learner without memoisation: the same replay draws, with the
    /// raw inputs stacked through the full-forward [`train_step`].
    struct Reference {
        model: RepNet,
        sgd: Sgd,
        rng: StdRng,
        replay: VecDeque<(Tensor, usize)>,
        config: OnlineLearnerConfig,
    }

    impl Reference {
        fn new(model: RepNet, config: OnlineLearnerConfig) -> Self {
            Self {
                model,
                sgd: Sgd::new(config.lr, config.momentum, config.weight_decay),
                rng: StdRng::seed_from_u64(config.seed),
                replay: VecDeque::new(),
                config,
            }
        }

        fn observe(&mut self, x: &Tensor, label: usize) {
            if self.replay.len() == self.config.replay_capacity {
                self.replay.pop_front();
            }
            self.replay.push_back((x.clone(), label));
        }

        fn step(&mut self) -> StepStats {
            let n = self.config.batch_size.min(self.replay.len());
            let (inputs, labels): (Vec<Tensor>, Vec<usize>) = (0..n)
                .map(|_| self.replay[self.rng.random_range(0..self.replay.len())].clone())
                .unzip();
            let batch = Tensor::stack_batch(&inputs).expect("one sample shape");
            train_step(&mut self.model, &mut self.sgd, &batch, &labels)
        }
    }

    /// A distinct `[1, 1, 8, 8]` sample per index (period 29).
    fn distinct_sample(i: usize) -> Tensor {
        Tensor::from_vec(
            vec![1, 1, 8, 8],
            (0..64)
                .map(|v| ((v * 7 + i * 13) % 29) as f32 / 29.0)
                .collect(),
        )
        .expect("sample shape")
    }

    /// Every parameter and BatchNorm buffer, as raw bits.
    fn state_bits(model: &mut RepNet) -> Vec<u32> {
        let mut bits = Vec::new();
        model.params(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
        model.buffers(&mut |b| bits.extend(b.iter().map(|v| v.to_bits())));
        bits
    }

    /// Steps both sides `steps` times, asserting bit-identical step stats
    /// and model state.
    fn assert_steps_match(learner: &mut OnlineLearner, reference: &mut Reference, steps: usize) {
        for _ in 0..steps {
            let (got, want) = (learner.step().expect("step"), reference.step());
            assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "loss bits");
            assert_eq!((got.correct, got.batch), (want.correct, want.batch));
        }
        assert_eq!(
            state_bits(learner.model_mut()),
            state_bits(&mut reference.model),
            "parameters are bit-identical"
        );
    }

    fn memoised_steps_match_full_forward(int8_eval: bool) {
        let mut learner = tiny_learner(11);
        let mut reference = Reference::new(tiny_model(), tiny_config(11));
        learner.model_mut().set_int8_eval(int8_eval);
        reference.model.set_int8_eval(int8_eval);
        // 6 rounds × 5 arrivals overflow the 8-sample replay, so tapped
        // entries are evicted and fresh ones tapped on later draws.
        for round in 0..6 {
            for i in 0..5 {
                let k = round * 5 + i;
                learner.observe(&distinct_sample(k), k % 3);
                reference.observe(&distinct_sample(k), k % 3);
            }
            assert_steps_match(&mut learner, &mut reference, 4);
        }
        assert_eq!(learner.samples_observed(), 30);
        assert_eq!(learner.replay_len(), 8);
    }

    #[test]
    fn memoised_taps_are_bit_exact_with_full_forward_steps() {
        memoised_steps_match_full_forward(false);
    }

    #[test]
    fn memoised_taps_are_bit_exact_under_int8_eval() {
        memoised_steps_match_full_forward(true);
    }

    #[test]
    fn load_checkpoint_drops_memoised_taps() {
        let mut learner = tiny_learner(13);
        let mut reference = Reference::new(tiny_model(), tiny_config(13));
        for k in 0..12 {
            learner.observe(&distinct_sample(k), k % 3);
            reference.observe(&distinct_sample(k), k % 3);
        }
        assert_steps_match(&mut learner, &mut reference, 4);
        let mut saved = Vec::new();
        learner.save_checkpoint(&mut saved).expect("save");

        // Steps never move the frozen backbone, so stale taps would equal
        // fresh ones after restoring the same backbone. A donor checkpoint
        // with a requantized backbone makes every tap memoised before a
        // load disagree with the backbone loaded after it.
        let mut donor = tiny_model();
        donor.backbone_mut().quantize_weights_int8();
        let mut requantized = Vec::new();
        checkpoint::save(&mut donor, &mut requantized).expect("save donor");
        for bytes in [&requantized, &saved] {
            learner.load_checkpoint(bytes.as_slice()).expect("load");
            checkpoint::load(&mut reference.model, bytes.as_slice()).expect("load");
            assert_steps_match(&mut learner, &mut reference, 4);
        }
    }

    fn feed(learner: &mut OnlineLearner, samples: usize) {
        for i in 0..samples {
            let x = Tensor::from_vec(
                vec![1, 8, 8],
                (0..64).map(|v| ((v + i) % 7) as f32 / 7.0).collect(),
            )
            .expect("sample shape");
            learner.observe(&x, i % 3);
        }
    }

    #[test]
    fn step_before_any_sample_is_an_error() {
        let mut learner = tiny_learner(0);
        assert_eq!(learner.step(), Err(LearnError::EmptyReplay));
    }

    #[test]
    fn replay_is_bounded_and_steps_count() {
        let mut learner = tiny_learner(1);
        feed(&mut learner, 20);
        assert_eq!(learner.replay_len(), 8);
        assert_eq!(learner.samples_observed(), 20);
        let stats = learner.step().expect("step");
        assert_eq!(stats.batch, 4);
        assert!(stats.loss.is_finite());
        assert_eq!(learner.steps(), 1);
    }

    #[test]
    fn same_seed_and_stream_is_deterministic() {
        let (mut a, mut b) = (tiny_learner(9), tiny_learner(9));
        feed(&mut a, 10);
        feed(&mut b, 10);
        for _ in 0..3 {
            let (sa, sb) = (a.step().unwrap(), b.step().unwrap());
            assert_eq!(sa, sb);
        }
        let x = Tensor::ones(&[1, 1, 8, 8]);
        assert_eq!(
            a.model_mut().predict(&x, false).as_slice(),
            b.model_mut().predict(&x, false).as_slice()
        );
    }

    #[test]
    fn checkpoint_round_trips_the_model() {
        let mut learner = tiny_learner(3);
        feed(&mut learner, 10);
        for _ in 0..3 {
            learner.step().expect("step");
        }
        let mut saved = Vec::new();
        learner.save_checkpoint(&mut saved).expect("save");
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let reference = learner.model_mut().predict(&x, false);

        // Diverge, then restore.
        for _ in 0..3 {
            learner.step().expect("step");
        }
        assert_ne!(
            learner.model_mut().predict(&x, false).as_slice(),
            reference.as_slice(),
            "training moved the weights"
        );
        learner.load_checkpoint(saved.as_slice()).expect("load");
        assert_eq!(
            learner.model_mut().predict(&x, false).as_slice(),
            reference.as_slice(),
            "restore is bit-exact"
        );
    }
}
