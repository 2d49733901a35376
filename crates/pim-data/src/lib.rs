//! Deterministic synthetic datasets standing in for the paper's evaluation
//! data.
//!
//! The paper evaluates continual learning on Flowers-102, Oxford Pets,
//! Food-101, CIFAR-10 and CIFAR-100, with an ImageNet-pretrained backbone.
//! None of those are redistributable inside this offline reproduction, so
//! we substitute **synthetic image classification tasks** with matching
//! class counts and controlled difficulty (see `DESIGN.md` §2): each class
//! owns a smooth random prototype image (a mixture of spatial Gaussian
//! blobs), and samples are noisy, intensity-jittered draws around it. The
//! separation-to-noise ratio is the `difficulty` knob that calibrates
//! where the dense-FP32 reference accuracy lands.
//!
//! Everything is seeded: the same spec generates bit-identical datasets.
//!
//! # Example
//!
//! ```
//! use pim_data::{downstream_suite, SyntheticSpec};
//!
//! let spec = SyntheticSpec::cifar10_like().with_samples(4, 2);
//! let task = spec.generate()?;
//! assert_eq!(task.train.classes(), 10);
//! assert_eq!(task.train.len(), 40);
//! assert_eq!(task.test.len(), 20);
//! // The full five-task suite mirrors the paper's Table 1 columns.
//! assert_eq!(downstream_suite().len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use pim_nn::tensor::Tensor;
use pim_nn::train::{Dataset, DatasetError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A generated train/test split.
#[derive(Debug, Clone)]
pub struct Task {
    /// Dataset name (table row label).
    pub name: String,
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
}

/// Specification of one synthetic classification task.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Task name (mirrors the paper's dataset it stands in for).
    pub name: String,
    /// Number of classes.
    pub classes: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Square image edge length.
    pub image_size: usize,
    /// Image channels.
    pub channels: usize,
    /// Noise-to-signal ratio; higher is harder. Around 0.5–1.2 produces
    /// the paper-like accuracy bands for the default models.
    pub difficulty: f64,
    /// Generation seed.
    pub seed: u64,
}

impl SyntheticSpec {
    fn preset(name: &str, classes: usize, difficulty: f64, seed: u64) -> Self {
        Self {
            name: name.to_owned(),
            classes,
            train_per_class: 12,
            test_per_class: 6,
            image_size: 16,
            channels: 3,
            difficulty,
            seed,
        }
    }

    /// Stand-in for Flowers-102 (102 classes; fine-grained but visually
    /// distinctive — the easiest of the suite in the paper).
    pub fn flowers102_like() -> Self {
        Self::preset("flowers102", 102, 0.55, 11)
    }

    /// Stand-in for Oxford-IIIT Pets (37 classes).
    pub fn pets_like() -> Self {
        Self::preset("pets", 37, 0.70, 22)
    }

    /// Stand-in for Food-101 (101 classes; small per-class train set in
    /// the paper, the hardest row of Table 1).
    pub fn food101_like() -> Self {
        let mut s = Self::preset("food101", 101, 0.95, 33);
        s.train_per_class = 8; // Food-101's small train split
        s
    }

    /// Stand-in for CIFAR-10 (10 classes).
    pub fn cifar10_like() -> Self {
        Self::preset("cifar10", 10, 0.60, 44)
    }

    /// Stand-in for CIFAR-100 (100 classes).
    pub fn cifar100_like() -> Self {
        Self::preset("cifar100", 100, 0.85, 55)
    }

    /// A broad "upstream" pretraining task for the backbone (the ImageNet
    /// stand-in).
    pub fn upstream_pretraining() -> Self {
        let mut s = Self::preset("upstream", 16, 0.60, 7);
        s.train_per_class = 40;
        s.test_per_class = 10;
        s
    }

    /// Overrides the per-class sample counts (for fast tests).
    pub fn with_samples(mut self, train: usize, test: usize) -> Self {
        self.train_per_class = train;
        self.test_per_class = test;
        self
    }

    /// Overrides the image geometry.
    pub fn with_geometry(mut self, image_size: usize, channels: usize) -> Self {
        self.image_size = image_size;
        self.channels = channels;
        self
    }

    /// Overrides the difficulty.
    pub fn with_difficulty(mut self, difficulty: f64) -> Self {
        self.difficulty = difficulty;
        self
    }

    /// Generates the task.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] if the spec is degenerate (propagated from
    /// dataset construction; cannot occur for the presets).
    pub fn generate(&self) -> Result<Task, DatasetError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let prototypes: Vec<Vec<f32>> = (0..self.classes)
            .map(|_| self.prototype(&mut rng))
            .collect();
        let train = self.split(&prototypes, self.train_per_class, &mut rng)?;
        let test = self.split(&prototypes, self.test_per_class, &mut rng)?;
        Ok(Task {
            name: self.name.clone(),
            train,
            test,
        })
    }

    /// A smooth class prototype: a sum of random spatial Gaussian blobs
    /// with per-channel polarity.
    fn prototype(&self, rng: &mut StdRng) -> Vec<f32> {
        let (s, c) = (self.image_size, self.channels);
        let blobs = 4;
        let mut proto = vec![0.0f32; c * s * s];
        for _ in 0..blobs {
            let cx = rng.random_range(0.0..s as f32);
            let cy = rng.random_range(0.0..s as f32);
            let sigma = rng.random_range(1.2..(s as f32 / 2.5));
            let channel_w: Vec<f32> = (0..c).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            for ci in 0..c {
                for y in 0..s {
                    for x in 0..s {
                        let d2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2);
                        proto[(ci * s + y) * s + x] +=
                            channel_w[ci] * (-d2 / (2.0 * sigma * sigma)).exp();
                    }
                }
            }
        }
        // Normalize prototype energy so difficulty is comparable per class.
        let norm = (proto.iter().map(|v| v * v).sum::<f32>() / proto.len() as f32)
            .sqrt()
            .max(1e-6);
        proto.iter_mut().for_each(|v| *v /= norm);
        proto
    }

    fn split(
        &self,
        prototypes: &[Vec<f32>],
        per_class: usize,
        rng: &mut StdRng,
    ) -> Result<Dataset, DatasetError> {
        let (s, c) = (self.image_size, self.channels);
        let pixels = c * s * s;
        let total = self.classes * per_class;
        let noise = self.difficulty as f32;
        let mut data = Vec::with_capacity(total * pixels);
        let mut labels = Vec::with_capacity(total);
        // Interleave classes so mini-batches are naturally mixed.
        for i in 0..per_class {
            for (label, proto) in prototypes.iter().enumerate() {
                let gain = 1.0 + 0.15 * gaussian(rng);
                let shift = 0.1 * gaussian(rng);
                for &p in proto {
                    data.push(gain * p + shift + noise * gaussian(rng));
                }
                labels.push(label);
                let _ = i;
            }
        }
        let inputs =
            Tensor::from_vec(vec![total, c, s, s], data).expect("buffer sized from the same dims");
        Dataset::new(inputs, labels, self.classes)
    }
}

impl fmt::Display for SyntheticSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} classes, {}+{} per class, {}x{}x{}, difficulty {:.2}",
            self.name,
            self.classes,
            self.train_per_class,
            self.test_per_class,
            self.channels,
            self.image_size,
            self.image_size,
            self.difficulty
        )
    }
}

/// One Box-Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1 = rng.random_range(f32::EPSILON..1.0f32);
    let u2 = rng.random_range(0.0..1.0f32);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// The paper's five downstream tasks, in Table 1 column order.
pub fn downstream_suite() -> Vec<SyntheticSpec> {
    vec![
        SyntheticSpec::flowers102_like(),
        SyntheticSpec::pets_like(),
        SyntheticSpec::food101_like(),
        SyntheticSpec::cifar10_like(),
        SyntheticSpec::cifar100_like(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticSpec::cifar10_like()
            .with_samples(3, 2)
            .generate()
            .unwrap();
        let b = SyntheticSpec::cifar10_like()
            .with_samples(3, 2)
            .generate()
            .unwrap();
        assert_eq!(a.train.inputs().as_slice(), b.train.inputs().as_slice());
        assert_eq!(a.train.labels(), b.train.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSpec::cifar10_like()
            .with_samples(2, 1)
            .generate()
            .unwrap();
        let mut spec = SyntheticSpec::cifar10_like().with_samples(2, 1);
        spec.seed = 999;
        let b = spec.generate().unwrap();
        assert_ne!(a.train.inputs().as_slice(), b.train.inputs().as_slice());
    }

    #[test]
    fn class_counts_match_the_paper_datasets() {
        let suite = downstream_suite();
        let counts: Vec<usize> = suite.iter().map(|s| s.classes).collect();
        assert_eq!(counts, vec![102, 37, 101, 10, 100]);
    }

    #[test]
    fn shapes_and_labels_are_consistent() {
        let task = SyntheticSpec::pets_like()
            .with_samples(3, 2)
            .generate()
            .unwrap();
        assert_eq!(task.train.len(), 37 * 3);
        assert_eq!(task.test.len(), 37 * 2);
        assert_eq!(task.train.inputs().shape(), &[111, 3, 16, 16]);
        // Every class appears the requested number of times.
        for class in 0..37 {
            let n = task.train.labels().iter().filter(|&&l| l == class).count();
            assert_eq!(n, 3);
        }
    }

    #[test]
    fn labels_are_interleaved_for_batching() {
        let task = SyntheticSpec::cifar10_like()
            .with_samples(2, 1)
            .generate()
            .unwrap();
        // First ten samples cover all ten classes.
        let first: Vec<usize> = task.train.labels()[..10].to_vec();
        assert_eq!(first, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn easy_task_is_linearly_separable_enough() {
        // Nearest-prototype classification on an easy task should beat
        // chance by a wide margin: sanity that class structure exists.
        let spec = SyntheticSpec::cifar10_like()
            .with_samples(10, 10)
            .with_difficulty(0.3);
        let task = spec.generate().unwrap();
        // Build per-class mean from train, classify test by nearest mean.
        let pixels = 3 * 16 * 16;
        let mut means = vec![vec![0.0f32; pixels]; 10];
        let mut counts = vec![0usize; 10];
        for i in 0..task.train.len() {
            let label = task.train.labels()[i];
            let item = task.train.inputs().batch_item(i);
            for (m, &v) in means[label].iter_mut().zip(item.as_slice()) {
                *m += v;
            }
            counts[label] += 1;
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            m.iter_mut().for_each(|v| *v /= c as f32);
        }
        let mut correct = 0;
        for i in 0..task.test.len() {
            let item = task.test.inputs().batch_item(i);
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f32 = means[a]
                        .iter()
                        .zip(item.as_slice())
                        .map(|(m, v)| (m - v).powi(2))
                        .sum();
                    let db: f32 = means[b]
                        .iter()
                        .zip(item.as_slice())
                        .map(|(m, v)| (m - v).powi(2))
                        .sum();
                    da.partial_cmp(&db).expect("finite distances")
                })
                .expect("ten classes");
            if best == task.test.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / task.test.len() as f64;
        assert!(acc > 0.6, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn difficulty_monotonically_hurts_separability() {
        let sep = |difficulty: f64| -> f32 {
            let spec = SyntheticSpec::cifar10_like()
                .with_samples(6, 1)
                .with_difficulty(difficulty);
            let task = spec.generate().unwrap();
            // Average within-class variance of raw pixels as a crude proxy.
            let t = task.train.inputs();
            let noise_power: f32 = t.as_slice().iter().map(|v| v * v).sum::<f32>() / t.len() as f32;
            noise_power
        };
        assert!(sep(1.2) > sep(0.3));
    }

    #[test]
    fn display_mentions_geometry() {
        let s = SyntheticSpec::food101_like().to_string();
        assert!(s.contains("101 classes"));
        assert!(s.contains("3x16x16"));
    }
}
