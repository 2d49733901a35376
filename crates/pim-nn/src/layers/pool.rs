//! Spatial pooling layers over NCHW tensors.

use super::Layer;
use crate::tensor::Tensor;

/// Non-overlapping max pooling with cached argmax for backward.
///
/// # Example
///
/// ```
/// use pim_nn::layers::{Layer, MaxPool2d};
/// use pim_nn::tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2);
/// let y = pool.forward(&Tensor::ones(&[1, 3, 4, 4]), false);
/// assert_eq!(y.shape(), &[1, 3, 2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    cached: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    input_shape: [usize; 4],
    /// Flat input index of the maximum for each output element.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pool with a square non-overlapping `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be nonzero");
        Self {
            window,
            cached: None,
        }
    }

    /// The pooling window edge length.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "pooling expects NCHW input");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.window;
        assert!(
            h % k == 0 && w % k == 0,
            "spatial dims ({h}, {w}) not divisible by window {k}"
        );
        let (oh, ow) = (h / k, w / k);
        let x = input.as_slice();
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        let ys = y.as_mut_slice();
        let mut argmax = vec![0usize; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = ((ni * c + ci) * h + oy * k + ky) * w + ox * k + kx;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((ni * c + ci) * oh + oy) * ow + ox;
                        ys[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
        }
        if train {
            self.cached = Some(PoolCache {
                input_shape: [n, c, h, w],
                argmax,
            });
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cached
            .as_ref()
            .expect("backward called before forward(train = true)");
        let mut gx = Tensor::zeros(&cache.input_shape);
        let gxs = gx.as_mut_slice();
        for (oidx, &iidx) in cache.argmax.iter().enumerate() {
            gxs[iidx] += grad_output.as_slice()[oidx];
        }
        gx
    }
}

/// Non-overlapping average pooling.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    input_shape: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Creates a pool with a square non-overlapping `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be nonzero");
        Self {
            window,
            input_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "pooling expects NCHW input");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.window;
        assert!(
            h % k == 0 && w % k == 0,
            "spatial dims ({h}, {w}) not divisible by window {k}"
        );
        let (oh, ow) = (h / k, w / k);
        let norm = 1.0 / (k * k) as f32;
        let x = input.as_slice();
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        let ys = y.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += x[((ni * c + ci) * h + oy * k + ky) * w + ox * k + kx];
                            }
                        }
                        ys[((ni * c + ci) * oh + oy) * ow + ox] = acc * norm;
                    }
                }
            }
        }
        if train {
            self.input_shape = Some([n, c, h, w]);
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .input_shape
            .expect("backward called before forward(train = true)");
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let norm = 1.0 / (k * k) as f32;
        let go = grad_output.as_slice();
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        let gxs = gx.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[((ni * c + ci) * oh + oy) * ow + ox] * norm;
                        for ky in 0..k {
                            for kx in 0..k {
                                gxs[((ni * c + ci) * h + oy * k + ky) * w + ox * k + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        gx
    }
}

/// Global average pooling: NCHW → `[N, C]`.
pub(crate) fn global_avg_pool(input: &Tensor) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 4, "global pooling expects NCHW input");
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    let norm = 1.0 / (h * w) as f32;
    let x = input.as_slice();
    let mut y = Tensor::zeros(&[n, c]);
    let ys = y.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            ys[ni * c + ci] = x[base..base + h * w].iter().sum::<f32>() * norm;
        }
    }
    y
}

/// Global average pooling layer: NCHW → `[N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let y = global_avg_pool(input);
        if train {
            let s = input.shape();
            self.input_shape = Some([s[0], s[1], s[2], s[3]]);
        }
        y
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .input_shape
            .expect("backward called before forward(train = true)");
        let norm = 1.0 / (h * w) as f32;
        let go = grad_output.as_slice();
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        let gxs = gx.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let g = go[ni * c + ci] * norm;
                let base = (ni * c + ci) * h * w;
                gxs[base..base + h * w].iter_mut().for_each(|v| *v = g);
            }
        }
        gx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_takes_window_maximum() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, -3.0, 2.0]).unwrap();
        let y = pool.forward(&x, false);
        assert_eq!(y.as_slice(), &[5.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, -3.0, 2.0]).unwrap();
        pool.forward(&x, true);
        let gx = pool.backward(&Tensor::from_vec(vec![1, 1, 1, 1], vec![7.0]).unwrap());
        assert_eq!(gx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_averages_window() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let y = pool.forward(&x, false);
        assert_eq!(y.as_slice(), &[3.0]);
    }

    #[test]
    fn avgpool_backward_distributes_evenly() {
        let mut pool = AvgPool2d::new(2);
        pool.forward(&Tensor::ones(&[1, 1, 2, 2]), true);
        let gx = pool.backward(&Tensor::from_vec(vec![1, 1, 1, 1], vec![8.0]).unwrap());
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_flattens_spatial_dims() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = pool.forward(&x, true);
        assert_eq!(y.shape(), &[2, 3]);
        // Channel 0 of batch 0: mean of 0..4 = 1.5.
        assert!((y.at(&[0, 0]) - 1.5).abs() < 1e-6);
        let gx = pool.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(gx.shape(), &[2, 3, 2, 2]);
        assert!((gx.as_slice()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not divisible by window")]
    fn maxpool_rejects_ragged_input() {
        let mut pool = MaxPool2d::new(2);
        let _ = pool.forward(&Tensor::ones(&[1, 1, 3, 4]), false);
    }

    #[test]
    fn avgpool_gradient_matches_finite_differences() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.7).cos());
        pool.forward(&x, true);
        let upstream = Tensor::from_fn(&[1, 2, 2, 2], |i| (i as f32) - 3.0);
        let gx = pool.backward(&upstream);
        let eps = 1e-3;
        for idx in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp: f32 = pool
                .forward(&xp, false)
                .as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = pool
                .forward(&xm, false)
                .as_slice()
                .iter()
                .zip(upstream.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - gx.as_slice()[idx]).abs() < 1e-3, "idx {idx}");
        }
    }
}
