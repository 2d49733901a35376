//! MARS-style multi-macro execution of a compiled branch.
//!
//! A single [`PeRepNet`] models one SRAM macro owning every tile of the
//! learnable branch. Real multi-macro CIM organisations (MARS) spread a
//! compressed model's tiles across several **macro groups** and stitch the
//! partial results back together. [`ShardedPeRepNet`] reproduces that
//! topology over the existing cycle-level PEs:
//!
//! * **Scatter** — each layer's tiles are dealt round-robin across `G`
//!   groups (`PeLayer::split_round_robin`); every group receives the
//!   same activation broadcast and its tiles compute only the output
//!   columns they own.
//! * **Gather** — because column tiles partition the output space, the
//!   groups write disjoint column sets of one shared output buffer. The
//!   gather is pure placement — no floating-point combining — so logits
//!   are **bit-exact** with single-macro execution by construction.
//! * **Accounting** — each group stages its per-tile `(cost, nnz)` bills
//!   (tile-local ledgers fold exactly as the fused path does), and the
//!   coordinator replays all groups' bills interleaved back into the
//!   canonical global tile order (input-major, tile-minor). The f64 run
//!   ledger is therefore bit-identical to the unsharded one too.
//!
//! The serving layer (`pim-runtime` / `pim-cluster`) treats a sharded
//! branch as a drop-in execution backend: same `predict` signature, same
//! outputs, same ledgers — only the simulated macro topology differs.

use crate::pe_inference::{
    avg_pool2, conv_out_dims, global_avg_pool, relu_in_place, PeLayer, PeRepNet, PeRunStats,
};
use pim_nn::models::RepNet;
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_pe::{PeStats, PeTelemetry};
use std::fmt;
use std::sync::Arc;

/// One layer scattered across macro groups.
///
/// Each part is a full-width [`PeLayer`] holding only the tiles its group
/// owns; the parts share one activation broadcast and write disjoint
/// column ranges of one output buffer.
#[derive(Debug, Clone)]
struct ShardedLayer {
    parts: Vec<PeLayer>,
}

impl ShardedLayer {
    fn split(layer: &PeLayer, groups: usize) -> Self {
        Self {
            parts: layer.split_round_robin(groups),
        }
    }

    fn outputs(&self) -> usize {
        self.parts[0].outputs
    }

    fn reduction(&self) -> usize {
        self.parts[0].reduction
    }

    fn tile_count(&self) -> usize {
        self.parts.iter().map(|p| p.tiles.len()).sum()
    }

    /// Replays every group's staged bills into the run ledger in the
    /// canonical **global** tile order: original tile `t` lives at part
    /// `t % G`, local slot `t / G` (the round-robin deal inverted), so the
    /// interleaved walk visits costs exactly as the unsharded layer does.
    fn replay_costs(&self, batch: usize, stats: &mut PeRunStats) {
        let groups = self.parts.len();
        let total: usize = self.parts.iter().map(|p| p.scratch.costs.len()).sum();
        for _ in 0..batch {
            for t in 0..total {
                let (cost, nnz) = self.parts[t % groups].scratch.costs[t / groups];
                stats.record_matvec_cost(&cost, nnz);
            }
        }
    }

    /// Scatter/gather batched matvec: broadcast `xs` to every group, let
    /// each write its own columns of `out`, then replay the interleaved
    /// bills. Bit-exact with the unsharded [`PeLayer::forward_batch`].
    fn forward_batch(
        &mut self,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
        stats: &mut PeRunStats,
        pool: &WorkPool,
    ) {
        for part in &mut self.parts {
            part.forward_batch_compute(xs, batch, out, pool);
        }
        self.replay_costs(batch, stats);
    }

    /// Direct sparse convolution: every group streams the broadcast
    /// activations through [`PeLayer::conv_forward_compute`] — gathering
    /// and quantizing its own copy of each window row (bit-identical
    /// rows, hence bit-identical scales) and writing only the output
    /// channels its tiles own — then the interleaved bills replay. No
    /// coordinator-level im2col or staging arena exists anymore.
    fn conv_forward(&mut self, input: &Tensor, stats: &mut PeRunStats, pool: &WorkPool) -> Tensor {
        let s = input.shape();
        let (n, h, w) = (s[0], s[2], s[3]);
        let (k, stride, padding) = {
            let p0 = &self.parts[0];
            (p0.kernel, p0.stride, p0.padding)
        };
        let (oh, ow) = conv_out_dims(h, w, k, stride, padding);
        let positions = oh * ow;
        let rows = n * positions;
        let mut out = Tensor::zeros(&[n, self.outputs(), oh, ow]);
        for part in &mut self.parts {
            part.conv_forward_compute(input, out.as_mut_slice(), pool);
        }
        self.replay_costs(rows, stats);
        out
    }

    /// Cumulative per-group tile ledgers (compile loads + matvecs).
    fn group_stats(&self) -> Vec<PeStats> {
        self.parts.iter().map(|p| p.cumulative_stats()).collect()
    }
}

/// One Rep-Net module with every layer sharded.
#[derive(Debug, Clone)]
struct ShardedModule {
    pools_prev: bool,
    proj: ShardedLayer,
    conv3: ShardedLayer,
    conv1: ShardedLayer,
}

/// A compiled branch executing across `G` simulated macro groups.
///
/// Built from an existing [`PeRepNet`] by
/// [`ShardedPeRepNet::shard`]; `predict` returns bit-identical logits
/// *and* a bit-identical run ledger, so a sharded deployment is
/// indistinguishable from single-macro execution at the answer level —
/// only the simulated topology (and, on real hardware, the per-group
/// concurrency) differs.
///
/// # Example
///
/// ```no_run
/// use pim_core::pe_inference::PeRepNet;
/// use pim_core::shard::ShardedPeRepNet;
/// # use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
/// # use pim_nn::tensor::Tensor;
/// let mut model = RepNet::new(
///     Backbone::new(BackboneConfig::tiny()),
///     RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 },
/// );
/// let mut single = PeRepNet::compile(&mut model)?;
/// let mut sharded = ShardedPeRepNet::shard(&single, 4);
/// let x = Tensor::ones(&[1, 1, 8, 8]);
/// let (a, sa) = single.predict(&mut model.clone(), &x);
/// let (b, sb) = sharded.predict(&mut model, &x);
/// assert_eq!(a.as_slice(), b.as_slice());
/// assert_eq!(sa, sb);
/// # Ok::<(), pim_pe::PeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedPeRepNet {
    modules: Vec<ShardedModule>,
    classifier: ShardedLayer,
    feature_width: usize,
    groups: usize,
    /// Classifier feature-row staging buffer.
    clf_rows: Vec<f32>,
    telemetry: Option<PeTelemetry>,
    pool: Arc<WorkPool>,
}

impl ShardedPeRepNet {
    /// Deals `branch`'s tiles round-robin across `groups` macro groups
    /// (clamped to at least one). The branch's attached pool is carried
    /// over; telemetry is **not** (the serving layer attaches its own).
    pub fn shard(branch: &PeRepNet, groups: usize) -> Self {
        let groups = groups.max(1);
        Self {
            modules: branch
                .modules
                .iter()
                .map(|m| ShardedModule {
                    pools_prev: m.pools_prev,
                    proj: ShardedLayer::split(&m.proj, groups),
                    conv3: ShardedLayer::split(&m.conv3, groups),
                    conv1: ShardedLayer::split(&m.conv1, groups),
                })
                .collect(),
            classifier: ShardedLayer::split(&branch.classifier, groups),
            feature_width: branch.feature_width,
            groups,
            clf_rows: Vec::new(),
            telemetry: None,
            pool: Arc::clone(branch.pool()),
        }
    }

    /// Number of macro groups the tiles are dealt across.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Total loaded PE tiles across all groups (equals the unsharded
    /// branch's tile count — sharding moves tiles, it never duplicates).
    pub fn tile_count(&self) -> usize {
        self.modules
            .iter()
            .map(|m| m.proj.tile_count() + m.conv3.tile_count() + m.conv1.tile_count())
            .sum::<usize>()
            + self.classifier.tile_count()
    }

    /// Tiles resident in each macro group.
    pub fn group_tile_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.groups];
        for m in &self.modules {
            for layer in [&m.proj, &m.conv3, &m.conv1] {
                for (g, part) in layer.parts.iter().enumerate() {
                    counts[g] += part.tiles.len();
                }
            }
        }
        for (g, part) in self.classifier.parts.iter().enumerate() {
            counts[g] += part.tiles.len();
        }
        counts
    }

    /// Cumulative PE ledger of each macro group (compile loads +
    /// everything executed since).
    pub fn group_stats(&self) -> Vec<PeStats> {
        let mut totals = vec![PeStats::new(); self.groups];
        for m in &self.modules {
            for layer in [&m.proj, &m.conv3, &m.conv1] {
                for (g, s) in layer.group_stats().into_iter().enumerate() {
                    totals[g] += s;
                }
            }
        }
        for (g, s) in self.classifier.group_stats().into_iter().enumerate() {
            totals[g] += s;
        }
        totals
    }

    /// Cumulative statistics over every group.
    pub fn cumulative_stats(&self) -> PeStats {
        self.group_stats().into_iter().sum()
    }

    /// Attaches a shared [`WorkPool`]; see [`PeRepNet::attach_pool`].
    pub fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        self.pool = pool;
    }

    /// The attached compute pool (inherited from the source branch).
    pub fn pool(&self) -> &Arc<WorkPool> {
        &self.pool
    }

    /// Attaches a [`PeTelemetry`] counter bundle; every `predict` run
    /// ledger is also folded into its registry. Clones share counters.
    pub fn attach_telemetry(&mut self, telemetry: PeTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Detaches the telemetry bundle.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Runs the branch across the macro groups: backbone taps from the
    /// frozen NN backbone, every learnable MAC on the grouped PEs, partial
    /// outputs gathered by disjoint placement. Returns logits and the PE
    /// run ledger — both bit-identical to [`PeRepNet::predict`] on the
    /// branch this was sharded from.
    ///
    /// # Panics
    ///
    /// Panics if `model` is not the model the source branch was compiled
    /// from (shape mismatches).
    pub fn predict(&mut self, model: &mut RepNet, input: &Tensor) -> (Tensor, PeRunStats) {
        let mut stats = PeRunStats::default();
        let pool = Arc::clone(&self.pool);
        model.attach_pool(&pool);
        let out = model.backbone_outputs(input);
        let batch = input.shape()[0];
        let mut rep: Option<Tensor> = None;
        for (module, tap) in self.modules.iter_mut().zip(&out.taps) {
            let projected = module.proj.conv_forward(tap, &mut stats, &pool);
            let mix = match (&rep, module.pools_prev) {
                (Some(r), true) => projected.add(&avg_pool2(r)).expect("rep shapes align"),
                (Some(r), false) => projected.add(r).expect("rep shapes align"),
                (None, _) => projected,
            };
            let mut a = mix;
            relu_in_place(&mut a);
            let mut h = module.conv3.conv_forward(&a, &mut stats, &pool);
            relu_in_place(&mut h);
            let mut o = module.conv1.conv_forward(&h, &mut stats, &pool);
            relu_in_place(&mut o);
            rep = Some(o);
        }
        let rep_state = rep.expect("at least one module");
        let rep_feat = global_avg_pool(&rep_state);
        let rc = rep_feat.shape()[1];
        let width = self.classifier.reduction();
        debug_assert_eq!(self.feature_width + rc, width);
        let mut rows = std::mem::take(&mut self.clf_rows);
        rows.resize(batch * width, 0.0);
        for b in 0..batch {
            let dst = &mut rows[b * width..(b + 1) * width];
            dst[..self.feature_width].copy_from_slice(
                &out.features.as_slice()[b * self.feature_width..(b + 1) * self.feature_width],
            );
            dst[self.feature_width..].copy_from_slice(&rep_feat.as_slice()[b * rc..(b + 1) * rc]);
        }
        let mut logits = Tensor::zeros(&[batch, self.classifier.outputs()]);
        self.classifier
            .forward_batch(&rows, batch, logits.as_mut_slice(), &mut stats, &pool);
        self.clf_rows = rows;
        if let Some(t) = &self.telemetry {
            t.record(&stats);
        }
        (logits, stats)
    }
}

impl fmt::Display for ShardedPeRepNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedPeRepNet: {} modules + classifier, {} tiles across {} macro groups",
            self.modules.len(),
            self.tile_count(),
            self.groups,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_nn::models::{Backbone, BackboneConfig, RepNetConfig};
    use pim_sparse::NmPattern;

    fn compiled_tiny() -> (RepNet, PeRepNet) {
        let mut model = RepNet::new(
            Backbone::new(BackboneConfig::tiny()),
            RepNetConfig {
                rep_channels: 4,
                num_classes: 10,
                seed: 21,
            },
        );
        model.apply_pattern(NmPattern::one_of_four());
        let branch = PeRepNet::compile(&mut model).expect("fits PEs");
        (model, branch)
    }

    fn probe(batch: usize) -> Tensor {
        let mut t = Tensor::zeros(&[batch, 1, 8, 8]);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37 % 113) as f32 / 56.5) - 1.0;
        }
        t
    }

    #[test]
    fn sharded_direct_conv_matches_the_unsharded_im2col_oracle() {
        use crate::pe_inference::tests::{conv_layer, probe_input};
        let x = probe_input(2, 3, 7, 7, 9);
        for groups in [2, 3] {
            for threads in [1, 4] {
                let pool = WorkPool::with_forced_threads(threads);
                let layer = conv_layer(3, 8, 3, 1, 1, NmPattern::one_of_four(), 13);
                let mut oracle = layer.clone();
                let mut sharded = ShardedLayer::split(&layer, groups);
                let mut stats_s = PeRunStats::new();
                let mut stats_o = PeRunStats::new();
                let out_s = sharded.conv_forward(&x, &mut stats_s, &pool);
                let out_o = oracle.conv_forward_im2col(&x, &mut stats_o, &pool);
                let bits = |t: &Tensor| {
                    t.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u32>>()
                };
                assert_eq!(bits(&out_s), bits(&out_o), "G={groups} t={threads}");
                assert_eq!(stats_s, stats_o, "run ledgers replay identically");
            }
        }
    }

    #[test]
    fn sharding_partitions_every_tile_without_duplication() {
        let (_, branch) = compiled_tiny();
        for groups in [1, 2, 3, 5] {
            let sharded = ShardedPeRepNet::shard(&branch, groups);
            assert_eq!(sharded.groups(), groups);
            assert_eq!(sharded.tile_count(), branch.tile_count());
            let counts = sharded.group_tile_counts();
            assert_eq!(counts.len(), groups);
            assert_eq!(counts.iter().sum::<usize>(), branch.tile_count());
        }
        assert!(ShardedPeRepNet::shard(&branch, 3)
            .to_string()
            .contains("3 macro groups"));
    }

    #[test]
    fn sharded_predict_is_bit_exact_with_single_macro() {
        let (model, mut branch) = compiled_tiny();
        let x = probe(4);
        let mut ref_model = model.clone();
        let (want_logits, want_stats) = branch.predict(&mut ref_model, &x);
        for groups in [1, 2, 3, 5] {
            let mut sharded = ShardedPeRepNet::shard(&branch, groups);
            let mut m = model.clone();
            // Twice: the second call exercises warmed scratch reuse.
            for round in 0..2 {
                let (logits, stats) = sharded.predict(&mut m, &x);
                let bits =
                    |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
                assert_eq!(
                    bits(&want_logits),
                    bits(&logits),
                    "groups={groups} round={round}: logits diverged"
                );
                assert_eq!(
                    want_stats, stats,
                    "groups={groups} round={round}: run ledger diverged"
                );
            }
        }
    }

    #[test]
    fn sharded_parallel_pool_is_bit_exact_with_serial() {
        let (model, branch) = compiled_tiny();
        let x = probe(6);
        let mut serial = ShardedPeRepNet::shard(&branch, 3);
        let mut parallel = serial.clone();
        parallel.attach_pool(Arc::new(WorkPool::with_forced_threads(4)));
        let (a, sa) = serial.predict(&mut model.clone(), &x);
        let (b, sb) = parallel.predict(&mut model.clone(), &x);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa, sb);
    }

    #[test]
    fn more_groups_than_tiles_still_serves() {
        let (model, branch) = compiled_tiny();
        let groups = branch.tile_count() + 3;
        let mut sharded = ShardedPeRepNet::shard(&branch, groups);
        let counts = sharded.group_tile_counts();
        assert!(counts.contains(&0), "some groups must be empty");
        let x = probe(2);
        let (logits, stats) = sharded.predict(&mut model.clone(), &x);
        assert_eq!(logits.shape(), &[2, 10]);
        assert!(stats.matvecs > 0);
    }

    #[test]
    fn group_stats_sum_to_cumulative() {
        let (model, branch) = compiled_tiny();
        let mut sharded = ShardedPeRepNet::shard(&branch, 2);
        let _ = sharded.predict(&mut model.clone(), &probe(1));
        let groups = sharded.group_stats();
        assert_eq!(groups.len(), 2);
        let total: PeStats = groups.into_iter().sum();
        assert_eq!(total, sharded.cumulative_stats());
        assert!(total.matvecs > 0);
        assert!(total.loads > 0, "group ledgers keep the compile-time loads");
    }
}
