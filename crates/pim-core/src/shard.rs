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
//! * **Accounting** — every tile carries its precomputed `(cost, nnz)`
//!   bill, and the coordinator replays all groups' bills interleaved back
//!   into the canonical global tile order (input-major, tile-minor). The
//!   f64 run ledger is therefore bit-identical to the unsharded one too.
//!
//! The serving layer (`pim-runtime` / `pim-cluster`) treats a sharded
//! branch as a drop-in execution backend: same `infer` signature, same
//! outputs, same ledgers — only the simulated macro topology differs.

use crate::pe_inference::{
    branch_forward, conv_out_dims, BranchLayer, LayerScratch, PeLayer, PeModule, PeRepNet,
    PeScratch,
};
use pim_nn::models::FrozenBackbone;
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_pe::PeStats;
use std::fmt;

/// One layer scattered across macro groups.
///
/// Each part is a full-width [`PeLayer`] holding only the tiles its group
/// owns; the parts share one activation broadcast and write disjoint
/// column ranges of one output buffer.
#[derive(Debug, Clone)]
pub(crate) struct ShardedLayer {
    parts: Vec<PeLayer>,
}

impl ShardedLayer {
    fn split(layer: &PeLayer, groups: usize) -> Self {
        Self {
            parts: layer.split_round_robin(groups),
        }
    }

    fn tile_count(&self) -> usize {
        self.parts.iter().map(|p| p.tiles.len()).sum()
    }

    /// Replays every group's tile bills into the run ledger in the
    /// canonical **global** tile order: original tile `t` lives at part
    /// `t % G`, local slot `t / G` (the round-robin deal inverted), so the
    /// interleaved walk visits costs exactly as the unsharded layer does.
    fn replay_costs(&self, batch: usize, stats: &mut PeStats) {
        let groups = self.parts.len();
        let total = self.tile_count();
        for _ in 0..batch {
            for t in 0..total {
                let tile = &self.parts[t % groups].tiles[t / groups];
                stats.record_matvec_cost(&tile.cost, tile.nnz);
            }
        }
    }

    /// Cumulative per-group tile ledgers (compile-time loads and
    /// refreshes).
    fn group_stats(&self) -> Vec<PeStats> {
        self.parts.iter().map(|p| p.cumulative_stats()).collect()
    }
}

impl BranchLayer for ShardedLayer {
    fn outputs(&self) -> usize {
        self.parts[0].outputs
    }

    fn reduction(&self) -> usize {
        self.parts[0].reduction
    }

    /// Direct sparse convolution: every group streams the broadcast
    /// activations through [`PeLayer::conv_forward_compute`] — gathering
    /// and quantizing its own copy of each window row (bit-identical
    /// rows, hence bit-identical scales) and writing only the output
    /// channels its tiles own — then the interleaved bills replay.
    fn conv_forward(
        &self,
        input: &Tensor,
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    ) -> Tensor {
        let s = input.shape();
        let (n, h, w) = (s[0], s[2], s[3]);
        let p0 = &self.parts[0];
        let (oh, ow) = conv_out_dims(h, w, p0.kernel, p0.stride, p0.padding);
        let mut out = Tensor::zeros(&[n, self.outputs(), oh, ow]);
        for part in &self.parts {
            part.conv_forward_compute(input, out.as_mut_slice(), scratch, pool);
        }
        self.replay_costs(n * oh * ow, stats);
        out
    }

    /// Scatter/gather batched matvec: broadcast `xs` to every group, let
    /// each write its own columns of `out`, then replay the interleaved
    /// bills. Bit-exact with the unsharded layer's `forward_batch`.
    fn forward_batch(
        &self,
        xs: &[f32],
        batch: usize,
        out: &mut [f32],
        scratch: &mut LayerScratch,
        stats: &mut PeStats,
        pool: &WorkPool,
    ) {
        for part in &self.parts {
            part.forward_batch_compute(xs, batch, out, scratch, pool);
        }
        self.replay_costs(batch, stats);
    }
}

/// A compiled branch executing across `G` simulated macro groups.
///
/// Built from an existing [`PeRepNet`] by
/// [`ShardedPeRepNet::shard`]; [`infer`](Self::infer) returns
/// bit-identical logits *and* a bit-identical run ledger, so a sharded
/// deployment is indistinguishable from single-macro execution at the
/// answer level — only the simulated topology (and, on real hardware,
/// the per-group concurrency) differs.
///
/// # Example
///
/// ```no_run
/// use pim_core::pe_inference::{PeRepNet, PeScratch};
/// use pim_core::shard::ShardedPeRepNet;
/// use pim_par::WorkPool;
/// # use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
/// # use pim_nn::tensor::Tensor;
/// let model = RepNet::new(
///     Backbone::new(BackboneConfig::tiny()),
///     RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 },
/// );
/// let backbone = model.backbone().freeze();
/// let single = PeRepNet::compile(&model)?;
/// let sharded = ShardedPeRepNet::shard(&single, 4);
/// let x = Tensor::ones(&[1, 1, 8, 8]);
/// let mut scratch = PeScratch::default();
/// let pool = WorkPool::serial();
/// let (a, sa) = single.infer(&backbone, &x, &mut scratch, &pool);
/// let (b, sb) = sharded.infer(&backbone, &x, &mut scratch, &pool);
/// assert_eq!(a.as_slice(), b.as_slice());
/// assert_eq!(sa, sb);
/// # Ok::<(), pim_pe::PeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedPeRepNet {
    modules: Vec<PeModule<ShardedLayer>>,
    classifier: ShardedLayer,
    feature_width: usize,
    groups: usize,
}

impl ShardedPeRepNet {
    /// Deals `branch`'s tiles round-robin across `groups` macro groups
    /// (clamped to at least one).
    pub fn shard(branch: &PeRepNet, groups: usize) -> Self {
        let groups = groups.max(1);
        Self {
            modules: branch
                .modules
                .iter()
                .map(|m| PeModule {
                    pools_prev: m.pools_prev,
                    proj: ShardedLayer::split(&m.proj, groups),
                    conv3: ShardedLayer::split(&m.conv3, groups),
                    conv1: ShardedLayer::split(&m.conv1, groups),
                })
                .collect(),
            classifier: ShardedLayer::split(&branch.classifier, groups),
            feature_width: branch.feature_width,
            groups,
        }
    }

    /// Number of macro groups the tiles are dealt across.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Every sharded layer in execution order.
    fn layers(&self) -> impl Iterator<Item = &ShardedLayer> {
        self.modules
            .iter()
            .flat_map(|m| [&m.proj, &m.conv3, &m.conv1])
            .chain(std::iter::once(&self.classifier))
    }

    /// Total loaded PE tiles across all groups (equals the unsharded
    /// branch's tile count — sharding moves tiles, it never duplicates).
    pub fn tile_count(&self) -> usize {
        self.layers().map(ShardedLayer::tile_count).sum()
    }

    /// Tiles resident in each macro group.
    pub fn group_tile_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.groups];
        for layer in self.layers() {
            for (g, part) in layer.parts.iter().enumerate() {
                counts[g] += part.tiles.len();
            }
        }
        counts
    }

    /// Cumulative PE ledger of each macro group: the tile ledgers of the
    /// branch this was sharded from. [`infer`](Self::infer) returns its
    /// run ledger and leaves these alone.
    pub fn group_stats(&self) -> Vec<PeStats> {
        let mut totals = vec![PeStats::new(); self.groups];
        for layer in self.layers() {
            for (g, s) in layer.group_stats().into_iter().enumerate() {
                totals[g] += s;
            }
        }
        totals
    }

    /// Cumulative statistics over every group.
    pub fn cumulative_stats(&self) -> PeStats {
        self.group_stats().into_iter().sum()
    }

    /// Runs a `[N, C, H, W]` batch across the macro groups: backbone taps
    /// from `backbone`, every learnable MAC on the grouped PEs, partial
    /// outputs gathered by disjoint placement. Returns logits and the PE
    /// run ledger — both bit-identical to [`PeRepNet::infer`] on the
    /// branch this was sharded from.
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
    use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
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
        let branch = PeRepNet::compile(&model).expect("fits PEs");
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
                let sharded = ShardedLayer::split(&layer, groups);
                let mut scratch = LayerScratch::default();
                let mut stats_s = PeStats::new();
                let mut stats_o = PeStats::new();
                let out_s = sharded.conv_forward(&x, &mut scratch, &mut stats_s, &pool);
                let out_o = layer.conv_forward_im2col(&x, &mut scratch, &mut stats_o, &pool);
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
        let backbone = model.backbone().freeze();
        let x = probe(4);
        let (want_logits, want_stats) = branch.predict(&model, &x);
        let pool = WorkPool::serial();
        let mut scratch = PeScratch::default();
        for groups in [1, 2, 3, 5] {
            let sharded = ShardedPeRepNet::shard(&branch, groups);
            // Twice: the second call exercises warmed scratch reuse.
            for round in 0..2 {
                let (logits, stats) = sharded.infer(&backbone, &x, &mut scratch, &pool);
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
        let backbone = model.backbone().freeze();
        let x = probe(6);
        let sharded = ShardedPeRepNet::shard(&branch, 3);
        let mut scratch = PeScratch::default();
        let (a, sa) = sharded.infer(&backbone, &x, &mut scratch, &WorkPool::serial());
        let wide = WorkPool::with_forced_threads(4);
        let (b, sb) = sharded.infer(&backbone, &x, &mut scratch, &wide);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa, sb);
    }

    #[test]
    fn more_groups_than_tiles_still_serves() {
        let (model, branch) = compiled_tiny();
        let groups = branch.tile_count() + 3;
        let sharded = ShardedPeRepNet::shard(&branch, groups);
        let counts = sharded.group_tile_counts();
        assert!(counts.contains(&0), "some groups must be empty");
        let x = probe(2);
        let (logits, stats) = sharded.infer(
            &model.backbone().freeze(),
            &x,
            &mut PeScratch::default(),
            &WorkPool::serial(),
        );
        assert_eq!(logits.shape(), &[2, 10]);
        assert!(stats.matvecs > 0);
    }

    #[test]
    fn group_stats_sum_to_cumulative() {
        let (_, branch) = compiled_tiny();
        let sharded = ShardedPeRepNet::shard(&branch, 2);
        let groups = sharded.group_stats();
        assert_eq!(groups.len(), 2);
        let total: PeStats = groups.into_iter().sum();
        assert_eq!(total, sharded.cumulative_stats());
        // Sharding moves the tiles' ledgers (the f64 sums only reorder).
        let whole = branch.cumulative_stats();
        assert_eq!(
            (total.loads, total.write_bits),
            (whole.loads, whole.write_bits)
        );
        assert!(total.loads > 0, "group ledgers keep the compile-time loads");
    }
}
