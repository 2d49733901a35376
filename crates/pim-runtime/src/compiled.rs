//! Compile-once model artifacts: one immutable copy per model, shared by
//! every worker, each of which brings its own scratch.

use crate::error::RuntimeError;
use pim_core::pe_inference::{PeRepNet, PeScratch};
use pim_core::shard::ShardedPeRepNet;
use pim_nn::models::{FrozenBackbone, RepNet};
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_pe::PeStats;
use std::fmt;
use std::sync::Arc;

/// The execution backend of an artifact: one macro owning every tile, or
/// the tiles dealt across several macro groups (MARS-style). Both produce
/// bit-identical logits and ledgers; only the simulated topology differs.
#[derive(Debug)]
enum Branch {
    // Boxed: the compiled macro (tile programs) dwarfs the sharded handle.
    Single(Box<PeRepNet>),
    Sharded(ShardedPeRepNet),
}

/// A model lowered onto the PEs **once** — INT8 quantization, N:M CSC
/// compression, and column tiling all happen at [`CompiledModel::compile`]
/// time, and the loaded SRAM tile programs are cached inside. Serving a
/// request replays the cached tiles; nothing is recompiled per request.
///
/// The artifact is immutable: the frozen backbone (each convolution's
/// reduction-major weights and each BatchNorm's inference constants
/// built once) and the compiled tile programs with their per-matvec
/// costs sit behind `Arc`s, and inference runs on `&self` with scratch
/// the caller owns. A runtime serves one copy from all its workers, a
/// swap replaces it with one pointer store, and cloning an artifact only
/// bumps reference counts.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    name: String,
    /// The frozen backbone, shared with every artifact published from the
    /// same training state.
    backbone: Arc<FrozenBackbone>,
    /// The learnable branch as loaded PE tiles (single macro or sharded
    /// across macro groups).
    branch: Arc<Branch>,
    /// Expected per-sample input shape `[C, H, W]`.
    input_shape: Vec<usize>,
    num_classes: usize,
    /// PE ledger of the compile-time tile loads.
    compile_stats: PeStats,
}

impl CompiledModel {
    /// Lowers `model` through quantization, CSC compression, and tile
    /// mapping, caching the loaded PE programs, and freezes its backbone.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Compile`] if a layer tile exceeds PE
    /// capacity.
    pub fn compile(name: impl Into<String>, model: &RepNet) -> Result<Self, RuntimeError> {
        let branch = PeRepNet::compile(model)?;
        Ok(Self::new(
            name.into(),
            Arc::new(model.backbone().freeze()),
            branch,
        ))
    }

    /// Wraps an **already-lowered** branch and an already-frozen backbone
    /// into a servable artifact without recompiling: the caller hands
    /// over PE tile programs it maintains itself (e.g. `pim-learn` keeps
    /// a resident branch up to date with cheap differential SRAM writes
    /// and publishes it here for a hot swap). Only the branch is copied;
    /// the backbone `Arc` is shared.
    ///
    /// The tiles are cloned as-is — bit patterns, quantization scales,
    /// and cumulative PE ledgers included — so serving from this artifact
    /// is bit-exact with the caller's branch.
    ///
    /// # Panics
    ///
    /// Panics if the branch holds no tiles (an empty branch cannot serve).
    pub fn from_branch(
        name: impl Into<String>,
        backbone: Arc<FrozenBackbone>,
        branch: &PeRepNet,
    ) -> Self {
        assert!(
            branch.tile_count() > 0,
            "cannot build a servable artifact from an empty branch"
        );
        Self::new(name.into(), backbone, branch.clone())
    }

    fn new(name: String, backbone: Arc<FrozenBackbone>, branch: PeRepNet) -> Self {
        let cfg = backbone.config();
        Self {
            name,
            input_shape: vec![cfg.in_channels, cfg.image_size, cfg.image_size],
            num_classes: branch.num_classes(),
            compile_stats: branch.cumulative_stats(),
            backbone,
            branch: Arc::new(Branch::Single(Box::new(branch))),
        }
    }

    /// Re-deploys the artifact across `groups` simulated macro groups
    /// (MARS-style): every layer's tiles are dealt round-robin and the
    /// scatter/gather execution path reconstructs the single-macro answer
    /// — logits and run ledgers stay bit-exact. `groups <= 1` leaves the
    /// artifact on a single macro.
    ///
    /// # Panics
    ///
    /// Panics if the artifact is already sharded (shard the single-macro
    /// artifact instead of re-dealing an already-dealt one).
    pub fn shard(mut self, groups: usize) -> Self {
        if groups <= 1 {
            return self;
        }
        self.branch = match &*self.branch {
            Branch::Single(b) => Arc::new(Branch::Sharded(ShardedPeRepNet::shard(b, groups))),
            Branch::Sharded(_) => panic!("artifact {} is already sharded", self.name),
        };
        self
    }

    /// Number of simulated macro groups serving this artifact (1 when
    /// unsharded).
    pub fn macro_groups(&self) -> usize {
        match &*self.branch {
            Branch::Single(_) => 1,
            Branch::Sharded(s) => s.groups(),
        }
    }

    /// Runs a `[N, C, H, W]` batch through the cached tiles on `pool`
    /// with the caller's `scratch`, returning logits and the per-run PE
    /// ledger. Bit-identical at every pool width and every batching.
    pub(crate) fn infer(
        &self,
        batch: &Tensor,
        scratch: &mut PeScratch,
        pool: &WorkPool,
    ) -> (Tensor, PeStats) {
        match &*self.branch {
            Branch::Single(b) => b.infer(&self.backbone, batch, scratch, pool),
            Branch::Sharded(s) => s.infer(&self.backbone, batch, scratch, pool),
        }
    }

    /// Reference inference outside any runtime: runs a `[N, C, H, W]`
    /// batch through the cached tiles on a serial pool with fresh scratch
    /// and returns logits plus the per-run PE ledger. This is the ground
    /// truth a canary rollout compares a live replica's answer against.
    pub fn infer_reference(&self, batch: &Tensor) -> (Tensor, PeStats) {
        self.infer(batch, &mut PeScratch::default(), WorkPool::serial_ref())
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected per-sample input shape `[C, H, W]`.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of classifier outputs.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The frozen backbone the artifact serves, shared with every
    /// artifact built from the same `Arc`.
    pub fn backbone(&self) -> &Arc<FrozenBackbone> {
        &self.backbone
    }

    /// Loaded PE tiles cached in the artifact.
    pub fn tile_count(&self) -> usize {
        match &*self.branch {
            Branch::Single(b) => b.tile_count(),
            Branch::Sharded(s) => s.tile_count(),
        }
    }

    /// PE ledger of the one-time lowering (tile writes dominate).
    pub fn compile_stats(&self) -> PeStats {
        self.compile_stats
    }
}

impl fmt::Display for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: input {:?} -> {} classes, {} PE tiles cached",
            self.name,
            self.input_shape,
            self.num_classes,
            self.tile_count()
        )?;
        if self.macro_groups() > 1 {
            write!(f, " across {} macro groups", self.macro_groups())?;
        }
        Ok(())
    }
}
