//! Compile-once model artifacts and their per-worker replicas.

use crate::error::RuntimeError;
use pim_core::pe_inference::PeRepNet;
use pim_core::shard::ShardedPeRepNet;
use pim_nn::models::RepNet;
use pim_nn::tensor::Tensor;
use pim_par::WorkPool;
use pim_pe::{PeStats, PeTelemetry};
use std::fmt;
use std::sync::Arc;

/// The execution backend of an artifact: one macro owning every tile, or
/// the tiles dealt across several macro groups (MARS-style). Both produce
/// bit-identical logits and ledgers; only the simulated topology differs.
#[derive(Debug, Clone)]
enum Branch {
    // Boxed: the compiled macro (tile programs + scratch) dwarfs the
    // sharded handle, and artifacts move through worker queues by value.
    Single(Box<PeRepNet>),
    Sharded(ShardedPeRepNet),
}

impl Branch {
    fn tile_count(&self) -> usize {
        match self {
            Branch::Single(b) => b.tile_count(),
            Branch::Sharded(s) => s.tile_count(),
        }
    }

    fn attach_telemetry(&mut self, telemetry: PeTelemetry) {
        match self {
            Branch::Single(b) => b.attach_telemetry(telemetry),
            Branch::Sharded(s) => s.attach_telemetry(telemetry),
        }
    }

    fn detach_telemetry(&mut self) {
        match self {
            Branch::Single(b) => b.detach_telemetry(),
            Branch::Sharded(s) => s.detach_telemetry(),
        }
    }

    fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        match self {
            Branch::Single(b) => b.attach_pool(pool),
            Branch::Sharded(s) => s.attach_pool(pool),
        }
    }

    fn predict(&mut self, model: &mut RepNet, batch: &Tensor) -> (Tensor, PeStats) {
        match self {
            Branch::Single(b) => b.predict(model, batch),
            Branch::Sharded(s) => s.predict(model, batch),
        }
    }
}

/// A model lowered onto the PEs **once** — INT8 quantization, N:M CSC
/// compression, and column tiling all happen at [`CompiledModel::compile`]
/// time, and the loaded SRAM tile programs are cached inside. Serving a
/// request replays the cached tiles; nothing is recompiled per request.
///
/// The artifact is the unit of registration with the runtime: each worker
/// thread takes a replica (its own set of
/// simulated PEs plus a frozen-backbone clone), so workers never contend
/// on shared PE state.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    name: String,
    /// Frozen backbone + reference branch; cloned per worker because the
    /// forward pass needs `&mut` (activation workspaces).
    model: RepNet,
    /// The learnable branch as loaded PE tiles (single macro or sharded
    /// across macro groups).
    branch: Branch,
    /// Expected per-sample input shape `[C, H, W]`.
    input_shape: Vec<usize>,
    num_classes: usize,
    /// PE ledger of the compile-time tile loads.
    compile_stats: PeStats,
}

impl CompiledModel {
    /// Lowers `model` through quantization, CSC compression, and tile
    /// mapping, caching the loaded PE programs.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Compile`] if a layer tile exceeds PE
    /// capacity.
    pub fn compile(name: impl Into<String>, model: &RepNet) -> Result<Self, RuntimeError> {
        let mut model = model.clone();
        let branch = PeRepNet::compile(&mut model)?;
        let cfg = model.backbone().config().clone();
        let num_classes = model.classifier().inner().weight_matrix().cols();
        let compile_stats = branch.cumulative_stats();
        Ok(Self {
            name: name.into(),
            model,
            branch: Branch::Single(Box::new(branch)),
            input_shape: vec![cfg.in_channels, cfg.image_size, cfg.image_size],
            num_classes,
            compile_stats,
        })
    }

    /// Wraps an **already-lowered** branch into a servable artifact
    /// without recompiling: the caller hands over a model and the PE tile
    /// programs it maintains itself (e.g. `pim-learn` keeps a resident
    /// branch up to date with cheap differential SRAM writes and publishes
    /// it here for a hot swap).
    ///
    /// The tiles are cloned as-is — bit patterns, quantization scales,
    /// and cumulative PE ledgers included — so serving from this artifact
    /// is bit-exact with serving from the caller's branch.
    ///
    /// # Panics
    ///
    /// Panics if the branch holds no tiles (an empty branch cannot serve).
    pub fn from_branch(name: impl Into<String>, model: &RepNet, branch: &PeRepNet) -> Self {
        assert!(
            branch.tile_count() > 0,
            "cannot build a servable artifact from an empty branch"
        );
        let cfg = model.backbone().config().clone();
        let num_classes = model.classifier().inner().weight_matrix().cols();
        // The artifact will be served under the runtime's own telemetry
        // (attached at registration/swap); drop whatever the caller had
        // attached — a published clone must not keep feeding e.g. the
        // learn-side `source="learn"` counters from serving traffic.
        let mut branch = branch.clone();
        branch.detach_telemetry();
        let compile_stats = branch.cumulative_stats();
        Self {
            name: name.into(),
            model: model.clone(),
            branch: Branch::Single(Box::new(branch)),
            input_shape: vec![cfg.in_channels, cfg.image_size, cfg.image_size],
            num_classes,
            compile_stats,
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
        self.branch = match self.branch {
            Branch::Single(b) => Branch::Sharded(ShardedPeRepNet::shard(&b, groups)),
            Branch::Sharded(_) => panic!("artifact {} is already sharded", self.name),
        };
        self
    }

    /// Number of simulated macro groups serving this artifact (1 when
    /// unsharded).
    pub fn macro_groups(&self) -> usize {
        match &self.branch {
            Branch::Single(_) => 1,
            Branch::Sharded(s) => s.groups(),
        }
    }

    /// Reference inference on a private clone of the artifact: runs a
    /// `[N, C, H, W]` batch through the cached tiles and returns logits
    /// plus the per-run PE ledger, without touching the artifact's own
    /// state or any runtime. This is the ground truth a canary rollout
    /// compares a live replica's answer against.
    pub fn infer_reference(&self, batch: &Tensor) -> (Tensor, PeStats) {
        let mut replica = self.replica();
        // A served artifact's counters are its runtime's ledger; a
        // reference run is not serving.
        replica.branch.detach_telemetry();
        replica.infer_batch(batch)
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

    /// Loaded PE tiles cached in the artifact.
    pub fn tile_count(&self) -> usize {
        self.branch.tile_count()
    }

    /// PE ledger of the one-time lowering (tile writes dominate).
    pub fn compile_stats(&self) -> PeStats {
        self.compile_stats
    }

    /// Routes the artifact's per-run PE ledger deltas — and those of every
    /// [`replica`](Self::replica) cloned afterwards, which share the same
    /// underlying counters — into `telemetry`.
    pub(crate) fn attach_pe_telemetry(&mut self, telemetry: PeTelemetry) {
        self.branch.attach_telemetry(telemetry);
    }

    /// Hands the artifact (and every replica cloned afterwards) the
    /// runtime's shared intra-request compute pool.
    pub(crate) fn attach_pool(&mut self, pool: Arc<WorkPool>) {
        self.branch.attach_pool(pool);
    }

    /// A worker-private copy: its own simulated PEs and backbone.
    pub(crate) fn replica(&self) -> ModelReplica {
        ModelReplica {
            model: self.model.clone(),
            branch: self.branch.clone(),
        }
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

/// One worker's private copy of a compiled model.
#[derive(Debug)]
pub(crate) struct ModelReplica {
    model: RepNet,
    branch: Branch,
}

impl ModelReplica {
    /// Runs a `[N, C, H, W]` batch through the cached tiles, returning
    /// logits and the per-run PE ledger.
    pub fn infer_batch(&mut self, batch: &Tensor) -> (Tensor, PeStats) {
        self.branch.predict(&mut self.model, batch)
    }
}
