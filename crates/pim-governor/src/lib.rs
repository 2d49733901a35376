//! # pim-governor — SLO-aware adaptive runtime governance
//!
//! The serving stack below this crate is *mechanism*: `pim-runtime`
//! batches and hot-swaps, `pim-cluster` routes and rolls out,
//! `pim-telemetry` measures. This crate is the *policy* that closes the
//! loop — the ARAS-style step the paper's roadmap points at: instead of
//! fixing the sparsity scheme at compile time, adapt **which branch
//! serves each tenant at runtime**, driven by the pressure the stack is
//! already reporting.
//!
//! A [`Governor`] owns:
//!
//! * **Per-tenant model slots** — each [`TenantSpec`] carries a branch
//!   pair (full-quality 1:4/INT8 and a degraded 1:8 sibling, typically
//!   built together by `pim-learn`'s `compiled_pair`), a [`Priority`]
//!   class, and a [`TenantSlo`]. Tenant *i* is cluster model slot *i*.
//! * **A pressure signal** — [`PressureSample`], folded per tick from
//!   queue-depth gauges, the admission ledger, and windowed per-stage
//!   latency histograms ([`pim_telemetry::HistogramSnapshot`]).
//! * **A degradation ladder with hysteresis** — under sustained pressure
//!   ([`LadderConfig`]: watermarks, streaks, dwell), one rung per tick:
//!   demote the lowest-priority tenant to its cheaper branch (existing
//!   hot-swap path), widen batch coalescing, then shed at admission;
//!   recovery pops the applied rungs in **exact reverse order**.
//! * **Per-tenant telemetry** — `pim_governor_*` families (current tier,
//!   demotions/promotions, shed counts, latency/energy summaries); the
//!   [`GovernorReport`] ledgers are a view of them.
//!
//! # Determinism contract
//!
//! [`Governor::tick_with`] takes a caller-supplied [`PressureSample`]:
//! given a fixed tick schedule and the same tenant set, the decision
//! trace ([`GovernorEvent`] sequence) is reproducible exactly — the
//! integration tests pin demote/promote sequences, and post-recovery
//! serving is bit-exact with a never-degraded fleet because promotion
//! swaps the *same* full artifact back in. [`Governor::tick`] is the
//! live wrapper that samples real telemetry.
//!
//! # Example
//!
//! ```no_run
//! use pim_cluster::ClusterBuilder;
//! use pim_governor::{Governor, Priority, TenantSlo, TenantSpec};
//! # use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
//! # use pim_runtime::CompiledModel;
//! # let model = RepNet::new(
//! #     Backbone::new(BackboneConfig::tiny()),
//! #     RepNetConfig { rep_channels: 4, num_classes: 5, seed: 2 },
//! # );
//! # let full = CompiledModel::compile("full", &model).expect("fits the PEs");
//! # let degraded = CompiledModel::compile("degraded", &model).expect("fits the PEs");
//! let mut builder = Governor::builder();
//! let tenant = builder.tenant(TenantSpec {
//!     name: "interactive".into(),
//!     priority: Priority::High,
//!     slo: TenantSlo::default(),
//!     full,
//!     degraded,
//! });
//! let governor = builder.start(ClusterBuilder::new().replicas(2))?;
//! // ... submit tenant traffic, tick the policy, read the report.
//! let report = governor.report();
//! assert!(report.conserves());
//! # Ok::<(), pim_governor::GovernorError>(())
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod governor;
pub mod ladder;
pub mod pressure;
pub mod report;
pub mod telemetry;
pub mod tenant;

pub use error::GovernorError;
pub use governor::{Governor, GovernorBuilder, GovernorConfig, GovernorTicket};
pub use ladder::{Ladder, LadderAction, LadderConfig, LadderTenant};
pub use pressure::{PressureSample, PressureSampler};
pub use report::{GovernorEvent, GovernorReport, TenantReport};
pub use tenant::{Priority, TenantId, TenantSlo, TenantSpec, Tier};

// Re-exports so downstream users build against one surface.
pub use pim_cluster::{Cluster, ClusterBuilder, ClusterError, ClusterStats};
pub use pim_runtime::{BatchPolicy, CompiledModel, InferResponse, ModelId};
