//! Architecture-level simulator for the hybrid MRAM-SRAM sparse PIM.
//!
//! This crate models the paper's Fig. 1 system: clusters of cores (4×4
//! banks of 4×4 PE sub-arrays each), buses, and off-chip memory, plus the
//! **dense digital CIM baselines** the paper compares against (ISSCC'21
//! SRAM \[29\] and ISCAS'23 MRAM \[30\]).
//!
//! The layer is *analytic*: deployments are rolled up from tile counts ×
//! per-tile costs, and the sparse-PE tile costs are `pim-pe`'s own
//! config-level cost functions ([`pim_pe::SramPeConfig::matvec_cost`],
//! [`pim_pe::MramPeConfig::matvec_cost`] and their `leakage_power`) — the
//! same closed forms the cycle simulators charge, so there is exactly one
//! statement of what a tile costs. This is the same level of abstraction
//! as the PIMA-SIM / NVSIM flow the paper used.
//!
//! # Modules
//!
//! * [`config`] — declarative, validated [`config::ArchConfig`] design
//!   points (tile dims, bank organisation, N:M pattern, precision,
//!   worker/thread/batch split) gating the `pim-dse` sweeps.
//! * [`geometry`] — core/bank/sub-array organisation and capacity.
//! * [`workload`] — [`workload::ModelProfile`] layer-shape descriptions,
//!   including a ResNet-50-scale profile matching the paper's ~26 MB
//!   Rep-Net model.
//! * [`baseline`] — the dense SRAM/MRAM macro models.
//! * [`memory`] — bus and off-chip memory traffic costs.
//! * [`mapper`] — provisioning (storage floor + throughput target) and
//!   per-inference cost roll-up; produces [`mapper::Deployment`]s.
//! * [`edp`] — continual-learning energy-delay-product scenarios (Fig. 8).
//!
//! # Example
//!
//! ```
//! use pim_arch::mapper::Mapper;
//! use pim_arch::workload::ModelProfile;
//! use pim_sparse::NmPattern;
//!
//! let (backbone, repnet) = ModelProfile::resnet50_repnet();
//! let mapper = Mapper::dac24();
//! let hybrid = mapper.map_hybrid(&backbone, &repnet, NmPattern::new(1, 4)?)?;
//! let sram_base = mapper.map_dense_sram(&ModelProfile::merged(&backbone, &repnet))?;
//! // The hybrid needs far less area than the dense SRAM deployment.
//! assert!(hybrid.total_area() < sram_base.area * 0.6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod edp;
pub mod geometry;
pub mod mapper;
pub mod memory;
#[cfg(test)]
mod pe_model;
pub mod workload;

pub use config::{ArchConfig, ConfigError};
pub use geometry::{CoreGeometry, GeometryError};
pub use mapper::{Deployment, HybridDeployment, Mapper};
pub use workload::{LayerShape, ModelProfile};
