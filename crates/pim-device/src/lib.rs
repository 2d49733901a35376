//! Device- and technology-level models for the MRAM-SRAM hybrid sparse PIM
//! accelerator (DAC'24 reproduction).
//!
//! This crate is the bottom of the simulation stack. It provides:
//!
//! * strongly-typed physical [`units`] (area, energy, power, latency) so the
//!   higher layers cannot mix up picojoules and milliwatts,
//! * a parametric 28 nm [`tech::TechnologyParams`] description,
//! * an [`mtj::Mtj`] magnetic-tunnel-junction device model (parallel /
//!   anti-parallel resistance, set/reset energy, write latency, optional
//!   stochastic write failures),
//! * [`sram_cell`] models for the 8T compute bit-cell and the 6T index
//!   bit-cell used by the SRAM sparse PE,
//! * a [`components`] library mirroring the paper's **Table 2** hardware
//!   specs (per-component area and power of the SRAM PE and MRAM PE), and
//! * [`energy::EnergyLedger`], the accounting type every simulator layer
//!   uses to roll up leakage / read / write / compute energy.
//!
//! The paper evaluated circuits with the TSMC 28 nm PDK under Cadence
//! Spectre/HSPICE; we substitute analytical models seeded with the published
//! Table 2 aggregates (see `DESIGN.md` §2), which is the level of detail the
//! architecture study actually consumes.
//!
//! # Example
//!
//! ```
//! use pim_device::components::SramPeComponents;
//! use pim_device::units::Area;
//!
//! let sram = SramPeComponents::dac24();
//! // Total SRAM PE area matches the sum of the Table 2 rows.
//! assert!(sram.total_area() > Area::from_mm2(0.2));
//! ```

#![forbid(unsafe_code)]

pub mod components;
pub mod endurance;
pub mod energy;
pub mod mtj;
pub mod sram_cell;
pub mod tech;
pub mod units;

pub use components::{MramPeComponents, SramPeComponents};
pub use endurance::EnduranceModel;
pub use energy::EnergyLedger;
pub use mtj::{Mtj, MtjState};
pub use tech::TechnologyParams;
pub use units::{edp, Area, Energy, Latency, Power};
