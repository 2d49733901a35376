//! Cheap analytic evaluation of one design point on one workload.
//!
//! Evaluation is the `pim-arch` roll-up: build a mapper from the
//! configuration, map the hybrid deployment (sparse backbone on MRAM PEs,
//! sparse Rep-Net path on SRAM PEs), and read off latency / energy / area.
//! The tile costs inside that roll-up are `pim-pe`'s own config-level
//! cost functions, the ones the cycle simulators charge (this crate's
//! proptests pin the ledger deltas), which is what makes the analytic tier
//! trustworthy enough to prune on.

use pim_arch::mapper::MapError;
use pim_arch::workload::ModelProfile;
use pim_arch::{ArchConfig, ConfigError};
use std::fmt;

/// The model pair a sweep optimizes for.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier recorded in `TUNED.json`.
    pub name: String,
    /// The frozen backbone (maps to MRAM sparse PEs).
    pub backbone: ModelProfile,
    /// The learnable Rep-Net path (maps to SRAM sparse PEs).
    pub repnet: ModelProfile,
}

impl Workload {
    /// The paper's ResNet-50-scale backbone + Rep-Net pair.
    pub fn resnet50_repnet() -> Self {
        let (backbone, repnet) = ModelProfile::resnet50_repnet();
        Self {
            name: "resnet50_repnet".into(),
            backbone,
            repnet,
        }
    }
}

/// Analytic objectives of one design point (per-inference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticCost {
    /// Per-inference latency in nanoseconds.
    pub latency_ns: f64,
    /// Per-inference energy in picojoules.
    pub energy_pj: f64,
    /// Provisioned silicon area in mm².
    pub area_mm2: f64,
}

impl AnalyticCost {
    /// Energy-delay product (pJ·ns).
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.latency_ns
    }
}

/// Why a design point could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The configuration violates an invariant.
    Config(ConfigError),
    /// The mapper rejected the workload.
    Map(MapError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Map(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ConfigError> for EvalError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<MapError> for EvalError {
    fn from(e: MapError) -> Self {
        Self::Map(e)
    }
}

/// Evaluates one validated design point on `workload` analytically.
///
/// # Errors
///
/// [`EvalError::Config`] if the point fails validation, [`EvalError::Map`]
/// if the workload cannot be mapped (e.g. an empty model).
pub fn evaluate(config: &ArchConfig, workload: &Workload) -> Result<AnalyticCost, EvalError> {
    let mapper = config.mapper()?;
    let hybrid = mapper.map_hybrid(&workload.backbone, &workload.repnet, config.pattern)?;
    Ok(AnalyticCost {
        latency_ns: hybrid.latency().as_ns(),
        energy_pj: hybrid.total_energy().total().as_pj(),
        area_mm2: hybrid.total_area().as_mm2(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac24_point_evaluates_to_positive_objectives() {
        let cost = evaluate(&ArchConfig::dac24(), &Workload::resnet50_repnet()).unwrap();
        assert!(cost.latency_ns > 0.0);
        assert!(cost.energy_pj > 0.0);
        assert!(cost.area_mm2 > 0.0);
        assert!(cost.edp() > 0.0);
    }

    #[test]
    fn evaluation_matches_a_hand_built_mapper_roll_up() {
        // The evaluator is exactly the Mapper::dac24 roll-up for the
        // paper's point — no hidden scaling.
        let cfg = ArchConfig::dac24();
        let w = Workload::resnet50_repnet();
        let cost = evaluate(&cfg, &w).unwrap();
        let hybrid = pim_arch::Mapper::dac24()
            .map_hybrid(&w.backbone, &w.repnet, cfg.pattern)
            .unwrap();
        assert_eq!(cost.latency_ns, hybrid.latency().as_ns());
        assert_eq!(cost.energy_pj, hybrid.total_energy().total().as_pj());
        assert_eq!(cost.area_mm2, hybrid.total_area().as_mm2());
    }

    #[test]
    fn invalid_points_are_rejected() {
        let cfg = ArchConfig::dac24().with_sram_tile(0, 8);
        assert!(matches!(
            evaluate(&cfg, &Workload::resnet50_repnet()),
            Err(EvalError::Config(_))
        ));
    }
}
