//! Deployment mapping: provisioning PEs for a model and rolling up
//! per-inference latency, energy, and area.
//!
//! ## Provisioning policy
//!
//! Every deployment is **weight-stationary resident**: the whole model
//! lives in PE arrays (the premise of PIM — no weight streaming). That
//! fixes a storage floor on the PE count. Designs whose arrays stream
//! slowly (the dense MRAM macro reads one 64-weight row per cycle) are
//! additionally **throughput-provisioned**: PEs are replicated until the
//! deployment meets the same per-inference latency budget as the dense
//! SRAM baseline, which is how published macro comparisons are normalized.
//! Per-layer budgets are allocated proportionally to dense-MAC share.
//!
//! ## Energy roll-up
//!
//! Active (read/compute/buffer) energy is the sum of the per-tile costs of
//! [`SramPeConfig::matvec_cost`] and [`MramPeConfig::matvec_cost`] over all
//! tile-matvecs — the same closed forms the `pim-pe` cycle simulators
//! charge, so the roll-up is bit-identical to running them tile by tile.
//! Leakage is charged for **every PE over the whole inference latency**
//! (idle PEs leak too), which is what makes the all-SRAM baseline's
//! inference power leakage-dominated (paper Fig. 7, log scale).

use crate::baseline::DenseMacro;
use crate::geometry::CoreGeometry;
use crate::memory::MemoryModel;
use crate::workload::ModelProfile;
use pim_device::units::{edp, Area, Energy, Latency, Power};
use pim_device::EnergyLedger;
use pim_pe::{MramPeConfig, SramPeConfig};
use pim_sparse::NmPattern;
use std::fmt;

/// A provisioned deployment of one model onto one PE fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Human-readable description.
    pub name: String,
    /// PEs provisioned.
    pub pe_count: usize,
    /// Total silicon area.
    pub area: Area,
    /// Weight storage held in the arrays (bits, including index overhead).
    pub storage_bits: u64,
    /// Latency of one inference pass.
    pub latency: Latency,
    /// Energy of one inference pass (leakage charged over `latency`).
    pub energy: EnergyLedger,
}

impl Deployment {
    /// Average power over one inference.
    pub fn average_power(&self) -> Power {
        self.energy.total() / self.latency
    }

    /// Leakage share of the average power.
    pub fn leakage_power(&self) -> Power {
        self.energy.leakage / self.latency
    }

    /// Read + compute share of the average power (the paper's "Read" bar).
    pub fn read_power(&self) -> Power {
        (self.energy.read + self.energy.compute) / self.latency
    }

    /// Energy-delay product of one inference (pJ·ns).
    pub fn edp(&self) -> f64 {
        edp(self.energy.total(), self.latency)
    }

    /// Cores this deployment occupies under `geometry` (PEs per core).
    pub fn cores_needed(&self, geometry: crate::geometry::CoreGeometry) -> usize {
        self.pe_count.div_ceil(geometry.pes_per_core())
    }
}

impl fmt::Display for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} PEs, {:.2} mm², {} per inference, {}",
            self.name,
            self.pe_count,
            self.area.as_mm2(),
            self.latency,
            self.energy
        )
    }
}

/// A hybrid deployment: backbone on MRAM sparse PEs, Rep-Net path on SRAM
/// sparse PEs, running as parallel branches.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridDeployment {
    /// The frozen backbone on MRAM PEs.
    pub mram: Deployment,
    /// The learnable path on SRAM PEs.
    pub sram: Deployment,
}

impl HybridDeployment {
    /// Combined area.
    pub fn total_area(&self) -> Area {
        self.mram.area + self.sram.area
    }

    /// Combined per-inference energy.
    pub fn total_energy(&self) -> EnergyLedger {
        self.mram.energy + self.sram.energy
    }

    /// Per-inference latency (branches overlap; the slower one dominates).
    pub fn latency(&self) -> Latency {
        self.mram.latency.max(self.sram.latency)
    }

    /// Average inference power.
    pub fn average_power(&self) -> Power {
        self.total_energy().total() / self.latency()
    }

    /// Leakage share of the average power.
    pub fn leakage_power(&self) -> Power {
        self.total_energy().leakage / self.latency()
    }

    /// Read + compute share of the average power.
    pub fn read_power(&self) -> Power {
        let e = self.total_energy();
        (e.read + e.compute) / self.latency()
    }

    /// Fraction of total area spent on SRAM PEs (the paper reports ~4%).
    pub fn sram_area_fraction(&self) -> f64 {
        self.sram.area.ratio(self.total_area())
    }
}

/// Errors from mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The model had no layers.
    EmptyModel,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyModel => write!(f, "cannot map an empty model"),
        }
    }
}

impl std::error::Error for MapError {}

/// Scales every channel of a ledger.
fn scale(ledger: EnergyLedger, f: f64) -> EnergyLedger {
    EnergyLedger {
        leakage: ledger.leakage * f,
        read: ledger.read * f,
        write: ledger.write * f,
        compute: ledger.compute * f,
    }
}

/// The deployment mapper. Holds the sparse PE configurations it prices
/// tiles with, the dense baselines, the memory model, and the core
/// geometry.
pub struct Mapper {
    sram: SramPeConfig,
    mram: MramPeConfig,
    sram_dense: DenseMacro,
    mram_dense: DenseMacro,
    memory: MemoryModel,
    geometry: CoreGeometry,
}

impl Mapper {
    /// The paper's configuration: 28 nm sparse PEs, the two dense
    /// baselines, 4×4×4×4 cores.
    pub fn dac24() -> Self {
        Self {
            sram: SramPeConfig::dac24(),
            mram: MramPeConfig::dac24(),
            sram_dense: DenseMacro::isscc21_sram(),
            mram_dense: DenseMacro::iscas23_mram(),
            memory: MemoryModel::dac24(),
            geometry: CoreGeometry::dac24(),
        }
    }

    /// A mapper whose sparse PE configurations and capacity accounting
    /// follow a declarative [`ArchConfig`](crate::config::ArchConfig) design
    /// point.
    /// The dense SRAM/MRAM baselines and the memory model stay at the
    /// published reference designs — they are the fixed yardsticks every
    /// sweep point is normalized against, not part of the search space.
    ///
    /// The caller is expected to have validated the configuration
    /// ([`ArchConfig::mapper`](crate::config::ArchConfig::mapper) does
    /// both); an unvalidated degenerate point produces garbage roll-ups,
    /// not errors.
    pub fn from_config(config: &crate::config::ArchConfig) -> Self {
        Self {
            sram: config.sram.clone(),
            mram: config.mram.clone(),
            sram_dense: DenseMacro::isscc21_sram(),
            mram_dense: DenseMacro::iscas23_mram(),
            memory: MemoryModel::dac24(),
            geometry: config.geometry,
        }
    }

    /// The core geometry used for capacity accounting.
    pub fn geometry(&self) -> CoreGeometry {
        self.geometry
    }

    /// The SRAM sparse PE configuration Rep-Net tiles are priced with.
    pub(crate) fn sram_pe(&self) -> &SramPeConfig {
        &self.sram
    }

    /// The MRAM sparse PE configuration backbone tiles are priced with.
    pub(crate) fn mram_pe(&self) -> &MramPeConfig {
        &self.mram
    }

    /// Per-inference activation traffic of a model, in bits.
    fn activation_bits(model: &ModelProfile) -> u64 {
        model
            .layers
            .iter()
            .map(|l| ((l.reduction + l.outputs) * l.passes * 8) as u64)
            .sum()
    }

    /// Maps the whole model densely onto the ISSCC'21-like SRAM macro.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::EmptyModel`] for an empty model.
    pub fn map_dense_sram(&self, model: &ModelProfile) -> Result<Deployment, MapError> {
        if model.layers.is_empty() {
            return Err(MapError::EmptyModel);
        }
        let m = &self.sram_dense;
        let clock = m.node().clock_mhz();
        let mut pe_count = 0usize;
        let mut cycles_total = 0u64;
        let mut active = EnergyLedger::new();
        for layer in &model.layers {
            let row_tiles = layer.reduction.div_ceil(m.rows_per_pe() as usize);
            let col_tiles = layer.outputs.div_ceil(m.cols_per_pe());
            let tiles = row_tiles * col_tiles;
            pe_count += tiles;
            let layer_cycles = layer.passes as u64 * m.cycles_per_matvec();
            cycles_total += layer_cycles;
            let per_matvec = m.matvec_active_cost();
            active += scale(per_matvec.energy, (tiles * layer.passes) as f64);
        }
        let latency = Latency::from_cycles(cycles_total, clock);
        let mut energy = active;
        energy.add_read(self.memory.onchip_energy(Self::activation_bits(model)));
        energy.add_leakage(m.leakage_per_pe() * pe_count as f64 * latency);
        Ok(Deployment {
            name: format!("{} on {}", model.name, m.name()),
            pe_count,
            area: m.area_per_pe() * pe_count as f64,
            storage_bits: model.weights() * 8,
            latency,
            energy,
        })
    }

    /// Maps the whole model densely onto the ISCAS'23-like MRAM macro,
    /// replicating PEs until the deployment meets `budget` (typically the
    /// dense SRAM baseline's latency).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::EmptyModel`] for an empty model.
    pub fn map_dense_mram(
        &self,
        model: &ModelProfile,
        budget: Latency,
    ) -> Result<Deployment, MapError> {
        if model.layers.is_empty() {
            return Err(MapError::EmptyModel);
        }
        let m = &self.mram_dense;
        let clock = m.node().clock_mhz();
        let budget_cycles = (budget.as_ns() / m.node().cycle_ns()).max(1.0);
        let total_macs = model.macs() as f64;
        let mut pe_count = 0usize;
        let mut cycles_total = 0u64;
        let mut energy = EnergyLedger::new();
        for layer in &model.layers {
            let rows_per_col = layer.reduction.div_ceil(m.cols_per_pe());
            let total_rows = (rows_per_col * layer.outputs) as u64;
            let storage_pes = total_rows.div_ceil(m.rows_per_pe()).max(1);
            let layer_budget = (budget_cycles * layer.macs() as f64 / total_macs).max(1.0);
            let cycles_per_pass_allowed = (layer_budget / layer.passes as f64 - 3.0).max(1.0);
            let throughput_pes = (total_rows as f64 / cycles_per_pass_allowed).ceil() as u64;
            let pes = storage_pes.max(throughput_pes).min(total_rows.max(1));
            pe_count += pes as usize;
            let rows_per_pe = total_rows.div_ceil(pes);
            let layer_cycles = layer.passes as u64 * (rows_per_pe + 3);
            cycles_total += layer_cycles;
            // Sensing: every stored bit once per matvec pass.
            let bits = layer.weights() * 8;
            energy.add_read(m.sense_energy_per_bit() * (bits * layer.passes as u64) as f64);
            // Peripheral activity on every streaming PE.
            let busy = Latency::from_cycles(layer_cycles, clock);
            energy.add_read(m.read_power() * busy * pes as f64);
            energy.add_compute(m.compute_power() * busy * pes as f64);
        }
        let latency = Latency::from_cycles(cycles_total, clock);
        energy.add_read(self.memory.onchip_energy(Self::activation_bits(model)));
        energy.add_leakage(m.leakage_per_pe() * pe_count as f64 * latency);
        Ok(Deployment {
            name: format!("{} on {}", model.name, m.name()),
            pe_count,
            area: m.area_per_pe() * pe_count as f64,
            storage_bits: model.weights() * 8,
            latency,
            energy,
        })
    }

    /// Maps an N:M-sparse model onto MRAM sparse PEs under a latency
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::EmptyModel`] for an empty model.
    pub fn map_sparse_mram(
        &self,
        model: &ModelProfile,
        pattern: NmPattern,
        budget: Latency,
    ) -> Result<Deployment, MapError> {
        if model.layers.is_empty() {
            return Err(MapError::EmptyModel);
        }
        let cfg = &self.mram;
        let clock = cfg.tech.clock_mhz();
        let budget_cycles = (budget.as_ns() / cfg.tech.cycle_ns()).max(1.0);
        let total_macs = model.macs() as f64;
        let pair_bits = (cfg.weight_bits + cfg.index_bits) as u64;
        let mut pe_count = 0usize;
        let mut cycles_total = 0u64;
        let mut energy = EnergyLedger::new();
        let mut storage_bits = 0u64;
        for layer in &model.layers {
            let slots_per_col = pattern.slots_for(layer.reduction) as u64;
            let rows_per_col = slots_per_col.div_ceil(cfg.pairs_per_row as u64);
            let total_rows = rows_per_col * layer.outputs as u64;
            let total_pairs = slots_per_col * layer.outputs as u64;
            storage_bits += total_pairs * pair_bits;
            let storage_pes = total_rows.div_ceil(cfg.rows as u64).max(1);
            let layer_budget = (budget_cycles * layer.macs() as f64 / total_macs).max(1.0);
            let cycles_per_pass_allowed = (layer_budget / layer.passes as f64 - 3.0).max(1.0);
            let throughput_pes = (total_rows as f64 / cycles_per_pass_allowed).ceil() as u64;
            let pes = storage_pes.max(throughput_pes).min(total_rows.max(1));
            pe_count += pes as usize;
            let rows_per_pe = total_rows.div_ceil(pes);
            let pairs_per_pe = total_pairs.div_ceil(pes);
            let per_pe = self.mram.matvec_cost(rows_per_pe, pairs_per_pe);
            cycles_total += layer.passes as u64 * per_pe.cycles;
            let mut active = per_pe.energy;
            active.leakage = Energy::ZERO; // idle leakage added later
            energy += scale(active, (pes * layer.passes as u64) as f64);
        }
        let latency = Latency::from_cycles(cycles_total, clock);
        energy.add_read(self.memory.onchip_energy(Self::activation_bits(model)));
        energy.add_leakage(self.mram.leakage_power() * pe_count as f64 * latency);
        Ok(Deployment {
            name: format!("{} {pattern} on MRAM sparse PEs", model.name),
            pe_count,
            area: cfg.components.total_area() * pe_count as f64,
            storage_bits,
            latency,
            energy,
        })
    }

    /// Maps an N:M-sparse model onto SRAM sparse PEs, storage-provisioned:
    /// the PE's `weight_bits × M + 3`-cycle matvec already beats any
    /// latency budget the dense SRAM baseline sets, so no replication is
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::EmptyModel`] for an empty model.
    pub fn map_sparse_sram(
        &self,
        model: &ModelProfile,
        pattern: NmPattern,
    ) -> Result<Deployment, MapError> {
        if model.layers.is_empty() {
            return Err(MapError::EmptyModel);
        }
        let cfg = &self.sram;
        let clock = cfg.tech.clock_mhz();
        let pair_bits = (cfg.weight_bits + cfg.index_bits) as u64;
        let mut pe_count = 0usize;
        let mut cycles_total = 0u64;
        let mut energy = EnergyLedger::new();
        let mut storage_bits = 0u64;
        for layer in &model.layers {
            let slots_per_col = pattern.slots_for(layer.reduction) as u64;
            let groups_per_col = slots_per_col.div_ceil(cfg.rows as u64).max(1);
            let total_groups = groups_per_col * layer.outputs as u64;
            let pes = total_groups.div_ceil(cfg.column_groups as u64).max(1);
            pe_count += pes as usize;
            storage_bits += slots_per_col * layer.outputs as u64 * pair_bits;
            let per_pe = self.sram.matvec_cost(pattern.m(), 0);
            cycles_total += layer.passes as u64 * per_pe.cycles;
            let mut active = per_pe.energy;
            active.leakage = Energy::ZERO;
            energy += scale(active, (pes * layer.passes as u64) as f64);
            // Activation buffer traffic.
            let buffer_bits = (layer.reduction * layer.passes) as u64 * 8;
            energy.add_read(cfg.components.buffer_energy_per_bit * buffer_bits as f64);
        }
        let latency = Latency::from_cycles(cycles_total, clock);
        energy.add_read(self.memory.onchip_energy(Self::activation_bits(model)));
        energy.add_leakage(self.sram.leakage_power() * pe_count as f64 * latency);
        Ok(Deployment {
            name: format!("{} {pattern} on SRAM sparse PEs", model.name),
            pe_count,
            area: cfg.components.total_area() * pe_count as f64,
            storage_bits,
            latency,
            energy,
        })
    }

    /// Maps the hybrid system: sparse backbone on MRAM PEs, sparse Rep-Net
    /// path on SRAM PEs, with the dense SRAM baseline of the merged model
    /// setting the latency budget.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::EmptyModel`] if either model is empty.
    pub fn map_hybrid(
        &self,
        backbone: &ModelProfile,
        repnet: &ModelProfile,
        pattern: NmPattern,
    ) -> Result<HybridDeployment, MapError> {
        let budget = self
            .map_dense_sram(&ModelProfile::merged(backbone, repnet))?
            .latency;
        Ok(HybridDeployment {
            mram: self.map_sparse_mram(backbone, pattern, budget)?,
            sram: self.map_sparse_sram(repnet, pattern)?,
        })
    }
}

impl Default for Mapper {
    fn default() -> Self {
        Self::dac24()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_models() -> (ModelProfile, ModelProfile) {
        ModelProfile::resnet50_repnet()
    }

    #[test]
    fn fig7_area_ordering_holds() {
        let (backbone, repnet) = paper_models();
        let merged = ModelProfile::merged(&backbone, &repnet);
        let mapper = Mapper::dac24();
        let sram = mapper.map_dense_sram(&merged).unwrap();
        let mram = mapper.map_dense_mram(&merged, sram.latency).unwrap();
        let h14 = mapper
            .map_hybrid(&backbone, &repnet, NmPattern::one_of_four())
            .unwrap();
        let h18 = mapper
            .map_hybrid(&backbone, &repnet, NmPattern::one_of_eight())
            .unwrap();
        let base = sram.area.as_mm2();
        let r_mram = mram.area.as_mm2() / base;
        let r_h14 = h14.total_area().as_mm2() / base;
        let r_h18 = h18.total_area().as_mm2() / base;
        // Paper Fig. 7: MRAM ≈ 0.48, hybrid 1:4 ≈ 0.37, hybrid 1:8 ≈ 0.34.
        assert!(r_mram < 1.0, "dense MRAM below dense SRAM: {r_mram}");
        assert!(r_h14 < r_mram, "hybrid 1:4 below dense MRAM: {r_h14}");
        assert!(r_h18 <= r_h14, "hybrid 1:8 ≤ hybrid 1:4: {r_h18}");
        // Hybrid lands in the paper's ballpark (tolerant band).
        assert!((0.05..0.6).contains(&r_h14), "hybrid 1:4 ratio {r_h14}");
    }

    #[test]
    fn fig7_power_ordering_holds() {
        let (backbone, repnet) = paper_models();
        let merged = ModelProfile::merged(&backbone, &repnet);
        let mapper = Mapper::dac24();
        let sram = mapper.map_dense_sram(&merged).unwrap();
        let mram = mapper.map_dense_mram(&merged, sram.latency).unwrap();
        let h14 = mapper
            .map_hybrid(&backbone, &repnet, NmPattern::one_of_four())
            .unwrap();
        let p_sram = sram.average_power().as_mw();
        let p_mram = mram.average_power().as_mw();
        let p_h14 = h14.average_power().as_mw();
        // Paper: SRAM highest (leakage); MRAM and the hybrid are both far
        // below it (log scale). Our component-derived baselines put the
        // hybrid within a small factor of the dense MRAM macro rather than
        // strictly above it; EXPERIMENTS.md discusses the deviation.
        assert!(p_mram < 0.5 * p_sram, "mram {p_mram} < sram {p_sram}");
        assert!(p_h14 < 0.5 * p_sram, "hybrid {p_h14} < sram {p_sram}");
        assert!(p_h14 > 0.1 * p_mram, "hybrid {p_h14} ~ mram {p_mram}");
        // SRAM baseline is leakage-dominated.
        assert!(sram.leakage_power().as_mw() > sram.read_power().as_mw());
        // The MRAM fabric leaks far less than the SRAM fabric.
        assert!(mram.leakage_power().as_mw() < 0.2 * sram.leakage_power().as_mw());
    }

    #[test]
    fn hybrid_area_is_mostly_mram() {
        let (backbone, repnet) = paper_models();
        let mapper = Mapper::dac24();
        let h = mapper
            .map_hybrid(&backbone, &repnet, NmPattern::one_of_four())
            .unwrap();
        // Paper: "only about 4% of the area is dedicated to SRAM PEs".
        assert!(
            h.sram_area_fraction() < 0.35,
            "sram fraction {}",
            h.sram_area_fraction()
        );
    }

    #[test]
    fn dense_mram_meets_latency_parity() {
        let (backbone, repnet) = paper_models();
        let merged = ModelProfile::merged(&backbone, &repnet);
        let mapper = Mapper::dac24();
        let sram = mapper.map_dense_sram(&merged).unwrap();
        let mram = mapper.map_dense_mram(&merged, sram.latency).unwrap();
        // Within 2× of the budget (integer rounding slack).
        assert!(
            mram.latency.as_ns() <= sram.latency.as_ns() * 2.0,
            "mram {} vs budget {}",
            mram.latency,
            sram.latency
        );
    }

    #[test]
    fn sparsity_reduces_storage_bits() {
        let (backbone, _) = paper_models();
        let mapper = Mapper::dac24();
        let budget = Latency::from_ms(10.0);
        let d14 = mapper
            .map_sparse_mram(&backbone, NmPattern::one_of_four(), budget)
            .unwrap();
        let d18 = mapper
            .map_sparse_mram(&backbone, NmPattern::one_of_eight(), budget)
            .unwrap();
        let dense_bits = backbone.weights() * 8;
        assert!(d14.storage_bits < dense_bits / 2);
        assert!(d18.storage_bits < d14.storage_bits);
    }

    #[test]
    fn empty_model_is_rejected() {
        let mapper = Mapper::dac24();
        let empty = ModelProfile::new("empty", vec![]);
        assert_eq!(mapper.map_dense_sram(&empty), Err(MapError::EmptyModel));
        assert_eq!(
            mapper.map_dense_mram(&empty, Latency::from_ns(1.0)),
            Err(MapError::EmptyModel)
        );
    }

    #[test]
    fn storage_provisioned_dense_mram_needs_two_cores_like_the_paper() {
        // "we adopt a dual-core configuration ... as a single core could
        // only store 16MB" — a storage-provisioned dense MRAM deployment
        // of the ~26 MB model must land on exactly 2 cores.
        let (backbone, repnet) = paper_models();
        let merged = ModelProfile::merged(&backbone, &repnet);
        let mapper = Mapper::dac24();
        let dep = mapper
            .map_dense_mram(&merged, Latency::from_ms(1.0e6))
            .unwrap();
        assert_eq!(dep.cores_needed(mapper.geometry()), 2, "{dep}");
    }

    #[test]
    fn deployment_power_split_sums_to_average() {
        let (backbone, repnet) = paper_models();
        let merged = ModelProfile::merged(&backbone, &repnet);
        let mapper = Mapper::dac24();
        let d = mapper.map_dense_sram(&merged).unwrap();
        let total = d.average_power().as_mw();
        let split = d.leakage_power().as_mw() + d.read_power().as_mw();
        // write channel is zero for inference, so split ≈ total.
        assert!((total - split).abs() < total * 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::workload::LayerShape;
    use proptest::prelude::*;

    fn arb_model() -> impl Strategy<Value = ModelProfile> {
        proptest::collection::vec((16usize..512, 8usize..256, 1usize..64), 1..6).prop_map(
            |layers| {
                ModelProfile::new(
                    "prop",
                    layers
                        .into_iter()
                        .enumerate()
                        .map(|(i, (red, out, passes))| {
                            LayerShape::new(format!("l{i}"), red, out, passes)
                        })
                        .collect(),
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dense_sram_deployment_invariants(model in arb_model()) {
            let mapper = Mapper::dac24();
            let dep = mapper.map_dense_sram(&model).expect("non-empty");
            prop_assert!(dep.pe_count > 0);
            prop_assert!(dep.area.as_mm2() > 0.0);
            prop_assert!(dep.latency.as_ns() > 0.0);
            prop_assert!(dep.energy.total().as_pj() > 0.0);
            prop_assert!(dep.energy.write.is_zero(), "inference never writes");
            // Storage matches the model exactly at 8 bits per weight.
            prop_assert_eq!(dep.storage_bits, model.weights() * 8);
        }

        #[test]
        fn sparser_patterns_store_less_and_never_more_pes_than_denser(
            model in arb_model(),
        ) {
            let mapper = Mapper::dac24();
            let budget = Latency::from_ms(1.0e3);
            let d14 = mapper
                .map_sparse_mram(&model, NmPattern::one_of_four(), budget)
                .expect("non-empty");
            let d18 = mapper
                .map_sparse_mram(&model, NmPattern::one_of_eight(), budget)
                .expect("non-empty");
            prop_assert!(d18.storage_bits <= d14.storage_bits);
        }

        #[test]
        fn doubling_the_model_does_not_shrink_the_deployment(
            model in arb_model(),
        ) {
            let mapper = Mapper::dac24();
            let doubled = ModelProfile::merged(&model, &model);
            let one = mapper.map_dense_sram(&model).expect("non-empty");
            let two = mapper.map_dense_sram(&doubled).expect("non-empty");
            prop_assert!(two.pe_count >= one.pe_count);
            prop_assert!(two.area.as_um2() >= one.area.as_um2());
            prop_assert!(two.latency.as_ns() >= one.latency.as_ns());
        }

        #[test]
        fn hybrid_composes_its_branches(model in arb_model()) {
            let mapper = Mapper::dac24();
            let hybrid = mapper
                .map_hybrid(&model, &model, NmPattern::one_of_four())
                .expect("non-empty");
            let total = hybrid.total_area().as_um2();
            prop_assert!(
                (total - hybrid.mram.area.as_um2() - hybrid.sram.area.as_um2()).abs()
                    < 1e-6
            );
            let lat = hybrid.latency();
            prop_assert!(lat >= hybrid.mram.latency.min(hybrid.sram.latency));
        }
    }
}
