//! Continual-learning energy-delay product scenarios (paper Fig. 8).
//!
//! Fig. 8 compares one **training step** (forward + backward + weight
//! update) across six configurations:
//!
//! 1. dense SRAM baseline, fine-tuning **all** weights,
//! 2. dense MRAM baseline, fine-tuning **all** weights (every step rewrites
//!    the whole NVM array — the catastrophic case),
//! 3. dense SRAM baseline running Rep-Net (only ~5% of weights update),
//! 4. dense MRAM baseline running Rep-Net,
//! 5. the hybrid with sparse Rep-Net at 1:4,
//! 6. the hybrid with sparse Rep-Net at 1:8 (the normalization point).
//!
//! The backward pass is modelled as 2× the forward compute of the
//! *learnable* portion (error propagation + gradient GEMMs, the two extra
//! matrix products of eqs. 1–2); the hybrid additionally pays the
//! transposed-SRAM-buffer rewrite each step. Updates write every learnable
//! weight through the fabric's write path — 0.048 pJ / 10 ns per toggled
//! bit on MRAM versus the fast cheap SRAM write, which is the entire story
//! of the figure.

use crate::baseline::DenseTech;
use crate::mapper::{MapError, Mapper};
use crate::workload::ModelProfile;
use pim_device::sram_cell::{SramCell, SramCellKind};
use pim_device::units::{edp, Latency};
use pim_device::EnergyLedger;
use pim_sparse::NmPattern;
use std::fmt;

/// Cost of one continual-learning training step.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCost {
    /// Scenario label (figure x-axis).
    pub name: String,
    /// Energy of one step.
    pub energy: EnergyLedger,
    /// Latency of one step.
    pub latency: Latency,
}

impl TrainingCost {
    /// Energy-delay product of the step (pJ·ns).
    pub fn edp(&self) -> f64 {
        edp(self.energy.total(), self.latency)
    }
}

impl fmt::Display for TrainingCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} / step over {}, EDP {:.3e}",
            self.name,
            self.energy,
            self.latency,
            self.edp()
        )
    }
}

/// What the training step updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearningStrategy {
    /// Fine-tune every weight of the full model.
    FinetuneAll,
    /// Train only the Rep-Net path (dense).
    RepNetDense,
}

fn scale(ledger: EnergyLedger, f: f64) -> EnergyLedger {
    EnergyLedger {
        leakage: ledger.leakage * f,
        read: ledger.read * f,
        write: ledger.write * f,
        compute: ledger.compute * f,
    }
}

/// One training step on a dense baseline macro.
///
/// # Errors
///
/// Returns [`MapError::EmptyModel`] for empty models.
pub fn dense_training_step(
    mapper: &Mapper,
    backbone: &ModelProfile,
    repnet: &ModelProfile,
    tech: DenseTech,
    strategy: LearningStrategy,
) -> Result<TrainingCost, MapError> {
    let full = ModelProfile::merged(backbone, repnet);
    // Fig. 8 evaluates the baselines as-built: the paper's dual-core,
    // storage-provisioned configuration ("we adopt a dual-core
    // configuration ... as a single core could only store 16MB"), not a
    // throughput-replicated fabric. An effectively unbounded budget keeps
    // the storage floor binding, so the dense MRAM macro pays its slow
    // row-streaming in latency — the training-side cost Fig. 8 exposes.
    let storage_only = Latency::from_ms(1.0e6);
    let (dep, macro_model) = match tech {
        DenseTech::Sram => (
            mapper.map_dense_sram(&full)?,
            crate::baseline::DenseMacro::isscc21_sram(),
        ),
        DenseTech::Mram => (
            mapper.map_dense_mram(&full, storage_only)?,
            crate::baseline::DenseMacro::iscas23_mram(),
        ),
    };

    let learnable_weights = match strategy {
        LearningStrategy::FinetuneAll => full.weights(),
        LearningStrategy::RepNetDense => repnet.weights(),
    };
    let learnable_frac = learnable_weights as f64 / full.weights() as f64;

    // Forward.
    let mut energy = dep.energy;
    let mut latency = dep.latency;

    // Backward ≈ 2× forward compute on the learnable portion (error
    // propagation + gradient GEMMs). Leakage is re-charged below for the
    // extra wall-clock, so strip it from the scaled copy.
    let mut bwd = scale(dep.energy, 2.0 * learnable_frac);
    bwd.leakage = pim_device::units::Energy::ZERO;
    let bwd_latency = dep.latency * (2.0 * learnable_frac);
    energy += bwd;
    latency += bwd_latency;

    // Weight update: every learnable weight written back.
    let write = macro_model.write_cost(learnable_weights);
    energy += write.energy;
    latency += write.latency;

    // Idle leakage over the added wall-clock (the fabric leaks throughout).
    energy.add_leakage(
        macro_model.leakage_per_pe() * dep.pe_count as f64 * (bwd_latency + write.latency),
    );

    let name = match (tech, strategy) {
        (DenseTech::Sram, LearningStrategy::FinetuneAll) => "SRAM[29] finetune-all",
        (DenseTech::Mram, LearningStrategy::FinetuneAll) => "MRAM[30] finetune-all",
        (DenseTech::Sram, LearningStrategy::RepNetDense) => "SRAM[29] RepNet (dense)",
        (DenseTech::Mram, LearningStrategy::RepNetDense) => "MRAM[30] RepNet (dense)",
    };
    Ok(TrainingCost {
        name: name.to_owned(),
        energy,
        latency,
    })
}

/// One training step on the hybrid: frozen sparse backbone on MRAM, sparse
/// Rep-Net learning in SRAM with transposed-buffer backpropagation.
///
/// # Errors
///
/// Returns [`MapError::EmptyModel`] for empty models.
pub fn hybrid_training_step(
    mapper: &Mapper,
    backbone: &ModelProfile,
    repnet: &ModelProfile,
    pattern: NmPattern,
) -> Result<TrainingCost, MapError> {
    let hybrid = mapper.map_hybrid(backbone, repnet, pattern)?;

    // Forward: both branches.
    let mut energy = hybrid.total_energy();
    let mut latency = hybrid.latency();

    // Backward: 2× the Rep-Net branch forward (error prop + gradients),
    // entirely in SRAM PEs.
    let mut bwd = scale(hybrid.sram.energy, 2.0);
    bwd.leakage = pim_device::units::Energy::ZERO;
    energy += bwd;
    let bwd_latency = hybrid.sram.latency * 2.0;
    latency += bwd_latency;

    // Transposed-buffer refresh: the learnable (compressed) weights are
    // transposed and rewritten into SRAM buffers every step.
    let sram = mapper.sram_pe();
    let slots = repnet.slots(pattern);
    let pair_bits = (sram.weight_bits + sram.index_bits) as u64;
    let w_cell = SramCell::new(SramCellKind::Compute8T, &sram.tech);
    let transpose_write = w_cell.write_energy() * (slots * pair_bits) as f64;
    energy.add_write(transpose_write);

    // Weight update: only the surviving (compressed) Rep-Net weights are
    // rewritten, in SRAM, one full PE row (every column group) per cycle.
    energy.add_write(w_cell.write_energy() * (slots * sram.weight_bits as u64) as f64);
    let rows = slots.div_ceil(sram.capacity_slots() as u64);
    let update_latency = Latency::from_ns(rows as f64 * sram.tech.cycle_ns());
    latency += update_latency;

    // Idle leakage of the whole hybrid fabric over the added wall-clock.
    let sram_leak = sram.leakage_power() * hybrid.sram.pe_count as f64;
    let mram_leak = mapper.mram_pe().leakage_power() * hybrid.mram.pe_count as f64;
    energy.add_leakage((sram_leak + mram_leak) * (bwd_latency + update_latency));

    Ok(TrainingCost {
        name: format!("Hybrid {pattern} sparse RepNet"),
        energy,
        latency,
    })
}

/// Computes the full Fig. 8 series in the paper's bar order; values are
/// raw EDPs (the benches normalize to the last entry, Ours 1:8).
///
/// # Errors
///
/// Returns [`MapError::EmptyModel`] for empty models.
pub fn fig8_series(
    mapper: &Mapper,
    backbone: &ModelProfile,
    repnet: &ModelProfile,
) -> Result<Vec<TrainingCost>, MapError> {
    Ok(vec![
        dense_training_step(
            mapper,
            backbone,
            repnet,
            DenseTech::Sram,
            LearningStrategy::FinetuneAll,
        )?,
        dense_training_step(
            mapper,
            backbone,
            repnet,
            DenseTech::Mram,
            LearningStrategy::FinetuneAll,
        )?,
        dense_training_step(
            mapper,
            backbone,
            repnet,
            DenseTech::Sram,
            LearningStrategy::RepNetDense,
        )?,
        dense_training_step(
            mapper,
            backbone,
            repnet,
            DenseTech::Mram,
            LearningStrategy::RepNetDense,
        )?,
        hybrid_training_step(mapper, backbone, repnet, NmPattern::one_of_four())?,
        hybrid_training_step(mapper, backbone, repnet, NmPattern::one_of_eight())?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mapper, ModelProfile, ModelProfile) {
        let (b, r) = ModelProfile::resnet50_repnet();
        (Mapper::dac24(), b, r)
    }

    #[test]
    fn fig8_ordering_matches_paper() {
        let (mapper, backbone, repnet) = setup();
        let series = fig8_series(&mapper, &backbone, &repnet).unwrap();
        let edps: Vec<f64> = series.iter().map(TrainingCost::edp).collect();
        let ours18 = edps[5];
        let norm: Vec<f64> = edps.iter().map(|e| e / ours18).collect();
        // Finetune-all beats everything for worst EDP.
        assert!(norm[0] > norm[2], "SRAM finetune-all > SRAM RepNet");
        assert!(norm[1] > norm[3], "MRAM finetune-all > MRAM RepNet");
        // MRAM finetune-all is the catastrophic case (NVM write wall).
        assert!(norm[1] > norm[0], "MRAM finetune-all worst: {norm:?}");
        // The hybrids are the best two.
        assert!(norm[4] < norm[2] && norm[4] < norm[3], "{norm:?}");
        assert!(norm[5] < norm[2] && norm[5] < norm[3], "{norm:?}");
        // 1:4 and 1:8 land within a small factor of each other. (In our
        // cycle model the 1:8 index sweep costs extra latency that roughly
        // offsets its smaller update set; the paper normalizes to 1:8.)
        assert!((0.2..5.0).contains(&(norm[4] / norm[5])), "{norm:?}");
        // Log-scale span: worst case is orders of magnitude above ours.
        assert!(norm[1] > 10.0, "span too small: {norm:?}");
    }

    #[test]
    fn mram_finetune_all_pays_the_nvm_write_wall() {
        let (mapper, backbone, repnet) = setup();
        let mram = dense_training_step(
            &mapper,
            &backbone,
            &repnet,
            DenseTech::Mram,
            LearningStrategy::FinetuneAll,
        )
        .unwrap();
        let sram = dense_training_step(
            &mapper,
            &backbone,
            &repnet,
            DenseTech::Sram,
            LearningStrategy::FinetuneAll,
        )
        .unwrap();
        // Same weights rewritten, but the MTJ set/reset energy dwarfs the
        // SRAM cell write energy...
        assert!(
            mram.energy.write.as_pj() > 5.0 * sram.energy.write.as_pj(),
            "mram write {} vs sram write {}",
            mram.energy.write,
            sram.energy.write
        );
        // ...and the whole step takes far longer on the NVM fabric.
        assert!(mram.latency.as_ns() > 10.0 * sram.latency.as_ns());
    }

    #[test]
    fn hybrid_write_energy_is_tiny_fraction() {
        let (mapper, backbone, repnet) = setup();
        let cost =
            hybrid_training_step(&mapper, &backbone, &repnet, NmPattern::one_of_eight()).unwrap();
        let frac = cost.energy.write.as_pj() / cost.energy.total().as_pj();
        assert!(frac < 0.05, "write fraction {frac}");
    }

    #[test]
    fn repnet_strategy_cuts_step_latency_on_mram() {
        let (mapper, backbone, repnet) = setup();
        let all = dense_training_step(
            &mapper,
            &backbone,
            &repnet,
            DenseTech::Mram,
            LearningStrategy::FinetuneAll,
        )
        .unwrap();
        let rep = dense_training_step(
            &mapper,
            &backbone,
            &repnet,
            DenseTech::Mram,
            LearningStrategy::RepNetDense,
        )
        .unwrap();
        assert!(rep.latency < all.latency);
        assert!(rep.energy.write < all.energy.write);
    }

    #[test]
    fn hybrid_step_prices_the_mappers_own_pe_configs() {
        // A 64×8 SRAM tile and 4-bit weights: pairs are 4 + 4 = 8 bits, a
        // PE row of every column group holds 512 slots, and both fabrics
        // leak at this config's rates — none of it the paper's point.
        let config = crate::ArchConfig::dac24()
            .with_sram_tile(64, 8)
            .with_weight_bits(4)
            .validated()
            .unwrap();
        let mapper = config.mapper().unwrap();
        let (_, backbone, repnet) = setup();
        let pattern = NmPattern::one_of_eight();
        let cost = hybrid_training_step(&mapper, &backbone, &repnet, pattern).unwrap();

        let hybrid = mapper.map_hybrid(&backbone, &repnet, pattern).unwrap();
        let (sram, mram) = (&config.sram, &config.mram);
        let slots = repnet.slots(pattern);
        let w_cell = SramCell::new(SramCellKind::Compute8T, &sram.tech);
        let mut energy = hybrid.total_energy();
        let mut bwd = scale(hybrid.sram.energy, 2.0);
        bwd.leakage = pim_device::units::Energy::ZERO;
        energy += bwd;
        energy.add_write(w_cell.write_energy() * (slots * 8) as f64);
        energy.add_write(w_cell.write_energy() * (slots * 4) as f64);
        let update = Latency::from_ns(slots.div_ceil(512) as f64 * sram.tech.cycle_ns());
        let idle = hybrid.sram.latency * 2.0 + update;
        let leak = sram.leakage_power() * hybrid.sram.pe_count as f64
            + mram.leakage_power() * hybrid.mram.pe_count as f64;
        energy.add_leakage(leak * idle);

        assert_eq!(cost.energy, energy);
        assert_eq!(
            cost.latency,
            hybrid.latency() + hybrid.sram.latency * 2.0 + update
        );
    }

    #[test]
    fn training_cost_display_has_edp() {
        let (mapper, backbone, repnet) = setup();
        let cost =
            hybrid_training_step(&mapper, &backbone, &repnet, NmPattern::one_of_four()).unwrap();
        assert!(cost.to_string().contains("EDP"));
    }
}
