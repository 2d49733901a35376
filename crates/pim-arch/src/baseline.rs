//! Dense digital CIM baseline macros (paper §5.2).
//!
//! The paper compares against two published macros that do **not** support
//! sparse encoding, so the whole model maps onto them uncompressed:
//!
//! * **ISSCC'21 \[29\]** — an all-digital SRAM CIM macro. Modelled as our
//!   SRAM PE stripped of the sparse circuitry (no index decoder, no index
//!   cells): a 128×64-bit array holding 1024 dense INT8 weights, bit-serial
//!   inputs, 8 + 3 cycles per matvec.
//! * **ISCAS'23 \[30\]** — a digital STT-MRAM CIM macro. Modelled as our
//!   MRAM PE storing dense rows (64 INT8 weights in a 512-bit row, no
//!   index section), one row per cycle through the same pipeline.
//!
//! Both models are rebuilt from the Table 2 component library rather than
//! copied from the baseline papers' silicon numbers, so absolute values
//! differ from the published macros; the relative orderings (the content
//! of Fig. 7/8) are what the reproduction targets.

use pim_device::components::{MramPeComponents, SramPeComponents};
use pim_device::mtj::MtjParams;
use pim_device::sram_cell::{SramCell, SramCellKind};
use pim_device::units::{Area, Energy, Latency, Power};
use pim_device::{EnergyLedger, TechnologyParams};
use pim_pe::MatvecCost;

/// Which storage technology a dense macro uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseTech {
    /// Volatile SRAM: cheap writes, leaky cells.
    Sram,
    /// Non-volatile MRAM: expensive writes, no array leakage.
    Mram,
}

/// An analytic dense CIM macro model.
#[derive(Debug, Clone)]
pub struct DenseMacro {
    name: &'static str,
    tech: DenseTech,
    /// Dense INT8 weights resident per PE.
    weights_per_pe: u64,
    /// Output columns served per PE.
    cols_per_pe: usize,
    /// Array rows (write scheduling granularity).
    rows_per_pe: u64,
    /// Cycles for one matvec over the full resident tile.
    cycles_per_matvec: u64,
    area_per_pe: Area,
    read_power: Power,
    compute_power: Power,
    leakage_per_pe: Power,
    /// Energy to sense one stored bit during a matvec (MRAM only; zero
    /// for SRAM, whose read cost is in `read_power`).
    sense_energy_per_bit: Energy,
    /// Energy to write one weight bit.
    write_energy_per_bit: Energy,
    /// Time to write one array row.
    write_latency_per_row: Latency,
    node: TechnologyParams,
}

impl DenseMacro {
    /// The ISSCC'21-like dense SRAM macro.
    pub fn isscc21_sram() -> Self {
        let tech = TechnologyParams::tsmc28();
        let comp = SramPeComponents::dac24();
        let cell = SramCell::new(SramCellKind::Compute8T, &tech);
        // Strip the sparse circuitry: index decoder block and the 4/12
        // index share of the bit-cell array.
        let area =
            comp.total_area() - comp.index_decoder.area() - comp.bit_cell.area() * (4.0 / 12.0);
        let cells = 128u64 * 64;
        Self {
            name: "ISSCC'21 dense SRAM",
            tech: DenseTech::Sram,
            weights_per_pe: 1024,
            cols_per_pe: 8,
            rows_per_pe: 128,
            cycles_per_matvec: 8 + 3,
            area_per_pe: area,
            read_power: comp.decoder.power() + comp.bit_cell.power() * (8.0 / 12.0),
            compute_power: comp.shift_acc.power() + comp.adder.power() + comp.global_relu.power(),
            leakage_per_pe: cell.leakage() * cells as f64,
            sense_energy_per_bit: Energy::ZERO,
            write_energy_per_bit: cell.write_energy(),
            write_latency_per_row: Latency::from_ns(tech.cycle_ns()),
            node: tech,
        }
    }

    /// The ISCAS'23-like dense MRAM macro.
    pub fn iscas23_mram() -> Self {
        let tech = TechnologyParams::tsmc28();
        let comp = MramPeComponents::dac24();
        let mtj = MtjParams::dac24();
        Self {
            name: "ISCAS'23 dense MRAM",
            tech: DenseTech::Mram,
            weights_per_pe: 1024 * 64,
            cols_per_pe: 64,
            rows_per_pe: 1024,
            cycles_per_matvec: 1024 + 3,
            area_per_pe: comp.total_area(),
            read_power: comp.row_decoder_driver.power() + comp.col_decoder_driver.power(),
            compute_power: comp.parallel_shift_acc.power() + comp.adder_tree.power(),
            leakage_per_pe: comp.total_power() * 0.005,
            sense_energy_per_bit: mtj.read_energy,
            write_energy_per_bit: mtj.write_energy,
            write_latency_per_row: mtj.write_latency,
            node: tech,
        }
    }

    /// Macro name as shown in the figures.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Storage technology.
    pub fn tech(&self) -> DenseTech {
        self.tech
    }

    /// Dense weights resident per PE.
    pub fn weights_per_pe(&self) -> u64 {
        self.weights_per_pe
    }

    /// Output columns per PE.
    pub fn cols_per_pe(&self) -> usize {
        self.cols_per_pe
    }

    /// Array rows per PE.
    pub fn rows_per_pe(&self) -> u64 {
        self.rows_per_pe
    }

    /// Cycles for one matvec over the full resident tile.
    pub fn cycles_per_matvec(&self) -> u64 {
        self.cycles_per_matvec
    }

    /// Silicon area of one PE.
    pub fn area_per_pe(&self) -> Area {
        self.area_per_pe
    }

    /// Static leakage of one PE.
    pub fn leakage_per_pe(&self) -> Power {
        self.leakage_per_pe
    }

    /// Peripheral read power while a matvec streams (decoders and
    /// drivers; the SRAM macro's bit-cell read too).
    pub(crate) fn read_power(&self) -> Power {
        self.read_power
    }

    /// Compute power while a matvec streams (shift-accumulate and adder
    /// tree).
    pub(crate) fn compute_power(&self) -> Power {
        self.compute_power
    }

    /// Energy to sense one stored bit during a matvec.
    pub(crate) fn sense_energy_per_bit(&self) -> Energy {
        self.sense_energy_per_bit
    }

    /// Sustained dense-MAC throughput per PE (MACs per cycle).
    pub fn macs_per_cycle(&self) -> f64 {
        self.weights_per_pe as f64 / self.cycles_per_matvec as f64
    }

    /// Active (non-leakage) cost of one full-tile matvec.
    pub fn matvec_active_cost(&self) -> MatvecCost {
        let cycles = self.cycles_per_matvec;
        let latency = Latency::from_cycles(cycles, self.node.clock_mhz());
        let mut energy = EnergyLedger::new();
        energy.add_read(self.read_power * latency);
        energy.add_compute(self.compute_power * latency);
        if self.tech == DenseTech::Mram {
            // Sensing every stored bit once per matvec.
            let bits = self.weights_per_pe * 8;
            energy.add_read(self.sense_energy_per_bit * bits as f64);
        }
        MatvecCost {
            cycles,
            latency,
            energy,
        }
    }

    /// Cost of (re)writing `weights` dense INT8 weights spread across PEs
    /// (differential writes on MRAM toggle half the bits on average).
    pub fn write_cost(&self, weights: u64) -> MatvecCost {
        let bits = match self.tech {
            DenseTech::Sram => weights * 8,
            DenseTech::Mram => weights * 8 / 2,
        };
        let rows = weights.div_ceil(self.cols_per_pe as u64 * 8 / 8).max(1);
        // Rows written sequentially per PE but PEs in parallel; the
        // per-deployment roll-up divides by PE count. Here: per-PE view.
        let rows_per_pe_write = rows.min(self.rows_per_pe).max(1);
        let latency =
            Latency::from_ns(rows_per_pe_write as f64 * self.write_latency_per_row.as_ns());
        let cycles = (latency.as_ns() / self.node.cycle_ns()).ceil() as u64;
        let mut energy = EnergyLedger::new();
        energy.add_write(self.write_energy_per_bit * bits as f64);
        MatvecCost {
            cycles,
            latency,
            energy,
        }
    }

    /// The technology node parameters.
    pub fn node(&self) -> &TechnologyParams {
        &self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_macro_is_smaller_than_sparse_pe_but_same_family() {
        let dense = DenseMacro::isscc21_sram();
        let sparse_total = SramPeComponents::dac24().total_area();
        assert!(dense.area_per_pe() < sparse_total);
        // Removing index circuitry saves ~25% of the PE.
        assert!(dense.area_per_pe() > sparse_total * 0.6);
    }

    #[test]
    fn mram_macro_stores_64x_more_than_sram_macro() {
        let s = DenseMacro::isscc21_sram();
        let m = DenseMacro::iscas23_mram();
        assert_eq!(m.weights_per_pe() / s.weights_per_pe(), 64);
        // And per-bit area is far denser.
        let s_per_w = s.area_per_pe().as_um2() / s.weights_per_pe() as f64;
        let m_per_w = m.area_per_pe().as_um2() / m.weights_per_pe() as f64;
        assert!(s_per_w / m_per_w > 50.0);
    }

    #[test]
    fn mram_macro_is_slower_per_matvec() {
        let s = DenseMacro::isscc21_sram();
        let m = DenseMacro::iscas23_mram();
        assert!(m.cycles_per_matvec() > 50 * s.cycles_per_matvec());
        // But per-area throughput is comparable (within 3×).
        let s_eff = s.macs_per_cycle() / s.area_per_pe().as_mm2();
        let m_eff = m.macs_per_cycle() / m.area_per_pe().as_mm2();
        assert!((0.33..3.0).contains(&(m_eff / s_eff)), "{}", m_eff / s_eff);
    }

    #[test]
    fn sram_leaks_mram_does_not() {
        let s = DenseMacro::isscc21_sram();
        let m = DenseMacro::iscas23_mram();
        assert!(s.leakage_per_pe().as_mw() > 0.2);
        assert!(m.leakage_per_pe().as_mw() < 0.15);
    }

    #[test]
    fn mram_writes_cost_far_more_energy() {
        let s = DenseMacro::isscc21_sram();
        let m = DenseMacro::iscas23_mram();
        let weights = 10_000;
        let se = s.write_cost(weights).energy.write;
        let me = m.write_cost(weights).energy.write;
        assert!(me.as_pj() > 5.0 * se.as_pj(), "sram {se} mram {me}");
    }

    #[test]
    fn matvec_cost_has_no_write_or_leakage_channel() {
        let c = DenseMacro::iscas23_mram().matvec_active_cost();
        assert!(c.energy.write.is_zero());
        assert!(c.energy.leakage.is_zero());
        assert!(c.energy.read.as_pj() > 0.0);
    }
}
