//! The near-memory MRAM sparse PE (paper Fig. 5).
//!
//! A 1024×512 MTJ array stores the sparse-encoded weights and their CSC
//! indices; all arithmetic happens in the digital periphery. Each 512-bit
//! row packs `pairs_per_row` weight+index pairs (12 bits each at
//! INT8 + 4-bit index). A matvec streams the rows of each logical column
//! through the 3-stage pipeline of Fig. 5-5:
//!
//! 1. **Read idx & weight** — the row decoder activates one row; sense
//!    amplifiers deliver the packed pairs;
//! 2. **Fetch activation** — the MUX selects, per pair, the activation at
//!    `group·M + offset` from the activation buffer;
//! 3. **Shift-acc** — the parallel shift-and-accumulator multiplies each
//!    INT8 weight by its activation (shift-add over the 8 weight bits,
//!    fully unrolled in hardware) and accumulates; the adder tree folds
//!    the per-pair accumulators into the column output.
//!
//! Steady-state throughput is one row per cycle; a matvec over a tile with
//! `R` occupied rows takes `R + 2` (pipeline fill) `+ 1` (adder-tree
//! drain) cycles.
//!
//! Writes are the expensive path: every toggled MTJ costs the Table 2
//! set/reset energy (0.048 pJ) and a 10 ns pulse, with a read-before-write
//! driver so **differential** updates only pay for changed bits. This
//! asymmetry is exactly why the frozen backbone lives here and the
//! learnable weights do not.

use crate::error::PeError;
use crate::kernel::FlatKernel;
use crate::stats::{LoadReport, MatvecCost, MatvecReport, PeStats};
use crate::SparsePe;
use pim_device::components::MramPeComponents;
use pim_device::mtj::{Mtj, MtjParams, MtjState};
use pim_device::units::{Latency, Power};
use pim_device::{EnergyLedger, TechnologyParams};
use pim_sparse::csc::CscSlot;
use pim_sparse::CscMatrix;

/// Geometry and technology of an MRAM sparse PE.
#[derive(Debug, Clone, PartialEq)]
pub struct MramPeConfig {
    /// Array rows.
    pub rows: usize,
    /// Row width in bits.
    pub row_bits: usize,
    /// Weight resolution in bits.
    pub weight_bits: u32,
    /// Hardware index field width in bits.
    pub index_bits: u32,
    /// Weight+index pairs packed per row.
    pub pairs_per_row: usize,
    /// Technology point.
    pub tech: TechnologyParams,
    /// Peripheral component library.
    pub components: MramPeComponents,
    /// MTJ device corner.
    pub mtj: MtjParams,
    /// When set, every weight bit of a [`SparsePe::load`] is driven through
    /// the stochastic [`Mtj::write_stochastic`] channel with write-verify
    /// retries; when `None` (the default) writes are ideal.
    pub stochastic: Option<StochasticWrites>,
}

/// Configuration of the stochastic write channel (see
/// [`MramPeConfig::stochastic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StochasticWrites {
    /// Seed of the deterministic per-load noise stream.
    pub seed: u64,
    /// Write-verify retry budget per bit (0 = single pulse, no verify).
    pub max_retries: u32,
}

impl MramPeConfig {
    /// The paper's 1024×512 sub-array at 28 nm: 12-bit pairs, 42 per row
    /// (504 of 512 bits used; the remainder is spare/ECC).
    pub fn dac24() -> Self {
        Self {
            rows: 1024,
            row_bits: 512,
            weight_bits: 8,
            index_bits: 4,
            pairs_per_row: 42,
            tech: TechnologyParams::tsmc28(),
            components: MramPeComponents::dac24(),
            mtj: MtjParams::dac24(),
            stochastic: None,
        }
    }

    /// Compressed slots the array holds.
    pub fn capacity_slots(&self) -> usize {
        self.rows * self.pairs_per_row
    }

    /// Raw storage capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        (self.rows * self.row_bits) as u64
    }

    /// Standby leakage of the digital periphery, modelled as 0.5% of its
    /// active power (clock-gated standby at 28 nm). The MTJ array itself is
    /// non-volatile and leaks nothing — the core MRAM advantage.
    pub fn leakage_power(&self) -> Power {
        self.components.total_power() * 0.005
    }

    /// Peripheral leakage over `elapsed`.
    pub(crate) fn leakage_over(&self, elapsed: Latency) -> EnergyLedger {
        let mut e = EnergyLedger::new();
        e.add_leakage(self.leakage_power() * elapsed);
        e
    }

    /// The closed-form bill of one matvec streaming `rows_used` stored rows
    /// that carry `pairs` weight+index pairs, through Fig. 5's 3-stage
    /// pipeline: one row per cycle + 3 (fill/drain), every stored pair
    /// bit sensed, decoders and shift-acc/adder tree active throughout. It
    /// depends only on the stored layout and this configuration, never on
    /// the activations, so the PE precomputes it at load time and the
    /// architecture mapper prices tiles with it.
    pub fn matvec_cost(&self, rows_used: u64, pairs: u64) -> MatvecCost {
        let cycles = rows_used + 3;
        let latency = Latency::from_cycles(cycles, self.tech.clock_mhz());
        let comp = &self.components;
        let mut energy = self.leakage_over(latency);
        let pair_bits = (self.weight_bits + self.index_bits) as u64;
        energy.add_read(self.mtj.read_energy * (pairs * pair_bits) as f64);
        energy.add_read(
            (comp.row_decoder_driver.power() + comp.col_decoder_driver.power()) * latency,
        );
        energy.add_compute((comp.parallel_shift_acc.power() + comp.adder_tree.power()) * latency);
        MatvecCost {
            cycles,
            latency,
            energy,
        }
    }
}

impl Default for MramPeConfig {
    fn default() -> Self {
        Self::dac24()
    }
}

/// One stored array row: which logical column it serves and its pairs.
#[derive(Debug, Clone)]
struct StoredRow {
    logical_col: usize,
    /// `(logical_group, slot)` pairs packed in this row.
    pairs: Vec<(usize, CscSlot)>,
}

/// The MRAM sparse PE simulator. See the module-level documentation for
/// the pipeline and energy models.
///
/// Cloning a loaded PE duplicates its tile program and statistics — the
/// serving runtime uses this to replicate compiled tiles across workers.
#[derive(Debug, Clone)]
pub struct MramSparsePe {
    config: MramPeConfig,
    rows: Vec<StoredRow>,
    tile: Option<TileInfo>,
    /// Flat occupied-only execution kernel, compiled at load time from the
    /// packed rows — *after* any stochastic write faults land, so corrupted
    /// weights flow into the compiled program exactly as stored.
    kernel: FlatKernel,
    /// Analytic per-matvec cost of the resident tile, precomputed at load
    /// time (the cycle/energy model is data-independent).
    cost: MatvecCost,
    stats: PeStats,
}

#[derive(Debug, Clone)]
struct TileInfo {
    rows: usize,
    cols: usize,
    m: usize,
    occupied_slots: u64,
}

impl MramSparsePe {
    /// Creates a PE with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(MramPeConfig::dac24())
    }

    /// Creates a PE with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or a pair does not fit the row.
    pub fn with_config(config: MramPeConfig) -> Self {
        assert!(config.rows > 0 && config.pairs_per_row > 0, "degenerate PE");
        assert!(
            config.pairs_per_row * (config.weight_bits + config.index_bits) as usize
                <= config.row_bits,
            "pairs do not fit the row width"
        );
        Self {
            config,
            rows: Vec::new(),
            tile: None,
            kernel: FlatKernel::default(),
            cost: MatvecCost::default(),
            stats: PeStats::new(),
        }
    }

    /// The PE configuration.
    pub fn config(&self) -> &MramPeConfig {
        &self.config
    }

    /// Array rows currently occupied.
    pub fn rows_used(&self) -> usize {
        self.rows.len()
    }

    /// Loads a tile through the **stochastic write channel**: a one-shot
    /// convenience wrapper that sets [`MramPeConfig::stochastic`] for the
    /// duration of one [`SparsePe::load`]. Every set weight bit switches a
    /// real [`Mtj`] with the device's per-pulse failure probability
    /// ([`MtjParams::write_error_rate`]), re-pulsed under write-verify up
    /// to `max_retries` times, and left erased if all pulses fail. The
    /// retry pulses cost extra write energy; residual faults corrupt the
    /// stored weights, which subsequent [`SparsePe::matvec`] calls then
    /// faithfully compute with — letting the higher layers measure the
    /// accuracy impact of MRAM write instability (a failure mode the
    /// paper's introduction calls out for NVM training). Retry and fault
    /// counts also land in [`PeStats::write_retries`] /
    /// [`PeStats::write_faults`].
    ///
    /// Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SparsePe::load`].
    pub fn load_with_faults(
        &mut self,
        weights: &CscMatrix,
        seed: u64,
        max_retries: u32,
    ) -> Result<FaultReport, PeError> {
        let saved = self.config.stochastic;
        self.config.stochastic = Some(StochasticWrites { seed, max_retries });
        let result = self.load(weights);
        self.config.stochastic = saved;
        let load = result?;
        Ok(FaultReport {
            retried_bits: load.retried_bits,
            corrupted_bits: load.faulted_bits,
            load,
        })
    }

    /// Drives every stored weight bit through an [`Mtj`] device's
    /// stochastic write channel with write-verify: a set bit that fails to
    /// switch within the retry budget is left in the erased (parallel, `0`)
    /// state, corrupting the stored weight. Returns
    /// `(retry_pulses, residual_faults)`.
    ///
    /// Writing a `0` into a freshly-erased cell hits the read-before-write
    /// gate and is a guaranteed no-op, so only set bits face the channel —
    /// matching the device model rather than a symmetric bit-flip channel.
    fn apply_stochastic_writes(&mut self, channel: StochasticWrites) -> (u64, u64) {
        if self.config.mtj.write_error_rate <= 0.0 {
            return (0, 0);
        }
        let proto = Mtj::with_params(self.config.mtj.clone()).expect("invalid MTJ parameters");
        let mut rng = SplitMix64::new(channel.seed);
        let mut retried_bits = 0u64;
        let mut faulted_bits = 0u64;
        for row in &mut self.rows {
            for (_, slot) in row.pairs.iter_mut().filter(|(_, s)| s.occupied) {
                let mut value = slot.value as u8;
                for bit in 0..8u8 {
                    if (value >> bit) & 1 == 0 {
                        continue;
                    }
                    let mut cell = proto.clone();
                    let (mut ok, _) = cell.write_stochastic(MtjState::AntiParallel, rng.next_f64());
                    let mut pulses = 0u32;
                    while !ok && pulses < channel.max_retries {
                        pulses += 1;
                        retried_bits += 1;
                        let (again, _) =
                            cell.write_stochastic(MtjState::AntiParallel, rng.next_f64());
                        ok = again;
                    }
                    if !ok {
                        debug_assert_eq!(cell.state(), MtjState::Parallel);
                        value &= !(1 << bit);
                        faulted_bits += 1;
                    }
                }
                slot.value = value as i8;
            }
        }
        (retried_bits, faulted_bits)
    }

    /// Recompiles the flat execution kernel and the analytic per-matvec
    /// cost from the freshly-stored rows — called at the end of every
    /// load, after any stochastic write faults have landed, so `matvec` is
    /// a branch-free single-pass gather over what the array really holds.
    fn recompile(&mut self) {
        let tile = self.tile.as_ref().expect("tile installed before recompile");
        let m = tile.m;
        self.kernel.recompile(
            tile.rows,
            tile.cols,
            self.rows.iter().flat_map(|row| {
                row.pairs
                    .iter()
                    .filter(|(_, s)| s.occupied)
                    .map(move |&(group, s)| {
                        (row.logical_col, group * m + s.offset as usize, s.value)
                    })
            }),
        );
        debug_assert_eq!(self.kernel.cols(), tile.cols);
        debug_assert_eq!(self.kernel.nnz() as u64, tile.occupied_slots);
        let pairs = self.rows.iter().map(|r| r.pairs.len() as u64).sum();
        self.cost = self.config.matvec_cost(self.rows.len() as u64, pairs);
    }
}

impl Default for MramSparsePe {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a fault-injected load (see
/// [`MramSparsePe::load_with_faults`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// The underlying load report, including retry energy.
    pub load: LoadReport,
    /// Write pulses repeated by the write-verify loop.
    pub retried_bits: u64,
    /// Bits left flipped after exhausting the retry budget.
    pub corrupted_bits: u64,
}

/// Tiny deterministic PRNG (SplitMix64) so fault injection needs no
/// external RNG dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl SparsePe for MramSparsePe {
    fn load(&mut self, weights: &CscMatrix) -> Result<LoadReport, PeError> {
        let pattern = weights.pattern();
        if pattern.index_bits() > self.config.index_bits {
            return Err(PeError::PatternUnsupported {
                needed_bits: pattern.index_bits(),
                hardware_bits: self.config.index_bits,
            });
        }
        // Pack each logical column into whole rows (a row never mixes
        // columns, so the adder tree folds cleanly).
        let rows_per_col = weights.slots_per_col().div_ceil(self.config.pairs_per_row);
        let rows_needed = rows_per_col * weights.cols();
        if rows_needed > self.config.rows {
            return Err(PeError::CapacityExceeded {
                required: rows_needed * self.config.pairs_per_row,
                available: self.config.capacity_slots(),
            });
        }

        let n = pattern.n();
        let mut rows = Vec::with_capacity(rows_needed);
        let mut occupied = 0u64;
        for c in 0..weights.cols() {
            let col_slots = weights.column_slots(c);
            for (chunk_idx, chunk) in col_slots.chunks(self.config.pairs_per_row).enumerate() {
                let base_slot = chunk_idx * self.config.pairs_per_row;
                let pairs: Vec<(usize, CscSlot)> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| ((base_slot + i) / n, s))
                    .collect();
                occupied += pairs.iter().filter(|(_, s)| s.occupied).count() as u64;
                rows.push(StoredRow {
                    logical_col: c,
                    pairs,
                });
            }
        }
        let rows_written = rows.len() as u64;
        self.rows = rows;
        self.tile = Some(TileInfo {
            rows: weights.rows(),
            cols: weights.cols(),
            m: pattern.m(),
            occupied_slots: occupied,
        });

        // Optional stochastic write channel: per-bit MTJ switching with
        // write-verify retries (see [`MramPeConfig::stochastic`]).
        let (retried_bits, faulted_bits) = match self.config.stochastic {
            Some(channel) => self.apply_stochastic_writes(channel),
            None => (0, 0),
        };
        // Compile after fault injection: the kernel must execute the
        // (possibly corrupted) stored weights, not the requested ones.
        self.recompile();

        // Write cost: one row per write pulse; on average half of the MTJs
        // toggle under the differential (read-before-write) driver.
        let pair_bits = (self.config.weight_bits + self.config.index_bits) as u64;
        let total_bits: u64 = self
            .rows
            .iter()
            .map(|r| r.pairs.len() as u64 * pair_bits)
            .sum();
        let bits_written = total_bits / 2;
        let cycles = rows_written
            * (self.config.mtj.write_latency.as_ns() / self.config.tech.cycle_ns()).ceil() as u64;
        let latency = Latency::from_ns(rows_written as f64 * self.config.mtj.write_latency.as_ns());
        let mut energy = self.config.leakage_over(latency);
        energy.add_write(self.config.mtj.write_energy * bits_written as f64);
        // Retry pulses pay full set/reset energy each.
        energy.add_write(self.config.mtj.write_energy * retried_bits as f64);
        // Row/col decoders and drivers are active for the whole write.
        energy.add_write(
            (self.config.components.row_decoder_driver.power()
                + self.config.components.col_decoder_driver.power())
                * latency,
        );

        let report = LoadReport {
            cycles,
            latency,
            energy,
            bits_written,
            retried_bits,
            faulted_bits,
        };
        self.stats.record_load(&report);
        Ok(report)
    }

    fn matvec(&mut self, x: &[i8]) -> Result<MatvecReport, PeError> {
        let tile = self.tile.as_ref().ok_or(PeError::NotLoaded)?;
        let mut outputs = vec![0i32; tile.cols];
        let cost = self.matvec_into(x, &mut outputs)?;
        Ok(MatvecReport {
            outputs,
            cycles: cost.cycles,
            latency: cost.latency,
            energy: cost.energy,
        })
    }

    fn matvec_into(&mut self, x: &[i8], y: &mut [i32]) -> Result<MatvecCost, PeError> {
        let tile = self.tile.as_ref().ok_or(PeError::NotLoaded)?;
        if x.len() != tile.rows {
            return Err(PeError::InputLength {
                expected: tile.rows,
                actual: x.len(),
            });
        }
        assert_eq!(
            y.len(),
            tile.cols,
            "output buffer does not match the tile's column count"
        );
        let occupied = tile.occupied_slots;
        // Compiled execution kernel: exact row-stream arithmetic as a
        // single-pass gather (see `kernel.rs` for the equivalence).
        self.kernel.matvec_into(x, y);
        // Analytic accounting model, precomputed at load time.
        let cost = self.cost;
        self.stats.record_matvec_cost(&cost, occupied);
        Ok(cost)
    }

    fn matvec_batch(
        &mut self,
        xs: &[i8],
        batch: usize,
        y: &mut [i32],
    ) -> Result<MatvecCost, PeError> {
        assert!(batch > 0, "batch must be non-empty");
        let tile = self.tile.as_ref().ok_or(PeError::NotLoaded)?;
        if xs.len() != batch * tile.rows {
            return Err(PeError::InputLength {
                expected: batch * tile.rows,
                actual: xs.len(),
            });
        }
        assert_eq!(
            y.len(),
            batch * tile.cols,
            "output buffer does not match batch × column count"
        );
        let occupied = tile.occupied_slots;
        self.kernel.matmul_into(xs, batch, y);
        let cost = self.cost;
        for _ in 0..batch {
            self.stats.record_matvec_cost(&cost, occupied);
        }
        Ok(cost)
    }

    fn stats(&self) -> &PeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PeStats::new();
    }

    fn capacity_slots(&self) -> usize {
        self.config.capacity_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sparse::gemm::{bit_serial_matvec, masked_dense};
    use pim_sparse::prune::prune_magnitude;
    use pim_sparse::{Matrix, NmPattern};

    fn dense_tile(rows: usize, cols: usize, seed: usize) -> Matrix<i8> {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 29 + c * 13 + seed * 11) % 251) as i32 - 125) as i8
        })
    }

    fn sparse_tile(rows: usize, cols: usize, pattern: NmPattern, seed: usize) -> CscMatrix {
        let dense = dense_tile(rows, cols, seed);
        let mask = prune_magnitude(&dense, pattern).expect("non-empty");
        CscMatrix::compress(&dense, &mask).expect("shapes match")
    }

    #[test]
    fn matvec_is_bit_exact_vs_reference() {
        for (pattern, seed) in [
            (NmPattern::one_of_four(), 1),
            (NmPattern::one_of_eight(), 2),
            (NmPattern::two_of_four(), 3),
        ] {
            let csc = sparse_tile(256, 16, pattern, seed);
            let mut pe = MramSparsePe::new();
            pe.load(&csc).unwrap();
            let x: Vec<i8> = (0..256).map(|i| ((i * 7 + seed) % 200) as i8).collect();
            let report = pe.matvec(&x).unwrap();
            let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
            assert_eq!(report.outputs, csc.matvec(&wide).unwrap(), "{pattern}");
        }
    }

    #[test]
    fn pipeline_cycles_track_rows_used() {
        let csc = sparse_tile(672, 4, NmPattern::one_of_four(), 5);
        // 672 rows 1:4 → 168 slots per column → 4 rows of 42 per column.
        let mut pe = MramSparsePe::new();
        pe.load(&csc).unwrap();
        assert_eq!(pe.rows_used(), 16);
        let report = pe.matvec(&[1i8; 672]).unwrap();
        assert_eq!(report.cycles, 16 + 3);
    }

    #[test]
    fn sram_leakage_dwarfs_mram_leakage() {
        // The non-volatile array leaks nothing; only the gated periphery
        // does, so a whole MRAM PE leaks far less than one SRAM PE.
        let sram = crate::SramPeConfig::dac24().leakage_power();
        let mram = MramPeConfig::dac24().leakage_power();
        assert!(sram.as_mw() > 5.0 * mram.as_mw(), "{sram} vs {mram}");
    }

    #[test]
    fn capacity_is_enforced() {
        // 1:4 over 43008 logical rows: 10752 slots per column → 256 rows
        // per column; 5 columns exceed the 1024-row array.
        let dense = Matrix::from_fn(43_008, 5, |r, _| if r % 4 == 0 { 1i8 } else { 0 });
        let csc = CscMatrix::compress_auto(&dense, NmPattern::one_of_four()).unwrap();
        let mut pe = MramSparsePe::new();
        assert!(matches!(
            pe.load(&csc),
            Err(PeError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn write_is_orders_of_magnitude_costlier_than_read() {
        let csc = sparse_tile(256, 8, NmPattern::one_of_four(), 2);
        let mut pe = MramSparsePe::new();
        let load = pe.load(&csc).unwrap();
        let mv = pe.matvec(&[1i8; 256]).unwrap();
        // The load (write) must dwarf a single matvec's read energy.
        assert!(
            load.energy.write.as_pj() > 5.0 * mv.energy.read.as_pj(),
            "write {} vs read {}",
            load.energy.write,
            mv.energy.read
        );
        // And the write latency uses the 10 ns MTJ pulse, not the 1 ns clock.
        assert!(load.latency.as_ns() >= 10.0 * pe.rows_used() as f64);
    }

    #[test]
    fn inference_energy_has_no_write_channel() {
        let csc = sparse_tile(128, 4, NmPattern::one_of_eight(), 4);
        let mut pe = MramSparsePe::new();
        pe.load(&csc).unwrap();
        let r = pe.matvec(&[5i8; 128]).unwrap();
        assert!(r.energy.write.is_zero());
        assert!(r.energy.read.as_pj() > 0.0);
        assert!(r.energy.compute.as_pj() > 0.0);
    }

    #[test]
    fn mram_leakage_is_negligible_vs_sram() {
        use crate::sram::SramSparsePe;
        use crate::SparsePe as _;
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 6);
        let mut mram = MramSparsePe::new();
        mram.load(&csc).unwrap();
        let rm = mram.matvec(&[1i8; 64]).unwrap();
        let mut sram = SramSparsePe::new();
        sram.load(&csc).unwrap();
        let rs = sram.matvec(&[1i8; 64]).unwrap();
        // Leakage per nanosecond of activity: MRAM ≪ SRAM.
        let mram_leak_rate = rm.energy.leakage.as_pj() / rm.latency.as_ns();
        let sram_leak_rate = rs.energy.leakage.as_pj() / rs.latency.as_ns();
        assert!(
            mram_leak_rate < 0.25 * sram_leak_rate,
            "mram {mram_leak_rate} vs sram {sram_leak_rate}"
        );
    }

    #[test]
    fn not_loaded_and_length_errors() {
        let mut pe = MramSparsePe::new();
        assert_eq!(pe.matvec(&[0i8; 4]), Err(PeError::NotLoaded));
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 7);
        pe.load(&csc).unwrap();
        assert!(pe.matvec(&[0i8; 63]).is_err());
    }

    #[test]
    fn capacity_matches_paper_geometry() {
        let pe = MramSparsePe::new();
        assert_eq!(pe.capacity_slots(), 1024 * 42);
        assert_eq!(pe.config().capacity_bits(), 1024 * 512);
    }

    #[test]
    fn fault_free_channel_changes_nothing() {
        let csc = sparse_tile(128, 4, NmPattern::one_of_four(), 1);
        let mut clean = MramSparsePe::new();
        clean.load(&csc).unwrap();
        let mut faulty = MramSparsePe::new();
        let report = faulty.load_with_faults(&csc, 42, 3).unwrap();
        assert_eq!(report.corrupted_bits, 0);
        assert_eq!(report.retried_bits, 0);
        let x = vec![3i8; 128];
        assert_eq!(
            clean.matvec(&x).unwrap().outputs,
            faulty.matvec(&x).unwrap().outputs
        );
    }

    #[test]
    fn write_verify_retries_suppress_most_faults() {
        let mut cfg = MramPeConfig::dac24();
        cfg.mtj.write_error_rate = 0.05;
        let csc = sparse_tile(512, 8, NmPattern::one_of_four(), 2);

        // No retries: ~5% of written bits corrupt.
        let mut raw = MramSparsePe::with_config(cfg.clone());
        let no_retry = raw.load_with_faults(&csc, 7, 0).unwrap();
        assert!(no_retry.corrupted_bits > 0);

        // Three verify-retries: corruption collapses by ~p³.
        let mut verified = MramSparsePe::with_config(cfg);
        let with_retry = verified.load_with_faults(&csc, 7, 3).unwrap();
        assert!(with_retry.retried_bits > 0);
        assert!(
            with_retry.corrupted_bits * 100 < no_retry.corrupted_bits.max(1),
            "retry {} vs raw {}",
            with_retry.corrupted_bits,
            no_retry.corrupted_bits
        );
        // Retries cost extra write energy.
        assert!(with_retry.load.energy.write > no_retry.load.energy.write);
    }

    #[test]
    fn corrupted_weights_flow_into_matvec_results() {
        let mut cfg = MramPeConfig::dac24();
        cfg.mtj.write_error_rate = 0.2; // pathological corner
        let csc = sparse_tile(256, 8, NmPattern::one_of_four(), 3);
        let mut clean = MramSparsePe::new();
        clean.load(&csc).unwrap();
        let mut faulty = MramSparsePe::with_config(cfg);
        let report = faulty.load_with_faults(&csc, 11, 0).unwrap();
        assert!(report.corrupted_bits > 10);
        let x = vec![1i8; 256];
        assert_ne!(
            clean.matvec(&x).unwrap().outputs,
            faulty.matvec(&x).unwrap().outputs,
            "bit flips must perturb the computation"
        );
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let mut cfg = MramPeConfig::dac24();
        cfg.mtj.write_error_rate = 0.1;
        let csc = sparse_tile(256, 8, NmPattern::one_of_four(), 4);
        let mut a = MramSparsePe::with_config(cfg.clone());
        let ra = a.load_with_faults(&csc, 99, 1).unwrap();
        let mut b = MramSparsePe::with_config(cfg);
        let rb = b.load_with_faults(&csc, 99, 1).unwrap();
        assert_eq!(ra.corrupted_bits, rb.corrupted_bits);
        let x = vec![2i8; 256];
        assert_eq!(a.matvec(&x).unwrap().outputs, b.matvec(&x).unwrap().outputs);
    }

    #[test]
    fn stochastic_config_flag_surfaces_counters_in_stats() {
        let mut cfg = MramPeConfig::dac24();
        cfg.mtj.write_error_rate = 0.1;
        cfg.stochastic = Some(StochasticWrites {
            seed: 5,
            max_retries: 2,
        });
        let csc = sparse_tile(256, 8, NmPattern::one_of_four(), 6);
        let mut pe = MramSparsePe::with_config(cfg);
        let report = pe.load(&csc).unwrap();
        assert!(report.retried_bits > 0);
        assert_eq!(pe.stats().write_retries, report.retried_bits);
        assert_eq!(pe.stats().write_faults, report.faulted_bits);
        assert_eq!(pe.stats().write_bits, report.bits_written);

        // The same load through the wrapper is identical.
        let mut cfg2 = MramPeConfig::dac24();
        cfg2.mtj.write_error_rate = 0.1;
        let mut other = MramSparsePe::with_config(cfg2);
        let wrapped = other.load_with_faults(&csc, 5, 2).unwrap();
        assert_eq!(wrapped.load, report);
        let x = vec![2i8; 256];
        assert_eq!(
            pe.matvec(&x).unwrap().outputs,
            other.matvec(&x).unwrap().outputs
        );
    }

    /// The pre-decoupling step-wise row stream over the *stored* rows. It
    /// is the oracle only where the array no longer holds the loaded
    /// weights: after stochastic write faults, no dense matrix describes
    /// the program, so `faulted_load_compiles_the_corrupted_weights`
    /// checks the compiled kernel against this walk. Unfaulted tiles are
    /// checked against `bit_serial_matvec`.
    fn step_wise_walk(pe: &MramSparsePe, x: &[i8]) -> Vec<i32> {
        let tile = pe.tile.as_ref().expect("loaded");
        let m = tile.m;
        let mut acc = vec![0i64; tile.cols];
        for row in &pe.rows {
            let mut row_sum = 0i64;
            for &(group, slot) in &row.pairs {
                if !slot.occupied {
                    continue;
                }
                let logical_row = group * m + slot.offset as usize;
                row_sum += slot.value as i64 * x[logical_row] as i64;
            }
            acc[row.logical_col] += row_sum;
        }
        acc.into_iter().map(|v| v as i32).collect()
    }

    #[test]
    fn flat_kernel_matches_the_bit_serial_oracle() {
        for (rows, pattern, seed) in [
            (256usize, NmPattern::one_of_four(), 1usize),
            (250, NmPattern::one_of_four(), 2), // partial tail group
            (256, NmPattern::one_of_eight(), 3),
            (205, NmPattern::one_of_eight(), 4), // partial tail group
        ] {
            let dense = dense_tile(rows, 8, seed);
            let mask = prune_magnitude(&dense, pattern).expect("non-empty");
            let csc = CscMatrix::compress(&dense, &mask).expect("shapes match");
            let mut pe = MramSparsePe::new();
            pe.load(&csc).unwrap();
            let x: Vec<i8> = (0..rows)
                .map(|i| match i % 5 {
                    0 => i8::MIN,
                    1 => i8::MAX,
                    k => ((i * 23 + k) % 256) as u8 as i8,
                })
                .collect();
            let report = pe.matvec(&x).unwrap();
            let masked = masked_dense(&dense, &mask).unwrap();
            assert_eq!(
                report.outputs,
                bit_serial_matvec(&masked, &x).unwrap(),
                "{pattern}"
            );
        }
    }

    #[test]
    fn matvec_into_and_batch_match_matvec_and_stats() {
        let csc = sparse_tile(128, 8, NmPattern::one_of_four(), 5);
        let mut a = MramSparsePe::new();
        a.load(&csc).unwrap();
        let mut b = MramSparsePe::new();
        b.load(&csc).unwrap();

        let xs: Vec<i8> = (0..4 * 128)
            .map(|i| ((i * 37 + 11) % 256) as u8 as i8)
            .collect();
        let mut seq = Vec::new();
        for chunk in xs.chunks(128) {
            seq.extend_from_slice(&a.matvec(chunk).unwrap().outputs);
        }
        let mut y = vec![0i32; 4 * 8];
        b.matvec_batch(&xs, 4, &mut y).unwrap();
        assert_eq!(y, seq);
        assert_eq!(a.stats(), b.stats(), "ledgers agree bit-exactly");
        assert_eq!(b.stats().matvecs, 4);
    }

    #[test]
    fn faulted_load_compiles_the_corrupted_weights() {
        let mut cfg = MramPeConfig::dac24();
        cfg.mtj.write_error_rate = 0.2;
        let csc = sparse_tile(256, 8, NmPattern::one_of_four(), 9);
        let mut pe = MramSparsePe::with_config(cfg);
        let report = pe.load_with_faults(&csc, 17, 0).unwrap();
        assert!(report.corrupted_bits > 0);
        let x = vec![1i8; 256];
        // The compiled kernel must execute the stored (faulted) program —
        // identical to the step-wise walk over the corrupted rows.
        let r = pe.matvec(&x).unwrap();
        assert_eq!(r.outputs, step_wise_walk(&pe, &x));
    }

    #[test]
    fn stats_accumulate() {
        let csc = sparse_tile(128, 8, NmPattern::one_of_four(), 8);
        let mut pe = MramSparsePe::new();
        pe.load(&csc).unwrap();
        for _ in 0..3 {
            pe.matvec(&[2i8; 128]).unwrap();
        }
        assert_eq!(pe.stats().loads, 1);
        assert_eq!(pe.stats().matvecs, 3);
        assert!(pe.stats().energy.write.as_pj() > 0.0);
    }
}
