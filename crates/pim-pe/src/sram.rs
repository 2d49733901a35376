//! The fully-digital bit-serial SRAM sparse PE (paper Fig. 3).
//!
//! Geometry: a 128×96 array per PE — each of the 128 rows holds eight
//! 12-bit weight/index pairs (8-bit INT8 weight in 8T compute cells, 4-bit
//! CSC index in 6T cells), organized as eight **column groups** of 128×12.
//! Each column group owns an index generator, 128 comparators, and a
//! 128-input 8-bit adder tree; all groups share a shift accumulator (for
//! bit-serial input precision compensation) and a row-wise accumulator
//! (for logical columns whose compressed slots spill across groups).
//!
//! ## Cycle model
//!
//! The three steps of §3.1 are pipelined per cycle:
//!
//! 1. activations are applied bit-serially on the shared input word lines
//!    (8 bit planes for INT8);
//! 2. per bit plane, the index generators sweep the `M` offsets of the
//!    current N:M pattern — in phase `j` the IWLs broadcast the activations
//!    at offset `j` of every group and the comparators enable exactly the
//!    rows whose stored 4-bit index equals `j`;
//! 3. matched partial products enter the adder trees, the shift
//!    accumulator weights the plane by `2^bit` (negatively for the sign
//!    plane), and the row-wise accumulator merges group segments of the
//!    same logical column.
//!
//! One matvec over a loaded tile therefore takes `8 × M + 3` cycles
//! (3 = pipeline fill + output drain). Because a tile covers `128·M/N`
//! logical reduction rows per column instead of 128, the PE's logical
//! throughput exceeds a dense array of the same geometry by `M/N` — the
//! paper's sparse-processing speedup.
//!
//! ## Energy model
//!
//! Dynamic energy is `component power × active time` using the Table 2
//! powers (`decoder + bit cells + index decoder` → the *read* channel,
//! `shift acc + adder + ReLU` → the *compute* channel); array leakage is
//! `per-bit leakage × 12,288 cells × elapsed`; weight loads pay per-cell
//! SRAM write energy (fast and cheap — the reason learnable weights live
//! here).

use crate::error::PeError;
use crate::kernel::FlatKernel;
use crate::stats::{LoadReport, MatvecCost, MatvecReport, PeStats};
use crate::SparsePe;
use pim_device::components::SramPeComponents;
use pim_device::sram_cell::{SramCell, SramCellKind};
use pim_device::units::{Latency, Power};
use pim_device::{EnergyLedger, TechnologyParams};
use pim_sparse::csc::CscSlot;
use pim_sparse::CscMatrix;

/// Geometry and technology of an SRAM sparse PE.
#[derive(Debug, Clone, PartialEq)]
pub struct SramPeConfig {
    /// Array rows (compressed slots per column group).
    pub rows: usize,
    /// Number of column groups (parallel logical-column segments).
    pub column_groups: usize,
    /// Weight resolution in bits.
    pub weight_bits: u32,
    /// Hardware index field width in bits.
    pub index_bits: u32,
    /// Technology point.
    pub tech: TechnologyParams,
    /// Component area/power library.
    pub components: SramPeComponents,
}

impl SramPeConfig {
    /// The paper's 128×96 PE at 28 nm.
    pub fn dac24() -> Self {
        Self {
            rows: 128,
            column_groups: 8,
            weight_bits: 8,
            index_bits: 4,
            tech: TechnologyParams::tsmc28(),
            components: SramPeComponents::dac24(),
        }
    }

    /// Total bit-cells in the array (weight + index sections).
    pub fn total_cells(&self) -> u64 {
        (self.rows * self.column_groups) as u64 * (self.weight_bits + self.index_bits) as u64
    }

    /// Compressed slots the array holds.
    pub fn capacity_slots(&self) -> usize {
        self.rows * self.column_groups
    }

    /// One bit-cell of `kind` at this configuration's technology point.
    pub(crate) fn cell(&self, kind: SramCellKind) -> SramCell {
        SramCell::new(kind, &self.tech)
    }

    /// Static leakage power of the whole array: 8T weight cells plus 6T
    /// index cells.
    pub fn leakage_power(&self) -> Power {
        let wcells = (self.rows * self.column_groups) as f64 * self.weight_bits as f64;
        let icells = (self.rows * self.column_groups) as f64 * self.index_bits as f64;
        self.cell(SramCellKind::Compute8T).leakage() * wcells
            + self.cell(SramCellKind::Index6T).leakage() * icells
    }

    /// Array leakage over `elapsed`, charged per cell kind (weight cells
    /// and index cells leak at different rates).
    pub(crate) fn leakage_over(&self, elapsed: Latency) -> EnergyLedger {
        let mut e = EnergyLedger::new();
        let wcells = (self.rows * self.column_groups) as u64 * self.weight_bits as u64;
        let icells = (self.rows * self.column_groups) as u64 * self.index_bits as u64;
        e.add_leakage(
            self.cell(SramCellKind::Compute8T)
                .leakage_energy(wcells, elapsed),
        );
        e.add_leakage(
            self.cell(SramCellKind::Index6T)
                .leakage_energy(icells, elapsed),
        );
        e
    }

    /// The closed-form bill of one matvec over a loaded tile of
    /// `tile_rows` logical rows at an `N:m` pattern: §3.1's pipelined walk
    /// takes `weight_bits × m + 3` cycles with the read/compute channel
    /// powers active throughout, plus the activation traffic through the
    /// global buffer. It depends only on the tile shape and this
    /// configuration, never on the activations, so the PE precomputes it
    /// at load time and the architecture mapper prices tiles with it.
    pub fn matvec_cost(&self, m: usize, tile_rows: usize) -> MatvecCost {
        let cycles = self.weight_bits as u64 * m as u64 + 3;
        let latency = Latency::from_cycles(cycles, self.tech.clock_mhz());
        let comp = &self.components;
        let mut energy = self.leakage_over(latency);
        let read_power = comp.decoder.power() + comp.bit_cell.power() + comp.index_decoder.power();
        energy.add_read(read_power * latency);
        let compute_power = comp.shift_acc.power() + comp.adder.power() + comp.global_relu.power();
        energy.add_compute(compute_power * latency);
        let buffer_bits = (tile_rows as u64) * self.weight_bits as u64;
        energy.add_read(comp.buffer_energy_per_bit * buffer_bits as f64);
        MatvecCost {
            cycles,
            latency,
            energy,
        }
    }
}

impl Default for SramPeConfig {
    fn default() -> Self {
        Self::dac24()
    }
}

/// One column-group segment of a logical column.
#[derive(Debug, Clone)]
struct Segment {
    logical_col: usize,
    /// Slots stored in this group, each with its logical group index so the
    /// comparator phase can locate the activation.
    slots: Vec<(usize, CscSlot)>, // (logical_group, slot)
}

/// Bit-level difference between the resident segments and a candidate
/// packing of the same layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentDelta {
    /// Weight (8T compute-cell) bits that would toggle.
    weight_bits: u64,
    /// Index (6T cell) bits that would toggle.
    index_bits: u64,
    /// Physical rows holding at least one toggled bit (one write cycle
    /// each).
    dirty_rows: u64,
}

/// The SRAM sparse PE simulator. See the module-level documentation for the
/// cycle and energy models.
///
/// Cloning a loaded PE duplicates its tile program and statistics — the
/// serving runtime uses this to replicate compiled tiles across workers.
#[derive(Debug, Clone)]
pub struct SramSparsePe {
    config: SramPeConfig,
    segments: Vec<Segment>,
    tile: Option<TileInfo>,
    /// Flat occupied-only execution kernel, compiled at load/update time
    /// from `segments`; empty until a tile is resident.
    kernel: FlatKernel,
    /// Analytic per-matvec cost of the resident tile, precomputed at
    /// load/update time (the cycle/energy model is data-independent).
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

impl SramSparsePe {
    /// Creates a PE with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(SramPeConfig::dac24())
    }

    /// Creates a PE with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero rows or groups).
    pub fn with_config(config: SramPeConfig) -> Self {
        assert!(
            config.rows > 0 && config.column_groups > 0,
            "degenerate PE geometry"
        );
        Self {
            config,
            segments: Vec::new(),
            tile: None,
            kernel: FlatKernel::default(),
            cost: MatvecCost::default(),
            stats: PeStats::new(),
        }
    }

    /// The PE configuration.
    pub fn config(&self) -> &SramPeConfig {
        &self.config
    }

    /// Number of column groups currently occupied.
    pub fn groups_used(&self) -> usize {
        self.segments.len()
    }

    /// Validates `weights` against the geometry and packs it into
    /// column-group segments without touching the resident program.
    fn pack_segments(&self, weights: &CscMatrix) -> Result<(Vec<Segment>, TileInfo), PeError> {
        let pattern = weights.pattern();
        if pattern.index_bits() > self.config.index_bits {
            return Err(PeError::PatternUnsupported {
                needed_bits: pattern.index_bits(),
                hardware_bits: self.config.index_bits,
            });
        }
        // Each logical column occupies ceil(slots / rows) groups.
        let slots_per_col = weights.slots_per_col();
        let groups_per_col = slots_per_col.div_ceil(self.config.rows).max(1);
        let groups_needed = groups_per_col * weights.cols();
        if groups_needed > self.config.column_groups {
            return Err(PeError::CapacityExceeded {
                required: groups_needed * self.config.rows,
                available: self.config.capacity_slots(),
            });
        }

        let n = pattern.n();
        let mut segments = Vec::with_capacity(groups_needed);
        let mut occupied = 0u64;
        for c in 0..weights.cols() {
            let col_slots = weights.column_slots(c);
            for (chunk_idx, chunk) in col_slots.chunks(self.config.rows).enumerate() {
                let base_slot = chunk_idx * self.config.rows;
                let slots: Vec<(usize, CscSlot)> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| ((base_slot + i) / n, s))
                    .collect();
                occupied += slots.iter().filter(|(_, s)| s.occupied).count() as u64;
                segments.push(Segment {
                    logical_col: c,
                    slots,
                });
            }
        }
        let tile = TileInfo {
            rows: weights.rows(),
            cols: weights.cols(),
            m: pattern.m(),
            occupied_slots: occupied,
        };
        Ok((segments, tile))
    }

    /// Differentially rewrites the resident tile with `weights`, toggling
    /// only the bit-cells whose stored value changes.
    ///
    /// This is the on-device learning write path: successive Rep-Net
    /// updates move few INT8 codes, so only the dirty physical rows are
    /// re-driven (one cycle each) and only the flipped weight/index bits
    /// pay SRAM cell write energy. The resulting program is identical to a
    /// fresh [`load`](SparsePe::load) of the same matrix — bit-exact
    /// matvecs — but the write energy is bounded above by the full load's.
    ///
    /// Falls back to a full [`load`](SparsePe::load) when no tile is
    /// resident or when `weights` has a different segment layout (shape or
    /// pattern change).
    pub fn update(&mut self, weights: &CscMatrix) -> Result<LoadReport, PeError> {
        let (segments, tile) = self.pack_segments(weights)?;
        if !self.layout_matches(&segments) {
            return self.load(weights);
        }

        let delta = self.segment_delta(&segments);
        let weight_bits_changed = delta.weight_bits;
        let index_bits_changed = delta.index_bits;

        // Only dirty physical rows are re-driven, one per cycle; an
        // unchanged tile is free.
        let cycles = delta.dirty_rows;
        let latency = Latency::from_cycles(cycles, self.config.tech.clock_mhz());
        let bits_written = weight_bits_changed + index_bits_changed;
        let mut energy = self.config.leakage_over(latency);
        let w_cell = self.config.cell(SramCellKind::Compute8T);
        let i_cell = self.config.cell(SramCellKind::Index6T);
        energy.add_write(
            w_cell.write_energy() * weight_bits_changed as f64
                + i_cell.write_energy() * index_bits_changed as f64,
        );
        energy.add_read(self.config.components.decoder.power() * latency);

        self.segments = segments;
        self.tile = Some(tile);
        self.recompile();
        let report = LoadReport {
            cycles,
            latency,
            energy,
            bits_written,
            retried_bits: 0,
            faulted_bits: 0,
        };
        self.stats.record_load(&report);
        Ok(report)
    }

    /// Whether `segments` has the same shape as the resident program
    /// (same segment count, logical columns, and slots per segment), i.e.
    /// whether [`update`](Self::update) can rewrite it differentially.
    fn layout_matches(&self, segments: &[Segment]) -> bool {
        self.tile.is_some()
            && self.segments.len() == segments.len()
            && self
                .segments
                .iter()
                .zip(segments)
                .all(|(a, b)| a.logical_col == b.logical_col && a.slots.len() == b.slots.len())
    }

    /// Counts the bit toggles a differential rewrite to `segments` would
    /// perform. Requires [`layout_matches`](Self::layout_matches).
    fn segment_delta(&self, segments: &[Segment]) -> SegmentDelta {
        // Stored image of a slot: 8-bit weight in the compute cells, 4-bit
        // CSC offset in the index cells; empty slots are zero-filled.
        let stored = |&(_, s): &(usize, CscSlot)| -> (u8, u8) {
            if s.occupied {
                (s.value as u8, s.offset & 0x0F)
            } else {
                (0, 0)
            }
        };
        let mut delta = SegmentDelta {
            weight_bits: 0,
            index_bits: 0,
            dirty_rows: 0,
        };
        let mut dirty_rows = vec![false; self.config.rows];
        for (old_seg, new_seg) in self.segments.iter().zip(segments) {
            for (row, (old, new)) in old_seg.slots.iter().zip(&new_seg.slots).enumerate() {
                let (ow, oi) = stored(old);
                let (nw, ni) = stored(new);
                let dw = (ow ^ nw).count_ones() as u64;
                let di = (oi ^ ni).count_ones() as u64;
                if dw + di > 0 {
                    dirty_rows[row] = true;
                }
                delta.weight_bits += dw;
                delta.index_bits += di;
            }
        }
        delta.dirty_rows = dirty_rows.iter().filter(|&&d| d).count() as u64;
        delta
    }

    /// The exact number of bits an [`update`](Self::update) to `weights`
    /// would write, **without writing anything**: the bit-exact XOR count
    /// when the layout matches, or the full-load bill (`slots ×
    /// (weight_bits + index_bits)`) when the update would fall back to a
    /// fresh load.
    ///
    /// This is the write-back preflight used by the learning engine: the
    /// sum over tiles is order-independent (u64 addition), so the diff can
    /// be computed tile-parallel and still authorize against the exact
    /// figure the sequential rewrite will bill.
    ///
    /// # Errors
    ///
    /// Same validation as [`update`](Self::update): pattern or capacity
    /// violations.
    pub fn diff_bits(&self, weights: &CscMatrix) -> Result<u64, PeError> {
        let (segments, _) = self.pack_segments(weights)?;
        if !self.layout_matches(&segments) {
            let total_slots: u64 = segments.iter().map(|s| s.slots.len() as u64).sum();
            return Ok(total_slots * (self.config.weight_bits + self.config.index_bits) as u64);
        }
        let delta = self.segment_delta(&segments);
        Ok(delta.weight_bits + delta.index_bits)
    }

    /// The compute half of [`matvec_batch`](SparsePe::matvec_batch):
    /// identical validation and identical kernel arithmetic, but `&self`
    /// and **no ledger recording** — parallel tasks can fan a batch out
    /// over disjoint sub-ranges of one tile, then the caller folds
    /// [`matvec_cost`](Self::matvec_cost) into its own run ledger in
    /// deterministic order.
    ///
    /// # Errors
    ///
    /// [`PeError::NotLoaded`] with no resident tile,
    /// [`PeError::InputLength`] on a length mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `y` is not `batch × cols`.
    pub fn matvec_batch_compute(
        &self,
        xs: &[i8],
        batch: usize,
        y: &mut [i32],
    ) -> Result<(), PeError> {
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
        self.kernel.matmul_into(xs, batch, y);
        Ok(())
    }

    /// The analytic per-matvec cost of the resident tile, precomputed at
    /// load/update time — what every matvec adds to a ledger, readable
    /// without touching the PE's own.
    ///
    /// # Errors
    ///
    /// [`PeError::NotLoaded`] with no resident tile.
    pub fn matvec_cost(&self) -> Result<MatvecCost, PeError> {
        self.tile.as_ref().ok_or(PeError::NotLoaded)?;
        Ok(self.cost)
    }

    /// Recompiles the flat execution kernel and the analytic per-matvec
    /// cost from the freshly-installed segments — called by every
    /// load/update, so `matvec` is a branch-free single-pass gather.
    fn recompile(&mut self) {
        let tile = self.tile.as_ref().expect("tile installed before recompile");
        let m = tile.m;
        self.kernel.recompile(
            tile.rows,
            tile.cols,
            self.segments.iter().flat_map(|seg| {
                seg.slots
                    .iter()
                    .filter(|(_, s)| s.occupied)
                    .map(move |&(group, s)| {
                        (seg.logical_col, group * m + s.offset as usize, s.value)
                    })
            }),
        );
        debug_assert_eq!(self.kernel.cols(), tile.cols);
        debug_assert_eq!(self.kernel.nnz() as u64, tile.occupied_slots);
        self.cost = self.config.matvec_cost(tile.m, tile.rows);
    }
}

impl Default for SramSparsePe {
    fn default() -> Self {
        Self::new()
    }
}

impl SparsePe for SramSparsePe {
    fn load(&mut self, weights: &CscMatrix) -> Result<LoadReport, PeError> {
        let (segments, tile) = self.pack_segments(weights)?;
        self.segments = segments;
        self.tile = Some(tile);
        self.recompile();

        // Write cost: every stored slot writes weight + index cells; the
        // array is written one physical row (across all groups) per cycle.
        let rows_touched = self
            .segments
            .iter()
            .map(|s| s.slots.len())
            .max()
            .unwrap_or(0) as u64;
        let cycles = rows_touched.max(1);
        let latency = Latency::from_cycles(cycles, self.config.tech.clock_mhz());
        let total_slots: u64 = self.segments.iter().map(|s| s.slots.len() as u64).sum();
        let bits_written = total_slots * (self.config.weight_bits + self.config.index_bits) as u64;
        let mut energy = self.config.leakage_over(latency);
        let w_cell = self.config.cell(SramCellKind::Compute8T);
        let i_cell = self.config.cell(SramCellKind::Index6T);
        energy.add_write(
            w_cell.write_energy() * (total_slots * self.config.weight_bits as u64) as f64
                + i_cell.write_energy() * (total_slots * self.config.index_bits as u64) as f64,
        );
        // Row decoder active during the write.
        energy.add_read(self.config.components.decoder.power() * latency);

        let report = LoadReport {
            cycles,
            latency,
            energy,
            bits_written,
            retried_bits: 0,
            faulted_bits: 0,
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
        // Compiled execution kernel: exact bit-serial arithmetic as a
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
        self.matvec_batch_compute(xs, batch, y)?;
        let occupied = self.tile.as_ref().expect("validated above").occupied_slots;
        for _ in 0..batch {
            self.stats.record_matvec_cost(&self.cost, occupied);
        }
        Ok(self.cost)
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
    use pim_sparse::gemm::{dense_matvec, masked_dense};
    use pim_sparse::prune::prune_magnitude;
    use pim_sparse::{Matrix, NmPattern};
    use proptest::prelude::*;

    fn sparse_tile(rows: usize, cols: usize, pattern: NmPattern, seed: usize) -> CscMatrix {
        let dense = Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + seed * 7) % 251) as i32 - 125) as i8
        });
        let mask = prune_magnitude(&dense, pattern).expect("non-empty");
        CscMatrix::compress(&dense, &mask).expect("shapes match")
    }

    #[test]
    fn matvec_is_bit_exact_vs_reference() {
        for (pattern, seed) in [
            (NmPattern::one_of_four(), 1),
            (NmPattern::one_of_eight(), 2),
            (NmPattern::two_of_four(), 3),
            (NmPattern::new(4, 16).unwrap(), 4),
        ] {
            let csc = sparse_tile(64, 8, pattern, seed);
            let mut pe = SramSparsePe::new();
            pe.load(&csc).unwrap();
            let x: Vec<i8> = (0..64)
                .map(|i| ((i * 37 + seed) % 256) as u8 as i8)
                .collect();
            let report = pe.matvec(&x).unwrap();
            let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
            assert_eq!(report.outputs, csc.matvec(&wide).unwrap(), "{pattern}");
        }
    }

    #[test]
    fn matvec_equals_masked_dense() {
        let pattern = NmPattern::one_of_four();
        let dense = Matrix::from_fn(32, 4, |r, c| ((r * 13 + c * 5) % 19) as i8 - 9);
        let mask = prune_magnitude(&dense, pattern).unwrap();
        let csc = CscMatrix::compress(&dense, &mask).unwrap();
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        let x: Vec<i8> = (0..32).map(|i| i as i8 - 16).collect();
        let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
        assert_eq!(
            pe.matvec(&x).unwrap().outputs,
            dense_matvec(&masked_dense(&dense, &mask).unwrap(), &wide).unwrap()
        );
    }

    #[test]
    fn column_spillover_uses_row_accumulator() {
        // 1024 logical rows at 1:8 → 128 slots per column: exactly one
        // group. 2048 rows → 256 slots: two groups per column (spill).
        let csc = sparse_tile(1024, 2, NmPattern::one_of_eight(), 9);
        // 1024 rows / 8 = 128 slots per column -> 1 group each.
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        assert_eq!(pe.groups_used(), 2);

        // Same density, longer reduction: columns must span 2 groups.
        let wide = {
            let dense = Matrix::from_fn(1536, 2, |r, c| {
                if r % 8 == (c + 1) % 8 {
                    ((r % 63) as i8) - 31
                } else {
                    0
                }
            });
            CscMatrix::compress_auto(&dense, NmPattern::one_of_eight()).unwrap()
        };
        let mut pe = SramSparsePe::new();
        pe.load(&wide).unwrap();
        assert_eq!(pe.groups_used(), 4, "two groups per spilled column");
        let x: Vec<i8> = (0..1536).map(|i| (i % 127) as i8).collect();
        let report = pe.matvec(&x).unwrap();
        let wide_x: Vec<i32> = x.iter().map(|&v| v as i32).collect();
        assert_eq!(report.outputs, wide.matvec(&wide_x).unwrap());
    }

    #[test]
    fn capacity_is_enforced() {
        // 9 columns of one group each exceeds the 8 column groups.
        let csc = sparse_tile(64, 9, NmPattern::one_of_four(), 3);
        let mut pe = SramSparsePe::new();
        assert!(matches!(
            pe.load(&csc),
            Err(PeError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn matvec_without_load_fails() {
        let mut pe = SramSparsePe::new();
        assert_eq!(pe.matvec(&[0i8; 4]), Err(PeError::NotLoaded));
    }

    #[test]
    fn input_length_is_checked() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 5);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        assert!(matches!(
            pe.matvec(&[0i8; 10]),
            Err(PeError::InputLength {
                expected: 64,
                actual: 10
            })
        ));
    }

    #[test]
    fn cycles_scale_with_pattern_group_size() {
        let mut pe = SramSparsePe::new();
        let c4 = sparse_tile(64, 4, NmPattern::one_of_four(), 6);
        pe.load(&c4).unwrap();
        let r4 = pe.matvec(&[1i8; 64]).unwrap();
        let c8 = sparse_tile(64, 4, NmPattern::one_of_eight(), 6);
        pe.load(&c8).unwrap();
        let r8 = pe.matvec(&[1i8; 64]).unwrap();
        // 8 bits × M phases: 1:8 sweeps twice the phases of 1:4 per tile —
        // but each 1:8 tile covers twice the logical rows per slot, which
        // the arch layer exploits. Here we check the raw per-tile model.
        assert_eq!(r4.cycles, 8 * 4 + 3);
        assert_eq!(r8.cycles, 8 * 8 + 3);
    }

    #[test]
    fn energy_has_leakage_read_and_compute() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 7);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        let r = pe.matvec(&[3i8; 64]).unwrap();
        assert!(r.energy.leakage.as_pj() > 0.0);
        assert!(r.energy.read.as_pj() > 0.0);
        assert!(r.energy.compute.as_pj() > 0.0);
        assert!(r.energy.write.is_zero(), "inference never writes");
    }

    #[test]
    fn load_energy_is_write_dominated_and_cheap() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 8);
        let mut pe = SramSparsePe::new();
        let report = pe.load(&csc).unwrap();
        assert!(report.energy.write.as_pj() > 0.0);
        // SRAM weight loads are cheap relative to an MRAM write of the same
        // bits (0.048 pJ/bit): under 10% here.
        let mtj_equivalent = 0.048 * report.bits_written as f64;
        assert!(report.energy.write.as_pj() < 0.1 * mtj_equivalent);
    }

    #[test]
    fn stats_accumulate_across_operations() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 2);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        pe.matvec(&[1i8; 64]).unwrap();
        pe.matvec(&[2i8; 64]).unwrap();
        assert_eq!(pe.stats().loads, 1);
        assert_eq!(pe.stats().matvecs, 2);
        assert!(pe.stats().macs > 0);
        pe.reset_stats();
        assert_eq!(pe.stats().matvecs, 0);
    }

    #[test]
    fn rejects_pattern_wider_than_index_field() {
        let mut cfg = SramPeConfig::dac24();
        cfg.index_bits = 2;
        let mut pe = SramSparsePe::with_config(cfg);
        let csc = sparse_tile(64, 4, NmPattern::one_of_eight(), 2);
        assert_eq!(
            pe.load(&csc),
            Err(PeError::PatternUnsupported {
                needed_bits: 3,
                hardware_bits: 2
            })
        );
    }

    #[test]
    fn update_without_resident_tile_is_a_full_load() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 1);
        let mut updated = SramSparsePe::new();
        let up = updated.update(&csc).unwrap();
        let mut loaded = SramSparsePe::new();
        let full = loaded.load(&csc).unwrap();
        assert_eq!(up, full);
    }

    #[test]
    fn update_matches_cold_load_bit_exactly() {
        let a = sparse_tile(64, 4, NmPattern::one_of_four(), 1);
        let b = sparse_tile(64, 4, NmPattern::one_of_four(), 2);
        let mut pe = SramSparsePe::new();
        pe.load(&a).unwrap();
        pe.update(&b).unwrap();
        let mut fresh = SramSparsePe::new();
        fresh.load(&b).unwrap();
        let x: Vec<i8> = (0..64).map(|i| ((i * 29) % 251) as u8 as i8).collect();
        assert_eq!(
            pe.matvec(&x).unwrap().outputs,
            fresh.matvec(&x).unwrap().outputs
        );
    }

    #[test]
    fn unchanged_update_is_free() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 3);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        let up = pe.update(&csc).unwrap();
        assert_eq!(up.bits_written, 0);
        assert_eq!(up.cycles, 0);
        assert!(up.energy.write.is_zero());
    }

    #[test]
    fn update_with_new_shape_falls_back_to_full_load() {
        let a = sparse_tile(64, 4, NmPattern::one_of_four(), 4);
        let b = sparse_tile(32, 4, NmPattern::one_of_four(), 4);
        let mut pe = SramSparsePe::new();
        pe.load(&a).unwrap();
        let up = pe.update(&b).unwrap();
        let mut fresh = SramSparsePe::new();
        let full = fresh.load(&b).unwrap();
        assert_eq!(up.bits_written, full.bits_written);
        let x: Vec<i8> = (0..32).map(|i| i as i8).collect();
        assert_eq!(
            pe.matvec(&x).unwrap().outputs,
            fresh.matvec(&x).unwrap().outputs
        );
    }

    proptest! {
        // The endurance argument for the hybrid design rests on this bound:
        // rewriting a resident tile differentially can never cost more
        // write energy (or toggle more bits) than reprogramming from
        // scratch, because the changed bits are a subset of all stored bits.
        #[test]
        fn differential_update_never_exceeds_full_rewrite(
            (rows, pattern, seed_a, seed_b) in (
                prop_oneof![Just(32usize), Just(64usize), Just(128usize)],
                prop_oneof![
                    Just(NmPattern::one_of_four()),
                    Just(NmPattern::one_of_eight()),
                    Just(NmPattern::two_of_four()),
                ],
                0usize..64,
                0usize..64,
            ),
        ) {
            let a = sparse_tile(rows, 4, pattern, seed_a);
            let b = sparse_tile(rows, 4, pattern, seed_b);
            let mut pe = SramSparsePe::new();
            pe.load(&a).unwrap();
            let up = pe.update(&b).unwrap();
            let mut fresh = SramSparsePe::new();
            let full = fresh.load(&b).unwrap();
            prop_assert!(
                up.energy.write.as_pj() <= full.energy.write.as_pj() + 1e-12,
                "differential write {} pJ > full write {} pJ",
                up.energy.write.as_pj(),
                full.energy.write.as_pj()
            );
            prop_assert!(up.bits_written <= full.bits_written);
            prop_assert!(up.cycles <= full.cycles);
            // And the rewritten program is indistinguishable from a cold load.
            let x: Vec<i8> = (0..rows).map(|i| ((i * 37 + 5) % 256) as u8 as i8).collect();
            prop_assert_eq!(
                pe.matvec(&x).unwrap().outputs,
                fresh.matvec(&x).unwrap().outputs
            );
        }
    }

    proptest! {
        // Equivalence pin: on random tiles — 1:4, 2:4 and 1:8, with
        // reduction lengths that leave partial tail groups (unoccupied
        // slots), an all-zero column, batch sizes covering the 4-wide
        // register-blocked pass and its remainder, and activations spanning
        // the full i8 range including MIN/MAX — the compiled kernel is
        // bit-identical to pim_sparse's bit-serial reference, one matvec at
        // a time and batched.
        #[test]
        fn flat_kernel_matches_the_bit_serial_oracle(
            (rows, pattern) in prop_oneof![
                Just((64usize, NmPattern::one_of_four())),
                Just((61usize, NmPattern::one_of_four())), // partial tail group
                Just((64usize, NmPattern::one_of_eight())),
                Just((52usize, NmPattern::one_of_eight())), // partial tail group
                Just((100usize, NmPattern::two_of_four())), // denser occupancy
                Just((128usize, NmPattern::one_of_eight())),
            ],
            batch in 1usize..=8,
            seed in 0usize..256,
            raw_x in proptest::collection::vec(any::<i8>(), 8 * 128),
        ) {
            let dense = Matrix::from_fn(rows, 4, |r, c| {
                if c == 3 {
                    0 // all-zero column: kernel columns with no contribution
                } else {
                    match (r * 31 + c * 17 + seed * 7) % 97 {
                        0 => i8::MIN,
                        1 => i8::MAX,
                        k => (k as i32 - 48) as i8,
                    }
                }
            });
            let mask = prune_magnitude(&dense, pattern).expect("non-empty");
            let csc = CscMatrix::compress(&dense, &mask).expect("shapes match");
            let mut pe = SramSparsePe::new();
            pe.load(&csc).unwrap();
            let xs = &raw_x[..batch * rows];
            let mut y = vec![0i32; batch * 4];
            pe.matvec_batch(xs, batch, &mut y).unwrap();
            let masked = masked_dense(&dense, &mask).unwrap();
            for b in 0..batch {
                let x = &xs[b * rows..(b + 1) * rows];
                let oracle = pim_sparse::gemm::bit_serial_matvec(&masked, x).unwrap();
                prop_assert_eq!(&pe.matvec(x).unwrap().outputs, &oracle);
                prop_assert_eq!(&y[b * 4..(b + 1) * 4], &oracle[..]);
            }
        }
    }

    #[test]
    fn matvec_into_and_batch_match_matvec_and_stats() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 13);
        let mut a = SramSparsePe::new();
        a.load(&csc).unwrap();
        let mut b = SramSparsePe::new();
        b.load(&csc).unwrap();

        let xs: Vec<i8> = (0..3 * 64)
            .map(|i| ((i * 41 + 7) % 256) as u8 as i8)
            .collect();
        // PE `a`: three sequential allocating matvecs.
        let mut seq = Vec::new();
        let mut seq_cost = None;
        for chunk in xs.chunks(64) {
            let r = a.matvec(chunk).unwrap();
            seq_cost = Some(r.cost());
            seq.extend_from_slice(&r.outputs);
        }
        // PE `b`: one batched zero-alloc call.
        let mut y = vec![0i32; 3 * 4];
        let cost = b.matvec_batch(&xs, 3, &mut y).unwrap();
        assert_eq!(y, seq);
        assert_eq!(Some(cost), seq_cost, "per-matvec cost is identical");
        assert_eq!(a.stats(), b.stats(), "ledgers agree bit-exactly");
        assert_eq!(b.stats().matvecs, 3, "batch records every matvec");

        // And `matvec_into` alone agrees too.
        let mut single = vec![0i32; 4];
        b.matvec_into(&xs[..64], &mut single).unwrap();
        assert_eq!(single, seq[..4]);
    }

    #[test]
    fn compute_then_record_matches_fused_batch_exactly() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 21);
        let mut fused = SramSparsePe::new();
        fused.load(&csc).unwrap();
        let split = fused.clone();
        let loaded = *fused.stats();

        let xs: Vec<i8> = (0..4 * 64)
            .map(|i| ((i * 53 + 11) % 256) as u8 as i8)
            .collect();
        let mut y_fused = vec![0i32; 4 * 4];
        let cost_fused = fused.matvec_batch(&xs, 4, &mut y_fused).unwrap();

        // Split path computes the batch in two disjoint halves (as a
        // parallel fan-out would), then folds the per-matvec cost into a
        // caller-owned ledger in the fused call's order.
        let mut y_split = vec![0i32; 4 * 4];
        split
            .matvec_batch_compute(&xs[..2 * 64], 2, &mut y_split[..2 * 4])
            .unwrap();
        split
            .matvec_batch_compute(&xs[2 * 64..], 2, &mut y_split[2 * 4..])
            .unwrap();
        let cost_split = split.matvec_cost().unwrap();
        let occupied = csc.nnz() as u64;
        let mut ledger = loaded;
        for _ in 0..4 {
            ledger.record_matvec_cost(&cost_split, occupied);
        }

        assert_eq!(y_split, y_fused, "outputs bit-identical across the split");
        assert_eq!(cost_split, cost_fused);
        assert_eq!(ledger, *fused.stats(), "ledgers agree bit-exactly");
        assert_eq!(*split.stats(), loaded, "compute never touches the ledger");
    }

    #[test]
    fn compute_and_record_validate_like_the_fused_call() {
        let pe = SramSparsePe::new();
        let mut y = vec![0i32; 4];
        assert_eq!(
            pe.matvec_batch_compute(&[0i8; 64], 1, &mut y),
            Err(PeError::NotLoaded)
        );
        assert_eq!(pe.matvec_cost(), Err(PeError::NotLoaded));
        let mut pe = pe;
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 22);
        pe.load(&csc).unwrap();
        assert!(matches!(
            pe.matvec_batch_compute(&[0i8; 10], 1, &mut y),
            Err(PeError::InputLength {
                expected: 64,
                actual: 10
            })
        ));
    }

    #[test]
    fn diff_bits_predicts_the_update_bill_exactly() {
        let a = sparse_tile(64, 4, NmPattern::one_of_four(), 31);
        let b = sparse_tile(64, 4, NmPattern::one_of_four(), 32);
        let mut pe = SramSparsePe::new();
        pe.load(&a).unwrap();
        let predicted = pe.diff_bits(&b).unwrap();
        let report = pe.update(&b).unwrap();
        assert_eq!(predicted, report.bits_written);
        assert!(predicted > 0, "distinct tiles must differ somewhere");
    }

    #[test]
    fn diff_bits_is_zero_for_an_unchanged_tile() {
        let csc = sparse_tile(64, 4, NmPattern::one_of_four(), 33);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        assert_eq!(pe.diff_bits(&csc).unwrap(), 0);
    }

    #[test]
    fn diff_bits_bills_a_full_load_on_layout_change() {
        let a = sparse_tile(64, 4, NmPattern::one_of_four(), 34);
        let b = sparse_tile(32, 4, NmPattern::one_of_four(), 34);
        let mut pe = SramSparsePe::new();
        pe.load(&a).unwrap();
        let predicted = pe.diff_bits(&b).unwrap();
        let report = pe.update(&b).unwrap();
        assert_eq!(predicted, report.bits_written, "fallback bill matches");
    }

    #[test]
    fn int8_extreme_inputs_are_exact() {
        let csc = sparse_tile(32, 4, NmPattern::two_of_four(), 11);
        let mut pe = SramSparsePe::new();
        pe.load(&csc).unwrap();
        let x: Vec<i8> = (0..32)
            .map(|i| match i % 4 {
                0 => i8::MIN,
                1 => i8::MAX,
                2 => -1,
                _ => 0,
            })
            .collect();
        let wide: Vec<i32> = x.iter().map(|&v| v as i32).collect();
        assert_eq!(pe.matvec(&x).unwrap().outputs, csc.matvec(&wide).unwrap());
    }
}
