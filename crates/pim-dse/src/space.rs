//! Sweep-space definition: the grid of candidate design points.
//!
//! A [`SweepSpace`] is the cartesian product of per-axis candidate lists.
//! Enumeration funnels every grid point through
//! [`ArchConfig::validate`], so downstream stages only ever see
//! well-formed configurations — the number of rejected points is reported
//! alongside, not silently dropped.

use pim_arch::ArchConfig;
use pim_sparse::NmPattern;

/// The axes of a configuration grid. Every field is a list of candidate
/// values; [`enumerate`](Self::enumerate) takes their cartesian product.
#[derive(Debug, Clone)]
pub struct SweepSpace {
    /// N:M sparsity patterns.
    pub patterns: Vec<NmPattern>,
    /// SRAM tile dimensions as `(rows, column_groups)`.
    pub sram_tiles: Vec<(usize, usize)>,
    /// Weight precisions (applied to both PEs; the MRAM packing is
    /// re-derived per [`ArchConfig::with_weight_bits`]).
    pub weight_bits: Vec<u32>,
    /// Serving splits as `(workers, par_threads)`.
    pub parallelism: Vec<(usize, usize)>,
    /// Batcher rider caps.
    pub max_batches: Vec<usize>,
}

impl SweepSpace {
    /// A bounded neighbourhood of the paper's design point — 12 grid
    /// points (small enough for a CI smoke sweep): three sparsity
    /// patterns, two weight precisions, and two serving splits around the
    /// shipped defaults.
    pub fn dac24_neighborhood() -> Self {
        Self {
            patterns: vec![
                NmPattern::one_of_four(),
                NmPattern::one_of_eight(),
                NmPattern::two_of_four(),
            ],
            sram_tiles: vec![(128, 8)],
            weight_bits: vec![8, 4],
            parallelism: vec![(4, 1), (2, 2)],
            max_batches: vec![8],
        }
    }

    /// Just the paper's point — a one-element space, useful for tests.
    pub fn dac24_only() -> Self {
        Self {
            patterns: vec![NmPattern::one_of_four()],
            sram_tiles: vec![(128, 8)],
            weight_bits: vec![8],
            parallelism: vec![(4, 1)],
            max_batches: vec![8],
        }
    }

    /// Number of raw grid points (before validation).
    pub fn grid_size(&self) -> usize {
        self.patterns.len()
            * self.sram_tiles.len()
            * self.weight_bits.len()
            * self.parallelism.len()
            * self.max_batches.len()
    }

    /// Enumerates the grid through the [`ArchConfig::validate`] gate:
    /// returns the valid configurations in deterministic grid order, plus
    /// how many grid points validation rejected.
    pub fn enumerate(&self) -> (Vec<ArchConfig>, usize) {
        let mut valid = Vec::new();
        let mut invalid = 0usize;
        for &pattern in &self.patterns {
            for &(rows, groups) in &self.sram_tiles {
                for &bits in &self.weight_bits {
                    for &(workers, par_threads) in &self.parallelism {
                        for &max_batch in &self.max_batches {
                            let cfg = ArchConfig::dac24()
                                .with_pattern(pattern)
                                .with_sram_tile(rows, groups)
                                .with_weight_bits(bits)
                                .with_parallelism(workers, par_threads)
                                .with_batching(max_batch, 256);
                            match cfg.validated() {
                                Ok(cfg) => valid.push(cfg),
                                Err(_) => invalid += 1,
                            }
                        }
                    }
                }
            }
        }
        (valid, invalid)
    }
}

impl Default for SweepSpace {
    fn default() -> Self {
        Self::dac24_neighborhood()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhood_fits_the_ci_budget() {
        let space = SweepSpace::dac24_neighborhood();
        assert!(space.grid_size() <= 32, "grid {}", space.grid_size());
        let (valid, invalid) = space.enumerate();
        assert_eq!(valid.len() + invalid, space.grid_size());
        assert!(!valid.is_empty());
        // The paper's own point is in its neighbourhood.
        assert!(valid.contains(&ArchConfig::dac24()));
    }

    #[test]
    fn invalid_grid_points_are_counted_not_dropped_silently() {
        let mut space = SweepSpace::dac24_only();
        space.sram_tiles.push((0, 8)); // degenerate tile
        let (valid, invalid) = space.enumerate();
        assert_eq!(valid.len(), 1);
        assert_eq!(invalid, 1);
    }

    #[test]
    fn enumeration_order_is_deterministic() {
        let space = SweepSpace::dac24_neighborhood();
        assert_eq!(space.enumerate().0, space.enumerate().0);
    }
}
