//! Declarative, validated architecture configuration.
//!
//! Every hardware and runtime choice the stack used to hard-code — the
//! paper's PE tile dimensions, the core/bank organisation, the N:M
//! sparsity pattern, weight precision, and the serving worker/thread/batch
//! split — is collected here as one plain-data [`ArchConfig`] value,
//! ZigZag `MemoryInstance`-hierarchy style: each level of the machine is a
//! struct of numbers, and a configuration is the composition of levels.
//!
//! The point of the type is that *invalid compositions are rejected up
//! front*: [`ArchConfig::validate`] returns a [`ConfigError`] naming the
//! violated invariant (a pattern whose index width exceeds the hardware
//! field, an MRAM row too narrow for its packing, a zero tile dimension,
//! …) instead of letting a degenerate point produce NaN costs or panics
//! deep inside the mapper. `pim-dse` enumerates sweep grids through this
//! gate; [`ArchConfig::dac24`] stays infallible because the paper's design
//! point is valid by construction.

use crate::geometry::{CoreGeometry, GeometryError};
use crate::mapper::Mapper;
use pim_pe::{MramPeConfig, SramPeConfig};
use pim_sparse::NmPattern;
use std::fmt;

/// An invariant violated by an [`ArchConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The core organisation is degenerate.
    Geometry(GeometryError),
    /// An SRAM PE tile dimension is zero.
    ZeroSramTile {
        /// Array rows of the offending config.
        rows: usize,
        /// Column groups of the offending config.
        column_groups: usize,
    },
    /// An MRAM PE tile dimension is zero.
    ZeroMramTile {
        /// Array rows of the offending config.
        rows: usize,
        /// Weight+index pairs per row of the offending config.
        pairs_per_row: usize,
    },
    /// A precision field is zero bits wide.
    ZeroPrecision {
        /// Which field: `"sram weight"`, `"sram index"`, `"mram weight"`,
        /// or `"mram index"`.
        field: &'static str,
    },
    /// The N:M pattern's index width exceeds a hardware index field.
    IndexWidthExceeded {
        /// Which PE: `"sram"` or `"mram"`.
        site: &'static str,
        /// Bits the pattern needs (`ceil(log2 m)`).
        needed_bits: u32,
        /// Bits the hardware field provides.
        hardware_bits: u32,
    },
    /// The MRAM packing does not fit the physical row.
    MramRowOverflow {
        /// Physical row width in bits.
        row_bits: usize,
        /// Bits the configured packing needs
        /// (`pairs_per_row × (weight_bits + index_bits)`).
        needed_bits: usize,
    },
    /// A runtime sizing knob is zero.
    ZeroRuntimeKnob {
        /// Which knob: `"workers"`, `"par_threads"`, `"max_batch"`, or
        /// `"queue_capacity"`.
        knob: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Geometry(e) => write!(f, "core geometry: {e}"),
            Self::ZeroSramTile { rows, column_groups } => write!(
                f,
                "sram tile {rows}x{column_groups} groups has a zero dimension"
            ),
            Self::ZeroMramTile {
                rows,
                pairs_per_row,
            } => write!(
                f,
                "mram tile {rows} rows x {pairs_per_row} pairs/row has a zero dimension"
            ),
            Self::ZeroPrecision { field } => write!(f, "{field} precision is zero bits"),
            Self::IndexWidthExceeded {
                site,
                needed_bits,
                hardware_bits,
            } => write!(
                f,
                "pattern needs {needed_bits}-bit indices but the {site} field is {hardware_bits} bits"
            ),
            Self::MramRowOverflow {
                row_bits,
                needed_bits,
            } => write!(
                f,
                "mram packing needs {needed_bits} bits per row but the row is {row_bits} bits"
            ),
            Self::ZeroRuntimeKnob { knob } => write!(f, "runtime knob '{knob}' must be >= 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        Self::Geometry(e)
    }
}

/// One complete design point of the hybrid accelerator **and** its serving
/// runtime: PE tile geometries, core organisation, sparsity pattern, and
/// the worker/thread/batch split. Plain data — construct it, mutate the
/// public fields or chain the `with_*` helpers, then [`validate`] before
/// use. See the [module docs](self) for the rationale.
///
/// [`validate`]: Self::validate
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// The SRAM sparse PE tile (rows, column groups, precisions, tech).
    pub sram: SramPeConfig,
    /// The MRAM sparse PE tile (rows, row width, packing, device corner).
    pub mram: MramPeConfig,
    /// Core/bank/sub-array organisation.
    pub geometry: CoreGeometry,
    /// The N:M sparsity pattern both sparse branches compress with.
    pub pattern: NmPattern,
    /// Serving worker threads (each owns private PE replicas).
    pub workers: usize,
    /// Width of the shared intra-request compute pool.
    pub par_threads: usize,
    /// Per-batch rider cap of the coalescing batcher.
    pub max_batch: usize,
    /// Bound of the serving request queue (admission control).
    pub queue_capacity: usize,
}

impl ArchConfig {
    /// The paper's design point: 128×96 SRAM PEs, 1024×512 MRAM PEs at a
    /// 42-pair packing, 4×4×4×4 cores, 1:4 sparsity, and the runtime
    /// defaults every prior PR shipped (4 workers, 8-rider batches, a
    /// 256-deep queue, auto-sized pool). Valid by construction.
    pub fn dac24() -> Self {
        Self {
            sram: SramPeConfig::dac24(),
            mram: MramPeConfig::dac24(),
            geometry: CoreGeometry::dac24(),
            pattern: NmPattern::one_of_four(),
            workers: 4,
            par_threads: 1,
            max_batch: 8,
            queue_capacity: 256,
        }
    }

    /// Replaces the sparsity pattern.
    pub fn with_pattern(mut self, pattern: NmPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Replaces the SRAM tile dimensions.
    pub fn with_sram_tile(mut self, rows: usize, column_groups: usize) -> Self {
        self.sram.rows = rows;
        self.sram.column_groups = column_groups;
        self
    }

    /// Replaces the weight precision on both PEs and re-derives the MRAM
    /// row packing to the widest that still fits the physical row
    /// (`row_bits / (weight_bits + index_bits)` pairs).
    pub fn with_weight_bits(mut self, weight_bits: u32) -> Self {
        self.sram.weight_bits = weight_bits;
        self.mram.weight_bits = weight_bits;
        let pair_bits = (self.mram.weight_bits + self.mram.index_bits) as usize;
        self.mram.pairs_per_row = self.mram.row_bits.checked_div(pair_bits).unwrap_or(0);
        self
    }

    /// Replaces the serving worker / compute-pool split.
    pub fn with_parallelism(mut self, workers: usize, par_threads: usize) -> Self {
        self.workers = workers;
        self.par_threads = par_threads;
        self
    }

    /// Replaces the batching policy knobs.
    pub fn with_batching(mut self, max_batch: usize, queue_capacity: usize) -> Self {
        self.max_batch = max_batch;
        self.queue_capacity = queue_capacity;
        self
    }

    /// Checks every cross-field invariant, returning the first violation.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] — degenerate tile/geometry dimensions, zero
    /// precisions, a pattern too wide for a hardware index field, an MRAM
    /// packing overflowing its row, or a zero runtime knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        CoreGeometry::new(self.geometry.banks, self.geometry.subarrays)?;
        if self.sram.rows == 0 || self.sram.column_groups == 0 {
            return Err(ConfigError::ZeroSramTile {
                rows: self.sram.rows,
                column_groups: self.sram.column_groups,
            });
        }
        if self.mram.rows == 0 || self.mram.pairs_per_row == 0 {
            return Err(ConfigError::ZeroMramTile {
                rows: self.mram.rows,
                pairs_per_row: self.mram.pairs_per_row,
            });
        }
        for (field, bits) in [
            ("sram weight", self.sram.weight_bits),
            ("sram index", self.sram.index_bits),
            ("mram weight", self.mram.weight_bits),
            ("mram index", self.mram.index_bits),
        ] {
            if bits == 0 {
                return Err(ConfigError::ZeroPrecision { field });
            }
        }
        for (site, hardware_bits) in [
            ("sram", self.sram.index_bits),
            ("mram", self.mram.index_bits),
        ] {
            let needed_bits = self.pattern.index_bits();
            if needed_bits > hardware_bits {
                return Err(ConfigError::IndexWidthExceeded {
                    site,
                    needed_bits,
                    hardware_bits,
                });
            }
        }
        let pair_bits = (self.mram.weight_bits + self.mram.index_bits) as usize;
        let needed_bits = self.mram.pairs_per_row * pair_bits;
        if needed_bits > self.mram.row_bits {
            return Err(ConfigError::MramRowOverflow {
                row_bits: self.mram.row_bits,
                needed_bits,
            });
        }
        for (knob, v) in [
            ("workers", self.workers),
            ("par_threads", self.par_threads),
            ("max_batch", self.max_batch),
            ("queue_capacity", self.queue_capacity),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroRuntimeKnob { knob });
            }
        }
        Ok(())
    }

    /// Consuming [`validate`](Self::validate) for builder chains.
    ///
    /// # Errors
    ///
    /// Same conditions as [`validate`](Self::validate).
    pub fn validated(self) -> Result<Self, ConfigError> {
        self.validate()?;
        Ok(self)
    }

    /// Validates, then builds a [`Mapper`] whose analytic tile models and
    /// capacity accounting follow this configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`validate`](Self::validate).
    pub fn mapper(&self) -> Result<Mapper, ConfigError> {
        self.validate()?;
        Ok(Mapper::from_config(self))
    }

    /// A short `[a-z0-9_]` identifier of the point, stable across runs —
    /// usable as a bench-entry name or telemetry label.
    pub fn label(&self) -> String {
        format!(
            "p{}of{}_s{}x{}_w{}_m{}x{}_k{}_w{}t{}b{}",
            self.pattern.n(),
            self.pattern.m(),
            self.sram.rows,
            self.sram.column_groups,
            self.sram.weight_bits,
            self.mram.rows,
            self.mram.pairs_per_row,
            self.mram.weight_bits,
            self.workers,
            self.par_threads,
            self.max_batch,
        )
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::dac24()
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sparse, sram {}x{}@{}b, mram {}x{} pairs@{}b, {}, {} workers x {} pool threads, batch {} / queue {}",
            self.pattern,
            self.sram.rows,
            self.sram.column_groups,
            self.sram.weight_bits,
            self.mram.rows,
            self.mram.pairs_per_row,
            self.mram.weight_bits,
            self.geometry,
            self.workers,
            self.par_threads,
            self.max_batch,
            self.queue_capacity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac24_is_valid() {
        let cfg = ArchConfig::dac24();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg, ArchConfig::default());
    }

    #[test]
    fn zero_tile_dimensions_are_rejected() {
        let cfg = ArchConfig::dac24().with_sram_tile(0, 8);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroSramTile {
                rows: 0,
                column_groups: 8
            })
        );
        let mut cfg = ArchConfig::dac24();
        cfg.mram.pairs_per_row = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroMramTile { .. })
        ));
    }

    #[test]
    fn degenerate_geometry_is_rejected() {
        let mut cfg = ArchConfig::dac24();
        cfg.geometry.banks = (0, 4);
        assert!(matches!(cfg.validate(), Err(ConfigError::Geometry(_))));
    }

    #[test]
    fn pattern_wider_than_the_index_field_is_rejected() {
        // 1:16 needs 4 bits; shrink the SRAM field to 3.
        let mut cfg = ArchConfig::dac24().with_pattern(NmPattern::new(1, 16).unwrap());
        cfg.sram.index_bits = 3;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::IndexWidthExceeded {
                site: "sram",
                needed_bits: 4,
                hardware_bits: 3
            })
        );
    }

    #[test]
    fn mram_packing_must_fit_the_row() {
        let mut cfg = ArchConfig::dac24();
        cfg.mram.pairs_per_row = 43; // 43 × 12 = 516 > 512
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MramRowOverflow {
                row_bits: 512,
                needed_bits: 516
            })
        );
    }

    #[test]
    fn with_weight_bits_rederives_the_mram_packing() {
        let cfg = ArchConfig::dac24().with_weight_bits(4);
        assert_eq!(cfg.sram.weight_bits, 4);
        assert_eq!(cfg.mram.weight_bits, 4);
        // 512 / (4 + 4) = 64 pairs per row.
        assert_eq!(cfg.mram.pairs_per_row, 64);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn zero_runtime_knobs_are_rejected() {
        let cfg = ArchConfig::dac24().with_parallelism(0, 2);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroRuntimeKnob { knob: "workers" })
        );
        let cfg = ArchConfig::dac24().with_batching(8, 0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroRuntimeKnob {
                knob: "queue_capacity"
            })
        );
    }

    #[test]
    fn zero_precision_is_rejected() {
        let cfg = ArchConfig::dac24().with_weight_bits(0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroPrecision {
                field: "sram weight"
            })
        );
    }

    #[test]
    fn label_is_plain_and_distinct_per_point() {
        let a = ArchConfig::dac24();
        let b = ArchConfig::dac24().with_pattern(NmPattern::one_of_eight());
        assert_ne!(a.label(), b.label());
        assert!(a
            .label()
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
    }

    #[test]
    fn errors_display_their_invariant() {
        let e = ConfigError::MramRowOverflow {
            row_bits: 512,
            needed_bits: 516,
        };
        assert!(e.to_string().contains("516"));
        let e = ConfigError::from(GeometryError::ZeroPeCapacity);
        assert!(e.to_string().contains("geometry"));
    }

    #[test]
    fn mapper_construction_validates_first() {
        assert!(ArchConfig::dac24().mapper().is_ok());
        assert!(ArchConfig::dac24().with_sram_tile(0, 1).mapper().is_err());
    }
}
