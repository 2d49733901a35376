//! `TUNED.json`: the machine-readable product of a sweep.
//!
//! The document carries the best-EDP design point (with its full
//! configuration), the Pareto frontier with each point's tier, and a
//! `"runtime"` object of serving knobs that
//! [`pim_runtime::RuntimeBuilder::tuned`] consumes as defaults. It is
//! written and read through the workspace's single hand-rolled JSON codec
//! ([`pim_bench::json`]); `bench-gate` structurally validates committed
//! copies in CI (absent file OK, malformed file fails).
//!
//! Only swept fields are serialized: device/tech corners (cell energies,
//! MTJ parameters, clock) are not part of the search space and stay at
//! their `dac24` values on parse, so a round-trip reconstructs the
//! configuration exactly.

use crate::evaluate::AnalyticCost;
use crate::pareto::{DesignPoint, Tier};
use pim_arch::{ArchConfig, CoreGeometry};
use pim_bench::json::{JsonValue, JsonWriter};
use pim_runtime::TunedDefaults;
use pim_sparse::NmPattern;
use std::path::Path;

/// One frontier row of the document (objectives + tier, no full config —
/// the winning configuration is only spelled out under `"best_edp"`).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// [`ArchConfig::label`] of the point.
    pub label: String,
    /// Analytic or measured.
    pub tier: Tier,
    /// Analytic objectives.
    pub cost: AnalyticCost,
    /// Host ns per SRAM matvec, for measured-tier points.
    pub measured_ns: Option<f64>,
}

impl From<&DesignPoint> for FrontierEntry {
    fn from(p: &DesignPoint) -> Self {
        Self {
            label: p.label.clone(),
            tier: p.tier,
            cost: p.cost,
            measured_ns: p.measured_ns,
        }
    }
}

/// The parsed/rendered `TUNED.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedDoc {
    /// Workload identifier the sweep optimized for.
    pub workload: String,
    /// Grid points enumerated (valid + invalid).
    pub points_swept: usize,
    /// Grid points rejected by [`ArchConfig::validate`].
    pub points_invalid: usize,
    /// The best-EDP design point, with its full configuration.
    pub best: DesignPoint,
    /// The Pareto frontier (includes the best point), ascending EDP.
    pub frontier: Vec<FrontierEntry>,
}

impl TunedDoc {
    /// The serving defaults of the winning configuration.
    pub fn runtime_defaults(&self) -> TunedDefaults {
        let cfg = &self.best.config;
        TunedDefaults {
            workers: cfg.workers,
            par_threads: cfg.par_threads,
            max_batch: cfg.max_batch,
            queue_capacity: cfg.queue_capacity,
        }
    }

    /// The winning configuration.
    pub fn to_arch_config(&self) -> ArchConfig {
        self.best.config.clone()
    }

    /// Renders the document (house JSON style, trailing newline).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("tuned");
        w.str("pim-dse");
        w.key("workload");
        w.str(&self.workload);
        w.key("points_swept");
        w.num(self.points_swept as f64, 0);
        w.key("points_invalid");
        w.num(self.points_invalid as f64, 0);
        w.key("best_edp");
        w.begin_obj();
        w.key("label");
        w.str(&self.best.label);
        w.key("tier");
        w.str(self.best.tier.as_str());
        w.key("config");
        render_config(&mut w, &self.best.config);
        w.key("metrics");
        render_metrics(&mut w, &self.best.cost, self.best.measured_ns);
        w.end_obj();
        w.key("runtime");
        let rt = self.runtime_defaults();
        w.begin_obj();
        for (k, v) in [
            ("workers", rt.workers),
            ("par_threads", rt.par_threads),
            ("max_batch", rt.max_batch),
            ("queue_capacity", rt.queue_capacity),
        ] {
            w.key(k);
            w.num(v as f64, 0);
        }
        w.end_obj();
        w.key("frontier");
        w.begin_arr();
        for entry in &self.frontier {
            w.begin_inline_obj();
            w.key("label");
            w.str(&entry.label);
            w.key("tier");
            w.str(entry.tier.as_str());
            w.key("latency_ns");
            w.num(entry.cost.latency_ns, 3);
            w.key("energy_pj");
            w.num(entry.cost.energy_pj, 3);
            w.key("area_mm2");
            w.num(entry.cost.area_mm2, 3);
            w.key("edp");
            w.num(entry.cost.edp(), 3);
            if let Some(ns) = entry.measured_ns {
                w.key("measured_ns");
                w.num(ns, 1);
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Parses a rendered document; `None` on any structural mismatch.
    ///
    /// Note the EDP stored per point is *recomputed* from the parsed
    /// latency/energy, not read back, so a round-trip through the 3-decimal
    /// rendering keeps `cost.edp()` self-consistent.
    pub fn parse(text: &str) -> Option<Self> {
        let doc = JsonValue::parse(text)?;
        if doc.str_at("tuned") != Some("pim-dse") {
            return None;
        }
        let best_obj = doc.get("best_edp")?;
        let config = parse_config(best_obj.get("config")?)?;
        let metrics = best_obj.get("metrics")?;
        let best = DesignPoint {
            label: best_obj.str_at("label")?.to_string(),
            tier: Tier::parse(best_obj.str_at("tier")?)?,
            config,
            cost: parse_cost(metrics)?,
            measured_ns: metrics.num_at("measured_ns"),
        };
        let mut frontier = Vec::new();
        for entry in doc.get("frontier")?.as_arr()? {
            frontier.push(FrontierEntry {
                label: entry.str_at("label")?.to_string(),
                tier: Tier::parse(entry.str_at("tier")?)?,
                cost: parse_cost(entry)?,
                measured_ns: entry.num_at("measured_ns"),
            });
        }
        Some(Self {
            workload: doc.str_at("workload")?.to_string(),
            points_swept: doc.usize_at("points_swept")?,
            points_invalid: doc.usize_at("points_invalid")?,
            best,
            frontier,
        })
    }

    /// Writes the rendered document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Reads and parses `path`. `Ok(None)` when the file does not exist
    /// (no sweep committed yet — callers fall back to hard-coded
    /// defaults); an I/O or parse failure is an error.
    ///
    /// # Errors
    ///
    /// I/O errors other than not-found, and `InvalidData` for a present
    /// but malformed document.
    pub fn load(path: &Path) -> std::io::Result<Option<Self>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::parse(&text).map(Some).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not a TUNED.json document", path.display()),
            )
        })
    }
}

fn render_metrics(w: &mut JsonWriter, cost: &AnalyticCost, measured_ns: Option<f64>) {
    w.begin_obj();
    w.key("latency_ns");
    w.num(cost.latency_ns, 3);
    w.key("energy_pj");
    w.num(cost.energy_pj, 3);
    w.key("area_mm2");
    w.num(cost.area_mm2, 3);
    w.key("edp");
    w.num(cost.edp(), 3);
    if let Some(ns) = measured_ns {
        w.key("measured_ns");
        w.num(ns, 1);
    }
    w.end_obj();
}

fn parse_cost(v: &JsonValue) -> Option<AnalyticCost> {
    Some(AnalyticCost {
        latency_ns: v.num_at("latency_ns")?,
        energy_pj: v.num_at("energy_pj")?,
        area_mm2: v.num_at("area_mm2")?,
    })
}

fn render_config(w: &mut JsonWriter, cfg: &ArchConfig) {
    w.begin_obj();
    for (k, v) in [
        ("pattern_n", cfg.pattern.n()),
        ("pattern_m", cfg.pattern.m()),
        ("sram_rows", cfg.sram.rows),
        ("sram_column_groups", cfg.sram.column_groups),
        ("mram_rows", cfg.mram.rows),
        ("mram_row_bits", cfg.mram.row_bits),
        ("mram_pairs_per_row", cfg.mram.pairs_per_row),
        ("banks_rows", cfg.geometry.banks.0),
        ("banks_cols", cfg.geometry.banks.1),
        ("subarrays_rows", cfg.geometry.subarrays.0),
        ("subarrays_cols", cfg.geometry.subarrays.1),
        ("workers", cfg.workers),
        ("par_threads", cfg.par_threads),
        ("max_batch", cfg.max_batch),
        ("queue_capacity", cfg.queue_capacity),
    ] {
        w.key(k);
        w.num(v as f64, 0);
    }
    for (k, v) in [
        ("sram_weight_bits", cfg.sram.weight_bits),
        ("sram_index_bits", cfg.sram.index_bits),
        ("mram_weight_bits", cfg.mram.weight_bits),
        ("mram_index_bits", cfg.mram.index_bits),
    ] {
        w.key(k);
        w.num(v as f64, 0);
    }
    w.end_obj();
}

fn parse_config(v: &JsonValue) -> Option<ArchConfig> {
    let mut cfg = ArchConfig::dac24();
    cfg.pattern = NmPattern::new(v.usize_at("pattern_n")?, v.usize_at("pattern_m")?).ok()?;
    cfg.sram.rows = v.usize_at("sram_rows")?;
    cfg.sram.column_groups = v.usize_at("sram_column_groups")?;
    cfg.sram.weight_bits = v.usize_at("sram_weight_bits")? as u32;
    cfg.sram.index_bits = v.usize_at("sram_index_bits")? as u32;
    cfg.mram.rows = v.usize_at("mram_rows")?;
    cfg.mram.row_bits = v.usize_at("mram_row_bits")?;
    cfg.mram.pairs_per_row = v.usize_at("mram_pairs_per_row")?;
    cfg.mram.weight_bits = v.usize_at("mram_weight_bits")? as u32;
    cfg.mram.index_bits = v.usize_at("mram_index_bits")? as u32;
    cfg.geometry = CoreGeometry::new(
        (v.usize_at("banks_rows")?, v.usize_at("banks_cols")?),
        (v.usize_at("subarrays_rows")?, v.usize_at("subarrays_cols")?),
    )
    .ok()?;
    cfg.workers = v.usize_at("workers")?;
    cfg.par_threads = v.usize_at("par_threads")?;
    cfg.max_batch = v.usize_at("max_batch")?;
    // Documents from before the pool lost its spawn-threshold knob still
    // carry that key; like any unknown key it is ignored.
    cfg.queue_capacity = v.usize_at("queue_capacity")?;
    cfg.validated().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sparse::NmPattern;

    fn sample_doc() -> TunedDoc {
        let cfg = ArchConfig::dac24()
            .with_pattern(NmPattern::one_of_eight())
            .with_parallelism(2, 2);
        let cost = AnalyticCost {
            latency_ns: 1234.5678,
            energy_pj: 99.125,
            area_mm2: 3.25,
        };
        let mut best = DesignPoint::analytic(cfg, cost);
        best.tier = Tier::Measured;
        best.measured_ns = Some(42.5);
        let frontier = vec![
            FrontierEntry::from(&best),
            FrontierEntry {
                label: "p1of4_other".into(),
                tier: Tier::Analytic,
                cost: AnalyticCost {
                    latency_ns: 2000.0,
                    energy_pj: 50.0,
                    area_mm2: 4.0,
                },
                measured_ns: None,
            },
        ];
        TunedDoc {
            workload: "resnet50_repnet".into(),
            points_swept: 24,
            points_invalid: 1,
            best,
            frontier,
        }
    }

    #[test]
    fn document_round_trips_with_the_exact_config() {
        let doc = sample_doc();
        let text = doc.render();
        let parsed = TunedDoc::parse(&text).expect("own render parses");
        // The winning configuration survives bit-for-bit (only swept
        // fields are serialized; the rest are dac24 on both sides).
        assert_eq!(parsed.best.config, doc.best.config);
        assert_eq!(parsed.best.tier, Tier::Measured);
        assert_eq!(parsed.best.measured_ns, Some(42.5));
        assert_eq!(parsed.workload, doc.workload);
        assert_eq!(parsed.points_swept, 24);
        assert_eq!(parsed.points_invalid, 1);
        assert_eq!(parsed.frontier.len(), 2);
        assert_eq!(parsed.frontier[1].tier, Tier::Analytic);
        // And a second render is byte-identical (metrics survive the
        // 3-decimal quantization because render feeds from parsed values).
        assert_eq!(TunedDoc::parse(&parsed.render()), Some(parsed));
    }

    #[test]
    fn runtime_defaults_mirror_the_winning_config() {
        let doc = sample_doc();
        let rt = doc.runtime_defaults();
        assert_eq!(rt.workers, 2);
        assert_eq!(rt.par_threads, 2);
        assert_eq!(rt.max_batch, 8);
        assert_eq!(rt.queue_capacity, 256);
        assert_eq!(doc.to_arch_config(), doc.best.config);
    }

    #[test]
    fn legacy_documents_with_the_pool_threshold_knob_still_load() {
        // A verbatim TUNED.json from before the compute pool lost its
        // spawn-threshold knob: the key sits in both `best_edp.config` and
        // `runtime`, and must be ignored like any other unknown key.
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../testdata/tuned_legacy_knob.json");
        let doc = TunedDoc::load(&path)
            .expect("readable")
            .expect("present and well-formed");
        let swept = ArchConfig::dac24()
            .with_pattern(NmPattern::one_of_eight())
            .with_weight_bits(4);
        assert_eq!(doc.best.config, swept);
        assert_eq!(doc.points_swept, 24);
        assert_eq!(doc.frontier.len(), 4);
        let rt = doc.runtime_defaults();
        assert_eq!(
            (rt.workers, rt.par_threads, rt.max_batch, rt.queue_capacity),
            (4, 1, 8, 256)
        );
    }

    #[test]
    fn parse_rejects_foreign_and_broken_documents() {
        assert_eq!(TunedDoc::parse("{}"), None);
        assert_eq!(TunedDoc::parse("not json"), None);
        // A bench baseline is not a tuned document.
        assert_eq!(
            TunedDoc::parse("{\n  \"bench\": \"kernels\",\n  \"entries\": [\n  ]\n}\n"),
            None
        );
        // An invalid embedded config is rejected even in valid JSON.
        let broken = sample_doc()
            .render()
            .replace("\"sram_rows\": 128", "\"sram_rows\": 0");
        assert_eq!(TunedDoc::parse(&broken), None);
    }

    #[test]
    fn load_distinguishes_absent_from_malformed() {
        let dir = std::env::temp_dir().join("pim_dse_tuned_test");
        std::fs::create_dir_all(&dir).unwrap();
        let absent = dir.join("absent.json");
        let _ = std::fs::remove_file(&absent);
        assert!(TunedDoc::load(&absent).unwrap().is_none());

        let malformed = dir.join("malformed.json");
        std::fs::write(&malformed, "{broken").unwrap();
        assert!(TunedDoc::load(&malformed).is_err());

        let good = dir.join("good.json");
        sample_doc().save(&good).unwrap();
        let loaded = TunedDoc::load(&good).unwrap().expect("present and valid");
        assert_eq!(loaded.best.config, sample_doc().best.config);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
