//! Benchmark support crate.
//!
//! The binaries under `benches/` regenerate every table and figure of the
//! paper (printing them to stdout) and attach Criterion measurements to
//! the computational kernels behind them. Run all of them with
//! `cargo bench --workspace`; each bench's printed artifact is the row/
//! series to compare against the publication, and `EXPERIMENTS.md` records
//! the paper-vs-measured comparison.

#![forbid(unsafe_code)]

pub mod json;

use json::{JsonValue, JsonWriter};
use pim_telemetry::TelemetryRegistry;
use std::path::Path;
use std::time::Instant;

/// Prints a banner separating the regenerated artifact from Criterion's
/// measurement output.
pub fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// One measured kernel in the JSON baseline emitted by `benches/kernels.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Kernel identifier (plain `[a-z0-9_]` — written unescaped).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
}

impl BenchRecord {
    /// A named measurement.
    pub fn new(name: impl Into<String>, ns_per_iter: f64) -> Self {
        Self {
            name: name.into(),
            ns_per_iter,
        }
    }
}

/// Times `f` over `iters` iterations (after one warmup call) and returns
/// the mean nanoseconds per iteration.
pub fn measure_ns<O>(iters: u32, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// [`measure_ns`] repeated `passes` times, keeping the fastest pass.
///
/// The minimum-of-means estimator discards the scheduler-noise spikes a
/// single long pass averages in — on the 1-core CI runner a descheduled
/// pass can read 50% high, and the recorded baselines gate regressions.
pub fn measure_ns_best<O>(passes: u32, iters: u32, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        best = best.min(measure_ns(iters, &mut f));
    }
    best
}

/// [`measure_ns`], additionally publishing the result as the
/// `pim_bench_ns_per_iter{bench="<name>"}` gauge in `registry` so bench
/// timings render next to the runtime series in one Prometheus page.
pub fn measure_ns_into<O>(
    registry: &TelemetryRegistry,
    name: &str,
    iters: u32,
    f: impl FnMut() -> O,
) -> f64 {
    let ns = measure_ns(iters, f);
    registry
        .gauge_with(
            "pim_bench_ns_per_iter",
            "Mean wall-clock nanoseconds per bench iteration",
            &[("bench", name)],
        )
        .set(ns);
    ns
}

/// Renders bench records plus derived ratios as a JSON document, via the
/// shared [`json::JsonWriter`].
pub fn render_bench_json<S: AsRef<str>>(
    bench: &str,
    records: &[BenchRecord],
    derived: &[(S, f64)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("bench");
    w.str(bench);
    w.key("entries");
    w.begin_arr();
    for r in records {
        w.begin_inline_obj();
        w.key("name");
        w.str(&r.name);
        w.key("ns_per_iter");
        w.num(r.ns_per_iter, 1);
        w.end_obj();
    }
    w.end_arr();
    w.key("derived");
    w.begin_obj();
    for (k, v) in derived {
        w.key(k.as_ref());
        w.num(*v, 3);
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// A parsed `BENCH_*.json` baseline.
///
/// Parsed through the shared [`json::JsonValue`] reader, so any valid JSON
/// carrying the `{bench, entries, derived}` shape loads — not just the
/// exact byte layout [`render_bench_json`] emits.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// The `"bench"` identifier.
    pub bench: String,
    /// Measured entries, in document order.
    pub entries: Vec<BenchRecord>,
    /// Derived ratio/summary keys, in document order.
    pub derived: Vec<(String, f64)>,
}

impl BenchDoc {
    /// An empty document named `bench`.
    pub fn empty(bench: impl Into<String>) -> Self {
        Self {
            bench: bench.into(),
            entries: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Parses a `{bench, entries, derived}` document; `None` if the text
    /// is not JSON or does not carry the expected structure.
    pub fn parse(json: &str) -> Option<Self> {
        let doc = JsonValue::parse(json)?;
        let bench = doc.str_at("bench")?.to_string();
        let mut entries = Vec::new();
        if let Some(items) = doc.get("entries").and_then(JsonValue::as_arr) {
            for item in items {
                entries.push(BenchRecord::new(
                    item.str_at("name")?,
                    item.num_at("ns_per_iter")?,
                ));
            }
        }
        let mut derived = Vec::new();
        if let Some(fields) = doc.get("derived").and_then(JsonValue::as_obj) {
            for (key, value) in fields {
                derived.push((key.clone(), value.as_f64()?));
            }
        }
        Some(Self {
            bench,
            entries,
            derived,
        })
    }

    /// The `ns_per_iter` of entry `name`, if present.
    pub fn entry_ns(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_per_iter)
    }

    /// The derived value under `key`, if present.
    pub fn derived_value(&self, key: &str) -> Option<f64> {
        self.derived.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Replaces entry `name` in place, or appends it.
    pub fn upsert_entry(&mut self, name: &str, ns_per_iter: f64) {
        match self.entries.iter_mut().find(|r| r.name == name) {
            Some(r) => r.ns_per_iter = ns_per_iter,
            None => self.entries.push(BenchRecord::new(name, ns_per_iter)),
        }
    }

    /// Replaces derived `key` in place, or appends it.
    pub fn upsert_derived(&mut self, key: &str, value: f64) {
        match self.derived.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.derived.push((key.to_string(), value)),
        }
    }

    /// Renders back to the [`render_bench_json`] document format.
    pub fn render(&self) -> String {
        render_bench_json(&self.bench, &self.entries, &self.derived)
    }
}

/// Upserts `records` and `derived` into the baseline at `path`, keeping
/// whatever other entries it already holds — so several benches can share
/// one baseline file without clobbering each other. An absent or
/// unparseable file starts fresh as bench `bench`.
pub fn merge_bench_json<S: AsRef<str>>(
    path: &Path,
    bench: &str,
    records: &[BenchRecord],
    derived: &[(S, f64)],
) -> std::io::Result<()> {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| BenchDoc::parse(&s))
        .unwrap_or_else(|| BenchDoc::empty(bench));
    for r in records {
        doc.upsert_entry(&r.name, r.ns_per_iter);
    }
    for (k, v) in derived {
        doc.upsert_derived(k.as_ref(), *v);
    }
    std::fs::write(path, doc.render())?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ns_counts_only_timed_iterations() {
        let mut calls = 0u32;
        let ns = measure_ns(5, || calls += 1);
        assert_eq!(calls, 6); // warmup + 5 timed
        assert!(ns >= 0.0);
    }

    #[test]
    fn measure_ns_best_runs_every_pass_and_keeps_a_finite_minimum() {
        let mut calls = 0u32;
        let ns = measure_ns_best(3, 5, || calls += 1);
        assert_eq!(calls, 3 * 6); // each pass: warmup + 5 timed
        assert!(ns.is_finite() && ns >= 0.0);
    }

    #[test]
    fn render_bench_json_is_well_formed() {
        let records = [
            BenchRecord::new("a_kernel", 123.456),
            BenchRecord::new("b_kernel", 7.0),
        ];
        let json = render_bench_json("kernels", &records, &[("speedup", 17.25)]);
        assert!(json.contains("\"bench\": \"kernels\""));
        assert!(json.contains("{\"name\": \"a_kernel\", \"ns_per_iter\": 123.5},"));
        assert!(json.contains("{\"name\": \"b_kernel\", \"ns_per_iter\": 7.0}\n"));
        assert!(json.contains("\"speedup\": 17.250"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn bench_doc_round_trips_through_render_and_parse() {
        let records = [
            BenchRecord::new("a_kernel", 123.5),
            BenchRecord::new("b_kernel", 7.0),
        ];
        let json = render_bench_json("kernels", &records, &[("speedup", 17.25), ("frac", 0.013)]);
        let doc = BenchDoc::parse(&json).expect("own format parses");
        assert_eq!(doc.bench, "kernels");
        assert_eq!(doc.entries, records);
        assert_eq!(doc.entry_ns("b_kernel"), Some(7.0));
        assert_eq!(doc.derived_value("speedup"), Some(17.25));
        assert_eq!(doc.derived_value("frac"), Some(0.013));
        assert_eq!(doc.derived_value("missing"), None);
        // Rendering the parsed doc reproduces the document exactly.
        assert_eq!(doc.render(), json);
    }

    #[test]
    fn bench_doc_upserts_replace_in_place_and_append() {
        let mut doc = BenchDoc::empty("kernels");
        doc.upsert_entry("k", 10.0);
        doc.upsert_entry("k", 20.0);
        doc.upsert_entry("other", 1.0);
        assert_eq!(doc.entry_ns("k"), Some(20.0));
        assert_eq!(doc.entries.len(), 2);
        doc.upsert_derived("r", 1.5);
        doc.upsert_derived("r", 2.5);
        assert_eq!(doc.derived_value("r"), Some(2.5));
        assert_eq!(doc.derived.len(), 1);
    }

    #[test]
    fn parse_rejects_documents_without_a_bench_key() {
        assert_eq!(BenchDoc::parse("{}"), None);
        assert_eq!(BenchDoc::parse("not json at all"), None);
    }

    #[test]
    fn measure_ns_into_publishes_the_gauge() {
        let registry = TelemetryRegistry::new();
        let ns = measure_ns_into(&registry, "noop", 3, || ());
        let gauge = registry.gauge_with(
            "pim_bench_ns_per_iter",
            "Mean wall-clock nanoseconds per bench iteration",
            &[("bench", "noop")],
        );
        assert_eq!(gauge.value(), ns);
    }
}
