//! CI regression gate over the `BENCH_kernels.json` baseline.
//!
//! ```text
//! bench-gate <committed.json> <fresh.json> [tuned.json]
//! ```
//!
//! Compares the committed baseline against a freshly regenerated one and
//! exits non-zero when the fresh run regressed structurally or drifted too
//! far. Deliberately wall-clock-proof for CI:
//!
//! * **Structure** — every entry name and derived key the committed
//!   baseline carries must exist in the fresh document (a bench that
//!   silently stopped measuring a kernel fails the gate).
//! * **Bounded ratio drift** — the headline *speedup ratios* (already
//!   machine-speed-independent, being ratios of two same-machine
//!   timings) must stay within [`MAX_DRIFT`]× of the committed values in
//!   either direction. Raw `ns_per_iter` entries are never compared —
//!   absolute wall-clock varies with the runner and would flake.
//! * **Tuned defaults** (optional third argument) — an absent
//!   `TUNED.json` is tolerated (the sweep simply has not been committed),
//!   but a present-and-malformed one fails the gate: a runtime would
//!   silently ignore broken tuned defaults, so CI must not.

#![forbid(unsafe_code)]

use pim_bench::json::JsonValue;
use pim_bench::BenchDoc;
use std::process::ExitCode;

/// Speedup-ratio keys the gate bounds (ratios of same-machine timings).
///
/// The `par_speedup_*` keys are deliberately NOT here: parallel speedup
/// depends on the runner's core count, so it gets its own core-aware
/// floor check below instead of a drift bound against the committed value.
const RATIO_KEYS: [&str; 2] = [
    "flat_vs_bit_serial_speedup",
    "batch8_vs_single_speedup_sram",
];

/// Allowed drift factor per ratio, either direction.
const MAX_DRIFT: f64 = 3.0;

/// Fresh-run parallel speedup key checked against [`MIN_PAR_SPEEDUP`].
const PAR_SPEEDUP_KEY: &str = "par_speedup_4t";

/// Fresh-run core count gating the parallel floor: with fewer cores than
/// pool threads the pool cannot beat serial, so the check is skipped
/// (CI's ubuntu runners have 4 vCPUs and do enforce it).
const PAR_CORES_KEY: &str = "par_available_cores";
const MIN_PAR_CORES: f64 = 4.0;

/// Required end-to-end speedup of `pe_repnet_predict_batch8` at 4 pool
/// threads on a machine with at least [`MIN_PAR_CORES`] cores.
const MIN_PAR_SPEEDUP: f64 = 1.5;

/// Serving SLO ceilings enforced on the fresh run's cluster and governor
/// keys (written by `examples/cluster.rs` / `examples/governor.rs`):
/// absolute bounds, not drift — a p99 or rejection fraction above these
/// is a regression regardless of what the committed baseline said. Only
/// enforced once the committed baseline carries the key, so older
/// baselines still gate cleanly.
///
/// The governor keys mirror `examples/governor.rs`: the high-priority
/// tenant's p99 must hold through the burst, shedding must stay bounded,
/// and the ladder must fully unwind within the tick budget.
const SLO_CEILINGS: [(&str, f64); 5] = [
    ("cluster_p99_ms", 250.0),
    ("cluster_rejection_frac", 0.10),
    ("governor_p99_ms_hi_prio", 250.0),
    ("governor_shed_frac", 0.90),
    ("governor_recovery_ticks", 400.0),
];

/// Telemetry overhead key: the fresh fraction is clamped at zero before
/// the ceiling check — timing jitter routinely makes the instrumented
/// path a hair *faster* (the committed baseline itself carries a small
/// negative value), and a negative overhead is noise, not a win to gate
/// on.
const TELEMETRY_OVERHEAD_KEY: &str = "telemetry_overhead_frac";
const MAX_TELEMETRY_OVERHEAD: f64 = 0.15;

fn load(path: &str) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchDoc::parse(&text).ok_or_else(|| format!("{path} is not a bench baseline document"))
}

fn run(committed_path: &str, fresh_path: &str) -> Result<Vec<String>, String> {
    let committed = load(committed_path)?;
    let fresh = load(fresh_path)?;
    let mut failures = Vec::new();
    for r in &committed.entries {
        match fresh.entry_ns(&r.name) {
            Some(ns) => println!("  entry {:<32} present ({ns:.1} ns/iter)", r.name),
            None => failures.push(format!("entry '{}' missing from the fresh run", r.name)),
        }
    }
    for (key, _) in &committed.derived {
        if fresh.derived_value(key).is_none() {
            failures.push(format!("derived key '{key}' missing from the fresh run"));
        }
    }
    for key in RATIO_KEYS {
        let (Some(was), Some(now)) = (committed.derived_value(key), fresh.derived_value(key))
        else {
            failures.push(format!("ratio key '{key}' absent from a baseline"));
            continue;
        };
        if !(was.is_finite() && now.is_finite() && was > 0.0 && now > 0.0) {
            failures.push(format!("ratio key '{key}' is not a positive finite value"));
            continue;
        }
        let drift = now / was;
        if (1.0 / MAX_DRIFT..=MAX_DRIFT).contains(&drift) {
            println!("  ratio {key:<32} {was:.3} -> {now:.3} (drift {drift:.2}x, ok)");
        } else {
            failures.push(format!(
                "ratio '{key}' drifted {drift:.2}x (committed {was:.3}, fresh {now:.3}, \
                 allowed {:.2}x..{MAX_DRIFT:.2}x)",
                1.0 / MAX_DRIFT
            ));
        }
    }
    println!("  {}", baseline_cores_note(&committed));
    check_parallel_floor(&fresh, &mut failures);
    check_slo_ceilings(&committed, &fresh, &mut failures);
    check_telemetry_overhead(&committed, &fresh, &mut failures);
    Ok(failures)
}

/// Enforces the telemetry-overhead ceiling on `max(0, frac)` — negative
/// fractions are clamped to zero rather than failing or skewing drift.
fn check_telemetry_overhead(committed: &BenchDoc, fresh: &BenchDoc, failures: &mut Vec<String>) {
    if committed.derived_value(TELEMETRY_OVERHEAD_KEY).is_none() {
        return;
    }
    let Some(raw) = fresh.derived_value(TELEMETRY_OVERHEAD_KEY) else {
        return; // already a structure failure
    };
    if !raw.is_finite() {
        failures.push(format!(
            "'{TELEMETRY_OVERHEAD_KEY}' is {raw}, not a finite value"
        ));
        return;
    }
    let frac = raw.max(0.0);
    if frac <= MAX_TELEMETRY_OVERHEAD {
        println!(
            "  tele  {TELEMETRY_OVERHEAD_KEY:<32} {raw:.3} (clamped {frac:.3}, \
             ceiling {MAX_TELEMETRY_OVERHEAD}, ok)"
        );
    } else {
        failures.push(format!(
            "telemetry overhead '{TELEMETRY_OVERHEAD_KEY}' is {frac:.3}, \
             above its ceiling {MAX_TELEMETRY_OVERHEAD}"
        ));
    }
}

/// Enforces the serving SLO ceilings on the fresh run. A committed
/// baseline without the key (predating the cluster) skips the check;
/// a fresh run missing a key the committed baseline carries has already
/// failed the structure check above.
fn check_slo_ceilings(committed: &BenchDoc, fresh: &BenchDoc, failures: &mut Vec<String>) {
    for (key, ceiling) in SLO_CEILINGS {
        if committed.derived_value(key).is_none() {
            println!("  slo   {key:<32} SKIPPED (no committed baseline key)");
            continue;
        }
        let Some(value) = fresh.derived_value(key) else {
            continue; // already a structure failure
        };
        if value.is_finite() && value <= ceiling {
            println!("  slo   {key:<32} {value:.3} (ceiling {ceiling}, ok)");
        } else {
            failures.push(format!(
                "SLO '{key}' is {value:.3}, above its ceiling {ceiling}"
            ));
        }
    }
}

/// Surfaces the provenance of the committed parallel numbers. A baseline
/// recorded on a narrow machine carries ~1.0 `par_speedup_*` values that
/// say nothing about the scheduler — the pool degraded to inline
/// execution when they were measured — so the gate log states that
/// explicitly instead of letting a reader mistake them for scheduler
/// targets. Informational only: the speedup floor always gates on the
/// **fresh** runner's core count ([`check_parallel_floor`]), never the
/// committed one.
fn baseline_cores_note(committed: &BenchDoc) -> String {
    match committed.derived_value(PAR_CORES_KEY) {
        Some(cores) if cores < MIN_PAR_CORES => format!(
            "warn  BASELINE RECORDED ON cores={cores:.0}: committed par_speedup_* values \
             are inline-fallback numbers (~1.0), not scheduler targets; the \
             {MIN_PAR_SPEEDUP:.1}x floor gates the fresh runner only"
        ),
        Some(cores) => format!("info  baseline recorded on cores={cores:.0}"),
        None => format!("warn  baseline predates '{PAR_CORES_KEY}' (recording cores unknown)"),
    }
}

/// Enforces the 4-thread end-to-end speedup floor, but only when the
/// fresh run happened on a machine with enough cores to express it.
fn check_parallel_floor(fresh: &BenchDoc, failures: &mut Vec<String>) {
    let cores = fresh.derived_value(PAR_CORES_KEY);
    let speedup = fresh.derived_value(PAR_SPEEDUP_KEY);
    let (Some(cores), Some(speedup)) = (cores, speedup) else {
        failures.push(format!(
            "fresh run is missing '{PAR_SPEEDUP_KEY}'/'{PAR_CORES_KEY}'"
        ));
        return;
    };
    if cores < MIN_PAR_CORES {
        println!(
            "  par   {PAR_SPEEDUP_KEY:<32} SKIPPED (cores={cores:.0}, floor needs \
             {MIN_PAR_CORES:.0}+; measured {speedup:.3})"
        );
    } else if speedup.is_finite() && speedup >= MIN_PAR_SPEEDUP {
        println!(
            "  par   {PAR_SPEEDUP_KEY:<32} {speedup:.3} on {cores:.0} cores \
             (floor {MIN_PAR_SPEEDUP:.2}x, ok)"
        );
    } else {
        failures.push(format!(
            "parallel speedup '{PAR_SPEEDUP_KEY}' is {speedup:.3} on {cores:.0} cores \
             (floor {MIN_PAR_SPEEDUP:.2}x)"
        ));
    }
}

/// Structural validation of a `TUNED.json` document.
///
/// The schema is owned by `pim-dse`'s `TunedDoc`; this gate only checks
/// the load-bearing shape a consumer (`RuntimeBuilder::tuned`) relies on,
/// so the two crates stay decoupled.
fn validate_tuned_text(text: &str) -> Result<(), String> {
    let doc = JsonValue::parse(text).ok_or("not valid JSON")?;
    doc.str_at("tuned").ok_or("missing 'tuned' string")?;
    let best = doc.get("best_edp").ok_or("missing 'best_edp' object")?;
    best.get("config")
        .and_then(JsonValue::as_obj)
        .filter(|o| !o.is_empty())
        .ok_or("'best_edp' is missing a non-empty 'config' object")?;
    let edp = best
        .get("metrics")
        .ok_or("'best_edp' is missing a 'metrics' object")?
        .num_at("edp")
        .ok_or("'best_edp.metrics' is missing 'edp'")?;
    if !(edp.is_finite() && edp > 0.0) {
        return Err(format!(
            "'best_edp.metrics.edp' is {edp}, not positive finite"
        ));
    }
    let runtime = doc.get("runtime").ok_or("missing 'runtime' object")?;
    for knob in ["workers", "par_threads", "max_batch", "queue_capacity"] {
        let v = runtime
            .usize_at(knob)
            .ok_or_else(|| format!("'runtime.{knob}' is missing or not a whole number"))?;
        if v == 0 {
            return Err(format!("'runtime.{knob}' is zero"));
        }
    }
    let frontier = doc
        .get("frontier")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'frontier' array")?;
    if frontier.is_empty() {
        return Err("'frontier' is empty".into());
    }
    Ok(())
}

/// Gate logic for the optional tuned-defaults document: absent is fine,
/// malformed is a failure.
fn check_tuned(path: &str, failures: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => {
            println!("  tuned {path:<32} absent (ok — no tuned defaults committed)");
            return;
        }
    };
    match validate_tuned_text(&text) {
        Ok(()) => println!("  tuned {path:<32} well-formed"),
        Err(e) => failures.push(format!("tuned defaults '{path}' are malformed: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (committed, fresh, tuned) = match args.as_slice() {
        [c, f] => (c, f, None),
        [c, f, t] => (c, f, Some(t)),
        _ => {
            eprintln!("usage: bench-gate <committed.json> <fresh.json> [tuned.json]");
            return ExitCode::FAILURE;
        }
    };
    println!("bench-gate: {committed} vs {fresh}");
    match run(committed, fresh) {
        Ok(mut failures) => {
            if let Some(tuned) = tuned {
                check_tuned(tuned, &mut failures);
            }
            if failures.is_empty() {
                println!("bench-gate: PASS");
                ExitCode::SUCCESS
            } else {
                for f in &failures {
                    eprintln!("bench-gate: FAIL: {f}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-gate: ERROR: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pairs: &[(&str, f64)]) -> BenchDoc {
        let mut d = BenchDoc::empty("kernels");
        d.derived = pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        d
    }

    #[test]
    fn negative_telemetry_overhead_is_clamped_not_failed() {
        let committed = doc(&[(TELEMETRY_OVERHEAD_KEY, -0.005)]);
        let mut failures = Vec::new();
        // A fresh run where instrumentation "won" by jitter is fine.
        check_telemetry_overhead(
            &committed,
            &doc(&[(TELEMETRY_OVERHEAD_KEY, -0.25)]),
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
        // A genuinely hot overhead still fails.
        check_telemetry_overhead(
            &committed,
            &doc(&[(TELEMETRY_OVERHEAD_KEY, 0.5)]),
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        // Baselines predating the key skip the check.
        let mut none = Vec::new();
        check_telemetry_overhead(&doc(&[]), &doc(&[(TELEMETRY_OVERHEAD_KEY, 0.5)]), &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn governor_slo_ceilings_gate_once_committed() {
        let committed = doc(&[
            ("governor_p99_ms_hi_prio", 12.0),
            ("governor_shed_frac", 0.5),
            ("governor_recovery_ticks", 20.0),
        ]);
        // A fresh run inside every ceiling passes.
        let mut failures = Vec::new();
        check_slo_ceilings(
            &committed,
            &doc(&[
                ("governor_p99_ms_hi_prio", 180.0),
                ("governor_shed_frac", 0.85),
                ("governor_recovery_ticks", 350.0),
            ]),
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
        // Each ceiling fails independently when exceeded.
        for (key, bad) in [
            ("governor_p99_ms_hi_prio", 300.0),
            ("governor_shed_frac", 0.95),
            ("governor_recovery_ticks", 500.0),
        ] {
            let mut fresh_pairs = vec![
                ("governor_p99_ms_hi_prio", 10.0),
                ("governor_shed_frac", 0.1),
                ("governor_recovery_ticks", 5.0),
            ];
            fresh_pairs.iter_mut().find(|(k, _)| *k == key).unwrap().1 = bad;
            let mut failures = Vec::new();
            check_slo_ceilings(&committed, &doc(&fresh_pairs), &mut failures);
            assert_eq!(failures.len(), 1, "'{key}' over its ceiling must fail");
            assert!(failures[0].contains(key));
        }
        // Baselines predating the governor skip all three.
        let mut none = Vec::new();
        check_slo_ceilings(
            &doc(&[]),
            &doc(&[("governor_p99_ms_hi_prio", 9_999.0)]),
            &mut none,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_floor_skips_below_core_minimum_but_gates_at_it() {
        // Too few cores: an under-floor speedup is skipped, not failed.
        let mut failures = Vec::new();
        check_parallel_floor(
            &doc(&[(PAR_CORES_KEY, 1.0), (PAR_SPEEDUP_KEY, 0.4)]),
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
        // Enough cores: the same speedup fails the floor.
        check_parallel_floor(
            &doc(&[(PAR_CORES_KEY, 4.0), (PAR_SPEEDUP_KEY, 0.4)]),
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        // Enough cores and a healthy speedup passes.
        let mut ok = Vec::new();
        check_parallel_floor(
            &doc(&[(PAR_CORES_KEY, 4.0), (PAR_SPEEDUP_KEY, 2.1)]),
            &mut ok,
        );
        assert!(ok.is_empty(), "{ok:?}");
        // Missing keys are a structure failure, not a silent skip.
        let mut missing = Vec::new();
        check_parallel_floor(&doc(&[]), &mut missing);
        assert_eq!(missing.len(), 1);
    }

    #[test]
    fn baseline_cores_note_flags_narrow_recording_machines() {
        // A baseline recorded on 1 core gets the explicit provenance
        // warning, verbatim enough to grep CI logs for.
        let note = baseline_cores_note(&doc(&[(PAR_CORES_KEY, 1.0)]));
        assert!(note.contains("BASELINE RECORDED ON cores=1"), "{note}");
        // At or above the floor's core minimum it is informational.
        let note = baseline_cores_note(&doc(&[(PAR_CORES_KEY, 8.0)]));
        assert!(note.starts_with("info"), "{note}");
        assert!(note.contains("cores=8"), "{note}");
        // A pre-sweep baseline is called out, not guessed at.
        let note = baseline_cores_note(&doc(&[]));
        assert!(note.contains(PAR_CORES_KEY), "{note}");
    }

    const GOOD: &str = r#"{
  "tuned": "dse",
  "best_edp": {
    "label": "p",
    "config": {"workers": 4},
    "metrics": {"edp": 1.5}
  },
  "runtime": {"workers": 4, "par_threads": 1, "max_batch": 8, "queue_capacity": 256},
  "frontier": [{"label": "p", "edp": 1.5}]
}"#;

    #[test]
    fn accepts_a_well_formed_tuned_doc() {
        assert_eq!(validate_tuned_text(GOOD), Ok(()));
    }

    #[test]
    fn accepts_a_legacy_tuned_doc_with_the_pool_threshold_knob() {
        // Committed before the compute pool lost its spawn threshold; the
        // extra key in `config` and `runtime` must not fail the gate.
        let legacy = include_str!("../../../../testdata/tuned_legacy_knob.json");
        assert_eq!(validate_tuned_text(legacy), Ok(()));
    }

    #[test]
    fn rejects_malformed_tuned_docs() {
        assert!(validate_tuned_text("not json").is_err());
        assert!(validate_tuned_text("{}").is_err());
        for (from, to) in [
            ("\"edp\": 1.5", "\"edp\": 0.0"),
            (
                "\"workers\": 4, \"par_threads\"",
                "\"workers\": 0, \"par_threads\"",
            ),
            ("[{\"label\": \"p\", \"edp\": 1.5}]", "[]"),
            ("\"config\": {\"workers\": 4}", "\"config\": {}"),
            ("\"par_threads\": 1", "\"par_threads\": 0"),
            ("\"max_batch\": 8", "\"max_batch\": 0"),
            ("\"queue_capacity\": 256}", "\"queue_capacity\": 0}"),
            (", \"queue_capacity\": 256}", "}"),
        ] {
            let broken = GOOD.replace(from, to);
            assert_ne!(broken, GOOD, "replacement {from:?} must apply");
            assert!(
                validate_tuned_text(&broken).is_err(),
                "should reject {from:?} -> {to:?}"
            );
        }
    }
}
