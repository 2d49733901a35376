//! End-to-end and per-layer benchmark of the hybrid PIM stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-b8|serve-open|learn-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run does a fixed amount of work drawn from a seeded schedule
//! (`--seconds` scales the operation count, no loop is bounded by wall
//! time), checks every output bit-exactly, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones of [`END_TO_END`]; with
//! `--trace 1` they are the per-layer ones of [`PER_LAYER`]. See
//! `perfbench/README.md` for what each one means.

mod learn;
mod offline;
mod probe;
mod serve;
mod stats;
mod trace;

use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics `(name, unit)`, reported by every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("publish_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A workload that
/// does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 21] = [
    ("pim-nn.backbone_ms", "ms"),
    ("pim-core.branch_ms", "ms"),
    ("pim-core.conv3_ms", "ms"),
    ("pim-pe.matvecs", "count"),
    ("pim-pe.macs", "count"),
    ("pim-pe.write_bits", "count"),
    ("pim-par.inline_frac", "ratio"),
    ("pim-runtime.submit_us", "us"),
    ("pim-runtime.queue_ms", "ms"),
    ("pim-runtime.batch_form_ms", "ms"),
    ("pim-runtime.compute_ms", "ms"),
    ("pim-runtime.reply_ms", "ms"),
    ("pim-runtime.batch_size_mean", "count"),
    ("pim-runtime.swap_ms", "ms"),
    ("pim-runtime.first_after_swap_ms", "ms"),
    ("pim-learn.step_ms", "ms"),
    ("pim-learn.write_back_ms", "ms"),
    ("pim-learn.snapshot_ms", "ms"),
    ("pim-telemetry.overhead_frac", "ratio"),
    ("e2e.p99_ms", "ms"),
    ("e2e.unaccounted_frac", "ratio"),
];

/// The tiny RepNet of `examples/serving.rs` and `examples/continual.rs`,
/// served by `serve-open` and trained by `learn-serve`.
pub fn tiny_repnet() -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 10,
            seed: 42,
        },
    )
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly the metrics of `list`, in its order.
    fn to_json(&self, list: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                assert!(value.is_finite(), "{name} measured {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "offline-b8" => offline::run(&args),
        "serve-open" => serve::run(&args),
        "learn-serve" => learn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        for (name, _) in END_TO_END {
            assert!(
                report.metrics.contains_key(name),
                "workload {} did not measure {name}",
                args.workload
            );
        }
    }
    println!("{}", report.to_json(list));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric lists printed here are the ones `BENCHMARK.json` names.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json names a metric the benchmark does not print"
        );
    }
}
