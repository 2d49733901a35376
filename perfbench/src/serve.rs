//! `serve-open`: an open loop of seeded Poisson arrivals at one fixed
//! rate into `Runtime::submit`, on a tiny RepNet with `max_batch` 8 and
//! `max_wait` 1 ms.
//!
//! Threads: this generator thread plus one runtime worker, with a
//! one-thread compute pool so every forward pass runs inline on the
//! worker. A collector thread blocks on the tickets in submission order
//! and stamps each reply; it sleeps between replies.
//!
//! Compute per request is tens of microseconds, so admission, batch
//! formation, worker wake-up, reply and stats are a large share of each
//! request's time. `pim-par` is bypassed.

use crate::probe;
use crate::stats::{self, ms, Slices, SplitMix64};
use crate::trace::Tracer;
use crate::{tiny_repnet, Args, Report};
use pim_data::SyntheticSpec;
use pim_nn::tensor::Tensor;
use pim_runtime::telemetry::{STAGES, STAGE_METRIC};
use pim_runtime::{
    CompiledModel, InferResponse, ModelId, Runtime, RuntimeError, Telemetry, Ticket,
};
use pim_telemetry::HistogramSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Offered load: about a third of one worker's batched capacity for the
/// tiny model on a 2-core host.
const RATE_PER_S: f64 = 2000.0;
const MAX_BATCH: usize = 8;
const MAX_WAIT: Duration = Duration::from_millis(1);
/// Large enough that the offered load never meets backpressure.
const QUEUE_CAPACITY: usize = 4096;
/// Distinct request inputs the schedule draws from.
const DISTINCT: usize = 100;
/// Synchronous requests inside every set-up, after the runtime starts.
const WARMUP: usize = 80;
/// Identical set-ups per run; `setup_s` is the median of one.
const SETUPS: usize = 5;
/// Recompile-and-swap publishes made by the generator during the run.
const PUBLISHES: usize = 50;
/// A publish goes into a schedule gap at least this long, so it never
/// delays a send.
const PUBLISH_GAP: Duration = Duration::from_millis(2);
/// A request answered later than this after its scheduled send misses.
const LIMIT_MS: f64 = 10.0;
/// Lead time between the end of set-up and the first scheduled send.
const LEAD: Duration = Duration::from_millis(5);

/// One scheduled request.
#[derive(Clone, Copy)]
struct Arrival {
    /// Send time, from the start of the run.
    offset: Duration,
    input: usize,
    /// Recompile the model and hot-swap it in just before this request.
    publish_before: bool,
}

/// Seeded Poisson arrivals, rescaled so the schedule spans exactly
/// `n / RATE_PER_S`: every seed offers the same mean rate. Publishes go
/// into evenly spaced ones of the gaps of at least [`PUBLISH_GAP`].
fn schedule(seed: u64, seconds: u64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let n = (RATE_PER_S * seconds as f64) as usize;
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let scale = (n as f64 / RATE_PER_S) / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    let mut arrivals: Vec<Arrival> = gaps
        .iter()
        .map(|g| {
            at += g * scale;
            Arrival {
                offset: Duration::from_secs_f64(at),
                input: rng.below(DISTINCT),
                publish_before: false,
            }
        })
        .collect();
    let wide: Vec<usize> = (1..n)
        .filter(|&i| arrivals[i].offset - arrivals[i - 1].offset >= PUBLISH_GAP)
        .collect();
    let publishes = PUBLISHES.min(wide.len());
    for k in 0..publishes {
        arrivals[wide[k * wide.len() / publishes]].publish_before = true;
    }
    arrivals
}

struct Rig {
    runtime: Runtime,
    id: ModelId,
    /// Requests this rig's runtime has been sent (accepted or not).
    submitted: u64,
}

/// One whole set-up: build and compile the model, start the runtime and
/// answer the warm-up requests.
fn set_up(inputs: &[Tensor], telemetry: Option<&Arc<Telemetry>>) -> Rig {
    let compiled = CompiledModel::compile("tiny", &tiny_repnet()).expect("model fits the PEs");
    let mut builder = Runtime::builder()
        .workers(1)
        .par_threads(1)
        .max_batch(MAX_BATCH)
        .max_wait(MAX_WAIT)
        .queue_capacity(QUEUE_CAPACITY);
    if let Some(t) = telemetry {
        builder = builder.telemetry(Arc::clone(t));
    }
    let id = builder.register(compiled);
    let runtime = builder.start();
    for input in inputs.iter().take(WARMUP) {
        runtime.infer(id, input).expect("warm-up request");
    }
    Rig {
        runtime,
        id,
        submitted: WARMUP as u64,
    }
}

/// One scheduled request as the generator and collector saw it.
struct Sent {
    scheduled: Instant,
    submit_start: Instant,
    submit_end: Instant,
    outcome: Result<(InferResponse, Instant), RuntimeError>,
}

struct Phase {
    sent: Vec<Sent>,
    /// Tickets not yet answered when the last request was sent.
    outstanding_at_end: usize,
    /// Scheduled send time of request 0.
    start: Instant,
    /// Wall ms of each compile + swap, with the request it preceded, and
    /// of the swap alone.
    publish_ms: Vec<(usize, f64)>,
    swap_ms: Vec<f64>,
    /// Bits one compile writes into the PE tiles.
    load_bits: u64,
    swaps_failed: u64,
    slices: Slices,
}

/// Sends `arrivals` open-loop from this thread; a collector thread waits
/// on the tickets in order.
fn open_loop(rig: &mut Rig, inputs: &[Tensor], arrivals: &[Arrival]) -> Phase {
    let weights = tiny_repnet();
    let answered = AtomicUsize::new(0);
    let answered_ref = &answered;
    let start = Instant::now() + LEAD;
    let (tx, rx) = mpsc::channel::<(usize, Sent, Result<Ticket, RuntimeError>)>();
    let mut phase = Phase {
        sent: Vec::new(),
        outstanding_at_end: 0,
        start,
        publish_ms: Vec::with_capacity(PUBLISHES),
        swap_ms: Vec::with_capacity(PUBLISHES),
        load_bits: 0,
        swaps_failed: 0,
        slices: Slices::new(arrivals.len()),
    };
    let mut sent: Vec<Option<Sent>> = (0..arrivals.len()).map(|_| None).collect();
    let runtime = &rig.runtime;
    let id = rig.id;
    thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::with_capacity(arrivals.len());
            for (i, mut s, ticket) in rx {
                s.outcome = ticket.and_then(|t| {
                    let response = t.wait()?;
                    Ok((response, Instant::now()))
                });
                answered_ref.fetch_add(1, Ordering::Relaxed);
                out.push((i, s));
            }
            out
        });
        for (i, a) in arrivals.iter().enumerate() {
            phase.slices.at(i);
            if a.publish_before {
                let started = Instant::now();
                let compiled =
                    CompiledModel::compile("tiny", &weights).expect("model fits the PEs");
                phase.load_bits = compiled.compile_stats().write_bits;
                let swap_started = Instant::now();
                phase.swaps_failed += u64::from(runtime.swap_model(id, compiled).is_err());
                let swapped = Instant::now();
                phase.publish_ms.push((i, ms(swapped - started)));
                phase.swap_ms.push(ms(swapped - swap_started));
            }
            let scheduled = start + a.offset;
            let now = Instant::now();
            if scheduled > now {
                thread::sleep(scheduled - now);
            }
            let submit_start = Instant::now();
            let ticket = runtime.submit(id, &inputs[a.input]);
            let submit_end = Instant::now();
            let s = Sent {
                scheduled,
                submit_start,
                submit_end,
                outcome: Err(RuntimeError::Disconnected),
            };
            tx.send((i, s, ticket)).expect("collector is alive");
        }
        phase.outstanding_at_end = arrivals.len() - answered.load(Ordering::Relaxed);
        phase.slices.at(arrivals.len());
        drop(tx);
        for (i, s) in collector.join().expect("collector thread") {
            sent[i] = Some(s);
        }
    });
    rig.submitted += arrivals.len() as u64;
    phase.sent = sent
        .into_iter()
        .map(|s| s.expect("every request collected"))
        .collect();
    phase
}

/// Per-request results of a phase checked against the reference logits.
struct Checked {
    /// Latency from scheduled send to reply, per request; `None` when the
    /// request was refused or failed.
    latency: Vec<Option<f64>>,
    /// Latency of each request sent right after a publish.
    first_after_swap_ms: Vec<f64>,
    ok: usize,
    failed: u64,
    wrong: u64,
    batch_size_mean: f64,
    ops_per_s: f64,
}

fn check(phase: &Phase, arrivals: &[Arrival], reference: &[Vec<f32>]) -> Checked {
    let mut c = Checked {
        latency: Vec::with_capacity(phase.sent.len()),
        first_after_swap_ms: Vec::new(),
        ok: 0,
        failed: 0,
        wrong: 0,
        batch_size_mean: 0.0,
        ops_per_s: 0.0,
    };
    let mut batch_sizes = Vec::with_capacity(phase.sent.len());
    let mut last_reply = phase.start;
    for (s, a) in phase.sent.iter().zip(arrivals) {
        let latency = s
            .outcome
            .as_ref()
            .ok()
            .map(|(_, replied)| ms(*replied - s.scheduled));
        c.latency.push(latency);
        match (&s.outcome, latency) {
            (Ok((response, replied)), Some(latency)) => {
                if a.publish_before {
                    c.first_after_swap_ms.push(latency);
                }
                batch_sizes.push(response.batch_size as f64);
                last_reply = last_reply.max(*replied);
                if !stats::same_bits(&response.logits, &reference[a.input]) {
                    c.wrong += 1;
                    c.failed += 1;
                } else if latency <= LIMIT_MS {
                    c.ok += 1;
                }
            }
            _ => c.failed += 1,
        }
    }
    c.batch_size_mean = stats::mean(&batch_sizes);
    c.ops_per_s = batch_sizes.len() as f64 / (last_reply - phase.start).as_secs_f64();
    c
}

impl Checked {
    /// Latencies of the answered requests among `range`.
    fn answered(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        self.latency[range].iter().flatten().copied().collect()
    }

    fn all_answered(&self) -> Vec<f64> {
        self.answered(0..self.latency.len())
    }
}

/// Shuts the rig down and checks the admission ledger balances.
fn close(rig: Rig) -> bool {
    let stats = rig.runtime.shutdown();
    let balanced = stats.requests_completed + stats.requests_rejected == rig.submitted;
    if !balanced {
        eprintln!(
            "serve-open: admission ledger off: {} completed + {} rejected != {} submitted",
            stats.requests_completed, stats.requests_rejected, rig.submitted
        );
    }
    balanced
}

/// Snapshots of the runtime's `pim_runtime_stage_seconds` histograms, in
/// [`STAGES`] order.
pub fn stage_snapshots(t: &Telemetry) -> Vec<HistogramSnapshot> {
    STAGES
        .iter()
        .map(|stage| {
            t.registry
                .find_histogram(STAGE_METRIC, &[("stage", stage)])
                .expect("runtime registered its stage histograms")
                .snapshot()
        })
        .collect()
}

/// Mean ms per observation of each stage between two sets of snapshots.
pub fn stage_means(now: &[HistogramSnapshot], before: &[HistogramSnapshot]) -> Vec<f64> {
    now.iter()
        .zip(before)
        .map(|(n, b)| n.since(b).mean() * 1e3)
        .collect()
}

/// Prints whether the generator kept to its schedule.
fn report_generator(label: &str, phase: &Phase) {
    let late: Vec<f64> = phase
        .sent
        .iter()
        .map(|s| ms(s.submit_start - s.scheduled))
        .collect();
    println!(
        "serve-open ({label}): {} requests at {RATE_PER_S} req/s, {} publishes; generator late \
         p50 {:.4} ms, p90 {:.4} ms; {} tickets outstanding when the schedule ended; \
         host steal {:.1}%, {} of {} slices quiet",
        phase.sent.len(),
        phase.publish_ms.len(),
        stats::median(&late),
        stats::percentile(&late, 0.9),
        phase.outstanding_at_end,
        100.0 * phase.slices.run_steal(),
        phase.slices.quiet_count(),
        stats::SLICES
    );
}

pub fn run(args: &Args) -> Report {
    let mut spec = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(DISTINCT / 10, 1);
    spec.seed = args.seed;
    let task = spec.generate().expect("synthetic task");
    let inputs: Vec<Tensor> = (0..DISTINCT)
        .map(|i| task.train.inputs().batch_item(i))
        .collect();
    let artifact = CompiledModel::compile("tiny", &tiny_repnet()).expect("model fits the PEs");
    let reference: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| artifact.infer_reference(x).0.into_vec())
        .collect();
    let arrivals = schedule(args.seed, args.seconds);
    let n = arrivals.len();

    let (mut rig, setup_s) = stats::repeated_setup(SETUPS, || set_up(&inputs, None));
    let plain = open_loop(&mut rig, &inputs, &arrivals);
    let balanced = close(rig);
    let checked = check(&plain, &arrivals, &reference);
    report_generator("untraced", &plain);

    let mut report = Report {
        correct: checked.wrong == 0 && plain.swaps_failed == 0 && balanced,
        attempted: n as u64,
        failed: checked.failed,
        ..Report::default()
    };
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", checked.ops_per_s);
        let quiet_publishes: Vec<f64> = plain
            .publish_ms
            .iter()
            .filter(|(before, _)| plain.slices.is_quiet(*before))
            .map(|&(_, t)| t)
            .collect();
        report.set(
            "p50_ms",
            plain
                .slices
                .median(|r| stats::percentile(&checked.answered(r), 0.5)),
        );
        report.set(
            "p90_ms",
            plain
                .slices
                .median(|r| stats::percentile(&checked.answered(r), 0.9)),
        );
        report.set("ok_frac", checked.ok as f64 / n as f64);
        report.set("publish_ms", stats::median(&quiet_publishes));
        report.set("peak_rss_mb", stats::peak_rss_mb());
        return report;
    }

    // Traced phase: a fresh rig with a telemetry bundle attached, the same
    // schedule, and spans from the generator's side of every request.
    let bundle = Telemetry::new();
    let mut rig = set_up(&inputs, Some(&bundle));
    let pool_before = rig.runtime.pool_counters();
    let stats_before = rig.runtime.stats();
    let stages_before = stage_snapshots(&bundle);
    let traced = open_loop(&mut rig, &inputs, &arrivals);
    let stages = stage_means(&stage_snapshots(&bundle), &stages_before);
    let stats_after = rig.runtime.stats();
    let pool_after = rig.runtime.pool_counters();
    let balanced = close(rig);
    let t_checked = check(&traced, &arrivals, &reference);
    report_generator("traced", &traced);
    report.correct &= t_checked.wrong == 0 && traced.swaps_failed == 0 && balanced;

    // The open loop reaches the compute layers only inside the runtime
    // and the learner not at all: probe them on the served model, with
    // batches of four requests' inputs (about the mean batch).
    let probe_batches: Vec<Tensor> = (0..DISTINCT / 4)
        .map(|b| {
            task.train
                .batch(&[4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3])
                .0
        })
        .collect();
    let [backbone, branch, conv3] = probe::compute_layers(&tiny_repnet(), &probe_batches, 4, 200);
    let samples: Vec<(Tensor, usize)> = (0..8)
        .map(|i| {
            let (x, labels) = task.train.batch(&[i]);
            (x, labels[0])
        })
        .collect();
    let [step, write_back, snapshot] = probe::learn_layers(&tiny_repnet(), &samples, 20);
    report.set("pim-nn.backbone_ms", backbone);
    report.set("pim-core.branch_ms", branch);
    report.set("pim-core.conv3_ms", conv3);
    report.set("pim-learn.step_ms", step);
    report.set("pim-learn.write_back_ms", write_back);
    report.set("pim-learn.snapshot_ms", snapshot);
    report.failed += t_checked.failed;
    report.attempted += n as u64;

    let mut tracer = Tracer::new(traced.start);
    for (i, s) in traced.sent.iter().enumerate() {
        let id = i as u64;
        let end = s
            .outcome
            .as_ref()
            .map_or(s.submit_end, |(_, replied)| *replied);
        let root = tracer.record("serve.request", id, None, s.scheduled, end);
        tracer.record(
            "generator.late",
            id,
            Some(root),
            s.scheduled,
            s.submit_start,
        );
        tracer.record(
            "pim-runtime.submit",
            id,
            Some(root),
            s.submit_start,
            s.submit_end,
        );
    }
    let late = stats::mean(&tracer.durations_ms("generator.late"));
    let submit = tracer.durations_ms("pim-runtime.submit");
    // `queue` runs from enqueue to dispatch and so already holds the batch
    // formation wait; `reply` answers the whole batch.
    let [queue, batch_form, compute, reply] = [stages[0], stages[1], stages[2], stages[3]];
    let accounted = late + stats::mean(&submit) + queue + compute + reply;
    let e2e = stats::mean(&t_checked.all_answered());
    let batches = (stats_after.batches - stats_before.batches).max(1) as f64;
    let inline = pool_after.inline_jobs - pool_before.inline_jobs;
    let jobs = pool_after.jobs - pool_before.jobs + inline;
    report.set(
        "pim-pe.matvecs",
        (stats_after.pe_matvecs - stats_before.pe_matvecs) as f64 / batches,
    );
    report.set(
        "pim-pe.macs",
        (stats_after.macs - stats_before.macs) as f64 / batches,
    );
    report.set("pim-pe.write_bits", traced.load_bits as f64);
    report.set("pim-par.inline_frac", inline as f64 / jobs.max(1) as f64);
    report.set("pim-runtime.submit_us", stats::median(&submit) * 1e3);
    report.set("pim-runtime.queue_ms", queue);
    report.set("pim-runtime.batch_form_ms", batch_form);
    report.set("pim-runtime.compute_ms", compute);
    report.set("pim-runtime.reply_ms", reply);
    report.set("pim-runtime.batch_size_mean", t_checked.batch_size_mean);
    report.set("pim-runtime.swap_ms", stats::median(&traced.swap_ms));
    report.set(
        "pim-runtime.first_after_swap_ms",
        stats::median(&t_checked.first_after_swap_ms),
    );
    report.set(
        "pim-telemetry.overhead_frac",
        stats::median(&t_checked.all_answered()) / stats::median(&checked.all_answered()) - 1.0,
    );
    report.set(
        "e2e.p99_ms",
        stats::percentile(&checked.all_answered(), 0.99),
    );
    report.set("e2e.unaccounted_frac", (e2e - accounted) / e2e);
    match tracer.write_out(&format!("serve-open-seed{}", args.seed)) {
        Ok(path) => println!("serve-open: spans written to {}", path.display()),
        Err(e) => eprintln!("serve-open: could not write spans: {e}"),
    }
    report
}
