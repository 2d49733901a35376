//! `offline-b8`: a closed loop of batch-8 `PeRepNet::predict` calls on a
//! mid-size RepNet, fanned out over a `WorkPool` as wide as the host
//! (the caller plus `nproc - 1` pool workers).
//!
//! The compute layers do all the work: the f32 backbone (`pim-nn`), the
//! PE branch (`pim-core`, `pim-pe`) and the fan-out (`pim-par`). The
//! runtime, queue, telemetry and learner are bypassed.

use crate::probe;
use crate::stats::{self, ms, Slices, SplitMix64};
use crate::trace::Tracer;
use crate::{Args, Report};
use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_par::{PoolCounters, WorkPool};
use pim_pe::{PeStats, PeTelemetry};
use pim_telemetry::Telemetry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 8;
/// Channel width of the Rep-Net adaptor path.
const REP_WIDTH: usize = 8;
/// Distinct input batches the seeded schedule draws from.
const DISTINCT: usize = 10;
/// Batches per `--seconds`.
const BATCHES_PER_SECOND: u64 = 130;
/// Batches run inside every set-up, after compiling.
const WARMUP: usize = 12;
/// Identical set-ups per run; `setup_s` is the median of one.
const SETUPS: usize = 5;
/// Cold compiles timed for `publish_ms`, spread evenly over the run.
const PUBLISHES: usize = 100;
/// A batch slower than this misses (`ok_frac`).
const LIMIT_MS: f64 = 100.0;

fn model() -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig {
            in_channels: 3,
            image_size: 16,
            stage_widths: vec![16, 32],
            blocks_per_stage: 1,
            seed: 1,
        }),
        RepNetConfig {
            rep_channels: REP_WIDTH,
            num_classes: 10,
            seed: 42,
        },
    )
}

struct Rig {
    model: RepNet,
    branch: PeRepNet,
}

/// One whole set-up: build the model, compile its branch onto the PEs,
/// start a pool as wide as the host and run the warm-up batches.
fn set_up(batches: &[Tensor]) -> Rig {
    let mut model = model();
    let mut branch = PeRepNet::compile(&mut model).expect("model fits the PEs");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    branch.attach_pool(Arc::new(WorkPool::new(cores)));
    for i in 0..WARMUP {
        black_box(branch.predict(&mut model, &batches[i % batches.len()]));
    }
    Rig { model, branch }
}

/// Bitwise equality of two PE run ledgers, f64 fields by `to_bits`.
fn same_ledger(a: &PeStats, b: &PeStats) -> bool {
    let f = |s: &PeStats| {
        [
            s.busy_time.as_base(),
            s.energy.leakage.as_base(),
            s.energy.read.as_base(),
            s.energy.write.as_base(),
            s.energy.compute.as_base(),
        ]
        .map(f64::to_bits)
    };
    let u = |s: &PeStats| {
        [
            s.cycles,
            s.loads,
            s.matvecs,
            s.macs,
            s.write_bits,
            s.write_retries,
            s.write_faults,
        ]
    };
    f(a) == f(b) && u(a) == u(b)
}

struct Phase {
    /// Wall seconds of each `predict` call.
    seconds: Vec<f64>,
    /// Calls answered correctly within [`LIMIT_MS`].
    ok: usize,
    /// Calls whose logits or ledger differ from the width-1 reference.
    wrong: u64,
    pool: PoolCounters,
    stats: PeStats,
    /// Wall ms of each cold `PeRepNet::compile`, with the batch it
    /// followed.
    publish_ms: Vec<(usize, f64)>,
    /// Bits one cold compile writes into the PE tiles.
    load_bits: u64,
    slices: Slices,
}

/// Runs `schedule` against the rig, with a cold compile of the same
/// weights onto fresh PE tiles after every `len / PUBLISHES` batches. With
/// a tracer, every batch is a root span whose children are the backbone on
/// its own, the whole predict and the module-0 direct conv3.
fn measure(
    rig: &mut Rig,
    batches: &[Tensor],
    reference: &[(Tensor, PeStats)],
    schedule: &[usize],
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let before = rig.branch.pool().counters();
    let mut phase = Phase {
        seconds: Vec::with_capacity(schedule.len()),
        ok: 0,
        wrong: 0,
        pool: PoolCounters::default(),
        stats: PeStats::new(),
        publish_ms: Vec::with_capacity(PUBLISHES),
        load_bits: 0,
        slices: Slices::new(schedule.len()),
    };
    let weights = model();
    let publish_every = (schedule.len() / PUBLISHES).max(1);
    for (n, &b) in schedule.iter().enumerate() {
        phase.slices.at(n);
        let x = &batches[b];
        let (logits, run) = match tracer.as_deref_mut() {
            None => {
                let started = Instant::now();
                let out = rig.branch.predict(&mut rig.model, x);
                phase.seconds.push(started.elapsed().as_secs_f64());
                out
            }
            Some(t) => {
                let id = n as u64;
                let root = t.open("offline.batch", id, None);
                let taps = t.time("pim-nn.backbone", id, Some(root), || {
                    rig.model.backbone_outputs(x)
                });
                let started = Instant::now();
                let out = rig.branch.predict(&mut rig.model, x);
                let ended = Instant::now();
                t.record("pim-core.predict", id, Some(root), started, ended);
                phase.seconds.push((ended - started).as_secs_f64());
                let features = probe::channels(&taps.taps[0], REP_WIDTH);
                t.time("pim-core.conv3", id, Some(root), || {
                    black_box(rig.branch.conv3_stage_forward(&features))
                });
                t.close(root);
                out
            }
        };
        let (want_logits, want_stats) = &reference[b];
        let right = stats::same_bits(logits.as_slice(), want_logits.as_slice())
            && same_ledger(&run, want_stats);
        if !right {
            phase.wrong += 1;
        } else if phase.seconds[n] * 1e3 <= LIMIT_MS {
            phase.ok += 1;
        }
        phase.stats += run;
        if (n + 1) % publish_every == 0 {
            let mut m = weights.clone();
            let started = Instant::now();
            let branch = PeRepNet::compile(&mut m).expect("model fits the PEs");
            phase.publish_ms.push((n, ms(started.elapsed())));
            phase.load_bits = branch.cumulative_stats().write_bits;
        }
    }
    phase.slices.at(schedule.len());
    let after = rig.branch.pool().counters();
    phase.pool = PoolCounters {
        jobs: after.jobs - before.jobs,
        inline_jobs: after.inline_jobs - before.inline_jobs,
        caller_tasks: after.caller_tasks - before.caller_tasks,
        worker_tasks: after.worker_tasks - before.worker_tasks,
        steals: after.steals - before.steals,
        parks: after.parks - before.parks,
        ..PoolCounters::default()
    };
    phase
}

pub fn run(args: &Args) -> Report {
    let mut spec = SyntheticSpec::cifar10_like().with_samples(DISTINCT * BATCH / 10, 1);
    spec.seed = args.seed;
    let task = spec.generate().expect("synthetic task");
    let batches: Vec<Tensor> = (0..DISTINCT)
        .map(|b| {
            let idx: Vec<usize> = (b * BATCH..(b + 1) * BATCH).collect();
            task.train.batch(&idx).0
        })
        .collect();

    // Width-1 reference, computed before anything is timed.
    let mut ref_model = model();
    let mut ref_branch = PeRepNet::compile(&mut ref_model).expect("model fits the PEs");
    ref_branch.attach_pool(Arc::new(WorkPool::new(1)));
    let reference: Vec<(Tensor, PeStats)> = batches
        .iter()
        .map(|x| ref_branch.predict(&mut ref_model, x))
        .collect();

    let mut rng = SplitMix64::new(args.seed);
    let n = (BATCHES_PER_SECOND * args.seconds) as usize;
    let schedule: Vec<usize> = (0..n).map(|_| rng.below(DISTINCT)).collect();

    let (mut rig, setup_s) = stats::repeated_setup(SETUPS, || set_up(&batches));
    let plain = measure(&mut rig, &batches, &reference, &schedule, None);

    let plain_ms: Vec<f64> = plain.seconds.iter().map(|&s| s * 1e3).collect();
    let mut report = Report {
        correct: plain.wrong == 0,
        attempted: n as u64,
        failed: plain.wrong,
        ..Report::default()
    };
    println!(
        "offline-b8: {n} batches of {BATCH}, pool width {}, {} wrong; host steal {:.1}%, \
         {} of {} slices quiet",
        rig.branch.pool().threads(),
        plain.wrong,
        100.0 * plain.slices.run_steal(),
        plain.slices.quiet_count(),
        stats::SLICES
    );

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set(
            "ops_per_s",
            plain
                .slices
                .median(|r| (BATCH * r.len()) as f64 / plain.seconds[r].iter().sum::<f64>()),
        );
        report.set(
            "p50_ms",
            plain
                .slices
                .median(|r| stats::percentile(&plain_ms[r], 0.5)),
        );
        report.set(
            "p90_ms",
            plain
                .slices
                .median(|r| stats::percentile(&plain_ms[r], 0.9)),
        );
        report.set("ok_frac", plain.ok as f64 / n as f64);
        let quiet_publishes: Vec<f64> = plain
            .publish_ms
            .iter()
            .filter(|(after, _)| plain.slices.is_quiet(*after))
            .map(|&(_, t)| t)
            .collect();
        report.set("publish_ms", stats::median(&quiet_publishes));
        report.set("peak_rss_mb", stats::peak_rss_mb());
        return report;
    }

    // Traced phase: same schedule, PE counters mirrored into a telemetry
    // bundle, spans around every layer call.
    let bundle = Telemetry::new();
    rig.branch
        .attach_telemetry(PeTelemetry::register(&bundle.registry, "bench"));
    let mut tracer = Tracer::new(Instant::now());
    let traced = measure(&mut rig, &batches, &reference, &schedule, Some(&mut tracer));
    report.correct &= traced.wrong == 0;
    report.failed += traced.wrong;
    report.attempted += n as u64;

    let backbone = tracer.durations_ms("pim-nn.backbone");
    let predict = tracer.durations_ms("pim-core.predict");
    let branch: Vec<f64> = predict.iter().zip(&backbone).map(|(p, b)| p - b).collect();
    let per_batch = |v: u64| v as f64 / n as f64;
    let p = plain.pool;
    report.set("pim-nn.backbone_ms", stats::median(&backbone));
    report.set("pim-core.branch_ms", stats::median(&branch));
    report.set(
        "pim-core.conv3_ms",
        stats::median(&tracer.durations_ms("pim-core.conv3")),
    );
    report.set("pim-pe.matvecs", per_batch(plain.stats.matvecs));
    report.set("pim-pe.macs", per_batch(plain.stats.macs));
    report.set("pim-pe.write_bits", traced.load_bits as f64);
    report.set(
        "pim-par.inline_frac",
        p.inline_jobs as f64 / (p.jobs + p.inline_jobs).max(1) as f64,
    );
    println!(
        "offline-b8: pool workers ran {:.1}% of tasks; {:.2} steals and {:.2} parks per batch",
        100.0 * p.worker_tasks as f64 / (p.worker_tasks + p.caller_tasks).max(1) as f64,
        per_batch(p.steals),
        per_batch(p.parks)
    );
    report.set(
        "pim-telemetry.overhead_frac",
        stats::median(&predict) / stats::median(&plain_ms) - 1.0,
    );
    report.set("e2e.p99_ms", stats::percentile(&plain_ms, 0.99));
    report.set(
        "e2e.unaccounted_frac",
        tracer.unaccounted_frac("offline.batch"),
    );
    match tracer.write_out(&format!("offline-b8-seed{}", args.seed)) {
        Ok(path) => println!("offline-b8: spans written to {}", path.display()),
        Err(e) => eprintln!("offline-b8: could not write spans: {e}"),
    }
    report
}
