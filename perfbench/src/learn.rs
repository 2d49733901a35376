//! `learn-serve`: a closed loop of learning rounds beside a running
//! runtime. Each round observes 8 labelled samples, takes 4
//! `LearnEngine::step`s, publishes into the runtime with
//! `LearnEngine::publish`, then sends 8 synchronous `Runtime::infer`
//! queries.
//!
//! Threads: this main thread plus one runtime worker, with a one-thread
//! compute pool. Writes run beside reads: `pim-nn` training, the
//! differential SRAM write-back in `pim-pe`, and the hot swap and replica
//! refresh in `pim-runtime` share one run with serving from the same PEs.

use crate::probe;
use crate::serve;
use crate::stats::{self, ms, Slices, SplitMix64};
use crate::trace::Tracer;
use crate::{tiny_repnet, Args, Report};
use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_learn::{LearnEngine, LearnReport, OnlineLearnerConfig, WritePolicy};
use pim_nn::tensor::Tensor;
use pim_nn::train::Dataset;
use pim_runtime::{ModelId, Runtime, RuntimeStats, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBSERVE: usize = 8;
const STEPS: usize = 4;
const QUERIES: usize = 8;
/// Rounds per `--seconds`.
const ROUNDS_PER_SECOND: u64 = 115;
/// Rounds run inside every set-up, after the runtime starts.
const WARMUP_ROUNDS: usize = 12;
/// Identical set-ups per run; `setup_s` is the median of one.
const SETUPS: usize = 5;
/// A query answered later than this misses (`ok_frac`).
const LIMIT_MS: f64 = 10.0;

fn engine() -> LearnEngine {
    LearnEngine::new(
        "repnet",
        tiny_repnet(),
        OnlineLearnerConfig {
            replay_capacity: 128,
            batch_size: 8,
            lr: 0.01,
            seed: 7,
            ..OnlineLearnerConfig::default()
        },
        WritePolicy::hybrid_dac24(1 << 22),
    )
    .expect("model fits the PEs")
}

struct Rig {
    engine: LearnEngine,
    runtime: Runtime,
    id: ModelId,
}

/// The seeded stream: which train samples each round observes and which
/// test samples it queries.
struct Stream {
    train: Dataset,
    test: Dataset,
    rounds: Vec<([usize; OBSERVE], [usize; QUERIES])>,
}

impl Stream {
    fn new(seed: u64, rounds: usize) -> Self {
        let mut spec = SyntheticSpec::cifar10_like()
            .with_geometry(8, 1)
            .with_samples(8, 4);
        spec.seed = seed;
        let task = spec.generate().expect("synthetic task");
        let mut rng = SplitMix64::new(seed);
        let (nt, nq) = (task.train.len(), task.test.len());
        let rounds = (0..rounds)
            .map(|_| {
                (
                    std::array::from_fn(|_| rng.below(nt)),
                    std::array::from_fn(|_| rng.below(nq)),
                )
            })
            .collect();
        Self {
            train: task.train,
            test: task.test,
            rounds,
        }
    }
}

/// What one round did, for the timed metrics.
#[derive(Default)]
struct Round {
    seconds: f64,
    publish_ms: f64,
    query_ms: Vec<f64>,
    /// Calls that returned an error, plus wrong answers.
    failed: u64,
    /// Answers whose logits differ from the resident branch's.
    wrong: u64,
    ok: usize,
    /// Sum of `InferResponse::batch_size` over the answers.
    batch_size_sum: usize,
}

/// One round: observe, step, publish, query; then the check of every
/// answer against the resident tiles, outside the timed span. With a
/// tracer the round is a root span and `publish` is split into its three
/// calls, each query into submit and wait.
fn round(rig: &mut Rig, stream: &Stream, r: usize, tracer: Option<(&mut Tracer, u64)>) -> Round {
    let (observe, queries) = &stream.rounds[r];
    let inputs: Vec<(Tensor, usize)> = queries
        .iter()
        .map(|&q| stream.test.batch(&[q]))
        .map(|(x, labels)| (x, labels[0]))
        .collect();
    let mut out = Round::default();
    let mut answers = Vec::with_capacity(QUERIES);
    let started = Instant::now();
    match tracer {
        None => {
            for &s in observe {
                let (x, labels) = stream.train.batch(&[s]);
                rig.engine.observe(&x, labels[0]);
            }
            for _ in 0..STEPS {
                out.failed += u64::from(rig.engine.step().is_err());
            }
            let p = Instant::now();
            out.failed += u64::from(rig.engine.publish(&rig.runtime, rig.id).is_err());
            out.publish_ms = ms(p.elapsed());
            for (x, _) in &inputs {
                let q = Instant::now();
                answers.push(rig.runtime.infer(rig.id, x));
                out.query_ms.push(ms(q.elapsed()));
            }
        }
        Some((t, id)) => {
            let root = t.open("learn.round", id, None);
            t.time("learn.observe", id, Some(root), || {
                for &s in observe {
                    let (x, labels) = stream.train.batch(&[s]);
                    rig.engine.observe(&x, labels[0]);
                }
            });
            for _ in 0..STEPS {
                let step = t.time("pim-learn.step", id, Some(root), || rig.engine.step());
                out.failed += u64::from(step.is_err());
            }
            let p = Instant::now();
            let written = t.time("pim-learn.write_back", id, Some(root), || {
                rig.engine.write_back()
            });
            let snapshot = t.time("pim-learn.snapshot", id, Some(root), || {
                rig.engine.compiled()
            });
            let swapped = t.time("pim-runtime.swap", id, Some(root), || {
                rig.runtime.swap_model(rig.id, snapshot)
            });
            out.publish_ms = ms(p.elapsed());
            out.failed += u64::from(written.is_err() || swapped.is_err());
            for (k, (x, _)) in inputs.iter().enumerate() {
                let name = if k == 0 {
                    "pim-runtime.first_after_swap"
                } else {
                    "pim-runtime.infer"
                };
                let q = Instant::now();
                let query = t.open(name, id, Some(root));
                let submitted = rig.runtime.submit(rig.id, x);
                t.record("pim-runtime.submit", id, Some(query), q, Instant::now());
                answers.push(submitted.and_then(|ticket| ticket.wait()));
                t.close(query);
                out.query_ms.push(ms(q.elapsed()));
            }
            t.close(root);
        }
    }
    out.seconds = started.elapsed().as_secs_f64();

    // The published artifact is a bit-for-bit clone of the resident tiles,
    // so every answer must equal the resident branch's own prediction.
    let batch: Vec<Tensor> = inputs.iter().map(|(x, _)| x.clone()).collect();
    let (want, _) = rig
        .engine
        .predict(&Tensor::stack_batch(&batch).expect("queries share one shape"));
    let classes = want.shape()[1];
    for (k, (answer, latency)) in answers.iter().zip(&out.query_ms).enumerate() {
        let expected = &want.as_slice()[k * classes..(k + 1) * classes];
        if let Ok(a) = answer {
            out.batch_size_sum += a.batch_size;
        }
        match answer {
            Ok(a) if !stats::same_bits(&a.logits, expected) => {
                out.wrong += 1;
                out.failed += 1;
            }
            Ok(_) if *latency <= LIMIT_MS => out.ok += 1,
            Ok(_) => {}
            Err(_) => out.failed += 1,
        }
    }
    out
}

/// One whole set-up: build the engine (compiling the adaptor onto SRAM
/// PE tiles), start the runtime serving its snapshot, and run the
/// warm-up rounds.
fn set_up(warmup: &Stream, telemetry: Option<&Arc<Telemetry>>) -> Rig {
    let mut engine = engine();
    let mut builder = Runtime::builder()
        .workers(1)
        .par_threads(1)
        .max_batch(8)
        .max_wait(Duration::from_micros(200));
    if let Some(t) = telemetry {
        engine.attach_telemetry(t);
        builder = builder.telemetry(Arc::clone(t));
    }
    let id = builder.register(engine.compiled());
    let mut rig = Rig {
        engine,
        runtime: builder.start(),
        id,
    };
    for r in 0..WARMUP_ROUNDS {
        let warm = round(&mut rig, warmup, r, None);
        assert_eq!(warm.failed, 0, "warm-up round {r} failed");
    }
    rig
}

struct Phase {
    rounds: Vec<Round>,
    learn: (LearnReport, LearnReport),
    serve: (RuntimeStats, RuntimeStats),
    /// The final served logits equal a cold compile of the final weights,
    /// no MRAM bit was written and the endurance budget holds.
    sound: bool,
    slices: Slices,
}

fn measure(rig: &mut Rig, stream: &Stream, mut tracer: Option<&mut Tracer>) -> Phase {
    let learn_before = rig.engine.report();
    let serve_before = rig.runtime.stats();
    let mut slices = Slices::new(stream.rounds.len());
    let rounds = (0..stream.rounds.len())
        .map(|r| {
            slices.at(r);
            round(rig, stream, r, tracer.as_deref_mut().map(|t| (t, r as u64)))
        })
        .collect();
    slices.at(stream.rounds.len());
    let learn_after = rig.engine.report();
    let serve_after = rig.runtime.stats();

    let mut cold_model = rig.engine.learner().model().clone();
    let mut cold = PeRepNet::compile(&mut cold_model).expect("cold recompile");
    let (x, _) = stream.test.batch(&[0]);
    let (cold_logits, _) = cold.predict(&mut cold_model, &x);
    let served = rig.runtime.infer(rig.id, &x);
    let sound = matches!(&served, Ok(s) if stats::same_bits(&s.logits, cold_logits.as_slice()))
        && learn_after.mram_write_bits == 0
        && learn_after.within_budget();
    Phase {
        rounds,
        learn: (learn_before, learn_after),
        serve: (serve_before, serve_after),
        sound,
        slices,
    }
}

pub fn run(args: &Args) -> Report {
    let rounds = (ROUNDS_PER_SECOND * args.seconds) as usize;
    // Set-ups warm up on their own seed-independent stream, so every
    // set-up of every run does identical work.
    let warmup = Stream::new(0, WARMUP_ROUNDS);
    let stream = Stream::new(args.seed, rounds);

    let (mut rig, setup_s) = stats::repeated_setup(SETUPS, || set_up(&warmup, None));
    let plain = measure(&mut rig, &stream, None);
    drop(rig);

    let ops_per_round = (STEPS + 1 + QUERIES) as u64;
    let failed: u64 = plain.rounds.iter().map(|r| r.failed).sum();
    let wrong: u64 = plain.rounds.iter().map(|r| r.wrong).sum();
    let query_ms: Vec<f64> = plain
        .rounds
        .iter()
        .flat_map(|r| r.query_ms.clone())
        .collect();
    let mut report = Report {
        correct: plain.sound && wrong == 0,
        attempted: rounds as u64 * ops_per_round,
        failed,
        ..Report::default()
    };
    println!(
        "learn-serve: {rounds} rounds, {} SRAM bits written, {} MRAM bits written, \
         cold-compile check {}; host steal {:.1}%, {} of {} slices quiet",
        plain.learn.1.sram_write_bits - plain.learn.0.sram_write_bits,
        plain.learn.1.mram_write_bits,
        if plain.sound { "passed" } else { "FAILED" },
        100.0 * plain.slices.run_steal(),
        plain.slices.quiet_count(),
        stats::SLICES
    );
    if !args.trace {
        let rs = &plain.rounds;
        let queries = |r: std::ops::Range<usize>| -> Vec<f64> {
            rs[r]
                .iter()
                .flat_map(|x| x.query_ms.iter().copied())
                .collect()
        };
        let ok: usize = rs.iter().map(|r| r.ok).sum();
        let publish: Vec<f64> = (0..rounds)
            .filter(|&r| plain.slices.is_quiet(r))
            .map(|r| rs[r].publish_ms)
            .collect();
        report.set("setup_s", setup_s);
        report.set(
            "ops_per_s",
            plain
                .slices
                .median(|r| r.len() as f64 / rs[r].iter().map(|x| x.seconds).sum::<f64>()),
        );
        report.set(
            "p50_ms",
            plain.slices.median(|r| stats::percentile(&queries(r), 0.5)),
        );
        report.set(
            "p90_ms",
            plain.slices.median(|r| stats::percentile(&queries(r), 0.9)),
        );
        report.set("ok_frac", ok as f64 / (rounds * QUERIES) as f64);
        report.set("publish_ms", stats::median(&publish));
        report.set("peak_rss_mb", stats::peak_rss_mb());
        return report;
    }

    // Traced phase: a fresh rig with one telemetry bundle shared by the
    // engine and the runtime; `publish` is split into its three calls.
    let bundle = Telemetry::new();
    let mut rig = set_up(&warmup, Some(&bundle));
    let mut tracer = Tracer::new(Instant::now());
    let stages_before = serve::stage_snapshots(&bundle);
    let traced = measure(&mut rig, &stream, Some(&mut tracer));
    let stages = serve::stage_means(&serve::stage_snapshots(&bundle), &stages_before);
    let pool = rig.runtime.pool_counters();
    let learned = rig.engine.learner().model().clone();
    drop(rig);
    let t_failed: u64 = traced.rounds.iter().map(|r| r.failed).sum();
    let t_wrong: u64 = traced.rounds.iter().map(|r| r.wrong).sum();
    report.correct &= traced.sound && t_wrong == 0;
    report.failed += t_failed;
    report.attempted += rounds as u64 * ops_per_round;

    let traced_query_ms: Vec<f64> = traced
        .rounds
        .iter()
        .flat_map(|r| r.query_ms.clone())
        .collect();
    let (s0, s1) = &traced.serve;
    let (l0, l1) = &traced.learn;
    let batches = (s1.batches - s0.batches).max(1) as f64;
    report.set(
        "pim-pe.matvecs",
        (s1.pe_matvecs - s0.pe_matvecs) as f64 / batches,
    );
    report.set("pim-pe.macs", (s1.macs - s0.macs) as f64 / batches);
    report.set(
        "pim-pe.write_bits",
        (l1.sram_write_bits - l0.sram_write_bits) as f64
            / (l1.publishes - l0.publishes).max(1) as f64,
    );
    report.set(
        "pim-par.inline_frac",
        pool.inline_jobs as f64 / (pool.jobs + pool.inline_jobs).max(1) as f64,
    );
    // The queries reach the compute layers only inside the runtime: probe
    // them on the learned model, with batches of eight test samples.
    let probe_batches: Vec<Tensor> = (0..stream.test.len() / QUERIES)
        .map(|b| {
            let idx: Vec<usize> = (b * QUERIES..(b + 1) * QUERIES).collect();
            stream.test.batch(&idx).0
        })
        .collect();
    let [backbone, branch, conv3] = probe::compute_layers(&learned, &probe_batches, 4, 200);
    report.set("pim-nn.backbone_ms", backbone);
    report.set("pim-core.branch_ms", branch);
    report.set("pim-core.conv3_ms", conv3);
    let answered: usize = traced.rounds.iter().map(|r| r.batch_size_sum).sum();
    report.set(
        "pim-runtime.submit_us",
        stats::median(&tracer.durations_ms("pim-runtime.submit")) * 1e3,
    );
    report.set("pim-runtime.queue_ms", stages[0]);
    report.set("pim-runtime.batch_form_ms", stages[1]);
    report.set("pim-runtime.compute_ms", stages[2]);
    report.set("pim-runtime.reply_ms", stages[3]);
    report.set(
        "pim-runtime.batch_size_mean",
        answered as f64 / (rounds * QUERIES) as f64,
    );
    report.set(
        "pim-runtime.swap_ms",
        stats::median(&tracer.durations_ms("pim-runtime.swap")),
    );
    report.set(
        "pim-runtime.first_after_swap_ms",
        stats::median(&tracer.durations_ms("pim-runtime.first_after_swap")),
    );
    report.set(
        "pim-learn.step_ms",
        stats::median(&tracer.durations_ms("pim-learn.step")),
    );
    report.set(
        "pim-learn.write_back_ms",
        stats::median(&tracer.durations_ms("pim-learn.write_back")),
    );
    report.set(
        "pim-learn.snapshot_ms",
        stats::median(&tracer.durations_ms("pim-learn.snapshot")),
    );
    report.set(
        "pim-telemetry.overhead_frac",
        stats::median(&traced_query_ms) / stats::median(&query_ms) - 1.0,
    );
    report.set("e2e.p99_ms", stats::percentile(&query_ms, 0.99));
    report.set(
        "e2e.unaccounted_frac",
        tracer.unaccounted_frac("learn.round"),
    );
    match tracer.write_out(&format!("learn-serve-seed{}", args.seed)) {
        Ok(path) => println!("learn-serve: spans written to {}", path.display()),
        Err(e) => eprintln!("learn-serve: could not write spans: {e}"),
    }
    report
}
