//! Layer probes for the traced run: the benchmark's own calls into the
//! compute and learning layers on fixed inputs, timed one by one, for the
//! layers a workload's loop reaches only from inside the runtime (or not
//! at all).

use crate::stats::{median, ms};
use pim_core::pe_inference::PeRepNet;
use pim_learn::{LearnEngine, OnlineLearnerConfig, WritePolicy};
use pim_nn::models::RepNet;
use pim_nn::tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Median ms of `RepNet::backbone_outputs`, of the rest of
/// `PeRepNet::predict` (the PE branch: predict minus backbone), and of
/// `PeRepNet::conv3_stage_forward` on module-0-shaped features (`rep_width`
/// channels), over `reps` passes through `batches`. The branch runs on a
/// serial pool, as in the runtime's replicas.
pub fn compute_layers(
    model: &RepNet,
    batches: &[Tensor],
    rep_width: usize,
    reps: usize,
) -> [f64; 3] {
    let mut model = model.clone();
    let mut branch = PeRepNet::compile(&mut model).expect("model fits the PEs");
    let (mut backbone, mut rest, mut conv3) = (Vec::new(), Vec::new(), Vec::new());
    for x in batches.iter().cycle().take(reps) {
        let started = Instant::now();
        let taps = model.backbone_outputs(x);
        let backbone_ms = ms(started.elapsed());
        let started = Instant::now();
        black_box(branch.predict(&mut model, x));
        let predict_ms = ms(started.elapsed());
        let features = channels(&taps.taps[0], rep_width);
        let started = Instant::now();
        black_box(branch.conv3_stage_forward(&features));
        conv3.push(ms(started.elapsed()));
        backbone.push(backbone_ms);
        rest.push(predict_ms - backbone_ms);
    }
    [median(&backbone), median(&rest), median(&conv3)]
}

/// The first `width` channels of an `[N, C, H, W]` tap: post-ReLU
/// activations in the shape the module-0 conv3 stage takes.
pub fn channels(tap: &Tensor, width: usize) -> Tensor {
    let [n, c, h, w] = [
        tap.shape()[0],
        tap.shape()[1],
        tap.shape()[2],
        tap.shape()[3],
    ];
    let plane = h * w;
    let mut data = Vec::with_capacity(n * width * plane);
    for b in 0..n {
        let start = b * c * plane;
        data.extend_from_slice(&tap.as_slice()[start..start + width * plane]);
    }
    Tensor::from_vec(vec![n, width, h, w], data).expect("feature shape")
}

/// Median ms of `LearnEngine::step`, `LearnEngine::write_back` and
/// `LearnEngine::compiled` over `reps` rounds of one step each, on a
/// fresh engine around `model` that has observed `samples`.
pub fn learn_layers(model: &RepNet, samples: &[(Tensor, usize)], reps: usize) -> [f64; 3] {
    let mut engine = LearnEngine::new(
        "probe",
        model.clone(),
        OnlineLearnerConfig::default(),
        WritePolicy::hybrid_dac24(1 << 22),
    )
    .expect("model fits the PEs");
    for (x, label) in samples {
        engine.observe(x, *label);
    }
    let (mut step, mut write_back, mut snapshot) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let started = Instant::now();
        engine.step().expect("replay holds samples");
        step.push(ms(started.elapsed()));
        let started = Instant::now();
        engine.write_back().expect("write-back fits the budget");
        write_back.push(ms(started.elapsed()));
        let started = Instant::now();
        black_box(engine.compiled());
        snapshot.push(ms(started.elapsed()));
    }
    [median(&step), median(&write_back), median(&snapshot)]
}
