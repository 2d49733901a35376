//! End-to-end tests of the `pim-cluster` fleet: single-replica
//! equivalence with a bare runtime (logits, stats, telemetry), sharded
//! bit-exactness, coordinated canary rollouts, and request conservation
//! under concurrent load.

use pim_cluster::{Cluster, ClusterBuilder, ClusterError};
use pim_core::pe_inference::PeRepNet;
use pim_data::SyntheticSpec;
use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
use pim_nn::tensor::Tensor;
use pim_runtime::{CompiledModel, ModelId, Runtime, RuntimeError};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

fn tiny_model(seed: u64) -> RepNet {
    RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 5,
            seed,
        },
    )
}

/// Deterministic single-sample inputs matching `BackboneConfig::tiny()`.
fn tiny_inputs(count: usize) -> Vec<Tensor> {
    let task = SyntheticSpec::cifar10_like()
        .with_geometry(8, 1)
        .with_samples(1, count.div_ceil(10))
        .generate()
        .expect("synthetic task");
    (0..count)
        .map(|i| task.test.inputs().batch_item(i))
        .collect()
}

#[test]
fn one_replica_cluster_is_bit_exact_with_a_bare_runtime() {
    let model = tiny_model(3);
    let inputs = tiny_inputs(12);

    // Bare runtime, instrumented.
    let bare_tel = pim_runtime::Telemetry::new();
    let mut builder = Runtime::builder()
        .workers(1)
        .queue_capacity(16)
        .max_batch(4)
        .max_wait(Duration::from_millis(1))
        .par_threads(1)
        .telemetry(bare_tel.clone());
    let bare_id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let runtime = builder.start();

    // One-replica unsharded cluster with identical per-replica config.
    let cluster_tel = pim_runtime::Telemetry::new();
    let mut builder = ClusterBuilder::new()
        .replicas(1)
        .macro_groups(1)
        .workers(1)
        .queue_capacity(16)
        .max_batch(4)
        .max_wait(Duration::from_millis(1))
        .par_threads(1)
        .telemetry(cluster_tel.clone());
    let cluster_id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let cluster = builder.start();

    // Sequential requests: each one rides alone, so batching — and with
    // it every simulated ledger — is deterministic on both sides.
    for (i, x) in inputs.iter().enumerate() {
        let bare = runtime.infer(bare_id, x).expect("bare response");
        let clustered = cluster.infer(cluster_id, x).expect("cluster response");
        assert_eq!(bare.logits, clustered.logits, "sample {i} logits diverged");
        assert_eq!(bare.prediction, clustered.prediction);
        assert_eq!(bare.batch_size, clustered.batch_size);
        assert_eq!(bare.latency, clustered.latency, "sample {i} sim latency");
        assert_eq!(bare.energy, clustered.energy, "sample {i} sim energy");
        assert_eq!(
            clustered.batch_size, 1,
            "sequential submits must not coalesce"
        );
    }

    let bare_stats = runtime.shutdown();
    let cluster_stats = cluster.shutdown();

    // Admission ledger: every request accepted, none rejected.
    assert_eq!(cluster_stats.submitted, inputs.len() as u64);
    assert_eq!(cluster_stats.accepted, inputs.len() as u64);
    assert_eq!(cluster_stats.rejected, 0);
    assert_eq!(cluster_stats.replicas, 1);

    // Every deterministic (simulated) stats field matches the bare
    // runtime bit-for-bit; wall-clock fields are excluded by nature.
    for stats in [&cluster_stats.per_replica[0], &cluster_stats.total] {
        assert_eq!(stats.requests_completed, bare_stats.requests_completed);
        assert_eq!(stats.requests_rejected, bare_stats.requests_rejected);
        assert_eq!(stats.batches, bare_stats.batches);
        assert_eq!(stats.mean_batch_size, bare_stats.mean_batch_size);
        assert_eq!(stats.max_batch_size, bare_stats.max_batch_size);
        assert_eq!(stats.p50_latency, bare_stats.p50_latency);
        assert_eq!(stats.p99_latency, bare_stats.p99_latency);
        assert_eq!(stats.mean_latency, bare_stats.mean_latency);
        assert_eq!(stats.total_energy, bare_stats.total_energy);
        assert_eq!(stats.simulated_busy, bare_stats.simulated_busy);
        assert_eq!(stats.edp, bare_stats.edp);
        assert_eq!(stats.macs, bare_stats.macs);
        assert_eq!(stats.pe_matvecs, bare_stats.pe_matvecs);
        assert_eq!(stats.sim_latency_ns, bare_stats.sim_latency_ns);
    }

    // Telemetry counters: the cluster's replica-0-labelled series carry
    // exactly what the bare runtime's unlabelled series carry.
    type Labels = &'static [(&'static str, &'static str)];
    let pairs: [(&str, Labels, Labels); 5] = [
        ("pim_runtime_requests_total", &[], &[("replica", "0")]),
        ("pim_runtime_rejected_total", &[], &[("replica", "0")]),
        (
            "pim_pe_matvecs_total",
            &[("source", "serve")],
            &[("source", "serve"), ("replica", "0")],
        ),
        (
            "pim_pe_macs_total",
            &[("source", "serve")],
            &[("source", "serve"), ("replica", "0")],
        ),
        (
            "pim_pe_busy_nanoseconds_total",
            &[("source", "serve")],
            &[("source", "serve"), ("replica", "0")],
        ),
    ];
    for (name, bare_labels, cluster_labels) in pairs {
        let bare_value = bare_tel
            .registry
            .counter_with(name, "", bare_labels)
            .value();
        let cluster_value = cluster_tel
            .registry
            .counter_with(name, "", cluster_labels)
            .value();
        assert_eq!(bare_value, cluster_value, "counter {name} diverged");
        assert!(bare_value >= 0.0);
    }
    assert!(
        bare_tel
            .registry
            .counter_with("pim_runtime_requests_total", "", &[])
            .value()
            > 0.0,
        "instrumentation should have counted the served requests"
    );
}

#[test]
fn sharded_cluster_reproduces_the_single_macro_answer() {
    let model = tiny_model(5);
    let inputs = tiny_inputs(10);

    // Sequential single-macro reference.
    let mut reference = PeRepNet::compile(&model).expect("compile");

    let mut builder = ClusterBuilder::new()
        .replicas(2)
        .macro_groups(3)
        .max_wait(Duration::from_millis(1));
    let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let cluster = builder.start();
    assert_eq!(cluster.macro_groups(), 3);
    for r in 0..cluster.replica_count() {
        assert_eq!(cluster.runtime(r).models()[0].macro_groups(), 3);
    }

    for (i, x) in inputs.iter().enumerate() {
        let (expected, _) = reference.predict(&model, x);
        let response = cluster.infer(id, x).expect("cluster response");
        assert_eq!(
            response.logits,
            expected.as_slice(),
            "sample {i} diverged from the single-macro reference \
             (served by replica fleet sharded across 3 groups)"
        );
    }
    let stats = cluster.shutdown();
    assert_eq!(stats.total.requests_completed, inputs.len() as u64);
    assert_eq!(stats.macro_groups, 3);
}

#[test]
fn canary_rollout_replaces_every_replica_and_leaves_no_stale_version() {
    let v1 = tiny_model(3);
    let v2 = tiny_model(11);
    let inputs = tiny_inputs(6);

    let mut builder = ClusterBuilder::new()
        .replicas(3)
        .macro_groups(2)
        .max_wait(Duration::from_millis(1));
    let id = builder.register(CompiledModel::compile("v1", &v1).expect("compile"));
    let cluster = builder.start();
    assert_eq!(cluster.model_versions(id).expect("versions"), vec![0, 0, 0]);

    let replacement = CompiledModel::compile("v2", &v2).expect("compile");
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| replacement.infer_reference(x).0.as_slice().to_vec())
        .collect();

    let report = cluster.swap_model(id, replacement).expect("rollout");
    assert_eq!(report.canary_replica, 0);
    assert_eq!(
        report.versions,
        vec![1, 1, 1],
        "a replica missed the rollout"
    );
    assert_eq!(cluster.model_versions(id).expect("versions"), vec![1, 1, 1]);

    // Every replica — not just the canary — now serves v2, bit-exactly.
    for r in 0..cluster.replica_count() {
        let runtime = cluster.runtime(r);
        assert_eq!(runtime.models()[0].name(), "v2", "replica {r} is stale");
        for (i, x) in inputs.iter().enumerate() {
            let response = runtime.infer(id, x).expect("post-rollout response");
            assert_eq!(
                response.logits, expected[i],
                "replica {r} sample {i} is not serving v2"
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn incompatible_rollout_fails_atomically_without_touching_the_fleet() {
    let v1 = tiny_model(3);
    // Different classifier width: the serving slot must refuse it.
    let incompatible = RepNet::new(
        Backbone::new(BackboneConfig::tiny()),
        RepNetConfig {
            rep_channels: 4,
            num_classes: 7,
            seed: 13,
        },
    );

    let mut builder = ClusterBuilder::new()
        .replicas(2)
        .max_wait(Duration::from_millis(1));
    let id = builder.register(CompiledModel::compile("v1", &v1).expect("compile"));
    let cluster = builder.start();

    let replacement = CompiledModel::compile("v2-bad", &incompatible).expect("compile");
    let err = cluster
        .swap_model(id, replacement)
        .expect_err("must refuse");
    assert!(
        matches!(
            err,
            ClusterError::Runtime(RuntimeError::IncompatibleSwap { .. })
        ),
        "expected IncompatibleSwap, got {err:?}"
    );

    // The fleet is untouched: original version and name everywhere.
    assert_eq!(cluster.model_versions(id).expect("versions"), vec![0, 0]);
    for r in 0..cluster.replica_count() {
        assert_eq!(cluster.runtime(r).models()[0].name(), "v1");
    }
    cluster.shutdown();
}

#[test]
fn concurrent_load_conserves_every_submitted_request() {
    let model = tiny_model(9);
    let inputs = tiny_inputs(8);

    // Small queues under a flood: while each replica's one worker
    // computes a batch, its two-slot queue fills behind it and the rest
    // of the flood must be rejected — exercising both ledger branches.
    let mut builder = ClusterBuilder::new()
        .replicas(2)
        .workers(1)
        .queue_capacity(2)
        .max_batch(4)
        .max_wait(Duration::from_millis(300));
    let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
    let cluster = builder.start();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;
    let mut accepted_by_clients = 0u64;
    let mut rejected_by_clients = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cluster = &cluster;
                let inputs = &inputs;
                scope.spawn(move || {
                    let mut tickets = Vec::new();
                    let mut rejections = 0u64;
                    for r in 0..PER_CLIENT {
                        match cluster.submit(id, &inputs[(c + r) % inputs.len()]) {
                            Ok(t) => tickets.push(t),
                            Err(ClusterError::Saturated { .. })
                            | Err(ClusterError::NoHealthyReplica) => rejections += 1,
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    // Every accepted request must still get an answer.
                    let answered = tickets.len() as u64;
                    for t in tickets {
                        t.wait().expect("accepted ticket answered");
                    }
                    (answered, rejections)
                })
            })
            .collect();
        for h in handles {
            let (answered, rejections) = h.join().expect("client");
            accepted_by_clients += answered;
            rejected_by_clients += rejections;
        }
    });

    let stats = cluster.shutdown();
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(stats.submitted, total, "every validated submit is counted");
    assert_eq!(
        stats.accepted + stats.rejected,
        stats.submitted,
        "conservation: accepted + rejected == submitted"
    );
    assert_eq!(stats.accepted, accepted_by_clients);
    assert_eq!(stats.rejected, rejected_by_clients);
    assert_eq!(
        stats.total.requests_completed, stats.accepted,
        "every accepted request was answered"
    );
    assert!(
        stats.rejected > 0,
        "the flood should have saturated the queues"
    );
    assert!(stats.accepted > 0, "some requests must have landed");
}

/// Shared fleet for the property test: starting a cluster per case would
/// dominate the run, and the conservation invariant is cumulative anyway.
fn conservation_fixture() -> &'static (Cluster, ModelId, Vec<Tensor>) {
    static FIXTURE: OnceLock<(Cluster, ModelId, Vec<Tensor>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let model = tiny_model(17);
        let mut builder = ClusterBuilder::new()
            .replicas(2)
            .queue_capacity(4)
            .max_batch(2)
            .max_wait(Duration::from_micros(200));
        let id = builder.register(CompiledModel::compile("tiny", &model).expect("compile"));
        (builder.start(), id, tiny_inputs(4))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random mixes of valid and malformed submissions: the admission
    /// ledger must conserve every validated request and never count a
    /// request that failed validation.
    #[test]
    fn admission_ledger_conserves_requests(valid in 1usize..10, malformed in 0usize..4) {
        let (cluster, id, inputs) = conservation_fixture();
        let mut tickets = Vec::new();
        for i in 0..valid {
            match cluster.submit(*id, &inputs[i % inputs.len()]) {
                Ok(t) => tickets.push(t),
                Err(ClusterError::Saturated { .. }) | Err(ClusterError::NoHealthyReplica) => {}
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let bad_shape = Tensor::zeros(&[2, 2]);
        for _ in 0..malformed {
            let err = cluster.submit(*id, &bad_shape).expect_err("malformed must fail");
            prop_assert!(matches!(err, ClusterError::Runtime(RuntimeError::BadInput { .. })));
        }
        let unknown = cluster.submit(ModelId::from_index(99), &inputs[0]).expect_err("unknown id");
        prop_assert!(matches!(unknown, ClusterError::Runtime(RuntimeError::UnknownModel { .. })));
        for t in tickets {
            t.wait().expect("accepted ticket answered");
        }

        let stats = cluster.stats();
        prop_assert_eq!(
            stats.accepted + stats.rejected,
            stats.submitted,
            "conservation violated: accepted {} + rejected {} != submitted {}",
            stats.accepted, stats.rejected, stats.submitted
        );
        // Malformed and unknown-model requests never entered the ledger:
        // everything submitted so far was a valid request from some case.
        prop_assert!(stats.submitted >= valid as u64);
    }
}
