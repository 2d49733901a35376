//! The governor: tenants in, SLO-aware adaptive serving out.

use crate::error::GovernorError;
use crate::ladder::{Ladder, LadderAction, LadderConfig, LadderTenant};
use crate::pressure::{PressureSample, PressureSampler};
use crate::report::{GovernorEvent, GovernorReport, TenantReport};
use crate::telemetry::GovernorTelemetry;
use crate::tenant::{Priority, TenantId, TenantSlo, TenantSpec, Tier};
use pim_cluster::{Cluster, ClusterBuilder, ClusterStats, ClusterTicket};
use pim_nn::tensor::Tensor;
use pim_runtime::{BatchPolicy, CompiledModel, InferResponse, Telemetry};
use pim_telemetry::{Counter, Histogram};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Governor tuning: the ladder's hysteresis plus the widened batch
/// policy the `WidenBatch` rung applies fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Hysteresis and rung pacing.
    pub ladder: LadderConfig,
    /// The coalescing policy applied while the `WidenBatch` rung is on.
    /// The default raises `max_batch` to 32, so a backlog drains in
    /// bigger batches: throughput over tail latency. Its `max_wait` has
    /// no effect, because batches are never held open (see
    /// [`BatchPolicy::max_wait`]).
    pub wide_batch: BatchPolicy,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            ladder: LadderConfig::default(),
            wide_batch: BatchPolicy {
                max_batch: 32,
                max_wait: Duration::from_millis(4),
            },
        }
    }
}

/// Stages tenants for a [`Governor`].
#[derive(Debug, Default)]
pub struct GovernorBuilder {
    config: GovernorConfig,
    specs: Vec<TenantSpec>,
    telemetry: Option<Arc<Telemetry>>,
}

impl GovernorBuilder {
    /// Replaces the default [`GovernorConfig`].
    pub fn config(mut self, config: GovernorConfig) -> Self {
        self.config = config;
        self
    }

    /// Chooses the [`Telemetry`] bundle the stack registers on: it is
    /// passed to the cluster at [`start`](Self::start), and the governor
    /// registers its `pim_governor_*` families on whichever bundle the
    /// cluster then writes (this one, the cluster builder's, or the
    /// cluster's private one). The whole stack renders from that one
    /// registry, which is also where the pressure sampler reads the
    /// runtimes' stage histograms and where the per-tenant ledgers live.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Registers a tenant. Tenant *i* becomes cluster model slot *i*:
    /// slots are assigned in registration order at [`start`](Self::start).
    pub fn tenant(&mut self, spec: TenantSpec) -> TenantId {
        self.specs.push(spec);
        TenantId(self.specs.len() - 1)
    }

    /// Registers every tenant's full-quality artifact with `cluster`,
    /// starts the fleet, and wraps it in a [`Governor`].
    ///
    /// # Errors
    ///
    /// [`GovernorError::IncompatiblePair`] if any tenant's two artifacts
    /// disagree on input shape or class count (they must share one
    /// serving slot).
    pub fn start(self, mut cluster: ClusterBuilder) -> Result<Governor, GovernorError> {
        for (i, spec) in self.specs.iter().enumerate() {
            if spec.full.input_shape() != spec.degraded.input_shape()
                || spec.full.num_classes() != spec.degraded.num_classes()
            {
                return Err(GovernorError::IncompatiblePair { tenant: i });
            }
        }
        if let Some(tel) = self.telemetry {
            cluster = cluster.telemetry(tel);
        }
        let names: Vec<String> = self.specs.iter().map(|s| s.name.clone()).collect();
        let tenants: Vec<TenantState> = self
            .specs
            .into_iter()
            .map(|spec| TenantState {
                input_shape: spec.full.input_shape().to_vec(),
                name: spec.name,
                priority: spec.priority,
                slo: spec.slo,
                full: spec.full,
                degraded: spec.degraded,
                tier: AtomicU8::new(Tier::Full.as_level()),
            })
            .collect();
        for t in &tenants {
            cluster.register(t.full.clone());
        }
        let cluster = cluster.start();
        let normal_batch = if cluster.replica_count() > 0 {
            cluster.runtime(0).batch_policy()
        } else {
            BatchPolicy::default()
        };
        // The tightest high-priority latency ceiling scales the pressure
        // signal's latency component.
        let hi_prio_slo_s = tenants
            .iter()
            .filter(|t| t.priority == Priority::High)
            .map(|t| t.slo.p99_latency.as_secs_f64())
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a: f64| a.min(s)))
            });
        let telemetry = GovernorTelemetry::register(cluster.telemetry(), &names);
        for t in &telemetry.tenants {
            t.tier.set(Tier::Full.as_level() as f64);
        }
        Ok(Governor {
            cluster,
            tenants,
            hi_prio_slo_s,
            policy: Mutex::new(PolicyState {
                ladder: Ladder::new(self.config.ladder),
                sampler: PressureSampler::new(),
                events: Vec::new(),
                ticks: 0,
            }),
            normal_batch,
            wide_batch: self.config.wide_batch,
            telemetry,
        })
    }
}

/// One tenant's runtime state. The tier is a plain atomic and the
/// admission ledger lives in the tenant's counters, so `submit` (hot,
/// many threads) never takes the policy lock.
#[derive(Debug)]
struct TenantState {
    name: String,
    priority: Priority,
    slo: TenantSlo,
    input_shape: Vec<usize>,
    full: CompiledModel,
    degraded: CompiledModel,
    /// Encoded [`Tier`] level (see [`Tier::as_level`]).
    tier: AtomicU8,
}

impl TenantState {
    fn tier(&self) -> Tier {
        match self.tier.load(Ordering::Relaxed) {
            0 => Tier::Shed,
            1 => Tier::Degraded,
            _ => Tier::Full,
        }
    }

    fn set_tier(&self, tier: Tier) {
        self.tier.store(tier.as_level(), Ordering::Relaxed);
    }
}

/// Policy-side state, serialized behind one lock: only the tick path
/// takes it.
#[derive(Debug)]
struct PolicyState {
    ladder: Ladder,
    sampler: PressureSampler,
    events: Vec<GovernorEvent>,
    /// Ticks taken: the stamp of each event.
    ticks: u64,
}

/// A ticket for a governor-admitted request. Waiting on it records the
/// tenant's end-to-end latency and energy telemetry.
#[derive(Debug)]
pub struct GovernorTicket {
    inner: ClusterTicket,
    submitted_at: Instant,
    latency: Histogram,
    energy_pj: Counter,
}

impl GovernorTicket {
    /// The replica the router placed this request on.
    pub fn replica(&self) -> usize {
        self.inner.replica()
    }

    /// Blocks until the response arrives, recording per-tenant latency
    /// and energy telemetry.
    pub fn wait(self) -> Result<InferResponse, GovernorError> {
        let resp = self.inner.wait()?;
        self.latency
            .observe(self.submitted_at.elapsed().as_secs_f64());
        self.energy_pj.add(resp.energy.as_pj());
        Ok(resp)
    }

    /// Non-blocking poll; `Some` exactly once when the response is
    /// ready (also records the tenant telemetry then).
    pub fn try_wait(&self) -> Option<InferResponse> {
        let resp = self.inner.try_wait()?;
        self.latency
            .observe(self.submitted_at.elapsed().as_secs_f64());
        self.energy_pj.add(resp.energy.as_pj());
        Some(resp)
    }
}

/// The SLO-aware adaptive governor: a [`Cluster`] wrapped in per-tenant
/// admission, a pressure-driven degradation ladder, and per-tenant
/// telemetry.
///
/// * **Admission** ([`submit`](Self::submit)): requests are tenant-
///   labelled; a shed tenant is refused here, before the router. The
///   per-tenant ledger conserves: `accepted + shed + rejected ==
///   submitted` (validation failures don't count).
/// * **Policy** ([`tick`](Self::tick)): samples pressure from the
///   telemetry the stack already emits and walks the [`Ladder`] one rung
///   at a time — demote → widen batching → shed going down, exact
///   reverse coming back up. [`tick_with`](Self::tick_with) takes a
///   caller-supplied sample instead, making the decision trace a pure
///   function of the schedule (the determinism contract the tests pin).
/// * **Reporting** ([`report`](Self::report)): the decision trace plus
///   per-tenant ledgers.
pub struct Governor {
    cluster: Cluster,
    tenants: Vec<TenantState>,
    hi_prio_slo_s: Option<f64>,
    policy: Mutex<PolicyState>,
    normal_batch: BatchPolicy,
    wide_batch: BatchPolicy,
    /// The governor's metric handles, per-tenant ledgers included.
    telemetry: GovernorTelemetry,
}

impl Governor {
    /// Starts staging tenants.
    pub fn builder() -> GovernorBuilder {
        GovernorBuilder::default()
    }

    /// The governed cluster (probes, direct access in tests).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The tier `tenant` is currently served at.
    ///
    /// # Errors
    ///
    /// [`GovernorError::UnknownTenant`] for an unregistered handle.
    pub fn tier(&self, tenant: TenantId) -> Result<Tier, GovernorError> {
        Ok(self.state(tenant)?.tier())
    }

    fn state(&self, tenant: TenantId) -> Result<&TenantState, GovernorError> {
        self.tenants
            .get(tenant.0)
            .ok_or(GovernorError::UnknownTenant { id: tenant })
    }

    /// Enqueues one request for `tenant` and returns a ticket to wait
    /// on. Requests for a shed tenant are refused *here*, at admission,
    /// without touching the router.
    ///
    /// # Errors
    ///
    /// * [`GovernorError::UnknownTenant`] / [`GovernorError::BadInput`]
    ///   — validation; **not** counted against the ledger.
    /// * [`GovernorError::Shed`] — counted as `shed`.
    /// * [`GovernorError::Cluster`] — the fleet refused; counted as
    ///   `rejected`.
    pub fn submit(
        &self,
        tenant: TenantId,
        input: &Tensor,
    ) -> Result<GovernorTicket, GovernorError> {
        let state = self.state(tenant)?;
        let expected = state.input_shape.as_slice();
        let shape = input.shape();
        let ok = shape == expected
            || (shape.len() == expected.len() + 1 && shape[0] == 1 && &shape[1..] == expected);
        if !ok {
            return Err(GovernorError::BadInput {
                expected: expected.to_vec(),
                actual: shape.to_vec(),
            });
        }
        let tel = &self.telemetry.tenants[tenant.0];
        tel.submitted.inc();
        if state.tier() == Tier::Shed {
            tel.shed.inc();
            return Err(GovernorError::Shed { id: tenant });
        }
        match self.cluster.submit(tenant.model_id(), input) {
            Ok(ticket) => {
                tel.accepted.inc();
                Ok(GovernorTicket {
                    inner: ticket,
                    submitted_at: Instant::now(),
                    latency: tel.latency.clone(),
                    energy_pj: tel.energy_pj.clone(),
                })
            }
            Err(e) => {
                tel.rejected.inc();
                Err(e.into())
            }
        }
    }

    /// Submit + wait: the blocking convenience path.
    pub fn infer(&self, tenant: TenantId, input: &Tensor) -> Result<InferResponse, GovernorError> {
        self.submit(tenant, input)?.wait()
    }

    /// One **live** policy tick: samples pressure from the cluster's
    /// queue depths, its admission ledger, and the runtimes' windowed
    /// queue-stage histograms, then delegates to
    /// [`tick_with`](Self::tick_with).
    pub fn tick(&self) -> Option<GovernorEvent> {
        let depths = self.cluster.queue_depths();
        let (submitted, _, rejected) = self.cluster.admission_counts();
        let sample = {
            // The sampler reads the same registry the runtimes write.
            let mut policy = self.policy.lock().expect("policy lock");
            policy.sampler.sample(
                &self.cluster.telemetry().registry,
                &depths,
                self.cluster.queue_capacity(),
                (submitted, rejected),
                self.hi_prio_slo_s,
            )
        };
        self.tick_with(sample)
    }

    /// One policy tick against a **caller-supplied** pressure sample.
    /// Deterministic: given the same tick schedule of samples (and the
    /// same tenant set), the governor emits the same decision trace —
    /// what lets tests pin exact demote/promote sequences.
    ///
    /// A rung the fleet refuses transiently (e.g. a demotion's hot-swap
    /// canary finding no queue room under the very pressure that
    /// triggered it) is **deferred**: the ladder does not advance, the
    /// `pim_governor_deferred_total` counter ticks, and the same rung is
    /// re-proposed on the next eligible tick. Returns the applied event,
    /// if any.
    pub fn tick_with(&self, sample: PressureSample) -> Option<GovernorEvent> {
        let mut policy = self.policy.lock().expect("policy lock");
        policy.ticks += 1;
        let pressure = sample.score();
        let gt = &self.telemetry;
        gt.ticks.inc();
        gt.pressure.set(pressure);
        let view: Vec<LadderTenant> = self
            .tenants
            .iter()
            .map(|t| LadderTenant {
                priority: t.priority,
                degraded: t.tier() <= Tier::Degraded,
                shed: t.tier() == Tier::Shed,
            })
            .collect();
        let action = policy.ladder.tick(pressure, &view)?;
        let tick = policy.ticks;
        match self.apply(action, tick) {
            Ok(event) => {
                policy.ladder.commit(action);
                policy.events.push(event);
                gt.ladder_depth.set(policy.ladder.depth() as f64);
                Some(event)
            }
            Err(_refused) => {
                gt.deferred.inc();
                None
            }
        }
    }

    /// Applies one rung to the live fleet.
    fn apply(&self, action: LadderAction, tick: u64) -> Result<GovernorEvent, GovernorError> {
        let swap = |tenant: usize, artifact: &CompiledModel| -> Result<(), GovernorError> {
            self.cluster
                .swap_model(TenantId(tenant).model_id(), artifact.clone())
                .map(|_| ())
                .map_err(GovernorError::from)
        };
        let gt = &self.telemetry;
        Ok(match action {
            LadderAction::Demote { tenant } => {
                swap(tenant, &self.tenants[tenant].degraded)?;
                self.set_tier(tenant, Tier::Degraded);
                gt.tenants[tenant].demotions.inc();
                GovernorEvent::Demoted { tick, tenant }
            }
            LadderAction::Promote { tenant } => {
                swap(tenant, &self.tenants[tenant].full)?;
                self.set_tier(tenant, Tier::Full);
                gt.tenants[tenant].promotions.inc();
                GovernorEvent::Promoted { tick, tenant }
            }
            LadderAction::WidenBatch => {
                self.cluster.set_batch_policy(self.wide_batch);
                gt.batch_wide.set(1.0);
                GovernorEvent::BatchWidened { tick }
            }
            LadderAction::RestoreBatch => {
                self.cluster.set_batch_policy(self.normal_batch);
                gt.batch_wide.set(0.0);
                GovernorEvent::BatchRestored { tick }
            }
            LadderAction::Shed { tenant } => {
                self.cluster
                    .set_queue_quota(TenantId(tenant).model_id(), Some(0))?;
                self.set_tier(tenant, Tier::Shed);
                GovernorEvent::ShedStarted { tick, tenant }
            }
            LadderAction::Unshed { tenant } => {
                self.cluster
                    .set_queue_quota(TenantId(tenant).model_id(), None)?;
                self.set_tier(tenant, Tier::Degraded);
                GovernorEvent::ShedStopped { tick, tenant }
            }
        })
    }

    /// Moves `tenant` to `tier`: the state atomic and its gauge.
    fn set_tier(&self, tenant: usize, tier: Tier) {
        self.tenants[tenant].set_tier(tier);
        self.telemetry.tenants[tenant]
            .tier
            .set(tier.as_level() as f64);
    }

    /// A point-in-time snapshot: trace + per-tenant ledgers, read from
    /// the governor's metric handles.
    pub fn report(&self) -> GovernorReport {
        let policy = self.policy.lock().expect("policy lock");
        let gt = &self.telemetry;
        let count = |c: &Counter| c.value() as u64;
        GovernorReport {
            ticks: policy.ticks,
            last_pressure: gt.pressure.value(),
            ladder_depth: policy.ladder.depth(),
            deferred: count(&gt.deferred),
            events: policy.events.clone(),
            tenants: self
                .tenants
                .iter()
                .zip(&gt.tenants)
                .map(|(t, tel)| TenantReport {
                    name: t.name.clone(),
                    priority: t.priority,
                    tier: t.tier(),
                    submitted: count(&tel.submitted),
                    accepted: count(&tel.accepted),
                    shed: count(&tel.shed),
                    rejected: count(&tel.rejected),
                    demotions: count(&tel.demotions),
                    promotions: count(&tel.promotions),
                })
                .collect(),
        }
    }

    /// Graceful shutdown: drains the fleet and returns its final stats
    /// alongside the governor's report.
    pub fn shutdown(self) -> (ClusterStats, GovernorReport) {
        let report = self.report();
        (self.cluster.shutdown(), report)
    }
}
