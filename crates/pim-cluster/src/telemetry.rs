//! Cluster-level metric families — the cluster's admission ledger.
//!
//! Registered once at cluster start on the fleet's
//! [`pim_telemetry::Telemetry`] bundle, alongside the per-replica runtime
//! families (which each replica labels with `replica="<i>"` via
//! `RuntimeBuilder::replica_label`). Handles are plain atomics; the hot
//! path never touches the registry.

use pim_telemetry::{Counter, Gauge, Telemetry};
use std::sync::Arc;

/// Handles for the cluster's own families plus per-replica gauges.
#[derive(Debug)]
pub(crate) struct ClusterTelemetry {
    /// The bundle the handles live in (the governor registers on it too).
    pub bundle: Arc<Telemetry>,
    /// Requests that passed validation and entered the router.
    pub submitted: Counter,
    /// Requests a replica accepted a ticket for.
    pub accepted: Counter,
    /// Requests turned away after every candidate refused.
    pub rejected: Counter,
    /// Fleet-wide rollouts completed (canary verified + fleet swapped).
    pub rollouts: Counter,
    /// Canaries that diverged from the reference answer and rolled back.
    pub canary_rejections: Counter,
    /// Queue depth per replica, sampled at each routing decision.
    pub queue_depth: Vec<Gauge>,
    /// 1.0 while the replica passes its health probe, else 0.0.
    pub healthy: Vec<Gauge>,
}

impl ClusterTelemetry {
    pub fn register(bundle: Arc<Telemetry>, replicas: usize) -> Self {
        let registry = &bundle.registry;
        let mut queue_depth = Vec::with_capacity(replicas);
        let mut healthy = Vec::with_capacity(replicas);
        for i in 0..replicas {
            let label = i.to_string();
            let labels = [("replica", label.as_str())];
            queue_depth.push(registry.gauge_with(
                "pim_cluster_replica_queue_depth",
                "Replica queue depth sampled at routing time",
                &labels,
            ));
            healthy.push(registry.gauge_with(
                "pim_cluster_replica_healthy",
                "1 while the replica passes its health probe",
                &labels,
            ));
        }
        Self {
            submitted: registry.counter(
                "pim_cluster_requests_total",
                "Validated requests entering the cluster router",
            ),
            accepted: registry.counter(
                "pim_cluster_accepted_total",
                "Requests a replica accepted a ticket for",
            ),
            rejected: registry.counter(
                "pim_cluster_rejected_total",
                "Requests turned away after every candidate refused",
            ),
            rollouts: registry.counter(
                "pim_cluster_rollouts_total",
                "Fleet-wide model rollouts completed",
            ),
            canary_rejections: registry.counter(
                "pim_cluster_canary_rejected_total",
                "Canary swaps that diverged and were rolled back",
            ),
            queue_depth,
            healthy,
            bundle,
        }
    }

    /// Publishes one routing probe: per-replica depth (`None` = failed
    /// health check, shown as depth 0 / healthy 0).
    pub fn observe_probe(&self, depths: &[Option<usize>]) {
        for (i, d) in depths.iter().enumerate() {
            match d {
                Some(depth) => {
                    self.queue_depth[i].set(*depth as f64);
                    self.healthy[i].set(1.0);
                }
                None => {
                    self.queue_depth[i].set(0.0);
                    self.healthy[i].set(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_register_per_replica_series() {
        let bundle = Telemetry::new();
        let tel = ClusterTelemetry::register(Arc::clone(&bundle), 3);
        tel.observe_probe(&[Some(2), None, Some(0)]);
        assert_eq!(tel.queue_depth[0].value(), 2.0);
        assert_eq!(tel.healthy[1].value(), 0.0);
        assert_eq!(tel.healthy[2].value(), 1.0);
        // Re-registering resolves the same series (get-or-register).
        let again = bundle.registry.gauge_with(
            "pim_cluster_replica_queue_depth",
            "Replica queue depth sampled at routing time",
            &[("replica", "0")],
        );
        assert_eq!(again.value(), 2.0);
    }
}
