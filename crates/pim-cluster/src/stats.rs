//! Fleet-wide statistics rolled up from per-replica snapshots.

use pim_runtime::RuntimeStats;
use std::fmt;

/// Point-in-time view of the whole cluster.
///
/// `total` is the exact [`RuntimeStats::merge`] of every per-replica
/// snapshot — counters add, means re-weight, and the latency histograms
/// add bucket by bucket, so the percentiles equal what one runtime
/// serving all the traffic would have reported.
///
/// Two rejection counters coexist on purpose: `total.requests_rejected`
/// counts per-replica `QueueFull` refusals, which include the router's
/// *retries* (a request bounced by one replica and accepted by the next
/// shows up there once per bounce). `rejected` counts requests the
/// **cluster** turned away after exhausting every candidate — that is
/// the admission-control number an SLO cares about.
///
/// Similarly, `total.requests_completed` can exceed `accepted` by one
/// per successful [`swap_model`](crate::Cluster::swap_model): the canary
/// verification probe is served by the canary replica directly, outside
/// the cluster's admission ledger.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// One snapshot per replica, in replica-index order.
    pub per_replica: Vec<RuntimeStats>,
    /// Exact merge of `per_replica` (bucket-wise histogram sums).
    pub total: RuntimeStats,
    /// Requests that passed validation and entered the router.
    pub submitted: u64,
    /// Requests some replica accepted a ticket for.
    pub accepted: u64,
    /// Requests no replica would take (saturated or no healthy replica).
    pub rejected: u64,
    /// Fleet size.
    pub replicas: usize,
    /// Simulated macro groups each replica shards its tiles across.
    pub macro_groups: usize,
}

impl ClusterStats {
    pub(crate) fn roll_up(
        per_replica: Vec<RuntimeStats>,
        submitted: u64,
        accepted: u64,
        rejected: u64,
        macro_groups: usize,
    ) -> Self {
        let total: RuntimeStats = per_replica.iter().sum();
        let replicas = per_replica.len();
        Self {
            per_replica,
            total,
            submitted,
            accepted,
            rejected,
            replicas,
            macro_groups,
        }
    }

    /// Fraction of submitted requests the cluster turned away
    /// (0.0 when nothing was submitted).
    pub fn rejection_fraction(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster: {} replicas x {} macro groups | submitted {} accepted {} rejected {} ({:.2}%)",
            self.replicas,
            self.macro_groups,
            self.submitted,
            self.accepted,
            self.rejected,
            self.rejection_fraction() * 100.0,
        )?;
        for (i, r) in self.per_replica.iter().enumerate() {
            writeln!(
                f,
                "  replica {i}: {} completed, {} rejected, mean batch {:.2}",
                r.requests_completed, r.requests_rejected, r.mean_batch_size
            )?;
        }
        write!(f, "  fleet total: {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_up_merges_and_counts() {
        let mut a = RuntimeStats::empty();
        a.requests_completed = 3;
        let mut b = RuntimeStats::empty();
        b.requests_completed = 5;
        let s = ClusterStats::roll_up(vec![a, b], 10, 8, 2, 4);
        assert_eq!(s.replicas, 2);
        assert_eq!(s.macro_groups, 4);
        assert_eq!(s.total.requests_completed, 8);
        assert!((s.rejection_fraction() - 0.2).abs() < 1e-12);
        let shown = s.to_string();
        assert!(shown.contains("2 replicas x 4 macro groups"));
        assert!(shown.contains("replica 1"));
    }

    #[test]
    fn rejection_fraction_is_zero_on_idle_cluster() {
        let s = ClusterStats::roll_up(vec![RuntimeStats::empty()], 0, 0, 0, 1);
        assert_eq!(s.rejection_fraction(), 0.0);
    }
}
