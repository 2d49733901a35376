//! The snapshot clients read: a view over the runtime's metric handles
//! (see `telemetry.rs`), mergeable across runtimes.

use crate::telemetry::{seconds_buckets, sim_latency_buckets};
use pim_device::{edp, Energy, Latency};
use pim_telemetry::{Histogram, HistogramSnapshot};
use std::fmt;
use std::time::Duration;

/// Point-in-time view of everything the runtime has served, read from
/// the same metric handles its Prometheus exposition renders.
///
/// Counts, the energy/busy ledgers, `macs` and `pe_matvecs` are exact.
/// The latency percentiles come from a fixed-bucket histogram (bounds
/// [`SIM_LATENCY_BUCKET_FACTOR`](crate::telemetry::SIM_LATENCY_BUCKET_FACTOR)
/// apart), so memory stays bounded however long the runtime serves.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Requests answered.
    pub requests_completed: u64,
    /// Requests refused with [`QueueFull`](crate::RuntimeError::QueueFull)
    /// or [`Throttled`](crate::RuntimeError::Throttled).
    pub requests_rejected: u64,
    /// PE batches dispatched.
    pub batches: u64,
    /// Hot model swaps published into the serving path.
    pub model_swaps: u64,
    /// Mean riders per batch.
    pub mean_batch_size: f64,
    /// Largest batch dispatched.
    pub max_batch_size: usize,
    /// Median per-request simulated latency: the upper edge of the
    /// histogram bucket holding the nearest-rank sample, so it over-states
    /// that sample by at most 1.25×.
    pub p50_latency: Latency,
    /// 99th-percentile per-request simulated latency, as bucketed as
    /// `p50_latency` (at most 1.25× the nearest-rank sample).
    pub p99_latency: Latency,
    /// Mean per-request simulated latency.
    pub mean_latency: Latency,
    /// Total simulated energy across all batches.
    pub total_energy: Energy,
    /// Total simulated PE busy time (summed across workers).
    pub simulated_busy: Latency,
    /// Energy-delay product (pJ·ns) of the aggregate ledger.
    pub edp: f64,
    /// Total MACs executed on the PEs.
    pub macs: u64,
    /// Total PE matvec operations.
    pub pe_matvecs: u64,
    /// Mean wall-clock time from submit to response.
    pub mean_queue_wait: Duration,
    /// Wall-clock time since the runtime started.
    pub wall_elapsed: Duration,
    /// The per-request simulated latency histogram (ns) behind the
    /// percentiles; roll-ups [`merge`](Self::merge) it bucket by bucket.
    pub sim_latency_ns: HistogramSnapshot,
    /// The per-request wall-clock wait histogram (s) behind
    /// `mean_queue_wait`.
    pub request_wait_s: HistogramSnapshot,
}

impl RuntimeStats {
    /// Wall-clock requests per second since start.
    pub fn throughput_rps(&self) -> f64 {
        let s = self.wall_elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.requests_completed as f64 / s
        }
    }

    /// An all-zero snapshot — the identity of [`merge`](Self::merge).
    pub fn empty() -> Self {
        Self {
            requests_completed: 0,
            requests_rejected: 0,
            batches: 0,
            model_swaps: 0,
            mean_batch_size: 0.0,
            max_batch_size: 0,
            p50_latency: Latency::ZERO,
            p99_latency: Latency::ZERO,
            mean_latency: Latency::ZERO,
            total_energy: Energy::ZERO,
            simulated_busy: Latency::ZERO,
            edp: 0.0,
            macs: 0,
            pe_matvecs: 0,
            mean_queue_wait: Duration::ZERO,
            wall_elapsed: Duration::ZERO,
            sim_latency_ns: Histogram::new(&sim_latency_buckets()).snapshot(),
            request_wait_s: Histogram::new(&seconds_buckets()).snapshot(),
        }
    }

    /// Merges two snapshots into the snapshot an imaginary single runtime
    /// serving both workloads would have produced: counters add, the
    /// histograms add bucket by bucket (so the percentiles are those of
    /// the pooled requests, not percentiles of percentiles), the batch
    /// mean re-weights, energy/busy ledgers add and the EDP is re-derived
    /// from the merged totals. Wall-clock elapsed takes the max — replicas
    /// run concurrently, their lifetimes don't stack.
    pub fn merge(&self, other: &RuntimeStats) -> RuntimeStats {
        let batches = self.batches + other.batches;
        RuntimeStats {
            requests_completed: self.requests_completed + other.requests_completed,
            requests_rejected: self.requests_rejected + other.requests_rejected,
            batches,
            model_swaps: self.model_swaps + other.model_swaps,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                (self.mean_batch_size * self.batches as f64
                    + other.mean_batch_size * other.batches as f64)
                    / batches as f64
            },
            max_batch_size: self.max_batch_size.max(other.max_batch_size),
            total_energy: self.total_energy + other.total_energy,
            simulated_busy: self.simulated_busy + other.simulated_busy,
            macs: self.macs + other.macs,
            pe_matvecs: self.pe_matvecs + other.pe_matvecs,
            wall_elapsed: self.wall_elapsed.max(other.wall_elapsed),
            sim_latency_ns: self.sim_latency_ns.merge(&other.sim_latency_ns),
            request_wait_s: self.request_wait_s.merge(&other.request_wait_s),
            ..RuntimeStats::empty()
        }
        .derive_summaries()
    }

    /// Fills the fields summarised from the others: the latency
    /// percentiles and means from the histograms, the EDP from the
    /// ledger totals.
    pub(crate) fn derive_summaries(mut self) -> Self {
        let latency = &self.sim_latency_ns;
        self.p50_latency = Latency::from_ns(latency.quantile(0.50));
        self.p99_latency = Latency::from_ns(latency.quantile(0.99));
        self.mean_latency = Latency::from_ns(latency.mean());
        self.edp = edp(self.total_energy, self.simulated_busy);
        self.mean_queue_wait = Duration::from_secs_f64(self.request_wait_s.mean());
        self
    }
}

impl std::iter::Sum for RuntimeStats {
    fn sum<I: Iterator<Item = RuntimeStats>>(iter: I) -> Self {
        iter.fold(RuntimeStats::empty(), |acc, s| acc.merge(&s))
    }
}

impl<'a> std::iter::Sum<&'a RuntimeStats> for RuntimeStats {
    fn sum<I: Iterator<Item = &'a RuntimeStats>>(iter: I) -> Self {
        iter.fold(RuntimeStats::empty(), |acc, s| acc.merge(s))
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reqs in {} batches (mean {:.2}/batch, max {}), {} rejected; \
             sim latency p50 {} p99 {}, energy {}, EDP {:.3e} pJ·ns, {:.0} req/s",
            self.requests_completed,
            self.batches,
            self.mean_batch_size,
            self.max_batch_size,
            self.requests_rejected,
            self.p50_latency,
            self.p99_latency,
            self.total_energy,
            self.edp,
            self.throughput_rps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{RuntimeTelemetry, SIM_LATENCY_BUCKET_FACTOR};
    use pim_device::EnergyLedger;
    use pim_pe::PeStats;
    use pim_telemetry::Telemetry;

    fn batch_ledger(cycles: u64, ns: f64, pj: f64) -> PeStats {
        let mut energy = EnergyLedger::new();
        energy.add_compute(Energy::from_pj(pj));
        PeStats {
            cycles,
            busy_time: Latency::from_ns(ns),
            energy,
            loads: 0,
            matvecs: 1,
            macs: 10,
            write_bits: 0,
            write_retries: 0,
            write_faults: 0,
        }
    }

    fn collector() -> RuntimeTelemetry {
        RuntimeTelemetry::register(Telemetry::new(), None)
    }

    /// The serving path's accounting for one batch, minus the PE work:
    /// the branch folds its ledger delta, then the worker counts the
    /// riders (each waiting `wait`).
    fn record(c: &RuntimeTelemetry, size: usize, ledger: PeStats, wait: Duration) {
        c.pe.record(&ledger);
        c.record_batch(ledger.busy_time, &[wait; 64][..size]);
    }

    fn snapshot(c: &RuntimeTelemetry) -> RuntimeStats {
        c.stats()
    }

    #[test]
    fn sim_latency_buckets_are_at_most_the_documented_factor_apart() {
        let b = sim_latency_buckets();
        assert!(
            b[0] == 1.0 && b[b.len() - 1] > 1e11,
            "1 ns up to 100 s batches"
        );
        let factor = SIM_LATENCY_BUCKET_FACTOR * (1.0 + 1e-12);
        assert!(b.windows(2).all(|w| w[1] / w[0] <= factor));
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let c = collector();
        let wait = Duration::from_micros(10);
        record(&c, 3, batch_ledger(10, 100.0, 5.0), wait);
        record(&c, 1, batch_ledger(10, 300.0, 2.0), wait);
        c.rejected_total.inc();
        c.swaps_total.inc();
        let s = snapshot(&c);
        assert_eq!(s.requests_completed, 4);
        assert_eq!(s.requests_rejected, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.model_swaps, 1);
        assert_eq!(s.max_batch_size, 3);
        assert!((s.mean_batch_size - 2.0).abs() < 1e-12);
        // Latency samples [100, 100, 100, 300] ns; each percentile is the
        // upper edge of its nearest-rank sample's bucket: 1.25^21 and
        // 1.25^26 ns, within 1.25x of the samples.
        assert_eq!(s.p50_latency, Latency::from_ns(1.25f64.powi(21)));
        assert_eq!(s.p99_latency, Latency::from_ns(1.25f64.powi(26)));
        for (p, sample) in [(s.p50_latency, 100.0), (s.p99_latency, 300.0)] {
            assert!(p.as_ns() >= sample && p.as_ns() <= sample * SIM_LATENCY_BUCKET_FACTOR);
        }
        assert_eq!(s.mean_latency, Latency::from_ns(150.0));
        assert_eq!(s.mean_queue_wait, wait);
        assert_eq!(s.total_energy, Energy::from_pj(7.0));
        assert_eq!(s.macs, 20);
        assert!(s.edp > 0.0);
        assert!(s.to_string().contains("4 reqs"));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = snapshot(&collector());
        assert_eq!(s.requests_completed, 0);
        assert_eq!(s.p99_latency, Latency::from_ns(0.0));
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.throughput_rps(), 0.0);
    }

    /// A million batches leave the snapshot exactly as large as ten did:
    /// the view holds fixed histogram buckets, not per-request samples,
    /// and every count stays exact.
    #[test]
    fn stats_memory_stays_bounded_over_a_million_batches() {
        const BATCHES: u64 = 1_000_000;
        let c = collector();
        let mut ledger = PeStats::new();
        let mut requests = 0u64;
        let buckets = |s: &RuntimeStats| {
            s.sim_latency_ns.bucket_counts().len() + s.request_wait_s.bucket_counts().len()
        };
        let mut after_ten = 0;
        for i in 0..BATCHES {
            let size = 1 + (i % 8) as usize;
            let batch = batch_ledger(10, 100.0 + (i % 50) as f64, 0.5);
            record(&c, size, batch, Duration::from_micros(20));
            ledger += batch;
            requests += size as u64;
            if i == 9 {
                after_ten = buckets(&snapshot(&c));
            }
        }
        let s = snapshot(&c);
        assert_eq!(buckets(&s), after_ten);
        assert_eq!(s.requests_completed, requests);
        assert_eq!(s.batches, BATCHES);
        assert_eq!(s.max_batch_size, 8);
        assert_eq!(s.pe_matvecs, BATCHES);
        assert_eq!(s.macs, 10 * BATCHES);
        assert_eq!(s.sim_latency_ns.count(), requests);
        assert_eq!(
            s.total_energy.as_pj().to_bits(),
            ledger.total_energy().as_pj().to_bits()
        );
        assert_eq!(s.simulated_busy, ledger.busy_time);
    }

    /// Two per-replica views, merged, equal one view fed the union of
    /// their batches — bucket for bucket, not percentile of percentiles.
    #[test]
    fn merged_percentiles_pin_to_the_flat_sample_computation() {
        let a = collector();
        let b = collector();
        let flat = collector();
        // Skewed splits so naive percentile-of-percentiles would be wrong:
        // replica a serves the fast batches, replica b the slow tail.
        let batches: &[(usize, u64, f64, f64, bool)] = &[
            (3, 10, 100.0, 5.0, true),
            (5, 12, 110.0, 6.0, true),
            (2, 20, 900.0, 9.0, false),
            (1, 30, 4000.0, 11.0, false),
            (4, 11, 105.0, 5.5, true),
        ];
        for &(size, cycles, ns, pj, on_a) in batches {
            let ledger = batch_ledger(cycles, ns, pj);
            let wait = Duration::from_micros(10 * size as u64);
            record(if on_a { &a } else { &b }, size, ledger, wait);
            record(&flat, size, ledger, wait);
        }
        a.rejected_total.inc();
        b.rejected_total.inc();
        flat.rejected_total.add(2.0);

        let merged = snapshot(&a).merge(&snapshot(&b));
        let want = snapshot(&flat);
        assert_eq!(merged.requests_completed, want.requests_completed);
        assert_eq!(merged.requests_rejected, want.requests_rejected);
        assert_eq!(merged.batches, want.batches);
        assert_eq!(merged.max_batch_size, want.max_batch_size);
        assert!((merged.mean_batch_size - want.mean_batch_size).abs() < 1e-12);
        // The pinned part: the merged histogram is the flat one, so the
        // percentiles are too.
        assert_eq!(merged.sim_latency_ns, want.sim_latency_ns);
        assert_eq!(
            merged.request_wait_s.bucket_counts(),
            want.request_wait_s.bucket_counts()
        );
        assert_eq!(merged.p50_latency, want.p50_latency);
        assert_eq!(merged.p99_latency, want.p99_latency);
        assert_eq!(merged.mean_latency, want.mean_latency);
        // Ledger sums and the re-derived EDP.
        assert_eq!(merged.total_energy, want.total_energy);
        assert_eq!(merged.simulated_busy, want.simulated_busy);
        assert_eq!(merged.edp, want.edp);
        assert_eq!(merged.macs, want.macs);
        assert_eq!(merged.pe_matvecs, want.pe_matvecs);
    }

    #[test]
    fn merge_with_empty_is_identity_and_sum_folds() {
        let c = collector();
        record(&c, 2, batch_ledger(10, 50.0, 1.0), Duration::from_micros(5));
        let s = snapshot(&c);
        let merged = RuntimeStats::empty().merge(&s);
        assert_eq!(merged.requests_completed, s.requests_completed);
        assert_eq!(merged.p50_latency, s.p50_latency);
        assert_eq!(merged.total_energy, s.total_energy);
        assert_eq!(merged.sim_latency_ns, s.sim_latency_ns);

        let summed: RuntimeStats = [s.clone(), s.clone(), s.clone()].iter().sum();
        assert_eq!(summed.requests_completed, 6);
        assert_eq!(summed.batches, 3);
        assert_eq!(summed.p99_latency, s.p99_latency, "identical replicas");
        let owned: RuntimeStats = vec![s.clone(), s].into_iter().sum();
        assert_eq!(owned.requests_completed, 4);
    }
}
