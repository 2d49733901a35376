//! Runtime-wide accounting and the snapshot clients read.

use crate::metrics::LatencySummary;
use pim_device::{edp, Energy, Latency};
use pim_pe::PeStats;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thread-safe accumulator the workers and `submit` write into.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    completed: u64,
    rejected: u64,
    batches: u64,
    batch_size_sum: u64,
    max_batch_size: usize,
    model_swaps: u64,
    /// Aggregate simulated PE ledger across all batches.
    sim: PeStats,
    /// Per-request simulated latency samples (ns).
    latencies_ns: Vec<f64>,
    queue_wait_sum: Duration,
    started: Instant,
}

impl StatsCollector {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                completed: 0,
                rejected: 0,
                batches: 0,
                batch_size_sum: 0,
                max_batch_size: 0,
                model_swaps: 0,
                sim: PeStats::new(),
                latencies_ns: Vec::new(),
                queue_wait_sum: Duration::ZERO,
                started: Instant::now(),
            }),
        }
    }

    /// Records one served batch: its size, PE ledger, and the wall-clock
    /// queue waits of its riders.
    pub fn record_batch(&self, size: usize, sim: PeStats, queue_waits: Duration) {
        let mut g = self.inner.lock().expect("stats lock");
        g.completed += size as u64;
        g.batches += 1;
        g.batch_size_sum += size as u64;
        g.max_batch_size = g.max_batch_size.max(size);
        g.sim += sim;
        // Every rider experiences the whole batch's simulated latency.
        let ns = sim.busy_time.as_ns();
        g.latencies_ns.extend(std::iter::repeat_n(ns, size));
        g.queue_wait_sum += queue_waits;
    }

    /// Records one backpressure rejection.
    pub fn record_rejection(&self) {
        self.inner.lock().expect("stats lock").rejected += 1;
    }

    /// Records one hot model swap.
    pub fn record_swap(&self) {
        self.inner.lock().expect("stats lock").model_swaps += 1;
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> RuntimeStats {
        let g = self.inner.lock().expect("stats lock");
        let latency = LatencySummary::from_ns(&g.latencies_ns);
        RuntimeStats {
            latency_samples_ns: g.latencies_ns.clone(),
            requests_completed: g.completed,
            requests_rejected: g.rejected,
            batches: g.batches,
            model_swaps: g.model_swaps,
            mean_batch_size: if g.batches == 0 {
                0.0
            } else {
                g.batch_size_sum as f64 / g.batches as f64
            },
            max_batch_size: g.max_batch_size,
            p50_latency: latency.p50,
            p99_latency: latency.p99,
            mean_latency: latency.mean,
            total_energy: g.sim.total_energy(),
            simulated_busy: g.sim.busy_time,
            edp: edp(g.sim.total_energy(), g.sim.busy_time),
            macs: g.sim.macs,
            pe_matvecs: g.sim.matvecs,
            mean_queue_wait: mean_duration(g.queue_wait_sum, g.completed),
            wall_elapsed: g.started.elapsed(),
        }
    }
}

/// `sum / n`, or zero for `n == 0`. Divides in `u128` nanoseconds, so it
/// stays exact past `u32::MAX` samples (where `Duration / u32` would need
/// a truncating cast).
fn mean_duration(sum: Duration, n: u64) -> Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    match sum.as_nanos().checked_div(u128::from(n)) {
        // The quotient is at most `sum`, so its seconds fit in a u64.
        Some(nanos) => Duration::new(
            (nanos / NANOS_PER_SEC) as u64,
            (nanos % NANOS_PER_SEC) as u32,
        ),
        None => Duration::ZERO,
    }
}

/// Point-in-time view of everything the runtime has served.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Requests answered.
    pub requests_completed: u64,
    /// Requests refused with [`QueueFull`](crate::RuntimeError::QueueFull).
    pub requests_rejected: u64,
    /// PE batches dispatched.
    pub batches: u64,
    /// Hot model swaps published into the serving path.
    pub model_swaps: u64,
    /// Mean riders per batch.
    pub mean_batch_size: f64,
    /// Largest batch dispatched.
    pub max_batch_size: usize,
    /// Median per-request simulated latency.
    pub p50_latency: Latency,
    /// 99th-percentile per-request simulated latency.
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
    /// The raw per-request simulated latency samples (ns) behind the
    /// percentiles — carried so roll-ups can **merge** snapshots exactly
    /// instead of approximating percentiles from percentiles.
    pub latency_samples_ns: Vec<f64>,
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
            latency_samples_ns: Vec::new(),
        }
    }

    /// Merges two snapshots into the snapshot an imaginary single runtime
    /// serving both workloads would have produced: counters add, means
    /// re-weight, percentiles are **recomputed from the pooled latency
    /// samples** (not interpolated from the per-snapshot percentiles),
    /// energy/busy ledgers add and the EDP is re-derived from the merged
    /// totals. Wall-clock elapsed takes the max — replicas run
    /// concurrently, their lifetimes don't stack.
    pub fn merge(&self, other: &RuntimeStats) -> RuntimeStats {
        let mut samples =
            Vec::with_capacity(self.latency_samples_ns.len() + other.latency_samples_ns.len());
        samples.extend_from_slice(&self.latency_samples_ns);
        samples.extend_from_slice(&other.latency_samples_ns);
        let latency = LatencySummary::from_ns(&samples);
        let batches = self.batches + other.batches;
        let completed = self.requests_completed + other.requests_completed;
        let total_energy = self.total_energy + other.total_energy;
        let simulated_busy = self.simulated_busy + other.simulated_busy;
        RuntimeStats {
            requests_completed: completed,
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
            p50_latency: latency.p50,
            p99_latency: latency.p99,
            mean_latency: latency.mean,
            total_energy,
            simulated_busy,
            edp: edp(total_energy, simulated_busy),
            macs: self.macs + other.macs,
            pe_matvecs: self.pe_matvecs + other.pe_matvecs,
            mean_queue_wait: if completed == 0 {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(
                    (self.mean_queue_wait.as_secs_f64() * self.requests_completed as f64
                        + other.mean_queue_wait.as_secs_f64() * other.requests_completed as f64)
                        / completed as f64,
                )
            },
            wall_elapsed: self.wall_elapsed.max(other.wall_elapsed),
            latency_samples_ns: samples,
        }
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
    use pim_device::EnergyLedger;

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

    #[test]
    fn mean_duration_divides_past_u32_counts() {
        let n = 1u64 << 32;
        assert_eq!(
            mean_duration(Duration::from_nanos(3 * n), n),
            Duration::from_nanos(3)
        );
        assert_eq!(
            mean_duration(Duration::from_secs(n + 1), n + 1),
            Duration::from_secs(1)
        );
        assert_eq!(mean_duration(Duration::from_secs(7), 0), Duration::ZERO);
        assert_eq!(
            mean_duration(Duration::from_micros(40), 4),
            Duration::from_micros(40) / 4
        );
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let c = StatsCollector::new();
        c.record_batch(3, batch_ledger(10, 100.0, 5.0), Duration::from_micros(30));
        c.record_batch(1, batch_ledger(10, 300.0, 2.0), Duration::from_micros(10));
        c.record_rejection();
        c.record_swap();
        let s = c.snapshot();
        assert_eq!(s.requests_completed, 4);
        assert_eq!(s.requests_rejected, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.model_swaps, 1);
        assert_eq!(s.max_batch_size, 3);
        assert!((s.mean_batch_size - 2.0).abs() < 1e-12);
        // Latency samples: [100, 100, 100, 300] ns.
        assert_eq!(s.p50_latency, Latency::from_ns(100.0));
        assert_eq!(s.p99_latency, Latency::from_ns(300.0));
        assert_eq!(s.total_energy, Energy::from_pj(7.0));
        assert_eq!(s.macs, 20);
        assert!(s.edp > 0.0);
        assert!(s.to_string().contains("4 reqs"));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.requests_completed, 0);
        assert_eq!(s.p99_latency, Latency::from_ns(0.0));
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.throughput_rps(), 0.0);
    }

    /// Two per-replica collectors vs one collector fed the union of their
    /// batches: `merge` must reproduce the flat computation — percentiles
    /// from the pooled samples, not from the per-replica percentiles.
    #[test]
    fn merged_percentiles_pin_to_the_flat_sample_computation() {
        let a = StatsCollector::new();
        let b = StatsCollector::new();
        let flat = StatsCollector::new();
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
            if on_a {
                a.record_batch(size, ledger, wait);
            } else {
                b.record_batch(size, ledger, wait);
            }
            flat.record_batch(size, ledger, wait);
        }
        a.record_rejection();
        b.record_rejection();
        flat.record_rejection();
        flat.record_rejection();

        let merged = a.snapshot().merge(&b.snapshot());
        let want = flat.snapshot();
        assert_eq!(merged.requests_completed, want.requests_completed);
        assert_eq!(merged.requests_rejected, want.requests_rejected);
        assert_eq!(merged.batches, want.batches);
        assert_eq!(merged.max_batch_size, want.max_batch_size);
        assert!((merged.mean_batch_size - want.mean_batch_size).abs() < 1e-12);
        // The pinned part: pooled-sample percentiles, exactly.
        assert_eq!(merged.p50_latency, want.p50_latency);
        assert_eq!(merged.p99_latency, want.p99_latency);
        assert_eq!(merged.mean_latency, want.mean_latency);
        // Ledger sums and the re-derived EDP.
        assert_eq!(merged.total_energy, want.total_energy);
        assert_eq!(merged.simulated_busy, want.simulated_busy);
        assert_eq!(merged.edp, want.edp);
        assert_eq!(merged.macs, want.macs);
        assert_eq!(merged.pe_matvecs, want.pe_matvecs);
        // Sample multiset survives the merge (order is concatenation).
        let mut got = merged.latency_samples_ns.clone();
        let mut flat_samples = want.latency_samples_ns.clone();
        got.sort_by(f64::total_cmp);
        flat_samples.sort_by(f64::total_cmp);
        assert_eq!(got, flat_samples);
    }

    #[test]
    fn merge_with_empty_is_identity_and_sum_folds() {
        let c = StatsCollector::new();
        c.record_batch(2, batch_ledger(10, 50.0, 1.0), Duration::from_micros(5));
        let s = c.snapshot();
        let merged = RuntimeStats::empty().merge(&s);
        assert_eq!(merged.requests_completed, s.requests_completed);
        assert_eq!(merged.p50_latency, s.p50_latency);
        assert_eq!(merged.total_energy, s.total_energy);
        assert_eq!(merged.latency_samples_ns, s.latency_samples_ns);

        let summed: RuntimeStats = [s.clone(), s.clone(), s.clone()].iter().sum();
        assert_eq!(summed.requests_completed, 6);
        assert_eq!(summed.batches, 3);
        assert_eq!(summed.p99_latency, s.p99_latency, "identical replicas");
        let owned: RuntimeStats = vec![s.clone(), s].into_iter().sum();
        assert_eq!(owned.requests_completed, 4);
    }
}
