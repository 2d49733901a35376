//! The pressure signal: one scalar per governor tick, folded from the
//! telemetry the serving stack already emits.

use pim_telemetry::{HistogramSnapshot, TelemetryRegistry};

/// One tick's pressure reading, decomposed so reports can say *why* the
/// ladder moved. Every component is normalized to "1.0 = at the limit";
/// [`score`](Self::score) folds them with `max` (the most-stressed
/// dimension governs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureSample {
    /// Fleet queue occupancy: queued requests / total queue capacity.
    pub queue_frac: f64,
    /// Admission rejections this window / submissions this window.
    pub reject_frac: f64,
    /// Windowed p99 of the queue stage / the tightest high-priority
    /// latency SLO (0 when there is no high-priority tenant or no queue
    /// histogram in the registry).
    pub latency_ratio: f64,
}

impl PressureSample {
    /// A zero-pressure sample.
    pub fn idle() -> Self {
        Self {
            queue_frac: 0.0,
            reject_frac: 0.0,
            latency_ratio: 0.0,
        }
    }

    /// A sample carrying only a pre-folded score (tests, synthetic
    /// schedules): the whole value lands in `queue_frac`.
    pub fn from_score(score: f64) -> Self {
        Self {
            queue_frac: score,
            reject_frac: 0.0,
            latency_ratio: 0.0,
        }
    }

    /// The folded scalar the ladder compares against its watermarks.
    pub fn score(&self) -> f64 {
        self.queue_frac
            .max(self.reject_frac)
            .max(self.latency_ratio)
    }
}

/// Samples pressure from live telemetry, windowing cumulative series by
/// keeping the previous tick's snapshots.
///
/// Sources, all already emitted by the stack:
/// * `pim_cluster_replica_queue_depth{replica}` gauges (occupancy),
/// * the cluster admission ledger (windowed rejection fraction),
/// * `pim_runtime_stage_seconds{stage="queue",replica}` histograms
///   (windowed p99 queue wait vs. the tightest high-priority SLO).
#[derive(Debug, Default)]
pub struct PressureSampler {
    /// Previous tick's `(submitted, rejected)` cluster counts.
    prev_admission: Option<(u64, u64)>,
    /// Previous tick's queue-stage snapshot per replica label.
    prev_queue_stage: Vec<Option<HistogramSnapshot>>,
}

impl PressureSampler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample. `queue_depths`/`queue_capacity` come from the
    /// cluster, `(submitted, rejected)` from its admission ledger, and
    /// `hi_prio_p99_slo_s` is the tightest high-priority latency ceiling
    /// in seconds (`None` disables the latency component).
    pub fn sample(
        &mut self,
        registry: &TelemetryRegistry,
        queue_depths: &[usize],
        queue_capacity: usize,
        admission: (u64, u64),
        hi_prio_p99_slo_s: Option<f64>,
    ) -> PressureSample {
        let total_cap = queue_capacity.saturating_mul(queue_depths.len().max(1));
        let queued: usize = queue_depths.iter().sum();
        let queue_frac = if total_cap == 0 {
            0.0
        } else {
            queued as f64 / total_cap as f64
        };

        let (submitted, rejected) = admission;
        let reject_frac = match self.prev_admission.replace((submitted, rejected)) {
            Some((ps, pr)) => {
                let ds = submitted.saturating_sub(ps);
                let dr = rejected.saturating_sub(pr);
                if ds == 0 {
                    0.0
                } else {
                    dr as f64 / ds as f64
                }
            }
            None => 0.0,
        };

        let latency_ratio = match hi_prio_p99_slo_s {
            Some(slo_s) if slo_s > 0.0 => {
                self.windowed_queue_p99(registry, queue_depths.len()) / slo_s
            }
            _ => 0.0,
        };

        PressureSample {
            queue_frac,
            reject_frac,
            latency_ratio,
        }
    }

    /// Windowed (since last tick) p99 of the queue stage, worst replica.
    fn windowed_queue_p99(&mut self, registry: &TelemetryRegistry, replicas: usize) -> f64 {
        self.prev_queue_stage.resize_with(replicas, || None);
        let mut worst = 0.0f64;
        for (i, prev) in self.prev_queue_stage.iter_mut().enumerate() {
            let replica = i.to_string();
            let Some(hist) = registry.find_histogram(
                "pim_runtime_stage_seconds",
                &[("stage", "queue"), ("replica", replica.as_str())],
            ) else {
                continue;
            };
            let now = hist.snapshot();
            let window = match prev.as_ref() {
                Some(earlier) => now.since(earlier),
                None => now.clone(),
            };
            if window.count() > 0 {
                worst = worst.max(window.quantile(0.99));
            }
            *prev = Some(now);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_takes_the_worst_component() {
        let s = PressureSample {
            queue_frac: 0.2,
            reject_frac: 0.9,
            latency_ratio: 0.4,
        };
        assert_eq!(s.score(), 0.9);
        assert_eq!(PressureSample::idle().score(), 0.0);
        assert_eq!(PressureSample::from_score(0.7).score(), 0.7);
    }

    #[test]
    fn sampler_windows_the_rejection_fraction() {
        let registry = TelemetryRegistry::new();
        let mut sampler = PressureSampler::new();
        // First tick: no previous window, rejections don't register yet.
        let s0 = sampler.sample(&registry, &[0, 0], 10, (100, 50), None);
        assert_eq!(s0.reject_frac, 0.0);
        // 100 more submitted, 25 more rejected since last tick.
        let s1 = sampler.sample(&registry, &[0, 0], 10, (200, 75), None);
        assert!((s1.reject_frac - 0.25).abs() < 1e-12);
        // Quiet window: no new submissions, no pressure.
        let s2 = sampler.sample(&registry, &[0, 0], 10, (200, 75), None);
        assert_eq!(s2.reject_frac, 0.0);
    }

    #[test]
    fn sampler_normalizes_queue_occupancy() {
        let registry = TelemetryRegistry::new();
        let mut sampler = PressureSampler::new();
        let s = sampler.sample(&registry, &[4, 6], 10, (0, 0), None);
        assert!((s.queue_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_component_reads_the_stage_histogram_windowed() {
        let registry = TelemetryRegistry::new();
        let hist = registry.histogram_with(
            "pim_runtime_stage_seconds",
            "queue stage",
            &[0.001, 0.01, 0.1, 1.0],
            &[("stage", "queue"), ("replica", "0")],
        );
        let mut sampler = PressureSampler::new();
        hist.observe(0.05);
        let s0 = sampler.sample(&registry, &[0], 10, (0, 0), Some(0.1));
        // First tick reads the cumulative histogram: p99 bucket bound 0.1s
        // against a 0.1s SLO.
        assert!((s0.latency_ratio - 1.0).abs() < 1e-12);
        // Quiet window: zero samples, zero latency pressure.
        let s1 = sampler.sample(&registry, &[0], 10, (0, 0), Some(0.1));
        assert_eq!(s1.latency_ratio, 0.0);
        // A slow window spikes the component past 1.
        hist.observe(0.5);
        let s2 = sampler.sample(&registry, &[0], 10, (0, 0), Some(0.1));
        assert!(s2.latency_ratio > 1.0);
    }
}
