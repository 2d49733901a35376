//! Shared latency-distribution summaries.
//!
//! Both the serving ledger ([`RuntimeStats`](crate::RuntimeStats)) and the
//! continual-learning ledger (`pim-learn`'s `LearnStats`) keep simulated
//! latencies in a fixed-bucket histogram, so their memory does not grow
//! with the number of samples. [`LatencySummary`] is the few-number view
//! of one such histogram — p50 / p95 / p99 / mean.
//!
//! # Percentile convention
//!
//! A percentile is the upper edge of the bucket holding the
//! **nearest-rank** sample (1-indexed rank `⌈p·n⌉`, clamped to
//! `[1, n]`). Adjacent bounds of [`latency_histogram`] are
//! [`SIM_LATENCY_BUCKET_FACTOR`](crate::telemetry::SIM_LATENCY_BUCKET_FACTOR)
//! (1.25×) apart, so a reported percentile over-states its sample by at
//! most one bucket, 1.25×. The sample count and the mean are exact.
//!
//! # Empty distributions
//!
//! An **empty** histogram has no sample to report, so every field —
//! p50, p95, p99, and mean — is defined to be exactly `0.0` ns (and
//! `samples == 0` flags that the zeros mean "no data", not "instant").
//! Callers render summaries before any traffic has arrived (e.g. a
//! runtime stats snapshot taken right after start-up), and an explicit
//! all-zero summary beats an `Option` at every call site.

use crate::telemetry::sim_latency_buckets;
use pim_device::Latency;
use pim_telemetry::{Histogram, HistogramSnapshot};
use std::fmt;

/// A fresh simulated-latency histogram, in ns: the bounds the serving
/// ledger uses, 1 ns up to about 110 s,
/// [`SIM_LATENCY_BUCKET_FACTOR`](crate::telemetry::SIM_LATENCY_BUCKET_FACTOR)
/// apart.
pub fn latency_histogram() -> Histogram {
    Histogram::new(&sim_latency_buckets())
}

/// p50 / p95 / p99 / mean of a set of simulated-latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// How many samples went into the summary.
    pub samples: u64,
    /// Median (bucket edge of the nearest-rank sample).
    pub p50: Latency,
    /// 95th percentile (bucket edge of the nearest-rank sample).
    pub p95: Latency,
    /// 99th percentile (bucket edge of the nearest-rank sample).
    pub p99: Latency,
    /// Arithmetic mean (exact).
    pub mean: Latency,
}

impl LatencySummary {
    /// The all-zero summary of an empty distribution.
    pub fn empty() -> Self {
        Self {
            samples: 0,
            p50: Latency::from_ns(0.0),
            p95: Latency::from_ns(0.0),
            p99: Latency::from_ns(0.0),
            mean: Latency::from_ns(0.0),
        }
    }

    /// Summarizes a snapshot of a nanosecond histogram (see the module
    /// docs for the percentile convention).
    pub fn from_histogram(ns: &HistogramSnapshot) -> Self {
        Self {
            samples: ns.count(),
            p50: Latency::from_ns(ns.quantile(0.50)),
            p95: Latency::from_ns(ns.quantile(0.95)),
            p99: Latency::from_ns(ns.quantile(0.99)),
            mean: Latency::from_ns(ns.mean()),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50 {} p95 {} p99 {} mean {}",
            self.p50, self.p95, self.p99, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::SIM_LATENCY_BUCKET_FACTOR;

    fn summary(samples: &[f64]) -> LatencySummary {
        let h = latency_histogram();
        for &ns in samples {
            h.observe(ns);
        }
        LatencySummary::from_histogram(&h.snapshot())
    }

    /// `reported` is the bucket edge at or above `sample`, at most one
    /// bucket (1.25×) over it.
    fn within_one_bucket(reported: Latency, sample: f64) -> bool {
        let r = reported.as_ns();
        r >= sample && r <= sample * SIM_LATENCY_BUCKET_FACTOR * (1.0 + 1e-12)
    }

    #[test]
    fn empty_summary_is_all_zero() {
        // The documented n = 0 convention: every percentile is exactly
        // 0.0 ns, not NaN, not a panic, not an Option.
        let s = summary(&[]);
        assert_eq!(s, LatencySummary::empty());
        assert_eq!(s.samples, 0);
        assert_eq!(s.p50, Latency::from_ns(0.0));
        assert_eq!(s.p95, Latency::from_ns(0.0));
        assert_eq!(s.p99, Latency::from_ns(0.0));
        assert_eq!(s.mean, Latency::from_ns(0.0));
    }

    #[test]
    fn summary_matches_hand_computed_percentiles() {
        // Unsorted on purpose.
        let s = summary(&[300.0, 100.0, 100.0, 100.0]);
        assert_eq!(s.samples, 4);
        assert!(within_one_bucket(s.p50, 100.0), "p50 {}", s.p50);
        assert!(within_one_bucket(s.p99, 300.0), "p99 {}", s.p99);
        assert_eq!(s.mean, Latency::from_ns(150.0));
        assert!(s.to_string().contains("p50"));
        assert!(s.to_string().contains("p95"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // ⌈0.50·5⌉ = 3 → 3 ns, ⌈0.99·5⌉ = 5 → 5 ns: a sample, not an
        // interpolation, reported at its bucket edge.
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(within_one_bucket(s.p50, 3.0), "p50 {}", s.p50);
        assert!(within_one_bucket(s.p99, 5.0), "p99 {}", s.p99);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = summary(&[42.0]);
        assert_eq!(s.samples, 1);
        for p in [s.p50, s.p95, s.p99] {
            assert!(within_one_bucket(p, 42.0), "{p} for a 42 ns sample");
        }
        assert_eq!(s.mean, Latency::from_ns(42.0));
    }

    #[test]
    fn two_samples_put_the_median_on_the_lower_one() {
        // Nearest-rank: rank ⌈0.5·2⌉ = 1 → the smaller sample's bucket,
        // not the larger one's or an interpolated midpoint.
        let s = summary(&[200.0, 100.0]);
        assert!(within_one_bucket(s.p50, 100.0), "p50 {}", s.p50);
        assert!(within_one_bucket(s.p95, 200.0), "p95 {}", s.p95);
        assert!(within_one_bucket(s.p99, 200.0), "p99 {}", s.p99);
        assert_eq!(s.mean, Latency::from_ns(150.0));
    }

    #[test]
    fn four_samples_pin_all_ranks() {
        let s = summary(&[40.0, 10.0, 30.0, 20.0]);
        // ⌈0.50·4⌉ = 2 → 20, ⌈0.95·4⌉ = 4 → 40, ⌈0.99·4⌉ = 4 → 40.
        assert!(within_one_bucket(s.p50, 20.0), "p50 {}", s.p50);
        assert!(within_one_bucket(s.p95, 40.0), "p95 {}", s.p95);
        assert!(within_one_bucket(s.p99, 40.0), "p99 {}", s.p99);
    }

    #[test]
    fn hundred_samples_hit_the_exact_ranks() {
        // 1..=100 shuffled deterministically; nearest-rank of p on n=100
        // is exactly the sample 100·p, reported at its bucket edge.
        let samples: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let s = summary(&samples);
        assert_eq!(s.samples, 100);
        assert!(within_one_bucket(s.p50, 50.0), "p50 {}", s.p50);
        assert!(within_one_bucket(s.p95, 95.0), "p95 {}", s.p95);
        assert!(within_one_bucket(s.p99, 99.0), "p99 {}", s.p99);
        assert_eq!(s.mean, Latency::from_ns(50.5));
    }
}
