//! The learning ledger: training progress, write-back costs, budget use.

use pim_core::experiments::{live_fig8, Fig8};
use pim_device::{edp, Energy, Latency};
use pim_pe::PeStats;
use pim_runtime::metrics::{latency_histogram, LatencySummary};
use pim_telemetry::Histogram;
use std::fmt;

/// Accumulator the [`LearnEngine`](crate::LearnEngine) writes into. Its
/// size is fixed: however many steps and publishes it folds in, it keeps
/// sums and one bucketed latency histogram, never per-event samples.
#[derive(Debug)]
pub struct LearnStats {
    steps: u64,
    samples_trained: u64,
    loss_sum: f64,
    correct: u64,
    publishes: u64,
    /// Summed PE ledger deltas of every differential SRAM write-back.
    sram: PeStats,
    /// Bits written into the MRAM backbone. Always zero: the hybrid
    /// engine has no path that writes the backbone, and the report carries
    /// the figure so the contract shows in it.
    mram_write_bits: u64,
    /// Simulated latency of each write-back (ns), bucketed.
    publish_latency_ns: Histogram,
    /// Lifetime adaptor budget, copied from the policy at engine build.
    budget_bits: f64,
}

impl LearnStats {
    /// A zeroed ledger with the given adaptor write budget.
    pub fn new(budget_bits: f64) -> Self {
        Self {
            steps: 0,
            samples_trained: 0,
            loss_sum: 0.0,
            correct: 0,
            publishes: 0,
            sram: PeStats::new(),
            mram_write_bits: 0,
            publish_latency_ns: latency_histogram(),
            budget_bits,
        }
    }

    /// Folds one training step in.
    pub fn record_step(&mut self, stats: &pim_nn::train::StepStats) {
        self.steps += 1;
        self.samples_trained += stats.batch as u64;
        self.loss_sum += f64::from(stats.loss) * stats.batch as f64;
        self.correct += stats.correct as u64;
    }

    /// Folds one differential SRAM write-back (PE ledger delta) in.
    pub fn record_publish(&mut self, delta: &PeStats) {
        self.publishes += 1;
        self.sram += *delta;
        self.publish_latency_ns.observe(delta.busy_time.as_ns());
    }

    /// SRAM adaptor cell-writes spent so far (the budget meter).
    pub fn sram_write_bits(&self) -> u64 {
        self.sram.write_bits
    }

    /// Model versions published so far.
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Fraction of the adaptor write budget spent so far — what
    /// [`LearnReport::budget_used`] reports, without building a report.
    pub fn budget_used(&self) -> f64 {
        budget_fraction(self.sram.write_bits, self.budget_bits)
    }

    /// Point-in-time report.
    pub fn report(&self) -> LearnReport {
        LearnReport {
            steps: self.steps,
            samples_trained: self.samples_trained,
            publishes: self.publishes,
            mean_loss: if self.samples_trained == 0 {
                0.0
            } else {
                self.loss_sum / self.samples_trained as f64
            },
            train_accuracy: if self.samples_trained == 0 {
                0.0
            } else {
                self.correct as f64 / self.samples_trained as f64
            },
            sram_write_bits: self.sram.write_bits,
            mram_write_bits: self.mram_write_bits,
            write_energy: self.sram.energy.write,
            write_busy: self.sram.busy_time,
            write_cycles: self.sram.cycles,
            publish_latency: LatencySummary::from_histogram(&self.publish_latency_ns.snapshot()),
            budget_bits: self.budget_bits,
        }
    }
}

/// `bits / budget`, or 0 for an infinite or non-positive budget.
fn budget_fraction(bits: u64, budget: f64) -> f64 {
    if budget.is_infinite() || budget <= 0.0 {
        0.0
    } else {
        bits as f64 / budget
    }
}

/// Point-in-time view of a continual-learning run: training progress plus
/// the write-back bill the hybrid design exists to minimize.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnReport {
    /// Incremental training steps taken.
    pub steps: u64,
    /// Samples trained on (steps × batch).
    pub samples_trained: u64,
    /// Model versions published (differential write-backs performed).
    pub publishes: u64,
    /// Sample-weighted mean training loss.
    pub mean_loss: f64,
    /// Running training accuracy.
    pub train_accuracy: f64,
    /// SRAM adaptor cell-writes across all write-backs.
    pub sram_write_bits: u64,
    /// MRAM backbone cell-writes — zero under the hybrid contract.
    pub mram_write_bits: u64,
    /// Total write energy of all write-backs.
    pub write_energy: Energy,
    /// Total simulated write-back time.
    pub write_busy: Latency,
    /// Total write-back PE cycles.
    pub write_cycles: u64,
    /// Distribution of per-publish write-back latencies. The count and
    /// mean are exact; p50/p95/p99 over-state the nearest-rank sample by
    /// at most one histogram bucket, 1.25× (see
    /// [`pim_runtime::metrics`]).
    pub publish_latency: LatencySummary,
    /// Lifetime adaptor write budget (cell-writes; infinite for SRAM).
    pub budget_bits: f64,
}

impl LearnReport {
    /// Fraction of the adaptor write budget spent (0 when infinite).
    pub fn budget_used(&self) -> f64 {
        budget_fraction(self.sram_write_bits, self.budget_bits)
    }

    /// Whether the run stayed inside the adaptor write budget.
    pub fn within_budget(&self) -> bool {
        (self.sram_write_bits as f64) <= self.budget_bits
    }

    /// Measured energy-delay product of all write-backs (pJ·ns).
    pub fn update_edp(&self) -> f64 {
        edp(self.write_energy, self.write_busy)
    }

    /// A live Figure-8-style comparison: this run's measured hybrid
    /// write-back EDP against a modelled finetune-all deployment's
    /// (`finetune_all_edp`, e.g. from
    /// [`LearnEngine::finetune_all_edp`](crate::LearnEngine::finetune_all_edp)).
    /// Returns `None` before the first publish (no measured EDP yet).
    pub fn live_fig8(&self, label: &str, finetune_all_edp: f64) -> Option<Fig8> {
        let hybrid = self.update_edp();
        if hybrid <= 0.0 {
            return None;
        }
        Some(live_fig8(label, hybrid, finetune_all_edp))
    }
}

impl fmt::Display for LearnReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps ({} samples, mean loss {:.4}, acc {:.1}%), {} publishes; \
             writes: SRAM {} bits / MRAM {} bits, {} in {} ({} cycles), \
             publish latency {}, budget used {:.2}%",
            self.steps,
            self.samples_trained,
            self.mean_loss,
            100.0 * self.train_accuracy,
            self.publishes,
            self.sram_write_bits,
            self.mram_write_bits,
            self.write_energy,
            self.write_busy,
            self.write_cycles,
            self.publish_latency,
            100.0 * self.budget_used()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_device::EnergyLedger;
    use pim_nn::train::StepStats;

    fn write_delta(bits: u64, pj: f64, ns: f64) -> PeStats {
        let mut energy = EnergyLedger::new();
        energy.add_write(Energy::from_pj(pj));
        PeStats {
            cycles: 4,
            busy_time: Latency::from_ns(ns),
            energy,
            loads: 1,
            matvecs: 0,
            macs: 0,
            write_bits: bits,
            write_retries: 0,
            write_faults: 0,
        }
    }

    #[test]
    fn ledger_accumulates_steps_and_publishes() {
        let mut stats = LearnStats::new(1000.0);
        stats.record_step(&StepStats {
            loss: 2.0,
            correct: 2,
            batch: 4,
        });
        stats.record_step(&StepStats {
            loss: 1.0,
            correct: 3,
            batch: 4,
        });
        stats.record_publish(&write_delta(100, 5.0, 20.0));
        stats.record_publish(&write_delta(300, 15.0, 60.0));
        let r = stats.report();
        assert_eq!(r.steps, 2);
        assert_eq!(r.samples_trained, 8);
        assert!((r.mean_loss - 1.5).abs() < 1e-12);
        assert!((r.train_accuracy - 0.625).abs() < 1e-12);
        assert_eq!(r.publishes, 2);
        assert_eq!(r.sram_write_bits, 400);
        assert_eq!(r.mram_write_bits, 0);
        assert_eq!(r.write_energy, Energy::from_pj(20.0));
        assert_eq!(r.publish_latency.samples, 2);
        assert!((r.budget_used() - 0.4).abs() < 1e-12);
        assert!(r.within_budget());
        assert!(r.update_edp() > 0.0);
        assert!(r.to_string().contains("2 publishes"));
    }

    #[test]
    fn direct_reads_match_the_report() {
        let mut stats = LearnStats::new(1000.0);
        stats.record_publish(&write_delta(100, 5.0, 20.0));
        stats.record_publish(&write_delta(250, 15.0, 60.0));
        let r = stats.report();
        assert_eq!(stats.publishes(), r.publishes);
        assert_eq!(stats.sram_write_bits(), r.sram_write_bits);
        assert_eq!(stats.budget_used().to_bits(), r.budget_used().to_bits());
        let unbounded = LearnStats::new(f64::INFINITY);
        assert_eq!(unbounded.budget_used(), unbounded.report().budget_used());
    }

    #[test]
    fn publish_ledger_stays_bounded_over_a_million_publishes() {
        const PUBLISHES: u64 = 1_000_000;
        let mut stats = LearnStats::new(f64::INFINITY);
        let mut ledger = PeStats::new();
        let mut ns_sum = 0.0;
        let buckets = |s: &LearnStats| s.publish_latency_ns.snapshot().bucket_counts().len();
        let mut after_ten = 0;
        for i in 0..PUBLISHES {
            let ns = 20.0 + (i % 50) as f64;
            let delta = write_delta(3, 0.5, ns);
            stats.record_publish(&delta);
            ledger += delta;
            ns_sum += ns;
            if i == 9 {
                after_ten = buckets(&stats);
            }
        }
        assert_eq!(buckets(&stats), after_ten);
        let r = stats.report();
        assert_eq!(r.publishes, PUBLISHES);
        assert_eq!(r.sram_write_bits, 3 * PUBLISHES);
        assert_eq!(r.write_busy, ledger.busy_time);
        assert_eq!(r.publish_latency.samples, PUBLISHES);
        assert_eq!(
            r.publish_latency.mean.as_ns().to_bits(),
            (ns_sum / PUBLISHES as f64).to_bits()
        );
        // Samples span 20..=69 ns: the median is the nearest-rank 44 ns
        // sample at its bucket edge, at most 1.25x over it.
        let p50 = r.publish_latency.p50.as_ns();
        assert!((44.0..=44.0 * 1.25).contains(&p50), "p50 {p50}");
        let p99 = r.publish_latency.p99.as_ns();
        assert!((69.0..=69.0 * 1.25).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn budget_overrun_is_visible() {
        let mut stats = LearnStats::new(50.0);
        stats.record_publish(&write_delta(100, 1.0, 1.0));
        let r = stats.report();
        assert!(!r.within_budget());
        assert!(r.budget_used() > 1.0);
    }

    #[test]
    fn fig8_needs_a_measured_publish() {
        let empty = LearnStats::new(f64::INFINITY).report();
        assert!(empty.live_fig8("1:4", 1.0e9).is_none());

        let mut stats = LearnStats::new(f64::INFINITY);
        stats.record_publish(&write_delta(10, 2.0, 5.0));
        let fig = stats.report().live_fig8("1:4", 1.0e6).expect("measured");
        assert!((fig.bar("Ours 1:4").unwrap() - 1.0).abs() < 1e-12);
        assert!(fig.bar("finetune-all").unwrap() > 1.0);
    }
}
