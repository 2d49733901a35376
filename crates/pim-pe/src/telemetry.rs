//! Live telemetry mirror of the [`PeStats`] ledger.
//!
//! [`PeTelemetry`] is a bundle of pre-registered counters that mirrors
//! every `PeStats` field into a [`TelemetryRegistry`], labelled by a
//! `source` (e.g. `serve` vs `learn`) so concurrent subsystems stay
//! distinguishable. Feeding it the same per-operation **deltas** the
//! ledgers accumulate makes read/write/leakage/compute energy observable
//! *mid-run* — and, because counter addition rounds exactly like the
//! ledgers' `+=` chains, a single-threaded recording order reproduces the
//! ledger totals bit-exactly.

use crate::stats::PeStats;
use pim_device::{Energy, EnergyLedger, Latency};
use pim_telemetry::{Counter, TelemetryRegistry};

/// Energy channel label values, in [`EnergyLedger`] field order
/// (leakage, read, write, compute).
///
/// [`EnergyLedger`]: pim_device::EnergyLedger
pub const ENERGY_CHANNELS: [&str; 4] = ["leakage", "read", "write", "compute"];

/// Metric family name of the per-channel energy counters.
pub const ENERGY_METRIC: &str = "pim_pe_energy_picojoules_total";

/// Pre-registered counters mirroring a [`PeStats`] stream.
///
/// Clones share the same counters, so handing a clone to every worker
/// replica of a model aggregates the whole pool into one series.
#[derive(Debug, Clone)]
pub struct PeTelemetry {
    energy: [Counter; 4],
    cycles: Counter,
    busy_ns: Counter,
    loads: Counter,
    matvecs: Counter,
    macs: Counter,
    write_bits: Counter,
    write_retries: Counter,
    write_faults: Counter,
}

impl PeTelemetry {
    /// Registers (or re-acquires) the PE counter families for `source`.
    pub fn register(registry: &TelemetryRegistry, source: &str) -> Self {
        Self::register_with(registry, source, &[])
    }

    /// Like [`register`](PeTelemetry::register), with `extra` label pairs
    /// appended after the `source` (and `channel`) labels — e.g.
    /// `("replica", "2")` so a cluster can attribute PE energy per node.
    /// Distinct label lists register distinct series; identical ones
    /// re-acquire the same cells (the registry's get-or-register rule).
    pub fn register_with(
        registry: &TelemetryRegistry,
        source: &str,
        extra: &[(&str, &str)],
    ) -> Self {
        let energy = ENERGY_CHANNELS.map(|channel| {
            let mut labels = vec![("source", source), ("channel", channel)];
            labels.extend_from_slice(extra);
            registry.counter_with(ENERGY_METRIC, "Simulated PE energy by channel", &labels)
        });
        let c = |name: &str, help: &str| {
            let mut labels = vec![("source", source)];
            labels.extend_from_slice(extra);
            registry.counter_with(name, help, &labels)
        };
        Self {
            energy,
            cycles: c("pim_pe_cycles_total", "Simulated PE clock cycles"),
            busy_ns: c("pim_pe_busy_nanoseconds_total", "Simulated PE busy time"),
            loads: c("pim_pe_loads_total", "Weight-tile loads"),
            matvecs: c("pim_pe_matvecs_total", "PE matvec operations"),
            macs: c("pim_pe_macs_total", "MAC operations executed"),
            write_bits: c("pim_pe_write_bits_total", "Device bits toggled by writes"),
            write_retries: c(
                "pim_pe_write_retries_total",
                "Write-verify retry pulses (stochastic MRAM)",
            ),
            write_faults: c(
                "pim_pe_write_faults_total",
                "Bits left corrupted after write-verify gave up",
            ),
        }
    }

    /// Folds one ledger **delta** (a per-operation or per-run `PeStats`,
    /// not a cumulative snapshot) into the counters.
    pub fn record(&self, delta: &PeStats) {
        self.energy[0].add(delta.energy.leakage.as_pj());
        self.energy[1].add(delta.energy.read.as_pj());
        self.energy[2].add(delta.energy.write.as_pj());
        self.energy[3].add(delta.energy.compute.as_pj());
        self.cycles.add(delta.cycles as f64);
        self.busy_ns.add(delta.busy_time.as_ns());
        self.loads.add(delta.loads as f64);
        self.matvecs.add(delta.matvecs as f64);
        self.macs.add(delta.macs as f64);
        self.write_bits.add(delta.write_bits as f64);
        self.write_retries.add(delta.write_retries as f64);
        self.write_faults.add(delta.write_faults as f64);
    }

    /// The ledger the counters hold: every recorded delta summed, field
    /// by field, in recording order — for a single recorder, bit-for-bit
    /// the `PeStats` a `+=` chain over the same deltas would give.
    pub fn totals(&self) -> PeStats {
        let [leakage, read, write, compute] = self.energy_pj();
        PeStats {
            cycles: self.cycles.value() as u64,
            busy_time: Latency::from_ns(self.busy_ns.value()),
            energy: EnergyLedger {
                leakage: Energy::from_pj(leakage),
                read: Energy::from_pj(read),
                write: Energy::from_pj(write),
                compute: Energy::from_pj(compute),
            },
            loads: self.loads.value() as u64,
            matvecs: self.matvecs.value() as u64,
            macs: self.macs.value() as u64,
            write_bits: self.write_bits.value() as u64,
            write_retries: self.write_retries.value() as u64,
            write_faults: self.write_faults.value() as u64,
        }
    }

    /// Current per-channel energy counter values, in
    /// [`ENERGY_CHANNELS`] order.
    pub fn energy_pj(&self) -> [f64; 4] {
        [
            self.energy[0].value(),
            self.energy[1].value(),
            self.energy[2].value(),
            self.energy[3].value(),
        ]
    }

    /// Sum of the energy channels, associated exactly like
    /// [`EnergyLedger::total`](pim_device::EnergyLedger::total)
    /// (leakage + read + write + compute, left to right).
    pub fn total_energy_pj(&self) -> f64 {
        let [leakage, read, write, compute] = self.energy_pj();
        leakage + read + write + compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(read_pj: f64, write_pj: f64, bits: u64) -> PeStats {
        let mut energy = EnergyLedger::new();
        energy.add_read(Energy::from_pj(read_pj));
        energy.add_write(Energy::from_pj(write_pj));
        PeStats {
            cycles: 7,
            busy_time: Latency::from_ns(3.0),
            energy,
            loads: 1,
            matvecs: 2,
            macs: 16,
            write_bits: bits,
            write_retries: 0,
            write_faults: 0,
        }
    }

    #[test]
    fn recorded_deltas_reproduce_the_ledger_bitwise() {
        let registry = TelemetryRegistry::new();
        let tel = PeTelemetry::register(&registry, "test");
        let mut ledger = PeStats::new();
        for i in 0..5 {
            let d = delta(0.1 * i as f64 + 0.01, 0.3, 8);
            tel.record(&d);
            ledger += d;
        }
        let [leakage, read, write, compute] = tel.energy_pj();
        assert_eq!(leakage.to_bits(), ledger.energy.leakage.as_pj().to_bits());
        assert_eq!(read.to_bits(), ledger.energy.read.as_pj().to_bits());
        assert_eq!(write.to_bits(), ledger.energy.write.as_pj().to_bits());
        assert_eq!(compute.to_bits(), ledger.energy.compute.as_pj().to_bits());
        assert_eq!(
            tel.total_energy_pj().to_bits(),
            ledger.total_energy().as_pj().to_bits(),
            "channel sum must associate like EnergyLedger::total"
        );
        assert_eq!(tel.totals(), ledger, "the counters are the ledger");
        let text = registry.render_prometheus();
        assert!(text.contains("pim_pe_write_bits_total{source=\"test\"} 40"));
        assert!(text.contains("channel=\"read\""));
    }

    #[test]
    fn extra_labels_register_distinct_series() {
        let registry = TelemetryRegistry::new();
        let r0 = PeTelemetry::register_with(&registry, "serve", &[("replica", "0")]);
        let r1 = PeTelemetry::register_with(&registry, "serve", &[("replica", "1")]);
        r0.record(&delta(1.0, 0.0, 0));
        r1.record(&delta(2.0, 0.0, 0));
        assert_eq!(r0.energy_pj()[1], 1.0);
        assert_eq!(r1.energy_pj()[1], 2.0);
        // Same labels re-acquire the same cells.
        let again = PeTelemetry::register_with(&registry, "serve", &[("replica", "0")]);
        assert_eq!(again.energy_pj()[1], 1.0);
        let text = registry.render_prometheus();
        assert!(text.contains("source=\"serve\""));
        assert!(text.contains("replica=\"1\""));
    }

    #[test]
    fn clones_share_counters_across_replicas() {
        let registry = TelemetryRegistry::new();
        let a = PeTelemetry::register(&registry, "pool");
        let b = a.clone();
        a.record(&delta(1.0, 0.0, 0));
        b.record(&delta(1.0, 0.0, 0));
        assert_eq!(a.energy_pj()[1], 2.0);
        // Re-registering the same source re-acquires the same cells.
        let c = PeTelemetry::register(&registry, "pool");
        assert_eq!(c.energy_pj()[1], 2.0);
    }
}
