//! Small numeric and process helpers shared by the workloads.

use std::time::{Duration, Instant};

/// Milliseconds in `d`, with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-quantile (0..=1) of `values`, linearly interpolated between
/// the two nearest order statistics; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Consecutive slices a run's operations are cut into.
pub const SLICES: usize = 40;

/// A slice counts as quiet while the hypervisor took at most this share
/// of the guest's CPU time (the `steal` column of `/proc/stat`).
pub const QUIET_STEAL: f64 = 0.02;

/// Timing metrics always rest on at least this many slices: when fewer
/// are quiet, the least-stolen ones are used.
pub const MIN_QUIET: usize = SLICES / 8;

/// Guest CPU time as `(steal, total)` ticks, summed over all CPUs.
///
/// # Panics
///
/// Panics when `/proc/stat` is unreadable: the benchmark runs on Linux.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .map(|v| v.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// The run's operations cut into [`SLICES`] consecutive slices, with the
/// host's CPU steal read at every slice boundary.
///
/// Timing metrics are computed per slice and the median over the quiet
/// slices is reported. A host stall lands in one slice instead of moving
/// the whole figure, and time the hypervisor gave to other guests — a
/// shared host's main source of run-to-run spread — is left out. The
/// work done never depends on it.
pub struct Slices {
    ops: usize,
    per: usize,
    marks: Vec<(u64, u64)>,
}

impl Slices {
    pub fn new(ops: usize) -> Self {
        Self {
            ops,
            per: ops.div_ceil(SLICES).max(1),
            marks: Vec::with_capacity(SLICES + 1),
        }
    }

    /// Call before operation `i`, and once more with `i == ops` after the
    /// last one; reads `/proc/stat` at slice boundaries only.
    pub fn at(&mut self, i: usize) {
        if i.is_multiple_of(self.per) || i == self.ops {
            self.marks.push(cpu_ticks());
        }
    }

    fn steal(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| steal_share(w[0], w[1]))
            .collect()
    }

    /// Share of CPU time stolen over the whole measured phase.
    pub fn run_steal(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(&a), Some(&b)) => steal_share(a, b),
            _ => 0.0,
        }
    }

    /// Indices of the slices the metrics rest on.
    fn quiet(&self) -> Vec<usize> {
        let steal = self.steal();
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        let quiet = steal.iter().filter(|&&s| s <= QUIET_STEAL).count();
        order.truncate(quiet.max(MIN_QUIET).min(steal.len()));
        order.sort_unstable();
        order
    }

    /// Whether operation `i` lies in a quiet slice.
    pub fn is_quiet(&self, i: usize) -> bool {
        self.quiet().binary_search(&(i / self.per)).is_ok()
    }

    /// The median over the quiet slices of `per_slice(ops of the slice)`.
    pub fn median(&self, per_slice: impl Fn(std::ops::Range<usize>) -> f64) -> f64 {
        let each: Vec<f64> = self
            .quiet()
            .into_iter()
            .map(|k| per_slice(k * self.per..((k + 1) * self.per).min(self.ops)))
            .collect();
        median(&each)
    }

    /// Number of quiet slices, for the run's log line.
    pub fn quiet_count(&self) -> usize {
        self.steal().iter().filter(|&&s| s <= QUIET_STEAL).count()
    }
}

/// Builds the workload's state anew `times` times, dropping each
/// before the next is built, and returns the last one together with the
/// median wall time in seconds of one set-up, over the set-ups with the
/// least host steal (the quiet ones, and at least half of them).
pub fn repeated_setup<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut runs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let ticks = cpu_ticks();
        let started = Instant::now();
        let built = build();
        let seconds = started.elapsed().as_secs_f64();
        runs.push((steal_share(ticks, cpu_ticks()), seconds));
        last = Some(built);
    }
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = runs.iter().filter(|r| r.0 <= QUIET_STEAL).count();
    runs.truncate(quiet.max(runs.len().div_ceil(2)));
    let seconds: Vec<f64> = runs.iter().map(|r| r.1).collect();
    (last.expect("at least one set-up"), median(&seconds))
}

/// Peak resident memory of this process (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable: the benchmark runs on
/// Linux only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// SplitMix64: the benchmark's own seeded generator for schedules, so the
/// schedule depends on nothing but `--seed`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Bitwise equality of two logit slices (`-0.0 != 0.0`, NaN == same NaN).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
