//! The lock-cheap metrics registry and its Prometheus text exposition.
//!
//! Registration (naming a metric, choosing histogram buckets) is rare and
//! takes the registry mutex; updates are atomic operations on cloned
//! handles and never touch the registry again. Handles are `Clone` and
//! cheap to pass around — clones share the same underlying cells, so a
//! worker pool incrementing a cloned [`Counter`] is incrementing *the*
//! counter.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An atomic `f64` cell (bit-pattern CAS on an `AtomicU64`).
#[derive(Debug, Default)]
struct Cell(AtomicU64);

impl Cell {
    fn add(&self, v: f64) {
        self.update(|now| Some(now + v));
    }

    fn raise(&self, v: f64) {
        self.update(|now| (v > now).then_some(v));
    }

    /// Compare-and-swap loop: replaces the value with `f(value)` until it
    /// lands uncontended, or leaves it alone when `f` answers `None`.
    fn update(&self, f: impl Fn(f64) -> Option<f64>) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                f(f64::from_bits(bits)).map(f64::to_bits)
            });
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A monotonically increasing metric (requests served, picojoules spent).
///
/// Backed by an `f64` so energy and other fractional totals accumulate
/// with the exact rounding of the simulator ledgers' `+=` chains;
/// integer counts are exact up to 2^53.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<Cell>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Adds `v` (must be non-negative — counters are monotonic).
    pub fn add(&self, v: f64) {
        debug_assert!(v >= 0.0, "counter decremented by {v}");
        self.cell.add(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// A metric that can move both ways (queue depth, budget fraction).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<Cell>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.cell.set(v);
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: f64) {
        self.cell.add(v);
    }

    /// Raises the gauge to `v` if `v` is larger (a running maximum; CAS
    /// like [`Counter::add`], so concurrent raises never lose the max).
    pub fn raise(&self, v: f64) {
        self.cell.raise(v);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.cell.get()
    }
}

/// A fixed-bucket histogram (bucket bounds chosen at registration).
///
/// Observation cost is a linear scan of the bounds (histograms here have
/// ~a dozen buckets) plus three atomic updates. There is no per-sample
/// allocation and no lock.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds, strictly ascending. The implicit `+Inf`
    /// bucket lives at `counts[bounds.len()]`.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum: Cell,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram outside any registry. Panics unless `bounds` is
    /// non-empty, finite and strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending: {bounds:?}"
        );
        Self {
            inner: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: Cell::default(),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` samples of the same value `v` (e.g. every rider of a
    /// batch charged the batch's latency) with one update per cell.
    pub fn observe_n(&self, v: f64, n: u64) {
        let core = &*self.inner;
        let idx = core.bounds.partition_point(|&b| b < v);
        core.counts[idx].fetch_add(n, Ordering::Relaxed);
        core.sum.add(v * n as f64);
        core.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed samples.
    pub fn sum(&self) -> f64 {
        self.inner.sum.get()
    }

    /// Mean sample (0 when empty) — see [`HistogramSnapshot::mean`].
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }

    /// Upper bound of the bucket containing the `q`-quantile — see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// Per-bucket counts (finite buckets then the `+Inf` bucket), for
    /// rendering.
    fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// A point-in-time copy of the cumulative state. Two snapshots of the
    /// same histogram can be differenced ([`HistogramSnapshot::since`]) to
    /// recover the distribution of *just the window between them* — the
    /// read side a pressure sampler needs from a forever-cumulative
    /// histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self.bucket_counts(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s cumulative buckets.
///
/// Supports the same bucketed [`quantile`](Self::quantile) estimate as the
/// live histogram, plus windowing: `later.since(&earlier)` is the
/// distribution of the samples observed between the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds; the `+Inf` bucket is `counts[bounds.len()]`.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl HistogramSnapshot {
    /// Total samples in the snapshot (window).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples in the snapshot (window).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts: the finite buckets in bound order, then `+Inf`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`): the nearest-rank sample's bucket edge, so it over-states
    /// that sample by at most the ratio between adjacent bounds. Samples
    /// past the last finite bound report that bound. Returns 0 when the
    /// snapshot is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let last = self.bounds.len() - 1;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return self.bounds[i.min(last)];
            }
        }
        self.bounds[last]
    }

    /// The window between `earlier` and `self`: bucket-wise saturating
    /// difference (both snapshots must come from the same histogram, so
    /// counts only ever grow; saturation guards a mismatched pair instead
    /// of panicking).
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bucket bounds — they
    /// cannot be from the same histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.zip(earlier, "differenced", u64::saturating_sub),
            sum: (self.sum - earlier.sum).max(0.0),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// The distribution of both snapshots' samples together: bucket-wise
    /// sums. Bucket counts merge exactly, so a roll-up of per-replica
    /// snapshots reports the same quantiles as one histogram fed every
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different bucket bounds.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.zip(other, "merged", |a, b| a + b),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Bucket-wise `f` of two snapshots with the same bounds.
    fn zip(&self, other: &HistogramSnapshot, verb: &str, f: fn(u64, u64) -> u64) -> Vec<u64> {
        assert_eq!(
            self.bounds, other.bounds,
            "snapshots of different histograms cannot be {verb}"
        );
        let pairs = self.counts.iter().zip(&other.counts);
        pairs.map(|(a, b)| f(*a, *b)).collect()
    }
}

/// `count` exponentially spaced histogram bounds starting at `start`
/// (factor `factor` apart) — the usual shape for latency buckets.
///
/// # Panics
///
/// Panics unless `start > 0`, `factor > 1`, and `count >= 1`.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count >= 1, "bad bucket spec");
    (0..count).map(|i| start * factor.powi(i as i32)).collect()
}

/// What kind of metric a registry entry is.
#[derive(Debug, Clone)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter(Counter),
    /// Up/down gauge.
    Gauge(Gauge),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: MetricKind,
}

/// The metric registry: named families of counters, gauges, and
/// histograms, each family optionally split by labels.
///
/// Registration is **get-or-register**: asking for the same
/// `(name, labels)` twice returns a handle to the same cells, so an
/// instrumented subsystem and a dashboard (or test) can both "register"
/// the metric and observe one value. Asking for an existing
/// `(name, labels)` with a *different* metric kind panics — that is a
/// programming error, not a runtime condition.
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-register an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get-or-register a labelled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_register(name, help, labels, || {
            MetricKind::Counter(Counter::default())
        }) {
            MetricKind::Counter(c) => c,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-register an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-register a labelled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_register(name, help, labels, || MetricKind::Gauge(Gauge::default())) {
            MetricKind::Gauge(g) => g,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Get-or-register an unlabelled histogram with the given finite
    /// bucket bounds (strictly ascending; `+Inf` is implicit). On
    /// get-or-register hits the *existing* buckets win.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get-or-register a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.get_or_register(name, help, labels, || {
            MetricKind::Histogram(Histogram::new(bounds))
        }) {
            MetricKind::Histogram(h) => h,
            other => panic!("{name} is registered as a {}", other.type_name()),
        }
    }

    /// Registers a labelled gauge only if `(name, labels)` is not
    /// registered yet, atomically under the registry lock: `None` when
    /// the series already exists. How a component claims a series no
    /// other instance on the same registry may share.
    pub fn claim_gauge_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Option<Gauge> {
        match self.entry(name, help, labels, || MetricKind::Gauge(Gauge::default())) {
            (MetricKind::Gauge(g), true) => Some(g),
            _ => None,
        }
    }

    fn get_or_register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        build: impl FnOnce() -> MetricKind,
    ) -> MetricKind {
        self.entry(name, help, labels, build).0
    }

    /// The metric registered under `(name, labels)`, registered from
    /// `build` when absent; `true` when this call registered it.
    fn entry(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        build: impl FnOnce() -> MetricKind,
    ) -> (MetricKind, bool) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_label_name(k)),
            "invalid label name in {labels:?}"
        );
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
        {
            return (e.metric.clone(), false);
        }
        let metric = build();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        (metric, true)
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<MetricKind> {
        let entries = self.entries.lock().expect("registry lock");
        entries
            .iter()
            .find(|e| e.name == name && label_eq(&e.labels, labels))
            .map(|e| e.metric.clone())
    }

    /// Read-side lookup: the counter registered under `(name, labels)`,
    /// or `None` — unlike [`counter_with`](Self::counter_with) this never
    /// creates a series, so samplers (a governor reading pressure, a
    /// dashboard) can probe for families that may not exist without
    /// polluting the registry.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        match self.find(name, labels) {
            Some(MetricKind::Counter(c)) => Some(c),
            _ => None,
        }
    }

    /// Read-side lookup of a gauge; `None` if absent or a different kind.
    pub fn find_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<Gauge> {
        match self.find(name, labels) {
            Some(MetricKind::Gauge(g)) => Some(g),
            _ => None,
        }
    }

    /// Read-side lookup of a histogram; `None` if absent or a different
    /// kind.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        match self.find(name, labels) {
            Some(MetricKind::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every series of a scalar family (counters and gauges), as
    /// `(labels, current value)` in registration order. Histogram series
    /// are skipped — read those via [`find_histogram`](Self::find_histogram)
    /// and [`Histogram::snapshot`]. The family-wide view a pressure
    /// sampler folds (e.g. max queue depth across `replica="<i>"` series).
    pub fn family_values(&self, name: &str) -> Vec<(Vec<(String, String)>, f64)> {
        let entries = self.entries.lock().expect("registry lock");
        entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.metric {
                MetricKind::Counter(c) => Some((e.labels.clone(), c.value())),
                MetricKind::Gauge(g) => Some((e.labels.clone(), g.value())),
                MetricKind::Histogram(_) => None,
            })
            .collect()
    }

    /// Every registered family name, in registration order, deduplicated.
    pub fn metric_names(&self) -> Vec<String> {
        let entries = self.entries.lock().expect("registry lock");
        let mut names: Vec<String> = Vec::new();
        for e in entries.iter() {
            if names.last() != Some(&e.name) && !names.contains(&e.name) {
                names.push(e.name.clone());
            }
        }
        names
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` once per family, histograms as cumulative
    /// `_bucket{le=...}` series plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry lock");
        let mut out = String::new();
        let mut rendered: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if rendered.contains(&e.name.as_str()) {
                continue;
            }
            rendered.push(&e.name);
            let _ = writeln!(out, "# HELP {} {}", e.name, escape_help(&e.help));
            let _ = writeln!(out, "# TYPE {} {}", e.name, e.metric.type_name());
            for member in entries.iter().filter(|m| m.name == e.name) {
                render_entry(&mut out, member);
            }
        }
        out
    }
}

fn render_entry(out: &mut String, e: &Entry) {
    match &e.metric {
        MetricKind::Counter(c) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                e.name,
                label_set(&e.labels, None),
                c.value()
            );
        }
        MetricKind::Gauge(g) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                e.name,
                label_set(&e.labels, None),
                g.value()
            );
        }
        MetricKind::Histogram(h) => {
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cumulative += c;
                let le = match h.inner.bounds.get(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    e.name,
                    label_set(&e.labels, Some(&le)),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                e.name,
                label_set(&e.labels, None),
                h.sum()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                e.name,
                label_set(&e.labels, None),
                h.count()
            );
        }
    }
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            s.push(',');
        }
        let _ = write!(s, "le=\"{le}\"");
    }
    s.push('}');
    s
}

fn label_eq(a: &[(String, String)], b: &[(&str, &str)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_shared_across_clones() {
        let r = TelemetryRegistry::new();
        let a = r.counter("reqs_total", "requests");
        let b = a.clone();
        a.inc();
        b.add(2.0);
        assert_eq!(a.value(), 3.0);
        assert_eq!(r.counter("reqs_total", "requests").value(), 3.0);
    }

    #[test]
    fn counter_addition_matches_sequential_f64_sums_bitwise() {
        // The bit-exact-ledger contract: single-threaded CAS adds round
        // exactly like a += chain.
        let c = Counter::default();
        let samples = [0.1, 0.7, 1e-9, 123.456, 0.3333333];
        let mut reference = 0.0f64;
        for s in samples {
            c.add(s);
            reference += s;
        }
        assert_eq!(c.value().to_bits(), reference.to_bits());
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = TelemetryRegistry::new();
        let g = r.gauge("queue_depth", "queue depth");
        g.set(5.0);
        g.add(-2.0);
        assert_eq!(g.value(), 3.0);
    }

    #[test]
    fn labelled_families_are_distinct_series() {
        let r = TelemetryRegistry::new();
        let read = r.counter_with("energy_pj_total", "energy", &[("channel", "read")]);
        let write = r.counter_with("energy_pj_total", "energy", &[("channel", "write")]);
        read.add(1.5);
        write.add(2.5);
        let text = r.render_prometheus();
        assert!(text.contains("energy_pj_total{channel=\"read\"} 1.5"));
        assert!(text.contains("energy_pj_total{channel=\"write\"} 2.5"));
        assert_eq!(text.matches("# TYPE energy_pj_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_the_exposition() {
        let r = TelemetryRegistry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.005, 0.005, 0.05, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5.0605).abs() < 1e-12);
        assert!((h.mean() - 1.0121).abs() < 1e-12);
        let text = r.render_prometheus();
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 4"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_seconds_count 5"));
    }

    #[test]
    fn histogram_quantile_reports_bucket_bounds() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in [0.5, 0.5, 1.5, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.99), 4.0);
        h.observe(100.0); // past the last finite bound
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn exponential_buckets_grow_by_the_factor() {
        assert_eq!(exponential_buckets(0.5, 2.0, 3), vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn a_series_is_claimed_once() {
        let r = TelemetryRegistry::new();
        let claimed = r.claim_gauge_with("owner", "owner", &[("replica", "0")]);
        assert!(claimed.is_some());
        assert!(r
            .claim_gauge_with("owner", "owner", &[("replica", "0")])
            .is_none());
        assert!(r
            .claim_gauge_with("owner", "owner", &[("replica", "1")])
            .is_some());
        // A claimed series is an ordinary gauge to everyone else.
        claimed.expect("claimed").set(4.0);
        assert_eq!(
            r.gauge_with("owner", "owner", &[("replica", "0")]).value(),
            4.0
        );
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_conflicts_panic() {
        let r = TelemetryRegistry::new();
        r.counter("x_total", "x");
        r.gauge("x_total", "x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        TelemetryRegistry::new().counter("bad name", "x");
    }

    #[test]
    fn metric_names_lists_each_family_once() {
        let r = TelemetryRegistry::new();
        r.counter_with("a_total", "a", &[("k", "1")]);
        r.counter_with("a_total", "a", &[("k", "2")]);
        r.gauge("b", "b");
        assert_eq!(
            r.metric_names(),
            vec!["a_total".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn find_is_read_only_and_kind_checked() {
        let r = TelemetryRegistry::new();
        assert!(r.find_counter("absent_total", &[]).is_none());
        assert!(
            r.metric_names().is_empty(),
            "a failed lookup must not register the family"
        );
        let c = r.counter_with("reqs_total", "reqs", &[("tenant", "lo")]);
        c.add(3.0);
        let found = r
            .find_counter("reqs_total", &[("tenant", "lo")])
            .expect("registered series");
        assert_eq!(found.value(), 3.0);
        assert!(r.find_counter("reqs_total", &[("tenant", "hi")]).is_none());
        // Kind mismatches answer None instead of panicking (lookups are
        // probes, not registrations).
        assert!(r.find_gauge("reqs_total", &[("tenant", "lo")]).is_none());
        assert!(r
            .find_histogram("reqs_total", &[("tenant", "lo")])
            .is_none());
    }

    #[test]
    fn family_values_folds_all_scalar_series() {
        let r = TelemetryRegistry::new();
        r.gauge_with("depth", "d", &[("replica", "0")]).set(2.0);
        r.gauge_with("depth", "d", &[("replica", "1")]).set(7.0);
        r.histogram("depth_hist", "h", &[1.0]); // different family, skipped
        let values = r.family_values("depth");
        assert_eq!(values.len(), 2);
        assert_eq!(values[0].0, vec![("replica".into(), "0".into())]);
        let max = values.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert_eq!(max, 7.0);
        assert!(r.family_values("absent").is_empty());
    }

    #[test]
    fn histogram_snapshots_difference_into_windows() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0] {
            h.observe(v);
        }
        let earlier = h.snapshot();
        assert_eq!(earlier.count(), 3);
        assert_eq!(earlier.quantile(0.5), 2.0);
        for v in [3.5, 3.5, 3.5, 100.0] {
            h.observe(v);
        }
        let later = h.snapshot();
        let window = later.since(&earlier);
        // Only the four new samples: p50 sits in the (2, 4] bucket and the
        // overflow sample reports the last finite bound, like the live
        // histogram's quantile.
        assert_eq!(window.count(), 4);
        assert_eq!(window.quantile(0.5), 4.0);
        assert_eq!(window.quantile(1.0), 4.0);
        assert!((window.sum() - 110.5).abs() < 1e-9);
        assert!((window.mean() - 27.625).abs() < 1e-9);
        // An empty window answers zeros.
        let empty = later.since(&later);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different histograms")]
    fn mismatched_snapshots_refuse_to_difference() {
        let a = Histogram::new(&[1.0]).snapshot();
        let b = Histogram::new(&[2.0]).snapshot();
        let _ = a.since(&b);
    }

    #[test]
    fn merged_snapshots_equal_one_histogram_fed_every_sample() {
        let bounds = [1.0, 2.0, 4.0];
        let (a, b, flat) = (
            Histogram::new(&bounds),
            Histogram::new(&bounds),
            Histogram::new(&bounds),
        );
        a.observe_n(0.5, 3);
        a.observe_n(1.5, 4);
        b.observe_n(3.0, 2);
        b.observe(9.0);
        for (v, n) in [(0.5, 3), (1.5, 4), (3.0, 2), (9.0, 1)] {
            flat.observe_n(v, n);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), flat.snapshot());
        assert_eq!(flat.snapshot().bucket_counts(), &[3, 4, 2, 1]);
    }

    #[test]
    fn help_and_label_values_are_escaped() {
        let r = TelemetryRegistry::new();
        r.counter_with("esc_total", "line\nbreak", &[("path", "a\"b\\c")]);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP esc_total line\\nbreak"));
        assert!(text.contains("path=\"a\\\"b\\\\c\""));
    }
}
