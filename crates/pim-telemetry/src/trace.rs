//! Span/event tracing into a bounded ring buffer, dumped as JSONL.
//!
//! The tracer is for *attribution* — which stage a request spent its time
//! in — where the metrics registry is for *aggregation*. Every record is
//! timestamped against the tracer's creation instant, so a dump is a
//! self-consistent timeline even though the host has no global clock the
//! simulator shares.

use std::collections::VecDeque;
use std::fmt::{Display, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span (or instant event, when `dur_ns` is 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start offset from tracer creation, nanoseconds.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Span name, dotted by convention (`serve.compute`).
    pub name: String,
    /// Free-form key/value attributes.
    pub attrs: Vec<(String, String)>,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
}

/// A span/event recorder over a bounded ring buffer: when the buffer is
/// full the **oldest** events are evicted (and counted in
/// [`dropped`](Tracer::dropped)), so the most recent window is always
/// retained and recording cost is bounded. A tracer of capacity 0 keeps
/// nothing, and recording into it formats no attribute.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("len", &self.buf.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer retaining at most `capacity` events (0 keeps none).
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the tracer was created (the `ts_ns` clock).
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span clocked from now; finish it (or drop it) to record.
    pub fn span(&self, name: &str) -> ActiveSpan<'_> {
        ActiveSpan {
            tracer: self,
            name: name.to_string(),
            started: Instant::now(),
            attrs: Vec::new(),
            recorded: false,
        }
    }

    /// Records an instant event.
    pub fn event(&self, name: &str, attrs: &[(&str, &dyn Display)]) {
        self.record_span_ending_now(name, Duration::ZERO, attrs);
    }

    /// Records a span that ends now and lasted `dur` — for callers that
    /// timed the work themselves (e.g. a queue wait carried on a request).
    /// The attributes are formatted only if the tracer keeps events.
    pub fn record_span_ending_now(
        &self,
        name: &str,
        dur: Duration,
        attrs: &[(&str, &dyn Display)],
    ) {
        if self.capacity == 0 {
            return;
        }
        let dur_ns = dur.as_nanos() as u64;
        self.record(TraceEvent {
            ts_ns: self.elapsed_ns().saturating_sub(dur_ns),
            dur_ns,
            name: name.to_string(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Pushes a fully formed event into the ring.
    pub fn record(&self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring lock");
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(event);
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("trace ring lock")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns the retained events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("trace ring lock")
            .buf
            .drain(..)
            .collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring lock").buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-flight span; records itself on [`finish`](ActiveSpan::finish)
/// or, if forgotten, on drop.
#[derive(Debug)]
pub struct ActiveSpan<'a> {
    tracer: &'a Tracer,
    name: String,
    started: Instant,
    attrs: Vec<(String, String)>,
    recorded: bool,
}

impl ActiveSpan<'_> {
    /// Attaches an attribute.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        self.attrs.push((key.to_string(), value.to_string()));
    }

    /// Ends the span and records it.
    pub fn finish(mut self) {
        self.record_now();
    }

    fn record_now(&mut self) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        let dur = self.started.elapsed();
        self.tracer.record_span_ending_now(
            &self.name,
            dur,
            &self
                .attrs
                .iter()
                .map(|(k, v)| (k.as_str(), v as &dyn Display))
                .collect::<Vec<_>>(),
        );
    }
}

impl Drop for ActiveSpan<'_> {
    fn drop(&mut self) {
        self.record_now();
    }
}

/// A point-in-time copy of a tracer's ring, renderable as JSONL (one
/// JSON object per line: `ts_ns`, `dur_ns`, `name`, `attrs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceDump {
    /// Snapshots `tracer` without draining it.
    pub fn from_tracer(tracer: &Tracer) -> Self {
        Self {
            events: tracer.snapshot(),
            dropped: tracer.dropped(),
        }
    }

    /// Wraps an explicit event list.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Self { events, dropped: 0 }
    }

    /// The captured events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events the tracer had evicted before this snapshot.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Captured event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the dump holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the dump as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"ts_ns\":{},\"dur_ns\":{},\"name\":\"{}\",\"attrs\":{{",
                e.ts_ns,
                e.dur_ns,
                escape_json(&e.name)
            );
            for (i, (k, v)) in e.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Writes the JSONL rendering to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_finish_with_attrs() {
        let t = Tracer::new(8);
        let mut span = t.span("serve.compute");
        span.attr("batch", 4);
        span.finish();
        let events = t.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "serve.compute");
        assert_eq!(
            events[0].attrs,
            vec![("batch".to_string(), "4".to_string())]
        );
    }

    #[test]
    fn forgotten_spans_record_on_drop() {
        let t = Tracer::new(8);
        {
            let _span = t.span("implicit");
        }
        assert_eq!(t.snapshot()[0].name, "implicit");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let t = Tracer::new(2);
        t.event("a", &[]);
        t.event("b", &[]);
        t.event("c", &[]);
        let names: Vec<String> = t.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn zero_capacity_keeps_and_formats_nothing() {
        struct Unformattable;
        impl Display for Unformattable {
            fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                panic!("a tracer that keeps nothing formatted an attribute")
            }
        }
        let t = Tracer::new(0);
        t.event("x", &[("k", &Unformattable)]);
        t.record_span_ending_now("y", Duration::from_nanos(5), &[("k", &Unformattable)]);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn drain_empties_the_ring() {
        let t = Tracer::new(4);
        t.event("x", &[]);
        assert_eq!(t.drain().len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn timestamps_are_monotonic_against_the_epoch() {
        let t = Tracer::new(4);
        t.event("first", &[]);
        t.record_span_ending_now("second", Duration::from_nanos(10), &[]);
        let events = t.snapshot();
        assert!(events[1].ts_ns + events[1].dur_ns >= events[0].ts_ns);
        assert_eq!(events[1].dur_ns, 10);
    }

    #[test]
    fn jsonl_dump_escapes_and_terminates_lines() {
        let dump = TraceDump::from_events(vec![TraceEvent {
            ts_ns: 1,
            dur_ns: 2,
            name: "weird\"name".to_string(),
            attrs: vec![("k".to_string(), "line\nbreak".to_string())],
        }]);
        let jsonl = dump.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert_eq!(
            jsonl.trim_end(),
            "{\"ts_ns\":1,\"dur_ns\":2,\"name\":\"weird\\\"name\",\"attrs\":{\"k\":\"line\\nbreak\"}}"
        );
        assert_eq!(dump.len(), 1);
        assert!(!dump.is_empty());
        assert_eq!(dump.dropped(), 0);
    }

    #[test]
    fn dump_snapshots_without_draining() {
        let t = Tracer::new(4);
        t.event("keep", &[]);
        let dump = TraceDump::from_tracer(&t);
        assert_eq!(dump.len(), 1);
        assert_eq!(t.len(), 1, "snapshot must not drain");
    }
}
