//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions. Each has a name, a start, an end, its parent and the id of
//! the operation (batch, request or round) it belongs to. They stay in
//! memory while the run measures and are written out, one JSON object a
//! line, when it ends.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, parent, start, Instant::now());
        out
    }

    /// Durations (ms) of every span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Mean share of each `root`-named span's duration that none of its
    /// direct children covers (self time over duration).
    pub fn unaccounted_frac(&self, root: &str) -> f64 {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let fracs: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.end > s.start)
            .map(|(i, s)| {
                let total = (s.end - s.start).as_secs_f64();
                1.0 - covered(&mut children[i], s.start, s.end).as_secs_f64() / total
            })
            .collect();
        crate::stats::mean(&fracs)
    }

    /// Writes every span as one JSON line to
    /// `perfbench/traces/<file_stem>.jsonl` and returns the path.
    pub fn write_out(&self, file_stem: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{file_stem}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}
