//! In-memory span recorder for the traced run mode.
//!
//! Spans are taken in the benchmark's own code around each public call
//! into a serving layer (`submit`, `flush`, `run`, `step`, `pump`,
//! `encode_packed`, `run_from_packed`, `submit_rows`, `simulate_gemm`).
//! They stay in memory and are written out once, at the end of the run.
//! With tracing off, [`Tracer::start`] returns `None` and nothing is
//! recorded, so the end-to-end run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use lutdla_bench::histogram::LatencyHistogram;

/// One recorded interval. `id` groups the spans of one request (or one
/// flush); `parent` is the index of the span that caused this one.
#[derive(Debug)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A span start stamp, or `None` with tracing off.
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Tracer::start`]; returns its index.
    pub fn end(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Option<Instant>,
    ) -> Option<usize> {
        let start = start?;
        self.record(name, id, parent, start, Instant::now())
    }

    /// Records an interval measured elsewhere (e.g. from a scheduled
    /// arrival to a resolve stamp).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        Some(spans.len() - 1)
    }

    /// Writes every span as TSV (offsets in ns from the tracer's origin)
    /// followed by a per-name summary, and returns the summary lines.
    pub fn write(&self, path: &Path) -> std::io::Result<Vec<String>> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name,
                s.id,
                ns(s.start),
                ns(s.end)
            )?;
        }
        let mut by_name: BTreeMap<&str, LatencyHistogram> = BTreeMap::new();
        for s in spans.iter() {
            by_name.entry(s.name).or_default().record(s.dur());
        }
        let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        let mut summary = Vec::new();
        for (name, h) in &by_name {
            summary.push(format!(
                "span {name:<22} n={:<7} mean={:>10.2}us p50~{:>10.2}us p99~{:>10.2}us max={:>10.2}us",
                h.count(),
                us(h.mean()),
                us(h.percentile(0.5)),
                us(h.percentile(0.99)),
                us(h.max()),
            ));
        }
        writeln!(out, "# summary (histogram estimates)")?;
        for line in &summary {
            writeln!(out, "# {line}")?;
        }
        out.flush()?;
        Ok(summary)
    }
}
