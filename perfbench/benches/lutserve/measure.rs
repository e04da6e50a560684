//! Sample statistics, the benchmark clock, and the result record every
//! workload fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Exact latency (or any other) samples. Percentiles are read from the
/// sorted values, interpolating linearly between neighbouring order
/// statistics, so a metric moves with every sample rather than with the
/// 2×-wide buckets of `lutdla_bench::histogram` (which the trace summary
/// uses instead).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The `q`-quantile (0 on no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail percentile the sample supports: 0.99 when at least ten
    /// samples lie beyond it, else the highest `q` that keeps ten beyond.
    /// Returns `(q, value, samples beyond)`.
    pub fn tail(&self) -> (f64, f64, usize) {
        let n = self.0.len();
        if n == 0 {
            return (0.0, 0.0, 0);
        }
        let q = if n >= 1000 {
            0.99
        } else {
            ((n as f64 - 10.0) / n as f64).max(0.5)
        };
        let beyond = n - ((q * n as f64).ceil() as usize).min(n);
        (q, self.quantile(q), beyond)
    }
}

/// Least-squares slope of `y` over `x` (0 when `x` has no spread).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Waits until `at`: sleeps while more than a scheduler quantum away,
/// then spins, so an open-loop arrival is not late by the sleep's
/// overshoot. Returns how late the wait actually ended.
pub fn wait_until(at: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= at {
            return now - at;
        }
        let left = at - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Process peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One window of set-ups: repeats `f`, which returns the time one set-up
/// took, until there have been `SETUP_REPS` and `SETUP_SECS` have
/// passed; returns the times.
pub fn repeat_setup(mut f: impl FnMut() -> Duration) -> Vec<Duration> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < crate::plan::SETUP_REPS
        || start.elapsed().as_secs_f64() < crate::plan::SETUP_SECS
    {
        times.push(f());
    }
    times
}

/// Median of a few durations, in seconds.
pub fn median_secs(ds: &[Duration]) -> f64 {
    let mut s = Samples::new();
    for d in ds {
        s.push(d.as_secs_f64());
    }
    s.median()
}

/// Timed work repeated until `budget` is spent (at least `min_reps`
/// times); returns the median repetition time in microseconds.
pub fn median_us(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::new();
    let start = Instant::now();
    while s.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64() * 1e6);
        if s.len() >= 10_000 {
            break;
        }
    }
    s.median()
}

/// Closed-loop completion rate, read per window of `per` consecutive
/// calls (a window that holds the same mix of work wherever it starts)
/// as items over the wall time spent inside those calls. The reported
/// rate is the `FAST_RATE_Q` quantile over windows. On a shared host the
/// same work runs at two or more speeds, in episodes of tenths of a
/// second to minutes, and the share of slow episodes differs from run to
/// run. Host interference only ever slows a window, so the fast end of
/// the windows is the steadiest estimate of the program's own cost: it
/// reads the host's fast state unless slow episodes fill all but 2% of
/// the run, while a change in the program's cost moves every window.
#[derive(Debug)]
pub struct Rate {
    per: usize,
    calls: usize,
    items: usize,
    busy: Duration,
    /// Wall time inside calls so far, over all windows.
    pub total: Duration,
    windows: Samples,
}

impl Rate {
    pub fn new(per: usize) -> Self {
        Self {
            per,
            calls: 0,
            items: 0,
            busy: Duration::ZERO,
            total: Duration::ZERO,
            windows: Samples::new(),
        }
    }

    /// Records one call that completed `items` items in `wall`.
    pub fn add(&mut self, items: usize, wall: Duration) {
        self.calls += 1;
        self.items += items;
        self.busy += wall;
        self.total += wall;
        if self.calls == self.per {
            self.windows
                .push(self.items as f64 / self.busy.as_secs_f64().max(1e-12));
            self.calls = 0;
            self.items = 0;
            self.busy = Duration::ZERO;
        }
    }

    /// Ends a segment: a partial window is dropped, not mixed with the next
    /// segment's calls.
    pub fn break_window(&mut self) {
        self.calls = 0;
        self.items = 0;
        self.busy = Duration::ZERO;
    }

    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// The fast-end rate: the `FAST_RATE_Q` quantile over windows.
    pub fn fast(&self) -> f64 {
        self.windows.quantile(crate::plan::FAST_RATE_Q)
    }
}

/// What every open-loop segment measures, folded across segments.
#[derive(Debug)]
pub struct OpenLoop {
    /// Scheduled arrival → return of `wait()`, ms.
    pub latency: Samples,
    /// The same latencies keyed by the request's index in the arrival
    /// trace the run's open-loop segments replay.
    pub by_index: Vec<Samples>,
    /// Generator lateness: submit instant minus the later of the scheduled
    /// arrival and the end of the serving call it came due during, ms.
    pub lag: Samples,
    /// Scheduled arrival → start of the serving call that took it, ms.
    pub queue_wait: Samples,
    /// Lowest completion rate over offered rate of any segment.
    pub keep_up: f64,
}

impl Default for OpenLoop {
    fn default() -> Self {
        Self {
            latency: Samples::new(),
            by_index: Vec::new(),
            lag: Samples::new(),
            queue_wait: Samples::new(),
            keep_up: f64::INFINITY,
        }
    }
}

impl OpenLoop {
    /// Records the latency of request `idx` of the segment's trace.
    pub fn served(&mut self, idx: usize, d: Duration) {
        self.latency.push_ms(d);
        if self.by_index.len() <= idx {
            self.by_index.resize(idx + 1, Samples::new());
        }
        self.by_index[idx].push_ms(d);
    }

    /// The fast-end median of a replayed trace: each request's
    /// `FAST_LATENCY_Q` quantile over the segments that served it, then
    /// the median over the trace's requests.
    pub fn replayed_p50(&self, q: f64) -> f64 {
        let mut fast = Samples::new();
        for s in self.by_index.iter().filter(|s| s.len() > 0) {
            fast.push(s.quantile(q));
        }
        fast.median()
    }

    /// Closes a segment that started at `t0` and completed its last
    /// request at `last_done`: the realised offered rate against the rate
    /// it kept up with.
    pub fn finish(&mut self, offsets: &[Duration], t0: Instant, last_done: Instant) {
        let n = offsets.len() as f64;
        let offered = n / offsets.last().map_or(1e-9, |d| d.as_secs_f64().max(1e-9));
        let achieved = n / (last_done - t0).as_secs_f64().max(1e-9);
        self.keep_up = achieved / offered;
    }

    pub fn absorb(&mut self, other: OpenLoop) {
        self.latency.extend(&other.latency);
        if self.by_index.len() < other.by_index.len() {
            self.by_index.resize(other.by_index.len(), Samples::new());
        }
        for (mine, theirs) in self.by_index.iter_mut().zip(&other.by_index) {
            mine.extend(theirs);
        }
        self.lag.extend(&other.lag);
        self.queue_wait.extend(&other.queue_wait);
        self.keep_up = self.keep_up.min(other.keep_up);
    }

    /// Whether the tail over every offered request — each of the
    /// `refused` ones counting as a miss — stays within `limit_ms`
    /// without a growing backlog.
    pub fn meets(&self, limit_ms: f64, refused: u64) -> bool {
        let mut all = self.latency.clone();
        for _ in 0..refused {
            all.push(f64::MAX);
        }
        all.tail().1 <= limit_ms && self.keep_up >= 0.95
    }

    /// Records the latency metrics and prints them, `what` naming the
    /// unit a sample times. On a workload whose every open-loop segment
    /// replays the same arrival trace (`replayed`), `p50_ms` is
    /// [`OpenLoop::replayed_p50`]: each request of the trace is compared
    /// only with itself in other segments, and its fast end reads the
    /// host's fast state unless slow episodes covered it in nearly every
    /// segment. Otherwise every sample is a like one (one closed-loop call
    /// of the same size), and `p50_ms` is their `FAST_LATENCY_Q`
    /// quantile. As with [`Rate`], a change in the program's cost moves
    /// every sample.
    pub fn report(&self, out: &mut Outcome, what: &str, replayed: bool) {
        let (q, p99, beyond) = self.latency.tail();
        let fast_q = crate::plan::FAST_LATENCY_Q;
        let p50 = if replayed {
            self.replayed_p50(fast_q)
        } else {
            self.latency.quantile(fast_q)
        };
        out.set("p50_ms", p50);
        out.set("latency.p99_ms", p99);
        out.set("latency.p99_beyond", beyond as f64);
        out.set("bench.latency_samples", self.latency.len() as f64);
        out.set("driver.lag_p99_ms", self.lag.tail().1);
        out.note(format!(
            "latency {what}: {} samples, p50 {:.4} ms (fast end {p50:.4}), p{:.1} {p99:.4} ms ({beyond} beyond)",
            self.latency.len(),
            self.latency.median(),
            q * 100.0
        ));
    }
}

/// One workload's measured result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or decode steps) offered, across every phase.
    pub attempted: u64,
    /// Requests that errored or were lost.
    pub failed: u64,
    /// Served responses that differ bitwise from their solo reference.
    pub mismatched: u64,
    /// Requests refused by admission control (gateway only).
    pub shed: u64,
    /// Set-up times; `setup_s` is their median.
    pub setup: Vec<Duration>,
    /// Metric name → value, end-to-end and per-layer alike.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Prints a human-readable line ahead of the result.
    pub fn note(&self, line: String) {
        println!("{line}");
    }

    /// Checks one served row against its reference, bit for bit.
    pub fn check(&mut self, served: &[f32], reference: &[f32]) {
        let same = served.len() == reference.len()
            && served
                .iter()
                .zip(reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.mismatched += 1;
        }
    }
}
