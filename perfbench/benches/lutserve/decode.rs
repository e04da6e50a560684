//! `gpt_decode`: token-streaming decode over `gpt_mini`. Several
//! `DecodeSession` streams are open at once (one converted model
//! instance each, since a session owns its model's deploy state) and
//! stepped round robin from the driver. A stream that reaches the
//! model's maximum length is closed and reopened on the next sequence.
//! The runtime has no encode memo, so the memo metrics read zero.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use lutdla_bench::arrival::ArrivalProcess;
use lutdla_lutboost::{DecodePlan, DecodeSession, LutRuntime, ModelSession};
use lutdla_models::trainable::TransformerClassifier;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{
    median_secs, repeat_setup, slope, wait_until, OpenLoop, Outcome, Rate, Samples,
};
use crate::models::{self, Converted, Distinct, SEQ};
use crate::plan::*;
use crate::probe;
use crate::trace::Tracer;
use crate::Args;

/// A token sequence with `refs[pos]`, the solo logits of `tokens[..=pos]`.
struct Seq {
    tokens: Vec<usize>,
    refs: Vec<Vec<f32>>,
}

struct Stream<'m> {
    session: DecodeSession<'m, TransformerClassifier>,
    seq: Seq,
    pos: usize,
}

/// The open streams, and the sequences they go on to, made with their
/// references ahead of the segment or chunk that serves them.
struct Decoder<'a, 'm> {
    rt: &'a mut LutRuntime,
    insts: &'m [Converted<TransformerClassifier>],
    streams: Vec<Option<Stream<'m>>>,
    ready: VecDeque<Seq>,
    /// Whole-sequence session on a model instance of its own, for the
    /// solo references.
    reference: ModelSession<'m, TransformerClassifier>,
    rng: StdRng,
    /// Every sequence made so far, so none repeats.
    seen: Distinct,
    /// The sequences streams were opened on, for the duplicate share.
    offered: Distinct,
    made: usize,
    ref_time: Duration,
    reused: u64,
    walked: u64,
}

/// One served step: how long the `step` + `wait` call took and the
/// prefix position it served.
struct Served {
    wall: Duration,
    pos: usize,
}

impl<'m> Decoder<'_, 'm> {
    /// Makes sure the queued sequences cover `steps` more steps, however
    /// far the open streams are into theirs.
    fn top_up(&mut self, steps: usize) {
        let need = steps.div_ceil(SEQ) + self.streams.len();
        let n = need.saturating_sub(self.ready.len());
        let t = Instant::now();
        for tokens in models::sequences(&mut self.rng, n, SEQ, &mut self.seen) {
            let refs = (1..=SEQ)
                .map(|len| {
                    let h = self
                        .reference
                        .submit(tokens[..len].to_vec())
                        .expect("valid prefix");
                    self.reference.flush();
                    h.wait().expect("solo reference resolves")
                })
                .collect();
            self.ready.push_back(Seq { tokens, refs });
        }
        self.made += n;
        self.ref_time += t.elapsed();
    }

    fn retire(&mut self, old: Stream<'m>) {
        for (_, st) in old.session.decode_stats() {
            self.reused += st.reused_rows;
            self.walked += st.walked_rows;
        }
    }

    /// Opens stream `k` on the next queued sequence, closing its old one.
    fn open(&mut self, k: usize) -> bool {
        if let Some(old) = self.streams[k].take() {
            // Dropped before the new session installs its deploy state.
            self.retire(old);
        }
        let Some(seq) = self.ready.pop_front() else {
            return false;
        };
        self.offered.repeat(&seq.tokens);
        let inst = &self.insts[k];
        let session = self
            .rt
            .serve(&inst.net, &inst.ps)
            .build_decode()
            .expect("gpt_mini is causal");
        self.streams[k] = Some(Stream {
            session,
            seq,
            pos: 0,
        });
        true
    }

    /// Steps stream `k` by one token and checks the logits.
    fn step(&mut self, k: usize, out: &mut Outcome, tracer: &Tracer, id: u64) -> Option<Served> {
        if self.streams[k].as_ref().is_none_or(|s| s.pos == SEQ) && !self.open(k) {
            return None;
        }
        let s = self.streams[k].as_mut().expect("stream opened above");
        let token = s.seq.tokens[s.pos];
        out.attempted += 1;
        let t = Instant::now();
        let span = tracer.start();
        let result = s.session.step(vec![token]).map(|h| h.wait());
        let wall = t.elapsed();
        tracer.end("step", id, None, span);
        match result {
            Ok(Ok(row)) => out.check(&row, &s.seq.refs[s.pos]),
            _ => out.failed += 1,
        }
        s.pos += 1;
        Some(Served { wall, pos: s.pos })
    }

    fn close_all(&mut self) {
        for k in 0..self.streams.len() {
            if let Some(old) = self.streams[k].take() {
                self.retire(old);
            }
        }
    }
}

/// Open-loop steps at their fixed schedule, round robin over the streams.
#[derive(Default)]
struct OpenResult {
    open: OpenLoop,
    steps: Vec<Served>,
}

impl OpenResult {
    fn absorb(&mut self, other: OpenResult) {
        self.open.absorb(other.open);
        self.steps.extend(other.steps);
    }
}

fn open_loop(
    dec: &mut Decoder<'_, '_>,
    offsets: &[Duration],
    tracer: &Tracer,
    out: &mut Outcome,
) -> OpenResult {
    dec.top_up(offsets.len());
    let mut res = OpenResult::default();
    let t0 = Instant::now();
    let mut busy_until = t0;
    let mut last_done = t0;
    let k_streams = dec.streams.len();
    for (i, off) in offsets.iter().enumerate() {
        let due = t0 + *off;
        wait_until(due);
        let start = Instant::now();
        res.open
            .lag
            .push_ms(start.saturating_duration_since(due.max(busy_until)));
        res.open
            .queue_wait
            .push_ms(start.saturating_duration_since(due));
        let Some(served) = dec.step(i % k_streams, out, tracer, i as u64) else {
            break;
        };
        let done = Instant::now();
        busy_until = done;
        last_done = done;
        res.open
            .served(i % ROTATION, done.saturating_duration_since(due));
        tracer.record("request", i as u64, None, due, done);
        if tracer.on() {
            res.steps.push(served);
        }
    }
    res.open.finish(offsets, t0, last_done);
    res
}

/// Steps in one rotation: every stream through every prefix position.
const ROTATION: usize = GPT_STREAMS * SEQ;

/// A fixed-rate schedule of whole rotations covering `secs` seconds, so
/// every segment starts with every stream on a fresh sequence and
/// replays the same stream and position at each index.
fn fixed(rate: f64, secs: f64) -> Vec<Duration> {
    let n = ((rate * secs / ROTATION as f64).ceil() as usize).max(1) * ROTATION;
    ArrivalProcess::Fixed.schedule(n, rate)
}

/// One set-up of `gpt_decode`: convert one instance per stream and open
/// the streams.
pub fn setup_once() -> Duration {
    let t = Instant::now();
    let insts: Vec<_> = (0..GPT_STREAMS)
        .map(|_| models::transformer(true))
        .collect();
    let mut rt = models::runtime(0);
    let sessions: Vec<_> = insts
        .iter()
        .map(|m| rt.serve(&m.net, &m.ps).build_decode().expect("causal"))
        .collect();
    let took = t.elapsed();
    drop(sessions);
    took
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let block_secs = args.seconds / BLOCKS as f64;
    let schedule = fixed(GPT_RATE, block_secs * OPEN_SHARE);
    let closed_budget = Duration::from_secs_f64(block_secs * (1.0 - OPEN_SHARE));

    // Set-up: a window of repeated set-ups, then the one that serves.
    let mut out = Outcome {
        setup: repeat_setup(setup_once),
        ..Outcome::default()
    };
    let t = Instant::now();
    let insts: Vec<_> = (0..GPT_STREAMS)
        .map(|_| models::transformer(true))
        .collect();
    let kmeans: Duration = insts.iter().map(|m| m.kmeans).sum();
    let mut rt = models::runtime(0);
    let tb = Instant::now();
    let sessions: Vec<_> = insts
        .iter()
        .map(|m| rt.serve(&m.net, &m.ps).build_decode().expect("causal"))
        .collect();
    let engine_build = tb.elapsed();
    out.setup.push(t.elapsed());
    drop(sessions);
    out.set("convert.kmeans_s", kmeans.as_secs_f64());
    out.set("runtime.engine_build_ms", engine_build.as_secs_f64() * 1e3);
    let cache = rt.stats();
    out.set("engine_cache.hits", cache.hits as f64);
    out.set("engine_cache.misses", cache.misses as f64);
    out.note(format!(
        "setup: median {:.3}s of the {} set-ups before the run | {GPT_STREAMS} streams",
        median_secs(&out.setup),
        out.setup.len()
    ));

    let ref_inst = models::transformer(true);
    let reference = rt.serve(&ref_inst.net, &ref_inst.ps).build_model();
    let mut dec = Decoder {
        rt: &mut rt,
        insts: &insts,
        streams: (0..GPT_STREAMS).map(|_| None).collect(),
        ready: VecDeque::new(),
        reference,
        rng: StdRng::seed_from_u64(args.seed ^ 0xdec),
        seen: Distinct::default(),
        offered: Distinct::default(),
        made: 0,
        ref_time: Duration::ZERO,
        reused: 0,
        walked: 0,
    };

    // BLOCKS blocks, each an open-loop segment at the nominal fixed step
    // rate followed by a closed-loop segment stepping round robin as fast
    // as the streams go, until the steps (stream reopens included) have
    // taken the segment's share of the time. Both end on whole rotations.
    let mut open = OpenResult::default();
    // Closed-loop steps are counted, not kept: how many run depends on the
    // host's speed, and keeping them would make peak RSS depend on it too.
    let mut closed = 0;
    // A window of a full rotation: every stream through every position,
    // reopens included.
    let mut rate = Rate::new(ROTATION);
    let mut closed_steps = Vec::new();
    for b in 0..BLOCKS as u32 {
        open.absorb(open_loop(&mut dec, &schedule, tracer, &mut out));
        let budget = closed_budget * (b + 1);
        'segment: while rate.total < budget {
            dec.top_up(GPT_CHUNK);
            for j in 0..GPT_CHUNK {
                // Segments end on whole rotations.
                if j % ROTATION == 0 && rate.total >= budget {
                    break 'segment;
                }
                let t = Instant::now();
                let Some(served) = dec.step(j % GPT_STREAMS, &mut out, tracer, j as u64) else {
                    break 'segment;
                };
                rate.add(1, t.elapsed());
                closed += 1;
                if tracer.on() {
                    closed_steps.push(served);
                }
            }
        }
        rate.break_window();
    }
    out.note(format!(
        "references: {} sequences ({} solo prefix evals) in {:.2}s, made between segments",
        dec.made,
        dec.made * SEQ,
        dec.ref_time.as_secs_f64()
    ));
    out.note(format!(
        "open loop: {} steps at {GPT_RATE}/s (fixed) | keep-up {:.3}",
        open.open.latency.len(),
        open.open.keep_up
    ));
    open.open
        .report(&mut out, "per token from scheduled arrival", true);
    out.set("items_per_s", rate.fast());
    out.note(format!(
        "closed loop: {closed} steps, fast-end rate over {} windows {:.1}/s",
        rate.windows(),
        rate.fast()
    ));
    out.set("bench.duplicate_share", dec.offered.share());
    out.set("session.batch_requests_mean", 1.0);

    if tracer.on() {
        let steps: Vec<&Served> = open.steps.iter().chain(&closed_steps).collect();
        let mut wall = Samples::new();
        let mut points = Vec::new();
        for s in &steps {
            wall.push_ms(s.wall);
            points.push((s.pos as f64, s.wall.as_secs_f64() * 1e6));
        }
        out.set("session.flush_ms_p50", wall.median());
        out.set("session.flush_ms_p99", wall.tail().1);
        out.set("session.queue_wait_ms_p99", open.open.queue_wait.tail().1);
        out.set("decode.step_us_slope", slope(&points));

        let probe_steps: Vec<probe::Step> = dec.streams[0]
            .as_ref()
            .expect("stream 0 open")
            .session
            .plan()
            .iter()
            .filter_map(|p| match p {
                DecodePlan::Lut { name, engine, .. } => Some(probe::Step {
                    name: name.clone(),
                    engine: engine.clone(),
                    stage: None,
                    encode_rows: 1,
                    lookup_rows: SEQ / 2,
                }),
                DecodePlan::Dense { .. } => None,
            })
            .collect();
        let totals = probe::steps(&probe_steps, tracer, &mut out);
        let engine_ms = (totals.encode_us + totals.lookup_us) / 1e3;
        // Decode stages have no engine-service counter and no hop.
        crate::account(&mut out, wall.mean(), None, engine_ms, 0.0);

        let mut best = 0.0;
        for &rate in &GPT_LADDER {
            let offsets = ArrivalProcess::Fixed.schedule(RUNG_REQUESTS, rate);
            let res = open_loop(&mut dec, &offsets, &Tracer::new(false), &mut out);
            let ok = res.open.meets(GPT_LIMIT_MS, 0);
            out.note(format!(
                "  ladder {rate:>7.0}/s: p99 {:.4} ms keep-up {:.3} -> {}",
                res.open.latency.tail().1,
                res.open.keep_up,
                if ok { "meets" } else { "misses" }
            ));
            if !ok {
                break;
            }
            best = rate;
        }
        out.set("ladder.max_rate_at_slo", best);
    }
    dec.close_all();
    out.set("decode.reused_rows", dec.reused as f64);
    out.set("decode.walked_rows", dec.walked as f64);
    out
}
