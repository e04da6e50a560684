//! `cnn_batch`: `resnet20_mini` behind one `ModelSession` (static front
//! door, max_batch 64), with the encode memo off and every image
//! distinct, driven in a closed loop of 32-image `run` calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lutdla_lutboost::ModelSession;
use lutdla_models::trainable::ConvNet;
use lutdla_tensor::Tensor;
use lutdla_vq::StageStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{median_secs, repeat_setup, OpenLoop, Outcome, Rate, Samples};
use crate::plan::*;
use crate::probe;
use crate::trace::Tracer;
use crate::{models, Args};

/// Sums of the per-stage counters a workload reads as interval deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTotals {
    pub service_nanos: u64,
    pub memo_hits: usize,
    pub memo_misses: usize,
    pub memo_evictions: usize,
}

impl StageTotals {
    pub fn of(stats: &[StageStats]) -> Self {
        let mut t = Self::default();
        for s in stats {
            t.add(&Self {
                service_nanos: s.service_nanos,
                memo_hits: s.memo_hits,
                memo_misses: s.memo_misses,
                memo_evictions: s.memo_evictions,
            });
        }
        t
    }

    pub fn since(&self, prev: &Self) -> Self {
        Self {
            service_nanos: self.service_nanos.saturating_sub(prev.service_nanos),
            memo_hits: self.memo_hits.saturating_sub(prev.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(prev.memo_misses),
            memo_evictions: self.memo_evictions.saturating_sub(prev.memo_evictions),
        }
    }

    pub fn add(&mut self, other: &Self) {
        self.service_nanos += other.service_nanos;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_evictions += other.memo_evictions;
    }

    /// Records the memo metrics of an interval.
    pub fn report_memo(&self, out: &mut Outcome) {
        let lookups = self.memo_hits + self.memo_misses;
        out.set(
            "memo.hit_ratio",
            self.memo_hits as f64 / lookups.max(1) as f64,
        );
        out.set("memo.evictions", self.memo_evictions as f64);
    }
}

/// A session's flush, request and stage counters. The measured phases
/// add up their deltas, so the solo reference evaluations made between
/// them are left out.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub flushes: usize,
    pub served: usize,
    pub stage: StageTotals,
}

impl Counters {
    pub fn of(session: &ModelSession<'_, ConvNet>) -> Self {
        let stats: Vec<StageStats> = session.stage_stats().into_iter().map(|(_, s)| s).collect();
        Self {
            flushes: session.batches_run(),
            served: session.rows_served(),
            stage: StageTotals::of(&stats),
        }
    }

    pub fn since(&self, prev: &Self) -> Self {
        Self {
            flushes: self.flushes - prev.flushes,
            served: self.served - prev.served,
            stage: self.stage.since(&prev.stage),
        }
    }

    pub fn add(&mut self, other: &Self) {
        self.flushes += other.flushes;
        self.served += other.served;
        self.stage.add(&other.stage);
    }
}

/// Fresh inputs for a run, made a chunk at a time: every image
/// differs from all earlier ones and comes with its solo reference logits.
struct Fresh {
    rng: StdRng,
    /// Every image made so far, so none repeats.
    seen: models::Distinct,
    /// What was offered, for the measured duplicate share.
    offered: models::Distinct,
    /// Rows each LUT stage saw per image, from the first references.
    rows: Vec<usize>,
    made: usize,
    ref_time: Duration,
}

impl Fresh {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0xc22),
            seen: models::Distinct::default(),
            offered: models::Distinct::default(),
            rows: Vec::new(),
            made: 0,
            ref_time: Duration::ZERO,
        }
    }

    fn take(
        &mut self,
        session: &ModelSession<'_, ConvNet>,
        n: usize,
    ) -> (Vec<Tensor>, Vec<Vec<f32>>) {
        let inputs = models::images(&mut self.rng, n, &mut self.seen);
        for x in &inputs {
            self.offered.repeat(&models::image_key(x));
        }
        let t = Instant::now();
        let (refs, rows) = models::references(session, &inputs);
        self.ref_time += t.elapsed();
        self.made += n;
        if self.rows.is_empty() {
            self.rows = rows;
        }
        (inputs, refs)
    }
}

/// One set-up of a `cnn_*` workload: convert, build engines and session.
pub fn setup_once() -> Duration {
    let t = Instant::now();
    let m = models::resnet();
    let mut rt = models::runtime(0);
    let s = rt.serve(&m.net, &m.ps).policy(CNN_POLICY).build_model();
    black_box(s.lut_stages());
    t.elapsed()
}

/// Runs `cnn_batch`.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    // Set-up: a window of repeated set-ups, then the one that serves.
    let mut out = Outcome {
        setup: repeat_setup(setup_once),
        ..Outcome::default()
    };
    let t = Instant::now();
    let m = models::resnet();
    let mut rt = models::runtime(0);
    let tb = Instant::now();
    let session = rt.serve(&m.net, &m.ps).policy(CNN_POLICY).build_model();
    let engine_build = tb.elapsed();
    out.setup.push(t.elapsed());
    out.set("convert.kmeans_s", m.kmeans.as_secs_f64());
    out.set("runtime.engine_build_ms", engine_build.as_secs_f64() * 1e3);
    let cache = rt.stats();
    out.set("engine_cache.hits", cache.hits as f64);
    out.set("engine_cache.misses", cache.misses as f64);
    out.note(format!(
        "setup: median {:.3}s of the {} set-ups before the run",
        median_secs(&out.setup),
        out.setup.len()
    ));

    // The measured time is cut into BLOCKS blocks, so the calls see the
    // whole run's host conditions. Inputs and references are made just
    // before the chunk that serves them and dropped after it, so the peak
    // resident set is the program's, not an input pool's.
    let block_budget = Duration::from_secs_f64(args.seconds / BLOCKS as f64);
    let mut fresh = Fresh::new(args.seed);
    // Counters over the measured calls only.
    let mut counters = Counters::default();
    // Call times (one `run` of CNN_BATCH images each) and the completion
    // rate, one window per call.
    let mut calls = Samples::new();
    let mut rate = Rate::new(1);
    for b in 0..BLOCKS as u32 {
        // Calls until they have taken this block's share of the time.
        let budget = block_budget * (b + 1);
        while rate.total < budget {
            let (inputs, refs) = fresh.take(&session, CNN_CHUNK);
            let before = Counters::of(&session);
            for (chunk, chunk_refs) in inputs.chunks(CNN_BATCH).zip(refs.chunks(CNN_BATCH)) {
                if rate.total >= budget {
                    break;
                }
                out.attempted += chunk.len() as u64;
                let ts = Instant::now();
                let span = tracer.start();
                let result = session.run(chunk.to_vec());
                let dt = ts.elapsed();
                tracer.end("run", calls.len() as u64, None, span);
                match result {
                    Ok(logits) => {
                        let n = logits.dims()[1];
                        for (r, reference) in chunk_refs.iter().enumerate() {
                            out.check(&logits.data()[r * n..(r + 1) * n], reference);
                        }
                        calls.push_ms(dt);
                        rate.add(chunk.len(), dt);
                    }
                    Err(_) => {
                        out.failed += chunk.len() as u64;
                        rate.add(0, dt);
                    }
                }
            }
            counters.add(&Counters::of(&session).since(&before));
        }
    }
    out.set("items_per_s", rate.fast());
    out.note(format!(
        "references: {} solo evals in {:.2}s, made between chunks",
        fresh.made,
        fresh.ref_time.as_secs_f64()
    ));
    out.note(format!(
        "closed loop: {} calls of {CNN_BATCH} images, call p10/p50/p90 {:.4}/{:.4}/{:.4} ms, fast-end rate {:.1}/s",
        calls.len(),
        calls.quantile(0.1),
        calls.median(),
        calls.quantile(0.9),
        rate.fast()
    ));
    // Every image of a call completes when the call returns, so a call's
    // time is the latency of each of its images.
    let per_call = OpenLoop {
        latency: calls.clone(),
        ..OpenLoop::default()
    };
    per_call.report(&mut out, "per 32-image call", false);
    out.set("bench.duplicate_share", fresh.offered.share());
    out.set(
        "session.batch_requests_mean",
        counters.served as f64 / counters.flushes.max(1) as f64,
    );
    counters.stage.report_memo(&mut out);

    if tracer.on() {
        // One `run` is one flush.
        out.set("session.flush_ms_p50", calls.median());
        out.set("session.flush_ms_p99", calls.tail().1);
        let steps = probe::lut_steps(session.plan(), &fresh.rows, CNN_BATCH);
        let totals = probe::steps(&steps, tracer, &mut out);
        // Per-flush accounting: the probes time one call of CNN_BATCH
        // images, and each stage hops once per call.
        let flushes = counters.flushes.max(1) as f64;
        crate::account(
            &mut out,
            calls.mean(),
            Some(counters.stage.service_nanos as f64 / 1e6 / flushes),
            (totals.encode_us + totals.lookup_us) / 1e3,
            totals.hop_us / 1e3,
        );
    }
    out
}
