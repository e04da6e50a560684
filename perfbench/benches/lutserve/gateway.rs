//! `gateway_mixed`: `resnet20_mini` and `distilbert_mini` behind
//! `ServeGateway`s (one per model type) sharing one runtime, its engine
//! cache and per-stage encode memos. Each model has a latency, a
//! throughput and a best-effort tenant; a stated share of requests
//! repeats a small hot set and the rest are distinct. The nominal rate is
//! above what best-effort admission can take, so it sheds.

use std::time::{Duration, Instant};

use lutdla_bench::arrival::ArrivalProcess;
use lutdla_lutboost::{
    ClassPolicy, GatewayOptions, ModelSession, ServeError, ServeGateway, SloClass, TenantId,
};
use lutdla_models::trainable::{ConvNet, ServableModel, TransformerClassifier};
use lutdla_tensor::Tensor;
use lutdla_vq::{BatchOptions, BatchPolicy, Pending, StageStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cnn::StageTotals;
use crate::measure::{median_secs, repeat_setup, wait_until, OpenLoop, Outcome, Rate, Samples};
use crate::models::{self, Distinct, SEQ};
use crate::plan::*;
use crate::probe;
use crate::trace::Tracer;
use crate::Args;

/// One scheduled request: the model (0 = resnet, 1 = distilbert), the
/// tenant's class, and the input: an index into the run's hot set, or
/// into the cold pool made for the requests it was drawn with.
#[derive(Debug, Clone, Copy)]
struct Req {
    model: usize,
    class: SloClass,
    hot: bool,
    input: usize,
}

/// A model's inputs with their solo reference logits.
struct Pool<I> {
    inputs: Vec<I>,
    refs: Vec<Vec<f32>>,
    /// Rows each LUT stage sees per request, in plan order.
    rows: Vec<usize>,
}

impl<I: Clone> Pool<I> {
    fn solo<M: ServableModel<Input = I>>(session: &ModelSession<'_, M>, inputs: Vec<I>) -> Self {
        let (refs, rows) = models::references(session, &inputs);
        Self { inputs, refs, rows }
    }
}

/// Both models' inputs: the hot set, or one cold pool.
struct Pools {
    cnn: Pool<Tensor>,
    bert: Pool<Vec<usize>>,
}

impl Pools {
    fn reference(&self, r: Req) -> &[f32] {
        match r.model {
            0 => &self.cnn.refs[r.input],
            _ => &self.bert.refs[r.input],
        }
    }
}

/// Makes requests and the inputs they need. Every input made differs
/// from all earlier ones; references come from solo sessions on model
/// instances of their own (a gateway owns its models' deploy state).
struct Maker<'m> {
    rng: StdRng,
    seen: Distinct,
    /// What was offered, for the measured duplicate share.
    offered: Distinct,
    cnn: ModelSession<'m, ConvNet>,
    bert: ModelSession<'m, TransformerClassifier>,
    made: usize,
    ref_time: Duration,
}

impl Maker<'_> {
    /// `counts[model]` fresh inputs per model, with references.
    fn pools(&mut self, counts: [usize; 2]) -> Pools {
        let t = Instant::now();
        let images = models::images(&mut self.rng, counts[0], &mut self.seen);
        let seqs = models::sequences(&mut self.rng, counts[1], SEQ, &mut self.seen);
        let pools = Pools {
            cnn: Pool::solo(&self.cnn, images),
            bert: Pool::solo(&self.bert, seqs),
        };
        self.made += counts[0] + counts[1];
        self.ref_time += t.elapsed();
        pools
    }

    /// One open-loop segment's requests: the trace's fixed mix of tenants
    /// and hot-set picks, with a fresh input for every cold request.
    fn requests(&mut self, hot: &Pools, mix: &[Req]) -> (Vec<Req>, Pools) {
        let mut cold = [0; 2];
        let reqs: Vec<Req> = mix
            .iter()
            .map(|&r| Req {
                input: if r.hot {
                    r.input
                } else {
                    self.draw(false, r.model, &mut cold)
                },
                ..r
            })
            .collect();
        self.finish(hot, reqs, cold)
    }

    /// `n` closed-loop rounds of `GW_ROUND` requests with a fixed make-up:
    /// every tenant gets the same number, `GW_HOT_SHARE` of them hot.
    fn rounds(&mut self, hot: &Pools, n: usize) -> (Vec<Req>, Pools) {
        let per_tenant = GW_ROUND / 6;
        let hot_per_tenant = (per_tenant as f64 * GW_HOT_SHARE).round() as usize;
        let mut cold = [0; 2];
        let reqs: Vec<Req> = (0..n * GW_ROUND)
            .map(|i| {
                let slot = (i % GW_ROUND) / per_tenant;
                let model = slot / 3;
                let is_hot = (i % per_tenant) < hot_per_tenant;
                Req {
                    model,
                    class: SloClass::ALL[slot % 3],
                    hot: is_hot,
                    input: self.draw(is_hot, model, &mut cold),
                }
            })
            .collect();
        self.finish(hot, reqs, cold)
    }

    fn draw(&mut self, hot: bool, model: usize, cold: &mut [usize; 2]) -> usize {
        if hot {
            self.rng.gen_range(0..GW_HOT_SET)
        } else {
            cold[model] += 1;
            cold[model] - 1
        }
    }

    fn finish(&mut self, hot: &Pools, reqs: Vec<Req>, cold: [usize; 2]) -> (Vec<Req>, Pools) {
        let pools = self.pools(cold);
        for &r in &reqs {
            let from = if r.hot { hot } else { &pools };
            match r.model {
                0 => self
                    .offered
                    .repeat(&models::image_key(&from.cnn.inputs[r.input])),
                _ => self.offered.repeat(&(1u8, &from.bert.inputs[r.input])),
            };
        }
        (reqs, pools)
    }
}

/// Poisson offsets covering `secs` seconds at `rate`.
fn poisson(seed: u64, rate: f64, secs: f64) -> Vec<Duration> {
    let n = ((rate * secs).ceil() as usize).max(1);
    ArrivalProcess::Poisson { seed }.schedule(n, rate)
}

/// The tenant and hot-set pick of each of the trace's `n` requests:
/// tenants round robin, the input from the hot set with probability
/// `GW_HOT_SHARE`. Drawn from `TRACE_SEED`, so every segment replays it.
fn trace_mix(n: usize) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(TRACE_SEED);
    (0..n)
        .map(|i| {
            let hot = rng.gen::<f64>() < GW_HOT_SHARE;
            Req {
                model: (i / 3) % 2,
                class: SloClass::ALL[i % 3],
                hot,
                input: if hot { rng.gen_range(0..GW_HOT_SET) } else { 0 },
            }
        })
        .collect()
}

/// The two gateways and their tenants (`tenants[model][class]`).
struct Front<'m> {
    cnn: ServeGateway<'m, ConvNet>,
    bert: ServeGateway<'m, TransformerClassifier>,
    tenants: [[TenantId; 3]; 2],
}

impl Front<'_> {
    fn submit(&self, r: Req, hot: &Pools, cold: &Pools) -> Result<Pending, ServeError> {
        let tenant = self.tenants[r.model][r.class.index()];
        let pools = if r.hot { hot } else { cold };
        match r.model {
            0 => self.cnn.submit(tenant, pools.cnn.inputs[r.input].clone()),
            _ => self.bert.submit(tenant, pools.bert.inputs[r.input].clone()),
        }
    }

    fn queued(&self) -> usize {
        self.cnn.queued() + self.bert.queued()
    }

    fn pump(&self) {
        self.cnn.pump();
        self.bert.pump();
    }
}

#[derive(Debug, Default)]
struct OpenResult {
    open: OpenLoop,
    /// Latency of admitted requests per SLO class, ms.
    by_class: [Samples; 3],
    /// Drain-round wall times, ms.
    pump: Samples,
    admitted: u64,
    shed: u64,
    /// Whole-model flushes and requests served, per model, and the LUT
    /// stages' engine time, over the segment.
    flushes: [u64; 2],
    served: [u64; 2],
    service_nanos: u64,
}

impl OpenResult {
    fn absorb(&mut self, other: OpenResult) {
        self.open.absorb(other.open);
        for (mine, theirs) in self.by_class.iter_mut().zip(&other.by_class) {
            mine.extend(theirs);
        }
        self.pump.extend(&other.pump);
        self.admitted += other.admitted;
        self.shed += other.shed;
        for m in 0..2 {
            self.flushes[m] += other.flushes[m];
            self.served[m] += other.served[m];
        }
        self.service_nanos += other.service_nanos;
    }
}

fn open_loop(
    front: &Front<'_>,
    reqs: &[Req],
    offsets: &[Duration],
    hot: &Pools,
    cold: &Pools,
    tracer: &Tracer,
    out: &mut Outcome,
) -> OpenResult {
    let mut res = OpenResult::default();
    let n = offsets.len();
    let before = (
        front.cnn.stats(),
        front.bert.stats(),
        front_stage_totals(front),
    );
    let t0 = Instant::now();
    let mut busy_until = t0;
    let mut last_done = t0;
    let mut inflight: Vec<(usize, Pending)> = Vec::new();
    let mut i = 0;
    let mut pumps = 0u64;
    let mut next_round = t0 + GW_ROUND_EVERY;
    loop {
        let now = Instant::now();
        while i < n && t0 + offsets[i] <= now {
            let due = t0 + offsets[i];
            res.open
                .lag
                .push_ms(Instant::now().saturating_duration_since(due.max(busy_until)));
            out.attempted += 1;
            let span = tracer.start();
            match front.submit(reqs[i], hot, cold) {
                Ok(h) => {
                    res.admitted += 1;
                    inflight.push((i, h));
                }
                Err(ServeError::Shed { .. }) => res.shed += 1,
                Err(_) => out.failed += 1,
            }
            tracer.end("submit", i as u64, None, span);
            i += 1;
        }
        // Drain rounds run on a fixed interval (a round that overran
        // skips the ticks it missed); admission sees what arrives between.
        if Instant::now() >= next_round {
            while next_round <= Instant::now() {
                next_round += GW_ROUND_EVERY;
            }
            if front.queued() == 0 {
                continue;
            }
            let span = tracer.start();
            let ps = Instant::now();
            front.pump();
            busy_until = Instant::now();
            res.pump.push_ms(busy_until - ps);
            let pump_span = tracer.end("pump", pumps, None, span);
            pumps += 1;
            inflight.retain(|(idx, h)| match h.try_wait() {
                Ok(None) => true,
                Ok(Some(row)) => {
                    let done = Instant::now();
                    let due = t0 + offsets[*idx];
                    let r = reqs[*idx];
                    res.open.served(*idx, done - due);
                    res.by_class[r.class.index()].push_ms(done - due);
                    res.open
                        .queue_wait
                        .push_ms(ps.saturating_duration_since(due));
                    tracer.record("request", *idx as u64, pump_span, due, done);
                    out.check(&row, if r.hot { hot } else { cold }.reference(r));
                    last_done = done;
                    false
                }
                Err(_) => {
                    out.failed += 1;
                    false
                }
            });
            continue;
        }
        if i >= n && front.queued() == 0 {
            break;
        }
        let wake = match offsets.get(i) {
            Some(off) => (t0 + *off).min(next_round),
            None => next_round,
        };
        wait_until(wake);
    }
    out.failed += inflight.len() as u64;
    let after = (
        front.cnn.stats(),
        front.bert.stats(),
        front_stage_totals(front),
    );
    res.flushes = [
        after.0.batches_run - before.0.batches_run,
        after.1.batches_run - before.1.batches_run,
    ];
    res.served = [
        after.0.rows_served - before.0.rows_served,
        after.1.rows_served - before.1.rows_served,
    ];
    res.service_nanos = after.2.since(&before.2).service_nanos;
    res.open.finish(offsets, t0, last_done);
    res
}

/// One set-up of `gateway_mixed`: convert both models, then register
/// both (engine builds) and six tenants.
pub fn setup_once() -> Duration {
    let t = Instant::now();
    let a = models::resnet();
    let b = models::transformer(false);
    let mut rt = models::runtime(GW_MEMO_ROWS);
    let front = register(&mut rt, &a, &b);
    let took = t.elapsed();
    drop(front);
    took
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let block_secs = args.seconds / BLOCKS as f64;
    let closed_budget = Duration::from_secs_f64(block_secs * (1.0 - OPEN_SHARE));

    // Set-up: a window of repeated set-ups, then the one that serves.
    let mut out = Outcome {
        setup: repeat_setup(setup_once),
        ..Outcome::default()
    };
    let t = Instant::now();
    let a = models::resnet();
    let b = models::transformer(false);
    let kmeans = a.kmeans + b.kmeans;
    let mut rt = models::runtime(GW_MEMO_ROWS);
    let tb = Instant::now();
    let front = register(&mut rt, &a, &b);
    let engine_build = tb.elapsed();
    out.setup.push(t.elapsed());
    out.set("convert.kmeans_s", kmeans.as_secs_f64());
    out.set("runtime.engine_build_ms", engine_build.as_secs_f64() * 1e3);
    let cache = rt.stats();
    out.set("engine_cache.hits", cache.hits as f64);
    out.set("engine_cache.misses", cache.misses as f64);
    out.note(format!(
        "setup: median {:.3}s of the {} set-ups before the run",
        median_secs(&out.setup),
        out.setup.len()
    ));

    // Reference sessions on instances of their own, on the same runtime
    // (so on the same cached engines).
    let (ra, rb) = (models::resnet(), models::transformer(false));
    let mut maker = Maker {
        rng: StdRng::seed_from_u64(args.seed ^ 0x6a7e),
        seen: Distinct::default(),
        offered: Distinct::default(),
        cnn: rt.serve(&ra.net, &ra.ps).build_model(),
        bert: rt.serve(&rb.net, &rb.ps).build_model(),
        made: 0,
        ref_time: Duration::ZERO,
    };
    let hot = maker.pools([GW_HOT_SET; 2]);

    let stage0 = front_stage_totals(&front);
    let s0 = (front.cnn.stats(), front.bert.stats());
    let mut open = OpenResult::default();
    // Closed-loop round times: GW_ROUND requests submitted, drained, read.
    let mut calls = Samples::new();
    let mut rate = Rate::new(1);
    let offsets = poisson(TRACE_SEED, GW_RATE, block_secs * OPEN_SHARE);
    let mix = trace_mix(offsets.len());
    for blk in 0..BLOCKS as u32 {
        let (reqs, cold) = maker.requests(&hot, &mix);
        open.absorb(open_loop(
            &front, &reqs, &offsets, &hot, &cold, tracer, &mut out,
        ));
        drop(cold);
        // Rounds until they have taken the segment's share of the time.
        let budget = closed_budget * (blk + 1);
        'segment: while rate.total < budget {
            let (reqs, cold) = maker.rounds(&hot, GW_CHUNK_ROUNDS);
            for round in reqs.chunks(GW_ROUND) {
                if rate.total >= budget {
                    break 'segment;
                }
                let ts = Instant::now();
                let mut handles = Vec::with_capacity(round.len());
                for &r in round {
                    out.attempted += 1;
                    match front.submit(r, &hot, &cold) {
                        Ok(h) => handles.push((r, h)),
                        Err(_) => out.failed += 1,
                    }
                }
                front.cnn.drain();
                front.bert.drain();
                let mut rows = Vec::with_capacity(handles.len());
                for (r, h) in handles {
                    match h.wait() {
                        Ok(row) => rows.push((r, row)),
                        Err(_) => out.failed += 1,
                    }
                }
                let dt = ts.elapsed();
                rate.add(rows.len(), dt);
                calls.push_ms(dt);
                for (r, row) in rows {
                    out.check(&row, if r.hot { &hot } else { &cold }.reference(r));
                }
            }
        }
    }
    out.shed += open.shed;
    out.note(format!(
        "references: {} solo evals in {:.2}s, made between segments",
        maker.made,
        maker.ref_time.as_secs_f64()
    ));
    out.note(format!(
        "open loop: {} requests at {GW_RATE}/s (Poisson) | admitted {} shed {} | keep-up {:.3}",
        open.admitted + open.shed,
        open.admitted,
        open.shed,
        open.open.keep_up
    ));
    open.open.report(
        &mut out,
        "of admitted requests from scheduled arrival",
        true,
    );
    out.set("gateway.admitted", open.admitted as f64);
    out.set("gateway.shed", open.shed as f64);
    for class in SloClass::ALL {
        out.set(
            format!("gateway.p99_ms.{}", class.as_str()),
            open.by_class[class.index()].tail().1,
        );
    }
    out.set("items_per_s", rate.fast());
    out.note(format!(
        "closed loop: {} rounds of {GW_ROUND} requests, median round {:.4} ms, fast-end rate {:.1}/s",
        calls.len(),
        calls.median(),
        rate.fast()
    ));
    out.set("bench.duplicate_share", maker.offered.share());
    let stage = front_stage_totals(&front).since(&stage0);
    stage.report_memo(&mut out);
    let s1 = (front.cnn.stats(), front.bert.stats());
    let flushes = (s1.0.batches_run - s0.0.batches_run) + (s1.1.batches_run - s0.1.batches_run);
    let served = (s1.0.rows_served - s0.0.rows_served) + (s1.1.rows_served - s0.1.rows_served);
    out.set(
        "session.batch_requests_mean",
        served as f64 / flushes.max(1) as f64,
    );
    out.note(format!(
        "memo: {} hits {} misses {} evictions | duplicate share {:.3}",
        stage.memo_hits,
        stage.memo_misses,
        stage.memo_evictions,
        maker.offered.share()
    ));

    if tracer.on() {
        out.set("session.flush_ms_p50", open.pump.median());
        out.set("session.flush_ms_p99", open.pump.tail().1);
        out.set("session.queue_wait_ms_p99", open.open.queue_wait.tail().1);
        let mut best = 0.0;
        for (r, &rate) in GW_LADDER.iter().enumerate() {
            let offsets = ArrivalProcess::Poisson {
                seed: TRACE_SEED + 1 + r as u64,
            }
            .schedule(RUNG_REQUESTS, rate);
            let (reqs, cold) = maker.requests(&hot, &trace_mix(offsets.len()));
            let res = open_loop(
                &front,
                &reqs,
                &offsets,
                &hot,
                &cold,
                &Tracer::new(false),
                &mut out,
            );
            let ok = res.open.meets(GW_LIMIT_MS, res.shed);
            out.note(format!(
                "  ladder {rate:>7.0}/s: p99 {:.3} ms shed {} keep-up {:.3} -> {}",
                res.open.latency.tail().1,
                res.shed,
                res.open.keep_up,
                if ok { "meets" } else { "misses" }
            ));
            if !ok {
                break;
            }
            best = rate;
        }
        out.set("ladder.max_rate_at_slo", best);

        // Probes run on the reference sessions' plans: the same cached
        // engines, behind stages with their own encode memos.
        let ta = probe::steps(
            &probe::lut_steps(maker.cnn.plan(), &hot.cnn.rows, 1),
            tracer,
            &mut out,
        );
        let tb = probe::steps(
            &probe::lut_steps(maker.bert.plan(), &hot.bert.rows, 1),
            tracer,
            &mut out,
        );
        // Both models' steps count toward the overall splits.
        probe::report_shares(
            &probe::Totals {
                encode_us: ta.encode_us + tb.encode_us,
                lookup_us: ta.lookup_us + tb.lookup_us,
                hop_us: ta.hop_us + tb.hop_us,
                ccm_busy: ta.ccm_busy + tb.ccm_busy,
                imm_busy: ta.imm_busy + tb.imm_busy,
            },
            &mut out,
        );
        // Per pump round of the open-loop phase: engine time scales with
        // the requests served, stage hops with the flushes run.
        let pumps = open.pump.len().max(1) as f64;
        let engine_ms = ((ta.encode_us + ta.lookup_us) * open.served[0] as f64
            + (tb.encode_us + tb.lookup_us) * open.served[1] as f64)
            / 1e3
            / pumps;
        let hop_ms =
            (ta.hop_us * open.flushes[0] as f64 + tb.hop_us * open.flushes[1] as f64) / 1e3 / pumps;
        crate::account(
            &mut out,
            open.pump.mean(),
            Some(open.service_nanos as f64 / 1e6 / pumps),
            engine_ms,
            hop_ms,
        );
    }
    out
}

fn front_stage_totals(front: &Front<'_>) -> StageTotals {
    let mut stats: Vec<StageStats> = Vec::new();
    if let Some(id) = front.cnn.model_id("resnet20_mini") {
        stats.extend(front.cnn.stage_stats(id).into_iter().map(|(_, s)| s));
    }
    if let Some(id) = front.bert.model_id("distilbert_mini") {
        stats.extend(front.bert.stage_stats(id).into_iter().map(|(_, s)| s));
    }
    StageTotals::of(&stats)
}

/// Class defaults, except best effort: a 2-deep queue drained one request
/// per round, so it sheds once arrivals outpace the rounds.
fn policy(class: SloClass) -> ClassPolicy {
    match class {
        SloClass::BestEffort => ClassPolicy {
            max_queue: GW_BE_QUEUE,
            batch: BatchPolicy::Static(BatchOptions::immediate(1)),
            shed_deadline: None,
        },
        _ => class.default_policy(),
    }
}

fn register<'m>(
    rt: &mut lutdla_lutboost::LutRuntime,
    a: &'m models::Converted<ConvNet>,
    b: &'m models::Converted<TransformerClassifier>,
) -> Front<'m> {
    let opts = GatewayOptions::new(rt.config());
    let mut cnn = ServeGateway::new(opts);
    let mut bert = ServeGateway::new(opts);
    let ma = cnn.register_model(rt, "resnet20_mini", &a.net, &a.ps);
    let mb = bert.register_model(rt, "distilbert_mini", &b.net, &b.ps);
    let tenants = [
        SloClass::ALL.map(|c| cnn.register_tenant_with(&format!("resnet_{c}"), ma, c, policy(c))),
        SloClass::ALL.map(|c| bert.register_tenant_with(&format!("bert_{c}"), mb, c, policy(c))),
    ];
    Front { cnn, bert, tenants }
}
