//! Per-workload constants: offered rates, rate ladders, latency limits,
//! input-sharing shares and input chunk sizes. They were fixed once
//! from the capacity of the code the benchmark was introduced against
//! (one pinned CPU of a 2-vCPU host) and are never recalibrated during a
//! run, so two commits are offered the same load. `BENCHMARK.json`
//! quotes them in each workload's `why`.
//!
//! A closed-loop segment runs until its serving calls have taken its
//! share of `--seconds`; its inputs and references are made in chunks
//! between the calls.

use std::time::Duration;

use lutdla_vq::{BatchOptions, BatchPolicy};

/// Set-ups per window: at least `SETUP_REPS`, and more until
/// `SETUP_SECS` have passed, so a quick set-up is sampled over as long a
/// stretch of host time as a slow one. An end-to-end run has two windows,
/// one before the workload and one after it has released everything;
/// `setup_s` is the median over both.
pub const SETUP_REPS: usize = 4;
pub const SETUP_SECS: f64 = 1.5;

/// Seed of the Poisson arrival trace (and tenant mix) every open-loop
/// segment of `gateway_mixed` replays. The trace is the same in every
/// segment of every run, so two commits are offered the same load and a
/// request's latency compares with the same request's in other replays;
/// `--seed` chooses the inputs.
pub const TRACE_SEED: u64 = 0x7ace;

/// Blocks the measured time is cut into. Each block runs an open-loop
/// segment (where the workload has one) and then a closed-loop segment,
/// so both phases sample the whole run.
pub const BLOCKS: usize = 40;

/// Fast-end quantiles of the end-to-end figures (see `measure::Rate` and
/// `OpenLoop::report`): `items_per_s` is the `FAST_RATE_Q` quantile of
/// the per-window completion rates. `p50_ms` is, where every open-loop
/// segment replays one arrival trace, the median over the trace's
/// requests of each request's `FAST_LATENCY_Q` quantile over the
/// segments; on `cnn_batch`, the `FAST_LATENCY_Q` quantile of the call
/// latencies.
pub const FAST_RATE_Q: f64 = 0.98;
pub const FAST_LATENCY_Q: f64 = 0.02;

/// Share of each block spent on the open-loop segment of `gpt_decode`
/// and `gateway_mixed`; the rest goes to the closed-loop segment.
pub const OPEN_SHARE: f64 = 0.7;

/// Requests per rung of a traced run's rate ladder: enough that p99 has
/// ten samples beyond it. Each rung gets fresh inputs and references.
pub const RUNG_REQUESTS: usize = 1000;

/// Whole-model front-door policy of the `cnn_batch` session.
pub const CNN_POLICY: BatchPolicy = BatchPolicy::Static(BatchOptions {
    max_batch: 64,
    max_delay: Duration::from_millis(1),
});

/// `cnn_batch`: images per closed-loop `run`.
pub const CNN_BATCH: usize = 32;
/// Images made (with references) at a time for the `cnn_batch` loop.
pub const CNN_CHUNK: usize = 128;

/// `gpt_decode`: concurrent streams, nominal fixed step rate, ladder,
/// per-token p99 limit, and the steps whose sequences and references are
/// made at a time in the closed loop.
pub const GPT_STREAMS: usize = 4;
pub const GPT_RATE: f64 = 4000.0;
pub const GPT_LADDER: [f64; 4] = [6000.0, 12000.0, 18000.0, 24000.0];
pub const GPT_LIMIT_MS: f64 = 5.0;
pub const GPT_CHUNK: usize = 1024;

/// `gateway_mixed`: nominal Poisson rate over six tenants, the fixed drain
/// round interval, ladder, p99 limit, best-effort queue depth (drained one
/// request per round, so each best-effort tenant takes at most 50/s and
/// sheds at its nominal 67/s), share of requests drawn from the hot set, hot-set
/// size per model, per-stage memo rows, the closed-loop round size, and
/// the rounds whose inputs and references are made at a time.
pub const GW_RATE: f64 = 400.0;
pub const GW_ROUND_EVERY: Duration = Duration::from_millis(20);
pub const GW_LADDER: [f64; 4] = [150.0, 300.0, 500.0, 700.0];
pub const GW_LIMIT_MS: f64 = 40.0;
pub const GW_BE_QUEUE: usize = 2;
pub const GW_HOT_SHARE: f64 = 0.5;
pub const GW_HOT_SET: usize = 8;
pub const GW_MEMO_ROWS: usize = 4096;
pub const GW_ROUND: usize = 12;
pub const GW_CHUNK_ROUNDS: usize = 32;
