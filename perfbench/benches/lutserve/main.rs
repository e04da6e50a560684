//! The repository benchmark: three LUT serving workloads driven through
//! the public serving API, one workload per process.
//!
//! ```text
//! python3 perfbench/run.py --workload <cnn_batch|gpt_decode|gateway_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this bench target and runs it pinned to one CPU. Load
//! comes from this one thread. Pinned, the process sees one CPU, so the
//! engine pool has one worker and the engine runs its kernels inline on
//! the calling thread: the benchmark measures the single-worker engine
//! path, not the multi-worker `WorkerPool` split. Every served response
//! is checked bit for bit against a solo evaluation of the same input,
//! made between the measured segments.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the same workload runs with spans
//! recorded in memory around every call into the serving layers, then
//! probes each LUT step and runs the rate ladder, and the metrics are the
//! per-layer ones (spans are written to `trace_out/`). The command exits
//! non-zero when any response is wrong or lost.

mod cnn;
mod decode;
mod gateway;
mod measure;
mod models;
mod plan;
mod probe;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::Outcome;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["cnn_batch", "gpt_decode", "gateway_mixed"];

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`. The
/// latency tail is printed with its sample count on every run and reported
/// as the per-layer `latency.p99_ms`, but not gated: on a shared 2-vCPU
/// host it is set by two or three stall events per run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// LUT steps of the served models, for the per-step metric names.
const RESNET_STEPS: [&str; 5] = [
    "s1.b0.conv1",
    "s1.b0.conv2",
    "s2.b0.conv1",
    "s2.b0.conv2",
    "s2.b0.down",
];
const TRANSFORMER_STEPS: [&str; 5] = [
    "block0.wk",
    "block0.wv",
    "block0.wo",
    "block0.ff1",
    "block0.ff2",
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer a
/// workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("driver.lag_p99_ms", "ms"),
        ("bench.latency_samples", "count"),
        ("latency.p99_ms", "ms"),
        ("latency.p99_beyond", "count"),
        ("bench.duplicate_share", "ratio"),
        ("bench.error_ratio", "ratio"),
        ("bench.nproc", "count"),
        ("bench.workers", "count"),
        ("ladder.max_rate_at_slo", "1/s"),
        ("session.flush_ms_p50", "ms"),
        ("session.flush_ms_p99", "ms"),
        ("session.queue_wait_ms_p99", "ms"),
        ("session.batch_requests_mean", "count"),
        ("engine.walk_share", "ratio"),
        ("sim.ccm_share", "ratio"),
        ("forward.flush_ms", "ms"),
        ("forward.engine_ms", "ms"),
        ("forward.hop_ms", "ms"),
        ("forward.dense_glue_ms", "ms"),
        ("accounted_ratio", "ratio"),
        ("unaccounted_ms", "ms"),
        ("memo.hit_ratio", "ratio"),
        ("memo.evictions", "count"),
        ("engine_cache.hits", "count"),
        ("engine_cache.misses", "count"),
        ("runtime.engine_build_ms", "ms"),
        ("convert.kmeans_s", "s"),
        ("gateway.admitted", "count"),
        ("gateway.shed", "count"),
        ("gateway.p99_ms.latency", "ms"),
        ("gateway.p99_ms.throughput", "ms"),
        ("gateway.p99_ms.best_effort", "ms"),
        ("decode.reused_rows", "count"),
        ("decode.walked_rows", "count"),
        ("decode.step_us_slope", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for step in RESNET_STEPS.iter().chain(&TRANSFORMER_STEPS) {
        for (prefix, unit) in [
            ("engine.encode_us", "us"),
            ("engine.lookup_us", "us"),
            ("stage.hop_us", "us"),
            ("sim.ccm_busy", "cycles"),
            ("sim.imm_busy", "cycles"),
            ("sim.cycles", "cycles"),
        ] {
            m.push((format!("{prefix}.{step}"), unit));
        }
    }
    m
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // `cargo bench` appends `--bench` to the harness arguments.
        if flag == "--bench" {
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Splits one flush's wall time. The measured parts are the LUT engine
/// time and the stage hops, both timed by the probes; `accounted_ratio`
/// is their share of the wall time and `unaccounted_ms` the rest. The
/// dense layers run inside the model's forward, where the public API
/// cannot time them, so `forward.dense_glue_ms` is derived, not measured:
/// wall time minus the program's own engine-service counter and the hops,
/// or minus the probed engine time where a plan has no such counter
/// (decode).
pub fn account(
    out: &mut Outcome,
    wall_ms: f64,
    service_ms: Option<f64>,
    engine_ms: f64,
    hop_ms: f64,
) {
    let accounted = engine_ms + hop_ms;
    let glue = wall_ms - service_ms.unwrap_or(engine_ms) - hop_ms;
    out.set("forward.flush_ms", wall_ms);
    out.set("forward.engine_ms", engine_ms);
    out.set("forward.hop_ms", hop_ms);
    out.set("forward.dense_glue_ms", glue);
    out.set(
        "accounted_ratio",
        if wall_ms > 0.0 {
            accounted / wall_ms
        } else {
            0.0
        },
    );
    out.set("unaccounted_ms", wall_ms - accounted);
    let service = match service_ms {
        Some(ms) => format!("engine service counter {ms:.4}"),
        None => "no service counter, probe-derived".to_string(),
    };
    out.note(format!(
        "accounting per flush: wall {wall_ms:.4} ms = engine {engine_ms:.4} + hops {hop_ms:.4} (probed) + unaccounted {:.4} | derived dense/glue {glue:.4} ({service})",
        wall_ms - accounted
    ));
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lutserve: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    println!(
        "lutserve: workload {} seed {} seconds {} trace {} | nproc {} workers {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        models::nproc(),
        models::workers()
    );
    let mut out = match args.workload.as_str() {
        "cnn_batch" => cnn::run(&args, &tracer),
        "gpt_decode" => decode::run(&args, &tracer),
        _ => gateway::run(&args, &tracer),
    };
    if !args.trace {
        // The second window of set-ups, now that the workload has
        // released everything, so `setup_s` samples the host at both
        // ends of the run.
        let again: fn() -> Duration = match args.workload.as_str() {
            "cnn_batch" => cnn::setup_once,
            "gpt_decode" => decode::setup_once,
            _ => gateway::setup_once,
        };
        out.setup.extend(measure::repeat_setup(again));
        out.set("setup_s", measure::median_secs(&out.setup));
        out.note(format!(
            "setup: median {:.4}s of {} set-ups before and after the run",
            measure::median_secs(&out.setup),
            out.setup.len()
        ));
    }
    out.set("peak_rss_mb", measure::peak_rss_mb());
    out.set("bench.nproc", models::nproc() as f64);
    out.set("bench.workers", models::workers() as f64);
    let errors = out.failed + out.mismatched;
    out.set(
        "bench.error_ratio",
        (errors + out.shed) as f64 / out.attempted.max(1) as f64,
    );
    let get = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    println!(
        "result: attempted {} failed {} mismatched {} shed {} | driver lag p99 {:.4} ms | duplicate share {:.3} memo hit ratio {:.3} | peak rss {:.1} MiB",
        out.attempted,
        out.failed,
        out.mismatched,
        out.shed,
        get("driver.lag_p99_ms"),
        get("bench.duplicate_share"),
        get("memo.hit_ratio"),
        get("peak_rss_mb"),
    );

    let names: Vec<(String, &str)> = if args.trace {
        let path =
            PathBuf::from("trace_out").join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(summary) => {
                for line in summary {
                    println!("{line}");
                }
                println!("spans written to {}", path.display());
            }
            Err(e) => eprintln!("lutserve: writing {}: {e}", path.display()),
        }
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for (name, _) in &names {
        if !out.metrics.contains_key(name) {
            out.metrics.insert(name.clone(), 0.0);
        }
    }
    if args.trace {
        for (name, unit) in &names {
            println!("  {name:<34} {:>16.6} {unit}", out.metrics[name]);
        }
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(out.metrics[name])
            )
        })
        .collect();
    let correct = errors == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {errors}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
