//! Per-LUT-step probes for the traced run: the similarity walk
//! (`encode_packed`) and the table lookup (`run_from_packed`) timed on
//! each step's cached engine, the stage hop (`submit_rows(..).wait()`
//! minus a direct `run_batch` on the same rows), and the cycle
//! simulator's predicted split (`simulate_gemm`) for the same shape.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lutdla_lutboost::UnitPlan;
use lutdla_sim::{simulate_gemm, Gemm, SimConfig};
use lutdla_tensor::Tensor;
use lutdla_vq::{lock_engine, MicroBatcher, SharedEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{median_us, Outcome, Samples};
use crate::trace::Tracer;

/// Repetition floor and time budget of one engine probe.
const REPS: usize = 15;
const BUDGET: Duration = Duration::from_millis(40);
/// Distinct row blocks the hop probe sends through each stage.
const HOP_BLOCKS: usize = 16;

/// One LUT step to probe, with the row counts one request gives it.
pub struct Step {
    pub name: String,
    pub engine: SharedEngine,
    /// The stage batcher in front of the engine (absent on decode plans).
    pub stage: Option<Arc<MicroBatcher>>,
    /// Rows the similarity walk sees per request.
    pub encode_rows: usize,
    /// Rows the lookup replays per request (the whole prefix on decode).
    pub lookup_rows: usize,
}

/// The LUT steps of a whole-model plan, in plan order, each given
/// `rows[i]` rows per request (the rows its stage saw per input, times
/// the inputs one request carries).
pub fn lut_steps(plan: &[UnitPlan], rows: &[usize], inputs_per_request: usize) -> Vec<Step> {
    plan.iter()
        .filter_map(|p| match p {
            UnitPlan::Lut {
                name,
                engine,
                stage,
            } => Some((name.clone(), Arc::clone(engine), Arc::clone(stage))),
            UnitPlan::Dense { .. } => None,
        })
        .zip(rows)
        .map(|((name, engine, stage), &r)| Step {
            name,
            engine,
            stage: Some(stage),
            encode_rows: r * inputs_per_request,
            lookup_rows: r * inputs_per_request,
        })
        .collect()
}

/// Per-request totals over every probed step, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub encode_us: f64,
    pub lookup_us: f64,
    pub hop_us: f64,
    /// Simulated CCM and IMM busy cycles.
    pub ccm_busy: u64,
    pub imm_busy: u64,
}

/// Probes every step, records the per-step metrics, prints the measured
/// walk share beside the simulator's CCM share, and returns the totals.
pub fn steps(steps: &[Step], tracer: &Tracer, out: &mut Outcome) -> Totals {
    let mut rng = StdRng::seed_from_u64(0x9a0be);
    let sim_cfg = SimConfig::baseline();
    let mut totals = Totals::default();
    for (i, step) in steps.iter().enumerate() {
        let id = i as u64;
        let (k, n) = {
            let e = lock_engine(&step.engine);
            (e.input_dim(), e.output_dim())
        };
        let x = Tensor::randn(&mut rng, &[step.encode_rows, k], 1.0);
        let x_lookup = Tensor::randn(&mut rng, &[step.lookup_rows, k], 1.0);
        let (encode_us, lookup_us) = {
            let mut e = lock_engine(&step.engine);
            let encode_us = median_us(REPS, BUDGET, || {
                let s = tracer.start();
                black_box(e.encode_packed(black_box(&x)));
                tracer.end("encode_packed", id, None, s);
            });
            let packed = e.encode_packed(&x_lookup);
            let lookup_us = median_us(REPS, BUDGET, || {
                let s = tracer.start();
                let r = e.run_from_packed(black_box(&packed));
                tracer.end("run_from_packed", id, None, s);
                black_box(r.expect("codes packed by the same engine"));
            });
            (encode_us, lookup_us)
        };
        let hop_us = match &step.stage {
            Some(stage) => {
                // Distinct rows on every call, so a stage with an encode
                // memo pays its miss path as cold traffic does.
                let blocks: Vec<Tensor> = (0..HOP_BLOCKS)
                    .map(|_| Tensor::randn(&mut rng, &[step.encode_rows, k], 1.0))
                    .collect();
                let mut via_stage = Samples::new();
                let mut direct = Samples::new();
                for block in &blocks {
                    let t = Instant::now();
                    let s = tracer.start();
                    let rows = stage
                        .submit_rows(block.data())
                        .and_then(|p| p.wait())
                        .expect("stage batcher alive");
                    tracer.end("submit_rows", id, None, s);
                    via_stage.push(t.elapsed().as_secs_f64() * 1e6);
                    black_box(rows);
                    let t = Instant::now();
                    black_box(lock_engine(&step.engine).run_batch(block));
                    direct.push(t.elapsed().as_secs_f64() * 1e6);
                }
                via_stage.median() - direct.median()
            }
            None => 0.0,
        };
        let s = tracer.start();
        let sim = simulate_gemm(&sim_cfg, &Gemm::new(step.encode_rows, k, n));
        tracer.end("simulate_gemm", id, None, s);
        totals.ccm_busy += sim.ccm_busy;
        totals.imm_busy += sim.imm_busy;

        let name = &step.name;
        out.set(format!("engine.encode_us.{name}"), encode_us);
        out.set(format!("engine.lookup_us.{name}"), lookup_us);
        out.set(format!("stage.hop_us.{name}"), hop_us);
        out.set(format!("sim.ccm_busy.{name}"), sim.ccm_busy as f64);
        out.set(format!("sim.imm_busy.{name}"), sim.imm_busy as f64);
        out.set(format!("sim.cycles.{name}"), sim.cycles as f64);
        out.note(format!(
            "  step {name:<14} rows {:>5}x{k:<3}->{n:<3} encode {encode_us:>9.2}us lookup {lookup_us:>9.2}us hop {hop_us:>8.2}us | walk share {:.3} vs sim ccm:imm {}:{} (share {:.3})",
            step.encode_rows,
            share(encode_us, lookup_us),
            sim.ccm_busy,
            sim.imm_busy,
            share(sim.ccm_busy as f64, sim.imm_busy as f64),
        ));
        totals.encode_us += encode_us;
        totals.lookup_us += lookup_us;
        totals.hop_us += hop_us;
    }
    report_shares(&totals, out);
    totals
}

/// Records the measured walk share beside the simulator's CCM share.
pub fn report_shares(t: &Totals, out: &mut Outcome) {
    out.set("engine.walk_share", share(t.encode_us, t.lookup_us));
    out.set("sim.ccm_share", share(t.ccm_busy as f64, t.imm_busy as f64));
}

fn share(a: f64, b: f64) -> f64 {
    if a + b > 0.0 {
        a / (a + b)
    } else {
        0.0
    }
}
