//! The served models (converted once per set-up), the runtime they run
//! on, and the seeded request pools.
//!
//! Model weights, LUTBoost calibration and the arrival traces use fixed
//! seeds, so every run serves the same program under the same load; only
//! the request inputs come from `--seed`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use lutdla_lutboost::{
    lutify_convnet, lutify_transformer, CentroidInit, ConvertPolicy, DeployConfig, LutConfig,
    LutRuntime, ModelSession, RuntimeOptions,
};
use lutdla_models::trainable::{
    distilbert_mini, gpt_mini, resnet20_mini, ConvNet, ServableModel, TransformerClassifier,
};
use lutdla_nn::ParamSet;
use lutdla_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Logit width of every served model.
pub const CLASSES: usize = 10;
/// Seed of the calibration batch LUTBoost clusters (fixed: the program
/// under test does not change with `--seed`).
const CALIB_SEED: u64 = 0x1d1a;
/// Image side and channels of `resnet20_mini`.
pub const IMAGE: [usize; 3] = [3, 16, 16];
/// Token vocabulary and maximum sequence length of the transformer proxies.
pub const VOCAB: usize = 64;
pub const SEQ: usize = 16;

/// A converted model with the time its LUTBoost conversion took.
pub struct Converted<M> {
    pub ps: ParamSet,
    pub net: M,
    pub kmeans: Duration,
}

/// `resnet20_mini`, converted by k-means LUTBoost on 16 calibration images.
pub fn resnet() -> Converted<ConvNet> {
    let mut rng = StdRng::seed_from_u64(CALIB_SEED);
    let mut ps = ParamSet::new();
    let mut net = resnet20_mini(&mut ps, CLASSES);
    let calib = Tensor::randn(&mut rng, &[16, IMAGE[0], IMAGE[1], IMAGE[2]], 1.0);
    let t = Instant::now();
    let _ = lutify_convnet(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        calib,
        &mut rng,
    );
    Converted {
        ps,
        net,
        kmeans: t.elapsed(),
    }
}

/// `gpt_mini` (causal) or `distilbert_mini` (bidirectional), converted on
/// eight calibration sequences.
pub fn transformer(causal: bool) -> Converted<TransformerClassifier> {
    let mut rng = StdRng::seed_from_u64(CALIB_SEED ^ causal as u64);
    let mut ps = ParamSet::new();
    let mut net = if causal {
        gpt_mini(&mut ps, CLASSES)
    } else {
        distilbert_mini(&mut ps, CLASSES)
    };
    let batch = 8;
    let tokens: Vec<usize> = (0..batch * SEQ).map(|_| rng.gen_range(0..VOCAB)).collect();
    let t = Instant::now();
    let _ = lutify_transformer(
        &mut net,
        &mut ps,
        LutConfig::default(),
        CentroidInit::Kmeans,
        ConvertPolicy::default(),
        &tokens,
        batch,
        SEQ,
        &mut rng,
    );
    Converted {
        ps,
        net,
        kmeans: t.elapsed(),
    }
}

/// Hardware threads visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine pool width: the runtime default, capped at `nproc - 1` so the
/// single driver thread keeps a core of its own (at least one worker).
/// Under `run.py`, which pins the process to one CPU, this is 1.
pub fn workers() -> usize {
    lutdla_vq::default_workers()
        .min(nproc().saturating_sub(1))
        .max(1)
}

/// A bf16/int8 runtime with the pool sized by [`workers`], room in the
/// engine cache for every model instance a workload serves, and an
/// encode memo of `memo_rows` rows per stage (0 = off).
pub fn runtime(memo_rows: usize) -> LutRuntime {
    LutRuntime::with_options(
        DeployConfig::bf16_int8(),
        RuntimeOptions {
            workers: workers(),
            cache_capacity: 64,
            memo_rows,
            ..RuntimeOptions::default()
        },
    )
}

/// Solo reference logits, each input alone through `submit` + `flush`,
/// and the rows each LUT stage saw per input (in plan order).
pub fn references<M: ServableModel>(
    session: &ModelSession<'_, M>,
    inputs: &[M::Input],
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let rows_served = || -> Vec<usize> {
        session
            .stage_stats()
            .iter()
            .map(|(_, s)| s.rows_served)
            .collect()
    };
    let before = rows_served();
    let refs = inputs
        .iter()
        .map(|x| {
            let h = session.submit(x.clone()).expect("valid input");
            session.flush();
            h.wait().expect("solo reference resolves")
        })
        .collect();
    let rows = rows_served()
        .iter()
        .zip(&before)
        .map(|(now, prev)| (now - prev) / inputs.len().max(1))
        .collect();
    (refs, rows)
}

/// `n` random images, none of them in `seen` (which records them).
pub fn images(rng: &mut StdRng, n: usize, seen: &mut Distinct) -> Vec<Tensor> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let img = Tensor::randn(rng, &IMAGE, 1.0);
        if !seen.repeat(&image_key(&img)) {
            out.push(img);
        }
    }
    out
}

/// `n` random token sequences of length `len`, none of them in `seen`
/// (which records them).
pub fn sequences(rng: &mut StdRng, n: usize, len: usize, seen: &mut Distinct) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let seq: Vec<usize> = (0..len).map(|_| rng.gen_range(0..VOCAB)).collect();
        if !seen.repeat(&seq) {
            out.push(seq);
        }
    }
    out
}

/// Bit-exact identity of an image, for duplicate accounting.
pub fn image_key(img: &Tensor) -> Vec<u32> {
    img.data().iter().map(|x| x.to_bits()).collect()
}

/// Counts inputs seen before. Inputs are made a block at a time and
/// dropped after it, so one `Distinct` carried across the blocks keeps a
/// run free of repeats; another, fed what was offered, measures the
/// duplicate share.
#[derive(Debug, Default)]
pub struct Distinct {
    seen: HashSet<u64>,
    offered: u64,
    repeats: u64,
}

impl Distinct {
    /// Records one offered input; returns whether it repeats an earlier one.
    pub fn repeat<K: Hash>(&mut self, key: &K) -> bool {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.offered += 1;
        let repeat = !self.seen.insert(h.finish());
        self.repeats += repeat as u64;
        repeat
    }

    pub fn share(&self) -> f64 {
        self.repeats as f64 / self.offered.max(1) as f64
    }
}
