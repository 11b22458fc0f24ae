//! What every workload is made of: the seeded data stream, the pinned
//! model configuration, timed training stages and timed publishes.

use crate::stats::fnv64;
use cerl::prelude::*;
use std::time::Instant;

/// Domains in the stream; the set-up fits domain 0.
pub const DOMAINS: usize = 4;

/// Sizes of one benchmark run. `full` is what the benchmark measures;
/// `tiny` only proves the metric plumbing in the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Units per synthetic domain (60% of them train).
    pub units: usize,
    /// Epochs per stage. Early stopping is off, so every stage runs
    /// exactly this many and `train_s` moves with speed only.
    pub epochs: usize,
    pub phi_warmup_steps: usize,
    /// Memory budget `M` (herding keeps this many representations).
    pub memory: usize,
    /// Independent set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Serving workloads: extra timed domain-1 stages, spread between
    /// the traffic windows, that `train_s` also takes its best from.
    pub retrains: usize,
    /// Repetitions of each timed single-layer call.
    pub micro_reps: usize,
    /// Fresh held-out units per domain that √PEHE is measured on.
    pub eval_units: usize,
}

impl Scale {
    /// Quick scale: 800 units per domain (480 train), memory 400.
    pub fn full() -> Self {
        Self {
            units: 800,
            epochs: 36,
            phi_warmup_steps: 150,
            memory: 400,
            setup_reps: 3,
            retrains: 8,
            micro_reps: 15,
            eval_units: 2000,
        }
    }

    pub fn tiny() -> Self {
        Self {
            units: 120,
            epochs: 2,
            phi_warmup_steps: 4,
            memory: 40,
            setup_reps: 1,
            retrains: 2,
            micro_reps: 2,
            eval_units: 200,
        }
    }
}

/// The §IV.C generator at quick-scale noise and shift.
fn generator(units: usize, seed: u64) -> SyntheticGenerator {
    let cfg = SyntheticConfig {
        n_units: units,
        noise_sd: 0.4,
        mean_shift_scale: 1.0,
        sd_range: (0.5, 1.5),
        ..SyntheticConfig::default()
    };
    SyntheticGenerator::new(cfg, seed)
}

/// The seeded 4-domain synthetic stream.
pub fn stream(scale: &Scale, seed: u64) -> DomainStream {
    DomainStream::synthetic(&generator(scale.units, seed), DOMAINS, 0, seed)
}

/// Per domain, `scale.eval_units` fresh units from the same domain
/// distribution and causal mechanism as the stream (drawn past the
/// stream's own units), so √PEHE does not ride on a small test split.
pub fn eval_sets(scale: &Scale, seed: u64) -> Vec<CausalDataset> {
    let gen = generator(scale.units + scale.eval_units, seed);
    let fresh: Vec<usize> = (scale.units..scale.units + scale.eval_units).collect();
    (0..DOMAINS)
        .map(|d| gen.domain(d, 0).select(&fresh))
        .collect()
}

/// Quick-scale CERL configuration with early stopping disabled.
pub fn config(scale: &Scale) -> CerlConfig {
    CerlConfig {
        net: NetConfig {
            repr_hidden: vec![64],
            repr_dim: 32,
            head_hidden: vec![32],
            transform_hidden: vec![64],
            ..NetConfig::default()
        },
        train: TrainConfig {
            epochs: scale.epochs,
            batch_size: 64,
            learning_rate: 2e-3,
            clip_norm: 5.0,
            patience: 0,
            memory_batch_size: 64,
            phi_warmup_steps: scale.phi_warmup_steps,
        },
        memory_size: scale.memory,
        ..CerlConfig::default()
    }
}

pub fn engine(scale: &Scale, seed: u64) -> CerlEngine {
    CerlEngineBuilder::new(config(scale))
        .seed(seed)
        .build()
        .expect("the pinned configuration validates")
}

/// One timed `observe` call.
#[derive(Debug, Clone, Copy)]
pub struct StageTime {
    pub secs: f64,
    pub epochs: usize,
    /// Optimizer steps: epochs × mini-batches, plus the φ warm-up steps
    /// of a continual stage.
    pub steps: usize,
}

/// Mini-batches per epoch over `n` rows (a 1-row tail merges into the
/// previous batch).
fn batches(n: usize, batch: usize) -> usize {
    let b = n.div_ceil(batch);
    if b >= 2 && n % batch == 1 {
        b - 1
    } else {
        b
    }
}

pub fn observe(engine: &mut CerlEngine, stream: &DomainStream, d: usize) -> StageTime {
    let data = stream.domain(d);
    let continual = engine.stage() > 0;
    let t = Instant::now();
    let report = engine
        .observe(&data.train, &data.val)
        .expect("synthetic domains are well-formed");
    let secs = t.elapsed().as_secs_f64();
    let cfg = &engine.config().train;
    let warmup = if continual { cfg.phi_warmup_steps } else { 0 };
    StageTime {
        secs,
        epochs: report.train.epochs_run,
        steps: report.train.epochs_run * batches(data.train.n(), cfg.batch_size) + warmup,
    }
}

/// One timed publish: binary snapshot save, then a warm swap.
#[derive(Debug, Clone, Copy)]
pub struct Publish {
    pub save_ms: f64,
    pub swap_ms: f64,
    pub bytes: usize,
    /// Digest of the published snapshot bytes.
    pub digest: u64,
    /// When the swap started and returned.
    pub window: (Instant, Instant),
}

pub fn publish(serving: &ServingEngine, engine: &CerlEngine) -> Publish {
    let t = Instant::now();
    let bytes = engine
        .save_bytes_binary(SnapshotPayload::F64)
        .expect("a trained engine saves");
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    serving
        .swap_snapshot_bytes_warm(&bytes)
        .expect("a freshly saved snapshot restores");
    let end = Instant::now();
    Publish {
        save_ms,
        swap_ms: (end - start).as_secs_f64() * 1e3,
        bytes: bytes.len(),
        digest: fnv64(&bytes),
        window: (start, end),
    }
}

/// Mean √PEHE of `engine` over the evaluation sets of `domains`.
pub fn pehe(engine: &CerlEngine, evals: &[CausalDataset], domains: &[usize]) -> f64 {
    let total: f64 = domains
        .iter()
        .map(|&d| {
            let ite = engine
                .predict_ite(&evals[d].x)
                .expect("trained engine predicts");
            EffectMetrics::on_dataset(&evals[d], &ite).sqrt_pehe
        })
        .sum();
    total / domains.len() as f64
}

/// SplitMix64: the benchmark's own seeded generator for request shapes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `count` requests of `rows` rows each, drawn from every domain's test
/// split; `tag` picks each row's domain tag.
pub fn requests(
    stream: &DomainStream,
    rng: &mut SplitMix,
    count: usize,
    rows: usize,
    mut tag: impl FnMut(&mut SplitMix) -> u64,
) -> Vec<(Vec<u64>, Matrix)> {
    let dim = stream.domain(0).test.dim();
    (0..count)
        .map(|_| {
            let mut data = Vec::with_capacity(rows * dim);
            let tags = (0..rows)
                .map(|_| {
                    let test = &stream.domain(rng.below(DOMAINS)).test;
                    data.extend_from_slice(test.x.row(rng.below(test.n())));
                    tag(rng)
                })
                .collect();
            (tags, Matrix::from_vec(rows, dim, data))
        })
        .collect()
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
