//! Golden digests: every model bit the workspace produces, pinned.
//!
//! A tiny seeded 3-domain CERL run and a CFR baseline are trained afresh,
//! and FNV-1a 64 digests of their outputs on fixed rows are compared
//! against constants:
//!
//! * `predict_ite` and the potential outcomes, in f64 and f32 precision;
//! * `embed` (the learned representations) on the same rows;
//! * the F64 snapshot container bytes of the trained CERL engine;
//! * the S- and T-learner ITEs on the same rows;
//! * every stage's [`TrainReport`] (`epochs_run` and the bits of both
//!   losses), which pins the training loop's epoch count and its loss
//!   bookkeeping, not only where the parameters end up.
//!
//! A second test trains a CFR model with a patience low enough that early
//! stopping fires, pinning the break and the best-parameter restore.
//!
//! **Contract.** The digests are equal across FMA-capable x86-64 builds
//! linked against one glibc: the AVX-512 and the portable GEMM tiles
//! produce the same bits, and the only floating-point code outside the
//! workspace is libm's `exp`/`ln`/`tanh`, which glibc fixes. A refactor
//! that claims to change no model bit must leave every pin untouched; a
//! deliberate numeric change re-pins here and says so. The container
//! digest additionally pins the snapshot format byte for byte.
#![cfg(target_feature = "fma")]

use cerl::prelude::*;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn tiny_cfg() -> CerlConfig {
    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 3;
    cfg.memory_size = 60;
    cfg
}

fn tiny_stream() -> DomainStream {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 300,
            ..SyntheticConfig::small()
        },
        2501,
    );
    DomainStream::synthetic(&gen, 3, 0, 2501)
}

/// The first eight test rows of every domain, stacked.
fn fixed_rows(stream: &DomainStream) -> Matrix {
    let d_in = stream.domain(0).test.dim();
    let blocks: Vec<Matrix> = (0..3)
        .map(|d| stream.domain(d).test.x.slice_rows(0, 8))
        .collect();
    Matrix::from_fn(24, d_in, |i, j| blocks[i / 8][(i % 8, j)])
}

/// `(name, digest)` of one estimator's outputs on `x`.
fn outputs(
    name: &str,
    ite: Vec<f64>,
    (y0, y1): (Vec<f64>, Vec<f64>),
    embed: Option<Matrix>,
) -> Vec<(String, u64)> {
    let mut out = vec![
        (format!("{name}.ite"), digest(&ite)),
        (format!("{name}.y0"), digest(&y0)),
        (format!("{name}.y1"), digest(&y1)),
    ];
    if let Some(r) = embed {
        out.push((format!("{name}.embed"), digest(r.as_slice())));
    }
    out
}

/// `(name, digest)` of one stage's training report.
fn report(name: &str, r: &TrainReport) -> (String, u64) {
    let bytes = [
        r.epochs_run as u64,
        r.best_val_loss.to_bits(),
        r.final_train_loss.to_bits(),
    ];
    (
        format!("{name}.report"),
        fnv1a(bytes.iter().flat_map(|v| v.to_le_bytes())),
    )
}

fn actual_digests() -> Vec<(String, u64)> {
    let stream = tiny_stream();
    let x = fixed_rows(&stream);
    let mut engine = CerlEngineBuilder::new(tiny_cfg())
        .seed(2501)
        .build()
        .unwrap();
    let mut reports = Vec::new();
    for d in 0..3 {
        let stage = engine
            .observe(&stream.domain(d).train, &stream.domain(d).val)
            .unwrap();
        reports.push(report(&format!("cerl.stage{}", stage.stage), &stage.train));
    }
    let mut all = outputs(
        "cerl.f64",
        engine.predict_ite(&x).unwrap(),
        engine.predict_potential_outcomes(&x).unwrap(),
        Some(engine.embed(&x).unwrap()),
    );
    let container = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
    all.push(("cerl.container_f64".into(), fnv1a(container)));

    let mut narrow = engine.clone();
    narrow.set_precision(PrecisionMode::F32).unwrap();
    all.extend(outputs(
        "cerl.f32",
        narrow.predict_ite(&x).unwrap(),
        narrow.predict_potential_outcomes(&x).unwrap(),
        None,
    ));

    let mut cfr = CfrModel::try_new(x.cols(), tiny_cfg(), 2502).unwrap();
    let cfr_report = cfr
        .try_train(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    all.extend(outputs(
        "cfr.f64",
        cfr.try_predict_ite(&x).unwrap(),
        cfr.try_predict_potential_outcomes(&x).unwrap(),
        Some(cfr.try_embed(&x).unwrap()),
    ));

    let (train, val) = (&stream.domain(0).train, &stream.domain(0).val);
    let mut s_learner = SLearner::new(x.cols(), tiny_cfg(), 2503);
    let s_report = s_learner.try_train(train, val).unwrap();
    all.push((
        "slearner.ite".into(),
        digest(&s_learner.try_predict_ite(&x).unwrap()),
    ));
    let mut t_learner = TLearner::new(x.cols(), tiny_cfg(), 2504);
    t_learner.try_train(train, val).unwrap();
    all.push((
        "tlearner.ite".into(),
        digest(&t_learner.try_predict_ite(&x).unwrap()),
    ));

    all.extend(reports);
    all.push(report("cfr", &cfr_report));
    all.push(report("slearner", &s_report));
    all
}

/// Pinned digests. The prediction and embedding entries date from before
/// the snapshot container became the only format (version 5) and held
/// unchanged through it; `cerl.container_f64` pins the version-5 bytes.
/// The S/T-learner and `.report` entries were pinned before the three
/// training loops became one.
const PINNED: &[(&str, u64)] = &[
    ("cerl.f64.ite", 0x8ed3c9dc3cc5c873),
    ("cerl.f64.y0", 0x2f6197be0834aa9b),
    ("cerl.f64.y1", 0x7dff3e2096e12ee3),
    ("cerl.f64.embed", 0xbf4525ffc2a86bac),
    ("cerl.container_f64", 0x09584837746986d2),
    ("cerl.f32.ite", 0xdec719ab45d87b84),
    ("cerl.f32.y0", 0x832f961410f2c8a8),
    ("cerl.f32.y1", 0x95d8d24ba2cbbbdf),
    ("cfr.f64.ite", 0x5c42d4f17eaaf79a),
    ("cfr.f64.y0", 0xa21c8246d88f42fd),
    ("cfr.f64.y1", 0x67774ad1712f8fb0),
    ("cfr.f64.embed", 0xf798f82dab62202e),
    ("slearner.ite", 0x5ece1ad102d489b0),
    ("tlearner.ite", 0x58ddd283bdc3cf01),
    ("cerl.stage1.report", 0x9444edd59847f912),
    ("cerl.stage2.report", 0x17c87a9cbe36593e),
    ("cerl.stage3.report", 0xca1303e2829e3f1f),
    ("cfr.report", 0x31505491cdd003e9),
    ("slearner.report", 0x417b733c28fe0583),
];

/// Pinned digests of the early-stopped CFR run.
const PINNED_EARLY_STOP: &[(&str, u64)] = &[
    ("cfr_early_stop.ite", 0xbee00c9b1a92bf7a),
    ("cfr_early_stop.report", 0xff3753395eb3bf82),
];

fn assert_pinned(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(actual, pinned.as_slice(), "actual digests:\n{table}");
}

#[test]
fn model_bits_match_the_golden_digests() {
    assert_pinned(&actual_digests(), PINNED);
}

#[test]
fn early_stopping_fires_and_pins_the_restored_model() {
    let stream = tiny_stream();
    let x = fixed_rows(&stream);
    let mut cfg = tiny_cfg();
    cfg.train.epochs = 40;
    cfg.train.patience = 1;
    let mut cfr = CfrModel::try_new(x.cols(), cfg, 2505).unwrap();
    let r = cfr
        .try_train(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    assert!(
        r.epochs_run < 40,
        "the stopper must fire before the epoch budget runs out ({} epochs)",
        r.epochs_run
    );
    let actual = vec![
        (
            "cfr_early_stop.ite".to_string(),
            digest(&cfr.try_predict_ite(&x).unwrap()),
        ),
        report("cfr_early_stop", &r),
    ];
    assert_pinned(&actual, PINNED_EARLY_STOP);
}
