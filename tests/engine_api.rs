//! Serving-API integration tests through the public facade: typed error
//! paths (no panics on malformed requests), builder validation, batched
//! inference, and snapshot restart semantics.

use cerl::prelude::*;

mod common;
use common::{rewrap_meta, with_param_float};

fn quick_cfg() -> CerlConfig {
    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 6;
    cfg.memory_size = 80;
    cfg
}

fn quick_stream(domains: usize, seed: u64) -> DomainStream {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 400,
            ..SyntheticConfig::small()
        },
        seed,
    );
    DomainStream::synthetic(&gen, domains, 0, seed)
}

// ---- error paths: no panics, the right variant ---------------------------

#[test]
fn predicting_from_untrained_model_is_a_typed_error() {
    let engine = CerlEngineBuilder::new(quick_cfg()).build().unwrap();
    let x = Matrix::zeros(3, 10);
    assert!(matches!(engine.predict_ite(&x), Err(CerlError::NotTrained)));
    assert!(matches!(
        engine.predict_potential_outcomes(&x),
        Err(CerlError::NotTrained)
    ));
    assert!(matches!(engine.embed(&x), Err(CerlError::NotTrained)));
    assert!(matches!(
        engine.predict_ite_batch(std::slice::from_ref(&x)),
        Err(CerlError::NotTrained)
    ));
    assert!(matches!(
        engine.save_bytes_binary(SnapshotPayload::F64),
        Err(CerlError::NotTrained)
    ));

    // Same contract on the research types and every lineup member.
    let cerl = Cerl::try_new(10, quick_cfg(), 1).unwrap();
    assert!(matches!(
        cerl.try_predict_ite(&x),
        Err(CerlError::NotTrained)
    ));
    for est in paper_lineup(10, &quick_cfg(), 1).unwrap() {
        assert!(
            matches!(est.try_predict_ite(&x), Err(CerlError::NotTrained)),
            "{} should report NotTrained",
            est.name()
        );
    }
    let s = SLearner::new(10, quick_cfg(), 1);
    assert!(matches!(s.try_predict_ite(&x), Err(CerlError::NotTrained)));
    let t = TLearner::new(10, quick_cfg(), 1);
    assert!(matches!(t.try_predict_ite(&x), Err(CerlError::NotTrained)));
}

#[test]
fn mismatched_covariate_dimension_is_a_typed_error() {
    let stream = quick_stream(2, 201);
    let d_in = stream.domain(0).train.dim();
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(201)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();

    // Predict with the wrong width.
    let bad = Matrix::zeros(5, d_in + 1);
    match engine.predict_ite(&bad) {
        Err(CerlError::DimensionMismatch { expected, found }) => {
            assert_eq!(expected, d_in);
            assert_eq!(found, d_in + 1);
        }
        other => panic!("expected DimensionMismatch, got {:?}", other.map(|_| ())),
    }

    // Observe a later domain with the wrong width; engine state must
    // survive untouched and keep serving.
    let narrow = stream
        .domain(1)
        .train
        .select(&(0..stream.domain(1).train.n()).collect::<Vec<_>>());
    let mut wrong = narrow.clone();
    wrong.x = Matrix::zeros(narrow.n(), d_in + 3);
    match engine.observe(&wrong, &stream.domain(1).val) {
        Err(CerlError::DimensionMismatch { expected, found }) => {
            assert_eq!(expected, d_in);
            assert_eq!(found, d_in + 3);
        }
        other => panic!("expected DimensionMismatch, got {:?}", other.map(|_| ())),
    }
    assert_eq!(
        engine.stage(),
        1,
        "failed observe must not advance the stage"
    );
    assert!(engine.predict_ite(&stream.domain(0).test.x).is_ok());
}

type ConfigTweak = Box<dyn Fn(&mut CerlConfig)>;

#[test]
fn invalid_configs_name_the_offending_field() {
    let cases: Vec<(&'static str, ConfigTweak)> = vec![
        ("memory_size", Box::new(|c| c.memory_size = 0)),
        ("alpha", Box::new(|c| c.alpha = -1.0)),
        ("delta", Box::new(|c| c.delta = f64::NAN)),
        ("train.epochs", Box::new(|c| c.train.epochs = 0)),
        ("train.batch_size", Box::new(|c| c.train.batch_size = 1)),
        (
            "train.learning_rate",
            Box::new(|c| c.train.learning_rate = 0.0),
        ),
        ("net.repr_dim", Box::new(|c| c.net.repr_dim = 0)),
        (
            "sinkhorn_iterations",
            Box::new(|c| c.sinkhorn_iterations = 0),
        ),
    ];
    for (expected_field, tweak) in cases {
        let mut cfg = quick_cfg();
        tweak(&mut cfg);
        match CerlEngineBuilder::new(cfg.clone()).build() {
            Err(CerlError::InvalidConfig { field, .. }) => assert_eq!(field, expected_field),
            other => panic!(
                "{expected_field}: expected InvalidConfig, got {:?}",
                other.map(|_| ())
            ),
        }
        // The research constructor reports the identical error.
        match Cerl::try_new(10, cfg, 0) {
            Err(CerlError::InvalidConfig { field, .. }) => assert_eq!(field, expected_field),
            other => panic!(
                "{expected_field}: expected InvalidConfig, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

#[test]
fn tiny_domains_are_rejected_not_panicked_on() {
    let stream = quick_stream(1, 202);
    let tiny = stream.domain(0).train.select(&[0, 1, 2]);
    let mut engine = CerlEngineBuilder::new(quick_cfg()).build().unwrap();
    match engine.observe(&tiny, &stream.domain(0).val) {
        Err(CerlError::DatasetTooSmall {
            required: 4,
            found: 3,
        }) => {}
        other => panic!("expected DatasetTooSmall, got {:?}", other.map(|_| ())),
    }
}

// ---- batched inference ----------------------------------------------------

#[test]
fn batch_and_chunked_inference_agree_with_single_calls_across_estimators() {
    let stream = quick_stream(1, 203);
    let d_in = stream.domain(0).train.dim();
    let x = &stream.domain(0).test.x;
    let halves: Vec<Matrix> = {
        let n = x.rows();
        let first: Vec<usize> = (0..n / 2).collect();
        let second: Vec<usize> = (n / 2..n).collect();
        vec![x.select_rows(&first), x.select_rows(&second)]
    };
    for mut est in paper_lineup(d_in, &quick_cfg(), 203).unwrap() {
        est.try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let single = est.try_predict_ite(x).unwrap();
        let batched: Vec<f64> = est
            .try_predict_ite_batch(&halves)
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(batched, single, "{}", est.name());
    }
}

// ---- snapshot restart ------------------------------------------------------

#[test]
fn snapshot_survives_restart_and_keeps_learning() {
    let stream = quick_stream(3, 204);
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(204)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    engine
        .observe(&stream.domain(1).train, &stream.domain(1).val)
        .unwrap();

    let bytes = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
    drop(engine); // "process exit"

    let mut restored = CerlEngine::load_bytes(&bytes).unwrap();
    assert_eq!(restored.stage(), 2);
    let report = restored
        .observe(&stream.domain(2).train, &stream.domain(2).val)
        .unwrap();
    assert_eq!(report.stage, 3);

    // Still serves sensible estimates for every seen domain.
    for d in 0..3 {
        let test = &stream.domain(d).test;
        let m = EffectMetrics::on_dataset(test, &restored.predict_ite(&test.x).unwrap());
        assert!(m.sqrt_pehe.is_finite(), "domain {d}");
    }
}

// ---- hostile shard-map metadata ------------------------------------------

/// A trained snapshot container carrying a valid 2-shard map, which the
/// hostile tests below doctor at the meta-document level (the typed
/// constructors refuse to build these maps, a wire document cannot).
fn snapshot_with_map(seed: u64) -> Vec<u8> {
    let stream = quick_stream(1, seed);
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(seed)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    let map = ShardMap::from_pairs(2, &[(5, 0), (9, 1)]).unwrap();
    engine
        .snapshot()
        .unwrap()
        .with_shard_map(map)
        .to_binary_bytes(SnapshotPayload::F64)
        .unwrap()
}

/// `bytes` with `from` replaced by `to` in its meta document (`from` must
/// occur there: a layout assumption).
fn doctored(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
    rewrap_meta(bytes, |meta| {
        assert!(meta.contains(from), "layout assumption: {from}");
        meta.replace(from, to)
    })
}

/// Every load path must reject the bytes with a typed error — never
/// panic, and never build or publish to a serving fleet from a hostile
/// topology.
fn assert_rejected_everywhere(hostile: &[u8], expected_field: &str) {
    match CerlEngine::load_bytes(hostile) {
        Err(CerlError::InvalidConfig { field, .. }) => assert_eq!(field, expected_field),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
    let serving = ServingEngine::new(CerlEngineBuilder::new(quick_cfg()).build().unwrap());
    assert!(serving.swap_snapshot_bytes_warm(hostile).is_err());
    assert_eq!(serving.version(), 1, "nothing was published");
    assert!(matches!(
        ShardRouter::from_snapshot_bytes(&[hostile.to_vec()], None),
        Err(ServeError::Engine(CerlError::InvalidConfig { .. }))
    ));
}

#[test]
fn shard_map_with_out_of_range_shard_id_fails_closed() {
    let bytes = snapshot_with_map(206);
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":9,"replicas":[7]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
}

#[test]
fn shard_map_with_duplicate_domain_entries_fails_closed() {
    let bytes = snapshot_with_map(207);
    // Domain 5 now claims both shard 0 and shard 1.
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":5,"replicas":[1]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
    // Exact duplicate entries (same shard twice) are rejected too: the
    // wire document bypassed the constructor's dedup, so it is not the
    // canonical form the fleet agreed on.
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":5,"replicas":[0]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
}

#[test]
fn shard_map_with_hostile_replica_sets_fails_closed() {
    // Replica-set pathologies the typed constructors cannot express but
    // a wire document can: every load path rejects them, none panics.
    let bytes = snapshot_with_map(212);
    // Duplicate replica ids inside one set.
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":9,"replicas":[1,1]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
    // Unsorted set: not the canonical form the fleet agreed on.
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":9,"replicas":[1,0]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
    // Empty replica-set: the domain would be unserveable.
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":9,"replicas":[]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
    // Replica id at (and past) the declared fleet size.
    let hostile = doctored(
        &bytes,
        r#""domain":9,"replicas":[1]"#,
        r#""domain":9,"replicas":[0,2]"#,
    );
    assert_rejected_everywhere(&hostile, "shard_map");
}

#[test]
fn shard_map_referencing_a_missing_shard_fails_the_fleet_restore() {
    // The map itself is valid but declares 3 shards; only one replica
    // exists, so the fleet cannot be seated — typed, and it names the
    // expected vs found counts.
    let bytes = snapshot_with_map(208);
    let hostile = doctored(&bytes, r#""shards":2"#, r#""shards":3"#);
    // A lone engine restore tolerates it (routing is the fleet's concern)...
    assert!(CerlEngine::load_bytes(&hostile).is_ok());
    // ...the fleet restore does not.
    match ShardRouter::from_snapshot_bytes(&[hostile], None) {
        Err(
            e @ ServeError::FleetSizeMismatch {
                expected: 3,
                found: 1,
            },
        ) => {
            let msg = e.to_string();
            assert!(
                msg.contains("3 shard(s)") && msg.contains("1 replica snapshot(s)"),
                "{msg}"
            );
        }
        other => panic!("expected FleetSizeMismatch, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn shard_index_outside_the_map_fails_closed() {
    let stream = quick_stream(1, 209);
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(209)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
    // The builder API itself can express this hostile claim; loading may not.
    let bytes = engine
        .snapshot()
        .unwrap()
        .with_shard_map(map)
        .with_shard_index(5)
        .to_binary_bytes(SnapshotPayload::F64)
        .unwrap();
    match CerlEngine::load_bytes(&bytes) {
        Err(CerlError::InvalidConfig { field, .. }) => assert_eq!(field, "shard_map"),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn truncated_snapshots_fail_closed() {
    let stream = quick_stream(1, 205);
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(205)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    let bytes = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(
                CerlEngine::load_bytes(&bytes[..cut]),
                Err(CerlError::Snapshot(SnapshotError::Malformed(_)))
            ),
            "cut at {cut} must be Malformed"
        );
    }
}

// ---- warm publication refuses poisoned models ------------------------------

/// A NaN outcome in a domain's training data makes the fitted outcome
/// scaler NaN, and with it every prediction of the model trained on it.
/// Such a snapshot still parses and restores; the warm probe is what must
/// keep it from being published.
#[test]
fn warm_swap_refuses_a_snapshot_that_answers_nan() {
    let stream = quick_stream(1, 21);
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(21)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    let serving = ServingEngine::new(engine.clone());
    let x = &stream.domain(0).test.x;
    let before = serving.predict_ite(x).unwrap();

    let bytes = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
    let poisoned = rewrap_meta(&bytes, |text| {
        let start = text
            .find(r#""y_scale":{"#)
            .expect("trained snapshots carry a scaler")
            + 11;
        let end = start + text[start..].find('}').unwrap();
        format!(
            r#"{}"mean":"NaN","sd":"NaN"{}"#,
            &text[..start],
            &text[end..]
        )
    });
    let restored = CerlEngine::load_bytes(&poisoned).expect("still a valid document");
    assert!(restored.predict_ite(x).unwrap().iter().all(|v| v.is_nan()));

    match serving.swap_snapshot_bytes_warm(&poisoned) {
        Err(CerlError::Snapshot(SnapshotError::Incompatible(reason))) => {
            assert!(reason.contains("non-finite"), "{reason}");
        }
        other => panic!("expected Incompatible, got {:?}", other.map(|_| ())),
    }
    assert_eq!(serving.version(), 1, "nothing was published");
    let after = serving.predict_ite(x).unwrap();
    assert!(after.iter().all(|v| v.is_finite()));
    assert_eq!(after, before);
}

/// No install path ships a model that answers NaN, and no training path
/// builds one. A domain with one NaN outcome is refused at the stage entry
/// with a typed error by `observe` and by `observe_and_swap`, leaving the
/// learner and the served version untouched. A model whose weights hold a
/// NaN (doctored container bytes) still parses and restores; the warm
/// probe refuses it through `publish` and `swap_snapshot_bytes_warm`.
#[test]
fn no_publish_path_ships_a_nan_model() {
    let stream = quick_stream(2, 23);
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(23)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    let serving = ServingEngine::new(engine.clone());
    let x = &stream.domain(0).test.x;
    let before = serving.predict_ite(x).unwrap();
    assert!(before.iter().all(|v| v.is_finite()));
    let assert_nothing_published = |path: &str| {
        assert_eq!(serving.version(), 1, "{path}: nothing was published");
        assert_eq!(serving.stats().swaps, 0, "{path}: nothing was published");
        assert_eq!(serving.predict_ite(x).unwrap(), before, "{path}");
    };

    let mut poisoned = stream.domain(1).train.clone();
    poisoned.y[0] = f64::NAN;
    let val = &stream.domain(1).val;
    let nan_y = CerlError::NonFiniteInput {
        field: "train.y",
        row: 0,
    };
    let bytes = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
    let mut successor = engine.clone();
    assert_eq!(successor.observe(&poisoned, val).unwrap_err(), nan_y);
    assert_eq!(successor.stage(), 1);
    assert_eq!(
        successor.save_bytes_binary(SnapshotPayload::F64).unwrap(),
        bytes,
        "the refused stage left the learner untouched"
    );
    assert_eq!(serving.observe_and_swap(&poisoned, val).unwrap_err(), nan_y);
    assert_nothing_published("observe_and_swap");

    // A NaN in `g` would be absorbed: the cosine layer maps a non-finite
    // row norm to a zero row. The treated head's output weight is not.
    let nan_weight = with_param_float(&bytes, "h.h1.1.w", f64::NAN);
    let nan_model = CerlEngine::load_bytes(&nan_weight).expect("still a valid container");
    assert!(nan_model.predict_ite(x).unwrap().iter().all(|v| v.is_nan()));
    let assert_refused = |outcome: Result<u64, CerlError>, path: &str| {
        match outcome {
            Err(CerlError::Snapshot(SnapshotError::Incompatible(reason))) => {
                assert!(reason.contains("non-finite"), "{path}: {reason}");
            }
            other => panic!("{path}: expected Incompatible, got {other:?}"),
        }
        assert_nothing_published(path);
    };
    assert_refused(serving.publish(nan_model), "publish");
    assert_refused(
        serving.swap_snapshot_bytes_warm(&nan_weight),
        "swap_snapshot_bytes_warm",
    );
}

/// Every learner refuses a stage whose train or val split holds a NaN or
/// infinite covariate or outcome, naming the field and the first bad row,
/// before any parameter moves.
#[test]
fn non_finite_stage_inputs_are_typed_errors() {
    let stream = quick_stream(2, 24);
    let (train, val) = (&stream.domain(0).train, &stream.domain(0).val);
    let d_in = train.dim();
    let x = &stream.domain(0).test.x;
    let cases: [(&str, usize, f64); 4] = [
        ("train.x", 5, f64::INFINITY),
        ("train.y", 3, f64::NAN),
        ("val.x", 2, f64::NEG_INFINITY),
        ("val.y", 7, f64::NAN),
    ];
    let poison = |field: &str, row: usize, v: f64| {
        let (mut t, mut vl) = (train.clone(), val.clone());
        match field {
            "train.x" => t.x[(row, 1)] = v,
            "train.y" => t.y[row] = v,
            "val.x" => vl.x[(row, 0)] = v,
            _ => vl.y[row] = v,
        }
        (t, vl)
    };

    let mut cerl = Cerl::try_new(d_in, quick_cfg(), 24).unwrap();
    let mut cfr = CfrModel::try_new(d_in, quick_cfg(), 24).unwrap();
    let mut s = SLearner::new(d_in, quick_cfg(), 24);
    let mut t = TLearner::new(d_in, quick_cfg(), 24);
    for stage in 0..2 {
        for (field, row, v) in cases {
            let (bad_train, bad_val) = poison(field, row, v);
            let expected = Err(CerlError::NonFiniteInput { field, row });
            let before = cerl.try_predict_ite(x).ok();
            assert_eq!(
                cerl.try_observe(&bad_train, &bad_val).map(|_| ()),
                expected,
                "CERL stage {stage}"
            );
            assert_eq!(cerl.stage(), stage);
            assert_eq!(cerl.try_predict_ite(x).ok(), before, "CERL untouched");
            let before = cfr.try_predict_ite(x).ok();
            assert_eq!(cfr.try_train(&bad_train, &bad_val).map(|_| ()), expected);
            assert_eq!(cfr.try_predict_ite(x).ok(), before, "CFR untouched");
            assert_eq!(s.try_train(&bad_train, &bad_val).map(|_| ()), expected);
            assert_eq!(t.try_train(&bad_train, &bad_val), expected);
        }
        let d = stream.domain(stage);
        cerl.try_observe(&d.train, &d.val).unwrap();
        cfr.try_train(&d.train, &d.val).unwrap();
    }
}
