//! End-to-end integration tests across crates: data generation → continual
//! training → evaluation, exercising the public facade API.

use cerl::prelude::*;

fn quick_cfg() -> CerlConfig {
    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 15;
    cfg.memory_size = 120;
    cfg
}

fn quick_stream(domains: usize, seed: u64) -> DomainStream {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 500,
            noise_sd: 0.4,
            ..SyntheticConfig::small()
        },
        seed,
    );
    DomainStream::synthetic(&gen, domains, 0, seed)
}

#[test]
fn cerl_three_domain_pipeline_beats_trivial_everywhere() {
    let stream = quick_stream(3, 101);
    let d_in = stream.domain(0).train.dim();
    let mut cerl = Cerl::try_new(d_in, quick_cfg(), 101).unwrap();
    for d in 0..3 {
        let report = cerl
            .try_observe(&stream.domain(d).train, &stream.domain(d).val)
            .unwrap();
        assert_eq!(report.stage, d + 1);
        assert!(report.memory_len <= 120);
    }
    for d in 0..3 {
        let test = &stream.domain(d).test;
        let m = EffectMetrics::on_dataset(test, &cerl.try_predict_ite(&test.x).unwrap());
        let trivial = EffectMetrics::on_dataset(test, &vec![0.0; test.n()]);
        assert!(
            m.sqrt_pehe < trivial.sqrt_pehe,
            "domain {d}: {:.3} !< trivial {:.3}",
            m.sqrt_pehe,
            trivial.sqrt_pehe
        );
    }
}

#[test]
fn strategies_and_cerl_share_the_estimator_interface() {
    let stream = quick_stream(2, 102);
    let d_in = stream.domain(0).train.dim();
    let mut lineup: Vec<Box<dyn ContinualEstimator>> = vec![
        Box::new(CfrA::new(d_in, quick_cfg(), 102).unwrap()),
        Box::new(CfrB::new(d_in, quick_cfg(), 102).unwrap()),
        Box::new(CfrC::new(d_in, quick_cfg(), 102).unwrap()),
        Box::new(Cerl::try_new(d_in, quick_cfg(), 102).unwrap()),
    ];
    for est in &mut lineup {
        for d in 0..2 {
            est.try_observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
        }
    }
    for est in &lineup {
        for d in 0..2 {
            let m = est.try_evaluate(&stream.domain(d).test).unwrap();
            assert!(m.sqrt_pehe.is_finite(), "{} domain {d}", est.name());
            assert!(m.ate_error.is_finite(), "{} domain {d}", est.name());
        }
    }
}

#[test]
fn semisynthetic_news_pipeline_runs_under_all_shifts() {
    let cfg = SemiSyntheticConfig::small();
    let gen = SemiSyntheticGenerator::new(cfg, 103);
    for shift in DomainShift::all() {
        let stream = DomainStream::semisynthetic(&gen, shift, 0, 103);
        assert_eq!(stream.len(), 2);
        let d_in = stream.domain(0).train.dim();
        let mut cerl = Cerl::try_new(d_in, quick_cfg(), 103).unwrap();
        for d in 0..2 {
            cerl.try_observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
        }
        let m = EffectMetrics::on_dataset(
            &stream.domain(1).test,
            &cerl.try_predict_ite(&stream.domain(1).test.x).unwrap(),
        );
        assert!(m.sqrt_pehe.is_finite(), "{}", shift.label());
    }
}

#[test]
fn memory_is_bounded_and_balanced_across_five_domains() {
    let stream = quick_stream(5, 104);
    let d_in = stream.domain(0).train.dim();
    let mut cfg = quick_cfg();
    cfg.memory_size = 80;
    cfg.train.epochs = 6;
    let mut cerl = Cerl::try_new(d_in, cfg, 104).unwrap();
    for d in 0..5 {
        let report = cerl
            .try_observe(&stream.domain(d).train, &stream.domain(d).val)
            .unwrap();
        assert!(
            report.memory_len <= 80,
            "stage {}: {}",
            d,
            report.memory_len
        );
    }
    let mem = cerl.memory().expect("memory exists");
    let nt = mem.treated_indices().len() as i64;
    let nc = mem.control_indices().len() as i64;
    assert!((nt - nc).abs() <= 2, "memory unbalanced: {nt} vs {nc}");
}

#[test]
fn predictions_are_deterministic_for_fixed_seed() {
    let stream = quick_stream(2, 105);
    let d_in = stream.domain(0).train.dim();
    let run = || {
        let mut cerl = Cerl::try_new(d_in, quick_cfg(), 105).unwrap();
        for d in 0..2 {
            cerl.try_observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
        }
        cerl.try_predict_ite(&stream.domain(0).test.x).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn potential_outcome_predictions_are_consistent_with_ite() {
    let stream = quick_stream(1, 106);
    let d_in = stream.domain(0).train.dim();
    let mut cerl = Cerl::try_new(d_in, quick_cfg(), 106).unwrap();
    cerl.try_observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    let x = &stream.domain(0).test.x;
    let (y0, y1) = cerl.try_predict_potential_outcomes(x).unwrap();
    let ite = cerl.try_predict_ite(x).unwrap();
    for i in 0..x.rows() {
        assert!((ite[i] - (y1[i] - y0[i])).abs() < 1e-10);
    }
}
