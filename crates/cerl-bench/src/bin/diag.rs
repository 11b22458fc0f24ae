//! Calibration diagnostics: is the synthetic benchmark learnable at the
//! chosen scale, and how large is the domain shift?
//!
//! Prints, for a single-domain CFR fit:
//! * τ (true ITE) mean/std — available heterogeneity signal;
//! * √PEHE of the model vs the constant-ATE predictor (must be clearly
//!   lower for the benchmark to discriminate strategies);
//! * factual RMSE vs the outcome noise floor;
//! * cross-domain degradation: same model evaluated on a shifted domain.
//!
//! `--supervised` (with `--probe-linear`) and `--sweep` run the other
//! calibration probes instead; the remaining flags in `FLAGS` tweak the
//! model or data config. Any other flag exits 2 ([`RunArgs::parse`]).

use cerl_bench::scale::{model_config, synthetic_config, RunArgs};
use cerl_core::metrics::EffectMetrics;
use cerl_core::{CerlError, CfrModel};
use cerl_data::{DomainStream, SyntheticGenerator};
use cerl_math::stats::{mean, std_dev};

/// Flags diag reads beyond the common ones [`RunArgs`] parses. `--units`
/// takes a value.
const FLAGS: [&str; 12] = [
    "--no-cosine",
    "--alpha0",
    "--lambda0",
    "--relu",
    "--wide",
    "--long",
    "--lr-low",
    "--units",
    "--noise0",
    "--supervised",
    "--probe-linear",
    "--sweep",
];

/// Pure supervised regression of the true ITE surface τ(x): upper-bounds
/// what any causal estimator could achieve on this data.
fn supervised_probe(
    train: &cerl_data::CausalDataset,
    test: &cerl_data::CausalDataset,
    seed: u64,
    linear_probe: bool,
) -> Result<(), CerlError> {
    use cerl_data::Standardizer;
    use cerl_math::Matrix;
    use cerl_nn::{Activation, Adam, Graph, Mlp, Optimizer, ParamStore};
    let std = Standardizer::try_fit(&train.x)?;
    let xs = std.try_transform(&train.x)?;
    let xt = std.try_transform(&test.x)?;
    let (tau_train, tau_test) = if linear_probe {
        // Linear target: w = 1/sqrt(d) on every coordinate.
        let d = xs.cols() as f64;
        let f = |m: &Matrix| -> Vec<f64> {
            m.iter_rows()
                .map(|r| r.iter().sum::<f64>() / d.sqrt())
                .collect()
        };
        (Matrix::col_vector(&f(&xs)), f(&xt))
    } else {
        (Matrix::col_vector(&train.true_ite()), test.true_ite())
    };

    let mut store = ParamStore::new();
    let mut rng = cerl_rand::seeds::rng_labeled(seed, "probe");
    let mlp = Mlp::new(
        &mut store,
        &mut rng,
        &[train.dim(), 64, 32, 1],
        Activation::Elu(1.0),
        Activation::Identity,
        "probe",
    );
    let params = mlp.params();
    let mut opt = Adam::new(1e-3);
    use rand::seq::SliceRandom;
    let n = xs.rows();
    for epoch in 0..200 {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        for chunk in idx.chunks(128) {
            let xb = xs.select_rows(chunk);
            let yb = tau_train.select_rows(chunk);
            let mut gr = Graph::new();
            let xin = gr.input(xb);
            let yin = gr.input(yb);
            let pred = mlp.forward(&mut gr, &store, xin);
            let loss = cerl_nn::compose::mse(&mut gr, pred, yin);
            let grads = gr.backward(loss);
            opt.step(&mut store, &grads, &params);
        }
        if epoch % 50 == 49 {
            let mut gr = Graph::new();
            let xin = gr.input(xt.clone());
            let pred = mlp.forward(&mut gr, &store, xin);
            let pv = gr.value(pred).col(0);
            let mse: f64 = pv
                .iter()
                .zip(&tau_test)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / pv.len() as f64;
            let var = {
                let m = mean(&tau_test);
                tau_test.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / tau_test.len() as f64
            };
            println!(
                "supervised epoch {}: test MSE={:.4} var(tau)={:.4} R2={:.3}",
                epoch + 1,
                mse,
                var,
                1.0 - mse / var
            );
        }
    }
    Ok(())
}

/// Sweep CERL loss-term weights on 2-domain streams (3 replications);
/// prints mean prev/new sqrt-PEHE per configuration with CFR-B reference.
fn cerl_term_sweep(
    _stream: &DomainStream,
    base: &cerl_core::CerlConfig,
    seed: u64,
) -> Result<(), CerlError> {
    use cerl_bench::scale::{synthetic_config, Scale};
    use cerl_core::strategies::{CfrB, ContinualEstimator};
    use cerl_core::Cerl;
    use cerl_data::SyntheticGenerator;

    let gen = SyntheticGenerator::new(synthetic_config(Scale::Quick), seed);
    let streams: Vec<DomainStream> = (0..3)
        .map(|r| DomainStream::synthetic(&gen, 2, r, seed))
        .collect();
    let d_in = streams[0].domain(0).train.dim();

    type Make<'a> = &'a dyn Fn(u64) -> Result<Box<dyn ContinualEstimator>, CerlError>;
    let run_avg = |mk: Make| -> Result<(f64, f64), CerlError> {
        let (mut p, mut n) = (0.0, 0.0);
        for (r, stream) in streams.iter().enumerate() {
            let mut est = mk(cerl_rand::seeds::derive(seed, r as u64))?;
            for d in 0..2 {
                est.try_observe(&stream.domain(d).train, &stream.domain(d).val)?;
            }
            p += est.try_evaluate(&stream.domain(0).test)?.sqrt_pehe;
            n += est.try_evaluate(&stream.domain(1).test)?.sqrt_pehe;
        }
        Ok((p / 3.0, n / 3.0))
    };

    let bcfg = base.clone();
    let (bp, bn) = run_avg(&|sd| Ok(Box::new(CfrB::new(d_in, bcfg.clone(), sd)?)))?;
    println!("CFR-B reference     : prev {bp:.3} new {bn:.3}");

    #[allow(clippy::type_complexity)]
    let variants: Vec<(&str, Box<dyn Fn(&mut cerl_core::CerlConfig)>)> = vec![
        ("full", Box::new(|_c: &mut cerl_core::CerlConfig| {})),
        ("beta=10", Box::new(|c| c.beta = 10.0)),
        ("beta=25", Box::new(|c| c.beta = 25.0)),
        ("lr/2", Box::new(|c| c.train.learning_rate *= 0.5)),
        (
            "beta=10 lr/2",
            Box::new(|c| {
                c.beta = 10.0;
                c.train.learning_rate *= 0.5;
            }),
        ),
        (
            "beta=10 delta=10",
            Box::new(|c| {
                c.beta = 10.0;
                c.delta = 10.0;
            }),
        ),
        (
            "no-mem beta=10",
            Box::new(|c| {
                c.ablation.feature_transform = false;
                c.beta = 10.0;
            }),
        ),
        ("alpha=0", Box::new(|c| c.alpha = 0.0)),
        (
            "alpha=0 beta=10",
            Box::new(|c| {
                c.alpha = 0.0;
                c.beta = 10.0;
            }),
        ),
        (
            "alpha=0 lr/2",
            Box::new(|c| {
                c.alpha = 0.0;
                c.train.learning_rate *= 0.5;
            }),
        ),
        (
            "alpha=.01 lr/2",
            Box::new(|c| {
                c.alpha = 0.01;
                c.train.learning_rate *= 0.5;
            }),
        ),
        ("lr/4", Box::new(|c| c.train.learning_rate *= 0.25)),
        (
            "lr/2 epochs*2",
            Box::new(|c| {
                c.train.learning_rate *= 0.5;
                c.train.epochs *= 2;
                c.train.patience *= 2;
            }),
        ),
    ];
    for (name, tweak) in variants {
        let mut cfg = base.clone();
        tweak(&mut cfg);
        let (p, n) = run_avg(&|sd| Ok(Box::new(Cerl::try_new(d_in, cfg.clone(), sd)?)))?;
        println!("CERL {name:<15}: prev {p:.3} new {n:.3}");
    }
    Ok(())
}

fn main() -> Result<(), CerlError> {
    let args = RunArgs::parse(std::env::args().skip(1), &FLAGS, &["--units"]);
    let mut cfg = model_config(args.scale);
    // Ad-hoc calibration switches.
    if args.has_flag("--no-cosine") {
        cfg.ablation.cosine_norm = false;
    }
    if args.has_flag("--alpha0") {
        cfg.alpha = 0.0;
    }
    if args.has_flag("--lambda0") {
        cfg.lambda = 0.0;
    }
    if args.has_flag("--relu") {
        cfg.net.activation = cerl_core::ActivationKind::Relu;
    }
    if args.has_flag("--wide") {
        cfg.net.repr_hidden = vec![128, 64];
        cfg.net.repr_dim = 64;
        cfg.net.head_hidden = vec![64, 32];
    }
    if args.has_flag("--long") {
        cfg.train.epochs = 300;
        cfg.train.patience = 40;
    }
    if args.has_flag("--lr-low") {
        cfg.train.learning_rate = 5e-4;
    }
    let mut data_cfg = synthetic_config(args.scale);
    if let Some(pos) = args.extra.iter().position(|f| f == "--units") {
        data_cfg.n_units = args
            .extra
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .expect("--units needs an integer");
    }
    if args.has_flag("--noise0") {
        data_cfg.noise_sd = 0.0;
    }
    println!("n_units={}", data_cfg.n_units);
    let gen = SyntheticGenerator::new(data_cfg, args.seed);
    let stream = DomainStream::synthetic(&gen, 2, 0, args.seed);

    let d0 = stream.domain(0);
    let d1 = stream.domain(1);

    let ite = d0.train.true_ite();
    println!("tau: mean={:.3} std={:.3}", mean(&ite), std_dev(&ite));
    println!(
        "treated fraction: {:.2}",
        d0.train.n_treated() as f64 / d0.train.n() as f64
    );

    if args.has_flag("--supervised") {
        return supervised_probe(
            &d0.train,
            &d0.test,
            args.seed,
            args.has_flag("--probe-linear"),
        );
    }
    if args.has_flag("--sweep") {
        return cerl_term_sweep(&stream, &cfg, args.seed);
    }
    let mut model = CfrModel::try_new(d0.train.dim(), cfg, args.seed)?;
    let report = model.try_train(&d0.train, &d0.val)?;
    println!(
        "train: epochs={} best_val={:.4} final_train={:.4}",
        report.epochs_run, report.best_val_loss, report.final_train_loss
    );

    // Same-domain test.
    let est = model.try_predict_ite(&d0.test.x)?;
    let est_train = model.try_predict_ite(&d0.train.x)?;
    let m_train = EffectMetrics::on_dataset(&d0.train, &est_train);
    println!("train-set sqrtPEHE={:.3}", m_train.sqrt_pehe);
    let true_ite_test = d0.test.true_ite();
    println!(
        "pred ITE: mean={:.3} std={:.3} | true ITE: mean={:.3} std={:.3} corr={:.3}",
        mean(&est),
        std_dev(&est),
        mean(&true_ite_test),
        std_dev(&true_ite_test),
        {
            let mp = mean(&est);
            let mt = mean(&true_ite_test);
            let cov: f64 = est
                .iter()
                .zip(&true_ite_test)
                .map(|(a, b)| (a - mp) * (b - mt))
                .sum::<f64>()
                / est.len() as f64;
            cov / (std_dev(&est) * std_dev(&true_ite_test)).max(1e-12)
        }
    );
    let m = EffectMetrics::on_dataset(&d0.test, &est);
    let ate = d0.test.true_ate();
    let const_pred = vec![ate; d0.test.n()];
    let m_const = EffectMetrics::on_dataset(&d0.test, &const_pred);
    println!(
        "same-domain: model sqrtPEHE={:.3} ateErr={:.3} | constant-ATE sqrtPEHE={:.3}",
        m.sqrt_pehe, m.ate_error, m_const.sqrt_pehe
    );

    // Factual RMSE vs noise floor.
    let (y0, y1) = model.try_predict_potential_outcomes(&d0.test.x)?;
    let mut se = 0.0;
    for i in 0..d0.test.n() {
        let pred = if d0.test.t[i] { y1[i] } else { y0[i] };
        se += (pred - d0.test.y[i]).powi(2);
    }
    println!(
        "factual RMSE={:.3} (noise floor={:.3})",
        (se / d0.test.n() as f64).sqrt(),
        synthetic_config(args.scale).noise_sd
    );

    // Cross-domain degradation.
    let est_shift = model.try_predict_ite(&d1.test.x)?;
    let m_shift = EffectMetrics::on_dataset(&d1.test, &est_shift);
    println!(
        "cross-domain: sqrtPEHE={:.3} ateErr={:.3} (degradation x{:.2})",
        m_shift.sqrt_pehe,
        m_shift.ate_error,
        m_shift.sqrt_pehe / m.sqrt_pehe.max(1e-9)
    );
    Ok(())
}
