//! Figure 3 — CERL across five sequential domains.
//!
//! * (a,b): `√ε_PEHE` / `ε_ATE` on the union of all seen test sets after
//!   each domain, for memory budgets M ∈ {n/10, n/2, n} (paper: 1000 /
//!   5000 / 10000 at n = 10000) against the ideal all-data retraining.
//!   `--ablate-cosine` additionally runs the in-text cosine-normalization
//!   ablation at M = n/2.
//! * (c,d): robustness to the representation-balance weight α and the
//!   transformation weight δ on a two-domain stream.

use crate::experiments::{union_metrics, EstimatorSpec};
use crate::report::{render_table, write_json};
use crate::scale::{model_config, synthetic_config, synthetic_units, RunArgs};
use cerl_core::config::CerlConfig;
use cerl_core::metrics::{mean_metrics, EffectMetrics};
use cerl_core::CerlError;
use cerl_data::{DomainStream, SyntheticGenerator};
use cerl_rand::seeds;
use serde::Serialize;

/// Number of sequential domains in Fig. 3 (a,b) / Fig. 4.
pub const N_DOMAINS: usize = 5;

/// One point of the Fig. 3 (a,b) series.
#[derive(Debug, Clone, Serialize)]
pub struct SeriesPoint {
    /// Series label (e.g. "CERL M=1000" or "Ideal (all data)").
    pub series: String,
    /// 1-based count of domains seen so far.
    pub after_domain: usize,
    /// Mean metrics on the union of seen test sets.
    pub metrics: EffectMetrics,
}

/// Result of the Fig. 3 (a,b) experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3abResult {
    /// Run arguments.
    pub args: RunArgs,
    /// Units per domain (budgets are ratios of this).
    pub units_per_domain: usize,
    /// All series points.
    pub points: Vec<SeriesPoint>,
}

/// Run Fig. 3 (a,b).
pub fn run_ab(args: &RunArgs) -> Result<Fig3abResult, CerlError> {
    let n = synthetic_units(args.scale);
    let budgets = [n / 10, n / 2, n];
    let gen = SyntheticGenerator::new(synthetic_config(args.scale), args.seed);
    let streams: Vec<DomainStream> = (0..args.reps)
        .map(|r| DomainStream::synthetic(&gen, N_DOMAINS, r, args.seed))
        .collect();

    let mut points = Vec::new();

    // CERL at each memory budget.
    for &m in &budgets {
        let label = format!("CERL M={m}");
        eprintln!("[fig3ab] {label} …");
        let cfg = {
            let mut c = model_config(args.scale);
            c.memory_size = m;
            c
        };
        points.extend(run_series(
            &label,
            EstimatorSpec::Cerl,
            &cfg,
            &streams,
            args.seed,
        )?);
    }

    // Optional in-text ablation: no cosine normalization at M = n/2.
    if args.has_flag("--ablate-cosine") {
        let label = format!("CERL (w/o cosine) M={}", n / 2);
        eprintln!("[fig3ab] {label} …");
        let cfg = {
            let mut c = model_config(args.scale);
            c.memory_size = n / 2;
            c.ablation.cosine_norm = false;
            c
        };
        points.extend(run_series(
            &label,
            EstimatorSpec::Cerl,
            &cfg,
            &streams,
            args.seed,
        )?);
    }

    // Ideal: retrain from scratch on all raw data after each domain.
    eprintln!("[fig3ab] Ideal (all data) …");
    let cfg = model_config(args.scale);
    points.extend(run_series(
        "Ideal (all data)",
        EstimatorSpec::CfrC,
        &cfg,
        &streams,
        args.seed,
    )?);

    Ok(Fig3abResult {
        args: args.clone(),
        units_per_domain: n,
        points,
    })
}

/// Evaluate one estimator spec over all replications, reporting union-test
/// metrics after each domain.
fn run_series(
    label: &str,
    spec: EstimatorSpec,
    cfg: &CerlConfig,
    streams: &[DomainStream],
    seed: u64,
) -> Result<Vec<SeriesPoint>, CerlError> {
    let mut per_domain: Vec<Vec<EffectMetrics>> = vec![Vec::new(); N_DOMAINS];
    for (r, stream) in streams.iter().enumerate() {
        let d_in = stream.domain(0).train.dim();
        let mut est = spec.build(d_in, cfg, seeds::derive(seed, r as u64))?;
        for (d, split) in stream.iter().enumerate() {
            est.try_observe(&split.train, &split.val)?;
            let tests = stream.test_sets_up_to(d);
            per_domain[d].push(union_metrics(est.as_ref(), &tests)?);
        }
    }
    Ok(per_domain
        .into_iter()
        .enumerate()
        .map(|(d, ms)| SeriesPoint {
            series: label.to_string(),
            after_domain: d + 1,
            metrics: mean_metrics(&ms),
        })
        .collect())
}

/// Print Fig. 3 (a,b) series and dump JSON.
pub fn print_ab(result: &Fig3abResult) {
    println!(
        "\nFigure 3 (a,b) — {} sequential domains, {} units/domain ({} reps)",
        N_DOMAINS, result.units_per_domain, result.args.reps
    );
    let headers = vec![
        "series",
        "after domain",
        "√PEHE (all seen)",
        "εATE (all seen)",
    ];
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.series.clone(),
                p.after_domain.to_string(),
                format!("{:.2}", p.metrics.sqrt_pehe),
                format!("{:.2}", p.metrics.ate_error),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    match write_json("fig3ab", result) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}

/// One point of the Fig. 3 (c,d) sensitivity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Swept hyper-parameter ("alpha" or "delta").
    pub parameter: String,
    /// Value used.
    pub value: f64,
    /// Previous-domain metrics.
    pub previous: EffectMetrics,
    /// New-domain metrics.
    pub new: EffectMetrics,
}

/// Result of the Fig. 3 (c,d) experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3cdResult {
    /// Run arguments.
    pub args: RunArgs,
    /// Sweep points.
    pub points: Vec<SweepPoint>,
}

/// Run Fig. 3 (c,d): sweep α and δ over decades on two-domain streams.
pub fn run_cd(args: &RunArgs) -> Result<Fig3cdResult, CerlError> {
    let values = [1e-3, 1e-2, 1e-1, 1.0, 10.0];
    let gen = SyntheticGenerator::new(synthetic_config(args.scale), args.seed);
    let streams: Vec<DomainStream> = (0..args.reps)
        .map(|r| DomainStream::synthetic(&gen, 2, r, args.seed))
        .collect();

    let mut points = Vec::new();
    for (param, setter) in [
        (
            "alpha",
            (|c: &mut CerlConfig, v: f64| c.alpha = v) as fn(&mut CerlConfig, f64),
        ),
        ("delta", |c: &mut CerlConfig, v: f64| c.delta = v),
    ] {
        for &v in &values {
            eprintln!("[fig3cd] {param} = {v} …");
            let mut cfg = model_config(args.scale);
            cfg.memory_size = synthetic_units(args.scale) / 2;
            setter(&mut cfg, v);
            let mut prev = Vec::new();
            let mut new = Vec::new();
            for (r, stream) in streams.iter().enumerate() {
                let d_in = stream.domain(0).train.dim();
                let mut est =
                    EstimatorSpec::Cerl.build(d_in, &cfg, seeds::derive(args.seed, r as u64))?;
                let ms = crate::experiments::run_stream(est.as_mut(), stream)?;
                prev.push(ms[0]);
                new.push(ms[1]);
            }
            points.push(SweepPoint {
                parameter: param.to_string(),
                value: v,
                previous: mean_metrics(&prev),
                new: mean_metrics(&new),
            });
        }
    }
    Ok(Fig3cdResult {
        args: args.clone(),
        points,
    })
}

/// Print Fig. 3 (c,d) sweeps and dump JSON.
pub fn print_cd(result: &Fig3cdResult) {
    println!(
        "\nFigure 3 (c,d) — hyper-parameter robustness ({} reps)",
        result.args.reps
    );
    let headers = vec![
        "parameter",
        "value",
        "prev √PEHE",
        "prev εATE",
        "new √PEHE",
        "new εATE",
    ];
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                p.parameter.clone(),
                format!("{}", p.value),
                format!("{:.2}", p.previous.sqrt_pehe),
                format!("{:.2}", p.previous.ate_error),
                format!("{:.2}", p.new.sqrt_pehe),
                format!("{:.2}", p.new.ate_error),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    match write_json("fig3cd", result) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
