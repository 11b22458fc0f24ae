//! Table II — synthetic data (§IV.C), two sequential domains, M = 10000:
//! CFR-A/B/C, CERL, and the three ablations (w/o FRT, w/o herding,
//! w/o cosine norm).

use crate::experiments::{
    run_two_domain_comparison, summarize_vs_reference, ComparisonCell, EstimatorSpec,
};
use crate::report::{fmt_metric, render_table, write_json};
use crate::scale::{model_config, synthetic_config, table2_memory, RunArgs};
use cerl_core::CerlError;
use cerl_data::{DomainStream, SyntheticGenerator};
use serde::Serialize;

/// One row of Table II.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Strategy / ablation label.
    pub strategy: String,
    /// Previous-domain test metrics.
    pub previous: ComparisonCell,
    /// New-domain test metrics.
    pub new: ComparisonCell,
}

/// Full result of the Table II experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Result {
    /// Run arguments.
    pub args: RunArgs,
    /// Memory budget used for CERL.
    pub memory: usize,
    /// All rows, in paper order.
    pub rows: Vec<Table2Row>,
}

/// Run the Table II experiment.
pub fn run(args: &RunArgs) -> Result<Table2Result, CerlError> {
    let mut cfg = model_config(args.scale);
    cfg.memory_size = table2_memory(args.scale);

    let gen = SyntheticGenerator::new(synthetic_config(args.scale), args.seed);
    eprintln!("[table2] generating {} replication streams …", args.reps);
    let streams: Vec<DomainStream> = (0..args.reps)
        .map(|r| DomainStream::synthetic(&gen, 2, r, args.seed))
        .collect();

    eprintln!(
        "[table2] running {} strategies …",
        EstimatorSpec::table2_lineup().len()
    );
    let outcomes =
        run_two_domain_comparison(&EstimatorSpec::table2_lineup(), &streams, &cfg, args.seed)?;
    let cerl = outcomes
        .iter()
        .find(|o| o.strategy == "CERL")
        .expect("lineup includes CERL");

    let rows = outcomes
        .iter()
        .map(|o| Table2Row {
            strategy: o.strategy.clone(),
            previous: summarize_vs_reference(&o.prev, &cerl.prev),
            new: summarize_vs_reference(&o.new, &cerl.new),
        })
        .collect();
    Ok(Table2Result {
        args: args.clone(),
        memory: cfg.memory_size,
        rows,
    })
}

/// Print in the paper's layout and dump JSON.
pub fn print(result: &Table2Result) {
    println!(
        "\nTable II — synthetic, two sequential domains, M = {} ({} reps, seed {})",
        result.memory, result.args.reps, result.args.seed
    );
    let headers = vec![
        "strategy",
        "prev √PEHE",
        "prev εATE",
        "new √PEHE",
        "new εATE",
    ];
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                fmt_metric(r.previous.sqrt_pehe, r.previous.pehe_worse),
                fmt_metric(r.previous.ate_error, r.previous.ate_worse),
                fmt_metric(r.new.sqrt_pehe, r.new.pehe_worse),
                fmt_metric(r.new.ate_error, r.new.ate_worse),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    match write_json("table2", result) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
