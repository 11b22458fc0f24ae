//! Table I — News & BlogCatalog, two sequential domains, M = 500:
//! CFR-A/B/C vs CERL under substantial / moderate / no domain shift.

use crate::experiments::{
    run_two_domain_comparison, summarize_vs_reference, ComparisonCell, EstimatorSpec,
    TwoDomainOutcome,
};
use crate::report::{fmt_metric, render_table, write_json};
use crate::scale::{blogcatalog_config, model_config, news_config, table1_memory, RunArgs};
use cerl_core::CerlError;
use cerl_data::{DomainStream, SemiSyntheticGenerator};
use serde::Serialize;

/// One row of Table I.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// "News" or "BlogCatalog".
    pub dataset: String,
    /// Shift scenario label.
    pub shift: String,
    /// Strategy label.
    pub strategy: String,
    /// Previous-domain test metrics.
    pub previous: ComparisonCell,
    /// New-domain test metrics.
    pub new: ComparisonCell,
}

/// Full result of the Table I experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Result {
    /// Run arguments.
    pub args: RunArgs,
    /// Memory budget used for CERL.
    pub memory: usize,
    /// All rows, in paper order.
    pub rows: Vec<Table1Row>,
}

/// Run the Table I experiment.
pub fn run(args: &RunArgs) -> Result<Table1Result, CerlError> {
    let mut cfg = model_config(args.scale);
    cfg.memory_size = table1_memory(args.scale);
    let mut rows = Vec::new();

    let datasets: [(&str, cerl_data::SemiSyntheticConfig); 2] = [
        ("News", news_config(args.scale)),
        ("BlogCatalog", blogcatalog_config(args.scale)),
    ];

    for (name, data_cfg) in datasets {
        let gen = SemiSyntheticGenerator::new(data_cfg, args.seed);
        for shift in cerl_data::DomainShift::all() {
            eprintln!("[table1] {name} / {} shift …", shift.label());
            let streams: Vec<DomainStream> = (0..args.reps)
                .map(|r| DomainStream::semisynthetic(&gen, shift, r as u64, args.seed))
                .collect();
            let outcomes = run_two_domain_comparison(
                &EstimatorSpec::main_lineup(),
                &streams,
                &cfg,
                args.seed,
            )?;
            rows.extend(rows_from_outcomes(name, shift.label(), &outcomes));
        }
    }
    Ok(Table1Result {
        args: args.clone(),
        memory: cfg.memory_size,
        rows,
    })
}

/// Convert raw outcomes into table rows with significance vs CERL.
pub fn rows_from_outcomes(
    dataset: &str,
    shift: &str,
    outcomes: &[TwoDomainOutcome],
) -> Vec<Table1Row> {
    let cerl = outcomes
        .iter()
        .find(|o| o.strategy == "CERL")
        .expect("lineup must include CERL");
    outcomes
        .iter()
        .map(|o| Table1Row {
            dataset: dataset.to_string(),
            shift: shift.to_string(),
            strategy: o.strategy.clone(),
            previous: summarize_vs_reference(&o.prev, &cerl.prev),
            new: summarize_vs_reference(&o.new, &cerl.new),
        })
        .collect()
}

/// Print in the paper's layout and dump JSON.
pub fn print(result: &Table1Result) {
    println!(
        "\nTable I — two sequential domains, M = {} ({} reps, seed {})",
        result.memory, result.args.reps, result.args.seed
    );
    let headers = vec![
        "dataset",
        "shift",
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
                r.dataset.clone(),
                r.shift.clone(),
                r.strategy.clone(),
                fmt_metric(r.previous.sqrt_pehe, r.previous.pehe_worse),
                fmt_metric(r.previous.ate_error, r.previous.ate_worse),
                fmt_metric(r.new.sqrt_pehe, r.new.pehe_worse),
                fmt_metric(r.new.ate_error, r.new.ate_worse),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    match write_json("table1", result) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_core::metrics::EffectMetrics;

    #[test]
    fn rows_carry_significance_markers() {
        let cerl = TwoDomainOutcome {
            strategy: "CERL".into(),
            prev: vec![
                EffectMetrics {
                    sqrt_pehe: 1.0,
                    ate_error: 0.2,
                },
                EffectMetrics {
                    sqrt_pehe: 1.05,
                    ate_error: 0.21,
                },
                EffectMetrics {
                    sqrt_pehe: 0.95,
                    ate_error: 0.19,
                },
            ],
            new: vec![
                EffectMetrics {
                    sqrt_pehe: 1.0,
                    ate_error: 0.2,
                },
                EffectMetrics {
                    sqrt_pehe: 1.0,
                    ate_error: 0.2,
                },
                EffectMetrics {
                    sqrt_pehe: 1.0,
                    ate_error: 0.2,
                },
            ],
        };
        let bad_new = TwoDomainOutcome {
            strategy: "CFR-A".into(),
            prev: cerl.prev.clone(),
            new: cerl
                .new
                .iter()
                .map(|m| EffectMetrics {
                    sqrt_pehe: m.sqrt_pehe + 2.0,
                    ate_error: m.ate_error + 1.0,
                })
                .collect(),
        };
        let rows = rows_from_outcomes("News", "substantial", &[bad_new, cerl]);
        let a = &rows[0];
        assert!(a.new.pehe_worse, "CFR-A new-data PEHE should be flagged");
        assert!(
            !a.previous.pehe_worse,
            "CFR-A previous-data PEHE should not be flagged"
        );
        let c = &rows[1];
        assert!(!c.new.pehe_worse && !c.previous.pehe_worse);
    }

    #[test]
    #[should_panic(expected = "must include CERL")]
    fn rows_require_cerl_reference() {
        let only_a = TwoDomainOutcome {
            strategy: "CFR-A".into(),
            prev: vec![EffectMetrics {
                sqrt_pehe: 1.0,
                ate_error: 0.1,
            }],
            new: vec![EffectMetrics {
                sqrt_pehe: 1.0,
                ate_error: 0.1,
            }],
        };
        let _ = rows_from_outcomes("News", "none", &[only_a]);
    }
}
