//! Memory-budget trade-off (paper Fig. 3a/3b): how small can the stored
//! representation set be before continual accuracy suffers?
//!
//! Runs CERL over three sequential domains at several memory budgets and
//! reports the final √PEHE over all seen test data, next to the all-data
//! ideal (CFR-C) and the herding-vs-random selection ablation.
//!
//! ```text
//! cargo run --release --example memory_budget
//! ```

use cerl::prelude::*;

fn main() -> Result<(), CerlError> {
    let n_domains = 3;
    let data_cfg = SyntheticConfig {
        n_units: 1000,
        noise_sd: 0.4,
        ..SyntheticConfig::default()
    };
    let gen = SyntheticGenerator::new(data_cfg, 31);
    let stream = DomainStream::synthetic(&gen, n_domains, 0, 31);
    let d_in = stream.domain(0).train.dim();

    let mut base = CerlConfig::default();
    base.train.epochs = 40;

    // Batched inference over every seen domain's test matrix, through the
    // unified fallible estimator interface.
    let union_pehe = |est: &dyn ContinualEstimator| -> Result<f64, CerlError> {
        let chunks: Vec<Matrix> = (0..n_domains)
            .map(|d| stream.domain(d).test.x.clone())
            .collect();
        let t: Vec<f64> = (0..n_domains)
            .flat_map(|d| stream.domain(d).test.true_ite())
            .collect();
        let e: Vec<f64> = est
            .try_predict_ite_batch(&chunks)?
            .into_iter()
            .flatten()
            .collect();
        Ok(EffectMetrics::from_ite(&t, &e).sqrt_pehe)
    };

    println!("CERL final √PEHE over all {n_domains} domains vs memory budget:\n");
    println!("{:<26} {:>10}", "configuration", "√PEHE");
    for budget in [60usize, 150, 300, 600] {
        let mut cfg = base.clone();
        cfg.memory_size = budget;
        let mut cerl = Cerl::try_new(d_in, cfg, 31)?;
        for d in 0..n_domains {
            cerl.try_observe(&stream.domain(d).train, &stream.domain(d).val)?;
        }
        println!(
            "{:<26} {:>10.3}",
            format!("CERL M={budget}"),
            union_pehe(&cerl)?
        );
    }

    // Random subsampling instead of herding at a tight budget.
    let mut cfg = base.clone();
    cfg.memory_size = 150;
    cfg.ablation.herding = false;
    let mut random_mem = Cerl::try_new(d_in, cfg, 31)?;
    for d in 0..n_domains {
        random_mem.try_observe(&stream.domain(d).train, &stream.domain(d).val)?;
    }
    println!(
        "{:<26} {:>10.3}",
        "CERL M=150 (random mem)",
        union_pehe(&random_mem)?
    );

    // The ideal that stores everything.
    let mut ideal = CfrC::new(d_in, base, 31)?;
    for d in 0..n_domains {
        ideal.try_observe(&stream.domain(d).train, &stream.domain(d).val)?;
    }
    println!(
        "{:<26} {:>10.3}",
        "ideal (all raw data)",
        union_pehe(&ideal)?
    );
    println!(
        "\nideal stores {} raw rows; CERL stores at most the budget in 32-d representations.",
        ideal.stored_units()
    );
    Ok(())
}
