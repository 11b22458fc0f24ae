//! Quickstart: continual causal-effect estimation over three shifted
//! domains through the serving-grade [`CerlEngine`] API, compared against
//! the naive fine-tuning strategy.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cerl::prelude::*;

fn main() -> Result<(), CerlError> {
    // Three incrementally available observational datasets from shifted
    // distributions (the paper's §IV.C generator, scaled down).
    let data_cfg = SyntheticConfig {
        n_units: 1200,
        noise_sd: 0.4,
        ..SyntheticConfig::default()
    };
    let gen = SyntheticGenerator::new(data_cfg, 7);
    let stream = DomainStream::synthetic(&gen, 3, 0, 7);

    let mut cfg = CerlConfig::default();
    cfg.train.epochs = 40;
    cfg.memory_size = 400;

    // The builder validates the configuration up front; the covariate
    // dimension is inferred from the first observed domain.
    let mut engine = CerlEngineBuilder::new(cfg.clone()).seed(7).build()?;
    let mut finetune = CfrB::new(stream.domain(0).train.dim(), cfg, 7);

    println!("observing {} domains in arrival order…\n", stream.len());
    for d in 0..stream.len() {
        let report = engine.observe(&stream.domain(d).train, &stream.domain(d).val)?;
        finetune.try_observe(&stream.domain(d).train, &stream.domain(d).val)?;
        println!(
            "stage {} done: {} epochs, memory holds {} representations",
            report.stage, report.train.epochs_run, report.memory_len
        );
    }

    println!("\n√PEHE per seen domain (lower is better):");
    println!("{:<10} {:>10} {:>14}", "domain", "CERL", "fine-tuning");
    for d in 0..stream.len() {
        let test = &stream.domain(d).test;
        let m_cerl = EffectMetrics::on_dataset(test, &engine.predict_ite(&test.x)?);
        let m_ft = finetune.try_evaluate(test)?;
        println!(
            "{:<10} {:>10.3} {:>14.3}",
            d, m_cerl.sqrt_pehe, m_ft.sqrt_pehe
        );
    }

    // A trained engine is a value you can persist and reload: predictions
    // after the round trip are bitwise identical.
    let bytes = engine.save_bytes_binary(SnapshotPayload::F64)?;
    let restored = CerlEngine::load_bytes(&bytes)?;
    let test = &stream.domain(0).test;
    assert_eq!(restored.predict_ite(&test.x)?, engine.predict_ite(&test.x)?);
    println!(
        "\nsnapshot round-trip: {} bytes, restored replica predicts identically.",
        bytes.len()
    );
    println!(
        "CERL kept {} stored representations instead of {} raw training rows.",
        engine.memory().map_or(0, |m| m.len()),
        (0..stream.len())
            .map(|d| stream.domain(d).train.n())
            .sum::<usize>()
    );
    Ok(())
}
