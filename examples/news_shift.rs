//! News benchmark walkthrough: how domain shift breaks naive strategies.
//!
//! Reproduces the Table I mechanics on a reduced News simulation: two
//! sequential datasets whose documents come from disjoint topic groups
//! (substantial shift), with treatment = viewing device and outcome =
//! reader opinion. Compares freezing (CFR-A), fine-tuning (CFR-B), and
//! CERL on both datasets' test splits.
//!
//! ```text
//! cargo run --release --example news_shift
//! ```

use cerl::data::TopicModelConfig;
use cerl::prelude::*;

fn main() -> Result<(), CerlError> {
    // Reduced News configuration (full scale: 5000 docs × 3477 words).
    let news = SemiSyntheticConfig {
        n_units: 800,
        topics: TopicModelConfig {
            n_topics: 50,
            vocab_size: 300,
            word_alpha: 0.05,
            doc_alpha: 0.2,
            doc_length: (30, 100),
            background_mix: 0.4,
        },
        ..SemiSyntheticConfig::news()
    };
    let gen = SemiSyntheticGenerator::new(news, 23);

    for shift in [DomainShift::Substantial, DomainShift::None] {
        println!("=== {} domain shift ===", shift.label());
        let stream = DomainStream::semisynthetic(&gen, shift, 0, 23);
        let d_in = stream.domain(0).train.dim();

        let mut cfg = CerlConfig::default();
        cfg.train.epochs = 40;
        cfg.memory_size = 80; // paper Table I: M = 500 at 5000 units

        let estimators: Vec<Box<dyn ContinualEstimator>> = vec![
            Box::new(CfrA::new(d_in, cfg.clone(), 23)?),
            Box::new(CfrB::new(d_in, cfg.clone(), 23)?),
            Box::new(Cerl::try_new(d_in, cfg.clone(), 23)?),
        ];

        println!("{:<8} {:>16} {:>16}", "model", "prev √PEHE", "new √PEHE");
        for mut est in estimators {
            for d in 0..stream.len() {
                est.try_observe(&stream.domain(d).train, &stream.domain(d).val)?;
            }
            let prev = est.try_evaluate(&stream.domain(0).test)?;
            let new = est.try_evaluate(&stream.domain(1).test)?;
            println!(
                "{:<8} {:>16.2} {:>16.2}",
                est.name(),
                prev.sqrt_pehe,
                new.sqrt_pehe
            );
        }
        println!();
    }
    println!("expected shape: under substantial shift CFR-A degrades on the new");
    println!("dataset, CFR-B on the previous one, CERL stays close on both;");
    println!("with no shift all three are similar (paper Table I).");
    Ok(())
}
