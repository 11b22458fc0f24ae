//! Run-scale presets and a tiny CLI-flag parser shared by the harness
//! binaries.
//!
//! * `--quick` — minutes-scale runs that preserve the papers' qualitative
//!   shapes (who wins, orderings, crossovers) at reduced unit counts.
//! * `--standard` (default) — larger runs balancing fidelity and time.
//! * `--full` — paper-scale parameters (hours on a laptop; provided for
//!   completeness).
//! * `--reps N`, `--seed S` — replications and base seed.
//!
//! Each binary declares its own flags on top of these; any other flag
//! exits 2 before anything runs.

use cerl_core::config::{CerlConfig, NetConfig, TrainConfig};
use cerl_data::{SemiSyntheticConfig, SyntheticConfig, TopicModelConfig};
use serde::Serialize;

/// Scale preset of one harness invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Minutes-scale smoke runs.
    Quick,
    /// Default: qualitative fidelity within a coffee break.
    Standard,
    /// Paper-scale parameters.
    Full,
}

/// Parsed common flags.
#[derive(Debug, Clone, Serialize)]
pub struct RunArgs {
    /// Scale preset.
    pub scale: Scale,
    /// Number of replications to average.
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
    /// Leftover flags for experiment-specific switches.
    pub extra: Vec<String>,
}

impl RunArgs {
    /// Parse `std::env::args` style iterators: the common flags plus the
    /// binary's own `flags`, of which those also in `valued` take a value
    /// (both land in `extra`). The first flag that is neither, or a value
    /// that is missing or does not parse, exits 2 with a message before
    /// anything runs, so a stale or mistyped invocation (`table1 --help`)
    /// fails instead of silently running the default experiment.
    pub fn parse(mut args: impl Iterator<Item = String>, flags: &[&str], valued: &[&str]) -> Self {
        fn usage(msg: &str, flags: &[&str]) -> ! {
            let common = ["--quick", "--standard", "--full", "--reps N", "--seed S"];
            let accepted: Vec<&str> = common.iter().chain(flags).copied().collect();
            eprintln!("{msg}; accepted: {}", accepted.join(" "));
            std::process::exit(2)
        }
        fn value<T: std::str::FromStr>(
            it: &mut impl Iterator<Item = String>,
            flag: &str,
            flags: &[&str],
        ) -> T {
            match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => v,
                _ => usage(&format!("missing or invalid value for {flag}"), flags),
            }
        }
        let mut scale = Scale::Standard;
        let mut reps: Option<usize> = None;
        let mut seed = 2023;
        let mut extra = Vec::new();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => scale = Scale::Quick,
                "--standard" => scale = Scale::Standard,
                "--full" => scale = Scale::Full,
                "--reps" => reps = Some(value(&mut args, "--reps", flags)),
                "--seed" => seed = value(&mut args, "--seed", flags),
                flag if flags.contains(&flag) => {
                    extra.push(flag.to_string());
                    if valued.contains(&flag) {
                        extra.push(value(&mut args, flag, flags));
                    }
                }
                other => usage(&format!("unknown flag {other}"), flags),
            }
        }
        let reps = reps.unwrap_or(match scale {
            Scale::Quick => 2,
            Scale::Standard => 3,
            Scale::Full => 10,
        });
        Self {
            scale,
            reps,
            seed,
            extra,
        }
    }

    /// True when an experiment-specific flag is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extra.iter().any(|f| f == flag)
    }
}

/// News benchmark config at this scale.
pub fn news_config(scale: Scale) -> SemiSyntheticConfig {
    match scale {
        Scale::Full => SemiSyntheticConfig::news(),
        Scale::Standard => SemiSyntheticConfig {
            n_units: 1500,
            topics: TopicModelConfig {
                n_topics: 50,
                vocab_size: 600,
                word_alpha: 0.05,
                doc_alpha: 0.2,
                doc_length: (40, 160),
                background_mix: 0.4,
            },
            ..SemiSyntheticConfig::news()
        },
        Scale::Quick => SemiSyntheticConfig {
            n_units: 600,
            topics: TopicModelConfig {
                n_topics: 50,
                vocab_size: 300,
                word_alpha: 0.05,
                doc_alpha: 0.2,
                doc_length: (30, 100),
                background_mix: 0.4,
            },
            ..SemiSyntheticConfig::news()
        },
    }
}

/// BlogCatalog benchmark config at this scale.
pub fn blogcatalog_config(scale: Scale) -> SemiSyntheticConfig {
    match scale {
        Scale::Full => SemiSyntheticConfig::blogcatalog(),
        Scale::Standard => SemiSyntheticConfig {
            n_units: 1500,
            topics: TopicModelConfig {
                n_topics: 50,
                vocab_size: 450,
                word_alpha: 0.08,
                doc_alpha: 0.15,
                doc_length: (15, 80),
                background_mix: 0.35,
            },
            ..SemiSyntheticConfig::blogcatalog()
        },
        Scale::Quick => SemiSyntheticConfig {
            n_units: 600,
            topics: TopicModelConfig {
                n_topics: 50,
                vocab_size: 250,
                word_alpha: 0.08,
                doc_alpha: 0.15,
                doc_length: (15, 60),
                background_mix: 0.35,
            },
            ..SemiSyntheticConfig::blogcatalog()
        },
    }
}

/// Synthetic (§IV.C) config at this scale. The variable-role structure is
/// always the paper's 100-covariate layout. Reduced scales lower the
/// outcome noise and raise the domain-shift magnitude so the paper's
/// qualitative contrasts (forgetting, shift degradation) remain visible at
/// a fraction of the sample size.
pub fn synthetic_config(scale: Scale) -> SyntheticConfig {
    match scale {
        Scale::Full => SyntheticConfig {
            n_units: 10_000,
            ..SyntheticConfig::default()
        },
        Scale::Standard => SyntheticConfig {
            n_units: 2_000,
            noise_sd: 0.5,
            mean_shift_scale: 1.0,
            sd_range: (0.5, 1.5),
            ..SyntheticConfig::default()
        },
        Scale::Quick => SyntheticConfig {
            n_units: 800,
            noise_sd: 0.4,
            mean_shift_scale: 1.0,
            sd_range: (0.5, 1.5),
            ..SyntheticConfig::default()
        },
    }
}

/// Units per synthetic domain at this scale (for memory-budget ratios).
pub fn synthetic_units(scale: Scale) -> usize {
    synthetic_config(scale).n_units
}

/// Model/optimizer configuration used by all experiments at this scale.
pub fn model_config(scale: Scale) -> CerlConfig {
    let train = match scale {
        Scale::Full => TrainConfig {
            epochs: 150,
            batch_size: 128,
            learning_rate: 1e-3,
            clip_norm: 5.0,
            patience: 15,
            memory_batch_size: 128,
            phi_warmup_steps: 300,
        },
        Scale::Standard => TrainConfig {
            epochs: 90,
            batch_size: 128,
            learning_rate: 1.5e-3,
            clip_norm: 5.0,
            patience: 12,
            memory_batch_size: 128,
            phi_warmup_steps: 200,
        },
        Scale::Quick => TrainConfig {
            epochs: 60,
            batch_size: 64,
            learning_rate: 2e-3,
            clip_norm: 5.0,
            patience: 12,
            memory_batch_size: 64,
            phi_warmup_steps: 150,
        },
    };
    let net = match scale {
        Scale::Full => NetConfig::default(),
        _ => NetConfig {
            repr_hidden: vec![64],
            repr_dim: 32,
            head_hidden: vec![32],
            transform_hidden: vec![64],
            ..NetConfig::default()
        },
    };
    CerlConfig {
        net,
        train,
        ..CerlConfig::default()
    }
}

/// Memory budget for Table I (paper: M = 500) scaled with the unit count.
pub fn table1_memory(scale: Scale) -> usize {
    match scale {
        Scale::Full => 500,
        Scale::Standard => 150, // 500 × (1500/5000)
        Scale::Quick => 60,     // 500 × (600/5000)
    }
}

/// Memory budget for Table II. The paper uses M = 10000 (one full domain);
/// at reduced scales we use n/2 so the budget actually binds against the
/// 60% training split and the herding-vs-random ablation is exercised.
pub fn table2_memory(scale: Scale) -> usize {
    match scale {
        Scale::Full => 10_000,
        _ => synthetic_units(scale) / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> RunArgs {
        RunArgs::parse(
            v.iter().map(|s| s.to_string()),
            &["--ablate-cosine", "--units"],
            &["--units"],
        )
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Standard);
        assert_eq!(a.reps, 3);
        assert_eq!(a.seed, 2023);
    }

    #[test]
    fn flags() {
        let a = parse(&["--quick", "--reps", "5", "--seed", "9", "--ablate-cosine"]);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.reps, 5);
        assert_eq!(a.seed, 9);
        assert!(a.has_flag("--ablate-cosine"));
        assert!(!a.has_flag("--other"));
        let a = parse(&["--units", "100", "--quick"]);
        assert_eq!(a.extra, vec!["--units", "100"]);
        assert_eq!(a.scale, Scale::Quick);
    }

    #[test]
    fn scale_monotonicity() {
        assert!(news_config(Scale::Quick).n_units < news_config(Scale::Standard).n_units);
        assert!(news_config(Scale::Standard).n_units < news_config(Scale::Full).n_units);
        assert!(synthetic_units(Scale::Quick) < synthetic_units(Scale::Full));
        assert_eq!(table2_memory(Scale::Full), 10_000);
        // Topic count is always the paper's 50 so shift semantics match.
        for s in [Scale::Quick, Scale::Standard, Scale::Full] {
            assert_eq!(news_config(s).topics.n_topics, 50);
            assert_eq!(blogcatalog_config(s).topics.n_topics, 50);
        }
    }
}
