//! Shared experiment machinery: estimator specifications, stream
//! evaluation, and significance marking.

use cerl_core::config::CerlConfig;
use cerl_core::metrics::{mean_metrics, EffectMetrics};
use cerl_core::strategies::{CfrA, CfrB, CfrC, ContinualEstimator};
use cerl_core::{Cerl, CerlError};
use cerl_data::{CausalDataset, DomainStream};
use cerl_math::stats::paired_t_test;
use cerl_rand::seeds;
use serde::Serialize;

/// Which estimator a table row uses (paper Tables I–II rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EstimatorSpec {
    /// Apply the first-domain model unchanged.
    CfrA,
    /// Fine-tune on each new domain.
    CfrB,
    /// Retrain from scratch on all stored raw data.
    CfrC,
    /// The paper's method.
    Cerl,
    /// Ablation: without feature-representation transformation.
    CerlWithoutFrt,
    /// Ablation: random subsampling instead of herding.
    CerlWithoutHerding,
    /// Ablation: plain dense final layer instead of cosine normalization.
    CerlWithoutCosine,
}

impl EstimatorSpec {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorSpec::CfrA => "CFR-A",
            EstimatorSpec::CfrB => "CFR-B",
            EstimatorSpec::CfrC => "CFR-C",
            EstimatorSpec::Cerl => "CERL",
            EstimatorSpec::CerlWithoutFrt => "CERL (w/o FRT)",
            EstimatorSpec::CerlWithoutHerding => "CERL (w/o herding)",
            EstimatorSpec::CerlWithoutCosine => "CERL (w/o cosine)",
        }
    }

    /// Instantiate for `d_in` covariates with the given base configuration.
    pub fn build(
        &self,
        d_in: usize,
        base: &CerlConfig,
        seed: u64,
    ) -> Result<Box<dyn ContinualEstimator>, CerlError> {
        let mut cfg = base.clone();
        match self {
            EstimatorSpec::CfrA => return Ok(Box::new(CfrA::new(d_in, cfg, seed)?)),
            EstimatorSpec::CfrB => return Ok(Box::new(CfrB::new(d_in, cfg, seed)?)),
            EstimatorSpec::CfrC => return Ok(Box::new(CfrC::new(d_in, cfg, seed)?)),
            EstimatorSpec::Cerl => {}
            EstimatorSpec::CerlWithoutFrt => cfg.ablation.feature_transform = false,
            EstimatorSpec::CerlWithoutHerding => cfg.ablation.herding = false,
            EstimatorSpec::CerlWithoutCosine => cfg.ablation.cosine_norm = false,
        }
        Ok(Box::new(Cerl::try_new(d_in, cfg, seed)?))
    }

    /// The four main strategies of Tables I–II.
    pub fn main_lineup() -> [EstimatorSpec; 4] {
        [
            EstimatorSpec::CfrA,
            EstimatorSpec::CfrB,
            EstimatorSpec::CfrC,
            EstimatorSpec::Cerl,
        ]
    }

    /// Main strategies plus the three ablations (Table II).
    pub fn table2_lineup() -> [EstimatorSpec; 7] {
        [
            EstimatorSpec::CfrA,
            EstimatorSpec::CfrB,
            EstimatorSpec::CfrC,
            EstimatorSpec::Cerl,
            EstimatorSpec::CerlWithoutFrt,
            EstimatorSpec::CerlWithoutHerding,
            EstimatorSpec::CerlWithoutCosine,
        ]
    }
}

/// Per-replication metrics of one estimator on a two-domain stream:
/// previous-domain and new-domain test metrics after seeing both domains.
#[derive(Debug, Clone, Serialize)]
pub struct TwoDomainOutcome {
    /// Strategy label.
    pub strategy: String,
    /// Previous-domain test metrics per replication.
    pub prev: Vec<EffectMetrics>,
    /// New-domain test metrics per replication.
    pub new: Vec<EffectMetrics>,
}

/// Feed every domain of `stream` to the estimator in arrival order, then
/// evaluate on each seen domain's test set.
pub fn run_stream(
    est: &mut dyn ContinualEstimator,
    stream: &DomainStream,
) -> Result<Vec<EffectMetrics>, CerlError> {
    for d in stream.iter() {
        est.try_observe(&d.train, &d.val)?;
    }
    stream.iter().map(|d| est.try_evaluate(&d.test)).collect()
}

/// Run a lineup of estimators over per-replication two-domain streams.
///
/// `streams[r]` is replication `r`'s stream (must have exactly 2 domains).
pub fn run_two_domain_comparison(
    specs: &[EstimatorSpec],
    streams: &[DomainStream],
    cfg: &CerlConfig,
    seed: u64,
) -> Result<Vec<TwoDomainOutcome>, CerlError> {
    assert!(
        streams.iter().all(|s| s.len() == 2),
        "two-domain comparison needs 2 domains"
    );
    specs
        .iter()
        .map(|spec| {
            let mut prev = Vec::with_capacity(streams.len());
            let mut new = Vec::with_capacity(streams.len());
            for (r, stream) in streams.iter().enumerate() {
                let d_in = stream.domain(0).train.dim();
                let mut est = spec.build(d_in, cfg, seeds::derive(seed, r as u64))?;
                let ms = run_stream(est.as_mut(), stream)?;
                prev.push(ms[0]);
                new.push(ms[1]);
            }
            Ok(TwoDomainOutcome {
                strategy: spec.label().to_string(),
                prev,
                new,
            })
        })
        .collect()
}

/// One formatted table cell: replication means plus significance markers
/// against the reference strategy (the paper's "↑" = statistically
/// significantly worse than CERL at p < 0.05).
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonCell {
    /// Mean `√ε_PEHE` across replications.
    pub sqrt_pehe: f64,
    /// Mean `ε_ATE` across replications.
    pub ate_error: f64,
    /// "↑" marker on PEHE.
    pub pehe_worse: bool,
    /// "↑" marker on ATE error.
    pub ate_worse: bool,
}

/// Summarize a strategy's replication metrics against a reference
/// (typically CERL's) with paired t-tests at `p < 0.05`.
pub fn summarize_vs_reference(
    metrics: &[EffectMetrics],
    reference: &[EffectMetrics],
) -> ComparisonCell {
    let mean = mean_metrics(metrics);
    let ref_mean = mean_metrics(reference);
    let pehe_a: Vec<f64> = metrics.iter().map(|m| m.sqrt_pehe).collect();
    let pehe_b: Vec<f64> = reference.iter().map(|m| m.sqrt_pehe).collect();
    let ate_a: Vec<f64> = metrics.iter().map(|m| m.ate_error).collect();
    let ate_b: Vec<f64> = reference.iter().map(|m| m.ate_error).collect();
    let sig = |a: &[f64], b: &[f64], worse: bool| -> bool {
        if a.len() < 2 || !worse {
            return false;
        }
        paired_t_test(a, b)
            .map(|t| t.p_value < 0.05 && t.mean_diff > 0.0)
            .unwrap_or(false)
    };
    ComparisonCell {
        sqrt_pehe: mean.sqrt_pehe,
        ate_error: mean.ate_error,
        pehe_worse: sig(&pehe_a, &pehe_b, mean.sqrt_pehe > ref_mean.sqrt_pehe),
        ate_worse: sig(&ate_a, &ate_b, mean.ate_error > ref_mean.ate_error),
    }
}

/// Metrics on the union of several test sets (used by Fig. 3 (a,b), where
/// the paper reports performance on "test sets composed of previous data
/// and new data").
pub fn union_metrics(
    est: &dyn ContinualEstimator,
    tests: &[&CausalDataset],
) -> Result<EffectMetrics, CerlError> {
    let mut true_ite = Vec::new();
    let mut est_ite = Vec::new();
    for t in tests {
        true_ite.extend(t.true_ite());
        est_ite.extend(est.try_predict_ite(&t.x)?);
    }
    Ok(EffectMetrics::from_ite(&true_ite, &est_ite))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_data::{SyntheticConfig, SyntheticGenerator};

    fn tiny_cfg() -> CerlConfig {
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 4;
        cfg
    }

    fn tiny_streams(reps: usize) -> Vec<DomainStream> {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 200,
                ..SyntheticConfig::small()
            },
            3,
        );
        (0..reps)
            .map(|r| DomainStream::synthetic(&gen, 2, r, 8))
            .collect()
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = EstimatorSpec::table2_lineup()
            .iter()
            .map(|s| s.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn comparison_produces_per_rep_metrics() {
        let streams = tiny_streams(2);
        let out = run_two_domain_comparison(
            &[EstimatorSpec::CfrA, EstimatorSpec::Cerl],
            &streams,
            &tiny_cfg(),
            1,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        for o in &out {
            assert_eq!(o.prev.len(), 2);
            assert_eq!(o.new.len(), 2);
        }
    }

    #[test]
    fn significance_markers_require_worse_mean() {
        let good = vec![
            EffectMetrics {
                sqrt_pehe: 1.0,
                ate_error: 0.1,
            },
            EffectMetrics {
                sqrt_pehe: 1.1,
                ate_error: 0.11,
            },
            EffectMetrics {
                sqrt_pehe: 0.9,
                ate_error: 0.09,
            },
        ];
        let clearly_worse: Vec<EffectMetrics> = good
            .iter()
            .map(|m| EffectMetrics {
                sqrt_pehe: m.sqrt_pehe + 1.0,
                ate_error: m.ate_error + 0.5,
            })
            .collect();
        let cell = summarize_vs_reference(&clearly_worse, &good);
        assert!(cell.pehe_worse && cell.ate_worse);
        let self_cell = summarize_vs_reference(&good, &good);
        assert!(!self_cell.pehe_worse && !self_cell.ate_worse);
    }

    #[test]
    fn union_metrics_concatenates() {
        let streams = tiny_streams(1);
        let d_in = streams[0].domain(0).train.dim();
        let mut est = EstimatorSpec::CfrA.build(d_in, &tiny_cfg(), 5).unwrap();
        est.try_observe(&streams[0].domain(0).train, &streams[0].domain(0).val)
            .unwrap();
        let tests = streams[0].test_sets_up_to(1);
        let m = union_metrics(est.as_ref(), &tests).unwrap();
        assert!(m.sqrt_pehe.is_finite());
    }
}
