//! Evaluation metrics (paper §IV.B): `√ε_PEHE` and `ε_ATE`.

use cerl_data::CausalDataset;
use serde::{Deserialize, Serialize};

/// Metrics for one dataset evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EffectMetrics {
    /// `√(mean((ITE − ÎTE)²))` — root expected precision in estimating
    /// heterogeneous effects (Hill 2011).
    pub sqrt_pehe: f64,
    /// `|ATE − ÂTE|`.
    pub ate_error: f64,
}

impl EffectMetrics {
    /// Compute both metrics from true and estimated unit-level effects.
    ///
    /// # Panics
    /// If the slices differ in length or are empty.
    pub fn from_ite(true_ite: &[f64], est_ite: &[f64]) -> Self {
        assert_eq!(
            true_ite.len(),
            est_ite.len(),
            "EffectMetrics: length mismatch"
        );
        assert!(!true_ite.is_empty(), "EffectMetrics: empty inputs");
        let n = true_ite.len() as f64;
        let mut se = 0.0;
        let mut sum_true = 0.0;
        let mut sum_est = 0.0;
        for (&t, &e) in true_ite.iter().zip(est_ite) {
            se += (t - e) * (t - e);
            sum_true += t;
            sum_est += e;
        }
        Self {
            sqrt_pehe: (se / n).sqrt(),
            ate_error: ((sum_true - sum_est) / n).abs(),
        }
    }

    /// Evaluate an ITE estimator's output against a dataset's ground truth.
    pub fn on_dataset(data: &CausalDataset, est_ite: &[f64]) -> Self {
        Self::from_ite(&data.true_ite(), est_ite)
    }
}

/// Mean of several metric values (used to aggregate replications).
pub fn mean_metrics(ms: &[EffectMetrics]) -> EffectMetrics {
    assert!(!ms.is_empty(), "mean_metrics: empty input");
    let n = ms.len() as f64;
    EffectMetrics {
        sqrt_pehe: ms.iter().map(|m| m.sqrt_pehe).sum::<f64>() / n,
        ate_error: ms.iter().map(|m| m.ate_error).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_math::Matrix;

    #[test]
    fn perfect_estimate_is_zero() {
        let ite = [1.0, 2.0, -0.5];
        let m = EffectMetrics::from_ite(&ite, &ite);
        assert_eq!(m.sqrt_pehe, 0.0);
        assert_eq!(m.ate_error, 0.0);
    }

    #[test]
    fn constant_offset() {
        let true_ite = [1.0, 1.0, 1.0, 1.0];
        let est = [2.0, 2.0, 2.0, 2.0];
        let m = EffectMetrics::from_ite(&true_ite, &est);
        assert!((m.sqrt_pehe - 1.0).abs() < 1e-12);
        assert!((m.ate_error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ate_can_be_zero_with_nonzero_pehe() {
        // Errors cancel in the mean but not pointwise.
        let true_ite = [0.0, 0.0];
        let est = [1.0, -1.0];
        let m = EffectMetrics::from_ite(&true_ite, &est);
        assert_eq!(m.ate_error, 0.0);
        assert!((m.sqrt_pehe - 1.0).abs() < 1e-12);
    }

    #[test]
    fn on_dataset_uses_ground_truth() {
        let d = CausalDataset::try_new(
            Matrix::zeros(2, 1),
            vec![true, false],
            vec![3.0, 1.0],
            vec![1.0, 1.0],
            vec![3.0, 2.0],
        )
        .unwrap();
        // true ITE = [2, 1]
        let m = EffectMetrics::on_dataset(&d, &[2.0, 1.0]);
        assert_eq!(m.sqrt_pehe, 0.0);
    }

    #[test]
    fn aggregation() {
        let a = EffectMetrics {
            sqrt_pehe: 1.0,
            ate_error: 0.2,
        };
        let b = EffectMetrics {
            sqrt_pehe: 3.0,
            ate_error: 0.4,
        };
        let m = mean_metrics(&[a, b]);
        assert!((m.sqrt_pehe - 2.0).abs() < 1e-12);
        assert!((m.ate_error - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched() {
        let _ = EffectMetrics::from_ite(&[1.0], &[1.0, 2.0]);
    }
}
