//! Semi-synthetic News / BlogCatalog benchmarks (paper §IV.A).
//!
//! Units are documents (news items / blogger descriptions) represented by
//! bag-of-words counts `x` with topic mixture `z(x)`. The treatment is the
//! viewing device (mobile vs desktop) and the reader's opinion is
//!
//! ```text
//! y(x, t) = C · (z(x)·z^c_0 + t · z(x)·z^c_1) + ε,    ε ~ N(0, 1),  C = 60
//! p(t=1|x) = e^{k·z·z^c_1} / (e^{k·z·z^c_0} + e^{k·z·z^c_1}),       k = 10
//! ```
//!
//! with `z^c_0` the mean topic representation over documents and `z^c_1`
//! the mixture of one randomly sampled document. Sequential datasets with
//! controlled shift are built by restricting documents' topic support per
//! [`DomainShift`].

use crate::dataset::CausalDataset;
use crate::shift::DomainShift;
use crate::topics::{TopicModel, TopicModelConfig};
use cerl_math::{dot, Matrix};
use cerl_rand::{bernoulli, seeds, StandardNormal};
use serde::{Deserialize, Serialize};

/// Configuration of a semi-synthetic benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemiSyntheticConfig {
    /// Units per dataset.
    pub n_units: usize,
    /// Topic model settings (vocabulary, topic counts, Dirichlet priors).
    pub topics: TopicModelConfig,
    /// Outcome scaling factor `C` (paper: 60).
    pub outcome_scale: f64,
    /// Selection-bias strength `k` (paper: 10).
    pub selection_k: f64,
    /// Outcome noise standard deviation (paper: 1).
    pub noise_sd: f64,
}

impl SemiSyntheticConfig {
    /// News benchmark: 5000 units, 3477-word vocabulary, 50 topics.
    pub fn news() -> Self {
        Self {
            n_units: 5000,
            topics: TopicModelConfig {
                n_topics: 50,
                vocab_size: 3477,
                word_alpha: 0.05,
                doc_alpha: 0.2,
                doc_length: (60, 300),
                background_mix: 0.4,
            },
            outcome_scale: 60.0,
            selection_k: 10.0,
            noise_sd: 1.0,
        }
    }

    /// BlogCatalog benchmark: 5196 units, 2160-word vocabulary, 50 topics.
    /// Blogger descriptions are shorter and sparser than news articles.
    pub fn blogcatalog() -> Self {
        Self {
            n_units: 5196,
            topics: TopicModelConfig {
                n_topics: 50,
                vocab_size: 2160,
                word_alpha: 0.08,
                doc_alpha: 0.15,
                doc_length: (20, 120),
                background_mix: 0.35,
            },
            outcome_scale: 60.0,
            selection_k: 10.0,
            noise_sd: 1.0,
        }
    }

    /// Small configuration for tests and quick harness runs.
    pub fn small() -> Self {
        Self {
            n_units: 300,
            topics: TopicModelConfig {
                n_topics: 10,
                vocab_size: 80,
                word_alpha: 0.1,
                doc_alpha: 0.3,
                doc_length: (20, 60),
                background_mix: 0.3,
            },
            outcome_scale: 60.0,
            selection_k: 10.0,
            noise_sd: 1.0,
        }
    }

    /// Copy with a different unit count.
    pub fn with_units(mut self, n: usize) -> Self {
        self.n_units = n;
        self
    }
}

/// Generator of sequential semi-synthetic datasets.
#[derive(Debug, Clone)]
pub struct SemiSyntheticGenerator {
    cfg: SemiSyntheticConfig,
    model: TopicModel,
    zc0: Vec<f64>,
    zc1: Vec<f64>,
    base_seed: u64,
}

impl SemiSyntheticGenerator {
    /// Build the topic model and centroids; `seed` fixes everything.
    pub fn new(cfg: SemiSyntheticConfig, seed: u64) -> Self {
        let mut rng = seeds::rng_labeled(seed, "topic-model");
        let model = TopicModel::generate(cfg.topics.clone(), &mut rng);
        // z^c_0: average topic representation over pilot documents.
        let zc0 = model.mean_mixture(500, &mut rng);
        // z^c_1: topic distribution of one randomly sampled document.
        let all: Vec<usize> = (0..cfg.topics.n_topics).collect();
        let zc1 = model.document(&all, &mut rng).z;
        Self {
            cfg,
            model,
            zc0,
            zc1,
            base_seed: seed,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &SemiSyntheticConfig {
        &self.cfg
    }

    /// Centroids `(z^c_0, z^c_1)`.
    pub fn centroids(&self) -> (&[f64], &[f64]) {
        (&self.zc0, &self.zc1)
    }

    /// Generate one dataset whose documents are supported on
    /// `allowed_topics`, using replication stream `rep`.
    pub fn dataset(&self, allowed_topics: &[usize], rep: u64, stream: &str) -> CausalDataset {
        let label = format!("data-{stream}-rep-{rep}");
        let mut rng = seeds::rng_labeled(self.base_seed, &label);
        let n = self.cfg.n_units;
        let v = self.cfg.topics.vocab_size;
        let c = self.cfg.outcome_scale;
        let k = self.cfg.selection_k;

        let mut x = Matrix::zeros(n, v);
        let mut t = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut mu0 = Vec::with_capacity(n);
        let mut mu1 = Vec::with_capacity(n);
        let mut sn = StandardNormal::new();

        for i in 0..n {
            let doc = self.model.document(allowed_topics, &mut rng);
            x.row_mut(i).copy_from_slice(&doc.counts);
            let z0 = dot(&doc.z, &self.zc0);
            let z1 = dot(&doc.z, &self.zc1);
            let m0 = c * z0;
            let m1 = c * (z0 + z1);
            // p(t=1|x) = e^{k z·zc1} / (e^{k z·zc0} + e^{k z·zc1})
            let p = stable_binary_softmax(k * z1, k * z0);
            let ti = bernoulli(&mut rng, p);
            let eps = sn.sample(&mut rng) * self.cfg.noise_sd;
            mu0.push(m0);
            mu1.push(m1);
            y.push(if ti { m1 + eps } else { m0 + eps });
            t.push(ti);
        }
        CausalDataset { x, t, y, mu0, mu1 }
    }

    /// Generate the two sequential datasets of a [`DomainShift`] scenario.
    pub fn sequential_pair(&self, shift: DomainShift, rep: u64) -> (CausalDataset, CausalDataset) {
        let (s1, s2) = shift.topic_subsets(self.cfg.topics.n_topics);
        let d1 = self.dataset(&s1, rep, &format!("{}-first", shift.label()));
        let d2 = self.dataset(&s2, rep, &format!("{}-second", shift.label()));
        (d1, d2)
    }
}

/// `e^a / (e^a + e^b)` computed stably.
fn stable_binary_softmax(a: f64, b: f64) -> f64 {
    cerl_math::special::sigmoid(a - b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SemiSyntheticGenerator {
        SemiSyntheticGenerator::new(SemiSyntheticConfig::small(), 77)
    }

    #[test]
    fn shapes_and_outcome_structure() {
        let g = quick();
        let all: Vec<usize> = (0..10).collect();
        let d = g.dataset(&all, 0, "t");
        assert_eq!(d.n(), 300);
        assert_eq!(d.dim(), 80);
        // Counts are non-negative integers.
        assert!(d.x.as_slice().iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
        // ITE = C·(z·zc1) ≥ 0 with our non-negative centroids.
        assert!(d.true_ite().iter().all(|&v| v >= -1e-9));
        let ate = d.true_ate();
        assert!(ate > 0.0 && ate < 60.0, "ate={ate}");
    }

    #[test]
    fn both_devices_present_and_biased() {
        let g = quick();
        let all: Vec<usize> = (0..10).collect();
        let d = g.dataset(&all, 0, "t");
        let nt = d.n_treated();
        assert!(nt > 10 && nt < 290, "nt={nt}");
        // Selection bias: treated units have higher z·zc1, hence higher ITE.
        let ite = d.true_ite();
        let mean_t: f64 =
            d.treated_indices().iter().map(|&i| ite[i]).sum::<f64>() / d.n_treated().max(1) as f64;
        let mean_c: f64 = d.control_indices().iter().map(|&i| ite[i]).sum::<f64>()
            / (d.n() - d.n_treated()).max(1) as f64;
        assert!(
            mean_t > mean_c,
            "no selection bias: treated ITE {mean_t} vs control {mean_c}"
        );
    }

    #[test]
    fn substantial_shift_gives_different_vocab_usage() {
        let g = quick();
        let (d1, d2) = g.sequential_pair(DomainShift::Substantial, 0);
        let m1 = d1.x.col_means();
        let m2 = d2.x.col_means();
        let l1: f64 = m1.iter().zip(&m2).map(|(a, b)| (a - b).abs()).sum();
        let (e1, e2) = g.sequential_pair(DomainShift::None, 0);
        let n1 = e1.x.col_means();
        let n2 = e2.x.col_means();
        let l1_none: f64 = n1.iter().zip(&n2).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            l1 > 2.0 * l1_none,
            "substantial shift ({l1:.3}) should dwarf no-shift difference ({l1_none:.3})"
        );
    }

    #[test]
    fn deterministic_by_seed_and_rep() {
        let g = quick();
        let a = g.dataset(&[0, 1, 2], 3, "s");
        let b = g.dataset(&[0, 1, 2], 3, "s");
        assert!(a.x.approx_eq(&b.x, 0.0));
        assert_eq!(a.y, b.y);
        let c = g.dataset(&[0, 1, 2], 4, "s");
        assert!(a.x.max_abs_diff(&c.x) > 0.0);
    }

    #[test]
    fn centroids_are_simplex_points() {
        let g = quick();
        let (zc0, zc1) = g.centroids();
        assert!((zc0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((zc1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(zc0.iter().all(|&v| v >= 0.0));
        assert!(zc1.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn stable_softmax_matches_naive() {
        for (a, b) in [(0.0_f64, 0.0_f64), (3.0, -1.0), (-5.0, 2.0)] {
            let naive = a.exp() / (a.exp() + b.exp());
            assert!((stable_binary_softmax(a, b) - naive).abs() < 1e-12);
        }
        // Extreme values do not overflow.
        assert!(stable_binary_softmax(1e4, -1e4) <= 1.0);
        assert!(stable_binary_softmax(-1e4, 1e4) >= 0.0);
    }
}
