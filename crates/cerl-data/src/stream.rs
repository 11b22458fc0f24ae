//! Incrementally available domain sequences (paper Fig. 4).
//!
//! A [`DomainStream`] is the unit of work for continual estimators: an
//! ordered sequence of train/validation/test splits, one per domain, where
//! the learner may only look at domain `d`'s raw data while training stage
//! `d`.

use crate::dataset::{CausalDataset, TrainValTest};
use crate::error::DataError;
use crate::semisynthetic::SemiSyntheticGenerator;
use crate::shift::DomainShift;
use crate::synthetic::SyntheticGenerator;
use cerl_rand::seeds;

/// Fractions used by the paper for all benchmarks.
pub const TRAIN_FRAC: f64 = 0.6;
/// Validation fraction (paper: 20%).
pub const VAL_FRAC: f64 = 0.2;

/// An ordered sequence of per-domain splits.
#[derive(Debug, Clone)]
pub struct DomainStream {
    domains: Vec<TrainValTest>,
}

impl DomainStream {
    /// Build from pre-split domains, returning a typed error on an empty
    /// list (an empty stream has no covariate dimension, no stage 0, and
    /// nothing downstream can do with it).
    pub fn try_from_splits(domains: Vec<TrainValTest>) -> Result<Self, DataError> {
        if domains.is_empty() {
            return Err(DataError::EmptyInput {
                what: "domain stream (need at least one domain)",
            });
        }
        Ok(Self { domains })
    }

    /// Split raw per-domain datasets 60/20/20 with seeded shuffles,
    /// returning a typed error on an empty list.
    pub fn try_from_datasets(datasets: Vec<CausalDataset>, seed: u64) -> Result<Self, DataError> {
        Self::try_from_splits(split_all(datasets, seed))
    }

    /// Synthetic stream of `n_domains` domains (replication `rep`).
    ///
    /// # Panics
    /// When `n_domains` is 0: a stream holds at least one domain.
    pub fn synthetic(gen: &SyntheticGenerator, n_domains: usize, rep: usize, seed: u64) -> Self {
        assert!(
            n_domains > 0,
            "DomainStream::synthetic: need at least one domain"
        );
        let datasets: Vec<CausalDataset> = (0..n_domains).map(|d| gen.domain(d, rep)).collect();
        Self {
            domains: split_all(datasets, seeds::derive(seed, rep as u64)),
        }
    }

    /// Two-domain semi-synthetic stream under a [`DomainShift`] scenario.
    pub fn semisynthetic(
        gen: &SemiSyntheticGenerator,
        shift: DomainShift,
        rep: u64,
        seed: u64,
    ) -> Self {
        let (d1, d2) = gen.sequential_pair(shift, rep);
        Self {
            domains: split_all(vec![d1, d2], seeds::derive(seed, rep)),
        }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Always false (construction requires ≥ 1 domain).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Splits of domain `d`.
    pub fn domain(&self, d: usize) -> &TrainValTest {
        &self.domains[d]
    }

    /// Iterate over domains in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &TrainValTest> {
        self.domains.iter()
    }

    /// Union of the training sets of domains `0..=d` (what the ideal
    /// retrain-from-scratch strategy CFR-C gets to see).
    pub fn pooled_train_up_to(&self, d: usize) -> CausalDataset {
        assert!(
            d < self.domains.len(),
            "pooled_train_up_to: domain out of range"
        );
        let mut pooled = self.domains[0].train.clone();
        for dom in &self.domains[1..=d] {
            pooled = pooled.concat(&dom.train);
        }
        pooled
    }

    /// Test sets of all domains seen so far (`0..=d`), kept separate so
    /// per-domain metrics can be reported (paper's "previous data" / "new
    /// data" columns).
    pub fn test_sets_up_to(&self, d: usize) -> Vec<&CausalDataset> {
        assert!(
            d < self.domains.len(),
            "test_sets_up_to: domain out of range"
        );
        self.domains[..=d].iter().map(|s| &s.test).collect()
    }
}

/// Split each dataset 60/20/20 with its own seeded shuffle.
fn split_all(datasets: Vec<CausalDataset>, seed: u64) -> Vec<TrainValTest> {
    datasets
        .into_iter()
        .enumerate()
        .map(|(d, ds)| {
            let mut rng = seeds::rng_labeled(seed, &format!("split-{d}"));
            ds.split(TRAIN_FRAC, VAL_FRAC, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn quick_stream(n_domains: usize) -> DomainStream {
        let gen = SyntheticGenerator::new(SyntheticConfig::small(), 5);
        DomainStream::synthetic(&gen, n_domains, 0, 11)
    }

    #[test]
    fn split_sizes() {
        let s = quick_stream(3);
        assert_eq!(s.len(), 3);
        for d in s.iter() {
            assert_eq!(d.train.n(), 240); // 60% of 400
            assert_eq!(d.val.n(), 80);
            assert_eq!(d.test.n(), 80);
        }
    }

    #[test]
    fn pooling_accumulates() {
        let s = quick_stream(3);
        assert_eq!(s.pooled_train_up_to(0).n(), 240);
        assert_eq!(s.pooled_train_up_to(1).n(), 480);
        assert_eq!(s.pooled_train_up_to(2).n(), 720);
        assert_eq!(s.test_sets_up_to(1).len(), 2);
    }

    #[test]
    fn deterministic() {
        let a = quick_stream(2);
        let b = quick_stream(2);
        assert_eq!(a.domain(0).train.y, b.domain(0).train.y);
        assert_eq!(a.domain(1).test.y, b.domain(1).test.y);
    }

    #[test]
    #[should_panic(expected = "at least one domain")]
    fn empty_stream_rejected() {
        let gen = SyntheticGenerator::new(SyntheticConfig::small(), 5);
        let _ = DomainStream::synthetic(&gen, 0, 0, 11);
    }

    #[test]
    fn try_constructors_reject_empty_with_typed_error() {
        assert!(matches!(
            DomainStream::try_from_splits(vec![]),
            Err(DataError::EmptyInput { .. })
        ));
        assert!(matches!(
            DomainStream::try_from_datasets(vec![], 3),
            Err(DataError::EmptyInput { .. })
        ));
    }

    #[test]
    fn try_from_splits_keeps_the_splits() {
        let s = quick_stream(2);
        let rebuilt = DomainStream::try_from_splits(s.domains.clone()).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.domain(0).train.y, s.domain(0).train.y);
    }
}
