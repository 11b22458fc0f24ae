//! Causal dataset container and splitting/standardization utilities.
//!
//! A [`CausalDataset`] carries covariates, binary treatments, factual
//! outcomes, and — because every benchmark here is (semi-)synthetic — the
//! true noiseless potential outcomes `μ₀, μ₁`, which evaluation uses to
//! compute PEHE and the true ATE.

use crate::error::DataError;
use cerl_math::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Observational dataset with ground-truth potential outcomes.
#[derive(Debug, Clone)]
pub struct CausalDataset {
    /// Covariates, one unit per row.
    pub x: Matrix,
    /// Treatment indicator per unit.
    pub t: Vec<bool>,
    /// Factual (observed) outcome per unit.
    pub y: Vec<f64>,
    /// True noiseless outcome under control.
    pub mu0: Vec<f64>,
    /// True noiseless outcome under treatment.
    pub mu1: Vec<f64>,
}

impl CausalDataset {
    /// Construct, returning a typed error when any per-unit field's length
    /// disagrees with the covariate row count.
    pub fn try_new(
        x: Matrix,
        t: Vec<bool>,
        y: Vec<f64>,
        mu0: Vec<f64>,
        mu1: Vec<f64>,
    ) -> Result<Self, DataError> {
        let n = x.rows();
        for (field, found) in [
            ("t", t.len()),
            ("y", y.len()),
            ("mu0", mu0.len()),
            ("mu1", mu1.len()),
        ] {
            if found != n {
                return Err(DataError::LengthMismatch {
                    field,
                    expected: n,
                    found,
                });
            }
        }
        Ok(Self { x, t, y, mu0, mu1 })
    }

    /// Number of units.
    pub fn n(&self) -> usize {
        self.x.rows()
    }

    /// Number of covariates.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Indices of treated units.
    pub fn treated_indices(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.t[i]).collect()
    }

    /// Indices of control units.
    pub fn control_indices(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| !self.t[i]).collect()
    }

    /// Number of treated units.
    pub fn n_treated(&self) -> usize {
        self.t.iter().filter(|&&t| t).count()
    }

    /// True individual treatment effect per unit.
    pub fn true_ite(&self) -> Vec<f64> {
        self.mu1
            .iter()
            .zip(&self.mu0)
            .map(|(&a, &b)| a - b)
            .collect()
    }

    /// True average treatment effect.
    pub fn true_ate(&self) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        self.true_ite().iter().sum::<f64>() / self.n() as f64
    }

    /// Subset by unit indices (repeats allowed).
    pub fn select(&self, indices: &[usize]) -> Self {
        Self {
            x: self.x.select_rows(indices),
            t: indices.iter().map(|&i| self.t[i]).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            mu0: indices.iter().map(|&i| self.mu0[i]).collect(),
            mu1: indices.iter().map(|&i| self.mu1[i]).collect(),
        }
    }

    /// Concatenate two datasets (same covariate dimension).
    pub fn concat(&self, other: &Self) -> Self {
        Self {
            x: self.x.vstack(&other.x),
            t: self.t.iter().chain(&other.t).copied().collect(),
            y: self.y.iter().chain(&other.y).copied().collect(),
            mu0: self.mu0.iter().chain(&other.mu0).copied().collect(),
            mu1: self.mu1.iter().chain(&other.mu1).copied().collect(),
        }
    }

    /// Shuffled train/validation/test split (fractions must sum to ≤ 1;
    /// the remainder becomes the test set). The paper uses 60/20/20.
    pub fn split<R: Rng + ?Sized>(
        &self,
        train_frac: f64,
        val_frac: f64,
        rng: &mut R,
    ) -> TrainValTest {
        assert!(
            train_frac >= 0.0 && val_frac >= 0.0 && train_frac + val_frac <= 1.0,
            "split: invalid fractions {train_frac}/{val_frac}"
        );
        let n = self.n();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(rng);
        let n_train = ((n as f64) * train_frac).round() as usize;
        let n_val = ((n as f64) * val_frac).round() as usize;
        let n_train = n_train.min(n);
        let n_val = n_val.min(n - n_train);
        TrainValTest {
            train: self.select(&idx[..n_train]),
            val: self.select(&idx[n_train..n_train + n_val]),
            test: self.select(&idx[n_train + n_val..]),
        }
    }

    /// Factual outcomes as an `n×1` matrix (training target).
    pub fn y_matrix(&self) -> Matrix {
        Matrix::col_vector(&self.y)
    }
}

/// Train/validation/test split of a dataset.
#[derive(Debug, Clone)]
pub struct TrainValTest {
    /// Training split.
    pub train: CausalDataset,
    /// Validation split.
    pub val: CausalDataset,
    /// Held-out test split.
    pub test: CausalDataset,
}

/// Per-column affine standardizer (train-split statistics) with optional
/// z-score clipping.
///
/// Clipping matters for continual estimation on sparse count features: a
/// column that is nearly constant in the fitting domain gets a tiny std,
/// and a later domain where that feature is active would otherwise map to
/// z-scores in the tens or hundreds, destabilizing any downstream network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
    clip: Option<f64>,
}

impl Standardizer {
    /// Fit on the rows of `x`, rejecting empty input; constant columns get
    /// std 1 (identity map).
    pub fn try_fit(x: &Matrix) -> Result<Self, DataError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(DataError::EmptyInput {
                what: "Standardizer::try_fit covariates",
            });
        }
        let means = x.col_means();
        let stds = x
            .col_stds()
            .into_iter()
            .map(|s| if s > 1e-12 { s } else { 1.0 })
            .collect();
        Ok(Self {
            means,
            stds,
            clip: None,
        })
    }

    /// Fit with symmetric z-score clipping, rejecting a non-positive clip
    /// and empty input.
    pub fn try_fit_clipped(x: &Matrix, clip: f64) -> Result<Self, DataError> {
        if !clip.is_finite() || clip <= 0.0 {
            return Err(DataError::InvalidParameter {
                name: "clip",
                reason: format!("must be positive and finite, got {clip}"),
            });
        }
        let mut s = Self::try_fit(x)?;
        s.clip = Some(clip);
        Ok(s)
    }

    /// Apply `(x − μ)/σ` columnwise (then clip, when configured), returning a typed error when `x` has a
    /// different column count than the fitting data. A matrix with no rows
    /// carries no values to map and transforms to an empty matrix of the
    /// fitted width regardless of its nominal column count (so "no
    /// validation data" never trips the dimension check).
    pub fn try_transform(&self, x: &Matrix) -> Result<Matrix, DataError> {
        if x.rows() == 0 {
            return Ok(Matrix::zeros(0, self.means.len()));
        }
        if x.cols() != self.means.len() {
            return Err(DataError::DimensionMismatch {
                expected: self.means.len(),
                found: x.cols(),
            });
        }
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *v = (*v - m) / s;
                if let Some(c) = self.clip {
                    *v = v.clamp(-c, c);
                }
            }
        }
        Ok(out)
    }

    /// Number of columns this standardizer was fit on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Fitted per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-column standard deviations (floored away from zero).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Symmetric z-score clip applied after standardization, if any.
    pub fn clip(&self) -> Option<f64> {
        self.clip
    }
}

/// Scalar standardizer for outcomes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OutcomeScaler {
    mean: f64,
    sd: f64,
}

impl OutcomeScaler {
    /// Fit on a slice of outcomes, rejecting empty input; constant outcomes
    /// get sd 1.
    pub fn try_fit(y: &[f64]) -> Result<Self, DataError> {
        if y.is_empty() {
            return Err(DataError::EmptyInput {
                what: "OutcomeScaler::try_fit outcomes",
            });
        }
        let mean = cerl_math::stats::mean(y);
        let sd = cerl_math::stats::std_dev(y);
        Ok(Self {
            mean,
            sd: if sd > 1e-12 { sd } else { 1.0 },
        })
    }

    /// `(y − μ)/σ`.
    pub fn transform(&self, y: &[f64]) -> Vec<f64> {
        y.iter().map(|&v| (v - self.mean) / self.sd).collect()
    }

    /// `ŷ·σ + μ` (back to the original outcome scale).
    pub fn inverse(&self, y: &[f64]) -> Vec<f64> {
        y.iter().map(|&v| v * self.sd + self.mean).collect()
    }

    /// Fitted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Fitted standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> CausalDataset {
        let x = Matrix::from_fn(n, 3, |i, j| (i * 3 + j) as f64);
        let t: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mu0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mu1: Vec<f64> = (0..n).map(|i| i as f64 + 2.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { mu1[i] } else { mu0[i] })
            .collect();
        CausalDataset::try_new(x, t, y, mu0, mu1).unwrap()
    }

    #[test]
    fn accessors() {
        let d = toy(6);
        assert_eq!(d.n(), 6);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.n_treated(), 3);
        assert_eq!(d.treated_indices(), vec![0, 2, 4]);
        assert_eq!(d.control_indices(), vec![1, 3, 5]);
        assert_eq!(d.true_ate(), 2.0);
        assert!(d.true_ite().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn select_and_concat() {
        let d = toy(4);
        let s = d.select(&[3, 0]);
        assert_eq!(s.n(), 2);
        assert_eq!(s.y[0], d.y[3]);
        assert_eq!(s.t[1], d.t[0]);

        let c = d.concat(&s);
        assert_eq!(c.n(), 6);
        assert_eq!(c.y[4], d.y[3]);
    }

    #[test]
    fn split_covers_everything() {
        let d = toy(100);
        let mut rng = StdRng::seed_from_u64(5);
        let s = d.split(0.6, 0.2, &mut rng);
        assert_eq!(s.train.n(), 60);
        assert_eq!(s.val.n(), 20);
        assert_eq!(s.test.n(), 20);
        // Outcomes are a permutation of the originals.
        let mut all: Vec<f64> = s
            .train
            .y
            .iter()
            .chain(&s.val.y)
            .chain(&s.test.y)
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut orig = d.y.clone();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, orig);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let d = toy(50);
        let a = d.split(0.5, 0.25, &mut StdRng::seed_from_u64(1));
        let b = d.split(0.5, 0.25, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.train.y, b.train.y);
        assert_eq!(a.test.y, b.test.y);
    }

    #[test]
    fn standardizer_normalizes() {
        let x = Matrix::from_rows(&[vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]]);
        let s = Standardizer::try_fit(&x).unwrap();
        let z = s.try_transform(&x).unwrap();
        let m = z.col_means();
        let sd = z.col_stds();
        assert!(m.iter().all(|&v| v.abs() < 1e-12));
        assert!(sd.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn standardizer_constant_column() {
        let x = Matrix::from_rows(&[vec![7.0, 1.0], vec![7.0, 2.0]]);
        let s = Standardizer::try_fit(&x).unwrap();
        let z = s.try_transform(&x).unwrap();
        assert_eq!(z[(0, 0)], 0.0);
        assert_eq!(z[(1, 0)], 0.0);
    }

    #[test]
    fn outcome_scaler_roundtrip() {
        let y = [10.0, 20.0, 30.0, 40.0];
        let s = OutcomeScaler::try_fit(&y).unwrap();
        let z = s.transform(&y);
        assert!(cerl_math::stats::mean(&z).abs() < 1e-12);
        let back = s.inverse(&z);
        for (a, b) in back.iter().zip(&y) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_inconsistent_lengths() {
        let err = CausalDataset::try_new(
            Matrix::zeros(3, 2),
            vec![true],
            vec![0.0; 3],
            vec![0.0; 3],
            vec![0.0; 3],
        )
        .unwrap_err();
        assert_eq!(
            err,
            DataError::LengthMismatch {
                field: "t",
                expected: 3,
                found: 1
            }
        );
    }
}
