//! Bounded memory of feature representations (paper §III-A.2).
//!
//! After each stage the model stores `M_d = {R_d, Y_d, T_d} ∪ φ(M_{d-1})`
//! — *representations*, never raw covariates — reduced to the memory budget
//! by herding run separately for the treatment and control groups so both
//! keep the same number of exemplars.

use crate::error::CerlError;
use crate::herding::{herding_select, random_select};
use cerl_math::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Stored representations with their outcomes and treatments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Memory {
    /// Representation vectors (one per row).
    pub r: Matrix,
    /// Factual outcomes (original scale).
    pub y: Vec<f64>,
    /// Treatment indicators.
    pub t: Vec<bool>,
}

impl Memory {
    /// Construct, returning a typed error when outcome or treatment lengths
    /// disagree with the representation row count.
    pub fn try_new(r: Matrix, y: Vec<f64>, t: Vec<bool>) -> Result<Self, CerlError> {
        if y.len() != r.rows() {
            return Err(CerlError::Data(cerl_data::DataError::LengthMismatch {
                field: "y",
                expected: r.rows(),
                found: y.len(),
            }));
        }
        if t.len() != r.rows() {
            return Err(CerlError::Data(cerl_data::DataError::LengthMismatch {
                field: "t",
                expected: r.rows(),
                found: t.len(),
            }));
        }
        Ok(Self { r, y, t })
    }

    /// Empty memory with the given representation dimension.
    pub fn empty(dim: usize) -> Self {
        Self {
            r: Matrix::zeros(0, dim),
            y: Vec::new(),
            t: Vec::new(),
        }
    }

    /// Number of stored exemplars.
    pub fn len(&self) -> usize {
        self.r.rows()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Representation dimension.
    pub fn dim(&self) -> usize {
        self.r.cols()
    }

    /// Indices of treated exemplars.
    pub fn treated_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.t[i]).collect()
    }

    /// Indices of control exemplars.
    pub fn control_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.t[i]).collect()
    }

    /// Subset by indices.
    pub fn select(&self, indices: &[usize]) -> Self {
        Self {
            r: self.r.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            t: indices.iter().map(|&i| self.t[i]).collect(),
        }
    }

    /// Union of two memories, failing with
    /// [`CerlError::MemoryDimensionMismatch`] when the representation
    /// dimensions disagree.
    ///
    /// The check is unconditional — even for an empty side, whose dimension
    /// is still carried by its matrix — so replay memory restored from a
    /// corrupt or foreign snapshot is rejected here instead of silently
    /// poisoning the exemplar store (or panicking inside `vstack` mid-way
    /// through a serving process's `observe`).
    pub fn try_concat(&self, other: &Self) -> Result<Self, CerlError> {
        if self.dim() != other.dim() {
            return Err(CerlError::MemoryDimensionMismatch {
                expected: self.dim(),
                found: other.dim(),
            });
        }
        Ok(Self {
            r: self.r.vstack(&other.r),
            y: self.y.iter().chain(&other.y).copied().collect(),
            t: self.t.iter().chain(&other.t).copied().collect(),
        })
    }

    /// Reduce to at most `budget` exemplars, half per treatment group
    /// (herding per group when `use_herding`, random subsampling otherwise).
    ///
    /// When a group has fewer members than its half-budget, the group is
    /// kept whole (the other group is *not* expanded, keeping the groups as
    /// balanced as the data allows — the paper stores "the same number of
    /// feature representations from treatment and control groups").
    pub fn reduce<R: Rng + ?Sized>(&self, budget: usize, use_herding: bool, rng: &mut R) -> Self {
        if self.len() <= budget {
            return self.clone();
        }
        let per_group = budget / 2;
        let treated = self.treated_indices();
        let control = self.control_indices();

        let pick = |group: &[usize], k: usize, rng: &mut R| -> Vec<usize> {
            if group.len() <= k {
                return group.to_vec();
            }
            if use_herding {
                let sub = self.r.select_rows(group);
                herding_select(&sub, k)
                    .into_iter()
                    .map(|local| group[local])
                    .collect()
            } else {
                random_select(group.len(), k, rng)
                    .into_iter()
                    .map(|local| group[local])
                    .collect()
            }
        };

        let mut keep = pick(&treated, per_group, rng);
        keep.extend(pick(&control, per_group, rng));
        self.select(&keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_memory(n: usize, seed: u64) -> Memory {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let r = Matrix::from_fn(n, 4, |_, _| rng.gen::<f64>());
        let t: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.5).collect();
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        Memory::try_new(r, y, t).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = toy_memory(10, 1);
        assert_eq!(m.len(), 10);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.treated_indices().len() + m.control_indices().len(), 10);
        assert!(!m.is_empty());
        assert!(Memory::empty(4).is_empty());
    }

    #[test]
    fn select_and_concat() {
        let m = toy_memory(6, 2);
        let s = m.select(&[0, 5]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.y, vec![0.0, 5.0]);
        let c = m.try_concat(&s).unwrap();
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn concat_rejects_dimension_mismatch() {
        let a = toy_memory(4, 10);
        let b = Memory::try_new(Matrix::zeros(3, 7), vec![0.0; 3], vec![false; 3]).unwrap();
        match a.try_concat(&b) {
            Err(CerlError::MemoryDimensionMismatch { expected, found }) => {
                assert_eq!(expected, 4);
                assert_eq!(found, 7);
            }
            other => panic!(
                "expected MemoryDimensionMismatch, got {:?}",
                other.map(|_| ())
            ),
        }
        // Emptiness does not bypass the check: an empty memory still
        // declares a representation dimension.
        let empty = Memory::empty(7);
        assert!(a.try_concat(&empty).is_err());
        assert!(Memory::empty(4).try_concat(&a).is_ok());
    }

    #[test]
    fn reduce_respects_budget_and_balance() {
        let m = toy_memory(200, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let reduced = m.reduce(40, true, &mut rng);
        assert!(reduced.len() <= 40);
        let nt = reduced.treated_indices().len();
        let nc = reduced.control_indices().len();
        assert_eq!(nt, 20);
        assert_eq!(nc, 20);
    }

    #[test]
    fn reduce_noop_when_under_budget() {
        let m = toy_memory(10, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let reduced = m.reduce(100, true, &mut rng);
        assert_eq!(reduced.len(), 10);
    }

    #[test]
    fn reduce_with_tiny_group_keeps_it_whole() {
        // 3 treated, 50 control, budget 20 → treated kept whole (3),
        // control reduced to 10.
        let mut r = Matrix::zeros(53, 2);
        for i in 0..53 {
            r[(i, 0)] = i as f64;
        }
        let mut t = vec![false; 53];
        t[0] = true;
        t[1] = true;
        t[2] = true;
        let y = vec![0.0; 53];
        let m = Memory::try_new(r, y, t).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let reduced = m.reduce(20, true, &mut rng);
        assert_eq!(reduced.treated_indices().len(), 3);
        assert_eq!(reduced.control_indices().len(), 10);
    }

    #[test]
    fn random_reduction_also_respects_budget() {
        let m = toy_memory(100, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let reduced = m.reduce(30, false, &mut rng);
        assert!(reduced.len() <= 30);
    }
}
