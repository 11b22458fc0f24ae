//! Herding exemplar selection (Welling 2009; iCaRL, Rebuffi et al. 2017).
//!
//! Greedily picks exemplars so that the running mean of the selected
//! representations tracks the full-set mean — a representative subset that
//! needs far fewer samples than random subsampling for the same
//! approximation quality (paper §III-A.2). The paper runs it separately per
//! treatment group so the memory stays balanced.

use cerl_math::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Greedy herding: return `m` row indices of `reprs` (without repetition)
/// whose running mean best tracks the full mean at every prefix.
///
/// If `m ≥ reprs.rows()`, all indices are returned (in herding order).
pub fn herding_select(reprs: &Matrix, m: usize) -> Vec<usize> {
    let n = reprs.rows();
    let d = reprs.cols();
    let m = m.min(n);
    if m == 0 || n == 0 {
        return Vec::new();
    }
    let target = reprs.col_means();
    let mut selected = Vec::with_capacity(m);
    let mut taken = vec![false; n];
    let mut running_sum = vec![0.0; d];

    for k in 0..m {
        // Choose x minimizing ‖target − (running_sum + x)/(k+1)‖².
        let mut best: Option<(usize, f64)> = None;
        #[allow(clippy::needless_range_loop)] // `taken` and `reprs` share the index
        for i in 0..n {
            if taken[i] {
                continue;
            }
            let row = reprs.row(i);
            let mut dist = 0.0;
            for j in 0..d {
                let cand = (running_sum[j] + row[j]) / (k as f64 + 1.0);
                let diff = target[j] - cand;
                dist += diff * diff;
            }
            match best {
                Some((_, bd)) if dist >= bd => {}
                _ => best = Some((i, dist)),
            }
        }
        // `m <= n` and each pass marks exactly one candidate, so a free
        // candidate always exists; break defensively instead of panicking.
        let idx = match best {
            Some((idx, _)) => idx,
            None => break,
        };
        taken[idx] = true;
        for (s, &v) in running_sum.iter_mut().zip(reprs.row(idx)) {
            *s += v;
        }
        selected.push(idx);
    }
    selected
}

/// Random subsampling baseline (the "w/o herding" ablation): `m` distinct
/// indices of `0..n`.
pub fn random_select<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(m.min(n));
    idx
}

/// Mean-approximation error `‖mean(selected) − mean(all)‖₂` of a selection
/// (diagnostic used in tests).
pub fn mean_approximation_error(reprs: &Matrix, selected: &[usize]) -> f64 {
    if selected.is_empty() {
        return f64::INFINITY;
    }
    let target = reprs.col_means();
    let sub = reprs.select_rows(selected);
    let got = sub.col_means();
    cerl_math::norms::euclidean_distance(&target, &got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_reprs(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
    }

    #[test]
    fn selects_requested_count_without_repeats() {
        let r = random_reprs(50, 4, 1);
        let sel = herding_select(&r, 20);
        assert_eq!(sel.len(), 20);
        let mut uniq = sel.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 20, "duplicates in herding selection");
    }

    #[test]
    fn m_larger_than_n_returns_all() {
        let r = random_reprs(7, 3, 2);
        let sel = herding_select(&r, 100);
        assert_eq!(sel.len(), 7);
    }

    #[test]
    fn empty_cases() {
        let r = Matrix::zeros(0, 3);
        assert!(herding_select(&r, 5).is_empty());
        let r2 = random_reprs(5, 3, 3);
        assert!(herding_select(&r2, 0).is_empty());
    }

    #[test]
    fn herding_beats_random_on_mean_approximation() {
        // Core claim from the paper: herding needs fewer samples than
        // random subsampling for the same approximation quality. Compare
        // the mean-approximation error at a small budget, averaged over
        // several random draws.
        let r = random_reprs(400, 8, 4);
        let m = 20;
        let herd_err = mean_approximation_error(&r, &herding_select(&r, m));
        let mut rng = StdRng::seed_from_u64(5);
        let mut rand_errs = Vec::new();
        for _ in 0..20 {
            rand_errs.push(mean_approximation_error(
                &r,
                &random_select(400, m, &mut rng),
            ));
        }
        let rand_mean = rand_errs.iter().sum::<f64>() / rand_errs.len() as f64;
        assert!(
            herd_err < rand_mean * 0.5,
            "herding err {herd_err} not clearly better than random {rand_mean}"
        );
    }

    #[test]
    fn first_pick_is_closest_to_mean() {
        let r = Matrix::from_rows(&[
            vec![10.0, 0.0],
            vec![0.1, 0.1], // closest to the mean of these rows
            vec![-10.0, 0.0],
            vec![0.0, 10.0],
            vec![0.0, -10.0],
        ]);
        let sel = herding_select(&r, 1);
        assert_eq!(sel[0], 1);
    }

    #[test]
    fn random_select_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let sel = random_select(10, 4, &mut rng);
        assert_eq!(sel.len(), 4);
        assert!(sel.iter().all(|&i| i < 10));
        let all = random_select(3, 10, &mut rng);
        assert_eq!(all.len(), 3);
    }
}
