//! Herding exemplar selection (Welling 2009; iCaRL, Rebuffi et al. 2017).
//!
//! Greedily picks exemplars so that the running mean of the selected
//! representations tracks the full-set mean — a representative subset that
//! needs far fewer samples than random subsampling for the same
//! approximation quality (paper §III-A.2). The paper runs it separately per
//! treatment group so the memory stays balanced.
//!
//! # Per-lane order
//!
//! Each greedy step scores every candidate `i` by
//! `Σ_j (target_j − (s_j + x_ij)/(k+1))²`. The candidates are independent
//! lanes: the pool is laid out column-major once per call, and a register
//! block of candidates is scored side by side while each candidate's sum
//! keeps one order — it starts at `0.0` and adds its terms in coordinate
//! order `j = 0, 1, …`, every term with its own division by `k+1`. The scan
//! then visits candidates in index order and keeps the first of equal
//! scores (a later one must score strictly lower to replace it). Summing
//! one candidate's coordinates in another order (pairwise, or with several
//! accumulators, as vectorising along `j` would need), or multiplying by
//! `1/(k+1)` instead of dividing, would round differently, and a changed
//! last bit can change which exemplar wins a near-tie and with it the
//! memory every later stage trains on.

use cerl_math::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Greedy herding: return `m` row indices of `reprs` (without repetition)
/// whose running mean best tracks the full mean at every prefix.
///
/// If `m ≥ reprs.rows()`, all indices are returned (in herding order).
pub fn herding_select(reprs: &Matrix, m: usize) -> Vec<usize> {
    let n = reprs.rows();
    let m = m.min(n);
    if m == 0 || n == 0 {
        return Vec::new();
    }
    let target = reprs.col_means();
    // The pool column-major: column j of `reprs` is row j of `pool`.
    let pool = reprs.transpose();
    let mut selected = Vec::with_capacity(m);
    let mut taken = vec![false; n];
    let mut running_sum = vec![0.0; reprs.cols()];
    let mut dist = vec![0.0; n];

    for k in 0..m {
        // Choose x minimizing ‖target − (running_sum + x)/(k+1)‖².
        distances(&pool, &target, &running_sum, k as f64 + 1.0, &mut dist);
        let mut best: Option<(usize, f64)> = None;
        for (i, &d) in dist.iter().enumerate() {
            if taken[i] {
                continue;
            }
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((i, d)),
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

/// Candidates per register block of [`distances`].
const BLOCK: usize = 16;

/// `dist[i] = Σ_j (target_j − (sum_j + x_ij)/count)²` for every candidate
/// `i`, with `pool` the candidates column-major (`pool[(j, i)] = x_ij`).
/// Candidates are independent lanes; each one's sum starts at `0.0` and
/// adds its terms in coordinate order `j = 0, 1, …` (see the
/// [module docs](self) on per-lane order).
fn distances(pool: &Matrix, target: &[f64], sum: &[f64], count: f64, dist: &mut [f64]) {
    let n = dist.len();
    let mut i0 = 0;
    while i0 + BLOCK <= n {
        distance_block::<BLOCK>(pool, target, sum, count, i0, dist);
        i0 += BLOCK;
    }
    while i0 < n {
        distance_block::<1>(pool, target, sum, count, i0, dist);
        i0 += 1;
    }
}

/// [`distances`] for candidates `i0..i0 + B`, accumulated in registers.
#[inline(always)]
fn distance_block<const B: usize>(
    pool: &Matrix,
    target: &[f64],
    sum: &[f64],
    count: f64,
    i0: usize,
    dist: &mut [f64],
) {
    let mut acc = [0.0; B];
    for ((&t, &s), col) in target
        .iter()
        .zip(sum)
        .zip(pool.as_slice().chunks_exact(dist.len()))
    {
        for (a, &x) in acc.iter_mut().zip(&col[i0..i0 + B]) {
            let diff = t - (s + x) / count;
            *a += diff * diff;
        }
    }
    dist[i0..i0 + B].copy_from_slice(&acc);
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

    /// Herding as it was written before candidates ran as lanes: one
    /// candidate row at a time.
    fn row_loop_reference(reprs: &Matrix, m: usize) -> Vec<usize> {
        let (n, d) = reprs.shape();
        let m = m.min(n);
        if m == 0 || n == 0 {
            return Vec::new();
        }
        let target = reprs.col_means();
        let mut selected = Vec::with_capacity(m);
        let mut taken = vec![false; n];
        let mut running_sum = vec![0.0; d];
        for k in 0..m {
            let mut best: Option<(usize, f64)> = None;
            for i in (0..n).filter(|&i| !taken[i]) {
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
            let (idx, _) = best.expect("a free candidate");
            taken[idx] = true;
            for (s, &v) in running_sum.iter_mut().zip(reprs.row(idx)) {
                *s += v;
            }
            selected.push(idx);
        }
        selected
    }

    /// Every candidate's lane-parallel score has the bits of the row
    /// loop's score for it, at every step `k` of a selection, across
    /// full blocks and tails.
    #[test]
    fn lane_scores_match_the_row_loop_bit_for_bit() {
        let r = random_reprs(37, 32, 14);
        let (target, pool) = (r.col_means(), r.transpose());
        let mut sum = vec![0.0; 32];
        let mut dist = vec![0.0; 37];
        for k in 0..6 {
            distances(&pool, &target, &sum, k as f64 + 1.0, &mut dist);
            for (i, got) in dist.iter().enumerate() {
                let mut want = 0.0;
                for j in 0..32 {
                    let diff = target[j] - (sum[j] + r[(i, j)]) / (k as f64 + 1.0);
                    want += diff * diff;
                }
                assert_eq!(got.to_bits(), want.to_bits(), "k={k} candidate {i}");
            }
            for (s, &v) in sum.iter_mut().zip(r.row(k * 5)) {
                *s += v;
            }
        }
    }

    /// The lane-parallel scan picks exactly what the row loop picks, at
    /// pool sizes with full 16-candidate blocks and single-candidate
    /// tails, for budgets from 0 to the whole pool; duplicated rows tie,
    /// and a tie goes to the lowest index.
    #[test]
    fn lane_scan_matches_the_row_loop() {
        for (n, d, seed) in [(1, 3, 10), (15, 4, 11), (37, 8, 12), (130, 32, 13)] {
            let mut r = random_reprs(n, d, seed);
            // Every third row repeats an earlier one.
            for i in (3..n).step_by(3) {
                for j in 0..d {
                    r[(i, j)] = r[(i / 3, j)];
                }
            }
            for m in [0, 1, n / 2, n - 1, n, n + 5] {
                assert_eq!(
                    herding_select(&r, m),
                    row_loop_reference(&r, m),
                    "n={n} d={d} m={m}"
                );
            }
        }
        // A pool of identical rows: every score ties at every step, so
        // the selection is the index order.
        let same = Matrix::from_fn(20, 5, |_, j| j as f64 * 0.25);
        assert_eq!(herding_select(&same, 20), (0..20).collect::<Vec<_>>());
        assert_eq!(row_loop_reference(&same, 20), (0..20).collect::<Vec<_>>());
    }
}
