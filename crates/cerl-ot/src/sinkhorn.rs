//! Sinkhorn iterations for entropy-regularized optimal transport.
//!
//! The paper balances treated/control representation distributions with an
//! IPM instantiated as the Wasserstein distance (Eq. 3), following the CFR
//! line of work, which computes it with Sinkhorn iterations.
//!
//! The solver runs in scaling form: it builds the Gibbs kernel
//! `K = exp(−C/ε)` once, alternates `u = a ⊘ (K v)` and `v = b ⊘ (Kᵀ u)`,
//! and forms the plan `P = diag(u) K diag(v)` in `K`'s buffer — one `exp`
//! per cell per solve instead of two per cell per iteration. These are the
//! iterates of the log-domain potentials (`u = e^{f/ε}`, `v = e^{g/ε}`,
//! both starting at 1), so both forms agree up to rounding. When `K` could
//! underflow (`max |C|/ε` above 200) or a scaling comes out non-finite or
//! non-positive, the solver falls back to the log-domain form, which is
//! robust to small `ε` and lets a non-finite cost surface as a non-finite
//! result.
//!
//! # Per-lane order
//!
//! Both products are swept across independent lanes: `K v` across the rows
//! of `K` (read as the rows of `Kᵀ`, transposed once per solve) and `Kᵀ u`
//! across its columns, a register block of lanes at a time. Each lane is
//! one sum, added term by term in a fixed order: lane `i` of `K v` starts
//! where `Iterator::sum` starts and adds `K_ij·v_j` for `j = 0, 1, …` —
//! exactly what `cerl_math::dot(K.row(i), v)` computes — and lane `j` of
//! `Kᵀ u` starts at `0.0` and adds `u_i·K_ij` for `i = 0, 1, …`. Only
//! independent sums run side by side; no sum is split. A `dot` reordered
//! along its own axis (pairwise or multi-accumulator, as a vectoriser
//! would need) would round differently, move the plan's last bits and
//! with them every trained model, so the lanes run across rows instead.

use cerl_math::Matrix;

/// Largest `|C_ij|/ε` the scaling form accepts. `exp(−200)` ≈ 1e-87 leaves
/// the scalings ~220 decades of headroom before they over- or underflow;
/// beyond it the log-domain form takes over.
const SCALING_LIMIT: f64 = 200.0;

/// Configuration for the Sinkhorn solver.
#[derive(Debug, Clone, Copy)]
pub struct SinkhornConfig {
    /// Entropic regularization strength. Interpreted per [`EpsilonMode`].
    pub epsilon: f64,
    /// How `epsilon` relates to the cost matrix.
    pub epsilon_mode: EpsilonMode,
    /// Number of Sinkhorn iterations.
    pub iterations: usize,
}

/// Interpretation of the `epsilon` field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonMode {
    /// Use `epsilon` directly.
    Absolute,
    /// Use `epsilon · mean(cost)`, adapting regularization to the scale of
    /// the batch (recommended; cost scales vary wildly across domains).
    RelativeToMeanCost,
}

impl Default for SinkhornConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            epsilon_mode: EpsilonMode::RelativeToMeanCost,
            iterations: 50,
        }
    }
}

/// Output of [`sinkhorn_plan`].
#[derive(Debug, Clone)]
pub struct SinkhornResult {
    /// Transport plan `P` (rows sum to `a`, columns to `b`).
    pub plan: Matrix,
    /// Transport cost `⟨P, C⟩` (without the entropy term).
    pub cost: f64,
    /// Effective `ε` actually used (after mode resolution).
    pub effective_epsilon: f64,
}

/// Solve entropy-regularized OT between histograms `a` (len n) and `b`
/// (len m) under cost matrix `cost` (n×m), returning the plan and cost.
///
/// # Panics
/// If marginals are not positive probability vectors matching `cost`'s
/// shape.
pub fn sinkhorn_plan(cost: &Matrix, a: &[f64], b: &[f64], cfg: &SinkhornConfig) -> SinkhornResult {
    let (n, m) = cost.shape();
    assert_eq!(a.len(), n, "sinkhorn_plan: marginal a length mismatch");
    assert_eq!(b.len(), m, "sinkhorn_plan: marginal b length mismatch");
    if n == 0 || m == 0 {
        return SinkhornResult {
            plan: Matrix::zeros(n, m),
            cost: 0.0,
            effective_epsilon: cfg.epsilon,
        };
    }
    assert!(
        a.iter().all(|&v| v > 0.0),
        "sinkhorn_plan: marginal a must be positive"
    );
    assert!(
        b.iter().all(|&v| v > 0.0),
        "sinkhorn_plan: marginal b must be positive"
    );

    let eps = match cfg.epsilon_mode {
        EpsilonMode::Absolute => cfg.epsilon,
        EpsilonMode::RelativeToMeanCost => {
            let mean_c = cost.mean().max(1e-12);
            cfg.epsilon * mean_c
        }
    }
    .max(1e-12);

    let iterations = cfg.iterations.max(1);
    let (plan, cost) = scaling_form(cost, a, b, eps, iterations)
        .unwrap_or_else(|| log_domain(cost, a, b, eps, iterations));
    SinkhornResult {
        plan,
        cost,
        effective_epsilon: eps,
    }
}

/// Scaling-form Sinkhorn, returning the plan and `⟨P, C⟩`; `None` when
/// the kernel could underflow or a scaling leaves `(0, ∞)`, in which case
/// the caller falls back to [`log_domain`].
fn scaling_form(
    cost: &Matrix,
    a: &[f64],
    b: &[f64],
    eps: f64,
    iterations: usize,
) -> Option<(Matrix, f64)> {
    // Written so that a NaN cost fails the test and takes the fallback.
    if !cost
        .as_slice()
        .iter()
        .all(|&c| c.abs() <= SCALING_LIMIT * eps)
    {
        return None;
    }
    let (n, m) = cost.shape();
    let mut k = cost.map(|c| (-c / eps).exp());
    let kt = k.transpose();
    // u, v and the two products, in one buffer.
    let mut scratch = vec![1.0; 2 * (n + m)];
    let (u, rest) = scratch.split_at_mut(n);
    let (v, rest) = rest.split_at_mut(m);
    let (k_v, kt_u) = rest.split_at_mut(n);
    // Where `Iterator::sum` (and so `cerl_math::dot`) starts.
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    for _ in 0..iterations {
        // u ← a ⊘ (K v): lane i sums K_ij·v_j over the rows j of Kᵀ.
        lane_sums(kt.as_slice(), v, sum_start, k_v);
        for ((ui, &ai), &s) in u.iter_mut().zip(a).zip(k_v.iter()) {
            *ui = ai / s;
        }
        // v ← b ⊘ (Kᵀ u): lane j sums u_i·K_ij over the rows i of K.
        lane_sums(k.as_slice(), u, 0.0, kt_u);
        for ((vj, &bj), &s) in v.iter_mut().zip(b).zip(kt_u.iter()) {
            *vj = bj / s;
        }
        if !u.iter().chain(v.iter()).all(|&x| x.is_finite() && x > 0.0) {
            return None;
        }
    }
    // P = diag(u) K diag(v), in place.
    let mut total = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        for ((p, &vj), &c) in k.row_mut(i).iter_mut().zip(v.iter()).zip(cost.row(i)) {
            *p *= ui * vj;
            total += *p * c;
        }
    }
    Some((k, total))
}

/// Lanes per register block of [`lane_sums`]: enough independent sums in
/// flight to hide the latency of each one's additions.
const BLOCK: usize = 32;

/// `out[l] = start + Σ_r x[r]·rows[r·w + l]` for every lane `l < w =
/// out.len()`, where `rows` is a row-major `x.len() × w` matrix: each lane
/// adds its terms in row order `r = 0, 1, …`, one rounding per term (see
/// the [module docs](self) on per-lane order).
fn lane_sums(rows: &[f64], x: &[f64], start: f64, out: &mut [f64]) {
    let w = out.len();
    debug_assert_eq!(rows.len(), x.len() * w, "lane_sums: shape mismatch");
    let mut l0 = 0;
    while l0 + BLOCK <= w {
        lane_block::<BLOCK>(rows, w, l0, x, start, out);
        l0 += BLOCK;
    }
    while l0 + 8 <= w {
        lane_block::<8>(rows, w, l0, x, start, out);
        l0 += 8;
    }
    while l0 < w {
        lane_block::<1>(rows, w, l0, x, start, out);
        l0 += 1;
    }
}

/// [`lane_sums`] for lanes `l0..l0 + B`, accumulated in registers.
#[inline(always)]
fn lane_block<const B: usize>(
    rows: &[f64],
    w: usize,
    l0: usize,
    x: &[f64],
    start: f64,
    out: &mut [f64],
) {
    let mut acc = [start; B];
    for (row, &xr) in rows.chunks_exact(w).zip(x) {
        for (a, &r) in acc.iter_mut().zip(&row[l0..l0 + B]) {
            *a += r * xr;
        }
    }
    out[l0..l0 + B].copy_from_slice(&acc);
}

/// Log-domain Sinkhorn on the potentials `f`, `g`, returning the plan and
/// `⟨P, C⟩`. Two `exp` calls per cell per iteration, but robust to any `ε`.
fn log_domain(cost: &Matrix, a: &[f64], b: &[f64], eps: f64, iterations: usize) -> (Matrix, f64) {
    let (n, m) = cost.shape();
    let log_a: Vec<f64> = a.iter().map(|&v| v.ln()).collect();
    let log_b: Vec<f64> = b.iter().map(|&v| v.ln()).collect();
    let mut f = vec![0.0; n]; // potential for rows
    let mut g = vec![0.0; m]; // potential for columns

    for _ in 0..iterations {
        // f_i ← ε·log a_i − ε·LSE_j((g_j − C_ij)/ε)
        for i in 0..n {
            let row = cost.row(i);
            let mut mx = f64::NEG_INFINITY;
            for (j, &c) in row.iter().enumerate() {
                mx = mx.max((g[j] - c) / eps);
            }
            let mut s = 0.0;
            for (j, &c) in row.iter().enumerate() {
                s += ((g[j] - c) / eps - mx).exp();
            }
            f[i] = eps * log_a[i] - eps * (mx + s.ln());
        }
        // g_j ← ε·log b_j − ε·LSE_i((f_i − C_ij)/ε)
        for j in 0..m {
            let mut mx = f64::NEG_INFINITY;
            for i in 0..n {
                mx = mx.max((f[i] - cost[(i, j)]) / eps);
            }
            let mut s = 0.0;
            for i in 0..n {
                s += ((f[i] - cost[(i, j)]) / eps - mx).exp();
            }
            g[j] = eps * log_b[j] - eps * (mx + s.ln());
        }
    }

    let mut plan = Matrix::zeros(n, m);
    let mut total = 0.0;
    for i in 0..n {
        for j in 0..m {
            let p = ((f[i] + g[j] - cost[(i, j)]) / eps).exp();
            plan[(i, j)] = p;
            total += p * cost[(i, j)];
        }
    }
    (plan, total)
}

/// [`sinkhorn_plan`] with uniform marginals.
pub fn sinkhorn_uniform(cost: &Matrix, cfg: &SinkhornConfig) -> SinkhornResult {
    let (n, m) = cost.shape();
    let a = vec![1.0 / n.max(1) as f64; n];
    let b = vec![1.0 / m.max(1) as f64; m];
    sinkhorn_plan(cost, &a, &b, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_math::norms::pairwise_sq_dists;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg(eps: f64, iters: usize) -> SinkhornConfig {
        SinkhornConfig {
            epsilon: eps,
            epsilon_mode: EpsilonMode::Absolute,
            iterations: iters,
        }
    }

    #[test]
    fn marginals_are_respected() {
        let cost = Matrix::from_fn(4, 6, |i, j| ((i * 3 + j) as f64 * 0.7).sin().abs() + 0.1);
        let r = sinkhorn_uniform(&cost, &cfg(0.05, 300));
        // Row sums ≈ 1/4, column sums ≈ 1/6.
        for i in 0..4 {
            let s: f64 = r.plan.row(i).iter().sum();
            assert!((s - 0.25).abs() < 1e-6, "row {i} sum {s}");
        }
        for j in 0..6 {
            let s: f64 = r.plan.col(j).iter().sum();
            assert!((s - 1.0 / 6.0).abs() < 1e-6, "col {j} sum {s}");
        }
    }

    #[test]
    fn identical_points_give_zero_cost() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let cost = pairwise_sq_dists(&x, &x);
        let r = sinkhorn_uniform(&cost, &cfg(0.01, 200));
        assert!(r.cost < 1e-6, "cost={}", r.cost);
    }

    #[test]
    fn matches_exact_on_two_points() {
        // Two treated at {0, 1}, two control at {0, 1} shifted by δ:
        // optimal coupling matches nearest neighbours.
        let xt = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let xc = Matrix::from_rows(&[vec![0.1], vec![1.1]]);
        let cost = pairwise_sq_dists(&xt, &xc);
        let r = sinkhorn_uniform(&cost, &cfg(0.001, 500));
        // Exact W2² = mean of (0.1)² = 0.01.
        assert!((r.cost - 0.01).abs() < 1e-3, "cost={}", r.cost);
        // Plan concentrates on the diagonal.
        assert!(r.plan[(0, 0)] > 0.4 && r.plan[(1, 1)] > 0.4);
        assert!(r.plan[(0, 1)] < 0.1 && r.plan[(1, 0)] < 0.1);
    }

    #[test]
    fn larger_epsilon_blurs_plan() {
        let xt = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let xc = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let cost = pairwise_sq_dists(&xt, &xc);
        let sharp = sinkhorn_uniform(&cost, &cfg(0.1, 300));
        let blurred = sinkhorn_uniform(&cost, &cfg(100.0, 300));
        assert!(sharp.plan[(0, 0)] > blurred.plan[(0, 0)]);
        assert!(blurred.cost > sharp.cost);
    }

    #[test]
    fn relative_epsilon_scales_with_cost() {
        let cost_small =
            Matrix::from_fn(3, 3, |i, j| ((i + 2 * j) as f64 * 0.31).cos().abs() * 0.01);
        let cost_big = cost_small.scale(1e6);
        let cfg_rel = SinkhornConfig {
            epsilon: 0.05,
            epsilon_mode: EpsilonMode::RelativeToMeanCost,
            iterations: 200,
        };
        let rs = sinkhorn_uniform(&cost_small, &cfg_rel);
        let rb = sinkhorn_uniform(&cost_big, &cfg_rel);
        // Plans should be (nearly) identical because ε scales with cost.
        assert!(rs.plan.approx_eq(&rb.plan, 1e-6));
        assert!((rb.cost / rs.cost - 1e6).abs() / 1e6 < 1e-6);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let cost = Matrix::zeros(0, 3);
        let r = sinkhorn_plan(&cost, &[], &[0.3, 0.3, 0.4], &SinkhornConfig::default());
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.plan.shape(), (0, 3));
    }

    #[test]
    fn nonuniform_marginals() {
        let cost = Matrix::from_fn(2, 2, |i, j| if i == j { 0.0 } else { 1.0 });
        let r = sinkhorn_plan(&cost, &[0.9, 0.1], &[0.9, 0.1], &cfg(0.01, 300));
        assert!((r.plan[(0, 0)] - 0.9).abs() < 1e-3);
        assert!((r.plan[(1, 1)] - 0.1).abs() < 1e-3);
        assert!(r.cost < 1e-2);
    }

    fn probabilities(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let w: Vec<f64> = (0..n).map(|_| 0.1 + rng.gen::<f64>()).collect();
        let total: f64 = w.iter().sum();
        w.iter().map(|v| v / total).collect()
    }

    fn max_rel_err(got: &Matrix, want: &Matrix) -> f64 {
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(g, w)| (g - w).abs() / w.abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn scaling_form_matches_log_domain() {
        let mut rng = StdRng::seed_from_u64(12);
        for case in 0..12usize {
            let (n, m) = (1 + (case * 7) % 40, 1 + (case * 11) % 70);
            let cost = Matrix::from_fn(n, m, |_, _| rng.gen::<f64>() * 4.0);
            let (a, b) = (probabilities(&mut rng, n), probabilities(&mut rng, m));
            let eps = [0.05, 0.1, 0.5, 2.0][case % 4];
            let iters = [1, 30, 100][case % 3];
            let (plan, cost_s) =
                scaling_form(&cost, &a, &b, eps, iters).expect("scaling form applies");
            let (plan_log, cost_log) = log_domain(&cost, &a, &b, eps, iters);
            let plan_err = max_rel_err(&plan, &plan_log);
            let cost_err = (cost_s - cost_log).abs() / cost_log.abs();
            assert!(plan_err <= 1e-12, "case {case}: plan rel err {plan_err:e}");
            assert!(cost_err <= 1e-12, "case {case}: cost rel err {cost_err:e}");
        }
    }

    #[test]
    fn small_absolute_epsilon_takes_log_domain_fallback() {
        // The two-point cost of `matches_exact_on_two_points` at ε = 0.001,
        // and a cost shaped like the ε = 0.002 Wasserstein gradcheck's.
        let mut rng = StdRng::seed_from_u64(21);
        let xt = Matrix::from_fn(4, 3, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
        let xc = Matrix::from_fn(5, 3, |_, _| rng.gen::<f64>() * 2.0 - 0.5);
        let two_points = pairwise_sq_dists(
            &Matrix::from_rows(&[vec![0.0], vec![1.0]]),
            &Matrix::from_rows(&[vec![0.1], vec![1.1]]),
        );
        for (cost, eps, iters) in [
            (two_points, 0.001, 500),
            (pairwise_sq_dists(&xt, &xc), 0.002, 4000),
        ] {
            let (n, m) = cost.shape();
            let a = vec![1.0 / n as f64; n];
            let b = vec![1.0 / m as f64; m];
            assert!(scaling_form(&cost, &a, &b, eps, iters).is_none());
            let r = sinkhorn_uniform(&cost, &cfg(eps, iters));
            let (plan, total) = log_domain(&cost, &a, &b, eps, iters);
            assert_eq!(r.plan.as_slice(), plan.as_slice());
            assert_eq!(r.cost, total);
            assert!(r.plan.all_finite() && r.cost.is_finite());
        }
    }

    #[test]
    fn nan_cost_never_yields_a_finite_plan() {
        let configs = [
            cfg(0.1, 30),
            cfg(1e-3, 30),
            SinkhornConfig {
                epsilon: 0.1,
                epsilon_mode: EpsilonMode::RelativeToMeanCost,
                iterations: 30,
            },
        ];
        for c in configs {
            let mut cost = Matrix::from_fn(5, 4, |i, j| ((i * 4 + j) as f64 * 0.37).sin().abs());
            cost[(2, 1)] = f64::NAN;
            let r = sinkhorn_uniform(&cost, &c);
            assert!(!r.cost.is_finite(), "{c:?}: cost {}", r.cost);
            assert!(!r.plan.all_finite(), "{c:?}: finite plan from a NaN cost");
        }
    }

    /// The scaling form as it was written before its sweeps ran across
    /// lanes: `K v` as one `dot` per row, `Kᵀ u` accumulated row by row.
    fn dot_sweep_reference(
        cost: &Matrix,
        a: &[f64],
        b: &[f64],
        eps: f64,
        iterations: usize,
    ) -> (Matrix, f64) {
        let mut k = cost.map(|c| (-c / eps).exp());
        let mut u = vec![1.0; a.len()];
        let mut v = vec![1.0; b.len()];
        let mut kt_u = vec![0.0; b.len()];
        for _ in 0..iterations {
            for (i, (ui, &ai)) in u.iter_mut().zip(a).enumerate() {
                *ui = ai / cerl_math::dot(k.row(i), &v);
            }
            kt_u.fill(0.0);
            for (i, &ui) in u.iter().enumerate() {
                for (s, &kij) in kt_u.iter_mut().zip(k.row(i)) {
                    *s += ui * kij;
                }
            }
            for ((vj, &bj), &s) in v.iter_mut().zip(b).zip(&kt_u) {
                *vj = bj / s;
            }
        }
        let mut total = 0.0;
        for (i, &ui) in u.iter().enumerate() {
            for ((p, &vj), &c) in k.row_mut(i).iter_mut().zip(&v).zip(cost.row(i)) {
                *p *= ui * vj;
                total += *p * c;
            }
        }
        (k, total)
    }

    /// The lane sweeps change no bit: every plan entry and the cost equal
    /// the `dot`-per-row reference's, at shapes that exercise full
    /// 32-lane blocks, 8-lane blocks and single-lane tails on both axes,
    /// under an absolute and a cost-relative ε.
    #[test]
    fn lane_sweeps_match_the_dot_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        let shapes = [(1, 1), (3, 5), (17, 4), (61, 64), (64, 64), (70, 58)];
        let modes = [
            SinkhornConfig {
                epsilon: 0.5,
                epsilon_mode: EpsilonMode::Absolute,
                iterations: 50,
            },
            SinkhornConfig::default(),
        ];
        for (n, m) in shapes {
            let cost = Matrix::from_fn(n, m, |_, _| rng.gen::<f64>() * 4.0);
            let (a, b) = (probabilities(&mut rng, n), probabilities(&mut rng, m));
            for cfg in modes {
                let r = sinkhorn_plan(&cost, &a, &b, &cfg);
                let eps = r.effective_epsilon;
                assert!(
                    scaling_form(&cost, &a, &b, eps, cfg.iterations).is_some(),
                    "{n}x{m}: the scaling form applies"
                );
                let (plan, total) = dot_sweep_reference(&cost, &a, &b, eps, cfg.iterations);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&r.plan),
                    bits(&plan),
                    "{n}x{m} {:?}: plan",
                    cfg.epsilon_mode
                );
                assert_eq!(
                    r.cost.to_bits(),
                    total.to_bits(),
                    "{n}x{m} {:?}: cost",
                    cfg.epsilon_mode
                );
            }
        }
    }
}
