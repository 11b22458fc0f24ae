//! Synthetic multi-domain generator (paper §IV.C, "Further Model
//! Evaluation").
//!
//! Covariates `X = (Cᵀ, Zᵀ, Iᵀ, Aᵀ)ᵀ` contain 35 confounders, 10
//! instruments, 20 irrelevant variables, and 35 adjustment variables
//! (Fig. 2 roles). Each domain `d` draws
//! `X ~ N(μ_d, Σ_d)` with a domain-specific mean and a hub-Toeplitz
//! correlation structure (Hardin et al. Alg. 3; Eqs. 11–12) scaled by
//! domain-specific standard deviations. Outcomes follow the partially
//! linear model (Eq. 10):
//!
//! ```text
//! Y  = τ(C,A)·T + g(C,A) + ε,        ε ~ N(0, σ²)
//! τ  = sin²((C,A)·b_τ)               (heterogeneous effect)
//! g  = cos²((C,A)·b_g)               (baseline response)
//! T  ~ Bernoulli(Φ( (a − μ_a)/σ_a )),  a = sin((C,Z)·b_a)   (probit selection)
//! ```
//!
//! The weight vectors `b_τ, b_g, b_a ~ U(0,1)` define the *causal
//! mechanism* and are shared across domains; non-stationarity enters only
//! through the covariate distribution, exactly as in the paper.

use crate::dataset::CausalDataset;
use cerl_math::correlation::{
    block_diagonal, covariance_from_correlation, hub_toeplitz, nearest_correlation_clip,
    perturb_preserving_pd,
};
use cerl_math::special::normal_cdf;
use cerl_math::stats::{mean, std_dev};
use cerl_math::{dot, Matrix};
use cerl_rand::{bernoulli, seeds, MultivariateNormal, Normal, StandardNormal};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Counts of each variable role (Fig. 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariableRoles {
    /// Confounders: affect both treatment and outcome.
    pub confounders: usize,
    /// Instruments: affect treatment only.
    pub instruments: usize,
    /// Irrelevant: affect neither.
    pub irrelevant: usize,
    /// Adjustment: affect outcome only.
    pub adjustment: usize,
}

impl VariableRoles {
    /// The paper's configuration: 35 C, 10 Z, 20 I, 35 A (100 total).
    pub fn paper() -> Self {
        Self {
            confounders: 35,
            instruments: 10,
            irrelevant: 20,
            adjustment: 35,
        }
    }

    /// Scaled-down configuration for fast tests.
    pub fn small() -> Self {
        Self {
            confounders: 7,
            instruments: 3,
            irrelevant: 4,
            adjustment: 6,
        }
    }

    /// Total covariate dimension.
    pub fn total(&self) -> usize {
        self.confounders + self.instruments + self.irrelevant + self.adjustment
    }

    /// Column ranges of each block in `X = (C, Z, I, A)`.
    pub fn ranges(&self) -> RoleRanges {
        let c = 0..self.confounders;
        let z = c.end..c.end + self.instruments;
        let i = z.end..z.end + self.irrelevant;
        let a = i.end..i.end + self.adjustment;
        RoleRanges {
            confounders: c,
            instruments: z,
            irrelevant: i,
            adjustment: a,
        }
    }
}

/// Column ranges of each role block.
#[derive(Debug, Clone)]
pub struct RoleRanges {
    /// Confounder columns.
    pub confounders: std::ops::Range<usize>,
    /// Instrument columns.
    pub instruments: std::ops::Range<usize>,
    /// Irrelevant columns.
    pub irrelevant: std::ops::Range<usize>,
    /// Adjustment columns.
    pub adjustment: std::ops::Range<usize>,
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Variable-role counts.
    pub roles: VariableRoles,
    /// Units per domain (paper: 10000).
    pub n_units: usize,
    /// Scale of the per-domain mean shifts `μ_d`.
    pub mean_shift_scale: f64,
    /// Hub correlation upper bound range `(lo, hi)` sampled per domain.
    pub rho_max_range: (f64, f64),
    /// Hub correlation lower bound range `(lo, hi)` sampled per domain.
    pub rho_min_range: (f64, f64),
    /// Decay-rate γ of Eq. 12.
    pub gamma: f64,
    /// Cross-type correlation noise magnitude before the PD-safety scaling.
    pub cross_type_noise: f64,
    /// Range of per-variable standard deviations sampled per domain.
    pub sd_range: (f64, f64),
    /// Outcome noise standard deviation (paper: 1).
    pub noise_sd: f64,
    /// Normalize each mechanism dot product by `√dim` so the `sin²`/`cos²`
    /// surfaces vary over O(1) length scales and are learnable. With raw
    /// `U(0,1)` weights over ~70 correlated covariates the argument's
    /// standard deviation is ≈ 5–8, which makes the outcome surface
    /// oscillate an order of magnitude faster than any estimator (including
    /// the paper's) could fit; the paper does not state its normalization,
    /// so we make this calibration explicit and configurable.
    pub normalize_mechanism: bool,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            roles: VariableRoles::paper(),
            n_units: 10_000,
            mean_shift_scale: 0.5,
            rho_max_range: (0.5, 0.8),
            rho_min_range: (0.1, 0.3),
            gamma: 1.0,
            cross_type_noise: 0.2,
            sd_range: (0.7, 1.3),
            noise_sd: 1.0,
            normalize_mechanism: true,
        }
    }
}

impl SyntheticConfig {
    /// Small, fast configuration for tests and examples.
    pub fn small() -> Self {
        Self {
            roles: VariableRoles::small(),
            n_units: 400,
            ..Self::default()
        }
    }
}

/// Synthetic data generator with a fixed causal mechanism across domains.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    cfg: SyntheticConfig,
    b_tau: Vec<f64>,
    b_g: Vec<f64>,
    b_a: Vec<f64>,
    /// `√(b_τᵀ Σ_pilot b_τ)` over the (C,A) block — see `normalize_mechanism`.
    scale_tau: f64,
    scale_g: f64,
    scale_a: f64,
    base_seed: u64,
}

impl SyntheticGenerator {
    /// Create a generator; `seed` fixes both the causal mechanism and all
    /// per-domain draws.
    pub fn new(cfg: SyntheticConfig, seed: u64) -> Self {
        let roles = cfg.roles;
        let mut rng = seeds::rng_labeled(seed, "mechanism");
        let n_ca = roles.confounders + roles.adjustment;
        let n_cz = roles.confounders + roles.instruments;
        let b_tau: Vec<f64> = (0..n_ca).map(|_| rng.gen::<f64>()).collect();
        let b_g: Vec<f64> = (0..n_ca).map(|_| rng.gen::<f64>()).collect();
        let b_a: Vec<f64> = (0..n_cz).map(|_| rng.gen::<f64>()).collect();

        // Calibrate the mechanism's length scales on a pilot domain so the
        // sin²/cos² arguments have unit-order variance (see the
        // `normalize_mechanism` docs). Uses the analytic projection
        // variance bᵀΣb of the pilot covariance — no sampling needed.
        let (scale_tau, scale_g, scale_a) = if cfg.normalize_mechanism {
            let mut pilot_rng = seeds::rng_labeled(seed, "pilot-distribution");
            let (_mu, sigma) = build_distribution(&cfg, &mut pilot_rng);
            let ranges = roles.ranges();
            let ca: Vec<usize> = ranges
                .confounders
                .clone()
                .chain(ranges.adjustment.clone())
                .collect();
            let cz: Vec<usize> = ranges
                .confounders
                .clone()
                .chain(ranges.instruments.clone())
                .collect();
            (
                projection_sd(&sigma, &ca, &b_tau),
                projection_sd(&sigma, &ca, &b_g),
                projection_sd(&sigma, &cz, &b_a),
            )
        } else {
            (1.0, 1.0, 1.0)
        };
        Self {
            cfg,
            b_tau,
            b_g,
            b_a,
            scale_tau,
            scale_g,
            scale_a,
            base_seed: seed,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Generate domain `domain` (0-based) of replication `rep`.
    ///
    /// Each `(domain, rep)` pair has its own mean vector, correlation
    /// structure, and sampling stream; the causal mechanism is shared.
    pub fn domain(&self, domain: usize, rep: usize) -> CausalDataset {
        let label = format!("domain-{domain}-rep-{rep}");
        let mut rng = seeds::rng_labeled(self.base_seed, &label);
        let (mu, sigma) = build_distribution(&self.cfg, &mut rng);
        let mvn = MultivariateNormal::new(mu, &sigma).expect("PD covariance");
        let x = mvn.sample_matrix(&mut rng, self.cfg.n_units);
        self.outcomes_for(x, &mut rng)
    }

    /// Apply the (fixed) causal mechanism to a covariate matrix.
    fn outcomes_for<R: Rng + ?Sized>(&self, x: Matrix, rng: &mut R) -> CausalDataset {
        let n = x.rows();
        let ranges = self.cfg.roles.ranges();

        // Propensity: a = sin((C,Z)·b_a); e0 = Φ((a − μ_a)/σ_a).
        let mut a_scores = Vec::with_capacity(n);
        for i in 0..n {
            let row = x.row(i);
            let cz: Vec<f64> = ranges
                .confounders
                .clone()
                .chain(ranges.instruments.clone())
                .map(|j| row[j])
                .collect();
            a_scores.push((dot(&cz, &self.b_a) / self.scale_a).sin());
        }
        let a_mean = mean(&a_scores);
        let a_sd = std_dev(&a_scores).max(1e-12);

        let mut t = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut mu0 = Vec::with_capacity(n);
        let mut mu1 = Vec::with_capacity(n);
        let mut sn = StandardNormal::new();
        #[allow(clippy::needless_range_loop)] // parallel row/score indexing
        for i in 0..n {
            let row = x.row(i);
            let ca: Vec<f64> = ranges
                .confounders
                .clone()
                .chain(ranges.adjustment.clone())
                .map(|j| row[j])
                .collect();
            let tau = (dot(&ca, &self.b_tau) / self.scale_tau).sin().powi(2);
            let g = (dot(&ca, &self.b_g) / self.scale_g).cos().powi(2);
            let e0 = normal_cdf((a_scores[i] - a_mean) / a_sd);
            let ti = bernoulli(rng, e0.clamp(0.01, 0.99)); // positivity guard
            let eps = sn.sample(rng) * self.cfg.noise_sd;
            mu0.push(g);
            mu1.push(g + tau);
            y.push(if ti { g + tau + eps } else { g + eps });
            t.push(ti);
        }
        CausalDataset { x, t, y, mu0, mu1 }
    }
}

/// Draw one domain's mean vector and covariance matrix (hub-Toeplitz
/// correlation blocks, bounded cross-type noise, domain-specific scales).
fn build_distribution<R: Rng + ?Sized>(cfg: &SyntheticConfig, rng: &mut R) -> (Vec<f64>, Matrix) {
    let roles = cfg.roles;
    let d = roles.total();

    // Domain-specific mean vector.
    let shift = Normal::new(0.0, cfg.mean_shift_scale);
    let mu: Vec<f64> = (0..d).map(|_| shift.sample(rng)).collect();

    // Domain-specific hub-Toeplitz correlation per role block. A Toeplitz
    // fill of a decaying hub column is not automatically PD, so indefinite
    // draws are projected back to the correlation cone (eigenvalue
    // clipping), as Hardin et al. prescribe.
    let mut blocks = Vec::with_capacity(4);
    for &size in &[
        roles.confounders,
        roles.instruments,
        roles.irrelevant,
        roles.adjustment,
    ] {
        let rho_max = sample_range(rng, cfg.rho_max_range);
        let rho_min = sample_range(rng, cfg.rho_min_range).min(rho_max);
        let mut block = hub_toeplitz(size, rho_max, rho_min, cfg.gamma);
        if !cerl_math::decomp::is_positive_definite(&block) {
            block = nearest_correlation_clip(&block, 1e-4)
                .expect("correlation repair cannot fail on a symmetric block");
        }
        blocks.push(block);
    }
    let r0 = block_diagonal(&blocks);

    // Bounded cross-type noise (Hardin et al. Alg. 3).
    let mut noise = Matrix::zeros(d, d);
    let ranges = roles.ranges();
    let block_of = |idx: usize| -> usize {
        if ranges.confounders.contains(&idx) {
            0
        } else if ranges.instruments.contains(&idx) {
            1
        } else if ranges.irrelevant.contains(&idx) {
            2
        } else {
            3
        }
    };
    for i in 0..d {
        for j in (i + 1)..d {
            if block_of(i) != block_of(j) {
                let v = (rng.gen::<f64>() * 2.0 - 1.0) * cfg.cross_type_noise;
                noise[(i, j)] = v;
                noise[(j, i)] = v;
            }
        }
    }
    let (r, _scale) =
        perturb_preserving_pd(&r0, &noise, 0.9).expect("block-diagonal hub matrix must be PD");

    // Domain-specific marginal scales -> covariance.
    let sds: Vec<f64> = (0..d).map(|_| sample_range(rng, cfg.sd_range)).collect();
    let sigma = covariance_from_correlation(&r, &sds).expect("valid correlation");
    (mu, sigma)
}

/// Standard deviation of the projection `x[cols]·b` under covariance
/// `sigma`: `√(bᵀ Σ_sub b)`, floored away from zero.
fn projection_sd(sigma: &Matrix, cols: &[usize], b: &[f64]) -> f64 {
    debug_assert_eq!(cols.len(), b.len(), "projection_sd: dimension mismatch");
    let mut v = 0.0;
    for (ii, &i) in cols.iter().enumerate() {
        for (jj, &j) in cols.iter().enumerate() {
            v += b[ii] * b[jj] * sigma[(i, j)];
        }
    }
    v.max(1e-12).sqrt()
}

fn sample_range<R: Rng + ?Sized>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    debug_assert!(lo <= hi, "sample_range: lo > hi");
    lo + rng.gen::<f64>() * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_gen() -> SyntheticGenerator {
        SyntheticGenerator::new(SyntheticConfig::small(), 1234)
    }

    #[test]
    fn shapes_and_ranges() {
        let g = quick_gen();
        let d = g.domain(0, 0);
        assert_eq!(d.n(), 400);
        assert_eq!(d.dim(), VariableRoles::small().total());
        // τ = sin² ∈ [0,1], g = cos² ∈ [0,1] → μ0 ∈ [0,1], μ1 ∈ [0,2].
        assert!(d.mu0.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(d.mu1.iter().all(|&v| (0.0..=2.0).contains(&v)));
        let ate = d.true_ate();
        assert!(ate > 0.0 && ate < 1.0, "ate={ate}");
    }

    #[test]
    fn both_groups_present() {
        let g = quick_gen();
        let d = g.domain(0, 0);
        let nt = d.n_treated();
        assert!(nt > 50 && nt < 350, "treated count {nt} out of range");
    }

    #[test]
    fn deterministic_per_domain_rep() {
        let g = quick_gen();
        let a = g.domain(1, 2);
        let b = g.domain(1, 2);
        assert!(a.x.approx_eq(&b.x, 0.0));
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn domains_differ_but_mechanism_shared() {
        let g = quick_gen();
        let d0 = g.domain(0, 0);
        let d1 = g.domain(1, 0);
        // Different covariate distributions…
        let m0 = d0.x.col_means();
        let m1 = d1.x.col_means();
        let diff: f64 = m0.iter().zip(&m1).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.5, "domain means too similar: {diff}");
        // …but same mechanism: regenerating domain 0 covariates yields the
        // same potential outcomes (checked by replaying the same seed).
        let d0_again = g.domain(0, 0);
        assert_eq!(d0.mu0, d0_again.mu0);
    }

    #[test]
    fn replications_differ() {
        let g = quick_gen();
        let a = g.domain(0, 0);
        let b = g.domain(0, 1);
        assert!(a.x.max_abs_diff(&b.x) > 1e-6);
    }

    #[test]
    fn selection_bias_exists() {
        // Propensity depends on confounders: treated and control covariate
        // means must differ on confounder columns.
        let g = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 4000,
                ..SyntheticConfig::small()
            },
            99,
        );
        let d = g.domain(0, 0);
        let xt = d.x.select_rows(&d.treated_indices());
        let xc = d.x.select_rows(&d.control_indices());
        let mt = xt.col_means();
        let mc = xc.col_means();
        let ranges = VariableRoles::small().ranges();
        let conf_gap: f64 = ranges.confounders.map(|j| (mt[j] - mc[j]).abs()).sum();
        assert!(
            conf_gap > 0.05,
            "no selection bias detected: gap={conf_gap}"
        );
    }

    #[test]
    fn paper_roles_add_up() {
        let r = VariableRoles::paper();
        assert_eq!(r.total(), 100);
        let ranges = r.ranges();
        assert_eq!(ranges.confounders, 0..35);
        assert_eq!(ranges.instruments, 35..45);
        assert_eq!(ranges.irrelevant, 45..65);
        assert_eq!(ranges.adjustment, 65..100);
    }
}
