//! Differentiable Wasserstein IPM between two representation batches
//! (paper Eq. 3), as a [`CustomOp`] on the `cerl-nn` tape.
//!
//! Forward: pairwise squared Euclidean cost between treated rows and
//! control rows, then Sinkhorn; the transport plan is cached. Backward uses
//! the envelope theorem — the plan is held fixed and the gradient flows
//! through the cost matrix only:
//!
//! ```text
//! ∂⟨P,C⟩/∂x_i = Σ_j P_ij · 2 (x_i − y_j),   ∂⟨P,C⟩/∂y_j = Σ_i P_ij · 2 (y_j − x_i)
//! ```
//!
//! Summed over the plan, both are two GEMMs plus the plan's row/column
//! masses: `∂/∂X_t = 2·(diag(P·1)·X_t − P·X_c)` and
//! `∂/∂X_c = 2·(diag(Pᵀ·1)·X_c − Pᵀ·X_t)`.
//!
//! This is the standard practice for Sinkhorn-based penalties in the CFR
//! family and is validated against finite differences in the tests (the
//! envelope gradient is exact in the limit of converged potentials).

use crate::sinkhorn::{sinkhorn_uniform, SinkhornConfig};
use cerl_math::norms::pairwise_sq_dists;
use cerl_math::{matmul, matmul_at_b, Matrix};
use cerl_nn::{CustomOp, Graph, NodeId};
use std::cell::RefCell;

/// Sinkhorn-Wasserstein distance op. Inputs: `[treated (n1×d), control (n0×d)]`;
/// output: 1×1 cost.
#[derive(Debug)]
pub struct WassersteinOp {
    cfg: SinkhornConfig,
    plan: RefCell<Option<Matrix>>,
}

impl WassersteinOp {
    /// Create with the given Sinkhorn configuration.
    pub fn new(cfg: SinkhornConfig) -> Self {
        Self {
            cfg,
            plan: RefCell::new(None),
        }
    }
}

impl CustomOp for WassersteinOp {
    fn name(&self) -> &'static str {
        "Wasserstein"
    }

    fn forward(&mut self, inputs: &[&Matrix]) -> Matrix {
        assert_eq!(
            inputs.len(),
            2,
            "WassersteinOp: expected [treated, control]"
        );
        let (xt, xc) = (inputs[0], inputs[1]);
        if xt.rows() == 0 || xc.rows() == 0 {
            *self.plan.borrow_mut() = Some(Matrix::zeros(xt.rows(), xc.rows()));
            return Matrix::zeros(1, 1);
        }
        let cost = pairwise_sq_dists(xt, xc);
        let result = sinkhorn_uniform(&cost, &self.cfg);
        *self.plan.borrow_mut() = Some(result.plan);
        Matrix::filled(1, 1, result.cost)
    }

    fn backward(&self, inputs: &[&Matrix], _output: &Matrix, grad_output: &Matrix) -> Vec<Matrix> {
        let (xt, xc) = (inputs[0], inputs[1]);
        let go = grad_output[(0, 0)];
        let plan_ref = self.plan.borrow();
        let plan = plan_ref
            .as_ref()
            .expect("WassersteinOp: backward before forward");

        // The GEMM form from the module docs.
        let w = 2.0 * go;
        let mut gt = matmul(plan, xc);
        let mut gc = matmul_at_b(plan, xt);
        let mut col_mass = vec![0.0; xc.rows()];
        for i in 0..xt.rows() {
            let p_row = plan.row(i);
            for (s, &p) in col_mass.iter_mut().zip(p_row) {
                *s += p;
            }
            let row_mass: f64 = p_row.iter().sum();
            for (g, &x) in gt.row_mut(i).iter_mut().zip(xt.row(i)) {
                *g = w * (row_mass * x - *g);
            }
        }
        for (j, &mass) in col_mass.iter().enumerate() {
            for (g, &y) in gc.row_mut(j).iter_mut().zip(xc.row(j)) {
                *g = w * (mass * y - *g);
            }
        }
        vec![gt, gc]
    }
}

/// Insert a Wasserstein IPM node between `treated` and `control` batches.
pub fn wasserstein(g: &mut Graph, treated: NodeId, control: NodeId, cfg: SinkhornConfig) -> NodeId {
    g.custom(&[treated, control], Box::new(WassersteinOp::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinkhorn::EpsilonMode;
    use cerl_nn::gradcheck::check_param_gradient;
    use cerl_nn::ParamStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> SinkhornConfig {
        SinkhornConfig {
            epsilon: 0.02,
            epsilon_mode: EpsilonMode::Absolute,
            iterations: 400,
        }
    }

    #[test]
    fn zero_for_identical_batches() {
        let mut g = Graph::new();
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, -1.0], vec![0.5, 0.5]]);
        let a = g.input(x.clone());
        let b = g.input(x);
        let w = wasserstein(&mut g, a, b, cfg());
        assert!(g.scalar(w) < 1e-6, "w={}", g.scalar(w));
    }

    #[test]
    fn grows_with_separation() {
        let base = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let mut prev = 0.0;
        for shift in [0.5, 1.0, 2.0] {
            let mut g = Graph::new();
            let a = g.input(base.clone());
            let b = g.input(base.map(|v| v + shift));
            let w = wasserstein(&mut g, a, b, cfg());
            let val = g.scalar(w);
            assert!(val > prev, "shift={shift}: {val} <= {prev}");
            prev = val;
        }
    }

    #[test]
    fn empty_groups_yield_zero() {
        let mut g = Graph::new();
        let a = g.input(Matrix::zeros(0, 3));
        let b = g.input(Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]));
        let w = wasserstein(&mut g, a, b, cfg());
        assert_eq!(g.scalar(w), 0.0);
    }

    #[test]
    fn envelope_gradient_matches_finite_difference() {
        // The envelope gradient (plan held fixed) is the exact gradient of
        // the *entropic* objective; for the reported ⟨P,C⟩ it carries an
        // O(ε) bias. Check at two ε values that the error shrinks with ε
        // and is small at the smaller one.
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let xt = store.add(
            "xt",
            Matrix::from_fn(4, 3, |_, _| rng.gen::<f64>() * 2.0 - 1.0),
        );
        let xc_val = Matrix::from_fn(5, 3, |_, _| rng.gen::<f64>() * 2.0 - 1.0 + 0.5);

        let mut rel_at = |eps: f64, iters: usize| {
            let c = SinkhornConfig {
                epsilon: eps,
                epsilon_mode: EpsilonMode::Absolute,
                iterations: iters,
            };
            let build = |s: &ParamStore, g: &mut Graph| {
                let a = g.param(s, xt);
                let b = g.input(xc_val.clone());
                wasserstein(g, a, b, c)
            };
            let mut g = Graph::new();
            let loss = build(&store, &mut g);
            let grads = g.backward(loss);
            let analytic = grads.param_grad(xt).unwrap().clone();
            let report = check_param_gradient(&mut store, xt, &analytic, 1e-5, |s| {
                let mut g = Graph::new();
                let l = build(s, &mut g);
                g.scalar(l)
            });
            report.max_rel_err
        };

        let coarse = rel_at(0.05, 800);
        let fine = rel_at(0.002, 4000);
        assert!(
            fine < coarse,
            "bias should shrink with ε: {fine} vs {coarse}"
        );
        assert!(
            fine < 1e-2,
            "envelope gradient off at small ε: rel={fine:.3e}"
        );
    }

    #[test]
    fn gradient_pulls_distributions_together() {
        // Gradient descent on W(x, y) should shrink the distance.
        let mut store = ParamStore::new();
        let xt = store.add("xt", Matrix::from_rows(&[vec![5.0, 5.0], vec![6.0, 4.0]]));
        let xc = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, -1.0]]);
        let mut dist_history = Vec::new();
        for _ in 0..60 {
            let mut g = Graph::new();
            let a = g.param(&store, xt);
            let b = g.input(xc.clone());
            let w = wasserstein(&mut g, a, b, cfg());
            dist_history.push(g.scalar(w));
            let grads = g.backward(w);
            let gw = grads.param_grad(xt).unwrap();
            store.value_mut(xt).axpy(-0.05, gw);
        }
        let first = dist_history[0];
        let last = *dist_history.last().unwrap();
        assert!(
            last < first * 0.2,
            "distance did not shrink: {first} -> {last}"
        );
    }

    /// Reference: the cell-by-cell envelope gradient loop that the GEMM
    /// form replaced.
    fn backward_by_cells(plan: &Matrix, xt: &Matrix, xc: &Matrix, go: f64) -> (Matrix, Matrix) {
        let mut gt = Matrix::zeros(xt.rows(), xt.cols());
        let mut gc = Matrix::zeros(xc.rows(), xc.cols());
        for i in 0..xt.rows() {
            for j in 0..xc.rows() {
                let w = 2.0 * plan[(i, j)] * go;
                for k in 0..xt.cols() {
                    let diff = xt[(i, k)] - xc[(j, k)];
                    gt[(i, k)] += w * diff;
                    gc[(j, k)] -= w * diff;
                }
            }
        }
        (gt, gc)
    }

    #[test]
    fn gemm_backward_matches_cellwise_loop() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(n1, n0, d, go) in &[(1, 1, 1, 1.0), (7, 4, 3, 0.5), (64, 61, 100, -2.0)] {
            let xt = Matrix::from_fn(n1, d, |_, _| rng.gen::<f64>() * 2.0 - 1.0);
            let xc = Matrix::from_fn(n0, d, |_, _| rng.gen::<f64>() * 2.0 - 0.5);
            let mut op = WassersteinOp::new(SinkhornConfig::default());
            op.forward(&[&xt, &xc]);
            let grads = op.backward(&[&xt, &xc], &Matrix::zeros(1, 1), &Matrix::filled(1, 1, go));
            let plan = op.plan.borrow().clone().unwrap();
            let (gt, gc) = backward_by_cells(&plan, &xt, &xc, go);
            let (et, ec) = (grads[0].max_abs_diff(&gt), grads[1].max_abs_diff(&gc));
            assert!(et <= 1e-12 && ec <= 1e-12, "({n1},{n0},{d}): {et:e} {ec:e}");
        }
    }
}
