//! Finite-difference gradient checking.
//!
//! Every op in this crate (and the custom ops in `cerl-ot`) is validated by
//! comparing analytic gradients with central differences. The checker
//! perturbs parameter entries one at a time and rebuilds the loss through a
//! user-supplied closure, so it works with any graph construction.

use crate::params::{ParamId, ParamStore};
use cerl_math::Matrix;

/// Report from a finite-difference check.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Maximum absolute error over all checked entries.
    pub max_abs_err: f64,
    /// Maximum relative error (denominator `max(|analytic|, |numeric|, 1e-8)`).
    pub max_rel_err: f64,
    /// Number of entries checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// True when the relative error is within `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_err <= tol
    }
}

/// Compare `analytic` (gradient of the loss w.r.t. parameter `id`) against
/// central finite differences of `loss_fn`.
///
/// `loss_fn` must evaluate the loss from the current store contents without
/// mutating it. `h` is the perturbation size (1e-5 is a good default for
/// f64 and smooth ops).
pub fn check_param_gradient(
    store: &mut ParamStore,
    id: ParamId,
    analytic: &Matrix,
    h: f64,
    mut loss_fn: impl FnMut(&ParamStore) -> f64,
) -> GradCheckReport {
    let shape = store.value(id).shape();
    assert_eq!(
        analytic.shape(),
        shape,
        "check_param_gradient: gradient shape mismatch"
    );
    let mut max_abs = 0.0_f64;
    let mut max_rel = 0.0_f64;
    let mut checked = 0usize;
    for i in 0..shape.0 {
        for j in 0..shape.1 {
            let orig = store.value(id)[(i, j)];
            store.value_mut(id)[(i, j)] = orig + h;
            let lp = loss_fn(store);
            store.value_mut(id)[(i, j)] = orig - h;
            let lm = loss_fn(store);
            store.value_mut(id)[(i, j)] = orig;

            let numeric = (lp - lm) / (2.0 * h);
            let a = analytic[(i, j)];
            let abs_err = (numeric - a).abs();
            let rel_err = abs_err / numeric.abs().max(a.abs()).max(1e-8);
            max_abs = max_abs.max(abs_err);
            max_rel = max_rel.max(rel_err);
            checked += 1;
        }
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{cosine_linear, elastic_net_penalty, mean_cosine_distance, mse};
    use crate::graph::Graph;
    use crate::layers::{Activation, CosineDense, Dense, Mlp};
    use cerl_math::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
    }

    /// Generic harness: build loss once for the analytic gradient, then
    /// finite-difference through the same builder.
    fn check(
        store: &mut ParamStore,
        id: ParamId,
        build: impl Fn(&ParamStore, &mut Graph) -> crate::graph::NodeId,
        tol: f64,
    ) {
        let mut g = Graph::new();
        let loss = build(store, &mut g);
        let grads = g.backward(loss);
        let analytic = grads
            .param_grad(id)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(store.value(id).rows(), store.value(id).cols()));
        let report = check_param_gradient(store, id, &analytic, 1e-5, |s| {
            let mut g = Graph::new();
            let l = build(s, &mut g);
            g.scalar(l)
        });
        assert!(
            report.passes(tol),
            "gradient check failed: max_rel={:.3e} max_abs={:.3e} over {} entries",
            report.max_rel_err,
            report.max_abs_err,
            report.checked
        );
    }

    #[test]
    fn dense_relu_mse_gradients() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let layer = Dense::new(&mut store, &mut rng, 4, 3, Activation::Relu, "l");
        let x = rand_matrix(&mut rng, 6, 4);
        let y = rand_matrix(&mut rng, 6, 3);
        for pid in layer.params() {
            let (x, y, layer) = (x.clone(), y.clone(), layer.clone());
            check(
                &mut store,
                pid,
                move |s, g| {
                    let xin = g.input(x.clone());
                    let yin = g.input(y.clone());
                    let out = layer.forward(g, s, xin);
                    mse(g, out, yin)
                },
                1e-5,
            );
        }
    }

    #[test]
    fn mlp_tanh_gradients() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &mut rng,
            &[3, 5, 2],
            Activation::Tanh,
            Activation::Identity,
            "m",
        );
        let x = rand_matrix(&mut rng, 4, 3);
        let y = rand_matrix(&mut rng, 4, 2);
        for pid in mlp.params() {
            let (x, y, mlp) = (x.clone(), y.clone(), mlp.clone());
            check(
                &mut store,
                pid,
                move |s, g| {
                    let xin = g.input(x.clone());
                    let yin = g.input(y.clone());
                    let out = mlp.forward(g, s, xin);
                    mse(g, out, yin)
                },
                1e-5,
            );
        }
    }

    #[test]
    fn cosine_dense_gradients() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let layer = CosineDense::new(&mut store, &mut rng, 5, 3, Activation::Sigmoid, "c");
        let x = rand_matrix(&mut rng, 7, 5);
        let y = rand_matrix(&mut rng, 7, 3);
        for pid in layer.params() {
            let (x, y, layer) = (x.clone(), y.clone(), layer.clone());
            check(
                &mut store,
                pid,
                move |s, g| {
                    let xin = g.input(x.clone());
                    let yin = g.input(y.clone());
                    let out = layer.forward(g, s, xin);
                    mse(g, out, yin)
                },
                1e-4,
            );
        }
    }

    #[test]
    fn cosine_linear_wrt_both_sides() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let xw = store.add("x", rand_matrix(&mut rng, 4, 6));
        let ww = store.add("w", rand_matrix(&mut rng, 6, 2));
        for pid in [xw, ww] {
            check(
                &mut store,
                pid,
                move |s, g| {
                    let x = g.param(s, xw);
                    let w = g.param(s, ww);
                    let out = cosine_linear(g, x, w);
                    let sq = g.square(out);
                    g.mean(sq)
                },
                1e-5,
            );
        }
    }

    #[test]
    fn cosine_distance_gradients() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let a = store.add("a", rand_matrix(&mut rng, 5, 4));
        let bval = rand_matrix(&mut rng, 5, 4);
        check(
            &mut store,
            a,
            move |s, g| {
                let an = g.param(s, a);
                let bn = g.input(bval.clone());
                mean_cosine_distance(g, an, bn)
            },
            1e-5,
        );
    }

    #[test]
    fn elastic_net_gradients() {
        // |w| is non-smooth at 0; keep entries away from 0.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 2, vec![0.5, -0.7, 1.2, -2.0]));
        check(
            &mut store,
            w,
            move |s, g| elastic_net_penalty(g, s, &[w]),
            1e-5,
        );
    }

    #[test]
    fn elu_exp_sigmoid_chain_gradients() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_matrix(&mut rng, 3, 3));
        check(
            &mut store,
            w,
            move |s, g| {
                let wp = g.param(s, w);
                let e = g.elu(wp, 0.7);
                let sg = g.sigmoid(e);
                let ex = g.exp(sg);
                let t = g.tanh(ex);
                g.mean(t)
            },
            1e-5,
        );
    }

    #[test]
    fn select_concat_rowsum_gradients() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut store = ParamStore::new();
        let w = store.add("w", rand_matrix(&mut rng, 5, 3));
        check(
            &mut store,
            w,
            move |s, g| {
                let wp = g.param(s, w);
                let sel = g.select_rows(wp, [0, 2, 2, 4]);
                let cat = g.concat_rows(sel, wp);
                let rs = g.row_sum(cat);
                let sq = g.square(rs);
                g.mean(sq)
            },
            1e-5,
        );
    }

    #[test]
    fn broadcast_bias_gradients() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut store = ParamStore::new();
        let b = store.add("b", rand_matrix(&mut rng, 1, 4));
        let xval = rand_matrix(&mut rng, 6, 4);
        check(
            &mut store,
            b,
            move |s, g| {
                let x = g.input(xval.clone());
                let bp = g.param(s, b);
                let y = g.add_row_broadcast(x, bp);
                let sq = g.square(y);
                g.sum(sq)
            },
            1e-6,
        );
    }
}
