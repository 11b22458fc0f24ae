//! The compiled inference plan, in either serving precision.
//!
//! Training is always `f64`, on the autodiff tape. Inference reads frozen
//! weights and needs no adjoints, so it runs no tape: a model version is
//! compiled once into an `InferencePlan` holding the standardizer, the
//! hidden layers packed into the `cerl-math` kernel's panels, the cosine
//! output layer's column-normalized weights (input-independent, so
//! normalized once), the outcome heads — whose first layers share their
//! input and run as one GEMM over `[W₀ | W₁]`, with the one-unit output
//! layers as plain fused multiply-add chains — and the outcome rescale.
//!
//! [`PrecisionMode`] picks the element type of the one plan an engine
//! serves from. The `f64` plan is **bitwise** equal to the training
//! forward on the tape: the same kernel and the same op order, down to
//! adding the bias only after the kernel's `0.0 + Σ` write-back so signed
//! zeros match. The `f32` plan narrows the weights once at compile time
//! and runs the same steps in `f32`.
//!
//! # Determinism contract (per precision mode)
//!
//! Within one precision mode, prediction is **bitwise deterministic and
//! row-independent**: every output row is a pure function of its input
//! row and the (mode-narrowed) weights, with a fixed accumulation order
//! that does not depend on the batch it rides in. Consequently batched ==
//! unbatched == chunked == scatter-gather, bitwise, *within a mode*.
//! Across modes, results differ by narrowing error (no contract beyond
//! approximate agreement); a fleet must therefore pin one mode per
//! published engine version, which is exactly how
//! [`CerlEngine`](crate::engine::CerlEngine) threads it.

use crate::cfr::CfrModel;
use crate::error::CerlError;
use crate::heads::OutcomeHeads;
use crate::repr::ReprNet;
use cerl_math::matmul::{gemm, kernel_dot, Element, PackedB};
use cerl_math::Matrix;
use cerl_nn::layers::{Activation, Dense, Mlp};
use cerl_nn::params::ParamStore;
use std::borrow::Cow;
use std::ops::{Add, Div, Mul, Sub};
use std::sync::Arc;

/// The precision an engine answers predict and embed requests in.
///
/// See the [module docs](self) for the determinism contract. The mode is
/// a *serving* property: it is not persisted in snapshots (a restored
/// engine defaults to [`PrecisionMode::F64`]) and has no effect on
/// training, which always runs in `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecisionMode {
    /// Training-precision (`f64`) inference — the default.
    #[default]
    F64,
    /// Single-precision inference from an `f32` plan.
    F32,
}

impl PrecisionMode {
    /// Stable lowercase label (`"f64"` / `"f32"`) for metrics and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecisionMode::F64 => "f64",
            PrecisionMode::F32 => "f32",
        }
    }
}

impl std::fmt::Display for PrecisionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The tape's normalization threshold (`cerl-nn`'s `NORM_EPS`): a row or
/// column with an L2 norm at or below it is zeroed, not normalized.
const NORM_EPS: f64 = 1e-12;

/// An element type a plan computes in. For `f64` every method is the
/// function the tape's op calls, which keeps the plan bitwise equal to it.
pub(crate) trait PlanFloat:
    Element
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    fn to_f64(self) -> f64;
    fn exp(self) -> Self;
    fn tanh(self) -> Self;
    fn sqrt(self) -> Self;
    fn relu(self) -> Self;
    fn clamp(self, lo: Self, hi: Self) -> Self;
    fn sigmoid(self) -> Self;
    /// L2 norm of one row, summed as the tape's `row_l2_normalize` sums it.
    fn l2_norm(row: &[Self]) -> Self;
}

macro_rules! plan_float {
    ($t:ty, $sigmoid:expr, $l2_norm:expr) => {
        impl PlanFloat for $t {
            fn to_f64(self) -> f64 {
                f64::from(self)
            }
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            fn relu(self) -> Self {
                self.max(0.0)
            }
            fn clamp(self, lo: Self, hi: Self) -> Self {
                <$t>::clamp(self, lo, hi)
            }
            fn sigmoid(self) -> Self {
                $sigmoid(self)
            }
            fn l2_norm(row: &[Self]) -> Self {
                $l2_norm(row)
            }
        }
    };
}

plan_float!(f64, cerl_math::special::sigmoid, cerl_math::norms::l2_norm);
plan_float!(f32, sigmoid32, |row: &[f32]| row
    .iter()
    .map(|&v| v * v)
    .sum::<f32>()
    .sqrt());

/// The `f32` restatement of `cerl_math::special::sigmoid`.
fn sigmoid32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn narrow<T: PlanFloat>(values: &[f64]) -> Vec<T> {
    values.iter().map(|&v| T::from_f64(v)).collect()
}

/// [`Activation`] in the plan's element type.
#[derive(Debug, Clone, Copy)]
enum Act<T> {
    Identity,
    Relu,
    Elu(T),
    Sigmoid,
    Tanh,
}

impl<T: PlanFloat> Act<T> {
    fn new(act: Activation) -> Self {
        match act {
            Activation::Identity => Act::Identity,
            Activation::Relu => Act::Relu,
            Activation::Elu(alpha) => Act::Elu(T::from_f64(alpha)),
            Activation::Sigmoid => Act::Sigmoid,
            Activation::Tanh => Act::Tanh,
        }
    }

    #[inline]
    fn apply(self, x: T) -> T {
        match self {
            Act::Identity => x,
            Act::Relu => x.relu(),
            Act::Elu(_) if x > T::ZERO => x,
            Act::Elu(alpha) => alpha * (x.exp() - T::from_f64(1.0)),
            Act::Sigmoid => x.sigmoid(),
            Act::Tanh => x.tanh(),
        }
    }
}

/// Rejects `x` unless it holds `m` rows of the `width` inputs a layer
/// expects. A constructed model always chains; restore's smoke probe
/// turns a hand-edited one that does not into a typed error.
fn check_rows<T>(x: &[T], m: usize, width: usize) {
    // panic-ok: the documented mis-wiring guard above.
    assert!(x.len() == m * width, "mis-wired network");
}

/// One dense step `act(x·W + b)` on prepacked weights.
#[derive(Debug, Clone)]
struct Layer<T> {
    w: PackedB<T>,
    /// `None` for the cosine layer, which has no bias (adding a zero bias
    /// would turn a `-0.0` product into `+0.0`).
    bias: Option<Vec<T>>,
    act: Act<T>,
}

impl<T: PlanFloat> Layer<T> {
    fn dense(store: &ParamStore, layer: &Dense) -> Self {
        Self {
            w: PackedB::pack(store.value(layer.weight())),
            bias: Some(narrow(store.value(layer.bias()).as_slice())),
            act: Act::new(layer.activation()),
        }
    }

    /// Forward `m` contiguous rows.
    fn forward(&self, x: &[T], m: usize) -> Vec<T> {
        check_rows(x, m, self.w.rows());
        let n = self.w.cols();
        let mut out = vec![T::ZERO; m * n];
        gemm(x, &self.w, &mut out);
        // The tape's order: the kernel's `0.0 + Σ`, then bias, then act.
        for row in out.chunks_exact_mut(n.max(1)) {
            match &self.bias {
                Some(bias) => {
                    (row.iter_mut().zip(bias)).for_each(|(o, &b)| *o = self.act.apply(*o + b))
                }
                None => row.iter_mut().for_each(|o| *o = self.act.apply(*o)),
            }
        }
        out
    }
}

/// Forward `m` contiguous rows through `layers` (borrowing `x` back when
/// there are none).
fn forward_all<'a, T: PlanFloat>(layers: &[Layer<T>], x: &'a [T], m: usize) -> Cow<'a, [T]> {
    let mut h = Cow::Borrowed(x);
    for layer in layers {
        h = Cow::Owned(layer.forward(&h, m));
    }
    h
}

/// A one-unit output layer `act(x·w + b)`: one fused multiply-add chain
/// per row, rounded as the kernel rounds a one-column product.
#[derive(Debug, Clone)]
struct Unit<T> {
    w: Vec<T>,
    b: T,
    act: Act<T>,
}

impl<T: PlanFloat> Unit<T> {
    fn new(store: &ParamStore, layer: &Dense) -> Self {
        Self {
            // The head predicts one outcome: column 0 of its output layer.
            w: narrow(&store.value(layer.weight()).col(0)),
            // panic-ok: a head's output layer has one unit; restore's smoke
            // probe turns a hand-edited one without any into a typed error.
            b: T::from_f64(store.value(layer.bias())[(0, 0)]),
            act: Act::new(layer.activation()),
        }
    }

    /// Forward `m` contiguous rows.
    fn forward(&self, x: &[T], m: usize) -> Vec<T> {
        check_rows(x, m, self.w.len());
        let rows = x.chunks_exact(self.w.len().max(1));
        rows.map(|row| self.act.apply(kernel_dot(row, &self.w) + self.b))
            .collect()
    }
}

/// `(μ, σ, clip)` of `clamp((x−μ)/σ)`.
type Standardize<T> = (Vec<T>, Vec<T>, Option<(T, T)>);

/// One outcome head's hidden layers (after the fused first one) and its
/// output unit.
type Head<T> = (Vec<Layer<T>>, Unit<T>);

/// The compiled forward pass of one model version (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct InferencePlan<T> {
    d_in: usize,
    /// `None` when the caller passes inputs it already standardized.
    standardize: Option<Standardize<T>>,
    hidden: Vec<Layer<T>>,
    /// Whether `out` is the cosine layer, whose input rows are L2-normalized.
    cosine: bool,
    out: Layer<T>,
    /// Both heads' first hidden layers as one GEMM over `[W₀ | W₁]`, with
    /// `h₀`'s units in the first `usize` columns.
    fused: Option<(Layer<T>, usize)>,
    heads: [Head<T>; 2],
    /// `(σ, μ)` of `y·σ + μ`; `None` leaves outcomes in the scaled space.
    rescale: Option<(T, T)>,
}

impl<T: PlanFloat> InferencePlan<T> {
    /// The serving pipeline of a trained model: raw covariates in,
    /// outcomes on the original scale out. Fails with
    /// [`CerlError::NotTrained`] before the first observed domain, and
    /// with [`CerlError::NonFiniteParameter`] when any weight or bias is
    /// NaN or infinite: the cosine layer would map a NaN representation
    /// row to zeros and answer a finite, constant ITE. Restore, every
    /// stage and so every publish pass through here.
    pub(crate) fn compile(model: &CfrModel) -> Result<Self, CerlError> {
        if let Some((_, name, _)) = model.store().iter().find(|(_, _, v)| !v.all_finite()) {
            return Err(CerlError::NonFiniteParameter {
                param: name.to_string(),
            });
        }
        let x_std = model.x_std().ok_or(CerlError::NotTrained)?;
        let y_scale = model.y_scale().ok_or(CerlError::NotTrained)?;
        let clip = x_std.clip().map(|c| (T::from_f64(-c), T::from_f64(c)));
        Ok(Self {
            d_in: model.d_in(),
            standardize: Some((narrow(x_std.means()), narrow(x_std.stds()), clip)),
            rescale: Some((T::from_f64(y_scale.sd()), T::from_f64(y_scale.mean()))),
            ..Self::network(model.store(), model.repr(), model.heads())
        })
    }

    /// `g` and `h` alone, over any parameter store: standardized
    /// covariates in, scaled outcomes out. For the training side, which
    /// evaluates the live (or the previous stage's) store.
    pub(crate) fn network(store: &ParamStore, repr: &ReprNet, heads: &OutcomeHeads) -> Self {
        let out = match (repr.out_cosine(), repr.out_plain()) {
            (Some(cosine), _) => {
                let w = store.value(cosine.weight());
                let n = w.cols().max(1);
                let mut wn: Vec<T> = narrow(w.as_slice());
                // Column norms in `Graph::col_l2_normalize` order: squares
                // summed down the rows, then one square root per column.
                let mut norms = vec![T::ZERO; n];
                for row in wn.chunks_exact(n) {
                    norms.iter_mut().zip(row).for_each(|(s, &v)| *s += v * v);
                }
                let norms: Vec<T> = norms.into_iter().map(T::sqrt).collect();
                let eps = T::from_f64(NORM_EPS);
                for row in wn.chunks_exact_mut(n) {
                    for (v, &s) in row.iter_mut().zip(&norms) {
                        *v = if s > eps { *v / s } else { T::ZERO };
                    }
                }
                // Widening to f64 and narrowing back is exact.
                let wn = wn.into_iter().map(T::to_f64).collect();
                Layer {
                    w: PackedB::pack(&Matrix::from_vec(w.rows(), w.cols(), wn)),
                    bias: None,
                    act: Act::new(cosine.activation()),
                }
            }
            (None, Some(plain)) => Layer::dense(store, plain),
            // Construction always installs exactly one output layer and
            // the snapshot validator enforces it on restore.
            // panic-ok: unreachable by the invariant above.
            (None, None) => unreachable!("ReprNet without an output layer"),
        };
        let hidden: Vec<Layer<T>> = repr
            .hidden()
            .iter()
            .map(|l| Layer::dense(store, l))
            .collect();
        let [(hid0, out0), (hid1, out1)] = [heads.h0(), heads.h1()].map(|mlp| {
            match mlp.layers().split_last() {
                Some((out, hidden)) => (hidden, out),
                // panic-ok: unreachable — an Mlp has at least one layer.
                None => unreachable!("outcome head without layers"),
            }
        });
        // Fuse the first hidden layers when both heads have one and they
        // share an activation (always, short of a hand-edited snapshot).
        let fused = match (hid0.first(), hid1.first()) {
            (Some(a), Some(b)) if a.activation() == b.activation() => {
                let (wa, wb) = (store.value(a.weight()), store.value(b.weight()));
                let bias = store.value(a.bias()).hstack(store.value(b.bias()));
                let layer = Layer {
                    w: PackedB::pack(&wa.hstack(wb)),
                    bias: Some(narrow(bias.as_slice())),
                    act: Act::new(a.activation()),
                };
                Some((layer, wa.cols()))
            }
            _ => None,
        };
        let skip = usize::from(fused.is_some());
        let head = |hid: &[Dense], out: &Dense| -> Head<T> {
            let layers = hid.iter().skip(skip).map(|l| Layer::dense(store, l));
            (layers.collect(), Unit::new(store, out))
        };
        Self {
            d_in: hidden.first().unwrap_or(&out).w.rows(),
            standardize: None,
            hidden,
            cosine: repr.out_cosine().is_some(),
            out,
            fused,
            heads: [head(hid0, out0), head(hid1, out1)],
            rescale: None,
        }
    }

    /// Representations `g(x)` in the plan's element type.
    fn represent(&self, x: &Matrix) -> Result<Vec<T>, CerlError> {
        let (d, m) = (self.d_in, x.rows());
        if x.cols() != d {
            return Err(CerlError::DimensionMismatch {
                expected: d,
                found: x.cols(),
            });
        }
        // The first read of every value also screens it: a NaN row would
        // come out of the cosine layer as zeros and a ±∞ one clamped, so
        // both would answer plausible finite ITEs.
        let mut h: Vec<T> = Vec::with_capacity(x.len());
        for (row, values) in x.as_slice().chunks_exact(d.max(1)).enumerate() {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(CerlError::NonFiniteInput { field: "x", row });
            }
            let values = values.iter().map(|&v| T::from_f64(v));
            match &self.standardize {
                Some((means, stds, clip)) => {
                    h.extend(values.zip(means).zip(stds).map(|((v, &mu), &sd)| {
                        let z = (v - mu) / sd;
                        clip.map_or(z, |(lo, hi)| z.clamp(lo, hi))
                    }));
                }
                None => h.extend(values),
            }
        }
        let mut h = forward_all(&self.hidden, &h, m).into_owned();
        if self.cosine {
            let eps = T::from_f64(NORM_EPS);
            for row in h.chunks_exact_mut(self.out.w.rows().max(1)) {
                let norm = T::l2_norm(row);
                for v in row.iter_mut() {
                    *v = if norm > eps { *v / norm } else { T::ZERO };
                }
            }
        }
        Ok(self.out.forward(&h, m))
    }

    /// Both heads over `m` representation rows, rescaled and widened.
    fn outcomes(&self, r: &[T], m: usize) -> (Vec<f64>, Vec<f64>) {
        let split = self.fused.as_ref().map(|(layer, split)| {
            // The fused activations, split into each head's columns.
            let z = layer.forward(r, m);
            let (mut z0, mut z1) = (Vec::new(), Vec::new());
            for row in z.chunks_exact(layer.w.cols().max(1)) {
                let (a, b) = row.split_at(*split);
                z0.extend_from_slice(a);
                z1.extend_from_slice(b);
            }
            [z0, z1]
        });
        let [in0, in1] = match &split {
            Some([z0, z1]) => [z0.as_slice(), z1.as_slice()],
            None => [r, r],
        };
        let [(hid0, unit0), (hid1, unit1)] = &self.heads;
        let y0 = unit0.forward(&forward_all(hid0, in0, m), m);
        let y1 = unit1.forward(&forward_all(hid1, in1, m), m);
        let rescale = |v: T| self.rescale.map_or(v, |(sd, mean)| v * sd + mean);
        let widen =
            |y: Vec<T>| -> Vec<f64> { y.into_iter().map(|v| rescale(v).to_f64()).collect() };
        (widen(y0), widen(y1))
    }

    /// The heads alone on given representations (the training side's
    /// φ-mapped memory).
    pub(crate) fn heads(&self, r: &Matrix) -> (Vec<f64>, Vec<f64>) {
        self.outcomes(&narrow(r.as_slice()), r.rows())
    }
}

/// What an engine serves from its compiled plan, whichever the precision.
pub(crate) trait Predictor: Send + Sync {
    /// Representations `g(x)`, widened to `f64`.
    fn embed(&self, x: &Matrix) -> Result<Matrix, CerlError>;

    /// Both potential outcomes `(ŷ₀, ŷ₁)`, widened to `f64`.
    fn predict_potential_outcomes(&self, x: &Matrix) -> Result<(Vec<f64>, Vec<f64>), CerlError>;

    /// Individual treatment effects `ŷ₁ − ŷ₀`, subtracted in `f64`.
    fn predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        let (y0, y1) = self.predict_potential_outcomes(x)?;
        Ok(y1.iter().zip(&y0).map(|(&a, &b)| a - b).collect())
    }
}

impl<T: PlanFloat> Predictor for InferencePlan<T> {
    fn embed(&self, x: &Matrix) -> Result<Matrix, CerlError> {
        let r = self.represent(x)?;
        let values = r.into_iter().map(T::to_f64).collect();
        Ok(Matrix::from_vec(x.rows(), self.out.w.cols(), values))
    }

    fn predict_potential_outcomes(&self, x: &Matrix) -> Result<(Vec<f64>, Vec<f64>), CerlError> {
        let r = self.represent(x)?;
        Ok(self.outcomes(&r, x.rows()))
    }
}

/// `model`'s plan in `mode`.
pub(crate) fn compile(
    mode: PrecisionMode,
    model: &CfrModel,
) -> Result<Arc<dyn Predictor>, CerlError> {
    Ok(match mode {
        PrecisionMode::F64 => Arc::new(InferencePlan::<f64>::compile(model)?),
        PrecisionMode::F32 => Arc::new(InferencePlan::<f32>::compile(model)?),
    })
}

/// Column 0 of `mlp(x)` on compiled `f64` layers: the S- and T-learner
/// baselines' regressors, bitwise equal to their tape forward.
pub(crate) fn mlp_output(store: &ParamStore, mlp: &Mlp, x: &Matrix) -> Vec<f64> {
    let layers: Vec<Layer<f64>> = mlp
        .layers()
        .iter()
        .map(|l| Layer::dense(store, l))
        .collect();
    let h = forward_all(&layers, x.as_slice(), x.rows());
    let width = layers.last().map_or(x.cols(), |l| l.w.cols());
    h.chunks(width.max(1))
        .map(|row| row.first().copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(PrecisionMode::F64.as_str(), "f64");
        assert_eq!(PrecisionMode::F32.as_str(), "f32");
        assert_eq!(PrecisionMode::default(), PrecisionMode::F64);
        assert_eq!(format!("{}", PrecisionMode::F32), "f32");
    }

    #[test]
    fn f32_sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid32(0.0), 0.5);
        assert!((sigmoid32(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid32(-100.0).abs() < 1e-6);
        assert!(sigmoid32(-100.0) >= 0.0, "must not overflow to NaN");
    }

    #[test]
    fn activations_match_f64_semantics() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.5, 2.0] {
            assert_eq!(Act::Identity.apply(x), x);
            assert_eq!(Act::<f32>::Relu.apply(x), x.max(0.0));
            let elu = Act::Elu(1.0f32).apply(x);
            if x > 0.0 {
                assert_eq!(elu, x);
            } else {
                assert!((elu - (x.exp() - 1.0)).abs() < 1e-6);
            }
            assert_eq!(Act::<f32>::Tanh.apply(x), x.tanh());
        }
    }
}
