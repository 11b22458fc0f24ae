//! Dynamic computation graph (tape).
//!
//! Leaves are data [`Graph::input`]s and [`Graph::param`]s (copied in from
//! the [`ParamStore`]), interior nodes are created by the op methods, and
//! [`Graph::backward`](crate::backward) walks the tape in reverse. Node ids
//! increase in topological order by construction.
//!
//! One `Graph` serves a whole training stage: [`Graph::reset`] empties the
//! tape but keeps its node arena, and returns every node value and every
//! gradient buffer to a free list that the next step's ops and backward
//! sweep take their outputs from, so a steady-state step reuses the
//! previous step's storage instead of allocating it again. Leaves built
//! from a caller's matrix ([`Graph::input`]) and custom-op outputs keep
//! their own storage and are dropped on reset; [`Graph::input_rows`] and
//! [`Graph::input_fn`] build data leaves in pooled buffers instead.

use crate::custom::CustomOp;
use crate::params::{ParamId, ParamStore};
use cerl_math::matmul::GemmScratch;
use cerl_math::special::sigmoid;
use cerl_math::Matrix;
use std::borrow::Borrow;
use std::ops::Range;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index in the tape.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Operation recorded on the tape.
pub(crate) enum Op {
    /// Data leaf (no gradient).
    Input,
    /// Trainable leaf; gradients accumulate per [`ParamId`].
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    AddScalar(NodeId),
    /// `(n×d) + (1×d)` row-broadcast (bias add).
    AddRowBroadcast(NodeId, NodeId),
    MatMul(NodeId, NodeId),
    Relu(NodeId),
    Elu(NodeId, f64),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Square(NodeId),
    Abs(NodeId),
    Exp(NodeId),
    /// Sum of all entries → 1×1.
    Sum(NodeId),
    /// Mean of all entries → 1×1.
    Mean(NodeId),
    /// Row sums: n×d → n×1.
    RowSum(NodeId),
    /// Normalize each row to unit L2 norm (zero rows stay zero).
    RowL2Normalize(NodeId),
    /// Normalize each column to unit L2 norm (zero columns stay zero).
    ColL2Normalize(NodeId),
    /// Gather rows by index (repeats allowed); the indices are this range
    /// of [`Graph::links`].
    SelectRows(NodeId, Range<usize>),
    /// Stack rows of the first input on top of the second.
    ConcatRows(NodeId, NodeId),
    /// Externally defined op (see [`CustomOp`]); its input node indices
    /// are this range of [`Graph::links`].
    Custom {
        inputs: Range<usize>,
        op: Box<dyn CustomOp>,
    },
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
    /// Whether `value` came from the [`Pool`] and returns to it on reset.
    pooled: bool,
}

/// Free lists of matrix buffers, kept across [`Graph::reset`].
///
/// Buffers are binned by capacity, a power of two: a step that rebuilds
/// the same shapes takes back buffers the previous step used and
/// allocates nothing, and shapes that vary from step to step (the rows of
/// each treatment arm) share bins instead of each keeping buffers of its
/// own, so the pool holds about one step's working set.
#[derive(Default)]
pub(crate) struct Pool {
    /// `free[k]` holds buffers of capacity `2^k`.
    free: Vec<Vec<Vec<f64>>>,
}

impl Pool {
    /// A `rows×cols` matrix with unspecified contents: the caller
    /// overwrites every entry.
    pub(crate) fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let bin = len.next_power_of_two().trailing_zeros() as usize;
        let mut data = self
            .free
            .get_mut(bin)
            .and_then(Vec::pop)
            .unwrap_or_else(|| Vec::with_capacity(1 << bin));
        data.resize(len, 0.0);
        Matrix::from_vec(rows, cols, data)
    }

    /// A pooled copy of `src`.
    pub(crate) fn copy(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take(src.rows(), src.cols());
        m.as_mut_slice().copy_from_slice(src.as_slice());
        m
    }

    /// Return a buffer to the bin of its capacity.
    pub(crate) fn give(&mut self, m: Matrix) {
        let data = m.into_vec();
        // Every pooled buffer was allocated at a power-of-two capacity;
        // the floor keeps any other one in a bin it can serve.
        let bin = data.capacity().max(1).ilog2() as usize;
        if self.free.len() <= bin {
            self.free.resize_with(bin + 1, Vec::new);
        }
        self.free[bin].push(data);
    }
}

/// Dynamic computation tape.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Index lists of `SelectRows` and `Custom` nodes, back to back.
    pub(crate) links: Vec<usize>,
    pub(crate) pool: Pool,
    /// Product operand storage, shared by the forward and backward GEMMs.
    pub(crate) gemm: GemmScratch,
    pub(crate) grads: crate::backward::Gradients,
}

/// Threshold below which a vector is treated as zero during normalization.
pub(crate) const NORM_EPS: f64 = 1e-12;

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the tape for the next step, keeping its storage: the node
    /// arena, and every pooled node value and gradient buffer (see the
    /// [module docs](self)). Node ids and gradients of the previous step
    /// are invalid afterwards.
    pub fn reset(&mut self) {
        self.grads.recycle(&mut self.pool);
        for node in self.nodes.drain(..) {
            if node.pooled {
                self.pool.give(node.value);
            }
        }
        self.links.clear();
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow the value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Scalar value of a 1×1 node.
    ///
    /// # Panics
    /// If the node is not 1×1.
    pub fn scalar(&self, id: NodeId) -> f64 {
        let v = self.value(id);
        assert_eq!(
            v.shape(),
            (1, 1),
            "scalar: node is {:?}, not 1x1",
            v.shape()
        );
        v[(0, 0)]
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool, pooled: bool) -> NodeId {
        debug_assert!(
            value.all_finite(),
            "non-finite value produced by {}",
            op_name(&op)
        );
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
            pooled,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Elementwise `f(a)` into a pooled buffer.
    fn map(&mut self, a: NodeId, op: Op, f: impl Fn(f64) -> f64) -> NodeId {
        let src = &self.nodes[a.0].value;
        let mut v = self.pool.take(src.rows(), src.cols());
        for (o, &x) in v.as_mut_slice().iter_mut().zip(src.as_slice()) {
            *o = f(x);
        }
        let rg = self.rg(a);
        self.push(v, op, rg, true)
    }

    /// Elementwise `f(a, b)` of two equally shaped nodes into a pooled
    /// buffer.
    fn zip(&mut self, a: NodeId, b: NodeId, op: Op, f: impl Fn(f64, f64) -> f64) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(
            av.shape(),
            bv.shape(),
            "{}: shape mismatch {:?} vs {:?}",
            op_name(&op),
            av.shape(),
            bv.shape()
        );
        let mut v = self.pool.take(av.rows(), av.cols());
        let out = v.as_mut_slice().iter_mut();
        for ((o, &x), &y) in out.zip(av.as_slice()).zip(bv.as_slice()) {
            *o = f(x, y);
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(v, op, rg, true)
    }

    // ---- leaves ------------------------------------------------------

    /// Data leaf. [`Graph::backward`] computes no gradient for it, nor for
    /// nodes computed from inputs alone; use [`Graph::input_with_grad`]
    /// when the gradient w.r.t. the data is wanted.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input, false, false)
    }

    /// Data leaf holding rows `rows` of `src` (repeats allowed), gathered
    /// into a pooled buffer: [`Graph::input`] of `src.select_rows(rows)`
    /// without the allocation.
    pub fn input_rows(&mut self, src: &Matrix, rows: &[usize]) -> NodeId {
        let mut v = self.pool.take(rows.len(), src.cols());
        gather_rows(src, rows.iter().copied(), &mut v);
        self.push(v, Op::Input, false, true)
    }

    /// Data leaf whose entry `(i, j)` is `f(i, j)`, built in a pooled
    /// buffer: [`Graph::input`] of `Matrix::from_fn(rows, cols, f)`
    /// without the allocation.
    pub fn input_fn(
        &mut self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> NodeId {
        let mut v = self.pool.take(rows, cols);
        for (k, o) in v.as_mut_slice().iter_mut().enumerate() {
            *o = f(k / cols, k % cols);
        }
        self.push(v, Op::Input, false, true)
    }

    /// Data leaf that participates in gradient computation (used by
    /// `cerl-ot` tests and representation-space analyses).
    pub fn input_with_grad(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input, true, false)
    }

    /// Trainable leaf: copies the parameter's current value onto the tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let v = self.pool.copy(store.value(id));
        self.push(v, Op::Param(id), true, true)
    }

    // ---- binary elementwise ------------------------------------------

    /// Elementwise sum (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise difference (same shapes).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Hadamard product (same shapes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Multiply every entry by the constant `c`.
    pub fn scale(&mut self, a: NodeId, c: f64) -> NodeId {
        self.map(a, Op::Scale(a, c), |x| x * c)
    }

    /// Add the constant `c` to every entry.
    pub fn add_scalar(&mut self, a: NodeId, c: f64) -> NodeId {
        self.map(a, Op::AddScalar(a), |x| x + c)
    }

    /// `(n×d) + (1×d)` bias broadcast over rows.
    pub fn add_row_broadcast(&mut self, m: NodeId, bias: NodeId) -> NodeId {
        let (mv, bv) = (&self.nodes[m.0].value, &self.nodes[bias.0].value);
        assert_eq!(bv.rows(), 1, "add_row_broadcast: bias must be 1×d");
        assert_eq!(mv.cols(), bv.cols(), "add_row_broadcast: width mismatch");
        let mut v = self.pool.copy(mv);
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            for (x, &b) in row.iter_mut().zip(bv.row(0)) {
                *x += b;
            }
        }
        let rg = self.rg(m) || self.rg(bias);
        self.push(v, Op::AddRowBroadcast(m, bias), rg, true)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut v = self.pool.take(av.rows(), bv.cols());
        self.gemm.matmul_into(av, bv, &mut v);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul(a, b), rg, true)
    }

    // ---- unary elementwise -------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.map(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Exponential linear unit with slope `alpha` on the negative side.
    pub fn elu(&mut self, a: NodeId, alpha: f64) -> NodeId {
        self.map(a, Op::Elu(a, alpha), |x| {
            if x > 0.0 {
                x
            } else {
                alpha * (x.exp() - 1.0)
            }
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.map(a, Op::Sigmoid(a), sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.map(a, Op::Tanh(a), f64::tanh)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: NodeId) -> NodeId {
        self.map(a, Op::Square(a), |x| x * x)
    }

    /// Elementwise absolute value (subgradient 0 at 0).
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        self.map(a, Op::Abs(a), f64::abs)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.map(a, Op::Exp(a), f64::exp)
    }

    // ---- reductions ---------------------------------------------------

    /// A pooled 1×1 node holding `x`.
    fn scalar_node(&mut self, x: f64, op: Op, rg: bool) -> NodeId {
        let mut v = self.pool.take(1, 1);
        v[(0, 0)] = x;
        self.push(v, op, rg, true)
    }

    /// Sum of all entries → 1×1.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let s = self.value(a).sum();
        self.scalar_node(s, Op::Sum(a), self.rg(a))
    }

    /// Mean of all entries → 1×1 (0 for an empty input).
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let s = self.value(a).mean();
        self.scalar_node(s, Op::Mean(a), self.rg(a))
    }

    /// Row sums: n×d → n×1.
    pub fn row_sum(&mut self, a: NodeId) -> NodeId {
        let av = &self.nodes[a.0].value;
        let mut v = self.pool.take(av.rows(), 1);
        for (i, o) in v.as_mut_slice().iter_mut().enumerate() {
            *o = av.row(i).iter().sum();
        }
        let rg = self.rg(a);
        self.push(v, Op::RowSum(a), rg, true)
    }

    // ---- normalizations -----------------------------------------------

    /// Normalize each row to unit L2 norm; rows with norm below `1e-12`
    /// are output as zero.
    pub fn row_l2_normalize(&mut self, a: NodeId) -> NodeId {
        let mut v = self.pool.copy(&self.nodes[a.0].value);
        for i in 0..v.rows() {
            let n = cerl_math::norms::l2_norm(v.row(i));
            let row = v.row_mut(i);
            if n > NORM_EPS {
                row.iter_mut().for_each(|x| *x /= n);
            } else {
                row.iter_mut().for_each(|x| *x = 0.0);
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::RowL2Normalize(a), rg, true)
    }

    /// Normalize each column to unit L2 norm; columns with norm below
    /// `1e-12` are output as zero.
    pub fn col_l2_normalize(&mut self, a: NodeId) -> NodeId {
        let mut v = self.pool.copy(&self.nodes[a.0].value);
        for j in 0..v.cols() {
            let norm = col_norm(&v, j);
            for i in 0..v.rows() {
                let x = &mut v[(i, j)];
                *x = if norm > NORM_EPS { *x / norm } else { 0.0 };
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::ColL2Normalize(a), rg, true)
    }

    // ---- shape ops ------------------------------------------------------

    /// Gather rows by index (repeats allowed).
    pub fn select_rows<I>(&mut self, a: NodeId, indices: I) -> NodeId
    where
        I: IntoIterator,
        I::Item: Borrow<usize>,
    {
        let start = self.links.len();
        self.links.extend(indices.into_iter().map(|i| *i.borrow()));
        let range = start..self.links.len();
        let src = &self.nodes[a.0].value;
        let mut v = self.pool.take(range.len(), src.cols());
        gather_rows(src, self.links[range.clone()].iter().copied(), &mut v);
        let rg = self.rg(a);
        self.push(v, Op::SelectRows(a, range), rg, true)
    }

    /// Stack rows: `a` on top of `b` (same column count).
    pub fn concat_rows(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        // `Matrix::vstack`'s shapes: an empty side takes the other's width.
        let cols = if av.rows() == 0 { bv.cols() } else { av.cols() };
        if av.rows() > 0 && bv.rows() > 0 {
            assert_eq!(
                av.cols(),
                bv.cols(),
                "vstack: column mismatch {} vs {}",
                av.cols(),
                bv.cols()
            );
        }
        let mut v = self.pool.take(av.rows() + bv.rows(), cols);
        let (top, bottom) = v.as_mut_slice().split_at_mut(av.len());
        top.copy_from_slice(av.as_slice());
        bottom.copy_from_slice(bv.as_slice());
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatRows(a, b), rg, true)
    }

    // ---- extension -----------------------------------------------------

    /// Insert an externally defined differentiable op.
    pub fn custom(&mut self, inputs: &[NodeId], mut op: Box<dyn CustomOp>) -> NodeId {
        let in_values: Vec<&Matrix> = inputs.iter().map(|&i| self.value(i)).collect();
        let value = op.forward(&in_values);
        let rg = inputs.iter().any(|&i| self.rg(i));
        let start = self.links.len();
        self.links.extend(inputs.iter().map(|i| i.0));
        let inputs = start..self.links.len();
        self.push(value, Op::Custom { inputs, op }, rg, false)
    }
}

/// Copy rows `rows` of `src` into `out` (`rows.len() × src.cols()`).
///
/// # Panics
/// If any index is out of bounds.
fn gather_rows(src: &Matrix, rows: impl Iterator<Item = usize>, out: &mut Matrix) {
    let cols = src.cols();
    for (k, i) in rows.enumerate() {
        assert!(
            i < src.rows(),
            "select_rows: index {i} out of bounds ({} rows)",
            src.rows()
        );
        out.as_mut_slice()[k * cols..(k + 1) * cols].copy_from_slice(src.row(i));
    }
}

/// L2 norm of column `j`, its squares summed down the rows.
pub(crate) fn col_norm(m: &Matrix, j: usize) -> f64 {
    (0..m.rows())
        .map(|i| m[(i, j)] * m[(i, j)])
        .fold(0.0, |s, v| s + v)
        .sqrt()
}

pub(crate) fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Input => "Input",
        Op::Param(_) => "Param",
        Op::Add(..) => "Add",
        Op::Sub(..) => "Sub",
        Op::Mul(..) => "Mul",
        Op::Scale(..) => "Scale",
        Op::AddScalar(..) => "AddScalar",
        Op::AddRowBroadcast(..) => "AddRowBroadcast",
        Op::MatMul(..) => "MatMul",
        Op::Relu(_) => "Relu",
        Op::Elu(..) => "Elu",
        Op::Sigmoid(_) => "Sigmoid",
        Op::Tanh(_) => "Tanh",
        Op::Square(_) => "Square",
        Op::Abs(_) => "Abs",
        Op::Exp(_) => "Exp",
        Op::Sum(_) => "Sum",
        Op::Mean(_) => "Mean",
        Op::RowSum(_) => "RowSum",
        Op::RowL2Normalize(_) => "RowL2Normalize",
        Op::ColL2Normalize(_) => "ColL2Normalize",
        Op::SelectRows(..) => "SelectRows",
        Op::ConcatRows(..) => "ConcatRows",
        Op::Custom { op, .. } => op.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        let b = g.input(Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]));

        let s = g.add(a, b);
        assert_eq!(g.value(s).as_slice(), &[1.5, -1.5, 3.5]);

        let d = g.sub(a, b);
        assert_eq!(g.value(d).as_slice(), &[0.5, -2.5, 2.5]);

        let m = g.mul(a, b);
        assert_eq!(g.value(m).as_slice(), &[0.5, -1.0, 1.5]);

        let sc = g.scale(a, 2.0);
        assert_eq!(g.value(sc).as_slice(), &[2.0, -4.0, 6.0]);

        let r = g.relu(a);
        assert_eq!(g.value(r).as_slice(), &[1.0, 0.0, 3.0]);

        let q = g.square(a);
        assert_eq!(g.value(q).as_slice(), &[1.0, 4.0, 9.0]);

        let ab = g.abs(a);
        assert_eq!(g.value(ab).as_slice(), &[1.0, 2.0, 3.0]);

        let sm = g.sum(a);
        assert_eq!(g.scalar(sm), 2.0);

        let mn = g.mean(a);
        assert!((g.scalar(mn) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn matmul_and_bias() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let w = g.input(Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ]));
        let b = g.input(Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]));
        let xw = g.matmul(x, w);
        assert_eq!(g.value(xw).row(0), &[1.0, 2.0, 3.0]);
        let y = g.add_row_broadcast(xw, b);
        assert_eq!(g.value(y).row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(g.value(y).row(1), &[13.0, 24.0, 37.0]);
    }

    #[test]
    fn normalizations() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]));
        let rn = g.row_l2_normalize(x);
        assert!((g.value(rn)[(0, 0)] - 0.6).abs() < 1e-15);
        assert_eq!(g.value(rn).row(1), &[0.0, 0.0]);

        let y = g.input(Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 0.0]]));
        let cn = g.col_l2_normalize(y);
        assert!((g.value(cn)[(0, 0)] - 0.6).abs() < 1e-15);
        assert!((g.value(cn)[(1, 0)] - 0.8).abs() < 1e-15);
        assert_eq!(g.value(cn)[(0, 1)], 0.0);
    }

    #[test]
    fn select_and_concat() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let s = g.select_rows(x, [2, 0]);
        assert_eq!(g.value(s).as_slice(), &[3.0, 1.0]);
        let c = g.concat_rows(x, s);
        assert_eq!(g.value(c).as_slice(), &[1.0, 2.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn requires_grad_propagates() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::identity(2));
        let mut g = Graph::new();
        let x = g.input(Matrix::identity(2));
        let p = g.param(&store, w);
        let xy = g.matmul(x, p);
        let no_grad = g.add(x, x);
        assert!(g.rg(xy));
        assert!(!g.rg(no_grad));
    }

    #[test]
    #[should_panic(expected = "not 1x1")]
    fn scalar_requires_1x1() {
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 2));
        let _ = g.scalar(x);
    }
}
