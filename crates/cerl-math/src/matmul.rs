//! Matrix multiplication kernels.
//!
//! Every product in this workspace runs on one cache-blocked microkernel,
//! [`gemm`]: `B` is packed into contiguous `KC`×[`NR`] column panels
//! ([`PackedB`]), and an `MR`×[`NR`] register tile of accumulators walks
//! each panel with a branch-free inner loop. Where the build targets
//! AVX-512F the `f64` tile is written with 512-bit fused multiply-adds;
//! everywhere else a portable tile that LLVM autovectorizes is the only
//! path. [`matmul_serial`] and [`matmul_parallel`] pack `B` per call;
//! callers that reuse the same weights (the compiled inference plan in
//! `cerl-core`) pack once and call [`gemm`], and callers that multiply
//! changing operands into their own buffers (the training tape in
//! `cerl-nn`) keep a [`GemmScratch`] whose pack storage is reused. The
//! parallel path partitions
//! output rows across `crossbeam::scope` workers over the *same* kernel,
//! and kicks in only above a FLOP threshold so small multiplies stay
//! thread-free.
//!
//! # Determinism contract
//!
//! For one element `c[i][j]`, the accumulation order is fixed entirely by
//! the `KC` blocking constant: within each `KC` block of the inner
//! dimension, terms are added in ascending `p` from a fresh accumulator,
//! one fused multiply-add each, and block sums are added to the output in
//! ascending block order. That order does not depend on how rows are
//! grouped into `MR` tiles, how columns are grouped into [`NR`] panels,
//! which ISA the tile is written in, or how rows are partitioned across
//! threads, so [`matmul`], [`matmul_serial`], [`matmul_parallel`] and
//! [`gemm`] return **bitwise-identical** results — on finite *and*
//! non-finite inputs (there are no data-dependent skips: a `0.0 × ∞`
//! contributes the same `NaN` in every kernel). [`matmul_at_b`] runs the
//! same kernel on a transposed copy of `A`, [`matmul_a_bt`] on `Bᵀ` packed
//! straight from `B`'s rows, and [`kernel_dot`] is its one-column case, so
//! they are bound by the same contract.

use crate::matrix::Matrix;
use std::ops::AddAssign;
use std::sync::OnceLock;

/// FLOP count (2·m·k·n) above which [`matmul`] switches to the parallel kernel.
const PARALLEL_FLOP_THRESHOLD: usize = 8_000_000;

/// Inner-dimension block: a packed block holds `KC`×[`NR`] values (16 or
/// 32 KiB of `f64`) so it stays in cache while a whole row range streams
/// past it.
/// Part of the determinism contract — changing it changes rounding.
const KC: usize = 256;

/// Register-tile width: columns of `C` per accumulator row. Two 8-lane
/// `f64` vectors with AVX-512; elsewhere 8, so the portable `MR`×`NR`
/// accumulators leave registers free on 16-register (AVX2) targets. Does
/// *not* affect rounding.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
))]
pub const NR: usize = 16;
/// Register-tile width (see the AVX-512 definition above).
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
)))]
pub const NR: usize = 8;

/// Register-tile height: rows of `C` per tile, each packed `B` load reused
/// `MR` times. Does *not* affect rounding, so it is a pure performance knob.
const MR: usize = 4;

/// Element type the kernel runs on: `f64` for training and serving, `f32`
/// for single-precision serving.
pub trait Element: Copy + Send + Sync + AddAssign + 'static {
    /// Additive identity (`+0.0`).
    const ZERO: Self;

    /// Convert from `f64` (narrowing for `f32`).
    fn from_f64(v: f64) -> Self;

    /// `self·b + c`, fused (one `vfmadd`, one rounding) when the target has
    /// hardware FMA; otherwise a separate multiply-and-add, because
    /// `mul_add` would be a libm call per element. Every kernel entry
    /// point goes through this one rule, so they agree bitwise within a
    /// build whichever way the cfg resolves.
    fn fma(self, b: Self, c: Self) -> Self;

    /// One `R`×[`NR`] tile over a `KC` block of a packed panel:
    /// `acc[r][t] = Σ_p a[r][p]·block[p][t]`, ascending `p` from zero.
    /// Each `a[r]` holds at least `block.len()` values.
    #[inline(always)]
    fn tile<const R: usize>(a: [&[Self]; R], block: &[[Self; NR]]) -> [[Self; NR]; R] {
        portable_tile(a, block)
    }
}

macro_rules! element {
    ($t:ty $(, $avx512_tile:path)?) => {
        impl Element for $t {
            const ZERO: Self = 0.0;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }

            #[inline(always)]
            fn fma(self, b: Self, c: Self) -> Self {
                #[cfg(target_feature = "fma")]
                return self.mul_add(b, c);
                #[cfg(not(target_feature = "fma"))]
                return self * b + c;
            }

            $(
                #[cfg(all(target_arch = "x86_64", target_feature = "avx512f", target_feature = "fma"))]
                #[inline(always)]
                fn tile<const R: usize>(a: [&[Self]; R], block: &[[Self; NR]]) -> [[Self; NR]; R] {
                    // SAFETY: compiled only where the build enables avx512f
                    // (the cfg above), the tile's one target feature.
                    unsafe { $avx512_tile(a, block) }
                }
            )?
        }
    };
}

element!(f64, avx512::tile);
element!(f32);

/// The portable register tile: scalar code that LLVM autovectorizes. The
/// only tile on targets without AVX-512F, and the reference the AVX-512
/// tile is tested against bit for bit.
#[inline(always)]
fn portable_tile<T: Element, const R: usize>(a: [&[T]; R], block: &[[T; NR]]) -> [[T; NR]; R] {
    // panic-ok: every a[r] holds >= block.len() values (trait contract);
    // re-slicing to that length lets the compiler drop the inner checks.
    let a = a.map(|row| &row[..block.len()]);
    let mut acc = [[T::ZERO; NR]; R];
    for (p, b) in block.iter().enumerate() {
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            // panic-ok: p < block.len() == a_r.len().
            let av = a_r[p];
            for (c, &bv) in acc_r.iter_mut().zip(b) {
                *c = av.fma(bv, *c);
            }
        }
    }
    acc
}

/// The AVX-512F `f64` tile: two 8-lane accumulators per row. Its body is
/// safe code — inside a `#[target_feature(enable = "avx512f")]` function
/// the arithmetic intrinsics are safe — and the only `unsafe` is in the
/// load/store helpers.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
))]
mod avx512 {
    use super::NR;
    use std::arch::x86_64::{
        __m512d, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd,
    };

    // panic-ok: compile-time check that a packed row is two 8-lane vectors.
    const _: () = assert!(NR == 16);

    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) fn tile<const R: usize>(a: [&[f64]; R], block: &[[f64; NR]]) -> [[f64; NR]; R] {
        // panic-ok: every a[r] holds >= block.len() values (trait contract).
        let a = a.map(|row| &row[..block.len()]);
        let mut acc = [[_mm512_setzero_pd(); 2]; R];
        for (p, b) in block.iter().enumerate() {
            let [lo, hi] = load(b);
            for ([acc_lo, acc_hi], a_r) in acc.iter_mut().zip(&a) {
                // panic-ok: p < block.len() == a_r.len().
                let av = _mm512_set1_pd(a_r[p]);
                *acc_lo = _mm512_fmadd_pd(av, lo, *acc_lo);
                *acc_hi = _mm512_fmadd_pd(av, hi, *acc_hi);
            }
        }
        let mut out = [[0.0; NR]; R];
        for (o, &v) in out.iter_mut().zip(&acc) {
            store(v, o);
        }
        out
    }

    /// One packed row as two vectors.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load(row: &[f64; NR]) -> [__m512d; 2] {
        // SAFETY: `row` holds NR == 16 values, so both 8-lane reads (at 0
        // and 8) are in bounds; `loadu` has no alignment requirement.
        unsafe {
            [
                _mm512_loadu_pd(row.as_ptr()),
                _mm512_loadu_pd(row.as_ptr().add(8)),
            ]
        }
    }

    /// Two vectors written to one row.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn store([lo, hi]: [__m512d; 2], out: &mut [f64; NR]) {
        // SAFETY: `out` holds NR == 16 values, so both 8-lane writes (at 0
        // and 8) are in bounds; `storeu` has no alignment requirement.
        unsafe {
            _mm512_storeu_pd(out.as_mut_ptr(), lo);
            _mm512_storeu_pd(out.as_mut_ptr().add(8), hi);
        }
    }
}

/// `B` packed once into the kernel's column panels.
///
/// Panel `j` holds columns `j·NR .. j·NR + NR` of `B` as `k` rows of
/// [`NR`] values (the last panel zero-padded), so every block the tile
/// walks is one contiguous slice. A caller that multiplies by the same `B`
/// repeatedly packs it once and calls [`gemm`].
#[derive(Debug, Clone)]
pub struct PackedB<T> {
    k: usize,
    n: usize,
    panels: Vec<[T; NR]>,
}

impl<T: Element> Default for PackedB<T> {
    /// An empty pack, for a [`GemmScratch`] to refill.
    fn default() -> Self {
        Self {
            k: 0,
            n: 0,
            panels: Vec::new(),
        }
    }
}

impl<T: Element> PackedB<T> {
    /// Pack a `k×n` matrix, converting with [`Element::from_f64`].
    pub fn pack(b: &Matrix) -> Self {
        let mut packed = Self::default();
        packed.pack_into(b);
        packed
    }

    /// Repack `self` with the `k×n` matrix `b`, reusing its storage.
    fn pack_into(&mut self, b: &Matrix) {
        let (k, n) = b.shape();
        self.reshape(k, n);
        for (j, panel) in self.panels.chunks_exact_mut(k.max(1)).enumerate() {
            let (jj, nr) = (j * NR, NR.min(n - j * NR));
            for (dst, row) in panel.iter_mut().zip(b.iter_rows()) {
                // panic-ok: jj + nr <= n == row.len() by the panel bounds.
                let src = &row[jj..jj + nr];
                dst.iter_mut()
                    .zip(src)
                    .for_each(|(d, &s)| *d = T::from_f64(s));
            }
        }
    }

    /// Repack `self` with `bᵀ` (so `k = b.cols()`, `n = b.rows()`), reading
    /// `b` in place: the panels equal those of `pack(&b.transpose())`.
    fn pack_transposed_into(&mut self, b: &Matrix) {
        let (n, k) = b.shape();
        self.reshape(k, n);
        for (j, panel) in self.panels.chunks_exact_mut(k.max(1)).enumerate() {
            let (jj, nr) = (j * NR, NR.min(n - j * NR));
            for t in 0..nr {
                for (dst, &s) in panel.iter_mut().zip(b.row(jj + t)) {
                    // panic-ok: t < nr <= NR, the panel row's width.
                    dst[t] = T::from_f64(s);
                }
            }
        }
    }

    /// Size the panels for a `k×n` operand, every lane zeroed (the last
    /// panel's padding lanes stay zero).
    fn reshape(&mut self, k: usize, n: usize) {
        self.k = k;
        self.n = n;
        self.panels.clear();
        self.panels.resize(n.div_ceil(NR) * k, [T::ZERO; NR]);
    }

    /// Rows of `B` (the inner dimension).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of `B`.
    pub fn cols(&self) -> usize {
        self.n
    }
}

/// `out += A·B` on the blocked kernel, `B` prepacked: `a` is row-major
/// `m×b.rows()` and `out` row-major `m×b.cols()`. Into a zeroed `out`
/// this writes exactly what [`matmul`] returns.
///
/// # Panics
/// If `a` and `out` do not hold the same number of rows.
pub fn gemm<T: Element>(a: &[T], b: &PackedB<T>, out: &mut [T]) {
    let fits = a.len() * b.n == out.len() * b.k && a.len().is_multiple_of(b.k.max(1));
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert!(fits, "gemm: A and out do not hold the same number of rows");
    gemm_rows(a, b, out, 0);
}

/// `Σ a[p]·b[p]` with the kernel's rounding: bitwise equal to the single
/// entry of the `1×k · k×1` product. For one-column layers, where a
/// padded [`NR`]-lane panel would be mostly zeros.
pub fn kernel_dot<T: Element>(a: &[T], b: &[T]) -> T {
    let mut out = T::ZERO;
    for (ab, bb) in a.chunks(KC).zip(b.chunks(KC)) {
        out += (ab.iter().zip(bb)).fold(T::ZERO, |acc, (&x, &y)| x.fma(y, acc));
    }
    out
}

/// Number of worker threads used by the parallel kernel.
///
/// `std::thread::available_parallelism` is a syscall; [`matmul`] sits on
/// the hottest path of both training and serving, so the value is resolved
/// once per process and cached in a `OnceLock` (the machine's core count
/// does not change under us). Public so callers that split work across
/// threads themselves use the same count as the kernels.
pub fn worker_threads() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// `A · B`, choosing the serial or parallel kernel by problem size.
///
/// Bitwise-identical to both [`matmul_serial`] and [`matmul_parallel`]
/// whichever way the size dispatch goes (see the module-level
/// determinism contract).
///
/// # Panics
/// If `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    GemmScratch::default().matmul_into(a, b, &mut out);
    out
}

/// `out += A·B` for prepacked `B` (shapes validated by the caller), on the
/// serial or the row-partitioned kernel by problem size.
fn gemm_auto(a: &[f64], b: &PackedB<f64>, out: &mut [f64]) {
    let m = out.len().checked_div(b.n).unwrap_or(0);
    let flops = 2 * m * b.k * b.n;
    let threads = if flops >= PARALLEL_FLOP_THRESHOLD && worker_threads() > 1 && m > 1 {
        worker_threads()
    } else {
        1
    };
    gemm_partitioned(a, b, out, threads);
}

/// Single-threaded product over the blocked microkernel.
pub fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_serial: inner dimension mismatch"
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm(a.as_slice(), &PackedB::pack(b), out.as_mut_slice());
    out
}

/// Parallel product: packs `B` once, then partitions output rows across
/// scoped threads, each running the same blocked microkernel over its
/// contiguous row range.
pub fn matmul_parallel(a: &Matrix, b: &Matrix) -> Matrix {
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_parallel: inner dimension mismatch"
    );
    matmul_partitioned(a, b, worker_threads())
}

/// Row-partitioned product over exactly `threads` workers (callers have
/// validated shapes). Separate from [`matmul_parallel`] so tests can pin
/// arbitrary partition widths and assert bitwise identity.
fn matmul_partitioned(a: &Matrix, b: &Matrix, threads: usize) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_partitioned(a.as_slice(), &PackedB::pack(b), out.as_mut_slice(), threads);
    out
}

/// `out += A·B` with the output rows split into contiguous chunks over
/// `threads` scoped workers (one chunk runs on the caller's thread). The
/// kernel's rounding does not depend on the partition (module docs).
fn gemm_partitioned(a: &[f64], b: &PackedB<f64>, out: &mut [f64], threads: usize) {
    let n = b.n;
    // Zero-width output: nothing to compute, and `chunks_mut(0)` below
    // would panic — the historical `b.cols() == 0` crash.
    if out.is_empty() || n == 0 {
        return;
    }
    let m = out.len() / n;
    let threads = threads.clamp(1, m);
    if threads == 1 {
        gemm_rows(a, b, out, 0);
        return;
    }
    let chunk_rows = m.div_ceil(threads);
    crossbeam::scope(|scope| {
        for (ci, out_chunk) in out.chunks_mut(chunk_rows * n).enumerate() {
            let row0 = ci * chunk_rows;
            scope.spawn(move |_| gemm_rows(a, b, out_chunk, row0));
        }
    })
    // panic-ok: propagating a worker panic, not originating one.
    .expect("matmul_parallel: worker thread panicked");
}

/// Blocked microkernel over output rows `row0..`: `out_rows` is a
/// contiguous slice of the product, `a` the whole of `A`.
///
/// Loop nest: [`NR`]-wide panels outer, `KC` blocks of the inner
/// dimension next, `MR`-row tiles inside, so each packed block is reused
/// for every row in the range. Padding lanes of the last panel accumulate
/// values that are never written back, keeping the tile branch-free.
fn gemm_rows<T: Element>(a: &[T], b: &PackedB<T>, out_rows: &mut [T], row0: usize) {
    let (k, n) = (b.k, b.n);
    if n == 0 || k == 0 {
        return;
    }
    let rows = out_rows.len() / n;
    for (j, panel) in b.panels.chunks_exact(k).enumerate() {
        let (jj, nr) = (j * NR, NR.min(n - j * NR));
        for kk in (0..k).step_by(KC) {
            let kc = KC.min(k - kk);
            // panic-ok: kk + kc <= k == panel.len().
            let block = &panel[kk..kk + kc];
            // panic-ok: in-bounds by gemm's precondition on A's rows.
            let a_row = |i: usize| &a[(row0 + i) * k + kk..(row0 + i) * k + kk + kc];
            let mut i = 0;
            while i + MR <= rows {
                let acc = T::tile::<MR>(std::array::from_fn(|r| a_row(i + r)), block);
                for (r, acc_r) in acc.iter().enumerate() {
                    add_into(out_rows, (i + r) * n + jj, nr, acc_r);
                }
                i += MR;
            }
            for i in i..rows {
                let [acc] = T::tile([a_row(i)], block);
                add_into(out_rows, i * n + jj, nr, &acc);
            }
        }
    }
}

/// `out[start..start + nr] += acc[..nr]`: one block sum written back.
#[inline(always)]
fn add_into<T: Element>(out: &mut [T], start: usize, nr: usize, acc: &[T; NR]) {
    // panic-ok: start + nr <= out.len() by the caller's loop bounds.
    for (o, &v) in out[start..start + nr].iter_mut().zip(acc) {
        *o += v;
    }
}

/// `Aᵀ · B` on the blocked kernel, bitwise-identical to
/// `matmul(&a.transpose(), b)`: see [`GemmScratch::matmul_at_b_into`].
///
/// # Panics
/// If `a.rows() != b.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    GemmScratch::default().matmul_at_b_into(a, b, &mut out);
    out
}

/// `A · Bᵀ` on the blocked kernel, bitwise-identical to
/// `matmul(a, &b.transpose())`: see [`GemmScratch::matmul_a_bt_into`].
///
/// # Panics
/// If `a.cols() != b.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    GemmScratch::default().matmul_a_bt_into(a, b, &mut out);
    out
}

/// Operand storage kept across products that write into caller buffers:
/// the packed `B` panels and, for `Aᵀ·B`, the transposed `A`. A caller
/// that multiplies many differently shaped operands in a loop (the
/// training tape in `cerl-nn`) keeps one and allocates nothing once its
/// buffers have grown to the largest shape.
///
/// Every `*_into` product zero-fills `out` and then runs the kernel
/// (`out += A·B`), so it writes exactly what the allocating form
/// returns, signed zeros included.
#[derive(Debug, Default)]
pub struct GemmScratch {
    packed: PackedB<f64>,
    a_t: Vec<f64>,
}

impl GemmScratch {
    /// `out = A · B`, bitwise-identical to [`matmul`].
    ///
    /// # Panics
    /// If `a.cols() != b.rows()` or `out` is not `a.rows()×b.cols()`.
    pub fn matmul_into(&mut self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // panic-ok: documented API precondition; shape mismatch is a caller bug.
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul: inner dimension mismatch {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        self.packed.pack_into(b);
        Self::run(a.as_slice(), &self.packed, out);
    }

    /// `out = Aᵀ · B`, bitwise-identical to `matmul(&a.transpose(), b)`.
    /// The kernel reads its left operand by rows, so `A` is transposed
    /// into the scratch (`O(rows·cols)` against the product's
    /// `O(rows·cols·b.cols())`); `B` is packed as it is.
    ///
    /// # Panics
    /// If `a.rows() != b.rows()` or `out` is not `a.cols()×b.cols()`.
    pub fn matmul_at_b_into(&mut self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // panic-ok: documented API precondition; shape mismatch is a caller bug.
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b: row mismatch {:?} vs {:?}",
            a.shape(),
            b.shape()
        );
        let (m, k) = (a.cols(), a.rows());
        self.a_t.clear();
        self.a_t.resize(m * k, 0.0);
        for (i, row) in a.iter_rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                // panic-ok: j < m and i < k, so j·k + i < m·k == a_t.len().
                self.a_t[j * k + i] = v;
            }
        }
        self.packed.pack_into(b);
        Self::run(&self.a_t, &self.packed, out);
    }

    /// `out = A · Bᵀ`, bitwise-identical to `matmul(a, &b.transpose())`.
    /// `Bᵀ` is packed straight from `B`'s rows, with no transposed copy.
    ///
    /// # Panics
    /// If `a.cols() != b.cols()` or `out` is not `a.rows()×b.rows()`.
    pub fn matmul_a_bt_into(&mut self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // panic-ok: documented API precondition; shape mismatch is a caller bug.
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_a_bt: column mismatch {:?} vs {:?}",
            a.shape(),
            b.shape()
        );
        self.packed.pack_transposed_into(b);
        Self::run(a.as_slice(), &self.packed, out);
    }

    /// Zero `out`, then `out += A·B` on the packed `B`.
    fn run(a: &[f64], b: &PackedB<f64>, out: &mut Matrix) {
        let m = a.len().checked_div(b.k).unwrap_or(out.rows());
        // panic-ok: documented API precondition; shape mismatch is a caller bug.
        assert_eq!(
            out.shape(),
            (m, b.n),
            "gemm: output buffer has the wrong shape"
        );
        out.fill_zero();
        gemm_auto(a, b, out.as_mut_slice());
    }
}

/// Matrix–vector product `A · x`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
    // Row indexing, not `iter_rows`: for an `m×0` matrix the chunking
    // iterator yields no rows at all, while the product is `m` zeros.
    (0..a.rows()).map(|i| dot(a.row(i), x)).collect()
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Tiny SplitMix64 stream; deterministic, no external deps in this crate.
        let mut state = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    /// Bitwise equality over raw f64 bits — distinguishes NaN payloads
    /// and `0.0` vs `-0.0`, which `==`-based comparison cannot.
    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo_random_matrix(7, 7, 1);
        let i = Matrix::identity(7);
        assert!(matmul(&a, &i).approx_eq(&a, 1e-12));
        assert!(matmul(&i, &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn serial_matches_naive() {
        let a = pseudo_random_matrix(13, 17, 2);
        let b = pseudo_random_matrix(17, 9, 3);
        assert!(matmul_serial(&a, &b).approx_eq(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn blocked_matches_naive_across_edge_shapes() {
        // Shapes straddling every blocking edge: sub-tile, exact-tile,
        // tile+1, and inner dimensions around the KC boundary.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (2 * MR + 3, 2 * KC + 5, 2 * NR + 3),
            (33, 300, 19),
        ] {
            let a = pseudo_random_matrix(m, k, (m * 31 + k) as u64);
            let b = pseudo_random_matrix(k, n, (k * 17 + n) as u64);
            let got = matmul_serial(&a, &b);
            let want = naive(&a, &b);
            assert!(
                got.approx_eq(&want, 1e-10),
                "mismatch at shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let a = pseudo_random_matrix(64, 96, 4);
        let b = pseudo_random_matrix(96, 48, 5);
        let s = matmul_serial(&a, &b);
        let p = matmul_parallel(&a, &b);
        assert!(bits_eq(&p, &s), "serial and parallel must agree bitwise");
    }

    #[test]
    fn parallel_handles_ragged_chunks() {
        // Row count not divisible by thread count exercises the tail chunk.
        let a = pseudo_random_matrix(37, 50, 6);
        let b = pseudo_random_matrix(50, 23, 7);
        assert!(bits_eq(&matmul_parallel(&a, &b), &matmul_serial(&a, &b)));
    }

    #[test]
    fn any_partition_is_bitwise_identical() {
        // The determinism contract: the row partition (thread count) must
        // not change a single bit of the product.
        let a = pseudo_random_matrix(41, 67, 20);
        let b = pseudo_random_matrix(67, 29, 21);
        let reference = matmul_serial(&a, &b);
        for threads in [1usize, 2, 3, 5, 8, 16, 41, 100] {
            let got = matmul_partitioned(&a, &b, threads);
            assert!(bits_eq(&got, &reference), "partition {threads} diverged");
        }
        // The transposed-operand entry points run the same kernel.
        assert!(bits_eq(&matmul_at_b(&a.transpose(), &b), &reference));
        assert!(bits_eq(&matmul_a_bt(&a, &b.transpose()), &reference));
    }

    #[test]
    fn nonfinite_inputs_agree_bitwise_across_kernels() {
        // Property test: sprinkle inf / -inf / NaN / -0.0 into both
        // operands; every kernel must produce bitwise-identical output
        // (no data-dependent skip may turn a NaN into a finite value).
        for case in 0..64u64 {
            let m = 1 + (case as usize % 7) * 3;
            let k = 1 + (case as usize / 7 % 5) * 29;
            let n = 1 + (case as usize / 35 % 4) * 5;
            let mut a = pseudo_random_matrix(m, k, 1000 + case);
            let mut b = pseudo_random_matrix(k, n, 2000 + case);
            let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0];
            let mut s = 0xDEADBEEFu64.wrapping_mul(case + 1);
            for _ in 0..(2 + case % 6) {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (s >> 33) as usize;
                let which = (s >> 29) as usize % specials.len();
                a.as_mut_slice()[idx % (m * k)] = specials[which];
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (s >> 33) as usize;
                b.as_mut_slice()[idx % (k * n)] = specials[which];
            }
            let serial = matmul_serial(&a, &b);
            assert!(
                bits_eq(&matmul(&a, &b), &serial),
                "auto vs serial diverged on non-finite case {case}"
            );
            for threads in [2usize, 3, 8] {
                assert!(
                    bits_eq(&matmul_partitioned(&a, &b, threads), &serial),
                    "partition {threads} vs serial diverged on non-finite case {case}"
                );
            }
            assert!(
                bits_eq(&matmul_at_b(&a.transpose(), &b), &serial),
                "Aᵀ·B vs serial diverged on non-finite case {case}"
            );
            assert!(
                bits_eq(&matmul_a_bt(&a, &b.transpose()), &serial),
                "A·Bᵀ vs serial diverged on non-finite case {case}"
            );
            // A 0·∞ product must surface as NaN, never be skipped away.
            if a.as_slice().iter().any(|v| v.is_nan() || v.is_infinite())
                || b.as_slice().iter().any(|v| v.is_nan() || v.is_infinite())
            {
                // (Presence of NaN in the output depends on placement;
                // the bitwise agreement above is the actual contract.)
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan_not_skipped() {
        // a row contains an explicit 0.0 meeting an inf in B: the
        // historical `av == 0.0` skip silently produced 0.0 here.
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![f64::INFINITY], vec![2.0]]);
        for out in [
            matmul(&a, &b),
            matmul_serial(&a, &b),
            matmul_partitioned(&a, &b, 2),
        ] {
            assert!(out[(0, 0)].is_nan(), "0·∞ must propagate NaN, got {out:?}");
        }
        // Same hazard in Aᵀ·B.
        let at = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let c = matmul_at_b(&at, &b);
        assert!(c[(0, 0)].is_nan(), "Aᵀ·B must propagate NaN, got {c:?}");
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = pseudo_random_matrix(19, 6, 8);
        let b = pseudo_random_matrix(19, 11, 9);
        let expect = naive(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).approx_eq(&expect, 1e-10));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = pseudo_random_matrix(12, 10, 10);
        let b = pseudo_random_matrix(15, 10, 11);
        let expect = naive(&a, &b.transpose());
        assert!(matmul_a_bt(&a, &b).approx_eq(&expect, 1e-10));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = pseudo_random_matrix(9, 14, 12);
        let x: Vec<f64> = (0..14).map(|i| i as f64 * 0.25 - 1.0).collect();
        let via_mm = matmul(&a, &Matrix::col_vector(&x));
        let v = matvec(&a, &x);
        for (i, &vi) in v.iter().enumerate() {
            assert!((vi - via_mm[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn worker_threads_is_cached_and_sane() {
        let first = worker_threads();
        assert!((1..=8).contains(&first));
        // Cached: repeated calls return the same value without re-querying.
        for _ in 0..1000 {
            assert_eq!(worker_threads(), first);
        }
    }

    #[test]
    fn zero_dimensions_across_all_variants() {
        // m == 0, k == 0, n == 0 for every entry point — including the
        // parallel kernel, whose `chunks_mut(chunk_rows * n)` historically
        // panicked when `n == 0`.
        let cases = [(0usize, 5usize, 3usize), (4, 0, 3), (4, 5, 0), (0, 0, 0)];
        for &(m, k, n) in &cases {
            let a = pseudo_random_matrix(m, k, 40);
            let b = pseudo_random_matrix(k, n, 41);
            for c in [
                matmul(&a, &b),
                matmul_serial(&a, &b),
                matmul_parallel(&a, &b),
                matmul_partitioned(&a, &b, 4),
            ] {
                assert_eq!(c.shape(), (m, n), "shape ({m},{k},{n})");
                assert!(c.as_slice().iter().all(|&v| v == 0.0));
            }
            // Aᵀ·B with zero dims: a is (obs, m'), b is (obs, n').
            let at = pseudo_random_matrix(k, m, 42);
            let bt = pseudo_random_matrix(k, n, 43);
            let c = matmul_at_b(&at, &bt);
            assert_eq!(c.shape(), (m, n));
            // A·Bᵀ with zero dims: a is (m', k'), b is (n', k').
            let aa = pseudo_random_matrix(m, k, 44);
            let bb = pseudo_random_matrix(n, k, 45);
            let c = matmul_a_bt(&aa, &bb);
            assert_eq!(c.shape(), (m, n));
        }
        // The literal historical panic: many rows, zero output columns,
        // via the public parallel entry point.
        let a = pseudo_random_matrix(64, 8, 46);
        let b = pseudo_random_matrix(8, 0, 47);
        let c = matmul_parallel(&a, &b);
        assert_eq!(c.shape(), (64, 0));
    }

    /// The blocked kernel's reason to exist: at 256³ the serial kernel is
    /// at least 2x a naive triple loop under the same FMA contract, and
    /// naive, serial, parallel and dispatched products agree bitwise. The
    /// naive comparison is bitwise-valid because the inner dimension fits
    /// one `KC` block, so every kernel sums the same terms in ascending
    /// order from a fresh accumulator. Timings mean nothing unoptimized,
    /// so the test runs in release builds only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn blocked_kernel_is_2x_naive_and_bitwise_equal_at_256_cubed() {
        use std::time::{Duration, Instant};

        let dim = 256;
        assert!(dim <= KC, "the bitwise check needs K within one KC block");
        let a = pseudo_random_matrix(dim, dim, 50);
        let b = pseudo_random_matrix(dim, dim, 51);
        let naive_fma = || {
            let (asl, bsl) = (a.as_slice(), b.as_slice());
            Matrix::from_fn(dim, dim, |i, j| {
                (0..dim).fold(0.0, |acc, p| asl[i * dim + p].fma(bsl[p * dim + j], acc))
            })
        };
        // Best of five after a warm-up: the floor compares kernels, not
        // whatever else the machine runs at the same time.
        let best = |f: &dyn Fn() -> Matrix| -> (Matrix, Duration) {
            let out = f();
            let fastest = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed()
                })
                .min()
                .expect("five timed runs");
            (out, fastest)
        };
        let (c_naive, t_naive) = best(&naive_fma);
        let (c_serial, t_serial) = best(&|| matmul_serial(&a, &b));
        let speedup = t_naive.as_secs_f64() / t_serial.as_secs_f64().max(1e-9);
        assert!(
            speedup >= 2.0,
            "blocked kernel only x{speedup:.2} over naive ({t_serial:?} vs {t_naive:?})"
        );
        assert!(bits_eq(&c_naive, &c_serial), "naive vs serial");
        assert!(
            bits_eq(&matmul_parallel(&a, &b), &c_serial),
            "parallel vs serial"
        );
        assert!(bits_eq(&matmul(&a, &b), &c_serial), "dispatch vs serial");
    }

    #[test]
    fn prepacked_gemm_matches_matmul_on_reuse() {
        // One packed B, reused across calls and row counts, writes exactly
        // what matmul returns.
        for &(m, k, n) in &[(1, 3, 1), (7, 2 * KC + 5, 2 * NR + 3), (MR * 3 + 2, 40, NR)] {
            let b = pseudo_random_matrix(k, n, (k + n) as u64);
            let packed = PackedB::pack(&b);
            for rows in [m, m + 1] {
                let a = pseudo_random_matrix(rows, k, (rows * k + n) as u64);
                let mut out = vec![0.0; rows * n];
                gemm(a.as_slice(), &packed, &mut out);
                let got = Matrix::from_vec(rows, n, out);
                assert!(bits_eq(&got, &matmul(&a, &b)), "({rows},{k},{n})");
            }
        }
    }

    #[test]
    fn kernel_dot_matches_one_column_product() {
        for k in [0, 1, 7, KC, KC + 1, 2 * KC + 3] {
            let a = pseudo_random_matrix(1, k, 60 + k as u64);
            let b = pseudo_random_matrix(k, 1, 61 + k as u64);
            let dot = kernel_dot(a.as_slice(), b.as_slice());
            assert_eq!(dot.to_bits(), matmul(&a, &b)[(0, 0)].to_bits(), "k = {k}");
        }
    }

    #[test]
    fn f32_gemm_matches_a_scalar_fma_loop() {
        // Single KC block: the kernel's order is one ascending fma chain.
        let (m, k, n) = (9, 37, 21);
        let a64 = pseudo_random_matrix(m, k, 70);
        let b = pseudo_random_matrix(k, n, 71);
        let a: Vec<f32> = a64.as_slice().iter().map(|&v| v as f32).collect();
        let mut out = vec![0.0f32; m * n];
        gemm(&a, &PackedB::<f32>::pack(&b), &mut out);
        for i in 0..m {
            for j in 0..n {
                let want = (0..k).fold(0.0f32, |acc, p| a[i * k + p].fma(b[(p, j)] as f32, acc));
                assert_eq!(out[i * n + j].to_bits(), (0.0f32 + want).to_bits());
            }
        }
    }

    /// The AVX-512 tile is an instruction-level rewrite of the portable
    /// one: the same fused multiply-add per term in the same order, so
    /// every bit agrees, specials included.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "fma"
    ))]
    #[test]
    fn avx512_tile_matches_portable_tile_bitwise() {
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0, 1e300];
        for case in 0..48u64 {
            let kc = 1 + (case as usize * 37) % KC;
            let a = pseudo_random_matrix(MR, kc, 80 + case);
            let mut b = pseudo_random_matrix(kc, NR, 90 + case);
            if case % 3 == 0 {
                b.as_mut_slice()[(case as usize * 13) % (kc * NR)] =
                    specials[case as usize % specials.len()];
            }
            let packed = PackedB::<f64>::pack(&b);
            let block = &packed.panels[..kc];
            let rows: [&[f64]; MR] = std::array::from_fn(|r| a.row(r));
            let bits =
                |t: &[[f64; NR]]| t.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&f64::tile(rows, block)),
                bits(&portable_tile(rows, block)),
                "case {case}"
            );
            let one = [rows[1]];
            assert_eq!(
                bits(&f64::tile(one, block)),
                bits(&portable_tile(one, block)),
                "case {case}, one row"
            );
        }
    }

    #[test]
    fn matvec_zero_dims() {
        let a = Matrix::zeros(0, 4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!(matvec(&a, &x).is_empty());
        let a = Matrix::zeros(3, 0);
        assert_eq!(matvec(&a, &[]), vec![0.0; 3]);
    }
}
