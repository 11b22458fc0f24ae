//! Matrix multiplication kernels.
//!
//! The workloads in this workspace are dominated by moderately sized GEMMs
//! (hundreds of rows, hundreds to a few thousand columns). The product
//! kernel is a cache-blocked microkernel: `B` is packed into contiguous
//! `KC`×`NR` column panels, and an `MR`×`NR` register tile of
//! accumulators walks the packed panel with a branch-free inner loop that
//! LLVM autovectorizes. The parallel path partitions output rows across
//! `crossbeam::scope` workers over the *same* kernel, and kicks in only
//! above a FLOP threshold so small multiplies stay allocation- and
//! thread-free.
//!
//! # Determinism contract
//!
//! For one element `c[i][j]`, the accumulation order is fixed entirely by
//! the `KC`/`NR` blocking constants: within each `KC` block of the inner
//! dimension, terms are added in ascending `p` from a fresh accumulator,
//! and block sums are added to the output in ascending block order. That
//! order does not depend on how output rows are grouped into `MR` tiles
//! or partitioned across threads, so [`matmul`], [`matmul_serial`] and
//! [`matmul_parallel`] return **bitwise-identical** results for any thread
//! count and any row partition — on finite *and* non-finite inputs (there
//! are no data-dependent skips: a `0.0 × ∞` contributes the same `NaN` in
//! every kernel). [`matmul_at_b`] and [`matmul_a_bt`] run the same kernel
//! on a transposed copy of one operand, so they are bound by the same
//! contract.

use crate::matrix::Matrix;
use std::sync::OnceLock;

/// FLOP count (2·m·k·n) above which [`matmul`] switches to the parallel kernel.
const PARALLEL_FLOP_THRESHOLD: usize = 8_000_000;

/// Inner-dimension block: the packed `B` panel holds `KC`×[`NR`] values
/// (16 KiB) so it lives in L1 while a whole row range streams past it.
/// Part of the determinism contract — changing it changes rounding.
const KC: usize = 256;

/// Register-tile width (columns of `C` per accumulator row). Eight `f64`
/// lanes give the autovectorizer two 4-wide AVX2 vectors per row.
const NR: usize = 8;

/// Register-tile height (rows of `C` per microkernel pass). Each packed
/// `B` load is reused `MR` times; 4×[`NR`] accumulators fit the vector
/// register file. Row grouping does *not* affect rounding (see module
/// docs), so `MR` is a pure performance knob.
const MR: usize = 4;

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
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimension mismatch {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let flops = 2 * a.rows() * a.cols() * b.cols();
    if flops >= PARALLEL_FLOP_THRESHOLD && worker_threads() > 1 && a.rows() > 1 {
        matmul_parallel(a, b)
    } else {
        matmul_serial(a, b)
    }
}

/// Single-threaded product over the blocked microkernel.
pub fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_serial: inner dimension mismatch"
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    gemm_rows(a.as_slice(), k, b.as_slice(), n, out.as_mut_slice(), 0);
    out
}

/// Parallel product: partitions output rows across scoped threads, each
/// running the same blocked microkernel over its contiguous row range.
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
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    // Zero-width output: nothing to compute, and `chunks_mut(0)` below
    // would panic — the historical `b.cols() == 0` crash.
    if m == 0 || n == 0 {
        return out;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 {
        gemm_rows(a.as_slice(), k, b.as_slice(), n, out.as_mut_slice(), 0);
        return out;
    }
    let bs = b.as_slice();
    let as_ = a.as_slice();

    // Partition output rows into contiguous chunks, one per worker. The
    // kernel's rounding does not depend on the partition (module docs).
    let chunk_rows = m.div_ceil(threads);
    let out_slice = out.as_mut_slice();
    crossbeam::scope(|scope| {
        for (ci, out_chunk) in out_slice.chunks_mut(chunk_rows * n).enumerate() {
            let row0 = ci * chunk_rows;
            scope.spawn(move |_| gemm_rows(as_, k, bs, n, out_chunk, row0));
        }
    })
    // panic-ok: propagating a worker panic, not originating one.
    .expect("matmul_parallel: worker thread panicked");
    out
}

/// Blocked microkernel: compute `out_rows` (rows `row0..` of `A·B`, a
/// contiguous `rows×n` slice) given row-major `A` (`as_`, width `k`) and
/// `B` (`bs`, width `n`).
///
/// Loop nest: `jj` over [`NR`]-wide column panels, `kk` over [`KC`]
/// blocks of the inner dimension. Each `B` panel is packed once into a
/// contiguous zero-padded buffer and reused for every row in the range;
/// an [`MR`]×[`NR`] accumulator tile walks it with a branch-free
/// multiply-add loop. Edge panels are zero-padded: the padding lanes
/// accumulate garbage that is never written back, keeping the hot loop
/// free of per-lane branches.
fn gemm_rows(as_: &[f64], k: usize, bs: &[f64], n: usize, out_rows: &mut [f64], row0: usize) {
    if n == 0 {
        return;
    }
    let rows = out_rows.len() / n;
    // Packed B panel: KC×NR, zero-padded on both edges. 16 KiB of stack.
    let mut bp = [0.0f64; KC * NR];
    let mut jj = 0;
    while jj < n {
        let nr = NR.min(n - jj);
        let mut kk = 0;
        while kk < k {
            let kc = KC.min(k - kk);
            pack_b_panel(bs, n, kk, kc, jj, nr, &mut bp);

            let mut i = 0;
            while i + MR <= rows {
                let a_rows: [&[f64]; MR] = std::array::from_fn(|r| {
                    // panic-ok: row ranges in-bounds — (row0+i+MR-1)*k+kk+kc <= as_.len() by loop bounds.
                    &as_[(row0 + i + r) * k + kk..(row0 + i + r) * k + kk + kc]
                });
                let mut acc = [[0.0f64; NR]; MR];
                for (p, bpp) in bp.chunks_exact(NR).take(kc).enumerate() {
                    for r in 0..MR {
                        // panic-ok: p < kc == a_rows[r].len(); r < MR; const-bounded tiles.
                        let av = a_rows[r][p];
                        for t in 0..NR {
                            // panic-ok: r < MR, t < NR — const-bounded accumulator tile.
                            acc[r][t] = fma(av, bpp[t], acc[r][t]);
                        }
                    }
                }
                for r in 0..MR {
                    // panic-ok: output row slice in-bounds — (i+r)*n+jj+nr <= out_rows.len() by loop bounds.
                    let orow = &mut out_rows[(i + r) * n + jj..(i + r) * n + jj + nr];
                    // panic-ok: r < MR — const-bounded accumulator tile.
                    for (o, &v) in orow.iter_mut().zip(acc[r].iter()) {
                        *o += v;
                    }
                }
                i += MR;
            }
            while i < rows {
                // panic-ok: row range in-bounds — (row0+i)*k+kk+kc <= as_.len() by loop bounds.
                let arow = &as_[(row0 + i) * k + kk..(row0 + i) * k + kk + kc];
                let mut acc = [0.0f64; NR];
                for (&av, bpp) in arow.iter().zip(bp.chunks_exact(NR)) {
                    for t in 0..NR {
                        // panic-ok: t < NR — const-bounded accumulator tile.
                        acc[t] = fma(av, bpp[t], acc[t]);
                    }
                }
                // panic-ok: output row slice in-bounds — i*n+jj+nr <= out_rows.len() by loop bounds.
                let orow = &mut out_rows[i * n + jj..i * n + jj + nr];
                for (o, &v) in orow.iter_mut().zip(acc.iter()) {
                    *o += v;
                }
                i += 1;
            }
            kk += KC;
        }
        jj += NR;
    }
}

/// Fused multiply-add `a·b + c` when the target has hardware FMA, plain
/// multiply-add otherwise.
///
/// Compile-time selection: with the `fma` target feature, `mul_add`
/// lowers to one `vfmadd` instruction (one rounding, twice the FLOP
/// density); without it, `mul_add` would fall back to a libm call per
/// element, so the separate multiply-and-add is kept. Every product
/// kernel goes through this one helper, so serial/parallel/auto stay
/// bitwise-identical *within* a build whichever way the cfg resolves.
#[inline(always)]
fn fma(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Pack `B[kk..kk+kc, jj..jj+nr]` into `bp` as `kc` contiguous rows of
/// [`NR`], zero-padding columns `nr..NR` so the microkernel never
/// branches on the panel edge.
#[inline]
fn pack_b_panel(bs: &[f64], n: usize, kk: usize, kc: usize, jj: usize, nr: usize, bp: &mut [f64]) {
    for (p, dst) in bp.chunks_exact_mut(NR).take(kc).enumerate() {
        // panic-ok: source row slice in-bounds — (kk+p)*n+jj+nr <= bs.len() by caller's loop bounds.
        let src = &bs[(kk + p) * n + jj..(kk + p) * n + jj + nr];
        // panic-ok: nr <= NR == dst.len() by construction.
        dst[..nr].copy_from_slice(src);
        for d in dst.iter_mut().skip(nr) {
            *d = 0.0;
        }
    }
}

/// `Aᵀ · B` on the blocked kernel.
///
/// Transposes `A` into a scratch copy and hands it to [`matmul`], so the
/// result is bitwise-identical to `matmul(&a.transpose(), b)` and carries
/// the module's determinism contract. The copy costs `O(rows·cols)`
/// against the product's `O(rows·cols·b.cols())`.
///
/// # Panics
/// If `a.rows() != b.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at_b: row mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    matmul(&a.transpose(), b)
}

/// `A · Bᵀ` on the blocked kernel.
///
/// Transposes `B` into a scratch copy and hands it to [`matmul`], so the
/// result is bitwise-identical to `matmul(a, &b.transpose())` and carries
/// the module's determinism contract. The copy costs `O(rows·cols)`
/// against the product's `O(a.rows()·rows·cols)`.
///
/// # Panics
/// If `a.cols() != b.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    // panic-ok: documented API precondition; shape mismatch is a caller bug.
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_a_bt: column mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    matmul(a, &b.transpose())
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
                (0..dim).fold(0.0, |acc, p| fma(asl[i * dim + p], bsl[p * dim + j], acc))
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
    fn matvec_zero_dims() {
        let a = Matrix::zeros(0, 4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!(matvec(&a, &x).is_empty());
        let a = Matrix::zeros(3, 0);
        assert_eq!(matvec(&a, &[]), vec![0.0; 3]);
    }
}
