//! Vector norms and pairwise distance kernels.
//!
//! The Sinkhorn/Wasserstein IPM (`cerl-ot`) consumes the pairwise squared
//! Euclidean distance matrix between treated and control representation
//! batches; herding (`cerl-core`) uses Euclidean distances to group means.

use crate::matmul::dot;
use crate::matrix::Matrix;

/// L1 norm of a slice.
pub fn l1_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// L2 (Euclidean) norm of a slice.
pub fn l2_norm(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// Cosine similarity of two slices (0 when either vector is all-zero).
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Pairwise squared Euclidean distances: rows of `a` vs rows of `b`.
///
/// Output is `a.rows() × b.rows()`. Uses the expansion
/// `‖x−y‖² = ‖x‖² + ‖y‖² − 2⟨x,y⟩` with a clamp at zero to suppress
/// negative round-off.
pub fn pairwise_sq_dists(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "pairwise_sq_dists: feature mismatch {} vs {}",
        a.cols(),
        b.cols()
    );
    let a_sq: Vec<f64> = a.iter_rows().map(|r| dot(r, r)).collect();
    let b_sq: Vec<f64> = b.iter_rows().map(|r| dot(r, r)).collect();
    let mut d = crate::matmul::matmul_a_bt(a, b);
    for (i, row) in (0..a.rows()).zip(d.as_mut_slice().chunks_exact_mut(b.rows().max(1))) {
        for (cross, &bj) in row.iter_mut().zip(&b_sq) {
            *cross = (a_sq[i] + bj - 2.0 * *cross).max(0.0);
        }
    }
    d
}

/// Normalize each row of `m` to unit L2 norm; all-zero rows are left as-is.
pub fn l2_normalize_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let n = l2_norm(out.row(i));
        if n > 0.0 {
            for v in out.row_mut(i) {
                *v /= n;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(l1_norm(&[1.0, -2.0, 3.0]), 6.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(squared_distance(&a, &b), 25.0);
        assert_eq!(euclidean_distance(&a, &b), 5.0);
        assert_eq!(euclidean_distance(&b, &b), 0.0);
    }

    #[test]
    fn cosine() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-15);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-15);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-15);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn pairwise_matches_direct() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![-2.0, 0.5]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![1.0, 1.0]]);
        let d = pairwise_sq_dists(&a, &b);
        assert_eq!(d.shape(), (3, 2));
        for i in 0..3 {
            for j in 0..2 {
                let direct = squared_distance(a.row(i), b.row(j));
                assert!((d[(i, j)] - direct).abs() < 1e-12);
            }
        }
        // Self-distance is exactly zero after clamping.
        assert_eq!(d[(1, 1)], 0.0);
    }

    #[test]
    fn pairwise_nonnegative_under_roundoff() {
        // Nearly identical large-magnitude rows can produce tiny negative
        // values in the expansion; the clamp must remove them.
        let a = Matrix::from_rows(&[vec![1e8, 1e8]]);
        let b = Matrix::from_rows(&[vec![1e8, 1e8 + 1e-4]]);
        let d = pairwise_sq_dists(&a, &b);
        assert!(d[(0, 0)] >= 0.0);
    }

    #[test]
    fn row_normalization() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        let n = l2_normalize_rows(&m);
        assert!((l2_norm(n.row(0)) - 1.0).abs() < 1e-15);
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }
}
