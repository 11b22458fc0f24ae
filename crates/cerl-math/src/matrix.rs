//! Dense row-major `f64` matrix.
//!
//! Units (observations) are rows throughout the workspace; features are
//! columns. The type is deliberately small: it owns a `Vec<f64>` and exposes
//! the operations the rest of the workspace needs, without attempting to be
//! a general-purpose linear-algebra library.
//!
//! Dimension mismatches are programmer errors and panic with a descriptive
//! message; numerically fallible routines (e.g. Cholesky) live in
//! [`crate::decomp`] and return `Result`.

use std::fmt;
use std::ops::{Index, IndexMut};

mod serde_impl;

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Create a matrix where every entry is `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from nested row slices.
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {}, expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build with a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// A single-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// A single-column matrix from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Self {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying row-major vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(
            i < self.rows,
            "row index {i} out of bounds ({} rows)",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(
            i < self.rows,
            "row index {i} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col index {j} out of bounds ({} cols)",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Apply `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two equally shaped matrices.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        self.assert_same_shape(other, "zip_map");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// `self * s` elementwise.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|v| v * s)
    }

    /// `self += other` in place.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += s * other` in place (axpy).
    pub fn axpy(&mut self, s: f64, other: &Self) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// `self *= s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Set all entries to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all entries (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Column means as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        if self.rows == 0 {
            return out;
        }
        for row in self.iter_rows() {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        let n = self.rows as f64;
        out.iter_mut().for_each(|v| *v /= n);
        out
    }

    /// Column sample standard deviations (denominator `n - 1`; 0 if fewer than 2 rows).
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut out = vec![0.0; self.cols];
        if self.rows < 2 {
            return out;
        }
        for row in self.iter_rows() {
            for ((o, &v), &m) in out.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *o += d * d;
            }
        }
        let n = (self.rows - 1) as f64;
        out.iter_mut().for_each(|v| *v = (*v / n).sqrt());
        out
    }

    /// Mean of each row, as a vector of length `rows`.
    pub fn row_means(&self) -> Vec<f64> {
        self.iter_rows()
            .map(|r| {
                if r.is_empty() {
                    0.0
                } else {
                    r.iter().sum::<f64>() / r.len() as f64
                }
            })
            .collect()
    }

    /// New matrix containing the given rows, in order (rows may repeat).
    ///
    /// # Panics
    /// If any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(
                i < self.rows,
                "select_rows: index {i} out of bounds ({} rows)",
                self.rows
            );
            data.extend_from_slice(self.row(i));
        }
        Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Contiguous row range `[start, end)` as a new matrix — a single
    /// memcpy for row-major data, unlike the gather in
    /// [`Matrix::select_rows`].
    ///
    /// # Panics
    /// If `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: invalid range {start}..{end} ({} rows)",
            self.rows
        );
        Self {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Stack `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Self) -> Self {
        if self.rows == 0 {
            return other.clone();
        }
        if other.rows == 0 {
            return self.clone();
        }
        assert_eq!(
            self.cols, other.cols,
            "vstack: column mismatch {} vs {}",
            self.cols, other.cols
        );
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Concatenate columns of `self` and `other` (row counts must match).
    pub fn hstack(&self, other: &Self) -> Self {
        if self.cols == 0 {
            return other.clone();
        }
        if other.cols == 0 {
            return self.clone();
        }
        assert_eq!(
            self.rows, other.rows,
            "hstack: row mismatch {} vs {}",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Self {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute elementwise difference to `other`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// True when all entries agree within `tol` absolutely.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    #[inline]
    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds {:?}",
            self.shape()
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds {:?}",
            self.shape()
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.iter_rows().take(max_rows).enumerate() {
            write!(f, "  [{i}] ")?;
            let max_cols = 10;
            for &v in row.iter().take(max_cols) {
                write!(f, "{v:>10.4} ")?;
            }
            if row.len() > max_cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let o = Matrix::ones(3, 2);
        assert_eq!(o.sum(), 6.0);

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_and_row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn arithmetic() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b), Matrix::filled(2, 2, 5.0));
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);

        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.as_slice(), &[3.0, 3.5, 4.0, 4.5]);
    }

    #[test]
    fn col_stats() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]);
        assert_eq!(m.col_means(), vec![3.0, 30.0]);
        let stds = m.col_stds();
        assert!((stds[0] - 2.0).abs() < 1e-12);
        assert!((stds[1] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn select_rows_and_stacks() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);

        let v = m.vstack(&s);
        assert_eq!(v.shape(), (6, 2));
        assert_eq!(v.row(3), &[5.0, 6.0]);

        let h = m.hstack(&m);
        assert_eq!(h.shape(), (3, 4));
        assert_eq!(h.row(1), &[3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_stacks() {
        let e = Matrix::zeros(0, 2);
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert_eq!(e.vstack(&m), m);
        assert_eq!(m.vstack(&e), m);
    }

    #[test]
    fn norms_and_diffs() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.5]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-15);
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.4));
    }

    #[test]
    fn finite_checks() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.all_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn map_and_zip() {
        let m = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        assert_eq!(m.map(f64::abs).as_slice(), &[1.0, 2.0, 3.0]);
        let mut n = m.clone();
        n.map_inplace(|v| v * v);
        assert_eq!(n.as_slice(), &[1.0, 4.0, 9.0]);
    }
}
