//! Row-major dense matrix.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// Sized for the workloads in this repository: predicate feature matrices
/// (thousands of rows × tens of columns) and neural-network weight matrices
/// (at most a few hundred per side). All operations are straightforward
/// triple loops; the inner loops are written so LLVM can vectorize them.
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl crate::bulk::Bulk for Matrix {
    fn runs(&mut self, v: &mut dyn crate::bulk::Runs) {
        // An overflowing shape saturates, and so can match no run.
        v.f64s(&mut self.data, Some(self.rows.saturating_mul(self.cols)));
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
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

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major backing storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Extract column `c` as an owned vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self · rhs`, via the blocked kernel in [`crate::gemm`].
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        crate::gemm::matmul_into(&mut out, self, rhs);
        out
    }

    /// Matrix product `self · rhs` written into `out`, reusing its buffer.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::gemm::matmul_into(out, self, rhs);
    }

    /// Fused product `selfᵀ · rhs`; no transpose is materialized.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        crate::gemm::matmul_transpose_a_into(&mut out, self, rhs);
        out
    }

    /// Fused product `selfᵀ · rhs` written into `out`, reusing its buffer.
    pub fn matmul_transpose_a_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::gemm::matmul_transpose_a_into(out, self, rhs);
    }

    /// Fused product `self · rhsᵀ`; no transpose is materialized.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        crate::gemm::matmul_transpose_b_into(&mut out, self, rhs);
        out
    }

    /// Fused product `self · rhsᵀ` written into `out`, reusing its buffer.
    pub fn matmul_transpose_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        crate::gemm::matmul_transpose_b_into(out, self, rhs);
    }

    /// Reshapes to `rows × cols`, growing the buffer only if the new shape
    /// needs more capacity than any previous one. Contents are unspecified
    /// afterwards; kernels that accumulate must zero via [`Self::fill_zero`].
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `other`'s shape and contents into `self`, reusing the buffer.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Fills `self` with the given rows of `src` (a row gather), reusing the
    /// buffer.
    pub fn gather_rows(&mut self, src: &Matrix, rows: &[usize]) {
        self.ensure_shape(rows.len(), src.cols());
        for (dst_r, &src_r) in rows.iter().enumerate() {
            let start = dst_r * self.cols;
            self.data[start..start + self.cols].copy_from_slice(src.row(src_r));
        }
    }

    /// Matrix–vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// Applies `f` elementwise, in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `alpha * other` into `self`, in place (BLAS `axpy`).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `s`, in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fills the matrix with zeros without reallocating.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// True if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix (useful as an output buffer for the `_into`
    /// kernels, which reshape it on first use).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.5, -2.0, 0.25, 3.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 4.0, 0.5]);
        let v = vec![3.0, -2.0, 1.0];
        let got = a.matvec(&v);
        assert_eq!(got, vec![2.0, -1.5]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0, 18.0]);
        a.scale_inplace(2.0);
        assert_eq!(a.data(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn from_rows_and_col() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_sub_operators() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        assert_eq!((&a + &b).data(), &[1.5, 2.5]);
        assert_eq!((&a - &b).data(), &[0.5, 1.5]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
    }
}
