//! Principal component analysis.
//!
//! Warper uses PCA twice (paper §2 and §3.1):
//! 1. to visualize workload drift by projecting `2d`-dimensional predicate
//!    vectors onto the two highest-variance directions (Figures 1, 5, 7);
//! 2. inside the δ_js workload-drift metric, which projects predicates to
//!    `k` dimensions before quantizing and histogramming.
//!
//! The paper computes eigenvectors "by running SVD over all predicates"; an
//! eigendecomposition of the covariance matrix is mathematically equivalent
//! and is what we do here (the feature dimension is small).

use crate::eigen::symmetric_eigen;
use crate::matrix::{dot, Matrix};

/// A fitted PCA transform.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature mean of the training data, subtracted before projection.
    mean: Vec<f64>,
    /// `k × d` matrix; row `i` is the i-th principal axis.
    components: Matrix,
    /// Variance explained by each retained component, descending.
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits a PCA with `k` components on `data` (rows are observations).
    ///
    /// `k` is clamped to the number of features. Returns `None` when `data`
    /// has no rows or no columns (there is nothing to fit).
    pub fn fit(data: &Matrix, k: usize) -> Option<Pca> {
        let n = data.rows();
        let d = data.cols();
        if n == 0 || d == 0 {
            return None;
        }
        let k = k.min(d);

        let mut mean = vec![0.0; d];
        for r in 0..n {
            let row = data.row(r);
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }

        // Covariance matrix (biased, 1/n; the normalization constant does not
        // affect the eigenvectors and 1/n is well-defined even for n == 1).
        // Computed as XᶜᵀXᶜ through the fused-transpose GEMM so the n×d pass
        // runs on the blocked (and, for large inputs, multithreaded) kernel.
        let centered = Self::center(data, &mean);
        let mut cov = centered.matmul_transpose_a(&centered);
        cov.scale_inplace(1.0 / n as f64);

        let eig = symmetric_eigen(&cov);
        let mut components = Matrix::zeros(k, d);
        let mut explained = Vec::with_capacity(k);
        for i in 0..k {
            let v = eig.vector(i);
            for j in 0..d {
                components.set(i, j, v[j]);
            }
            explained.push(eig.values[i].max(0.0));
        }
        Some(Pca {
            mean,
            components,
            explained_variance: explained,
        })
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    /// Variance explained by each retained component (descending).
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Projects a single observation to the component space.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the fitted feature dimension.
    pub fn transform_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "PCA input dimension mismatch");
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(v, m)| v - m).collect();
        (0..self.k())
            .map(|i| dot(self.components.row(i), &centered))
            .collect()
    }

    /// Projects every row of `data`; returns an `n × k` matrix.
    ///
    /// One centered-matrix pass plus a single `Xᶜ·Cᵀ` GEMM; bit-identical to
    /// calling [`Pca::transform_one`] per row (the fused kernel's dot
    /// products accumulate the same terms in the same order).
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.mean.len(), "PCA input dimension mismatch");
        let centered = Self::center(data, &self.mean);
        centered.matmul_transpose_b(&self.components)
    }

    /// `data` with `mean` subtracted from every row.
    fn center(data: &Matrix, mean: &[f64]) -> Matrix {
        let mut centered = Matrix::zeros(data.rows(), data.cols());
        for r in 0..data.rows() {
            let row = data.row(r);
            let crow = centered.row_mut(r);
            for (c, (v, m)) in crow.iter_mut().zip(row.iter().zip(mean)) {
                *c = v - m;
            }
        }
        centered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_empty_returns_none() {
        assert!(Pca::fit(&Matrix::zeros(0, 3), 2).is_none());
        assert!(Pca::fit(&Matrix::zeros(3, 0), 2).is_none());
    }

    #[test]
    fn k_clamped_to_dimension() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let pca = Pca::fit(&data, 10).unwrap();
        assert_eq!(pca.k(), 2);
    }

    #[test]
    fn first_component_captures_dominant_direction() {
        // Points spread along the line y = x: first axis ≈ (1,1)/√2.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                vec![t, t + if i % 2 == 0 { 0.01 } else { -0.01 }]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit(&data, 2).unwrap();
        let c0 = pca.components.row(0);
        let ratio = (c0[0] / c0[1]).abs();
        assert!((ratio - 1.0).abs() < 0.01, "axis was {c0:?}");
        // Nearly all variance lives on the first component.
        let ev = pca.explained_variance();
        assert!(ev[0] > 100.0 * ev[1]);
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_rows(&[vec![1.0, 0.0], vec![3.0, 0.0], vec![5.0, 0.0]]);
        let pca = Pca::fit(&data, 1).unwrap();
        // The mean point projects to the origin.
        let z = pca.transform_one(&[3.0, 0.0]);
        assert!(z[0].abs() < 1e-9);
        // Symmetric points project symmetrically.
        let a = pca.transform_one(&[1.0, 0.0])[0];
        let b = pca.transform_one(&[5.0, 0.0])[0];
        assert!((a + b).abs() < 1e-9);
    }

    #[test]
    fn transform_matrix_matches_transform_one() {
        let data = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 6.0, 5.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let pca = Pca::fit(&data, 2).unwrap();
        let all = pca.transform(&data);
        for r in 0..3 {
            let one = pca.transform_one(data.row(r));
            assert_eq!(all.row(r), &one[..]);
        }
    }

    #[test]
    fn projection_preserves_pairwise_variance_for_full_rank() {
        // With k = d the projection is a rotation: total variance preserved.
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 3.0],
        ]);
        let pca = Pca::fit(&data, 2).unwrap();
        let z = pca.transform(&data);
        let var = |m: &Matrix, c: usize| {
            let col = m.col(c);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / col.len() as f64
        };
        let orig = var(&data, 0) + var(&data, 1);
        let proj = var(&z, 0) + var(&z, 1);
        assert!((orig - proj).abs() < 1e-9);
    }
}
