//! Kernel ridge regression.
//!
//! Stands in for the paper's SVM regressors: LM-ply uses "a 5-degree
//! polynomial-kernel SVM" and LM-rbf "a Radial Basis Function (RBF)-kernel
//! SVM" (§4.1.2). Kernel ridge regression fits the same kernelized function
//! class with a squared loss instead of SVR's ε-insensitive loss; the
//! substitution is documented in DESIGN.md. Like the paper's SVMs (and like
//! GBT), the model cannot be fine-tuned and is re-trained on update.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use warper_linalg::bulk::{Bulk, Runs};
use warper_linalg::{cholesky_solve, Matrix};

/// Kernel functions.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Kernel {
    /// `(γ·xᵀy + c)^degree`
    Polynomial { degree: u32, gamma: f64, coef0: f64 },
    /// `exp(-γ·‖x−y‖²)`
    Rbf { gamma: f64 },
}

impl Kernel {
    /// The paper's LM-ply kernel: degree-5 polynomial.
    pub fn paper_poly(dim: usize) -> Self {
        Kernel::Polynomial {
            degree: 5,
            gamma: 1.0 / dim.max(1) as f64,
            coef0: 1.0,
        }
    }

    /// The paper's LM-rbf kernel with the sklearn-style `1/d` gamma default.
    pub fn paper_rbf(dim: usize) -> Self {
        Kernel::Rbf {
            gamma: 1.0 / dim.max(1) as f64,
        }
    }

    /// Evaluates `k(a, b)`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Polynomial {
                degree,
                gamma,
                coef0,
            } => {
                let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                (gamma * dot + coef0).powi(degree as i32)
            }
            Kernel::Rbf { gamma } => {
                let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * sq).exp()
            }
        }
    }
}

/// Kernel matrix `K[i][j] = k(a_i, b_j)` for two row-major point sets,
/// computed as one fused `A·Bᵀ` GEMM plus an elementwise map.
///
/// For the polynomial kernel this is bit-identical to [`Kernel::eval`]: the
/// GEMM dot accumulates the same terms in the same order. For RBF the
/// squared distance comes from `‖a‖² + ‖b‖² − 2·a·b` (clamped at zero), which
/// agrees with the direct sum to rounding error and is exact on the diagonal
/// when `a == b`.
fn gram(a: &Matrix, b: &Matrix, kernel: Kernel) -> Matrix {
    let mut g = a.matmul_transpose_b(b);
    match kernel {
        Kernel::Polynomial {
            degree,
            gamma,
            coef0,
        } => {
            g.map_inplace(|v| (gamma * v + coef0).powi(degree as i32));
        }
        Kernel::Rbf { gamma } => {
            let row_norms = |m: &Matrix| -> Vec<f64> {
                (0..m.rows())
                    .map(|i| m.row(i).iter().map(|v| v * v).sum::<f64>())
                    .collect()
            };
            let na = row_norms(a);
            let nb = row_norms(b);
            for i in 0..g.rows() {
                for j in 0..g.cols() {
                    let sq = (na[i] + nb[j] - 2.0 * g.get(i, j)).max(0.0);
                    g.set(i, j, (-gamma * sq).exp());
                }
            }
        }
    }
    g
}

/// Hyperparameters for [`KernelRidge`].
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct KernelRidgeParams {
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Training is O(n³); if the training set exceeds this, a uniform random
    /// subsample of this size is used (a Nyström-style approximation — the
    /// paper's SVMs face the same scaling wall).
    pub max_train: usize,
}

impl Default for KernelRidgeParams {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            max_train: 1000,
        }
    }
}

/// A fitted kernel ridge regression model: `f(x) = Σᵢ αᵢ·k(xᵢ, x)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KernelRidge {
    kernel: Kernel,
    support: Vec<Vec<f64>>,
    alpha: Vec<f64>,
}

impl Bulk for KernelRidge {
    fn runs(&mut self, v: &mut dyn Runs) {
        for row in &mut self.support {
            v.f64s(row, None);
        }
        v.f64s(&mut self.alpha, None);
    }
}

impl KernelRidge {
    /// Fits `(K + λI)α = y` via Cholesky, subsampling if needed.
    ///
    /// Returns `None` when the system cannot be solved (degenerate kernel
    /// matrix even after the ridge term) or the input is empty.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        kernel: Kernel,
        params: &KernelRidgeParams,
        rng: &mut StdRng,
    ) -> Option<Self> {
        assert_eq!(x.len(), y.len());
        if x.is_empty() {
            return None;
        }
        let (sx, sy): (Vec<Vec<f64>>, Vec<f64>) = if x.len() > params.max_train {
            let mut idx: Vec<usize> = (0..x.len()).collect();
            idx.shuffle(rng);
            idx.truncate(params.max_train);
            (
                idx.iter().map(|&i| x[i].clone()).collect(),
                idx.iter().map(|&i| y[i]).collect(),
            )
        } else {
            (x.to_vec(), y.to_vec())
        };

        let n = sx.len();
        let xm = Matrix::from_rows(&sx);
        // Gram matrix via one fused X·Xᵀ product; both kernels reduce to
        // elementwise maps over pairwise dot products (for RBF through
        // ‖x−y‖² = ‖x‖² + ‖y‖² − 2·x·y). The result is exactly symmetric:
        // the dot kernel accumulates k-terms in the same order for (i,j)
        // and (j,i).
        let mut k = gram(&xm, &xm, kernel);
        for i in 0..n {
            k.set(i, i, k.get(i, i) + params.lambda);
        }
        let alpha = cholesky_solve(&k, &sy).ok()?;
        Some(Self {
            kernel,
            support: sx,
            alpha,
        })
    }

    /// Predicted value for one example.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        self.support
            .iter()
            .zip(&self.alpha)
            .map(|(s, a)| a * self.kernel.eval(s, x))
            .sum()
    }

    /// Predictions for a batch: one `xs × support` kernel GEMM followed by a
    /// mat-vec with α, instead of a per-example scan of the support set.
    pub fn predict(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        if xs.is_empty() {
            return Vec::new();
        }
        let xm = Matrix::from_rows(xs);
        let sm = Matrix::from_rows(&self.support);
        gram(&xm, &sm, self.kernel).matvec(&self.alpha)
    }

    /// Number of support points retained.
    pub fn support_count(&self) -> usize {
        self.support.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn kernel_values() {
        let k = Kernel::Polynomial {
            degree: 2,
            gamma: 1.0,
            coef0: 0.0,
        };
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 121.0); // (11)^2
        let r = Kernel::Rbf { gamma: 1.0 };
        assert_eq!(r.eval(&[1.0], &[1.0]), 1.0);
        assert!((r.eval(&[0.0], &[1.0]) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn rbf_interpolates_training_points() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 5.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0]).sin()).collect();
        let model = KernelRidge::fit(
            &x,
            &y,
            Kernel::Rbf { gamma: 2.0 },
            &KernelRidgeParams {
                lambda: 1e-8,
                max_train: 1000,
            },
            &mut rng(),
        )
        .unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            assert!((model.predict_one(xi) - yi).abs() < 1e-4);
        }
    }

    #[test]
    fn poly_fits_quadratic() {
        let x: Vec<Vec<f64>> = (-10..=10).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let model = KernelRidge::fit(
            &x,
            &y,
            Kernel::Polynomial {
                degree: 2,
                gamma: 1.0,
                coef0: 1.0,
            },
            &KernelRidgeParams {
                lambda: 1e-6,
                max_train: 1000,
            },
            &mut rng(),
        )
        .unwrap();
        let err: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (model.predict_one(xi) - yi).powi(2))
            .sum::<f64>()
            / x.len() as f64;
        assert!(err < 1e-6, "mse {err}");
    }

    #[test]
    fn subsamples_large_training_sets() {
        let x: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64]).collect();
        let y = vec![1.0; 500];
        let model = KernelRidge::fit(
            &x,
            &y,
            Kernel::Rbf { gamma: 0.1 },
            &KernelRidgeParams {
                lambda: 1e-3,
                max_train: 100,
            },
            &mut rng(),
        )
        .unwrap();
        assert_eq!(model.support_count(), 100);
    }

    #[test]
    fn batch_predict_matches_predict_one() {
        let x: Vec<Vec<f64>> = (0..15)
            .map(|i| vec![i as f64 / 4.0, (i as f64).cos()])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] - v[1]).collect();
        for kernel in [
            Kernel::Polynomial {
                degree: 3,
                gamma: 0.5,
                coef0: 1.0,
            },
            Kernel::Rbf { gamma: 0.7 },
        ] {
            let model = KernelRidge::fit(
                &x,
                &y,
                kernel,
                &KernelRidgeParams {
                    lambda: 1e-4,
                    max_train: 1000,
                },
                &mut rng(),
            )
            .unwrap();
            let batch = model.predict(&x);
            for (xi, b) in x.iter().zip(&batch) {
                let one = model.predict_one(xi);
                assert!((one - b).abs() < 1e-9, "batch {b} vs single {one}");
            }
        }
        assert!(KernelRidge::fit(
            &x,
            &y,
            Kernel::Rbf { gamma: 0.7 },
            &KernelRidgeParams::default(),
            &mut rng()
        )
        .unwrap()
        .predict(&[])
        .is_empty());
    }

    #[test]
    fn empty_input_is_none() {
        let model = KernelRidge::fit(
            &[],
            &[],
            Kernel::Rbf { gamma: 1.0 },
            &KernelRidgeParams::default(),
            &mut rng(),
        );
        assert!(model.is_none());
    }
}
