//! Fully-connected layers and activations.

use rand::rngs::StdRng;
use warper_linalg::bulk::{Bulk, Runs};
use warper_linalg::Matrix;

use crate::init::he_init;

/// Elementwise activation functions used by the paper's networks (Table 3
/// uses Leaky ReLU everywhere; identity is the regression output head).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Activation {
    /// f(x) = x
    Identity,
    /// f(x) = max(0, x)
    Relu,
    /// f(x) = x if x > 0 else αx. The paper uses PyTorch's default α = 0.01.
    LeakyRelu(f64),
    /// f(x) = tanh(x)
    Tanh,
    /// f(x) = 1 / (1 + e^-x)
    Sigmoid,
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn forward(&self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        self.forward_inplace(&mut out);
        out
    }

    /// Applies the activation elementwise, in place.
    pub fn forward_inplace(&self, out: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => out.map_inplace(|x| x.max(0.0)),
            Activation::LeakyRelu(a) => {
                let a = *a;
                out.map_inplace(move |x| if x > 0.0 { x } else { a * x })
            }
            Activation::Tanh => out.map_inplace(f64::tanh),
            Activation::Sigmoid => out.map_inplace(|x| 1.0 / (1.0 + (-x).exp())),
        }
    }

    /// Given the pre-activation values `pre` and the gradient w.r.t. the
    /// activation output `dy`, returns the gradient w.r.t. `pre`.
    pub fn backward(&self, pre: &Matrix, dy: &Matrix) -> Matrix {
        let mut dx = dy.clone();
        self.backward_inplace(pre, &mut dx);
        dx
    }

    /// In-place variant of [`Self::backward`]: rewrites `dx` (the upstream
    /// gradient on entry) into the gradient w.r.t. `pre`.
    pub fn backward_inplace(&self, pre: &Matrix, dx: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (g, &p) in dx.data_mut().iter_mut().zip(pre.data()) {
                    if p <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::LeakyRelu(a) => {
                for (g, &p) in dx.data_mut().iter_mut().zip(pre.data()) {
                    if p <= 0.0 {
                        *g *= a;
                    }
                }
            }
            Activation::Tanh => {
                for (g, &p) in dx.data_mut().iter_mut().zip(pre.data()) {
                    let t = p.tanh();
                    *g *= 1.0 - t * t;
                }
            }
            Activation::Sigmoid => {
                for (g, &p) in dx.data_mut().iter_mut().zip(pre.data()) {
                    let s = 1.0 / (1.0 + (-p).exp());
                    *g *= s * (1.0 - s);
                }
            }
        }
    }
}

/// A fully-connected layer computing `Y = X·Wᵀ + b`.
///
/// `X` is `batch × in_dim`, `W` is `out_dim × in_dim`, `b` is `out_dim`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    /// Weight matrix, `out_dim × in_dim`.
    pub w: Matrix,
    /// Bias vector, `out_dim`.
    pub b: Vec<f64>,
}

/// Gradients of a [`Linear`] layer's parameters.
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// `∂L/∂W`, same shape as `w`.
    pub dw: Matrix,
    /// `∂L/∂b`, same shape as `b`.
    pub db: Vec<f64>,
}

impl Bulk for Linear {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.w.runs(v);
        v.f64s(&mut self.b, None);
    }
}

impl Linear {
    /// Creates a layer with He-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            w: he_init(out_dim, in_dim, in_dim, rng),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Number of scalar parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Forward pass: `X·Wᵀ + b` for a `batch × in_dim` input.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass written into `y`, reusing its buffer. The `X·Wᵀ` product
    /// runs through the fused-transpose kernel — `W` is never transposed in
    /// memory.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "Linear input dim mismatch");
        x.matmul_transpose_b_into(&self.w, y);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
    }

    /// Backward pass. Given the layer input `x` and the upstream gradient
    /// `dy` (`batch × out_dim`), returns parameter gradients and `∂L/∂x`.
    ///
    /// Gradients are averaged over the batch — this matches the mean-reduced
    /// losses in [`crate::loss`], so the two must be used together.
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> (LinearGrads, Matrix) {
        let mut g = LinearGrads {
            dw: Matrix::zeros(0, 0),
            db: Vec::new(),
        };
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(x, dy, &mut g, &mut dx);
        (g, dx)
    }

    /// Backward pass writing the parameter gradients into `g` and `∂L/∂x`
    /// into `dx`, reusing both buffers. `dW = dYᵀ·X` runs through the fused
    /// kernel with no transpose materialized.
    pub fn backward_into(&self, x: &Matrix, dy: &Matrix, g: &mut LinearGrads, dx: &mut Matrix) {
        assert_eq!(dy.cols(), self.out_dim());
        assert_eq!(x.rows(), dy.rows());
        // dW = dYᵀ·X, db = column-sum(dY), dX = dY·W.
        dy.matmul_transpose_a_into(x, &mut g.dw);
        g.db.clear();
        g.db.resize(self.out_dim(), 0.0);
        for r in 0..dy.rows() {
            for (acc, v) in g.db.iter_mut().zip(dy.row(r)) {
                *acc += v;
            }
        }
        dy.matmul_into(&self.w, dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2, &mut StdRng::seed_from_u64(0));
        l.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.row(0), &[3.5, 6.5]);
    }

    #[test]
    fn relu_forward_backward() {
        let pre = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]);
        let y = Activation::Relu.forward(&pre);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
        let dy = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let dx = Activation::Relu.backward(&pre, &dy);
        assert_eq!(dx.row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_negative_slope() {
        let pre = Matrix::from_vec(1, 2, vec![-2.0, 3.0]);
        let y = Activation::LeakyRelu(0.01).forward(&pre);
        assert!((y.get(0, 0) + 0.02).abs() < 1e-12);
        assert_eq!(y.get(0, 1), 3.0);
        let dy = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let dx = Activation::LeakyRelu(0.01).backward(&pre, &dy);
        assert!((dx.get(0, 0) - 0.01).abs() < 1e-12);
        assert_eq!(dx.get(0, 1), 1.0);
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(42);
        let l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.6]);
        // Loss = sum of outputs; then dY = all ones.
        let dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let (grads, dx) = l.backward(&x, &dy);

        let eps = 1e-6;
        // Check one weight gradient.
        let mut lp = l.clone();
        lp.w.set(1, 2, lp.w.get(1, 2) + eps);
        let mut lm = l.clone();
        lm.w.set(1, 2, lm.w.get(1, 2) - eps);
        let f = |layer: &Linear| layer.forward(&x).data().iter().sum::<f64>();
        let num = (f(&lp) - f(&lm)) / (2.0 * eps);
        assert!(
            (num - grads.dw.get(1, 2)).abs() < 1e-5,
            "{num} vs {}",
            grads.dw.get(1, 2)
        );

        // Check one input gradient.
        let num_dx = {
            let mut xp = x.clone();
            xp.set(0, 1, x.get(0, 1) + eps);
            let mut xm = x.clone();
            xm.set(0, 1, x.get(0, 1) - eps);
            (l.forward(&xp).data().iter().sum::<f64>() - l.forward(&xm).data().iter().sum::<f64>())
                / (2.0 * eps)
        };
        assert!((num_dx - dx.get(0, 1)).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_and_tanh_gradients() {
        let pre = Matrix::from_vec(1, 1, vec![0.3]);
        let dy = Matrix::from_vec(1, 1, vec![1.0]);
        for act in [Activation::Sigmoid, Activation::Tanh] {
            let eps = 1e-6;
            let f = |v: f64| act.forward(&Matrix::from_vec(1, 1, vec![v])).get(0, 0);
            let num = (f(0.3 + eps) - f(0.3 - eps)) / (2.0 * eps);
            let ana = act.backward(&pre, &dy).get(0, 0);
            assert!((num - ana).abs() < 1e-6, "{act:?}: {num} vs {ana}");
        }
    }
}
