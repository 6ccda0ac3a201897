//! The layer abstraction, dense layers, activations, and sequential
//! composition.

use rand::Rng;

use crate::mat::Mat;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// The parameter value.
    pub value: Mat,
    /// Accumulated gradient (same shape).
    pub grad: Mat,
}

impl Param {
    /// A parameter with zeroed gradient.
    pub(crate) fn new(value: Mat) -> Self {
        let grad = Mat::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Zeroes the gradient.
    pub(crate) fn zero_grad(&mut self) {
        self.grad = Mat::zeros(self.value.rows(), self.value.cols());
    }
}

/// A differentiable layer over `T × C` sequence matrices.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// loss gradient w.r.t. the output and returns the gradient w.r.t. the
/// input while accumulating parameter gradients.
pub trait Layer {
    /// Forward pass.
    fn forward(&mut self, x: &Mat) -> Mat;
    /// Backward pass: `grad_out` is dL/d(output); returns dL/d(input).
    fn backward(&mut self, grad_out: &Mat) -> Mat;
    /// All trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;
}

/// A dense layer: `y = x W + b`, applied row-wise over the sequence.
#[derive(Clone, Debug)]
pub struct Linear {
    w: Param,
    b: Param,
    cached_x: Option<Mat>,
}

impl Linear {
    /// A dense layer mapping `in_dim` to `out_dim` channels.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Linear {
            w: Param::new(Mat::xavier(in_dim, out_dim, rng)),
            b: Param::new(Mat::zeros(1, out_dim)),
            cached_x: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Mat) -> Mat {
        self.cached_x = Some(x.clone());
        x.matmul(&self.w.value).add_row_broadcast(&self.b.value)
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let x = self.cached_x.as_ref().expect("forward before backward");
        self.w.grad.add_assign(&x.transpose().matmul(grad_out));
        self.b.grad.add_assign(&grad_out.sum_rows());
        grad_out.matmul(&self.w.value.transpose())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// ReLU activation.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    cached_x: Option<Mat>,
}

impl Relu {
    /// A new ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Mat) -> Mat {
        self.cached_x = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let x = self.cached_x.as_ref().expect("forward before backward");
        let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        grad_out.hadamard(&mask)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// A stack of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Mat) -> Mat {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod grad_check {
    use super::Layer;
    use crate::mat::Mat;

    /// Numerical-vs-analytic gradient check (used across the crate's tests).
    ///
    /// Returns the maximum relative error between the analytic input gradient
    /// and a central-difference estimate for a scalar loss `L = sum(output)`.
    ///
    /// Two measures make the check robust to the f32 forward pass:
    ///
    /// * Probe losses accumulate in `f64`, so the difference quotient is not
    ///   dominated by `f32` summation error (the loss sums ~`O(10)` while the
    ///   perturbation moves it by ~`eps`).
    /// * The relative error uses an absolute floor (`GRAD_ATOL_FLOOR`):
    ///   gradient entries below the finite-difference noise floor are compared
    ///   in absolute terms (PyTorch-gradcheck-style `atol`), because their
    ///   relative error is pure noise.
    /// * Coordinates where the two one-sided differences disagree are skipped:
    ///   the perturbation crossed a ReLU kink, so no derivative exists there
    ///   and the central difference is meaningless. A wrong analytic gradient
    ///   cannot hide behind this filter — away from kinks the loss is smooth,
    ///   the one-sided slopes agree, and the coordinate is checked.
    pub(crate) fn grad_check_input<L: Layer>(layer: &mut L, x: &Mat, eps: f32) -> f32 {
        // Analytic.
        let y = layer.forward(x);
        let ones = Mat::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let analytic = layer.backward(&ones);
        let l0 = loss(&layer.forward(x));
        // Numerical.
        let mut max_err = 0.0f32;
        for i in 0..x.rows() * x.cols() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = loss(&layer.forward(&xp));
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = loss(&layer.forward(&xm));
            if crosses_kink(lp, l0, lm, eps) {
                continue;
            }
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let a = analytic.data()[i];
            let denom = a.abs().max(numeric.abs()).max(GRAD_ATOL_FLOOR);
            max_err = max_err.max((a - numeric).abs() / denom);
        }
        max_err
    }

    /// Like [`grad_check_input`] but for one named parameter (index into
    /// `params_mut()`), with loss `L = sum(output)`.
    pub(crate) fn grad_check_param<L: Layer>(
        layer: &mut L,
        x: &Mat,
        param_idx: usize,
        eps: f32,
    ) -> f32 {
        for p in layer.params_mut() {
            p.zero_grad();
        }
        let y = layer.forward(x);
        let ones = Mat::from_vec(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        let _ = layer.backward(&ones);
        let analytic = layer.params_mut()[param_idx].grad.clone();
        let l0 = loss(&layer.forward(x));
        let n = analytic.rows() * analytic.cols();
        let mut max_err = 0.0f32;
        for i in 0..n {
            let orig = layer.params_mut()[param_idx].value.data()[i];
            layer.params_mut()[param_idx].value.data_mut()[i] = orig + eps;
            let lp = loss(&layer.forward(x));
            layer.params_mut()[param_idx].value.data_mut()[i] = orig - eps;
            let lm = loss(&layer.forward(x));
            layer.params_mut()[param_idx].value.data_mut()[i] = orig;
            if crosses_kink(lp, l0, lm, eps) {
                continue;
            }
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let a = analytic.data()[i];
            let denom = a.abs().max(numeric.abs()).max(GRAD_ATOL_FLOOR);
            max_err = max_err.max((a - numeric).abs() / denom);
        }
        max_err
    }

    /// Gradient entries below this magnitude are compared in absolute rather
    /// than relative terms: the `f32` forward pass puts a noise floor of about
    /// `1e-4` on the difference quotient (per-output rounding ÷ `2·eps`), so
    /// relative errors against smaller denominators measure nothing.
    const GRAD_ATOL_FLOOR: f32 = 5e-2;

    /// Scalar probe loss `L = sum(output)`, accumulated in `f64` so the sum
    /// itself does not add `f32` cancellation error to the difference quotient.
    fn loss(y: &Mat) -> f64 {
        y.data().iter().map(|&v| v as f64).sum()
    }

    /// Detects a non-smooth point between the two perturbed evaluations by
    /// comparing the forward and backward one-sided difference quotients. On a
    /// smooth loss they differ by `O(eps · L'')`; across a ReLU kink the slope
    /// jumps by `O(1)`.
    fn crosses_kink(lp: f64, l0: f64, lm: f64, eps: f32) -> bool {
        let eps = eps as f64;
        let d_plus = (lp - l0) / eps;
        let d_minus = (l0 - lm) / eps;
        let scale = d_plus.abs().max(d_minus.abs()).max(1.0);
        (d_plus - d_minus).abs() > 0.05 * scale
    }
}

#[cfg(test)]
mod tests {
    use super::grad_check::grad_check_input;
    use super::grad_check::grad_check_param;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn sample_input(rows: usize, cols: usize) -> Mat {
        let mut r = rng();
        Mat::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| r.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn linear_forward_shape_and_value() {
        let mut r = rng();
        let mut layer = Linear::new(3, 2, &mut r);
        let x = sample_input(4, 3);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
    }

    #[test]
    fn linear_grad_check() {
        let mut r = rng();
        let mut layer = Linear::new(3, 2, &mut r);
        let x = sample_input(4, 3);
        assert!(grad_check_input(&mut layer, &x, 1e-3) < 0.01);
        assert!(grad_check_param(&mut layer, &x, 0, 1e-3) < 0.01); // W
        assert!(grad_check_param(&mut layer, &x, 1, 1e-3) < 0.01); // b
    }

    #[test]
    fn relu_grad_check() {
        let mut layer = Relu::new();
        let x = sample_input(5, 3);
        assert!(grad_check_input(&mut layer, &x, 1e-3) < 0.01);
    }

    #[test]
    fn sequential_grad_check() {
        let mut r = rng();
        let mut model = Sequential::new()
            .push(Linear::new(3, 8, &mut r))
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut r));
        let x = sample_input(4, 3);
        assert!(grad_check_input(&mut model, &x, 1e-3) < 0.02);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut r = rng();
        let mut layer = Linear::new(2, 2, &mut r);
        let x = sample_input(3, 2);
        let ones = Mat::from_vec(3, 2, vec![1.0; 6]);
        layer.forward(&x);
        layer.backward(&ones);
        let g1 = layer.params_mut()[0].grad.clone();
        layer.forward(&x);
        layer.backward(&ones);
        let g2 = layer.params_mut()[0].grad.clone();
        assert!((g2.norm() - 2.0 * g1.norm()).abs() < 1e-4);
    }
}
