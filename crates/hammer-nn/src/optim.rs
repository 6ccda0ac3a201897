//! The optimizer: Adam.

use crate::layer::Param;
use crate::mat::Mat;

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical stabilizer.
const EPS: f32 = 1e-8;
/// Gradient-norm clipping threshold (per tensor).
const CLIP: f32 = 5.0;

/// Adam (Kingma & Ba) with bias correction, the standard hyperparameters
/// and per-tensor gradient-norm clipping.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Mat>,
    v: Vec<Mat>,
}

impl Adam {
    /// Adam with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam update. The parameter list must be in the same
    /// order every step (moment state is positional).
    pub fn step(&mut self, params: Vec<&mut Param>) {
        if self.m.is_empty() {
            for p in &params {
                self.m.push(Mat::zeros(p.value.rows(), p.value.cols()));
                self.v.push(Mat::zeros(p.value.rows(), p.value.cols()));
            }
        }
        assert_eq!(
            params.len(),
            self.m.len(),
            "parameter list changed between steps"
        );
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (i, p) in params.into_iter().enumerate() {
            let mut grad = p.grad.clone();
            let norm = grad.norm();
            if norm > CLIP {
                grad = grad.scale(CLIP / norm);
            }
            for j in 0..grad.data().len() {
                let g = grad.data()[j];
                let m = BETA1 * self.m[i].data()[j] + (1.0 - BETA1) * g;
                let v = BETA2 * self.v[i].data()[j] + (1.0 - BETA2) * g * g;
                self.m[i].data_mut()[j] = m;
                self.v[i].data_mut()[j] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                p.value.data_mut()[j] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Linear};
    use crate::mat::Mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fits y = 2x - 1 with a single linear layer under squared error (its
    /// gradient spelled out here: training itself uses MAE).
    #[test]
    fn adam_fits_line() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Linear::new(1, 1, &mut rng);
        let xs = Mat::from_vec(8, 1, (0..8).map(|i| i as f32 / 4.0).collect());
        let ys = xs.map(|v| 2.0 * v - 1.0);
        let mut adam = Adam::new(0.05);
        let mut last = f32::MAX;
        for _ in 0..500 {
            let diff = model.forward(&xs).sub(&ys);
            last = diff.norm().powi(2) / 8.0;
            model.backward(&diff.scale(2.0 / 8.0));
            adam.step(model.params_mut());
        }
        assert!(last < 1e-3);
    }

    #[test]
    fn adam_clips_huge_gradients() {
        let mut adam = Adam::new(0.1);
        let mut p = Param::new(Mat::zeros(1, 1));
        p.grad = Mat::from_vec(1, 1, vec![1e9]);
        adam.step(vec![&mut p]);
        // Clipped + Adam normalisation: update magnitude ~= lr.
        assert!(p.value.data()[0].abs() < 1.0);
        assert!(p.value.data()[0] != 0.0);
    }

    #[test]
    fn adam_zeroes_grads_after_step() {
        let mut adam = Adam::new(0.01);
        let mut p = Param::new(Mat::zeros(2, 2));
        p.grad = Mat::from_vec(2, 2, vec![1.0; 4]);
        adam.step(vec![&mut p]);
        assert_eq!(p.grad.norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "parameter list changed")]
    fn adam_detects_param_list_change() {
        let mut adam = Adam::new(0.01);
        let mut p1 = Param::new(Mat::zeros(1, 1));
        adam.step(vec![&mut p1]);
        let mut p2 = Param::new(Mat::zeros(1, 1));
        adam.step(vec![&mut p1, &mut p2]);
    }
}
