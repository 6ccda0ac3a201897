//! Recurrent layers: vanilla RNN, GRU (paper Eq. 4), and BiGRU (Eq. 5).
//!
//! All layers map a `T × I` input sequence to a `T × H` (or `T × 2H` for
//! BiGRU) output sequence and implement full backpropagation through time.

use rand::Rng;

use crate::layer::{Layer, Param};
use crate::mat::Mat;

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

fn row(m: &Mat, r: usize) -> Mat {
    Mat::from_vec(1, m.cols(), m.row(r).to_vec())
}

/// A vanilla RNN: `h_t = tanh(x_t W + h_{t-1} U + b)` — the "RNN"
/// baseline of Table III.
#[derive(Clone, Debug)]
pub struct VanillaRnn {
    w: Param,
    u: Param,
    b: Param,
    hidden: usize,
    cache: Vec<RnnStep>,
}

/// What the vanilla RNN's backward pass needs of one forward step.
#[derive(Clone, Debug)]
struct RnnStep {
    x: Mat,
    h_prev: Mat,
    h: Mat,
}

impl VanillaRnn {
    /// Creates an RNN with the given input and hidden sizes.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        VanillaRnn {
            w: Param::new(Mat::xavier(input, hidden, rng)),
            u: Param::new(Mat::xavier(hidden, hidden, rng)),
            b: Param::new(Mat::zeros(1, hidden)),
            hidden,
            cache: Vec::new(),
        }
    }
}

impl Layer for VanillaRnn {
    fn forward(&mut self, x: &Mat) -> Mat {
        let t_len = x.rows();
        self.cache.clear();
        let mut h_prev = Mat::zeros(1, self.hidden);
        let mut out = Mat::zeros(t_len, self.hidden);
        for t in 0..t_len {
            let x_t = row(x, t);
            let pre = x_t
                .matmul(&self.w.value)
                .add(&h_prev.matmul(&self.u.value))
                .add_row_broadcast(&self.b.value);
            let h = pre.map(f32::tanh);
            out.row_mut(t).copy_from_slice(h.row(0));
            self.cache.push(RnnStep {
                x: x_t,
                h_prev: h_prev.clone(),
                h: h.clone(),
            });
            h_prev = h;
        }
        out
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let t_len = self.cache.len();
        let input_dim = self.w.value.rows();
        let mut dx = Mat::zeros(t_len, input_dim);
        let mut dh_next = Mat::zeros(1, self.hidden);
        for t in (0..t_len).rev() {
            let step = &self.cache[t];
            let dh = row(grad_out, t).add(&dh_next);
            // d(pre-tanh) = dh * (1 - h^2)
            let dpre = dh.hadamard(&step.h.map(|v| 1.0 - v * v));
            self.w.grad.add_assign(&step.x.transpose().matmul(&dpre));
            self.u
                .grad
                .add_assign(&step.h_prev.transpose().matmul(&dpre));
            self.b.grad.add_assign(&dpre);
            dx.row_mut(t)
                .copy_from_slice(dpre.matmul(&self.w.value.transpose()).row(0));
            dh_next = dpre.matmul(&self.u.value.transpose());
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.u, &mut self.b]
    }
}

/// A GRU layer (paper Eq. 4):
///
/// ```text
/// r_t = σ(x_t W_r + h_{t-1} U_r + b_r)
/// z_t = σ(x_t W_z + h_{t-1} U_z + b_z)
/// h̃_t = tanh(x_t W_h + (r_t ⊙ h_{t-1}) U_h + b_h)
/// h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ h̃_t
/// ```
#[derive(Clone, Debug)]
pub(crate) struct Gru {
    wz: Param,
    uz: Param,
    bz: Param,
    wr: Param,
    ur: Param,
    br: Param,
    wh: Param,
    uh: Param,
    bh: Param,
    hidden: usize,
    cache: Vec<GruStep>,
}

/// What the GRU's backward pass needs of one forward step: the input, the
/// previous state and the three gate activations.
#[derive(Clone, Debug)]
struct GruStep {
    x: Mat,
    h_prev: Mat,
    z: Mat,
    r: Mat,
    h_tilde: Mat,
}

impl Gru {
    /// Creates a GRU with the given input and hidden sizes.
    pub(crate) fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        Gru {
            wz: Param::new(Mat::xavier(input, hidden, rng)),
            uz: Param::new(Mat::xavier(hidden, hidden, rng)),
            bz: Param::new(Mat::zeros(1, hidden)),
            wr: Param::new(Mat::xavier(input, hidden, rng)),
            ur: Param::new(Mat::xavier(hidden, hidden, rng)),
            br: Param::new(Mat::zeros(1, hidden)),
            wh: Param::new(Mat::xavier(input, hidden, rng)),
            uh: Param::new(Mat::xavier(hidden, hidden, rng)),
            bh: Param::new(Mat::zeros(1, hidden)),
            hidden,
            cache: Vec::new(),
        }
    }
}

impl Layer for Gru {
    fn forward(&mut self, x: &Mat) -> Mat {
        let t_len = x.rows();
        self.cache.clear();
        let mut h_prev = Mat::zeros(1, self.hidden);
        let mut out = Mat::zeros(t_len, self.hidden);
        for t in 0..t_len {
            let x_t = row(x, t);
            let z = x_t
                .matmul(&self.wz.value)
                .add(&h_prev.matmul(&self.uz.value))
                .add_row_broadcast(&self.bz.value)
                .map(sigmoid);
            let r = x_t
                .matmul(&self.wr.value)
                .add(&h_prev.matmul(&self.ur.value))
                .add_row_broadcast(&self.br.value)
                .map(sigmoid);
            let rh = r.hadamard(&h_prev);
            let h_tilde = x_t
                .matmul(&self.wh.value)
                .add(&rh.matmul(&self.uh.value))
                .add_row_broadcast(&self.bh.value)
                .map(f32::tanh);
            // h = (1 - z) ⊙ h_prev + z ⊙ h̃
            let h = h_prev
                .hadamard(&z.map(|v| 1.0 - v))
                .add(&z.hadamard(&h_tilde));
            out.row_mut(t).copy_from_slice(h.row(0));
            self.cache.push(GruStep {
                x: x_t,
                h_prev: h_prev.clone(),
                z,
                r,
                h_tilde,
            });
            h_prev = h;
        }
        out
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let t_len = self.cache.len();
        let input_dim = self.wz.value.rows();
        let mut dx = Mat::zeros(t_len, input_dim);
        let mut dh_next = Mat::zeros(1, self.hidden);
        for t in (0..t_len).rev() {
            let step = &self.cache[t];
            let dh = row(grad_out, t).add(&dh_next);

            // h = (1-z)·h_prev + z·h̃
            let dh_tilde = dh.hadamard(&step.z);
            let dz = dh.hadamard(&step.h_tilde.sub(&step.h_prev));
            let mut dh_prev = dh.hadamard(&step.z.map(|v| 1.0 - v));

            // h̃ = tanh(x W_h + (r⊙h_prev) U_h + b_h)
            let da_h = dh_tilde.hadamard(&step.h_tilde.map(|v| 1.0 - v * v));
            let rh = step.r.hadamard(&step.h_prev);
            self.wh.grad.add_assign(&step.x.transpose().matmul(&da_h));
            self.uh.grad.add_assign(&rh.transpose().matmul(&da_h));
            self.bh.grad.add_assign(&da_h);
            let d_rh = da_h.matmul(&self.uh.value.transpose());
            let dr = d_rh.hadamard(&step.h_prev);
            dh_prev.add_assign(&d_rh.hadamard(&step.r));

            // z = σ(x W_z + h_prev U_z + b_z)
            let da_z = dz.hadamard(&step.z.map(|v| v * (1.0 - v)));
            self.wz.grad.add_assign(&step.x.transpose().matmul(&da_z));
            self.uz
                .grad
                .add_assign(&step.h_prev.transpose().matmul(&da_z));
            self.bz.grad.add_assign(&da_z);
            dh_prev.add_assign(&da_z.matmul(&self.uz.value.transpose()));

            // r = σ(x W_r + h_prev U_r + b_r)
            let da_r = dr.hadamard(&step.r.map(|v| v * (1.0 - v)));
            self.wr.grad.add_assign(&step.x.transpose().matmul(&da_r));
            self.ur
                .grad
                .add_assign(&step.h_prev.transpose().matmul(&da_r));
            self.br.grad.add_assign(&da_r);
            dh_prev.add_assign(&da_r.matmul(&self.ur.value.transpose()));

            // dx_t
            let dx_t = da_z
                .matmul(&self.wz.value.transpose())
                .add(&da_r.matmul(&self.wr.value.transpose()))
                .add(&da_h.matmul(&self.wh.value.transpose()));
            dx.row_mut(t).copy_from_slice(dx_t.row(0));
            dh_next = dh_prev;
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ]
    }
}

/// A bidirectional GRU (paper Eq. 5): a forward GRU over the sequence and
/// a backward GRU over the reversed sequence, outputs concatenated to
/// `T × 2H`.
#[derive(Clone, Debug)]
pub struct BiGru {
    forward_gru: Gru,
    backward_gru: Gru,
}

impl BiGru {
    /// Creates a BiGRU with the given input size and per-direction hidden
    /// size (output width is `2 * hidden`).
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        BiGru {
            forward_gru: Gru::new(input, hidden, rng),
            backward_gru: Gru::new(input, hidden, rng),
        }
    }
}

impl Layer for BiGru {
    fn forward(&mut self, x: &Mat) -> Mat {
        let fwd = self.forward_gru.forward(x);
        let bwd = self.backward_gru.forward(&x.reverse_rows()).reverse_rows();
        fwd.hcat(&bwd)
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let hidden = self.forward_gru.hidden;
        let d_fwd = grad_out.col_slice(0, hidden);
        let d_bwd = grad_out.col_slice(hidden, 2 * hidden);
        let dx_fwd = self.forward_gru.backward(&d_fwd);
        let dx_bwd = self
            .backward_gru
            .backward(&d_bwd.reverse_rows())
            .reverse_rows();
        dx_fwd.add(&dx_bwd)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.forward_gru.params_mut();
        params.extend(self.backward_gru.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check::{grad_check_input, grad_check_param};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn input(t: usize, c: usize) -> Mat {
        let mut r = rng();
        Mat::from_vec(t, c, (0..t * c).map(|_| r.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn rnn_shapes() {
        let mut r = rng();
        let mut rnn = VanillaRnn::new(3, 5, &mut r);
        let y = rnn.forward(&input(7, 3));
        assert_eq!((y.rows(), y.cols()), (7, 5));
    }

    #[test]
    fn rnn_grad_check() {
        let mut r = rng();
        let mut rnn = VanillaRnn::new(2, 4, &mut r);
        let x = input(6, 2);
        assert!(grad_check_input(&mut rnn, &x, 1e-3) < 0.02);
        for p in 0..3 {
            assert!(grad_check_param(&mut rnn, &x, p, 1e-3) < 0.02, "param {p}");
        }
    }

    #[test]
    fn gru_shapes_and_bounded_output() {
        let mut r = rng();
        let mut gru = Gru::new(3, 5, &mut r);
        let y = gru.forward(&input(7, 3));
        assert_eq!((y.rows(), y.cols()), (7, 5));
        // GRU hidden states are convex mixes of tanh outputs: |h| <= 1.
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn gru_grad_check_input() {
        let mut r = rng();
        let mut gru = Gru::new(2, 3, &mut r);
        let x = input(5, 2);
        assert!(grad_check_input(&mut gru, &x, 1e-3) < 0.02);
    }

    #[test]
    fn gru_grad_check_all_params() {
        let mut r = rng();
        let mut gru = Gru::new(2, 3, &mut r);
        let x = input(5, 2);
        for p in 0..9 {
            // f32 finite differences are noisy at small eps; 1e-2 keeps
            // truncation and round-off balanced.
            assert!(grad_check_param(&mut gru, &x, p, 1e-2) < 0.05, "param {p}");
        }
    }

    #[test]
    fn gru_state_carries_information() {
        // Identical inputs at t=0 and t=3 must produce different hidden
        // states (history matters).
        let mut r = rng();
        let mut gru = Gru::new(1, 4, &mut r);
        let x = Mat::from_vec(4, 1, vec![0.5, -0.2, 0.9, 0.5]);
        let y = gru.forward(&x);
        assert_ne!(y.row(0), y.row(3));
    }

    #[test]
    fn bigru_shapes() {
        let mut r = rng();
        let mut bigru = BiGru::new(3, 4, &mut r);
        let y = bigru.forward(&input(6, 3));
        assert_eq!((y.rows(), y.cols()), (6, 8));
    }

    #[test]
    fn bigru_sees_the_future() {
        // Changing the last input must change the *first* output row
        // through the backward direction — the whole point of Eq. 5.
        let mut r = rng();
        let mut bigru = BiGru::new(1, 3, &mut r);
        let x1 = input(6, 1);
        let mut x2 = x1.clone();
        x2.set(5, 0, 5.0);
        let y1 = bigru.forward(&x1);
        let y2 = bigru.forward(&x2);
        assert_ne!(y1.row(0), y2.row(0), "backward direction inert");
    }

    #[test]
    fn bigru_grad_check() {
        let mut r = rng();
        let mut bigru = BiGru::new(2, 3, &mut r);
        let x = input(5, 2);
        assert!(grad_check_input(&mut bigru, &x, 1e-3) < 0.03);
        assert!(grad_check_param(&mut bigru, &x, 0, 1e-3) < 0.03); // fwd Wz
        assert!(grad_check_param(&mut bigru, &x, 9, 1e-3) < 0.03); // bwd Wz
    }

    fn param_count(layer: &mut impl Layer) -> usize {
        layer
            .params_mut()
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }

    #[test]
    fn param_counts() {
        let mut r = rng();
        // 3*(2*3 + 3*3 + 3) = 54
        assert_eq!(param_count(&mut Gru::new(2, 3, &mut r)), 54);
        assert_eq!(param_count(&mut BiGru::new(2, 3, &mut r)), 108);
    }
}
