//! Causal dilated 1-D convolution and the residual TCN block (paper Eq. 3).
//!
//! Causal convolution only looks backwards in time (`x_{t - k·d}`), and
//! dilation `d` widens the receptive field exponentially with depth —
//! exactly the construction the paper adopts from Bai et al. for
//! long-range dependency capture.

use rand::Rng;

use crate::layer::{Layer, Linear, Param, Relu};
use crate::mat::Mat;

/// A causal, dilated 1-D convolution over a `T × C_in` sequence,
/// producing `T × C_out`.
///
/// Implemented with an im2row transform: each output row `t` sees the
/// concatenation `[x_{t}, x_{t-d}, ..., x_{t-(k-1)d}]` (zero-padded before
/// the sequence start), so the convolution becomes one matrix product.
#[derive(Clone, Debug)]
pub(crate) struct CausalConv1d {
    in_channels: usize,
    kernel: usize,
    dilation: usize,
    /// Weight as a `(kernel * in_channels) × out_channels` matrix.
    w: Param,
    b: Param,
    cached_im2row: Option<Mat>,
    cached_t: usize,
}

impl CausalConv1d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics when `kernel` or `dilation` is zero.
    pub(crate) fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        dilation: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            kernel > 0 && dilation > 0,
            "kernel and dilation must be positive"
        );
        CausalConv1d {
            in_channels,
            kernel,
            dilation,
            w: Param::new(Mat::xavier(kernel * in_channels, out_channels, rng)),
            b: Param::new(Mat::zeros(1, out_channels)),
            cached_im2row: None,
            cached_t: 0,
        }
    }

    fn im2row(&self, x: &Mat) -> Mat {
        let t_len = x.rows();
        let mut out = Mat::zeros(t_len, self.kernel * self.in_channels);
        for t in 0..t_len {
            for kk in 0..self.kernel {
                let offset = kk * self.dilation;
                if t >= offset {
                    let src = x.row(t - offset);
                    let dst =
                        &mut out.row_mut(t)[kk * self.in_channels..(kk + 1) * self.in_channels];
                    dst.copy_from_slice(src);
                }
            }
        }
        out
    }
}

impl Layer for CausalConv1d {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.in_channels, "channel mismatch");
        let im = self.im2row(x);
        self.cached_t = x.rows();
        let y = im.matmul(&self.w.value).add_row_broadcast(&self.b.value);
        self.cached_im2row = Some(im);
        y
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let im = self
            .cached_im2row
            .as_ref()
            .expect("forward before backward");
        self.w.grad.add_assign(&im.transpose().matmul(grad_out));
        self.b.grad.add_assign(&grad_out.sum_rows());
        // d im2row, then scatter back onto the input timeline.
        let d_im = grad_out.matmul(&self.w.value.transpose());
        let t_len = self.cached_t;
        let mut dx = Mat::zeros(t_len, self.in_channels);
        for t in 0..t_len {
            for kk in 0..self.kernel {
                let offset = kk * self.dilation;
                if t >= offset {
                    let src = &d_im.row(t)[kk * self.in_channels..(kk + 1) * self.in_channels];
                    let dst = dx.row_mut(t - offset);
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// A residual TCN block: two causal dilated convolutions with ReLU, plus a
/// (projected) skip connection:
///
/// `y = ReLU( conv2(ReLU(conv1(x))) + proj(x) )`
#[derive(Debug)]
pub struct TcnBlock {
    conv1: CausalConv1d,
    relu1: Relu,
    conv2: CausalConv1d,
    /// 1×1 projection when channel counts differ; identity otherwise.
    proj: Option<Linear>,
    relu_out: Relu,
}

impl TcnBlock {
    /// Builds a block with the given channel widths, kernel, and dilation.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        dilation: usize,
        rng: &mut R,
    ) -> Self {
        TcnBlock {
            conv1: CausalConv1d::new(in_channels, out_channels, kernel, dilation, rng),
            relu1: Relu::new(),
            conv2: CausalConv1d::new(out_channels, out_channels, kernel, dilation, rng),
            proj: if in_channels != out_channels {
                Some(Linear::new(in_channels, out_channels, rng))
            } else {
                None
            },
            relu_out: Relu::new(),
        }
    }
}

impl Layer for TcnBlock {
    fn forward(&mut self, x: &Mat) -> Mat {
        let a = self.conv1.forward(x);
        let a = self.relu1.forward(&a);
        let main = self.conv2.forward(&a);
        let skip = match &mut self.proj {
            Some(p) => p.forward(x),
            None => x.clone(),
        };
        self.relu_out.forward(&main.add(&skip))
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let d_sum = self.relu_out.backward(grad_out);
        // Main branch.
        let d_a = self.conv2.backward(&d_sum);
        let d_a = self.relu1.backward(&d_a);
        let dx_main = self.conv1.backward(&d_a);
        // Skip branch.
        let dx_skip = match &mut self.proj {
            Some(p) => p.backward(&d_sum),
            None => d_sum,
        };
        dx_main.add(&dx_skip)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.conv1.params_mut();
        params.extend(self.conv2.params_mut());
        if let Some(p) = &mut self.proj {
            params.extend(p.params_mut());
        }
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
        StdRng::seed_from_u64(7)
    }

    fn input(t: usize, c: usize) -> Mat {
        let mut r = rng();
        Mat::from_vec(t, c, (0..t * c).map(|_| r.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn conv_shapes() {
        let mut r = rng();
        let mut conv = CausalConv1d::new(3, 5, 2, 1, &mut r);
        let y = conv.forward(&input(10, 3));
        assert_eq!((y.rows(), y.cols()), (10, 5));
    }

    #[test]
    fn conv_is_causal() {
        // Changing a future input must not change past outputs.
        let mut r = rng();
        let mut conv = CausalConv1d::new(1, 1, 3, 2, &mut r);
        let x1 = input(10, 1);
        let mut x2 = x1.clone();
        x2.set(9, 0, 99.0);
        let y1 = conv.forward(&x1);
        let y2 = conv.forward(&x2);
        for t in 0..9 {
            assert_eq!(y1.get(t, 0), y2.get(t, 0), "leak at t={t}");
        }
        assert_ne!(y1.get(9, 0), y2.get(9, 0));
    }

    #[test]
    fn dilation_one_is_regular_convolution() {
        // k=2, d=1: y_t = w0 x_t + w1 x_{t-1} + b. Check directly.
        let mut r = rng();
        let mut conv = CausalConv1d::new(1, 1, 2, 1, &mut r);
        // Overwrite weights with known values.
        conv.w.value = Mat::from_vec(2, 1, vec![2.0, 3.0]);
        conv.b.value = Mat::from_vec(1, 1, vec![0.5]);
        let x = Mat::from_vec(3, 1, vec![1.0, 10.0, 100.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), &[2.5, 23.5, 230.5]);
    }

    #[test]
    fn conv_grad_check() {
        let mut r = rng();
        let mut conv = CausalConv1d::new(2, 3, 3, 2, &mut r);
        let x = input(8, 2);
        assert!(grad_check_input(&mut conv, &x, 1e-3) < 0.01);
        assert!(grad_check_param(&mut conv, &x, 0, 1e-3) < 0.01);
        assert!(grad_check_param(&mut conv, &x, 1, 1e-3) < 0.01);
    }

    #[test]
    fn tcn_block_shapes_and_projection() {
        let mut r = rng();
        let mut block = TcnBlock::new(2, 6, 2, 1, &mut r);
        let y = block.forward(&input(12, 2));
        assert_eq!((y.rows(), y.cols()), (12, 6));
        // With matching channels no projection exists.
        let mut same = TcnBlock::new(4, 4, 2, 1, &mut r);
        assert_eq!(same.params_mut().len(), 4);
        let mut diff = TcnBlock::new(2, 6, 2, 1, &mut r);
        assert_eq!(diff.params_mut().len(), 6);
    }

    #[test]
    fn tcn_block_grad_check() {
        let mut r = rng();
        let mut block = TcnBlock::new(2, 4, 2, 2, &mut r);
        let x = input(8, 2);
        assert!(grad_check_input(&mut block, &x, 1e-3) < 0.02);
        for p in 0..6 {
            assert!(
                grad_check_param(&mut block, &x, p, 1e-3) < 0.02,
                "param {p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "kernel and dilation must be positive")]
    fn zero_kernel_panics() {
        let mut r = rng();
        let _ = CausalConv1d::new(1, 1, 0, 1, &mut r);
    }
}
