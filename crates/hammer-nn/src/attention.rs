//! Multi-head self-attention (paper Eq. 6–7).
//!
//! `Attention(Q, K, V) = softmax(QKᵀ / √d_k) V`, with `h` heads computed
//! in parallel subspaces and concatenated through an output projection
//! `W_O`. (The paper's Eq. 6 omits the `V` product — a typo; the standard
//! formulation is implemented.) The paper uses this stage to catch sudden
//! bursts: attention lets any time step look directly at any other.

use rand::Rng;

use crate::layer::{Layer, Param};
use crate::mat::Mat;

/// Multi-head self-attention over a `T × D` sequence.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    heads: usize,
    dim: usize,
    cache: Option<Cache>,
}

#[derive(Clone, Debug)]
struct Cache {
    x: Mat,
    q: Mat,
    k: Mat,
    v: Mat,
    /// Per-head attention weights (post-softmax), each `T × T`.
    attn: Vec<Mat>,
    /// Concatenated head outputs, `T × D`.
    concat: Mat,
}

fn softmax_rows(m: &Mat) -> Mat {
    let mut out = Mat::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let row = m.row(r);
        let max = row.iter().copied().fold(f32::MIN, f32::max);
        let exps: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (c, e) in exps.iter().enumerate() {
            out.set(r, c, e / sum);
        }
    }
    out
}

impl MultiHeadAttention {
    /// Creates an attention layer over `dim` channels with `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics when `dim` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(dim: usize, heads: usize, rng: &mut R) -> Self {
        assert!(heads > 0, "need at least one head");
        assert_eq!(dim % heads, 0, "dim must be divisible by heads");
        MultiHeadAttention {
            wq: Param::new(Mat::xavier(dim, dim, rng)),
            wk: Param::new(Mat::xavier(dim, dim, rng)),
            wv: Param::new(Mat::xavier(dim, dim, rng)),
            wo: Param::new(Mat::xavier(dim, dim, rng)),
            heads,
            dim,
            cache: None,
        }
    }

    fn head_dim(&self) -> usize {
        self.dim / self.heads
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.dim, "channel mismatch");
        let q = x.matmul(&self.wq.value);
        let k = x.matmul(&self.wk.value);
        let v = x.matmul(&self.wv.value);
        let dk = self.head_dim();
        let scale = 1.0 / (dk as f32).sqrt();
        let t_len = x.rows();
        let mut concat = Mat::zeros(t_len, self.dim);
        let mut attn_all = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let c0 = h * dk;
            let c1 = c0 + dk;
            let qh = q.col_slice(c0, c1);
            let kh = k.col_slice(c0, c1);
            let vh = v.col_slice(c0, c1);
            let scores = qh.matmul(&kh.transpose()).scale(scale);
            let attn = softmax_rows(&scores);
            let yh = attn.matmul(&vh);
            for t in 0..t_len {
                concat.row_mut(t)[c0..c1].copy_from_slice(yh.row(t));
            }
            attn_all.push(attn);
        }
        let out = concat.matmul(&self.wo.value);
        self.cache = Some(Cache {
            x: x.clone(),
            q,
            k,
            v,
            attn: attn_all,
            concat,
        });
        out
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        let cache = self.cache.as_ref().expect("forward before backward");
        let dk = self.head_dim();
        let scale = 1.0 / (dk as f32).sqrt();
        let t_len = cache.x.rows();

        // out = concat · W_O
        self.wo
            .grad
            .add_assign(&cache.concat.transpose().matmul(grad_out));
        let d_concat = grad_out.matmul(&self.wo.value.transpose());

        let mut dq = Mat::zeros(t_len, self.dim);
        let mut dkm = Mat::zeros(t_len, self.dim);
        let mut dv = Mat::zeros(t_len, self.dim);
        for h in 0..self.heads {
            let c0 = h * dk;
            let c1 = c0 + dk;
            let d_yh = d_concat.col_slice(c0, c1);
            let attn = &cache.attn[h];
            let qh = cache.q.col_slice(c0, c1);
            let kh = cache.k.col_slice(c0, c1);
            let vh = cache.v.col_slice(c0, c1);

            // yh = attn · vh
            let d_attn = d_yh.matmul(&vh.transpose());
            let d_vh = attn.transpose().matmul(&d_yh);

            // softmax backward per row: dS = (dA - sum(dA ⊙ A)) ⊙ A
            let mut d_scores = Mat::zeros(t_len, t_len);
            for r in 0..t_len {
                let a_row = attn.row(r);
                let da_row = d_attn.row(r);
                let dot: f32 = a_row.iter().zip(da_row).map(|(a, d)| a * d).sum();
                for c in 0..t_len {
                    d_scores.set(r, c, (da_row[c] - dot) * a_row[c]);
                }
            }
            let d_scores = d_scores.scale(scale);

            // scores = qh · khᵀ
            let d_qh = d_scores.matmul(&kh);
            let d_kh = d_scores.transpose().matmul(&qh);

            for t in 0..t_len {
                dq.row_mut(t)[c0..c1].copy_from_slice(d_qh.row(t));
                dkm.row_mut(t)[c0..c1].copy_from_slice(d_kh.row(t));
                dv.row_mut(t)[c0..c1].copy_from_slice(d_vh.row(t));
            }
        }

        // q = x W_q etc.
        self.wq.grad.add_assign(&cache.x.transpose().matmul(&dq));
        self.wk.grad.add_assign(&cache.x.transpose().matmul(&dkm));
        self.wv.grad.add_assign(&cache.x.transpose().matmul(&dv));
        dq.matmul(&self.wq.value.transpose())
            .add(&dkm.matmul(&self.wk.value.transpose()))
            .add(&dv.matmul(&self.wv.value.transpose()))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::grad_check::{grad_check_input, grad_check_param};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    fn input(t: usize, c: usize) -> Mat {
        let mut r = rng();
        Mat::from_vec(t, c, (0..t * c).map(|_| r.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Mat::from_vec(1, 2, vec![1000.0, 1001.0]);
        let s = softmax_rows(&m);
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attention_shapes() {
        let mut r = rng();
        let mut attn = MultiHeadAttention::new(8, 2, &mut r);
        let y = attn.forward(&input(5, 8));
        assert_eq!((y.rows(), y.cols()), (5, 8));
    }

    #[test]
    fn attention_mixes_time_steps() {
        // Output at t=0 must depend on input at t=4 (global receptive
        // field — how the model catches bursts).
        let mut r = rng();
        let mut attn = MultiHeadAttention::new(4, 1, &mut r);
        let x1 = input(5, 4);
        let mut x2 = x1.clone();
        x2.set(4, 0, 9.0);
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        assert_ne!(y1.row(0), y2.row(0));
    }

    #[test]
    fn attention_grad_check_input() {
        let mut r = rng();
        let mut attn = MultiHeadAttention::new(4, 2, &mut r);
        let x = input(4, 4);
        assert!(grad_check_input(&mut attn, &x, 1e-3) < 0.03);
    }

    #[test]
    fn attention_grad_check_params() {
        let mut r = rng();
        let mut attn = MultiHeadAttention::new(4, 2, &mut r);
        let x = input(4, 4);
        for p in 0..4 {
            // Softmax gradients are small relative to the f32 loss sum, so
            // finite differences need a larger eps and a looser bound.
            assert!(grad_check_param(&mut attn, &x, p, 3e-2) < 0.1, "param {p}");
        }
    }

    #[test]
    #[should_panic(expected = "dim must be divisible by heads")]
    fn indivisible_heads_panics() {
        let mut r = rng();
        let _ = MultiHeadAttention::new(7, 2, &mut r);
    }

    #[test]
    fn single_head_equals_heads_partition() {
        // With identical weights across the head split this doesn't hold
        // in general; just verify both configurations run and produce
        // finite outputs.
        let mut r = rng();
        for heads in [1, 2, 4] {
            let mut attn = MultiHeadAttention::new(8, heads, &mut r);
            let y = attn.forward(&input(6, 8));
            assert!(y.data().iter().all(|v| v.is_finite()), "heads={heads}");
        }
    }
}
