//! A from-scratch neural-network library for Hammer's workload-prediction
//! model (paper §IV).
//!
//! The paper's learning-based control-sequence model is a
//! **TCN → BiGRU → multi-head attention** stack trained with MAE loss and
//! compared against Linear, RNN, TCN-only, and Transformer baselines
//! (Table III). No ML framework is available as a dependency, so this
//! crate implements the pieces those five models are built from, and
//! nothing else:
//!
//! * [`mat`] — a dense row-major `f32` matrix with the linear algebra the
//!   layers need. Sequences are `T × C` matrices (time × channels).
//! * [`layer`] — the [`layer::Layer`] trait (explicit forward/backward),
//!   the dense layer, ReLU, and [`layer::Sequential`] composition.
//! * [`conv`] — causal dilated 1-D convolution and the residual TCN block
//!   of Bai et al. (the paper's long-range component).
//! * [`rnn`] — vanilla RNN, GRU (paper Eq. 4) and BiGRU (paper Eq. 5).
//! * [`attention`] — multi-head self-attention (paper Eq. 6–7).
//! * [`loss`] — MAE (paper Eq. 8) with its gradient.
//! * [`optim`] — Adam.
//!
//! Every layer's backward pass is verified against numerical
//! differentiation in the test suite.

#![warn(missing_docs)]

pub mod attention;
pub mod conv;
pub mod layer;
pub mod loss;
pub mod mat;
pub mod optim;
pub mod rnn;

pub use attention::MultiHeadAttention;
pub use conv::{CausalConv1d, TcnBlock};
pub use layer::{Layer, Linear, Param, Relu, Sequential};
pub use loss::mae_loss;
pub use mat::Mat;
pub use optim::Adam;
pub use rnn::{BiGru, Gru, VanillaRnn};
