//! Hammer's learning-based workload prediction (paper §IV).
//!
//! Real control sequences are too short for large-scale testing, so the
//! paper trains a time-series model to learn a workload's temporal
//! character and *extend* it. This crate assembles that model and its
//! Table III baselines from [`hammer_nn`] building blocks:
//!
//! * [`dataset`] — windowing, z-score normalisation, chronological
//!   train/test splitting of hourly transaction-count series.
//! * [`metrics`] — MAE / MSE / RMSE / R² (Table III's columns).
//! * [`models`] — one [`models::Model`] type (the mean of one or more
//!   members on one training loop) and a constructor per Table III row:
//!   `Linear`, `RNN`, `TCN`, `Transformer`, and the paper's `Ours`
//!   (TCN → BiGRU → multi-head attention, Fig. 5), plus the ablation's
//!   reduced variants, all trained with MAE loss (Eq. 8) and Adam.
//! * [`generate`] — autoregressive rollout to produce the "generated
//!   sequence" of Fig. 11 and arbitrarily long control sequences.

#![warn(missing_docs)]

pub mod dataset;
pub mod generate;
pub mod metrics;
pub mod models;

pub use dataset::{Dataset, WINDOW};
pub use generate::generate_sequence;
pub use metrics::{evaluate, Metrics};
pub use models::{Model, TrainConfig};
