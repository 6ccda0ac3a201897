//! The prediction models of Table III and the ablation's reduced variants.
//!
//! Every model is a [`Model`]: one or more members, each a sequence body
//! from [`hammer_nn`] blocks with a scalar head, trained by the one
//! training loop under one of two recipes. A model's prediction is the
//! mean over its members. All operate on *normalised* series (see
//! [`crate::dataset`]), take a window of [`WINDOW`] past values, and
//! predict the next value. All are trained with MAE loss (paper Eq. 8)
//! and Adam.

use hammer_nn::layer::{Layer, Linear, Param};
use hammer_nn::{Adam, BiGru, Mat, MultiHeadAttention, Relu, Sequential, TcnBlock, VanillaRnn};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{windows, WINDOW};

/// Adam learning rate of the vanilla recipe; the tuned recipe trains at a
/// fifth of it.
const LR: f32 = 5e-3;

/// Training stops when the epoch-mean loss (vanilla) or the validation MAE
/// (tuned) improves by less than this ("the training process concludes
/// when the model's loss converges").
const CONVERGENCE_TOL: f32 = 1e-5;

/// What a training run chooses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Maximum training epochs.
    pub epochs: usize,
    /// RNG seed for weight init and sample shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 120,
            seed: 7,
        }
    }
}

/// How a member is trained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recipe {
    /// The paper's baselines: the body's last step alone feeds the head;
    /// train until the training loss converges.
    Vanilla,
    /// The proposed model: a last-value skip connection into the head,
    /// Adam at a fifth of the learning rate, and early stopping on a
    /// chronological validation tail with best-weight restore.
    Tuned,
}

/// A next-step time-series predictor: the mean of its members.
pub struct Model {
    /// Display name (Table III's Method column, or the ablation variant).
    pub name: &'static str,
    members: Vec<SeqTrainer>,
}

impl Model {
    /// A one-member model on the vanilla recipe (the baselines).
    fn baseline(name: &'static str, body: impl Layer + 'static, head: Linear) -> Self {
        Model {
            name,
            members: vec![SeqTrainer::new(Box::new(body), head, Recipe::Vanilla)],
        }
    }

    /// Trains every member on a normalised series; returns the last
    /// member's final epoch-mean MAE.
    pub fn fit(&mut self, train: &[f64], config: &TrainConfig) -> f32 {
        let mut last = f32::NAN;
        for member in &mut self.members {
            last = member.fit(train, config);
        }
        last
    }

    /// Predicts the next normalised value from a window of [`WINDOW`]
    /// normalised values.
    pub fn predict_next(&mut self, window: &[f64]) -> f64 {
        let n = self.members.len() as f64;
        self.members
            .iter_mut()
            .map(|m| m.forward_scalar(window) as f64)
            .sum::<f64>()
            / n
    }
}

fn window_to_mat(window: &[f64]) -> Mat {
    Mat::from_vec(window.len(), 1, window.iter().map(|v| *v as f32).collect())
}

/// One member: a sequence body, a scalar head and the one training loop.
struct SeqTrainer {
    body: Box<dyn Layer>,
    head: Linear,
    adam: Adam,
    recipe: Recipe,
}

impl SeqTrainer {
    fn new(body: Box<dyn Layer>, head: Linear, recipe: Recipe) -> Self {
        let lr = match recipe {
            Recipe::Vanilla => LR,
            Recipe::Tuned => LR * 0.2,
        };
        SeqTrainer {
            body,
            head,
            adam: Adam::new(lr),
            recipe,
        }
    }

    /// Head input: the body's last-step features, plus — tuned — the raw
    /// last observation (a skip connection: short-term dependence flows
    /// straight to the output, so the learned stack only has to model the
    /// *change*).
    fn head_input(&self, window: &[f64], seq: &Mat) -> Mat {
        let mut features = seq.row(seq.rows() - 1).to_vec();
        if self.recipe == Recipe::Tuned {
            features.push(*window.last().expect("nonempty window") as f32);
        }
        Mat::from_vec(1, features.len(), features)
    }

    fn forward_scalar(&mut self, window: &[f64]) -> f32 {
        let x = window_to_mat(window);
        let seq = self.body.forward(&x);
        let last = self.head_input(window, &seq);
        self.head.forward(&last).get(0, 0)
    }

    /// One MAE training step; returns the loss.
    fn train_step(&mut self, window: &[f64], target: f64) -> f32 {
        let x = window_to_mat(window);
        let seq = self.body.forward(&x);
        let t_len = seq.rows();
        let cols = seq.cols();
        let last = self.head_input(window, &seq);
        let pred = self.head.forward(&last);
        let target_mat = Mat::from_vec(1, 1, vec![target as f32]);
        let (loss, dpred) = hammer_nn::mae_loss(&pred, &target_mat);
        let d_last = self.head.backward(&dpred);
        // Only the last time step feeds the head (the final skip-feature
        // column belongs to the raw input, which takes no gradient).
        let mut d_seq = Mat::zeros(t_len, cols);
        d_seq
            .row_mut(t_len - 1)
            .copy_from_slice(&d_last.row(0)[..cols]);
        let _ = self.body.backward(&d_seq);
        let mut params = self.body.params_mut();
        params.extend(self.head.params_mut());
        self.adam.step(params);
        loss
    }

    fn snapshot(&mut self) -> Vec<Mat> {
        let mut params: Vec<Mat> = self
            .body
            .params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        params.extend(self.head.params_mut().iter().map(|p| p.value.clone()));
        params
    }

    fn restore(&mut self, snapshot: &[Mat]) {
        let mut params = self.body.params_mut();
        params.extend(self.head.params_mut());
        for (p, saved) in params.into_iter().zip(snapshot) {
            p.value = saved.clone();
        }
    }

    fn validation_mae(&mut self, samples: &[(&[f64], f64)]) -> f32 {
        let mut total = 0.0;
        for (w, t) in samples {
            total += (self.forward_scalar(w) as f64 - t).abs() as f32;
        }
        total / samples.len() as f32
    }

    /// Trains until the loss converges. Tuned, it holds out a
    /// chronological validation tail (last 15% of windows) and restores
    /// the best-validation weights, which keeps larger models from
    /// memorising the small datasets.
    fn fit(&mut self, train: &[f64], config: &TrainConfig) -> f32 {
        let samples = windows(train, WINDOW);
        if samples.is_empty() {
            return f32::NAN;
        }
        let (train_samples, val_samples) = match self.recipe {
            Recipe::Tuned if samples.len() >= 8 => samples.split_at(samples.len() * 85 / 100),
            _ => (&samples[..], &samples[..1]),
        };
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xfeed);
        let mut order: Vec<usize> = (0..train_samples.len()).collect();
        let mut best = f32::MAX;
        let mut best_snapshot = self.snapshot();
        let mut patience = 10u32;
        let mut final_loss = f32::NAN;
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                let (w, t) = train_samples[i];
                total += self.train_step(w, t);
            }
            final_loss = total / train_samples.len() as f32;
            let converged = match self.recipe {
                Recipe::Tuned => {
                    let val = self.validation_mae(val_samples);
                    if val + CONVERGENCE_TOL < best {
                        best = val;
                        best_snapshot = self.snapshot();
                        patience = 10;
                    } else {
                        patience -= 1;
                    }
                    patience == 0
                }
                Recipe::Vanilla => {
                    let converged = (best - final_loss).abs() < CONVERGENCE_TOL;
                    best = final_loss;
                    converged
                }
            };
            if converged {
                break;
            }
        }
        if self.recipe == Recipe::Tuned {
            self.restore(&best_snapshot);
        }
        final_loss
    }
}

/// Reshapes a `T × 1` window into one `1 × T` row, so the head sees the
/// whole window at once: Linear autoregression as a body.
struct Flatten;

impl Layer for Flatten {
    fn forward(&mut self, x: &Mat) -> Mat {
        Mat::from_vec(1, x.rows() * x.cols(), x.data().to_vec())
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        Mat::from_vec(grad_out.cols(), 1, grad_out.data().to_vec())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Positional encoding: adds fixed sinusoids to the sequence (identity in
/// the backward pass). Needed by the Transformer baseline, which has no
/// recurrence or convolution to perceive order.
struct PositionalEncoding;

impl Layer for PositionalEncoding {
    fn forward(&mut self, x: &Mat) -> Mat {
        let mut out = x.clone();
        let d = x.cols();
        for t in 0..x.rows() {
            for c in 0..d {
                let angle = t as f32 / 10_000f32.powf(2.0 * (c / 2) as f32 / d as f32);
                let enc = if c % 2 == 0 { angle.sin() } else { angle.cos() };
                let v = out.get(t, c) + enc;
                out.set(t, c, v);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Mat) -> Mat {
        grad_out.clone()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Linear autoregression: the flattened window through one dense layer.
pub fn linear(config: &TrainConfig) -> Model {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let head = Linear::new(WINDOW, 1, &mut rng);
    Model::baseline("Linear", Flatten, head)
}

/// The vanilla-RNN baseline.
pub fn rnn(config: &TrainConfig) -> Model {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let hidden = 24;
    let body = VanillaRnn::new(1, hidden, &mut rng);
    let head = Linear::new(hidden, 1, &mut rng);
    Model::baseline("RNN", body, head)
}

/// The TCN-only baseline (three residual blocks, dilations 1, 2 and 4).
pub fn tcn(config: &TrainConfig) -> Model {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let channels = 16;
    let body = Sequential::new()
        .push(TcnBlock::new(1, channels, 3, 1, &mut rng))
        .push(TcnBlock::new(channels, channels, 3, 2, &mut rng))
        .push(TcnBlock::new(channels, channels, 3, 4, &mut rng));
    let head = Linear::new(channels, 1, &mut rng);
    Model::baseline("TCN", body, head)
}

/// The Transformer baseline: embedding + positional encoding + one
/// self-attention encoder block with a feed-forward tail.
pub fn transformer(config: &TrainConfig) -> Model {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let d = 16;
    let body = Sequential::new()
        .push(Linear::new(1, d, &mut rng))
        .push(PositionalEncoding)
        .push(MultiHeadAttention::new(d, 4, &mut rng))
        .push(Linear::new(d, 2 * d, &mut rng))
        .push(Relu::new())
        .push(Linear::new(2 * d, d, &mut rng));
    let head = Linear::new(d, 1, &mut rng);
    Model::baseline("Transformer", body, head)
}

/// A stage of the paper's Fig. 5 stack.
enum Stage {
    Tcn,
    BiGru,
    Attention,
}

/// One tuned member of the Fig. 5 stack with the given stages, in order.
/// Each network is deliberately small: the paper's datasets yield only
/// ~200 training windows.
fn fig5_member(seed: u64, stages: &[Stage]) -> SeqTrainer {
    let channels = 8;
    let gru_hidden = 6; // BiGRU output = 12
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = Sequential::new();
    let mut width = 1;
    for stage in stages {
        body = match stage {
            Stage::Tcn => {
                let dilated_1 = TcnBlock::new(width, channels, 3, 1, &mut rng);
                let dilated_2 = TcnBlock::new(channels, channels, 3, 2, &mut rng);
                width = channels;
                body.push(dilated_1).push(dilated_2)
            }
            Stage::BiGru => {
                let layer = BiGru::new(width, gru_hidden, &mut rng);
                width = 2 * gru_hidden;
                body.push(layer)
            }
            Stage::Attention => body.push(MultiHeadAttention::new(width, 2, &mut rng)),
        };
    }
    // The head also takes the skip connection's raw last value.
    let head = Linear::new(width + 1, 1, &mut rng);
    SeqTrainer::new(Box::new(body), head, Recipe::Tuned)
}

/// The paper's model (Fig. 5): **TCN → BiGRU → multi-head attention**.
///
/// The TCN captures long-range structure (periodicity), the BiGRU models
/// short-range dependencies in both directions, and the attention stage
/// catches sudden bursts. At the paper's data scale the model is a
/// 3-member deep ensemble (different initialisations, averaged
/// predictions) — the standard variance-reduction recipe (see
/// EXPERIMENTS.md).
pub fn ours(config: &TrainConfig) -> Model {
    use Stage::*;
    let members = (0..3u64)
        .map(|i| fig5_member(config.seed.wrapping_add(i * 7919), &[Tcn, BiGru, Attention]))
        .collect();
    Model {
        name: "Ours",
        members,
    }
}

/// All five Table III models in the paper's row order.
pub fn all_models(config: &TrainConfig) -> Vec<Model> {
    vec![
        linear(config),
        rnn(config),
        tcn(config),
        transformer(config),
        ours(config),
    ]
}

/// The ablation's reduced variants: the first member of [`ours`] with one
/// Fig. 5 stage removed each, trained with the same recipe.
pub fn ablation_variants(config: &TrainConfig) -> Vec<Model> {
    use Stage::*;
    [
        ("no-TCN", [BiGru, Attention]),
        ("no-BiGRU", [Tcn, Attention]),
        ("no-attention", [Tcn, BiGru]),
    ]
    .into_iter()
    .map(|(name, stages)| Model {
        name,
        members: vec![fig5_member(config.seed, &stages)],
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 2.0 * std::f64::consts::PI / 24.0).sin())
            .collect()
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 15,
            seed: 3,
        }
    }

    fn check_learns(mut model: Model, tolerance: f64) {
        let config = quick_config();
        let series = sine_series(200);
        let loss = model.fit(&series[..160], &config);
        assert!(loss.is_finite(), "{}: loss diverged", model.name);
        // Evaluate one-step predictions on the tail.
        let samples = windows(&series[160 - WINDOW..], WINDOW);
        let mut total_err = 0.0;
        for (w, t) in &samples {
            total_err += (model.predict_next(w) - t).abs();
        }
        let mae = total_err / samples.len() as f64;
        assert!(
            mae < tolerance,
            "{}: test MAE {mae} above {tolerance}",
            model.name
        );
    }

    #[test]
    fn linear_learns_sine() {
        check_learns(linear(&quick_config()), 0.3);
    }

    #[test]
    fn rnn_learns_sine() {
        check_learns(rnn(&quick_config()), 0.35);
    }

    #[test]
    fn tcn_learns_sine() {
        check_learns(tcn(&quick_config()), 0.35);
    }

    #[test]
    fn transformer_learns_sine() {
        check_learns(transformer(&quick_config()), 0.5);
    }

    #[test]
    fn hammer_model_learns_sine() {
        check_learns(ours(&quick_config()), 0.3);
    }

    #[test]
    fn model_names_are_the_table_rows_and_the_variants() {
        let config = quick_config();
        let names: Vec<&str> = all_models(&config)
            .into_iter()
            .chain(ablation_variants(&config))
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "Linear",
                "RNN",
                "TCN",
                "Transformer",
                "Ours",
                "no-TCN",
                "no-BiGRU",
                "no-attention"
            ]
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let config = quick_config();
        let series = sine_series(100);
        let mut a = ours(&config);
        let mut b = ours(&config);
        let la = a.fit(&series, &config);
        let lb = b.fit(&series, &config);
        assert_eq!(la, lb);
        let w = &series[..WINDOW];
        assert_eq!(a.predict_next(w), b.predict_next(w));
    }

    #[test]
    fn flatten_turns_the_window_into_one_row_and_back() {
        let x = Mat::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let y = Flatten.forward(&x);
        assert_eq!((y.rows(), y.cols()), (1, 3));
        assert_eq!(Flatten.backward(&y), x);
    }

    #[test]
    fn positional_encoding_identity_backward() {
        let mut pe = PositionalEncoding;
        let x = Mat::from_vec(3, 2, vec![0.0; 6]);
        let y = pe.forward(&x);
        // Encoding alone: y[0][1] = cos(0) = 1.
        assert!((y.get(0, 1) - 1.0).abs() < 1e-6);
        let g = Mat::from_vec(3, 2, vec![1.0; 6]);
        assert_eq!(pe.backward(&g), g);
    }

    #[test]
    fn fit_on_too_short_series_returns_nan() {
        let config = quick_config();
        assert!(linear(&config).fit(&[1.0, 2.0], &config).is_nan());
    }
}
