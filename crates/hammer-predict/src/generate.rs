//! Autoregressive sequence generation (Fig. 11 and control-sequence
//! extension).
//!
//! "The model can effectively predict future trends in real loads and
//! extend time series" — a trained model is rolled forward: each predicted
//! value is appended to the window and prediction repeats, producing an
//! arbitrarily long synthetic continuation with the learned temporal
//! character.

use crate::dataset::Normalizer;
use crate::models::Model;

/// Rolls `model` forward `steps` times from `seed_window` (normalised
/// values). Returns the generated normalised values.
///
/// # Panics
///
/// Panics when the seed window is empty.
pub fn generate_sequence(model: &mut Model, seed_window: &[f64], steps: usize) -> Vec<f64> {
    assert!(!seed_window.is_empty(), "seed window must not be empty");
    let mut window = seed_window.to_vec();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let next = model.predict_next(&window);
        out.push(next);
        window.remove(0);
        window.push(next);
    }
    out
}

/// Like [`generate_sequence`] but denormalises the output back to
/// transaction counts (floored at zero — negative workloads do not
/// exist).
pub fn generate_denormalized(
    model: &mut Model,
    seed_window: &[f64],
    steps: usize,
    normalizer: &Normalizer,
) -> Vec<f64> {
    generate_sequence(model, seed_window, steps)
        .into_iter()
        .map(|v| normalizer.denormalize(v).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::WINDOW;
    use crate::models::{linear, TrainConfig};

    /// A sine with a period of one window.
    fn sine(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 2.0 * std::f64::consts::PI / WINDOW as f64).sin())
            .collect()
    }

    #[test]
    fn generates_requested_length() {
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let mut model = linear(&config);
        let series = sine(240);
        model.fit(&series, &config);
        let out = generate_sequence(&mut model, &series[..WINDOW], 40);
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn generated_sine_stays_oscillatory() {
        // A trained linear AR model on a clean sine must keep oscillating
        // rather than collapse to a constant.
        let config = TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        };
        let mut model = linear(&config);
        let series = sine(480);
        model.fit(&series, &config);
        let out = generate_sequence(&mut model, &series[..WINDOW], 96);
        let max = out.iter().copied().fold(f64::MIN, f64::max);
        let min = out.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 0.3 && min < -0.3, "collapsed: [{min}, {max}]");
    }

    #[test]
    fn denormalized_output_non_negative() {
        let config = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut model = linear(&config);
        let series = sine(120);
        model.fit(&series, &config);
        let norm = Normalizer {
            mean: 1.0,
            std: 10.0,
        };
        let out = generate_denormalized(&mut model, &series[..WINDOW], 30, &norm);
        assert!(out.iter().all(|v| *v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "seed window must not be empty")]
    fn empty_seed_panics() {
        let mut model = linear(&TrainConfig::default());
        let _ = generate_sequence(&mut model, &[], 5);
    }
}
