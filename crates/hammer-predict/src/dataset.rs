//! Dataset pipeline: normalisation, windowing, chronological splits.
//!
//! The paper pre-processes each application's transaction log by "dividing
//! them into hourly intervals and counting the number of transactions in
//! each interval" (§V-E); here the hourly series arrives directly (from
//! `hammer-workload`'s trace generators) and is normalised and windowed
//! for supervised next-step prediction.

/// Input window length every model takes: 24 = one day of hourly buckets.
pub const WINDOW: usize = 24;

/// Z-score normalisation fitted on training data only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normalizer {
    /// Training-set mean.
    pub mean: f64,
    /// Training-set standard deviation (floored to avoid division by 0).
    pub std: f64,
}

impl Normalizer {
    /// Fits on a series.
    pub(crate) fn fit(series: &[f64]) -> Self {
        if series.is_empty() {
            return Normalizer {
                mean: 0.0,
                std: 1.0,
            };
        }
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var = series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / series.len() as f64;
        Normalizer {
            mean,
            std: var.sqrt().max(1e-9),
        }
    }

    /// Normalises one value.
    pub(crate) fn normalize(&self, v: f64) -> f64 {
        (v - self.mean) / self.std
    }

    /// Inverts the normalisation.
    pub(crate) fn denormalize(&self, v: f64) -> f64 {
        v * self.std + self.mean
    }
}

/// A windowed next-step-prediction dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Normalised training series.
    pub train: Vec<f64>,
    /// Normalised test series (chronologically after `train`).
    pub test: Vec<f64>,
    /// The fitted normaliser (from the training split only).
    pub normalizer: Normalizer,
}

impl Dataset {
    /// Splits `series` chronologically at `train_fraction` and normalises
    /// both parts with training statistics.
    ///
    /// # Panics
    ///
    /// Panics when the fraction is outside `(0, 1)`, or the series is too
    /// short to produce at least one training and one test sample.
    pub fn new(series: &[f64], train_fraction: f64) -> Self {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train_fraction must be in (0, 1)"
        );
        let split = (series.len() as f64 * train_fraction).round() as usize;
        assert!(
            split > WINDOW && series.len() - split > WINDOW,
            "series too short: len {} window {WINDOW} split {split}",
            series.len()
        );
        let normalizer = Normalizer::fit(&series[..split]);
        let train = series[..split]
            .iter()
            .map(|v| normalizer.normalize(*v))
            .collect();
        // Test windows may reach back into the train tail for context, so
        // keep `WINDOW` values of overlap.
        let test = series[split - WINDOW..]
            .iter()
            .map(|v| normalizer.normalize(*v))
            .collect();
        Dataset {
            train,
            test,
            normalizer,
        }
    }

    /// `(window, target)` samples over the test split.
    pub fn test_samples(&self) -> Vec<(&[f64], f64)> {
        windows(&self.test, WINDOW)
    }
}

/// Sliding `(window, next)` samples over a series.
pub(crate) fn windows(series: &[f64], window: usize) -> Vec<(&[f64], f64)> {
    if series.len() <= window {
        return Vec::new();
    }
    (0..series.len() - window)
        .map(|i| (&series[i..i + window], series[i + window]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64).sin() * 10.0 + 50.0).collect()
    }

    #[test]
    fn normalizer_roundtrip() {
        let s = series(100);
        let norm = Normalizer::fit(&s);
        for v in &s {
            let back = norm.denormalize(norm.normalize(*v));
            assert!((back - v).abs() < 1e-9);
        }
    }

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let s = series(1000);
        let norm = Normalizer::fit(&s);
        let normalized: Vec<f64> = s.iter().map(|v| norm.normalize(*v)).collect();
        let mean = normalized.iter().sum::<f64>() / normalized.len() as f64;
        let var =
            normalized.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / normalized.len() as f64;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalizer_constant_series_safe() {
        let norm = Normalizer::fit(&[5.0; 10]);
        assert!(norm.normalize(5.0).is_finite());
    }

    #[test]
    fn windows_cover_series() {
        let s: Vec<f64> = (0..10).map(|v| v as f64).collect();
        let w = windows(&s, 3);
        assert_eq!(w.len(), 7);
        assert_eq!(w[0], (&s[0..3], 3.0));
        assert_eq!(w[6], (&s[6..9], 9.0));
    }

    #[test]
    fn windows_short_series_empty() {
        let s = vec![1.0, 2.0];
        assert!(windows(&s, 3).is_empty());
        assert!(windows(&s, 2).is_empty());
    }

    #[test]
    fn dataset_split_is_chronological_with_context_overlap() {
        let s = series(200);
        let ds = Dataset::new(&s, 0.8);
        assert_eq!(ds.train.len(), 160);
        // The test split keeps `WINDOW` values of overlap with the train tail.
        assert_eq!(ds.test.len(), 40 + WINDOW);
        // First test target must be the value at index 160 of the source.
        let first_target = ds.test_samples()[0].1;
        let expected = ds.normalizer.normalize(s[160]);
        assert!((first_target - expected).abs() < 1e-9);
    }

    #[test]
    fn sample_counts() {
        let s = series(200);
        let ds = Dataset::new(&s, 0.8);
        assert_eq!(windows(&ds.train, WINDOW).len(), 160 - WINDOW);
        assert_eq!(ds.test_samples().len(), 40);
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn too_short_panics() {
        let _ = Dataset::new(&series(40), 0.8);
    }
}
