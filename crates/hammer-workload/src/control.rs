//! Temporal control sequences.
//!
//! A control sequence (paper §III-B1, step ② and §IV) is "a time sequence
//! to control the number of concurrent transactions within a time period".
//! The driver consumes one budget entry per slice: during slice `i` it
//! submits at most `budget(i)` transactions, making synthetic load follow
//! the temporal shape of a real application (or of the prediction model's
//! output).

use std::time::Duration;

/// A per-slice transaction budget.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlSequence {
    budgets: Vec<u32>,
    slice: Duration,
}

impl ControlSequence {
    /// Builds a sequence from explicit per-slice budgets.
    ///
    /// # Panics
    ///
    /// Panics when `slice` is zero.
    pub fn from_budgets(budgets: Vec<u32>, slice: Duration) -> Self {
        assert!(!slice.is_zero(), "slice duration must be positive");
        ControlSequence { budgets, slice }
    }

    /// A constant-rate sequence: `rate` transactions per slice for
    /// `slices` slices (what existing frameworks do, per the paper's
    /// critique — "they simply generate an equal number of workloads").
    pub fn constant(rate: u32, slices: usize, slice: Duration) -> Self {
        Self::from_budgets(vec![rate; slices], slice)
    }

    /// A linear ramp from `start` to `end` over `slices` slices.
    pub fn ramp(start: u32, end: u32, slices: usize, slice: Duration) -> Self {
        assert!(slices >= 1, "ramp needs at least one slice");
        let budgets = (0..slices)
            .map(|i| {
                let t = if slices == 1 {
                    0.0
                } else {
                    i as f64 / (slices - 1) as f64
                };
                (start as f64 + (end as f64 - start as f64) * t).round() as u32
            })
            .collect();
        Self::from_budgets(budgets, slice)
    }

    /// Derives a sequence from a real/synthetic trace (e.g. hourly
    /// transaction counts): the shape is preserved, the total is rescaled
    /// to `target_total`, and each trace point becomes one slice of
    /// `slice` duration.
    pub fn from_trace(trace: &[f64], target_total: usize, slice: Duration) -> Self {
        let sum: f64 = trace.iter().map(|v| v.max(0.0)).sum();
        if sum <= 0.0 || trace.is_empty() {
            return Self::from_budgets(vec![], slice);
        }
        let scale = target_total as f64 / sum;
        let budgets = trace
            .iter()
            .map(|v| (v.max(0.0) * scale).round() as u32)
            .collect();
        Self::from_budgets(budgets, slice)
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// Whether the sequence has no slices.
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// The slice duration.
    pub fn slice_duration(&self) -> Duration {
        self.slice
    }

    /// The budget of slice `i` (0 beyond the end).
    pub fn budget(&self, i: usize) -> u32 {
        self.budgets.get(i).copied().unwrap_or(0)
    }

    /// All budgets.
    pub fn budgets(&self) -> &[u32] {
        &self.budgets
    }

    /// Sum of all budgets.
    pub fn total(&self) -> u64 {
        self.budgets.iter().map(|b| *b as u64).sum()
    }

    /// Total simulated duration of the sequence.
    pub fn duration(&self) -> Duration {
        self.slice * self.budgets.len() as u32
    }

    /// Peak per-slice budget.
    pub fn peak(&self) -> u32 {
        self.budgets.iter().copied().max().unwrap_or(0)
    }

    /// Mean budget per slice.
    pub(crate) fn mean(&self) -> f64 {
        if self.budgets.is_empty() {
            return 0.0;
        }
        self.total() as f64 / self.budgets.len() as f64
    }

    /// Returns a copy rescaled so the total is (approximately) `total`.
    pub fn scaled_to_total(&self, total: usize) -> Self {
        let as_f64: Vec<f64> = self.budgets.iter().map(|b| *b as f64).collect();
        Self::from_trace(&as_f64, total, self.slice)
    }

    /// Burstiness: peak over mean (1.0 for a constant sequence).
    pub fn burstiness(&self) -> f64 {
        let mean = self.mean();
        if mean <= 0.0 {
            return 0.0;
        }
        self.peak() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_sequence() {
        let c = ControlSequence::constant(10, 5, Duration::from_secs(1));
        assert_eq!(c.len(), 5);
        assert_eq!(c.total(), 50);
        assert_eq!(c.budget(0), 10);
        assert_eq!(c.budget(99), 0);
        assert!((c.burstiness() - 1.0).abs() < 1e-9);
        assert_eq!(c.duration(), Duration::from_secs(5));
    }

    #[test]
    fn ramp_endpoints() {
        let c = ControlSequence::ramp(0, 100, 11, Duration::from_secs(1));
        assert_eq!(c.budget(0), 0);
        assert_eq!(c.budget(10), 100);
        assert_eq!(c.budget(5), 50);
    }

    #[test]
    fn ramp_single_slice() {
        let c = ControlSequence::ramp(7, 100, 1, Duration::from_secs(1));
        assert_eq!(c.budget(0), 7);
    }

    #[test]
    fn from_trace_preserves_shape_and_total() {
        let trace = [1.0, 2.0, 4.0, 2.0, 1.0];
        let c = ControlSequence::from_trace(&trace, 1000, Duration::from_secs(1));
        assert_eq!(c.len(), 5);
        let total = c.total() as i64;
        assert!((total - 1000).abs() <= 3, "total = {total}");
        assert_eq!(c.peak(), c.budget(2));
        assert!(c.budget(2) > c.budget(0) * 3);
    }

    #[test]
    fn from_trace_ignores_negatives() {
        let trace = [-5.0, 10.0];
        let c = ControlSequence::from_trace(&trace, 100, Duration::from_secs(1));
        assert_eq!(c.budget(0), 0);
        assert_eq!(c.budget(1), 100);
    }

    #[test]
    fn from_trace_empty() {
        let c = ControlSequence::from_trace(&[], 100, Duration::from_secs(1));
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn scaled_to_total_changes_sum_not_shape() {
        let c = ControlSequence::from_budgets(vec![1, 2, 3], Duration::from_secs(1));
        let scaled = c.scaled_to_total(600);
        assert_eq!(scaled.budgets(), &[100, 200, 300]);
    }

    #[test]
    #[should_panic(expected = "slice duration must be positive")]
    fn zero_slice_panics() {
        let _ = ControlSequence::constant(1, 1, Duration::ZERO);
    }

    proptest! {
        #[test]
        fn prop_from_trace_total_close(
            trace in proptest::collection::vec(0.0f64..100.0, 1..50),
            target in 100usize..10_000,
        ) {
            prop_assume!(trace.iter().sum::<f64>() > 1.0);
            let c = ControlSequence::from_trace(&trace, target, Duration::from_secs(1));
            let err = (c.total() as i64 - target as i64).abs();
            // Rounding error bounded by half a tx per slice.
            prop_assert!(err <= trace.len() as i64);
        }
    }
}
