//! Transaction-lifecycle spans.
//!
//! A transaction moves through a fixed pipeline:
//!
//! ```text
//! generated → signed → submitted → retried{n} → in-block → matched
//! ```
//!
//! Rather than keeping one allocation per in-flight transaction, the
//! driver records a **duration sample per stage transition** into a
//! per-stage histogram. Stage semantics (what interval each sample
//! covers) are documented on [`Stage`] and in DESIGN.md §9. All
//! timestamps come from the simulation clock, so samples are
//! comparable across speedups.

use std::time::Duration;

use crate::metrics::{Histogram, Registry};

/// Pipeline stage of a transaction's life. Each stage has a duration
/// histogram measuring the interval that *ends* at that stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Workload generation cost per transaction (amortised over the
    /// generated batch).
    Generated,
    /// Per-transaction signing duration inside the signer pool.
    Signed,
    /// Worker pull → chain acceptance (includes retry backoff when the
    /// first attempt is rejected).
    Submitted,
    /// One sample per retry backoff pause actually slept.
    Retried,
    /// Submission start → block-inclusion timestamp (commit latency).
    InBlock,
    /// Block-inclusion timestamp → the moment the async matcher
    /// observed the commit (the paper's task-processing lag ξ).
    Matched,
}

impl Stage {
    /// All stages in pipeline order.
    pub(crate) const ALL: [Stage; 6] = [
        Stage::Generated,
        Stage::Signed,
        Stage::Submitted,
        Stage::Retried,
        Stage::InBlock,
        Stage::Matched,
    ];

    /// Stable lowercase label used in metric names.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Stage::Generated => "generated",
            Stage::Signed => "signed",
            Stage::Submitted => "submitted",
            Stage::Retried => "retried",
            Stage::InBlock => "in_block",
            Stage::Matched => "matched",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Generated => 0,
            Stage::Signed => 1,
            Stage::Submitted => 2,
            Stage::Retried => 3,
            Stage::InBlock => 4,
            Stage::Matched => 5,
        }
    }
}

/// Base metric name of the per-stage duration histograms; the stage is
/// attached as a `stage` label.
pub(crate) const SPAN_METRIC: &str = "hammer_span_stage_ns";

/// Bundle of per-stage duration histograms registered on a
/// [`Registry`]. Cloning shares the underlying histograms.
#[derive(Clone)]
pub struct LifecycleSpans {
    stages: [Histogram; 6],
}

impl LifecycleSpans {
    /// Register one histogram per stage on `registry` (disabled
    /// registries yield disabled spans).
    pub(crate) fn new(registry: &Registry) -> Self {
        let stages =
            Stage::ALL.map(|s| registry.histogram_with(SPAN_METRIC, &[("stage", s.as_str())]));
        LifecycleSpans { stages }
    }

    /// Disabled spans: every record is a no-op.
    pub(crate) fn disabled() -> Self {
        LifecycleSpans::new(&Registry::disabled())
    }

    /// Record a duration sample for `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, d: Duration) {
        self.stages[stage.index()].record_duration(d);
    }

    /// Histogram handle for one stage.
    pub fn histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LifecycleSpans {
        /// Whether records take effect.
        fn is_enabled(&self) -> bool {
            self.stages.iter().all(Histogram::is_enabled)
        }
    }

    #[test]
    fn stages_record_into_distinct_histograms() {
        let reg = Registry::new();
        let spans = LifecycleSpans::new(&reg);
        spans.record(Stage::Signed, Duration::from_micros(5));
        spans.record(Stage::Signed, Duration::from_micros(7));
        spans.record(Stage::InBlock, Duration::from_millis(40));
        assert_eq!(spans.histogram(Stage::Signed).count(), 2);
        assert_eq!(spans.histogram(Stage::InBlock).count(), 1);
        assert_eq!(spans.histogram(Stage::Matched).count(), 0);
        // Registered under the labelled metric name.
        let names: Vec<String> = reg.histograms().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&format!("{SPAN_METRIC}{{stage=\"signed\"}}")));
    }

    #[test]
    fn clones_share_state_and_disabled_is_inert() {
        let reg = Registry::new();
        let spans = LifecycleSpans::new(&reg);
        let other = spans.clone();
        other.record(Stage::Retried, Duration::from_millis(10));
        assert_eq!(spans.histogram(Stage::Retried).count(), 1);

        let off = LifecycleSpans::disabled();
        off.record(Stage::Retried, Duration::from_millis(10));
        assert_eq!(off.histogram(Stage::Retried).count(), 0);
        assert!(!off.is_enabled());
    }
}
