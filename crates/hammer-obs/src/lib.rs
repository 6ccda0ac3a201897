//! Observability layer for the Hammer framework.
//!
//! The paper's visualisation phase (§III-B3) scrapes per-node metrics
//! into Prometheus and renders dashboards in Grafana. This crate is
//! the in-process stand-in for that stack:
//!
//! * [`metrics`] — a unified [`Registry`] of atomic counters, gauges,
//!   and lock-free log-bucketed latency [`Histogram`]s (mergeable,
//!   p50/p95/p99/max).
//! * [`span`] — transaction-lifecycle stage histograms
//!   (generated → signed → submitted → retried → in-block → matched),
//!   all on simulation time.
//! * [`journal`] — a bounded ring buffer of discrete run events
//!   (fault transitions, backpressure, retry exhaustion, block seals)
//!   with a JSONL sink.
//! * [`expo`] — Prometheus text-format exposition plus a parser.
//! * [`dash`] — an ASCII dashboard (TPS sparkline, latency quantile
//!   table, resource rows, journal tail).
//!
//! The whole layer hangs together in an [`Obs`] bundle that the
//! network substrate carries (`SimNetwork::install_obs`), so every
//! component — driver, signer pool, chain sims — reaches the same
//! registry without plumbing changes. A disabled bundle (the default)
//! turns every record into one predictable branch, keeping
//! instrumentation near-zero-cost when off.

#![warn(missing_docs)]

pub mod dash;
pub mod expo;
pub mod journal;
pub mod metrics;
pub mod span;

pub use dash::render_dashboard;
pub use expo::parse as parse_prometheus;
pub use journal::{EventKind, Journal, JournalEvent};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::Stage;

use span::LifecycleSpans;

/// The observability bundle: one registry, one journal, one set of
/// lifecycle spans. Cloning shares all underlying state (handles are
/// `Arc`-backed), so a bundle can be installed once on the network and
/// fetched from any component.
#[derive(Clone)]
pub struct Obs {
    registry: Registry,
    journal: Journal,
    spans: LifecycleSpans,
}

impl Obs {
    /// Live bundle with the default journal capacity.
    pub fn new() -> Self {
        let registry = Registry::new();
        let spans = LifecycleSpans::new(&registry);
        Obs {
            registry,
            journal: Journal::new(),
            spans,
        }
    }

    /// Disabled bundle: every record, push, and span is a no-op and
    /// the exposition renders empty.
    pub fn disabled() -> Self {
        Obs {
            registry: Registry::disabled(),
            journal: Journal::disabled(),
            spans: LifecycleSpans::disabled(),
        }
    }

    /// Whether this bundle records anything. Hot paths gate timestamp
    /// capture on this.
    pub fn enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The transaction-lifecycle span histograms.
    pub fn spans(&self) -> &LifecycleSpans {
        &self.spans
    }

    /// Render the registry in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        expo::render(&self.registry)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bundle_shares_state_across_clones() {
        let obs = Obs::new();
        let other = obs.clone();
        other.registry().counter("c").inc();
        other
            .spans()
            .record(Stage::Signed, Duration::from_micros(1));
        other.journal().block_seal(Duration::ZERO, "n", 1, 1);
        assert_eq!(obs.registry().counter("c").value(), 1);
        assert_eq!(obs.spans().histogram(Stage::Signed).count(), 1);
        assert_eq!(obs.journal().len(), 1);
        assert!(obs.enabled());
    }

    #[test]
    fn disabled_bundle_is_fully_inert() {
        let obs = Obs::disabled();
        obs.registry().counter("c").inc();
        obs.spans().record(Stage::Signed, Duration::from_micros(1));
        obs.journal().block_seal(Duration::ZERO, "n", 1, 1);
        assert!(!obs.enabled());
        assert!(obs.render_prometheus().is_empty());
        assert!(obs.journal().is_empty());
    }
}
