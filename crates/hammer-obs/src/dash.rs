//! ASCII dashboard: the framework's Grafana stand-in. Renders a TPS
//! sparkline, a latency quantile table over every registered
//! histogram, per-node resource rows (gauges and counters), and the
//! tail of the event journal.

use std::fmt::Write as _;

use crate::journal::Journal;
use crate::metrics::Registry;
use crate::Obs;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// How many trailing journal events the dashboard shows.
const JOURNAL_TAIL: usize = 8;

/// Render a one-line sparkline for `points` (empty input → empty
/// string; a constant series renders mid-height).
pub(crate) fn sparkline(points: &[f64]) -> String {
    if points.is_empty() {
        return String::new();
    }
    let lo = points.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = points.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    points
        .iter()
        .map(|&p| {
            let level = if span <= f64::EPSILON {
                SPARK.len() / 2
            } else {
                (((p - lo) / span) * (SPARK.len() - 1) as f64).round() as usize
            };
            SPARK[level.min(SPARK.len() - 1)]
        })
        .collect()
}

/// Render the full dashboard from an [`Obs`] bundle plus the run's TPS
/// series (transactions per second per sample interval).
pub fn render_dashboard(obs: &Obs, tps_series: &[f64]) -> String {
    let mut out = String::new();
    render_tps(&mut out, tps_series);
    render_latency_table(&mut out, obs.registry());
    render_resources(&mut out, obs.registry());
    render_journal_tail(&mut out, obs.journal());
    out
}

fn render_tps(out: &mut String, tps: &[f64]) {
    let _ = writeln!(out, "== TPS ==");
    if tps.is_empty() {
        let _ = writeln!(out, "(no samples)");
        let _ = writeln!(out);
        return;
    }
    let lo = tps.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = tps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = tps.iter().sum::<f64>() / tps.len() as f64;
    let _ = writeln!(out, "{}", sparkline(tps));
    let _ = writeln!(
        out,
        "min {lo:.1}  mean {mean:.1}  max {hi:.1}  ({} samples)",
        tps.len()
    );
    let _ = writeln!(out);
}

fn render_latency_table(out: &mut String, registry: &Registry) {
    let _ = writeln!(out, "== Latency quantiles (s) ==");
    let hists = registry.histograms();
    if hists.is_empty() {
        let _ = writeln!(out, "(no histograms)");
        let _ = writeln!(out);
        return;
    }
    let name_w = hists
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max("histogram".len());
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
        "histogram", "count", "p50", "p95", "p99", "max"
    );
    for (name, snap) in hists {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>10.6}  {:>10.6}  {:>10.6}  {:>10.6}",
            name,
            snap.count,
            ns_to_s(snap.p50()),
            ns_to_s(snap.p95()),
            ns_to_s(snap.p99()),
            ns_to_s(snap.max),
        );
    }
    let _ = writeln!(out);
}

fn render_resources(out: &mut String, registry: &Registry) {
    let gauges = registry.gauges();
    let counters = registry.counters();
    let _ = writeln!(out, "== Resources ==");
    if gauges.is_empty() && counters.is_empty() {
        let _ = writeln!(out, "(no metrics)");
        let _ = writeln!(out);
        return;
    }
    let name_w = gauges
        .iter()
        .chain(counters.iter())
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max("metric".len());
    let _ = writeln!(out, "{:<name_w$}  {:>14}  kind", "metric", "value");
    for (name, value) in &gauges {
        let _ = writeln!(out, "{name:<name_w$}  {value:>14}  gauge");
    }
    for (name, value) in &counters {
        let _ = writeln!(out, "{name:<name_w$}  {value:>14}  counter");
    }
    let _ = writeln!(out);
}

fn render_journal_tail(out: &mut String, journal: &Journal) {
    let events = journal.events();
    let _ = writeln!(
        out,
        "== Journal (last {JOURNAL_TAIL} of {}) ==",
        events.len()
    );
    let start = events.len().saturating_sub(JOURNAL_TAIL);
    if events.is_empty() {
        let _ = writeln!(out, "(empty)");
        return;
    }
    for e in &events[start..] {
        let _ = writeln!(
            out,
            "[{:>10.3}s] {:<15} {:<24} {} value={}",
            e.at.as_secs_f64(),
            e.kind.as_str(),
            e.node,
            e.detail,
            e.value
        );
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;
    use std::time::Duration;

    #[test]
    fn sparkline_scales_and_handles_edges() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.chars().count(), 3);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        let chars: Vec<char> = ramp.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[3], '█');
    }

    #[test]
    fn dashboard_renders_every_section() {
        let obs = Obs::new();
        obs.registry()
            .counter("hammer_driver_submitted_total")
            .add(10);
        obs.registry().gauge("hammer_chain_mempool_depth").set(3);
        obs.spans()
            .record(Stage::InBlock, Duration::from_millis(25));
        obs.journal()
            .block_seal(Duration::from_secs(1), "eth-node-0", 1, 50);

        let text = render_dashboard(&obs, &[10.0, 20.0, 15.0]);
        assert!(text.contains("== TPS =="));
        assert!(text.contains("3 samples"));
        assert!(text.contains("== Latency quantiles"));
        assert!(text.contains("hammer_span_stage_ns{stage=\"in_block\"}"));
        assert!(text.contains("== Resources =="));
        assert!(text.contains("hammer_driver_submitted_total"));
        assert!(text.contains("== Journal"));
        assert!(text.contains("block_seal"));
    }

    #[test]
    fn dashboard_survives_an_empty_run() {
        let obs = Obs::disabled();
        let text = render_dashboard(&obs, &[]);
        assert!(text.contains("(no samples)"));
        assert!(text.contains("(no histograms)"));
        assert!(text.contains("(empty)"));
    }
}
