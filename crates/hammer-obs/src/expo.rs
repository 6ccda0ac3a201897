//! Prometheus text-format exposition: a renderer for [`Registry`]
//! contents and a minimal parser used to round-trip the output in
//! tests (and by anything that wants to scrape a run).
//!
//! Histograms are rendered in the native Prometheus histogram shape —
//! cumulative `_bucket{le="…"}` series over a fixed geometric boundary
//! ladder, plus `_sum` and `_count`. Metric families are emitted in
//! sorted name order so output is deterministic.

use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, Registry};

/// `le` boundary ladder for exposed histograms: powers of four across
/// the full range recorded in practice (ns-scale values up to ~1.2e18).
fn le_bounds() -> impl Iterator<Item = u64> {
    (0..31u32).map(|k| 1u64 << (2 * k))
}

/// Render every metric in `registry` in Prometheus text format. A
/// disabled registry renders to an empty string.
pub(crate) fn render(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        family_header(&mut out, &name, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in registry.gauges() {
        family_header(&mut out, &name, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, snap) in registry.histograms() {
        family_header(&mut out, &name, "histogram");
        render_histogram(&mut out, &name, &snap);
    }
    out
}

/// Emit a `# TYPE` line once per metric family (base name without
/// labels), relying on the registry's sorted iteration order to group
/// label variants of one family together.
fn family_header(out: &mut String, full_name: &str, kind: &str) {
    let base = base_name(full_name);
    let marker = format!("# TYPE {base} {kind}\n");
    if !out.ends_with(&marker) && !out.contains(&marker) {
        out.push_str(&marker);
    }
}

fn base_name(full_name: &str) -> &str {
    full_name.split('{').next().unwrap_or(full_name)
}

/// Split `name{a="b"}` into (`name`, `a="b"`); the label part is empty
/// when the metric has no labels.
fn split_labels(full_name: &str) -> (&str, &str) {
    match full_name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}')),
        None => (full_name, ""),
    }
}

fn render_histogram(out: &mut String, full_name: &str, snap: &HistogramSnapshot) {
    let (base, labels) = split_labels(full_name);
    let sep = if labels.is_empty() { "" } else { "," };
    for bound in le_bounds() {
        let _ = writeln!(
            out,
            "{base}_bucket{{{labels}{sep}le=\"{bound}\"}} {}",
            snap.cumulative_le(bound)
        );
    }
    let _ = writeln!(
        out,
        "{base}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        snap.count
    );
    if labels.is_empty() {
        let _ = writeln!(out, "{base}_sum {}", snap.sum);
        let _ = writeln!(out, "{base}_count {}", snap.count);
    } else {
        let _ = writeln!(out, "{base}_sum{{{labels}}} {}", snap.sum);
        let _ = writeln!(out, "{base}_count{{{labels}}} {}", snap.count);
    }
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (without labels).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse Prometheus text format into samples. Comment (`#`) and blank
/// lines are skipped. Returns an error naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(samples)
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (name_part, value_part) = match line.find('{') {
        Some(_) => {
            let close = line.rfind('}').ok_or("unterminated label set")?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let sp = line.find(' ').ok_or("missing value")?;
            (&line[..sp], line[sp..].trim())
        }
    };
    let value: f64 = if value_part == "+Inf" {
        f64::INFINITY
    } else {
        value_part
            .parse()
            .map_err(|_| format!("bad value {value_part:?}"))?
    };
    let (name, label_str) = split_labels(name_part);
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let mut labels = Vec::new();
    if !label_str.is_empty() {
        for pair in label_str.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad label {pair:?}"))?;
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted label value {v:?}"))?;
            labels.push((k.to_owned(), v.to_owned()));
        }
    }
    Ok(Sample {
        name: name.to_owned(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let reg = Registry::new();
        reg.counter("hammer_driver_submitted_total").add(1234);
        reg.counter_with(
            "hammer_net_link_bytes_total",
            &[("from", "c0"), ("to", "eth-node-0")],
        )
        .add(987_654);
        reg.gauge("hammer_chain_mempool_depth").set(42);
        let h = reg.histogram_with("hammer_span_stage_ns", &[("stage", "in_block")]);
        for v in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }

        let text = render(&reg);
        let samples = parse(&text).expect("rendered text must parse");

        let find = |name: &str| {
            samples
                .iter()
                .filter(|s| s.name == name)
                .collect::<Vec<_>>()
        };
        assert_eq!(find("hammer_driver_submitted_total")[0].value, 1234.0);

        let link = find("hammer_net_link_bytes_total");
        assert_eq!(link[0].label("from"), Some("c0"));
        assert_eq!(link[0].value, 987_654.0);

        assert_eq!(find("hammer_chain_mempool_depth")[0].value, 42.0);

        let count = find("hammer_span_stage_ns_count");
        assert_eq!(count[0].label("stage"), Some("in_block"));
        assert_eq!(count[0].value, 5.0);
        let sum = find("hammer_span_stage_ns_sum");
        assert_eq!(sum[0].value, 1_111_100.0);

        // Bucket series must be cumulative and end at the total count.
        let buckets = find("hammer_span_stage_ns_bucket");
        let mut prev = 0.0;
        for b in &buckets {
            assert!(b.value >= prev, "bucket series must be cumulative");
            prev = b.value;
        }
        let inf = buckets
            .iter()
            .find(|b| b.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 5.0);
        assert_eq!(inf.label("stage"), Some("in_block"));
    }

    #[test]
    fn type_lines_appear_once_per_family() {
        let reg = Registry::new();
        reg.counter_with("x_total", &[("a", "1")]).inc();
        reg.counter_with("x_total", &[("a", "2")]).inc();
        let text = render(&reg);
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
    }

    #[test]
    fn disabled_registry_renders_empty() {
        let reg = Registry::disabled();
        reg.counter("x").inc();
        assert!(render(&reg).is_empty());
        assert!(parse(&render(&reg)).unwrap().is_empty());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("metric_without_value").is_err());
        assert!(parse("m{unterminated 1").is_err());
        assert!(parse("m{k=unquoted} 1").is_err());
        assert!(parse("m nanvalue").is_err());
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let text = "# HELP m something\n# TYPE m counter\n\nm 3\n";
        let samples = parse(text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "m");
        assert_eq!(samples[0].value, 3.0);
    }
}
