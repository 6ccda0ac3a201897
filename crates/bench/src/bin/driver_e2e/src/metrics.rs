//! The benchmark's metric tables: every name `BENCHMARK.json` lists, with
//! its unit and direction. A unit test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the driver sees, measured with tracing off; reported by
/// every workload, each with a regression bound in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 4] = [
    higher("driver_wall_tps", "1/s"),
    lower("cpu_us_per_tx", "us"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// Single layers (layer = module name), from the traced invocation. The
/// first four are user-facing numbers that are too unsteady on this class
/// of host to carry a bound (see README, "What is not bounded").
pub const PER_LAYER: [MetricDef; 49] = [
    lower("commit_latency_p50_ms", "ms"),
    lower("commit_latency_p99_ms", "ms"),
    lower("teardown_s", "s"),
    lower("pacing_overrun_pct", "%"),
    lower("workload.generate_ns_per_tx", "ns"),
    lower("crypto.sign_ns", "ns"),
    lower("crypto.verify_ns", "ns"),
    lower("crypto.tx_id_hash_ns", "ns"),
    lower("signer.serial_ns_per_tx", "ns"),
    lower("signer.pipelined_ns_per_tx", "ns"),
    higher("signer.parallel_efficiency", "ratio"),
    lower("driver.prepare_ms", "ms"),
    lower("driver.report_ms", "ms"),
    lower("driver.submit_gap_ns_p50", "ns"),
    lower("driver.inflight_max", "count"),
    lower("pacer.lateness_ms_p50", "ms"),
    lower("pacer.lateness_ms_p99", "ms"),
    lower("tracker.insert_ns", "ns"),
    lower("tracker.match_ns_per_tx", "ns"),
    lower("tracker.probe_steps_per_tx", "count"),
    lower("tracker.bloom_rebuilds", "count"),
    lower("monitor.polls", "count"),
    higher("monitor.useful_poll_ratio", "ratio"),
    lower("monitor.block_fetch_ns_per_tx", "ns"),
    lower("monitor.submit_to_observed_ms_p50", "ms"),
    lower("monitor.submit_to_observed_ms_p99", "ms"),
    higher("chain.submit_calls", "count"),
    lower("chain.submit_errors", "count"),
    lower("chain.submit_ns_p50", "ns"),
    lower("chain.submit_ns_p99", "ns"),
    lower("kernel.admit_ns_per_tx", "ns"),
    lower("kernel.seal_ns_per_tx", "ns"),
    lower("codec.encode_signed_tx_ns", "ns"),
    lower("codec.decode_signed_tx_ns", "ns"),
    lower("codec.signed_tx_bytes", "B"),
    lower("codec.encode_block_ns_per_tx", "ns"),
    lower("codec.decode_block_ns_per_tx", "ns"),
    lower("codec.block_bytes_per_tx", "B"),
    lower("rpc.dispatch_ns", "ns"),
    lower("net.rtt_empty_us_p50", "us"),
    lower("net.rtt_empty_us_p99", "us"),
    higher("net.connections", "count"),
    lower("net.reconnects", "count"),
    lower("deploy.spawn_handshake_ms", "ms"),
    lower("deploy.first_health_ms", "ms"),
    lower("deploy.shutdown_ms", "ms"),
    lower("store.report_ns_per_row", "ns"),
    higher("obs.on_tps_ratio", "ratio"),
    lower("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use hammer_rpc::json::Value;

    /// `BENCHMARK.json` sits at the repo root, above whichever manifest
    /// built this file.
    fn benchmark_json() -> Value {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return Value::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
        }
    }

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metric_tables() {
        let spec = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = spec.get(key).and_then(Value::as_array).unwrap();
            let listed: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect();
            let defined: Vec<(&str, &str, &str)> = defs
                .iter()
                .map(|d| (d.name, d.unit, d.better.name()))
                .collect();
            assert_eq!(listed, defined, "{key}");
        }
        for m in spec.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_gated_workloads() {
        let spec = benchmark_json();
        let listed = spec.get("workloads").and_then(Value::as_array).unwrap();
        let listed: Vec<(&str, &str)> = listed
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let gated: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, gated);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
