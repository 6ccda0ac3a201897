//! Shared harness code for the per-figure benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the full index). This library holds the
//! pieces they share: a one-call peak-throughput evaluation, result
//! formatting, and CSV output next to the binary's name.

use std::time::Duration;

use hammer_core::deploy::{BackendOptions, BackendRegistry};
use hammer_core::driver::{EvalConfig, EvalReport, Evaluation, TestingMode};
use hammer_core::machine::ClientMachine;
use hammer_workload::{ControlSequence, WorkloadConfig};

/// Everything one evaluation run needs.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The system under test, by registry name (`"fabric-sim"`, ...).
    pub chain: String,
    /// Testing mode (Hammer / Blockbench / Caliper).
    pub mode: TestingMode,
    /// Target submission rate, transactions per simulated second.
    pub rate: u32,
    /// Run length in simulated seconds.
    pub seconds: usize,
    /// Workload clients.
    pub clients: u32,
    /// Threads per client.
    pub threads_per_client: u32,
    /// Account pool size.
    pub accounts: usize,
    /// Client machine model.
    pub machine: ClientMachine,
    /// Clock speed-up.
    pub speedup: f64,
    /// Simulated drain timeout after the last submission.
    pub drain_timeout: Duration,
    /// Interactive mode: per-event listener cost.
    pub listen_cost: Duration,
    /// Interactive mode: SDK event-buffer depth before losses.
    pub event_buffer: usize,
}

impl RunSpec {
    /// A sensible default shape: peak measurement with an unconstrained
    /// client (isolates the chain side).
    pub fn peak(chain: &str, rate: u32, seconds: usize) -> Self {
        RunSpec {
            chain: chain.to_owned(),
            mode: TestingMode::TaskProcessing,
            rate,
            seconds,
            clients: 4,
            threads_per_client: 2,
            accounts: 5_000,
            machine: ClientMachine::unconstrained(),
            speedup: 100.0,
            drain_timeout: Duration::from_secs(120),
            listen_cost: Duration::from_micros(400),
            event_buffer: 1_000,
        }
    }

    /// Deploys the chain from `registry`, executes the run and returns
    /// the report.
    ///
    /// # Panics
    ///
    /// Panics when the chain is not a registered backend.
    pub fn run(&self, registry: &BackendRegistry) -> EvalReport {
        let deployment = registry
            .deploy(&self.chain, &BackendOptions::default(), self.speedup)
            .unwrap_or_else(|e| panic!("{e}"));
        let workload = WorkloadConfig {
            accounts: self.accounts,
            clients: self.clients,
            threads_per_client: self.threads_per_client,
            chain_name: self.chain.clone(),
            ..WorkloadConfig::default()
        };
        let control = ControlSequence::constant(self.rate, self.seconds, Duration::from_secs(1));
        let config = EvalConfig::builder()
            .mode(self.mode)
            .machine(self.machine)
            .signer_threads(8)
            .poll_interval(Duration::from_millis(100))
            .drain_timeout(self.drain_timeout)
            .listen_cost(self.listen_cost)
            .event_buffer(self.event_buffer)
            .build()
            .expect("valid bench config");
        Evaluation::new(config)
            .run(&deployment, &workload, &control)
            .expect("evaluation failed")
    }
}

/// One row of a summary table: chain, TPS, mean latency.
pub fn summary_row(report: &EvalReport) -> Vec<String> {
    vec![
        report.chain.clone(),
        format!("{:.1}", report.overall_tps),
        format!("{:.3}", report.latency.mean_s),
        format!("{:.3}", report.latency.p95_s),
        report.committed.to_string(),
        report.failed.to_string(),
        report.timed_out.to_string(),
        report.rejected.to_string(),
    ]
}

/// The header matching [`summary_row`].
pub fn summary_header() -> [&'static str; 8] {
    [
        "chain",
        "tps",
        "mean_lat_s",
        "p95_lat_s",
        "committed",
        "failed",
        "timed_out",
        "rejected",
    ]
}

/// Writes CSV text under `target/bench-results/<name>.csv`, creating the
/// directory. Prints the path. Failures are reported, not fatal — the
/// numbers are already on stdout.
pub fn save_csv(name: &str, csv: &str) {
    let dir = std::path::Path::new("target/bench-results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, csv) {
        Ok(()) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
    }
}

/// Formats a duration of wall time as seconds with millisecond precision.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_runspec_runs_quickly_on_neuchain() {
        let mut spec = RunSpec::peak("neuchain-sim", 200, 2);
        spec.speedup = 1000.0;
        spec.accounts = 100;
        let report = spec.run(&BackendRegistry::builtin());
        assert!(report.committed > 100, "committed = {}", report.committed);
    }

    #[test]
    fn summary_row_matches_header_len() {
        let mut spec = RunSpec::peak("neuchain-sim", 100, 2);
        spec.speedup = 1000.0;
        spec.accounts = 50;
        let report = spec.run(&BackendRegistry::builtin());
        assert_eq!(summary_row(&report).len(), summary_header().len());
    }
}
