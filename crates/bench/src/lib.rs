//! Shared harness code for the per-figure benchmark binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the full index). This library holds the
//! pieces they share: a one-call peak-throughput evaluation, result
//! formatting, the one writer of `target/bench-results/` files, and the
//! scenario sweep's cell loop.

use std::time::Duration;

use hammer_core::chaos::LeakProbe;
use hammer_core::deploy::{BackendOptions, BackendRegistry};
use hammer_core::driver::{EvalConfig, EvalReport, Evaluation, TestingMode};
use hammer_core::machine::ClientMachine;
use hammer_core::retry::RetryPolicy;
use hammer_core::scenario::{Scenario, Verdict};
use hammer_rpc::json::Value;
use hammer_store::report::render_table;
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
            drain_timeout: Duration::from_secs(120),
            listen_cost: Duration::from_micros(400),
            event_buffer: 1_000,
        }
    }

    /// Deploys the chain from `registry` on a virtual clock, executes the
    /// run and returns the report: a pure function of the spec.
    ///
    /// # Panics
    ///
    /// Panics when the chain is not a registered backend.
    pub fn run(&self, registry: &BackendRegistry) -> EvalReport {
        let deployment = registry
            .deploy(&self.chain, &BackendOptions::default())
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

/// Writes `text` to `target/bench-results/<file_name>`, creating the
/// directory. Prints the path. Failures are reported, not fatal — the
/// numbers are already on stdout.
pub fn save_result(file_name: &str, text: &str) {
    let dir = std::path::Path::new("target/bench-results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(file_name);
    match std::fs::write(&path, text) {
        Ok(()) => println!("\n[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
    }
}

/// First line of a `BENCH_<layer>.json` snapshot: the host facts its
/// numbers depend on, appended to `CRITERION_JSON` when that is set.
/// `scripts/bench_snapshot.sh` reads `sha_extensions` back to choose the
/// compress-ratio gate.
pub fn record_host(layer: &str) {
    use std::io::Write as _;
    let path = std::env::var("CRITERION_JSON").unwrap_or_default();
    if path.is_empty() {
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = format!(
        "{{\"id\":\"{layer}/_host\",\"host_cores\":{cores},\"sha_extensions\":{}}}\n",
        hammer_crypto::sha256::hardware_accelerated()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| file.write_all(line.as_bytes()))
        .expect("append the host line to CRITERION_JSON");
}

/// Writes CSV text as `target/bench-results/<name>.csv`.
pub fn save_csv(name: &str, csv: &str) {
    save_result(&format!("{name}.csv"), csv);
}

/// (backend, average rate tx/s) — the sweep's operating points: moderate
/// rates well under capacity so a scenario's own shape and faults, not
/// saturation, decide the verdict. The registry's Ethereum keeps its 15 s
/// PoW blocks; the 30 s stall budget clears that.
pub const OPERATING_POINTS: [(&str, u32); 4] = [
    ("ethereum-sim", 40),
    ("fabric-sim", 150),
    ("meepo-sim", 300),
    ("neuchain-sim", 500),
];

/// A seeded-chaos cell as an ordinary scenario: twenty one-second slices
/// under a fault schedule generated from `seed` over the deployed
/// chain's own ingress/sealer topology, SmallBank from the same seed
/// through the resilient submission path, graded by the report oracle
/// and the stall watchdog. Authored at 100 tx/s; the sweep retargets it
/// to each operating point like any corpus scenario.
pub fn seeded_chaos(seed: u64) -> Scenario {
    Scenario::builder(&format!("seeded-chaos-{seed}"))
        .describe("seeded randomized fault schedule, judged by the invariant oracle")
        .constant_load(100, 20)
        .workload_with(|w| w.seed = seed)
        .chaos_seeded(seed)
        .retry(RetryPolicy::standard())
        .expect_accounting_identity()
        .expect_no_stall()
        .build()
        .expect("the seeded-chaos scenario is statically valid")
}

/// Runs every cell in order, each between a [`LeakProbe`]'s start and
/// finish so a leaked thread or node process fails the cell it leaked
/// from (cells are sequential and `Scenario::run` joins everything it
/// started, which is what makes the whole-process probe sound here).
/// Prints per-fault-window throughput and violations as they happen,
/// then the verdict table and the summary line CI greps (`scenario
/// sweep: R cells, V violations`), and writes the verdict matrix to
/// `target/bench-results/scenario_sweep.json`. A cell whose run errors
/// ends the process with status 1.
pub fn run_cells(cells: &[Scenario]) -> Vec<Verdict> {
    let mut rows = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    for cell in cells {
        let (name, backend) = (cell.name(), cell.backend());
        let rate = cell.control().total() as f64 / cell.control().duration().as_secs_f64();
        eprintln!(
            "running {name} on {backend} at ~{rate:.0} tx/s ({})...",
            cell.deploy_mode().name()
        );
        let probe = LeakProbe::start();
        let run = cell.run();
        let leaks = probe.finish();
        let mut verdict = run.unwrap_or_else(|e| {
            eprintln!("  RUN FAILED: {e}");
            std::process::exit(1);
        });
        verdict.checks.extend(leaks);
        for w in &verdict.report.fault_windows {
            println!(
                "  {backend} / {name} [{:.1}s-{:.1}s] {}: {} committed ({:.1} TPS)",
                w.start.as_secs_f64(),
                w.end.as_secs_f64(),
                w.label,
                w.committed,
                w.tps
            );
        }
        let violations = verdict.violations();
        for violation in &violations {
            eprintln!("  VIOLATION {}: {}", violation.name, violation.detail);
        }
        let violated: Vec<&str> = violations.iter().map(|c| c.name).collect();
        rows.push(vec![
            name.to_owned(),
            backend.to_owned(),
            verdict.report.committed.to_string(),
            if verdict.stalled { "yes" } else { "no" }.to_owned(),
            if violations.is_empty() {
                "pass"
            } else {
                "FAIL"
            }
            .to_owned(),
            violated.join(","),
        ]);
        verdicts.push(verdict);
    }

    let header = [
        "scenario",
        "backend",
        "committed",
        "stalled",
        "verdict",
        "violations",
    ];
    println!("\n{}", render_table(&header, &rows));
    let runs = verdicts.iter().map(Verdict::to_value).collect();
    save_result(
        "scenario_sweep.json",
        &Value::object([("runs", Value::Array(runs))]).to_json(),
    );
    let violations: usize = verdicts.iter().map(|v| v.violations().len()).sum();
    println!(
        "scenario sweep: {} cells, {violations} violations",
        verdicts.len()
    );
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_runspec_runs_quickly_on_neuchain() {
        let mut spec = RunSpec::peak("neuchain-sim", 200, 2);
        spec.accounts = 100;
        let report = spec.run(&BackendRegistry::builtin());
        assert!(report.committed > 100, "committed = {}", report.committed);
    }

    #[test]
    fn summary_row_matches_header_len() {
        let mut spec = RunSpec::peak("neuchain-sim", 100, 2);
        spec.accounts = 50;
        let report = spec.run(&BackendRegistry::builtin());
        assert_eq!(summary_row(&report).len(), summary_header().len());
    }
}
