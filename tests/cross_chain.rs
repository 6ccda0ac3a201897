//! One driver, four architectures: the generic-interface claim as an
//! integration test. Every simulated chain must complete the same
//! SmallBank evaluation with internally consistent reports. Each run is on
//! a virtual clock, so its counts are exact: a change to a chain's model or
//! to the driver that moves one shows here as a new number.

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer::core::driver::{EvalConfig, EvalReport, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::ethereum::EthereumConfig;
use hammer::workload::{ControlSequence, WorkloadConfig};

fn run_chain(registry: &BackendRegistry, name: &str, rate: u32, seconds: usize) -> EvalReport {
    let deployment = registry.deploy(name, &BackendOptions::default()).unwrap();
    let workload = WorkloadConfig {
        accounts: 1_000,
        clients: 2,
        threads_per_client: 2,
        chain_name: name.to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(rate, seconds, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .drain_timeout(Duration::from_secs(200))
        .build()
        .expect("valid config");
    Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation failed")
}

fn assert_consistent(report: &EvalReport, expected_total: u64) {
    assert_eq!(
        report.submitted + report.rejected,
        expected_total,
        "{}: submissions accounted for",
        report.chain
    );
    assert_eq!(
        (report.committed + report.failed + report.timed_out) as u64,
        expected_total,
        "{}: every record classified",
        report.chain
    );
    assert!(report.overall_tps > 0.0, "{}: no throughput", report.chain);
    assert!(report.latency.count > 0, "{}: no latencies", report.chain);
}

#[test]
fn fabric_completes_the_common_workload() {
    // Under the zipf-0.99 workload intra-block MVCC conflicts on hot
    // accounts fail what does not commit.
    let report = run_chain(&BackendRegistry::builtin(), "fabric-sim", 100, 6);
    assert_consistent(&report, 600);
    assert_eq!(report.committed, 540, "committed");
}

#[test]
fn neuchain_completes_the_common_workload() {
    let report = run_chain(&BackendRegistry::builtin(), "neuchain-sim", 100, 6);
    assert_consistent(&report, 600);
    assert_eq!(report.committed, 600, "committed");
    // Deterministic ordering commits within roughly an epoch.
    assert!(
        report.latency.mean_s < 1.0,
        "neuchain latency {:.3}s",
        report.latency.mean_s
    );
}

#[test]
fn meepo_completes_the_common_workload_across_shards() {
    let report = run_chain(&BackendRegistry::builtin(), "meepo-sim", 100, 6);
    assert_consistent(&report, 600);
    assert_eq!(report.committed, 600, "committed");
}

#[test]
fn ethereum_commits_with_short_private_blocks() {
    // A short-block private net so the test stays fast.
    let mut registry = BackendRegistry::builtin();
    registry.register("ethereum-sim", |_, clock, net| {
        let config = EthereumConfig {
            block_interval: Duration::from_secs(2),
            ..EthereumConfig::default()
        };
        let chain = hammer::ethereum::start(config, clock.clone(), net.clone());
        Deployment::from_chain(chain, clock, net)
    });
    let report = run_chain(&registry, "ethereum-sim", 15, 8);
    assert_consistent(&report, 120);
    assert_eq!(report.committed, 120, "committed");
}

#[test]
fn relative_latency_ordering_holds() {
    // The paper's headline shape at miniature scale: Neuchain commits
    // faster than Meepo (epoch 0.1s vs 0.8s block time).
    let neuchain = run_chain(&BackendRegistry::builtin(), "neuchain-sim", 80, 5);
    let meepo = run_chain(&BackendRegistry::builtin(), "meepo-sim", 80, 5);
    assert!(
        neuchain.latency.mean_s < meepo.latency.mean_s,
        "neuchain {:.3}s !< meepo {:.3}s",
        neuchain.latency.mean_s,
        meepo.latency.mean_s
    );
}
