//! Distributed testing through the public facade: two driver servers on
//! one SUT, with the Bloom filter skimming foreign transactions — the
//! scenario Algorithm 1's filter exists for.

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::EvalConfig;
use hammer::core::machine::ClientMachine;
use hammer::core::run_distributed;
use hammer::workload::{ControlSequence, WorkloadConfig};

#[test]
fn two_driver_servers_one_chain() {
    let deployment = BackendRegistry::builtin()
        .deploy("neuchain-sim", &BackendOptions::default())
        .unwrap();
    let workload = WorkloadConfig {
        accounts: 200,
        clients: 2,
        threads_per_client: 2,
        chain_name: "neuchain-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(40, 4, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .drain_timeout(Duration::from_secs(60))
        .build()
        .expect("valid config");
    let report = run_distributed(&deployment, &workload, &control, &config, 2)
        .expect("distributed run failed");

    // Both drivers completed their disjoint 160-tx workloads.
    assert_eq!(report.per_driver.len(), 2);
    assert_eq!(report.combined_submitted(), 320);
    assert_eq!(report.combined_committed(), 320, "combined committed");

    // Every driver observed all 160 of the *other* driver's transactions
    // in the shared blocks and rejected each via the Bloom filter without
    // touching its hash index.
    for (i, stats) in report.index_stats().iter().enumerate() {
        let stats = stats.expect("task-processing mode exposes index stats");
        assert_eq!(
            stats.bloom_rejections, 160,
            "driver {i}: foreign rejections"
        );
    }

    // The drivers' commit sets are disjoint (different workload seeds).
    let ids_0: std::collections::HashSet<u64> = report.per_driver[0]
        .records
        .iter()
        .map(|r| r.tx_id.fingerprint())
        .collect();
    let overlap = report.per_driver[1]
        .records
        .iter()
        .filter(|r| ids_0.contains(&r.tx_id.fingerprint()))
        .count();
    assert_eq!(overlap, 0, "driver workloads must be disjoint");
}
