//! §V-C correctness audit (integration scale): the driver's statistics
//! must match the node-side ground truth exactly.
//!
//! The paper's run is 100 000 transactions at 600 TPS; the full-size
//! version lives in `cargo run --release -p bench --bin correctness_check`.
//! Here a 6 000-transaction run keeps CI fast while exercising the same
//! paths: block polling, Bloom-filtered matching, per-transaction status
//! bookkeeping, Merkle verification, and the ledger cross-check.

use std::collections::HashMap;
use std::time::Duration;

use hammer::chain::types::TxStatus;
use hammer::core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::fabric::FabricConfig;
use hammer::workload::{ControlSequence, WorkloadConfig};

#[test]
fn driver_statistics_match_node_logs() {
    // Same configuration as the full-size correctness_check binary: the
    // audit is about accounting, so give the chain headroom for 600 TPS
    // (validation 1 ms/tx => ~1000 TPS ceiling).
    let mut registry = BackendRegistry::builtin();
    registry.register("fabric-sim", |_, clock, net| {
        let config = FabricConfig {
            validate_cost: Duration::from_millis(1),
            inbox_capacity: 50_000,
            ..FabricConfig::default()
        };
        let chain = hammer::fabric::start(config, clock.clone(), net.clone());
        Deployment::from_chain(chain, clock, net)
    });
    let deployment = registry
        .deploy("fabric-sim", &BackendOptions::default(), 400.0)
        .unwrap();
    let workload = WorkloadConfig {
        accounts: 5_000,
        clients: 4,
        threads_per_client: 2,
        chain_name: "fabric-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(600, 10, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .drain_timeout(Duration::from_secs(120))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("run failed");

    assert_eq!(report.submitted, 6_000, "all transactions submitted");
    assert_eq!(
        report.committed + report.failed + report.timed_out,
        6_000,
        "every record classified exactly once"
    );
    assert!(
        report.committed > 5_000,
        "most must commit (got {})",
        report.committed
    );

    // "Log analysis": walk the ledger like the paper's Python script
    // walks the peer logs.
    let chain = deployment.client();
    let height = chain.latest_height(0).expect("height");
    let mut ledger_status: HashMap<_, bool> = HashMap::new();
    for h in 1..=height {
        let block = chain.block_at(0, h).expect("query").expect("present");
        assert!(block.verify_merkle_root(), "block {h} merkle root broken");
        for (tx_id, ok) in block.entries() {
            assert!(
                ledger_status.insert(tx_id, ok).is_none(),
                "tx {tx_id} appears twice on the ledger"
            );
        }
    }

    for record in &report.records {
        match (record.status, ledger_status.get(&record.tx_id)) {
            (TxStatus::Committed, Some(true)) => {}
            (TxStatus::Failed, Some(false)) => {}
            (TxStatus::Failed, None) => {} // driver-side rejection
            (TxStatus::TimedOut, None) => {}
            (status, on_ledger) => {
                panic!("driver/ledger mismatch: {status:?} vs {on_ledger:?}")
            }
        }
    }

    // Latency sanity: every committed record's end time follows its start.
    for record in &report.records {
        if record.status == TxStatus::Committed {
            let end = record.end.expect("committed implies end time");
            assert!(end >= record.start, "negative latency");
        }
    }
}
