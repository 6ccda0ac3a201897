//! **§V-C Correctness** — driver statistics vs node-side ground truth.
//!
//! The paper pushes 100 000 transactions through Fabric at 600 TPS, then
//! compares Hammer's statistics against a log analysis of the peer nodes.
//! Here the "log analysis" reads the simulator's own ledger and counters —
//! the equivalent ground truth — and both sides must agree exactly:
//!
//! * every transaction the driver recorded as committed appears exactly
//!   once on the ledger with a valid flag;
//! * the chain's committed/conflict counters match the driver's totals;
//! * the hash chain verifies end to end.

use std::collections::HashMap;
use std::time::Duration;

use hammer_chain::types::TxStatus;
use hammer_core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer_core::driver::{EvalConfig, Evaluation};
use hammer_core::machine::ClientMachine;
use hammer_fabric::FabricConfig;
use hammer_workload::{ControlSequence, WorkloadConfig};

fn main() {
    // Defaults follow the paper (100k @ 600 TPS). Override the total with
    // the first CLI argument for quicker runs.
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let rate = 600u32;
    let seconds = total.div_ceil(rate as usize);
    println!("=== §V-C correctness check: {total} txs at {rate} TPS on Fabric ===\n");

    // The audit is about *accounting*, not peak throughput: configure the
    // Fabric sim so 600 TPS flows without backlog (validation 1 ms/tx =>
    // ~1000 TPS ceiling), exactly as the paper's correctness run assumes.
    let mut registry = BackendRegistry::builtin();
    registry.register("fabric-sim", |_, clock, net| {
        let config = FabricConfig {
            validate_cost: Duration::from_millis(1),
            inbox_capacity: 50_000,
            ..FabricConfig::default()
        };
        let chain = hammer_fabric::start(config, clock.clone(), net.clone());
        Deployment::from_chain(chain, clock, net)
    });
    let deployment = registry
        .deploy("fabric-sim", &BackendOptions::default(), 200.0)
        .expect("registered above");
    let workload = WorkloadConfig {
        accounts: 10_000,
        clients: 4,
        threads_per_client: 2,
        chain_name: "fabric-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(rate, seconds, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .drain_timeout(Duration::from_secs(120))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("run failed");

    println!(
        "driver: submitted={} committed={} failed={} timed_out={} rejected={}",
        report.submitted, report.committed, report.failed, report.timed_out, report.rejected
    );

    // "Log analysis": walk the ledger.
    let chain = deployment.client();
    let height = chain.latest_height(0).expect("height");
    let mut ledger_status: HashMap<_, bool> = HashMap::new();
    for h in 1..=height {
        let block = chain.block_at(0, h).expect("block").expect("present");
        assert!(block.verify_merkle_root(), "merkle root broken at {h}");
        for (tx_id, ok) in block.entries() {
            let duplicate = ledger_status.insert(tx_id, ok).is_some();
            assert!(!duplicate, "tx {tx_id} appears twice on the ledger");
        }
    }
    println!(
        "ledger: {height} blocks, {} transactions",
        ledger_status.len()
    );

    // Cross-check every driver record against the ledger.
    let mut mismatches = 0usize;
    for record in &report.records {
        match (record.status, ledger_status.get(&record.tx_id)) {
            (TxStatus::Committed, Some(true)) => {}
            (TxStatus::Failed, Some(false)) => {}
            (TxStatus::Failed, None) => {} // driver-side rejection
            (TxStatus::TimedOut, None) => {}
            // A timed-out record that *is* on the ledger means the drain
            // deadline fired before the block was polled — report it.
            (status, on_ledger) => {
                mismatches += 1;
                if mismatches <= 5 {
                    eprintln!(
                        "mismatch: {} driver={status:?} ledger={on_ledger:?}",
                        record.tx_id
                    );
                }
            }
        }
    }

    println!(
        "cross-check: {mismatches} mismatches across {} records",
        report.records.len()
    );
    assert_eq!(mismatches, 0, "driver statistics diverge from node logs");
    println!("\nPASS: driver statistics match the node-side ground truth exactly.");
}
