//! Backend conformance: the contract every registered chain must honour,
//! checked against each entry of [`BackendRegistry::builtin`] rather than
//! a hard-coded chain list — registering a new backend automatically
//! subjects it to the same sweep.
//!
//! The contract, per backend:
//!
//! 1. Submissions are sealed, and every accepted transaction surfaces as
//!    exactly one commit event carrying its id (and the ledgers audit
//!    clean afterwards, and the range read `blocks` returns what
//!    `block_at` does).
//! 2. The driver's accounting identity holds:
//!    `committed + failed + timed_out + rejected + dropped + expired ==
//!    submitted`.
//! 3. A blackholed ingress endpoint rejects submissions with a
//!    *transient* (retryable) error while the fault window is open.
//! 4. A bounded ingress under stalled sealing overflows to
//!    [`ErrorKind::Backpressure`], not a panic or silent drop.
//! 5. Dropping a deployment joins every node thread — no leaks.
//!
//! Contracts 1–4 are checked under **both deploy modes**: the backend
//! in-process on the simulated network, and the same backend as a
//! supervised `node-host` OS process behind loopback TCP. The generic
//! interface promises identical behaviour either way.

use std::collections::HashSet;
use std::time::Duration;

use hammer::chain::client::ErrorKind;
use hammer::chain::smallbank::Op;
use hammer::chain::types::{Address, Block, SignedTransaction, Transaction};
use hammer::core::chaos::live_threads;
use hammer::core::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployMode, Deployment, SupervisorConfig,
};
use hammer::core::driver::EvalConfig;
use hammer::core::driver::Evaluation;
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::crypto::sig::SigParams;
use hammer::crypto::Keypair;
use hammer::net::{FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer::workload::{ControlSequence, WorkloadConfig};

mod common;

const BOTH_MODES: [DeployMode; 2] = [DeployMode::InProcess, DeployMode::MultiProcess];

/// Deploys `name` under `mode` on a fresh clock/net pair. Multi-process
/// deployments point the supervisor at the test build's own `node-host`
/// artifact and derive the TCP reconnect policy from the standard retry
/// policy, exactly as the scenario runner does.
fn deploy_in_mode(
    registry: &BackendRegistry,
    name: &str,
    opts: &BackendOptions,
    speedup: f64,
    mode: DeployMode,
) -> Deployment {
    let clock = SimClock::with_speedup(speedup);
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    match mode {
        DeployMode::InProcess => registry.deploy_on(name, opts, clock, net).unwrap(),
        DeployMode::MultiProcess => registry
            .deploy_multi(
                name,
                opts,
                clock.clone(),
                net,
                SupervisorConfig {
                    node_host: Some(env!("CARGO_BIN_EXE_node-host").into()),
                },
                reconnect_policy_for(&RetryPolicy::standard(), &clock),
            )
            .unwrap_or_else(|e| panic!("{name} ({}): {e}", mode.name())),
    }
}

/// A correctly signed deposit to a per-nonce account. Distinct accounts
/// keep Fabric's MVCC validation conflict-free (every event must report
/// `success`) and spread Meepo's routing across both shards.
fn deposit(chain_name: &str, nonce: u64) -> SignedTransaction {
    Transaction {
        client_id: 0,
        server_id: 0,
        nonce,
        op: Op::DepositChecking {
            account: conformance_account(nonce),
            amount: 1,
        },
        chain_name: chain_name.to_owned(),
        contract_name: "smallbank".to_owned(),
    }
    .sign(&Keypair::from_seed(11), &SigParams::fast())
}

fn conformance_account(nonce: u64) -> Address {
    Address::from_name(&format!("conf-{nonce}"))
}

#[test]
fn every_backend_seals_submissions_into_matching_commit_events() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    for mode in BOTH_MODES {
        for name in registry.names() {
            let deployment =
                deploy_in_mode(&registry, name, &BackendOptions::default(), 1000.0, mode);
            const TOTAL: u64 = 40;
            for nonce in 0..TOTAL {
                deployment.seed_account(conformance_account(nonce), 1_000, 1_000);
            }
            let events = deployment.client().subscribe_commits();
            let mut ids = HashSet::new();
            for nonce in 0..TOTAL {
                ids.insert(
                    deployment
                        .client()
                        .submit(deposit(name, nonce))
                        .unwrap_or_else(|e| {
                            panic!("{name} ({}): submission refused: {e}", mode.name())
                        }),
                );
            }
            let mut seen = HashSet::new();
            while seen.len() < ids.len() {
                let event = events
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| {
                        panic!(
                            "{name} ({}): commit events dried up at {}/{}",
                            mode.name(),
                            seen.len(),
                            ids.len()
                        )
                    });
                assert!(
                    ids.contains(&event.tx_id),
                    "{name} ({}): commit event for a transaction never submitted",
                    mode.name()
                );
                assert!(
                    seen.insert(event.tx_id),
                    "{name} ({}): transaction committed twice",
                    mode.name()
                );
                assert!(
                    event.success,
                    "{name} ({}): conflict-free deposit reported as failed",
                    mode.name()
                );
            }
            deployment
                .chain()
                .verify_ledgers()
                .unwrap_or_else(|e| panic!("{name} ({}): ledger audit failed: {e}", mode.name()));
            // The range read the monitor polls through (the node's shared
            // read in process, the trait's per-height default over TCP)
            // returns the blocks `block_at` does, in height order.
            let client = deployment.client();
            for shard in 0..client.architecture().shard_count() {
                let h = client.latest_height(shard).unwrap();
                let shared: Vec<Block> = client
                    .blocks(shard, 1..=h)
                    .unwrap()
                    .iter()
                    .map(|block| Block::clone(block))
                    .collect();
                let owned: Vec<Block> = (1..=h)
                    .filter_map(|height| client.block_at(shard, height).unwrap())
                    .collect();
                assert!(
                    !owned.is_empty(),
                    "{name} ({}): shard {shard} sealed nothing",
                    mode.name()
                );
                assert_eq!(
                    shared,
                    owned,
                    "{name} ({}): shard {shard}: blocks(1..={h}) differs from block_at",
                    mode.name()
                );
            }
            deployment.down();
            drop(deployment);
        }
    }
}

#[test]
fn accounting_identity_holds_for_every_backend() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    for mode in BOTH_MODES {
        // Real TCP round-trips per submission: give the multi-process
        // pass a gentler clock so the run window is not vanishingly
        // short in wall time.
        let speedup = match mode {
            DeployMode::InProcess => 400.0,
            DeployMode::MultiProcess => 100.0,
        };
        for name in registry.names() {
            let deployment =
                deploy_in_mode(&registry, name, &BackendOptions::default(), speedup, mode);
            let workload = WorkloadConfig {
                accounts: 1_000,
                chain_name: name.to_owned(),
                ..WorkloadConfig::default()
            };
            let control = ControlSequence::constant(60, 4, Duration::from_secs(1));
            let config = EvalConfig::builder()
                .machine(ClientMachine::unconstrained())
                .retry(RetryPolicy::standard())
                .drain_timeout(Duration::from_secs(120))
                .build()
                .expect("valid config");
            let report = Evaluation::new(config)
                .run(&deployment, &workload, &control)
                .unwrap_or_else(|e| panic!("{name} ({}): evaluation failed: {e}", mode.name()));
            let terminal = (report.committed
                + report.failed
                + report.timed_out
                + report.dropped
                + report.expired) as u64
                + report.rejected;
            assert_eq!(
                terminal,
                report.submitted,
                "{name} ({}): every submission must land in exactly one terminal bucket \
                 (committed {} + failed {} + timed_out {} + dropped {} + expired {} \
                 + rejected {} != submitted {})",
                mode.name(),
                report.committed,
                report.failed,
                report.timed_out,
                report.dropped,
                report.expired,
                report.rejected,
                report.submitted
            );
            assert!(
                report.committed > 0,
                "{name} ({}): nothing committed",
                mode.name()
            );
            deployment.down();
            drop(deployment);
        }
    }
}

#[test]
fn blackholed_ingress_rejects_with_a_transient_error() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    for mode in BOTH_MODES {
        for name in registry.names() {
            let deployment =
                deploy_in_mode(&registry, name, &BackendOptions::default(), 1000.0, mode);
            // Blackhole every ingress endpoint the chain reports (sharded
            // chains report one per shard) for the whole run. In multi
            // mode the plan is forwarded over the wire and acts on the
            // node process's own network.
            let mut plan = FaultPlan::new();
            for node in deployment.chain().ingress_nodes() {
                plan = plan.blackhole(&node, Duration::ZERO, Duration::from_secs(3_600));
            }
            deployment.install_faults(plan).expect("plan installs");
            let err = deployment
                .client()
                .submit(deposit(name, 0))
                .expect_err("submission through a blackholed ingress must fail");
            assert_eq!(
                err.kind(),
                ErrorKind::Transient,
                "{name} ({}): blackhole must surface as retryable, got {err}",
                mode.name()
            );
            deployment.down();
            drop(deployment);
        }
    }
}

#[test]
fn bounded_ingress_overflows_to_backpressure() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    // Tiny pool, sealing stalled for an hour: the pool cannot drain, so a
    // burst of submissions must hit the bound within a few multiples of
    // the capacity (Fabric's endorsers may swallow one burst first). The
    // multi-process pass proves the options survive the trip through the
    // node-host command line.
    let opts = BackendOptions {
        mempool_capacity: Some(4),
        stall_sealing: true,
    };
    for mode in BOTH_MODES {
        for name in registry.names() {
            let deployment = deploy_in_mode(&registry, name, &opts, 1000.0, mode);
            let overflow =
                (0..64u64).find_map(|nonce| deployment.client().submit(deposit(name, nonce)).err());
            let err = overflow.unwrap_or_else(|| {
                panic!(
                    "{name} ({}): 64 submissions never overflowed a pool of 4",
                    mode.name()
                )
            });
            assert_eq!(
                err.kind(),
                ErrorKind::Backpressure,
                "{name} ({}): overflow must be backpressure, got {err}",
                mode.name()
            );
            deployment.down();
            drop(deployment);
        }
    }
}

#[test]
fn dropping_a_deployment_joins_every_node_thread() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    // Warm-up run so process-wide lazily started threads (signature
    // verification pools etc.) are already alive when the baseline is
    // taken.
    {
        let warmup = registry
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        warmup.seed_account(conformance_account(0), 1_000, 1_000);
        let events = warmup.client().subscribe_commits();
        warmup.client().submit(deposit("neuchain-sim", 0)).unwrap();
        events
            .recv_timeout(Duration::from_secs(30))
            .expect("warm-up commit");
    }
    let baseline = live_threads();
    for name in registry.names() {
        let deployment = registry
            .deploy(name, &BackendOptions::default(), 1000.0)
            .unwrap();
        assert!(
            live_threads() > baseline,
            "{name}: a running deployment must hold live node threads"
        );
        deployment.seed_account(conformance_account(1), 1_000, 1_000);
        deployment.client().submit(deposit(name, 1)).unwrap();
        drop(deployment);
        assert_eq!(
            live_threads(),
            baseline,
            "{name}: dropped deployment leaked threads"
        );
    }
}
