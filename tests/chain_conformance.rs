//! Backend conformance: the contract every registered chain must honour,
//! checked against each entry of [`BackendRegistry::builtin`] rather than
//! a hard-coded chain list — registering a new backend automatically
//! subjects it to the same sweep.
//!
//! The contract, per backend:
//!
//! 1. Submissions are sealed, and every accepted transaction surfaces as
//!    exactly one commit event carrying its id, read from the sealed blocks
//!    the way every driver mode reads them (and the ledgers audit clean
//!    afterwards, and the range read `blocks` returns what `block_at`
//!    does).
//! 2. The driver's accounting identity holds:
//!    `committed + failed + timed_out + rejected + dropped + expired ==
//!    submitted`.
//! 3. A blackholed ingress endpoint rejects submissions with a
//!    *transient* (retryable) error while the fault window is open.
//! 4. A bounded ingress under stalled sealing overflows to
//!    [`ErrorKind::Backpressure`], not a panic or silent drop.
//! 5. Dropping a deployment joins every node thread — no leaks.
//! 6. A batch of submissions is answered once per transaction, in order,
//!    each answer one a lone submission could get: a repeat inside the
//!    batch is a duplicate, and a pool that fills mid-batch refuses with
//!    backpressure.
//! 7. Deployed twice from one seed and driven by one submission schedule,
//!    a backend seals the same blocks, byte for byte, on every shard.
//!
//! Contracts 1–4 and 6 are checked under **both deploy modes**: the backend
//! in-process on the simulated network, and the same backend as a
//! supervised `node-host` OS process behind loopback TCP. The generic
//! interface promises identical behaviour either way.
//!
//! In process, every contract runs on a virtual clock: the test thread, the
//! chain's loop and, for contract 2, the driver's workers, signers and
//! monitor take turns, so each reading is the model's, and the counts below
//! are equalities. The multi-process cells run on scaled clocks, one at a
//! time.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use hammer::chain::client::{BlockchainClient, ChainError, ErrorKind};
use hammer::chain::mempool::MempoolError;
use hammer::chain::remote::RemoteChain;
use hammer::chain::rpc_adapter::serve_sim;
use hammer::chain::smallbank::Op;
use hammer::chain::types::{Address, Block, SignedTransaction, Transaction, TxId};
use hammer::core::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployMode, Deployment, SupervisorConfig,
};
use hammer::core::driver::{EvalConfig, EvalReport, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::crypto::sig::SigParams;
use hammer::crypto::Keypair;
use hammer::net::{thread, FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer::workload::{ControlSequence, WorkloadConfig};
use parking_lot::MutexGuard;

mod common;

const BOTH_MODES: [DeployMode; 2] = [DeployMode::InProcess, DeployMode::MultiProcess];

/// A clock for a cell: virtual in process, 1000× multi-process (a
/// node-host process keeps scaled time; contract 2's driver takes 100×).
fn cell_clock(mode: DeployMode) -> SimClock {
    match mode {
        DeployMode::InProcess => SimClock::virtual_time(),
        DeployMode::MultiProcess => SimClock::with_speedup(1000.0),
    }
}

/// The serialisation guard for a multi-process cell; an in-process cell on
/// a virtual clock needs none.
fn guard_for(mode: DeployMode) -> Option<MutexGuard<'static, ()>> {
    (mode == DeployMode::MultiProcess).then(common::serial_guard)
}

/// Deploys `name` under `mode` on `clock` and a fresh net. Multi-process
/// deployments point the supervisor at the test build's own `node-host`
/// artifact and derive the TCP reconnect policy from the standard retry
/// policy, exactly as the scenario runner does.
fn deploy_in_mode(
    registry: &BackendRegistry,
    name: &str,
    opts: &BackendOptions,
    clock: SimClock,
    mode: DeployMode,
) -> Deployment {
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

/// The commit events of the blocks sealed on each shard above `cursor`,
/// which it advances: `(id, success)` per transaction, in block order.
/// Sleeps on `clock` a second at a time until the first is sealed, for up to
/// 30 000 s of simulated time (30 s of wall time at 1000×); `None` if none
/// was.
fn next_events(
    client: &dyn BlockchainClient,
    clock: &SimClock,
    cursor: &mut [u64],
) -> Option<Vec<(TxId, bool)>> {
    let deadline = clock.now() + Duration::from_secs(30_000);
    loop {
        let mut events = Vec::new();
        for (shard, seen) in (0u32..).zip(cursor.iter_mut()) {
            let height = client.latest_height(shard).unwrap();
            if *seen < height {
                let blocks = client.blocks(shard, *seen + 1..=height).unwrap();
                events.extend(blocks.iter().flat_map(|block| block.entries()));
                *seen = height;
            }
        }
        if !events.is_empty() {
            return Some(events);
        }
        if clock.now() >= deadline {
            return None;
        }
        clock.sleep(Duration::from_secs(1));
    }
}

#[test]
fn every_backend_seals_submissions_into_matching_commit_events() {
    let registry = BackendRegistry::builtin();
    for mode in BOTH_MODES {
        let _guard = guard_for(mode);
        for name in registry.names() {
            let opts = BackendOptions::default();
            let deployment = deploy_in_mode(&registry, name, &opts, cell_clock(mode), mode);
            const TOTAL: u64 = 40;
            for nonce in 0..TOTAL {
                deployment.seed_account(conformance_account(nonce), 1_000, 1_000);
            }
            let client = deployment.client();
            let mut cursor = vec![0; client.architecture().shard_count() as usize];
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
                let events =
                    next_events(&*client, deployment.clock(), &mut cursor).unwrap_or_else(|| {
                        panic!(
                            "{name} ({}): commit events dried up at {}/{}",
                            mode.name(),
                            seen.len(),
                            ids.len()
                        )
                    });
                for (tx_id, success) in events {
                    assert!(
                        ids.contains(&tx_id),
                        "{name} ({}): commit event for a transaction never submitted",
                        mode.name()
                    );
                    assert!(
                        seen.insert(tx_id),
                        "{name} ({}): transaction committed twice",
                        mode.name()
                    );
                    assert!(
                        success,
                        "{name} ({}): conflict-free deposit reported as failed",
                        mode.name()
                    );
                }
            }
            deployment
                .chain()
                .verify_ledgers()
                .unwrap_or_else(|e| panic!("{name} ({}): ledger audit failed: {e}", mode.name()));
            // The range read the monitor polls through (the node's shared
            // read in process, `get_blocks` calls over TCP) returns the
            // blocks `block_at` does, in height order.
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

/// Per builtin backend, contract 2's in-process run on a virtual clock:
/// `(committed, failed)` of the 240 submitted. Fabric's MVCC validation
/// fails the transactions whose read versions changed between endorsement
/// and validation.
const SETTLED: [(&str, (usize, usize)); 4] = [
    ("ethereum-sim", (240, 0)),
    ("fabric-sim", (224, 16)),
    ("meepo-sim", (240, 0)),
    ("neuchain-sim", (240, 0)),
];

fn settled(name: &str) -> (usize, usize) {
    let row = SETTLED.iter().find(|row| row.0 == name);
    row.unwrap_or_else(|| panic!("{name}: no row in SETTLED")).1
}

#[test]
fn accounting_identity_holds_for_every_backend() {
    let registry = BackendRegistry::builtin();
    for mode in BOTH_MODES {
        let _guard = guard_for(mode);
        for name in registry.names() {
            let report = evaluate(&registry, name, mode);
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
            if mode == DeployMode::MultiProcess {
                assert!(report.committed > 0, "{name} (multi): nothing committed");
                continue;
            }
            assert_eq!(report.submitted, 240, "{name}");
            assert_eq!((report.committed, report.failed), settled(name), "{name}");
            // The same inputs read the same times: the whole report again,
            // but for the wall time the run took.
            let again = evaluate(&registry, name, mode);
            assert_eq!(again.to_value(), report.to_value(), "{name}");
            assert_eq!(again.records, report.records, "{name}");
        }
    }
}

/// Contract 2's run of `name` under `mode`, its wall time zeroed: 60
/// transactions a second for 4 s, with retries. In process on a virtual
/// clock; multi-process at 100×, gentler than `cell_clock`'s, since every
/// submission is a real TCP round-trip and the run window must not be
/// vanishingly short in wall time.
fn evaluate(registry: &BackendRegistry, name: &str, mode: DeployMode) -> EvalReport {
    let clock = match mode {
        DeployMode::InProcess => cell_clock(mode),
        DeployMode::MultiProcess => SimClock::with_speedup(100.0),
    };
    let deployment = deploy_in_mode(registry, name, &BackendOptions::default(), clock, mode);
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
    deployment.down();
    EvalReport {
        wall_time: Duration::ZERO,
        ..report
    }
}

#[test]
fn blackholed_ingress_rejects_with_a_transient_error() {
    let registry = BackendRegistry::builtin();
    for mode in BOTH_MODES {
        let _guard = guard_for(mode);
        for name in registry.names() {
            let opts = BackendOptions::default();
            let deployment = deploy_in_mode(&registry, name, &opts, cell_clock(mode), mode);
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

/// Per builtin backend, in process, with its pool bounded at four and
/// sealing stalled: how many transactions the ingress holds before it
/// refuses — four per pool, eight over Meepo's two shard pools, and Fabric's
/// four endorsement servers besides its inbox of four.
const HOLDS: [(&str, usize); 4] = [
    ("ethereum-sim", 4),
    ("fabric-sim", 8),
    ("meepo-sim", 8),
    ("neuchain-sim", 4),
];

fn holds(name: &str) -> usize {
    let row = HOLDS.iter().find(|row| row.0 == name);
    row.unwrap_or_else(|| panic!("{name}: no row in HOLDS")).1
}

#[test]
fn bounded_ingress_overflows_to_backpressure() {
    let registry = BackendRegistry::builtin();
    // Tiny pool, sealing stalled for an hour: the pool cannot drain, so a
    // burst of submissions hits the bound; in process, where no time
    // passes between submissions, once the ingress holds what `HOLDS` says.
    // The multi-process pass proves the options survive the trip through
    // the node-host command line.
    let opts = BackendOptions {
        mempool_capacity: Some(4),
        stall_sealing: true,
    };
    for mode in BOTH_MODES {
        let _guard = guard_for(mode);
        for name in registry.names() {
            let deployment = deploy_in_mode(&registry, name, &opts, cell_clock(mode), mode);
            let overflow = (0..64u64).find_map(|nonce| {
                let refused = deployment.client().submit(deposit(name, nonce)).err();
                refused.map(|err| (nonce, err))
            });
            let (at, err) = overflow.unwrap_or_else(|| {
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
            if mode == DeployMode::InProcess {
                // Meepo's deposits 0–7 route four to each shard.
                assert_eq!(at as usize, holds(name), "{name}: the first refusal");
            }
            deployment.down();
            drop(deployment);
        }
    }
}

/// The chain clients one deployment offers a driver: in process, the
/// backend's own handle and `RemoteChain` over the in-process transport;
/// multi-process, `RemoteChain` over TCP.
fn batch_routes(
    deployment: &Deployment,
    mode: DeployMode,
) -> Vec<(&'static str, Arc<dyn BlockchainClient>)> {
    match mode {
        DeployMode::InProcess => {
            let served = serve_sim(Arc::clone(deployment.chain())).client();
            let remote = RemoteChain::connect(served).expect("connect in process");
            vec![
                ("handle", deployment.client()),
                ("remote in process", remote),
            ]
        }
        DeployMode::MultiProcess => vec![("remote over tcp", deployment.client())],
    }
}

#[test]
fn submit_batch_answers_what_submit_would_for_every_backend() {
    let registry = BackendRegistry::builtin();
    // Sealing stalled: what is pooled stays pooled, so a repeat is a
    // duplicate and a bounded pool fills.
    let stalled = BackendOptions {
        mempool_capacity: None,
        stall_sealing: true,
    };
    let bounded_opts = BackendOptions {
        mempool_capacity: Some(4),
        ..stalled
    };
    for mode in BOTH_MODES {
        let _guard = guard_for(mode);
        for name in registry.names() {
            let deployment = deploy_in_mode(&registry, name, &stalled, cell_clock(mode), mode);
            for (i, (route, client)) in (0u64..).zip(batch_routes(&deployment, mode)) {
                let (a, b) = (deposit(name, 10 * i), deposit(name, 10 * i + 1));
                let answers = client.submit_batch(vec![a.clone(), b.clone(), a.clone()]);
                assert_eq!(
                    answers,
                    [
                        Ok(a.id),
                        Ok(b.id),
                        Err(ChainError::rejected(MempoolError::Duplicate))
                    ],
                    "{name} ({route})"
                );
            }
            deployment.down();
            drop(deployment);

            // A pool of four fills within a batch of 32 (in process, to what
            // `HOLDS` says); each answer is the one a lone submission could
            // get, and what was admitted is pooled.
            let deployment = deploy_in_mode(&registry, name, &bounded_opts, cell_clock(mode), mode);
            let mut admitted = 0;
            for (i, (route, client)) in (0u64..).zip(batch_routes(&deployment, mode)) {
                let batch: Vec<_> = (0..32).map(|n| deposit(name, 100 * (i + 1) + n)).collect();
                let answers = client.submit_batch(batch.clone());
                assert_eq!(answers.len(), batch.len(), "{name} ({route})");
                let mut refused = 0;
                for (tx, answer) in batch.into_iter().zip(answers) {
                    match answer {
                        Ok(id) => {
                            assert_eq!(id, tx.id, "{name} ({route})");
                            admitted += 1;
                        }
                        Err(e) => {
                            assert_eq!(e.kind(), ErrorKind::Backpressure, "{name} ({route}): {e}");
                            refused += 1;
                        }
                    }
                }
                assert!(refused > 0, "{name} ({route}): 32 never filled a pool of 4");
            }
            if mode == DeployMode::InProcess {
                assert_eq!(admitted, holds(name), "{name}: admitted");
            }
            let pooled = deployment.client().pending_txs().unwrap();
            assert_eq!(
                pooled,
                admitted,
                "{name} ({}): admitted but not pooled",
                mode.name()
            );
            deployment.down();
            drop(deployment);
        }
    }
}

#[test]
fn dropping_a_deployment_joins_every_node_thread() {
    let registry = BackendRegistry::builtin();
    for name in registry.names() {
        let clock = SimClock::virtual_time();
        let opts = BackendOptions::default();
        let deployment =
            deploy_in_mode(&registry, name, &opts, clock.clone(), DeployMode::InProcess);
        // Every thread a participant starts takes part in its clock: the
        // test thread and the chain's one loop.
        assert_eq!(clock.participants(), 2, "{name}: a running deployment");
        deployment.seed_account(conformance_account(1), 1_000, 1_000);
        deployment.client().submit(deposit(name, 1)).unwrap();
        clock.sleep(Duration::from_secs(1));
        drop(deployment);
        assert_eq!(
            clock.participants(),
            1,
            "{name}: dropped deployment leaked threads"
        );
    }
}

/// Every shard's sealed blocks — headers, `prev_hash` and so the hash chain
/// included, ids and flags — after a minute of `name` on a virtual clock,
/// driven by two submitters, each a participant started after the chain's
/// loop: every 100 ms from 0 to 1.9 s each submits three deposits. So at
/// each of those instants both submitters are due, and at Neuchain's first
/// epoch (100 ms) and Meepo's (800 ms) the loop is too: which of them runs
/// first decides a block's order or contents, and the scheduler's tie order
/// (registration order) is all that decides it.
fn sealed_under_one_schedule(registry: &BackendRegistry, name: &str) -> Vec<Vec<Block>> {
    let clock = SimClock::virtual_time();
    let opts = BackendOptions::default();
    let deployment = deploy_in_mode(registry, name, &opts, clock.clone(), DeployMode::InProcess);
    const STEPS: u64 = 20;
    for nonce in 0..STEPS * 6 {
        deployment.seed_account(conformance_account(nonce), 1_000, 1_000);
    }
    std::thread::scope(|scope| {
        let submitter = |who: u64| {
            let (clock, client) = (&clock, deployment.client());
            let submit = move || {
                for step in 0..STEPS {
                    clock.sleep_until(Duration::from_millis(100 * step));
                    for nonce in step * 6 + who * 3..step * 6 + who * 3 + 3 {
                        client.submit(deposit(name, nonce)).unwrap();
                    }
                }
            };
            thread::spawn_scoped(scope, format!("conformance-test-submit-{who}"), submit)
        };
        let submitters = [submitter(0).unwrap(), submitter(1).unwrap()];
        for handle in submitters {
            handle.join().unwrap();
        }
    });
    clock.sleep_until(Duration::from_secs(60));
    let client = deployment.client();
    (0..client.architecture().shard_count())
        .map(|shard| {
            let blocks = client.blocks(shard, 1..=u64::MAX).unwrap();
            blocks.iter().map(|block| Block::clone(block)).collect()
        })
        .collect()
}

#[test]
fn one_seed_and_one_schedule_seal_the_same_blocks_twice() {
    let registry = BackendRegistry::builtin();
    for name in registry.names() {
        let first = sealed_under_one_schedule(&registry, name);
        assert!(
            first.iter().all(|shard| !shard.is_empty()),
            "{name}: a shard sealed nothing"
        );
        let second = sealed_under_one_schedule(&registry, name);
        assert!(
            first == second,
            "{name}: the second run sealed other blocks"
        );
    }
}
