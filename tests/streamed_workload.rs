//! The workload streams from a generator thread through the signers to the
//! workers. Whatever the strategy and signer count, the chain is handed
//! exactly the transactions `generate_all` yields for the seed; and an
//! aborted run leaves nothing parked on the segment queue.
//!
//! Nor does a run of exactly its declared total rotate or expand the tracker.
//!
//! The tests are heavy (thousands of transactions per run) and the last
//! counts the process's threads, so they take the binary's serial guard.

mod common;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hammer::chain::client::{Architecture, BlockchainClient, ChainError, CommitEvent};
use hammer::chain::kernel::SimChain;
use hammer::chain::ledger::LedgerError;
use hammer::chain::state::AccountState;
use hammer::chain::types::{Address, Block, SignedTransaction, TxId};
use hammer::core::chaos::LeakProbe;
use hammer::core::checkpoint::RecoveryConfig;
use hammer::core::deploy::Deployment;
use hammer::core::driver::{EvalConfig, EvalError, Evaluation, SigningStrategy};
use hammer::net::{LinkConfig, SimClock, SimNetwork};
use hammer::store::kv::KvStore;
use hammer::workload::{ControlSequence, SmallBankGenerator, WorkloadConfig};

/// Accepts and remembers every submission and seals nothing. From `dies_at`
/// on it announces a block it cannot serve, which fails the monitor.
#[derive(Default)]
struct SilentChain {
    submitted: Mutex<Vec<TxId>>,
    dies_at: Option<Instant>,
}

impl BlockchainClient for SilentChain {
    fn chain_name(&self) -> &str {
        "silent"
    }
    fn architecture(&self) -> Architecture {
        Architecture::NonSharded
    }
    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
        self.submitted.lock().unwrap().push(tx.id);
        Ok(tx.id)
    }
    fn latest_height(&self, _shard: u32) -> Result<u64, ChainError> {
        Ok(u64::from(
            self.dies_at.is_some_and(|at| Instant::now() >= at),
        ))
    }
    fn block_at(&self, _shard: u32, _height: u64) -> Result<Option<Block>, ChainError> {
        Err(ChainError::shutdown())
    }
    fn pending_txs(&self) -> Result<usize, ChainError> {
        Ok(0)
    }
    fn subscribe_commits(&self) -> crossbeam::channel::Receiver<CommitEvent> {
        crossbeam::channel::unbounded().1
    }
    fn shutdown(&self) {}
}

impl SimChain for SilentChain {
    fn seed_account(&self, _account: Address, _checking: u64, _savings: u64) {}
    fn account(&self, _account: Address) -> Option<AccountState> {
        None
    }
    fn ingress_nodes(&self) -> Vec<String> {
        Vec::new()
    }
    fn sealer_nodes(&self) -> Vec<String> {
        Vec::new()
    }
    fn verify_ledgers(&self) -> Result<(), LedgerError> {
        Ok(())
    }
}

fn deploy(chain: &Arc<SilentChain>, speedup: f64) -> Deployment {
    let clock = SimClock::with_speedup(speedup);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    Deployment::from_chain(Arc::clone(chain), clock, net)
}

#[test]
fn every_strategy_submits_exactly_the_generated_workload() {
    let _guard = common::serial_guard();
    // Two full segments and a ragged third, released in one slice.
    let total = 2 * 32 * 1024 + 129;
    let workload = WorkloadConfig {
        accounts: 50,
        total_txs: total,
        clients: 2,
        threads_per_client: 2,
        seed: 7,
        ..WorkloadConfig::default()
    };
    let mut expected: Vec<TxId> = SmallBankGenerator::new(workload.clone())
        .generate_all()
        .iter()
        .map(|tx| tx.id())
        .collect();
    expected.sort_unstable();
    let control = ControlSequence::constant(total as u32, 1, Duration::from_secs(1));
    for (signing, signer_threads) in [
        (SigningStrategy::Pipelined, 1),
        (SigningStrategy::Pipelined, 2),
        (SigningStrategy::Pipelined, 4),
        (SigningStrategy::Serial, 1),
        (SigningStrategy::Async, 3),
    ] {
        let config = EvalConfig::builder()
            .signing(signing)
            .signer_threads(signer_threads)
            .poll_interval(Duration::from_millis(20))
            .drain_timeout(Duration::from_secs(1))
            .build()
            .unwrap();
        let chain = Arc::new(SilentChain::default());
        let report = Evaluation::new(config)
            .run(&deploy(&chain, 1000.0), &workload, &control)
            .unwrap();
        let mut submitted = std::mem::take(&mut *chain.submitted.lock().unwrap());
        submitted.sort_unstable();
        assert!(
            submitted == expected,
            "{signing:?} with {signer_threads} signers"
        );
        assert_eq!(
            (report.submitted, report.timed_out),
            (total as u64, total),
            "{signing:?} with {signer_threads} signers"
        );
    }
}

#[test]
fn a_run_of_exactly_its_total_neither_rotates_nor_expands_the_tracker() {
    let _guard = common::serial_guard();
    // Hashing the total over N shards always leaves one shard above
    // total / N: a filter sized for exactly its share rebuilt itself once,
    // in the last milliseconds of every run.
    let total = 12_000;
    let workload = WorkloadConfig {
        accounts: 50,
        total_txs: total,
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(total as u32, 1, Duration::from_secs(1));
    for shards in [1, 2, 8] {
        let config = EvalConfig::builder()
            .tracker_shards(shards)
            .poll_interval(Duration::from_millis(20))
            .drain_timeout(Duration::from_secs(1))
            .build()
            .unwrap();
        let report = Evaluation::new(config)
            .run(&deploy(&Arc::default(), 1000.0), &workload, &control)
            .unwrap();
        assert_eq!(report.submitted, total as u64);
        let stats = report.index_stats.expect("task processing keeps an index");
        assert_eq!(
            (stats.bloom_rebuilds, stats.expansions),
            (0, 0),
            "{shards} shards: {stats:?}"
        );
    }
}

fn no_thread_leak(probe: LeakProbe, what: &str) {
    let [threads, _children] = probe.finish();
    assert!(threads.passed, "{what}: {threads:?}");
}

#[test]
fn aborted_runs_leave_nothing_parked_on_the_segment_queue() {
    let _guard = common::serial_guard();
    // Sixteen segments released a hundred transactions a second: within a
    // fraction of a second the signed stream is full, each signer holds a
    // segment it cannot finish, the queue behind them is full and the
    // generator is parked on it — and stays there until the abort, which
    // comes one wall second in (ten times wall speed).
    let total = 16 * 32 * 1024;
    let workload = WorkloadConfig {
        accounts: 50,
        total_txs: total,
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(100, total / 100, Duration::from_secs(1));
    let evaluation = Evaluation::new(
        EvalConfig::builder()
            .poll_interval(Duration::from_millis(100))
            .signer_threads(2)
            .build()
            .unwrap(),
    );

    let probe = LeakProbe::start();
    let deployment = deploy(&Arc::default(), 10.0);
    let recovery = RecoveryConfig::new(Arc::new(KvStore::new()), "killed", Duration::from_secs(1))
        .kill_at(Duration::from_secs(10));
    let killed = evaluation.run_recoverable(&deployment, &workload, &control, &recovery);
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");
    drop(deployment);
    no_thread_leak(probe, "kill switch");

    let probe = LeakProbe::start();
    let dying = SilentChain {
        dies_at: Some(Instant::now() + Duration::from_secs(1)),
        ..SilentChain::default()
    };
    let deployment = deploy(&Arc::new(dying), 10.0);
    let failed = evaluation.run(&deployment, &workload, &control);
    assert_eq!(
        failed.unwrap_err(),
        EvalError::Chain(ChainError::shutdown())
    );
    drop(deployment);
    no_thread_leak(probe, "failed monitor");
}
