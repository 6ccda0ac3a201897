//! The workload streams from the generator through the signers, which claim
//! it a chunk at a time, to the workers. Whatever the strategy and signer
//! count, the chain is handed exactly the transactions `generate_all`
//! yields for the seed; and an aborted run leaves no signer parked.
//!
//! Nor does a run of exactly its declared total rotate or expand the tracker,
//! and pipelined signing of a batch already in memory starts no thread
//! beside its signers. A fast client hands the chain whole chunks.
//!
//! The tests are heavy (thousands of transactions per run) and the last
//! counts the process's threads, so they take the binary's serial guard.

mod common;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hammer::chain::client::{Architecture, BlockchainClient, ChainError};
use hammer::chain::kernel::SimChain;
use hammer::chain::ledger::LedgerError;
use hammer::chain::state::AccountState;
use hammer::chain::types::{Address, Block, SignedTransaction, TxId};
use hammer::core::chaos::{live_threads, LeakProbe};
use hammer::core::checkpoint::RecoveryConfig;
use hammer::core::deploy::Deployment;
use hammer::core::driver::{EvalConfig, EvalError, Evaluation, SigningStrategy};
use hammer::core::machine::ClientMachine;
use hammer::core::signer::sign_pipelined;
use hammer::crypto::sig::SigParams;
use hammer::crypto::Keypair;
use hammer::net::{LinkConfig, SimClock, SimNetwork};
use hammer::workload::{ControlSequence, SmallBankGenerator, WorkloadConfig};

/// Accepts and remembers every submission and seals nothing. From `dies_at`
/// on it announces a block it cannot serve, which fails the monitor.
#[derive(Default)]
struct SilentChain {
    submitted: Mutex<Vec<TxId>>,
    /// The length of every `submit_batch` call, in order.
    batches: Mutex<Vec<usize>>,
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
    fn submit_batch(&self, txs: Vec<SignedTransaction>) -> Vec<Result<TxId, ChainError>> {
        self.batches.lock().unwrap().push(txs.len());
        txs.into_iter().map(|tx| self.submit(tx)).collect()
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
    // Many chunks and a ragged last one, released in one slice.
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
fn an_unconstrained_closed_loop_hands_the_chain_whole_chunks() {
    let _guard = common::serial_guard();
    const N: usize = 10_000;
    let workload = WorkloadConfig {
        accounts: 50,
        total_txs: N,
        clients: 2,
        threads_per_client: 2,
        ..WorkloadConfig::default()
    };
    let signers = 4;
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .signer_threads(signers)
        .poll_interval(Duration::from_millis(20))
        .drain_timeout(Duration::from_secs(1))
        .build()
        .unwrap();
    let control = ControlSequence::constant(N as u32, 1, Duration::from_secs(1));
    let chain = Arc::new(SilentChain::default());
    let report = Evaluation::new(config)
        .run(&deploy(&chain, 1000.0), &workload, &control)
        .unwrap();
    assert_eq!(report.submitted, N as u64);
    let batches = chain.batches.lock().unwrap().clone();
    assert_eq!(batches.iter().sum::<usize>(), N);
    // Every claim is a whole chunk but the workload's last, and each
    // worker's first submission is one transaction. Nothing else splits a
    // chunk, so one call per transaction would be far over this bound.
    let workers = (workload.clients * workload.threads_per_client) as usize;
    let bound = N.div_ceil(128) + workers;
    assert!(
        batches.len() <= bound,
        "{} calls for {N} transactions (bound {bound})",
        batches.len()
    );
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
fn aborted_runs_leave_no_signer_parked_on_the_stream() {
    let _guard = common::serial_guard();
    // Half a million transactions released a hundred a second: within a
    // fraction of a second the signed stream is full and each signer is
    // parked sending the chunk it signed — and stays there until the
    // abort, which comes one wall second in (ten times wall speed).
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
    let dir = common::TempDir::new("killed");
    let recovery =
        RecoveryConfig::new(dir.path(), Duration::from_secs(1)).kill_at(Duration::from_secs(10));
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

#[test]
fn pipelined_signing_of_a_batch_starts_only_its_signers() {
    let _guard = common::serial_guard();
    // A batch far larger than the stream and nobody draining it: a thread
    // that cut the batch for the signers would still be parked when the
    // threads are counted.
    let batch = SmallBankGenerator::new(WorkloadConfig {
        accounts: 50,
        total_txs: 9 * 32 * 1024,
        ..WorkloadConfig::default()
    })
    .generate_all();
    let probe = LeakProbe::start();
    let before = live_threads();
    let stream = sign_pipelined(batch, Keypair::from_seed(1), SigParams::fast(), 2);
    assert_eq!(live_threads() - before, 2, "threads beside the two signers");
    assert!(stream.recv().is_ok());
    drop(stream);
    no_thread_leak(probe, "dropped stream");
}
