//! The signing optimisations must be pure speed-ups: serial, async, and
//! pipelined signing produce the same signatures, and evaluations using
//! any strategy commit the same transaction set.

use std::collections::HashSet;
use std::time::Duration;

use hammer::chain::types::Transaction;
use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation, SigningStrategy};
use hammer::core::machine::ClientMachine;
use hammer::core::signer::{sign_async, sign_pipelined, sign_serial};
use hammer::crypto::sig::SigParams;
use hammer::crypto::Keypair;
use hammer::workload::{ControlSequence, SmallBankGenerator, WorkloadConfig};

mod common;

fn batch(n: usize) -> Vec<Transaction> {
    SmallBankGenerator::new(WorkloadConfig {
        accounts: 200,
        total_txs: n,
        ..WorkloadConfig::default()
    })
    .generate_all()
}

#[test]
fn all_strategies_produce_identical_signatures() {
    let _guard = common::serial_guard();
    let keypair = Keypair::from_seed(3);
    let params = SigParams::fast();
    let n = 500;

    let serial = sign_serial(batch(n), &keypair, &params);
    let parallel = sign_async(batch(n), &keypair, &params, 4);
    assert_eq!(serial, parallel, "async differs from serial");

    let mut streamed: Vec<_> = sign_pipelined(batch(n), keypair, params, 4)
        .iter()
        .collect();
    streamed.sort_by_key(|tx| tx.tx.nonce);
    let mut ordered = serial;
    ordered.sort_by_key(|tx| tx.tx.nonce);
    assert_eq!(streamed, ordered, "pipelined differs from serial");
}

#[test]
fn evaluations_commit_the_same_set_under_every_strategy() {
    let _guard = common::serial_guard();
    let mut committed_sets: Vec<HashSet<u64>> = Vec::new();
    for signing in [
        SigningStrategy::Serial,
        SigningStrategy::Async,
        SigningStrategy::Pipelined,
    ] {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 400.0)
            .unwrap();
        let workload = WorkloadConfig {
            accounts: 300,
            chain_name: "neuchain-sim".to_owned(),
            ..WorkloadConfig::default()
        };
        let control = ControlSequence::constant(60, 5, Duration::from_secs(1));
        let config = EvalConfig::builder()
            .signing(signing)
            .machine(ClientMachine::unconstrained())
            .drain_timeout(Duration::from_secs(120))
            .build()
            .expect("valid config");
        let report = Evaluation::new(config)
            .run(&deployment, &workload, &control)
            .expect("run failed");
        assert_eq!(report.committed + report.failed + report.timed_out, 300);
        let set: HashSet<u64> = report
            .records
            .iter()
            .filter(|r| r.status == hammer::chain::types::TxStatus::Committed)
            .map(|r| r.tx_id.fingerprint())
            .collect();
        committed_sets.push(set);
    }
    assert_eq!(
        committed_sets[0], committed_sets[1],
        "serial vs async commit sets differ"
    );
    assert_eq!(
        committed_sets[0], committed_sets[2],
        "serial vs pipelined commit sets differ"
    );
}
