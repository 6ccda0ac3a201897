//! The signing optimisations must be pure speed-ups: serial, async, and
//! pipelined signing produce the same signatures, and evaluations using
//! any strategy commit the same transaction set.

use std::collections::HashSet;
use std::time::Duration;

use hammer::chain::types::{SignedTransaction, Transaction};
use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation, SigningStrategy};
use hammer::core::machine::ClientMachine;
use hammer::core::signer::{
    sign_async_obs, sign_chunks, sign_pipelined, sign_serial, sign_serial_obs, SignObs,
};
use hammer::crypto::sig::SigParams;
use hammer::crypto::Keypair;
use hammer::net::SimClock;
use hammer::workload::{ControlSequence, SmallBankGenerator, WorkloadConfig};

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
    let keypair = Keypair::from_seed(3);
    let params = SigParams::fast();
    let n = 500;
    let by_nonce = |mut signed: Vec<SignedTransaction>| {
        signed.sort_by_key(|tx| tx.tx.nonce);
        signed
    };

    let serial = sign_serial(batch(n), &keypair, &params);
    let streamed = sign_pipelined(batch(n), keypair, params, 4)
        .iter()
        .collect();
    let ordered = by_nonce(serial.clone());
    assert_eq!(by_nonce(streamed), ordered, "pipelined differs from serial");

    // A modelled signing cost is paid in simulated time and changes no
    // signature.
    let paying = SignObs::paying(&SimClock::virtual_time(), Duration::from_millis(2));
    for obs in [SignObs::disabled(), paying] {
        let signed = sign_serial_obs(batch(n), &keypair, &params, &obs);
        assert_eq!(signed, serial, "sign_serial_obs differs from serial");
        let parallel = sign_async_obs(batch(n), &keypair, &params, 4, &obs);
        assert_eq!(parallel, serial, "sign_async_obs differs from serial");
        let mut rest = batch(n).into_iter();
        let claim = move |len| rest.by_ref().take(len).collect();
        let chunked = sign_chunks(claim, 4, keypair, params, obs).iter().collect();
        assert_eq!(by_nonce(chunked), ordered, "chunked differs from serial");
    }
}

#[test]
fn evaluations_commit_the_same_set_under_every_strategy() {
    let mut committed_sets: Vec<HashSet<u64>> = Vec::new();
    for signing in [
        SigningStrategy::Serial,
        SigningStrategy::Async,
        SigningStrategy::Pipelined,
    ] {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default())
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
