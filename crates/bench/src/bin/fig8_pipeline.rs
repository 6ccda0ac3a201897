//! **Fig. 8** — Workload generation time: serial vs asynchronous pipeline.
//!
//! The paper reports ≈6.88× speed-up for asynchronous signatures combined
//! with pipelined preparation/execution over naive serial generation, on a
//! multi-core client. This times the library's three signing paths as
//! *simulated-time makespans*, each signature paying 2 ms of modelled client
//! CPU (an ECDSA-class signature on a weak cloud core) on the simulation
//! clock through [`SignObs::paying`], so eight signers behave as eight
//! cores even on a small CI host; execution pays a smaller cost per
//! transaction. Serial is `sign_serial_obs` (Fig. 4a); async is
//! `sign_async_obs`, a pool that execution still waits for (Fig. 4b); the
//! async pipeline is `sign_chunks`, the path the driver's `prepare` takes
//! (Fig. 4c). Exits non-zero unless the pipeline is at least 6× serial and
//! async lies between the two at every batch size.
//!
//! Real-crypto wall-clock numbers (host-core dependent) live in the
//! `roundtrip` Criterion group (`sign_serial_4096`, `sign_pipelined_4096`).

use std::time::Duration;

use bench::save_csv;
use hammer_chain::types::{SignedTransaction, Transaction};
use hammer_core::signer::{sign_async_obs, sign_chunks, sign_serial_obs, SignObs};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::SimClock;
use hammer_store::report::{render_table, to_csv};
use hammer_workload::{SmallBankGenerator, WorkloadConfig};

/// Modelled client CPU per signature.
const SIGN_COST: Duration = Duration::from_millis(2);
/// Modelled execution-side ingestion cost per transaction.
const CONSUME_COST: Duration = Duration::from_micros(330);
/// Signer pool width (the client's core count in the paper's setup).
const SIGNER_THREADS: usize = 8;
/// The checked claim: the pipeline's speed-up over serial at every size.
const MIN_PIPELINE_SPEEDUP: f64 = 6.0;

fn make_batch(n: usize) -> Vec<Transaction> {
    SmallBankGenerator::new(WorkloadConfig {
        accounts: 1_000,
        total_txs: n,
        ..WorkloadConfig::default()
    })
    .generate_all()
}

/// The simulated time from calling `sign` (a signing path) to the last of
/// its transactions ingested. Ingestion pays `CONSUME_COST` each to a due
/// time that, like a paying signer's, credits a late wake-up and skips what
/// waiting for the next transaction blocked for.
fn makespan<I>(clock: &SimClock, sign: impl FnOnce() -> I) -> Duration
where
    I: IntoIterator<Item = SignedTransaction>,
{
    let start = clock.now();
    let mut signed = sign().into_iter();
    let mut due = clock.now();
    loop {
        let asked = clock.now();
        if signed.next().is_none() {
            return clock.now() - start;
        }
        due += clock.now().saturating_sub(asked) + CONSUME_COST;
        clock.sleep_until(due);
    }
}

fn main() {
    println!("=== Fig. 8: workload generation — serial vs async vs async pipeline ===\n");
    let (sign_ms, consume_us) = (SIGN_COST.as_millis(), CONSUME_COST.as_micros());
    println!("model: {SIGNER_THREADS} signers, {sign_ms} ms simulated CPU per signature,");
    println!("{consume_us} us ingestion per transaction; makespans in simulated time\n");

    let (keypair, params) = (Keypair::from_seed(1), SigParams::fast());
    // Modest speed-up: each modelled 2 ms signature occupies ~130 us of
    // wall time, so the real crypto (~3 us) cannot distort concurrency
    // even with 9 threads sharing one host core.
    let clock = SimClock::with_speedup(15.0);
    let obs = SignObs::paying(&clock, SIGN_COST);

    let mut rows = Vec::new();
    let mut holds = true;
    for n in [10_000, 25_000, 50_000, 100_000] {
        eprintln!("batch of {n}...");
        let batch = make_batch(n);
        let serial = makespan(&clock, || sign_serial_obs(batch, &keypair, &params, &obs));
        let batch = make_batch(n);
        let threads = SIGNER_THREADS;
        let asynchronous = makespan(&clock, || {
            sign_async_obs(batch, &keypair, &params, threads, &obs)
        });
        let mut rest = make_batch(n).into_iter();
        let claim = move |len| rest.by_ref().take(len).collect();
        let pipelined = makespan(&clock, || {
            sign_chunks(claim, threads, keypair, params, obs.clone())
        });

        // Speed-ups over serial: async's and the pipeline's.
        let speedup = |d: Duration| serial.as_secs_f64() / d.as_secs_f64();
        let (a, p) = (speedup(asynchronous), speedup(pipelined));
        if p < MIN_PIPELINE_SPEEDUP || !(1.0..p).contains(&a) {
            eprintln!("fig8_pipeline: shape broken at {n} txs: async {a:.2}x, pipeline {p:.2}x");
            holds = false;
        }
        let mut row = vec![n.to_string()];
        row.extend([serial, asynchronous, pipelined].map(|d| format!("{:.2}", d.as_secs_f64())));
        row.extend([a, p].map(|x| format!("{x:.2}x")));
        rows.push(row);
    }

    let header = [
        "txs",
        "serial_s",
        "async_s",
        "async_pipeline_s",
        "async_speedup",
        "pipeline_speedup",
    ];
    println!("{}", render_table(&header, &rows));
    save_csv("fig8_pipeline", &to_csv(&header, &rows));
    println!("Paper reference: Asynchronous Pipeline ~ 6.88x over Serial.");
    if !holds {
        std::process::exit(1);
    }
    println!(
        "\nshape holds: pipeline >= {MIN_PIPELINE_SPEEDUP}x serial, async between, at every size"
    );
}
