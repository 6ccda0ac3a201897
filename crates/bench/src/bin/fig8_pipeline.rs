//! **Fig. 8** — Workload generation time: serial vs asynchronous pipeline.
//!
//! The paper reports ≈6.88× speed-up for asynchronous signatures combined
//! with pipelined preparation/execution over naive serial generation, on a
//! multi-core client. This times the library's three signing paths as
//! *simulated-time makespans* on a virtual clock, each signature paying 2 ms
//! of modelled client CPU (an ECDSA-class signature on a weak cloud core)
//! through [`SignObs::paying`], so eight signers behave as eight cores even
//! on a small CI host; execution pays a smaller cost per transaction. Real
//! CPU costs no virtual time, so every reading is the model's exactly and
//! two runs print the same table. Serial is `sign_serial_obs` (Fig. 4a);
//! async is `sign_async_obs`, a pool that execution still waits for
//! (Fig. 4b); the async pipeline is `sign_chunks`, the path the driver's
//! `prepare` takes (Fig. 4c). Exits non-zero unless the pipeline is at least
//! 6× serial and async lies between the two at every batch size.
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
/// its transactions ingested, each paying `CONSUME_COST` once it arrives.
fn makespan<I>(clock: &SimClock, sign: impl FnOnce() -> I) -> Duration
where
    I: IntoIterator<Item = SignedTransaction>,
{
    let start = clock.now();
    let mut signed = sign().into_iter();
    while signed.next().is_some() {
        clock.sleep(CONSUME_COST);
    }
    clock.now() - start
}

/// The makespans of serial, async and pipelined signing of `n` transactions.
fn makespans(clock: &SimClock, n: usize) -> [Duration; 3] {
    let (keypair, params) = (Keypair::from_seed(1), SigParams::fast());
    let obs = SignObs::paying(clock, SIGN_COST);
    let batch = make_batch(n);
    let serial = makespan(clock, || sign_serial_obs(batch, &keypair, &params, &obs));
    let batch = make_batch(n);
    let asynchronous = makespan(clock, || {
        sign_async_obs(batch, &keypair, &params, SIGNER_THREADS, &obs)
    });
    let mut rest = make_batch(n).into_iter();
    let claim = move |len| rest.by_ref().take(len).collect();
    let pipelined = makespan(clock, || {
        sign_chunks(claim, SIGNER_THREADS, keypair, params, obs.clone())
    });
    [serial, asynchronous, pipelined]
}

fn main() {
    println!("=== Fig. 8: workload generation — serial vs async vs async pipeline ===\n");
    let (sign_ms, consume_us) = (SIGN_COST.as_millis(), CONSUME_COST.as_micros());
    println!("model: {SIGNER_THREADS} signers, {sign_ms} ms simulated CPU per signature,");
    println!("{consume_us} us ingestion per transaction; makespans in simulated time\n");

    let clock = SimClock::virtual_time();
    let mut rows = Vec::new();
    let mut holds = true;
    for n in [10_000, 25_000, 50_000, 100_000] {
        eprintln!("batch of {n}...");
        let [serial, asynchronous, pipelined] = makespans(&clock, n);

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_is_read_exactly_at_ten_thousand_transactions() {
        // Serial signs every transaction, then ingests each: 10 000 x
        // (2 ms + 330 us). Async: eight signers share 1 250 each, then
        // ingest. Pipeline: the first chunks arrive after 128 signatures,
        // and from then on ingestion, the slower stage, never waits.
        let ms = Duration::from_millis;
        let [serial, asynchronous, pipelined] = makespans(&SimClock::virtual_time(), 10_000);
        assert_eq!(serial, ms(23_300));
        assert_eq!(asynchronous, ms(1_250 * 2 + 3_300));
        assert_eq!(pipelined, ms(128 * 2 + 3_300));
    }
}
