//! Criterion microbench for the observability layer: what one metric
//! event costs when enabled, and — the number the driver cares about —
//! that a *disabled* registry costs nearly nothing on the signing hot
//! path (the `sign_obs_disabled`/`sign_plain` pair must stay within
//! noise; `scripts/ci_check.sh` and `scripts/bench_snapshot.sh` gate the
//! ratio). `sign_plain` signs with `Transaction::sign_with_buf` itself,
//! not through `signer::sign_serial`, which is `sign_serial_obs` with a
//! disabled context and so would pay any tax the disabled branch grew.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hammer_chain::types::Transaction;
use hammer_core::signer::{sign_serial_obs, SignObs};
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::SimClock;
use hammer_obs::{Histogram, Journal, Obs, Registry, Stage};
use hammer_workload::{SmallBankGenerator, WorkloadConfig};

fn batch(n: usize) -> Vec<Transaction> {
    SmallBankGenerator::new(WorkloadConfig {
        accounts: 500,
        total_txs: n,
        ..WorkloadConfig::default()
    })
    .generate_all()
}

fn bench_primitives(c: &mut Criterion) {
    bench::record_host("obs_overhead");
    let mut group = c.benchmark_group("obs_overhead");

    let hist = Histogram::new();
    let mut v = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            // A cheap xorshift keeps the bucket index unpredictable so the
            // measurement is not one perfectly-predicted branch chain.
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            hist.record(v >> 32);
        });
    });

    let off = Histogram::disabled();
    group.bench_function("histogram_record_disabled", |b| {
        b.iter(|| {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            off.record(v >> 32);
        });
    });

    let mut filler = 1u64;
    let left = Histogram::new();
    let right = Histogram::new();
    for _ in 0..10_000 {
        filler ^= filler << 13;
        filler ^= filler >> 7;
        filler ^= filler << 17;
        left.record(filler >> 30);
        right.record(filler >> 34);
    }
    group.bench_function("histogram_merge", |b| {
        b.iter(|| left.merge(&right));
    });

    let registry = Registry::new();
    let counter = registry.counter("bench_counter");
    group.bench_function("counter_inc", |b| {
        b.iter(|| counter.inc());
    });

    let obs = Obs::new();
    let d = std::time::Duration::from_micros(37);
    group.bench_function("span_record", |b| {
        b.iter(|| obs.spans().record(Stage::Submitted, d));
    });

    let journal = Journal::new();
    let at = std::time::Duration::from_secs(1);
    group.bench_function("journal_push", |b| {
        b.iter(|| journal.block_seal(at, "bench-node", 7, 100));
    });

    group.finish();
}

fn bench_signing_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_signing");
    let n = 32usize;
    let txs = batch(n);
    let keypair = Keypair::from_seed(1);
    let params = SigParams::fast();
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function("sign_plain", |b| {
        b.iter_batched(
            || txs.clone(),
            |txs| {
                // One scratch buffer per batch, as `sign_serial_obs` has.
                let mut buf = Vec::new();
                let signed: Vec<_> = txs
                    .into_iter()
                    .map(|tx| tx.sign_with_buf(&keypair, &params, &mut buf))
                    .collect();
                signed.len()
            },
            BatchSize::SmallInput,
        );
    });

    let disabled = SignObs::disabled();
    group.bench_function("sign_obs_disabled", |b| {
        b.iter_batched(
            || txs.clone(),
            |txs| sign_serial_obs(txs, &keypair, &params, &disabled).len(),
            BatchSize::SmallInput,
        );
    });

    let obs = Obs::new();
    let clock = SimClock::realtime();
    let enabled = SignObs::new(&obs, &clock);
    group.bench_function("sign_obs_enabled", |b| {
        b.iter_batched(
            || txs.clone(),
            |txs| sign_serial_obs(txs, &keypair, &params, &enabled).len(),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_primitives, bench_signing_overhead);
criterion_main!(benches);
