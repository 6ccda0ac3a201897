//! Criterion microbench for the transaction hot path: sign → encode →
//! decode → verify, plus the primitive pairs the speedups come from —
//! windowed fixed-base modexp vs. generic square-and-multiply, batch vs.
//! per-signature verification, and buffer-reusing vs. allocating codecs.
//!
//! `scripts/bench_snapshot.sh` runs this group with `CRITERION_JSON` set
//! and checks the fixed-base speedup against its ≥3× floor, the SHA-256
//! kernel against the portable rounds, a sealed block against one Merkle
//! root, pipelined against serial signing, and the report's one-pass fold
//! against the table queries it replaced.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hammer_chain::codec;
use hammer_chain::smallbank::Op;
use hammer_chain::types::{verify_signed_batch, SignedTransaction, Transaction, TxId};
use hammer_chain::{ConsensusPolicy, NodeKernelBuilder, Round};
use hammer_core::signer::{sign_pipelined, sign_serial};
use hammer_crypto::merkle::merkle_root;
use hammer_crypto::sha256::{compress, compress_portable, sha256_pair};
use hammer_crypto::sig::{pow_g, pow_mod, SigParams, G, GROUP_ORDER};
use hammer_crypto::{sha256, Keypair};
use hammer_net::{LinkConfig, SimClock, SimNetwork};
use hammer_rpc::json::Value;
use hammer_rpc::transport::RpcServer;
use hammer_store::table::{summarize, PerfRow, RowOutcome, TableStore};

fn sample_tx(nonce: u64) -> Transaction {
    Transaction {
        client_id: (nonce % 16) as u32,
        server_id: 0,
        nonce,
        op: Op::KvPut {
            key: nonce,
            value: nonce * 7,
        },
        chain_name: "bench".to_owned(),
        contract_name: "smallbank".to_owned(),
    }
}

fn signed_burst(n: u64, keypair: &Keypair, params: &SigParams) -> Vec<SignedTransaction> {
    let mut buf = Vec::with_capacity(64);
    (0..n)
        .map(|i| sample_tx(i).sign_with_buf(keypair, params, &mut buf))
        .collect()
}

/// Fixed-base vs. generic modexp — the primitive behind the signing
/// speedup. Both sides run the same exponent set.
fn bench_modexp(c: &mut Criterion) {
    bench::record_host("roundtrip");
    let mut group = c.benchmark_group("roundtrip");
    let exps: Vec<u64> = (1..=64u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % GROUP_ORDER)
        .collect();
    group.throughput(Throughput::Elements(exps.len() as u64));
    group.bench_function("modexp_generic", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &e in &exps {
                acc ^= pow_mod(G, black_box(e));
            }
            acc
        });
    });
    group.bench_function("modexp_fixed_base", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &e in &exps {
                acc ^= pow_g(black_box(e));
            }
            acc
        });
    });
    group.finish();
}

/// The `crypto` layer's hash kernel: one compression through the
/// dispatch point (SHA extensions where the CPU has them) against the
/// portable rounds — `scripts/bench_snapshot.sh` gates on the ratio — and
/// the two shapes the seal path is made of, the Merkle inner node and a
/// whole root over a block's worth of 32-byte ids.
fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let block = [[0x5au8; 64]];
    group.bench_function("sha256_compress", |b| {
        let mut state = [0u32; 8];
        b.iter(|| {
            compress(&mut state, black_box(&block));
            state[0]
        });
    });
    group.bench_function("sha256_compress_portable", |b| {
        let mut state = [0u32; 8];
        b.iter(|| {
            compress_portable(&mut state, black_box(&block));
            state[0]
        });
    });
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    group.bench_function("sha256_pair", |b| {
        b.iter(|| sha256_pair(black_box(&left), black_box(&right)));
    });
    let ids: Vec<[u8; 32]> = (0..4096u32).map(|i| sha256(&i.to_be_bytes())).collect();
    group.throughput(Throughput::Elements(ids.len() as u64));
    group.bench_function("merkle_root_4096", |b| {
        b.iter(|| merkle_root(black_box(&ids)));
    });
    group.finish();
}

/// A chain that seals only when told: its loop waits for a round that
/// never comes due.
struct SealOnCall;

impl ConsensusPolicy for SealOnCall {
    fn chain_name(&self) -> &'static str {
        "bench"
    }

    fn ingress_node(&self, _shard: u32) -> String {
        "bench-node-0".to_owned()
    }

    fn seal_wait(&self, _shard: u32) -> Duration {
        Duration::MAX
    }
}

/// The `chain` layer's sealer: a 4096-id round through
/// `Kernel::seal_block` on a started chain with observability off — the
/// block, its header hash, the ledger push and the counters. The round is
/// built outside the timed region. `scripts/bench_snapshot.sh` gates this
/// row against `merkle_root_4096` over the same ids: one Merkle pass reads
/// about 1.0-1.1x, a second one about 2x. It runs last, so no other row
/// runs on the heap its ledger grew.
fn bench_seal(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let clock = SimClock::with_speedup(1000.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    let chain = NodeKernelBuilder::new(clock, net)
        .endpoint("bench-node-0")
        .start(SealOnCall);
    let ids: Vec<TxId> = (0..4096u32)
        .map(|i| TxId(sha256(&i.to_be_bytes())))
        .collect();
    let round = || Round {
        proposer: "bench-node-0".to_owned(),
        tx_ids: ids.clone(),
        valid: vec![true; ids.len()],
        gossip_to: Vec::new(),
        mempool_depth: None,
    };
    group.throughput(Throughput::Elements(ids.len() as u64));
    group.bench_function("seal_block_4096", |b| {
        b.iter_batched(
            round,
            |round| chain.kernel().seal_block(0, round),
            BatchSize::LargeInput,
        );
    });
    group.finish();
    chain.shutdown_and_join();
}

/// The four stages of the transaction round trip, each on the
/// buffer-reusing hot path, with the allocating encode kept as the
/// before-side comparison.
fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let params = SigParams::fast();
    let keypair = Keypair::from_seed(1);
    let tx = sample_tx(42);
    let signed = {
        let mut buf = Vec::with_capacity(64);
        tx.clone().sign_with_buf(&keypair, &params, &mut buf)
    };
    let mut wire = String::new();
    codec::encode_signed_tx_into(&signed, &mut wire);

    group.bench_function("sign", |b| {
        let mut buf = Vec::with_capacity(64);
        b.iter(|| tx.clone().sign_with_buf(&keypair, &params, &mut buf));
    });
    group.bench_function("encode", |b| {
        let mut out = String::with_capacity(wire.len());
        b.iter(|| {
            out.clear();
            codec::encode_signed_tx_into(&signed, &mut out);
            out.len()
        });
    });
    group.bench_function("encode_alloc", |b| {
        b.iter(|| codec::encode_signed_tx(&signed).to_json().len());
    });
    group.bench_function("decode", |b| {
        b.iter(|| codec::decode_signed_tx_bytes(wire.as_bytes()).expect("valid wire text"));
    });
    group.bench_function("verify", |b| {
        b.iter(|| signed.verify(&params));
    });
    group.finish();
}

/// Batch vs. per-signature verification on a block-sized burst under one
/// key — the shape the chain simulators hand to `verify_signed_batch`.
fn bench_verify_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let params = SigParams::fast();
    let keypair = Keypair::from_seed(1);
    let n = 64u64;
    let burst = signed_burst(n, &keypair, &params);
    group.throughput(Throughput::Elements(n));
    group.bench_function("verify_each64", |b| {
        b.iter(|| burst.iter().filter(|tx| tx.verify(&params)).count());
    });
    group.bench_function("verify_batch64", |b| {
        b.iter(|| {
            verify_signed_batch(&burst, &params)
                .into_iter()
                .filter(|ok| *ok)
                .count()
        });
    });
    group.finish();
}

/// The `signer` layer: a 4096-transaction batch signed on the calling
/// thread against the same batch signed by `min(host cores, 4)` pipelined
/// signers and drained by one consumer — the shape `driver_e2e` reports as
/// `signer.*`. The difference between `threads ×` and the measured ratio is
/// what the hand-off costs; `scripts/bench_snapshot.sh` gates on the ratio
/// when the host has a second core.
fn bench_signer(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let params = SigParams::fast();
    let keypair = Keypair::from_seed(1);
    let batch: Vec<Transaction> = (0..4096).map(sample_tx).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    group.throughput(Throughput::Elements(batch.len() as u64));
    // The unsigned batch is cloned outside the timed region on both rows.
    group.bench_function("sign_serial_4096", |b| {
        b.iter_batched(
            || batch.clone(),
            |txs| sign_serial(txs, &keypair, &params).len(),
            BatchSize::LargeInput,
        );
    });
    let pipelined = |txs| sign_pipelined(txs, keypair, params, threads).iter().count();
    // Everything before this row ran on one thread, and after an idle gap
    // this class of host takes about a second to give a process its other
    // cores (`driver_e2e` warms up the same way): without the warm-up the
    // 0.2 s of samples would time the ramp, not the signers.
    let warm_up = std::time::Instant::now();
    while warm_up.elapsed() < Duration::from_secs(1) {
        black_box(pipelined(batch.clone()));
    }
    group.bench_function("sign_pipelined_4096", |b| {
        b.iter_batched(|| batch.clone(), pipelined, BatchSize::LargeInput);
    });
    group.finish();
}

/// The `store` layer under the report, over 100 k committed rows: filling
/// a Performance table and asking it the four aggregate queries (what the
/// report did before, and `driver_e2e`'s `store.report_ns_per_row` still
/// times) against the one fold; `scripts/bench_snapshot.sh` gates the ratio.
fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let second = Duration::from_secs(1);
    // Latencies of 1 to 51 ms, in no order.
    let end_us = |i: u64| i * 10 + 1_000 + i.wrapping_mul(7919) % 50_000;
    let row = |i: u64| PerfRow {
        tx_id: i,
        client_id: (i % 4) as u32,
        server_id: 0,
        chain: "bench".to_owned(),
        start_time: Duration::from_micros(i * 10),
        end_time: Some(Duration::from_micros(end_us(i))),
        outcome: RowOutcome::Committed,
    };
    let rows: Vec<PerfRow> = (0..100_000).map(row).collect();
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("store_table_queries_100k", |b| {
        let queries = |rows| {
            let table = TableStore::new();
            table.insert_batch(rows);
            let (tps, latency) = (table.overall_tps(), table.latency_summary());
            (
                tps,
                latency,
                table.tps_series(second),
                table.per_client_committed(),
            )
        };
        b.iter_batched(|| rows.clone(), queries, BatchSize::LargeInput);
    });
    group.bench_function("store_summary_100k", |b| {
        b.iter(|| summarize(black_box(&rows).iter().map(PerfRow::view), second));
    });
    group.finish();
}

/// A full JSON-RPC call through the thread-local wire buffers.
fn bench_rpc_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("roundtrip");
    let server = RpcServer::new("bench");
    server.register("echo", Ok);
    let client = server.client();
    group.bench_function("rpc_call", |b| {
        b.iter(|| {
            client
                .call("echo", Value::from(12345))
                .expect("echo succeeds")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_modexp,
    bench_sha256,
    bench_stages,
    bench_verify_burst,
    bench_signer,
    bench_store,
    bench_rpc_call,
    bench_seal
);
criterion_main!(benches);
