//! Criterion microbench behind Fig. 9: block matching against a large
//! in-flight set, Hammer task processing vs the batch-testing baseline,
//! plus the Bloom pre-filter probe in front of the table, and the sharded
//! tracker's grouped paths against their one-by-one twins and on the
//! stream a run makes. This is the tracker layer's ledger
//! (`BENCH_tracker.json`, written by `scripts/bench_snapshot.sh`).

use std::cell::RefCell;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hammer_chain::smallbank::Op;
use hammer_chain::types::{SignedTransaction, Transaction, TxId};
use hammer_core::baseline::BatchQueue;
use hammer_core::bloom::BloomFilter;
use hammer_core::index::{TxRecord, TxTable};
use hammer_core::shard::ShardedTxTable;
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;

fn tx_ids(n: usize) -> Vec<TxId> {
    (0..n as u64)
        .map(|nonce| {
            Transaction {
                client_id: 0,
                server_id: 0,
                nonce,
                op: Op::KvGet { key: nonce },
                chain_name: "bench".to_owned(),
                contract_name: "kv".to_owned(),
            }
            .id()
        })
        .collect()
}

fn bench_matching(c: &mut Criterion) {
    bench::record_host("tracker");
    let mut group = c.benchmark_group("block_matching");
    group.sample_size(10);
    let block_m = 1_000usize;

    // A million records in flight is the `inproc_deep`-style depth; 50k fit
    // in L2 and hide the cache misses. The baseline's O(n·m) scan stops at
    // 100k.
    for &n in &[10_000usize, 50_000, 100_000, 1_000_000] {
        let ids = tx_ids(n);
        let block: Vec<TxId> = ids[n - block_m..].to_vec();
        group.throughput(Throughput::Elements(block_m as u64));

        if n <= 100_000 {
            group.bench_with_input(BenchmarkId::new("batch_baseline", n), &n, |b, _| {
                b.iter_batched(
                    || {
                        let mut queue = BatchQueue::new();
                        for id in &ids {
                            queue.insert(*id, 0, 0, Duration::ZERO);
                        }
                        queue
                    },
                    |mut queue| queue.complete_block(&block, Duration::from_secs(1)),
                    criterion::BatchSize::LargeInput,
                );
            });
        }

        // One filled table serves successive blocks, so their slots and
        // filter blocks come from memory and freeing it is not timed; once
        // all of it has matched, a fresh copy replaces it, untimed.
        let mut full = TxTable::with_capacity(n);
        for id in &ids {
            full.insert(*id, 0, 0, Duration::ZERO);
        }
        let table = RefCell::new(full.clone());
        let mut next = 0;
        group.bench_with_input(BenchmarkId::new("hammer_taskproc", n), &n, |b, _| {
            b.iter_batched(
                || {
                    if next == n {
                        (next, *table.borrow_mut()) = (0, full.clone());
                    }
                    next += block_m;
                    &ids[next - block_m..next]
                },
                |sealed| {
                    let mut table = table.borrow_mut();
                    let end = Duration::from_secs(1);
                    sealed
                        .iter()
                        .filter(|id| table.complete(id, end, true))
                        .count()
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracking_insert");
    group.sample_size(10);
    for (n, name) in [(50_000, "50k"), (1_000_000, "1m")] {
        let ids = tx_ids(n);
        group.throughput(Throughput::Elements(n as u64));

        group.bench_function(format!("txtable_insert_{name}"), |b| {
            b.iter(|| {
                let mut table = TxTable::with_capacity(1024); // force growth
                for id in &ids {
                    table.insert(*id, 0, 0, Duration::ZERO);
                }
                table.len()
            });
        });

        group.bench_function(format!("batchqueue_insert_{name}"), |b| {
            b.iter(|| {
                let mut queue = BatchQueue::new();
                for id in &ids {
                    queue.insert(*id, 0, 0, Duration::ZERO);
                }
                queue.pending()
            });
        });
    }
    group.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    let mut bloom = BloomFilter::new(100_000, 0.01);
    for i in 0..100_000u64 {
        bloom.insert(i);
    }
    group.throughput(Throughput::Elements(1));
    // Re-inserting a key sets the bits it already set: the filter the
    // lookups below read stays the one built above.
    group.bench_function("insert", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            bloom.insert(i)
        });
    });
    group.bench_function("contains_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            bloom.contains(i)
        });
    });
    group.bench_function("contains_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bloom.contains(1_000_000 + i)
        });
    });
    group.finish();
}

/// Ids one sharded tracker holds while the grouped rows and their twins
/// are timed, far past the caches: an `inproc_deep`-style stress, twenty
/// times the 40 000–50 000 in flight `inproc_saturate` peaks at.
const HELD: usize = 1_000_000;
/// Fresh ids the insert rows add before their table is rebuilt, untimed,
/// so every sample inserts into a table holding between `HELD` and
/// `HELD + FRESH` ids.
const FRESH: usize = 200_000;
/// A fixed shard count, so the rows do not depend on the host's cores.
const SHARDS: usize = 4;
/// Ids the stream row sends through a tracker of the driver's one shard.
const STREAM: usize = 1_000_000;
/// How far behind the newest id the stream row matches each block: about
/// what `inproc_saturate` holds in flight.
const LAG: usize = 40_000;

/// A row's name and how it records one chunk.
type InsertRow<'a> = (&'a str, &'a dyn Fn(&ShardedTxTable, &[SignedTransaction]));
/// A row's name and how it matches one block, copying out what completed.
type MatchRow<'a> = (
    &'a str,
    &'a dyn Fn(&ShardedTxTable, &[TxId], &mut Vec<TxRecord>),
);

/// A tracker holding `ids`, sized for them plus twice `FRESH`, so no
/// insert a row times expands a shard, rotates its filter or grows its
/// vector list: a shard sized for exactly its share of the ids hashed to it
/// reallocates its list near the end.
fn held_tracker(ids: &[TxId]) -> ShardedTxTable {
    let table = ShardedTxTable::new(SHARDS, ids.len() + 2 * FRESH);
    for id in ids {
        table.insert(*id, 0, 0, Duration::ZERO);
    }
    table
}

fn bench_grouped(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracker_grouped");
    group.sample_size(10);
    let ids = tx_ids(HELD + FRESH);
    let (held, fresh) = ids.split_at(HELD);

    // The submit path's 128-transaction chunks: clones of one signed
    // transaction with their ids replaced, as the tracker reads no
    // signature.
    let template = Transaction {
        client_id: 0,
        server_id: 0,
        nonce: 0,
        op: Op::KvGet { key: 0 },
        chain_name: "bench".to_owned(),
        contract_name: "kv".to_owned(),
    }
    .sign(&Keypair::from_seed(1), &SigParams::fast());
    let chunks: Vec<Vec<SignedTransaction>> = fresh
        .chunks(128)
        .map(|ids| {
            let with_id = |id: &TxId| SignedTransaction {
                id: *id,
                ..template.clone()
            };
            ids.iter().map(with_id).collect()
        })
        .collect();
    group.throughput(Throughput::Elements(128));
    // Each row takes the next chunk of fresh ids; once all of them are in,
    // the table is rebuilt from the held ids, untimed.
    let insert_rows: [InsertRow; 2] = [
        ("insert_chunk_128", &|table, chunk| {
            table.insert_chunk(chunk, Duration::ZERO);
        }),
        ("insert_loop_128", &|table, chunk| {
            for signed in chunk {
                table.insert(signed.id, 0, 0, Duration::ZERO);
            }
        }),
    ];
    for (name, insert) in insert_rows {
        let table = RefCell::new(held_tracker(held));
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    if next == chunks.len() {
                        (next, *table.borrow_mut()) = (0, held_tracker(held));
                    }
                    next += 1;
                    &chunks[next - 1]
                },
                |chunk| insert(&table.borrow(), chunk),
                criterion::BatchSize::LargeInput,
            );
        });
    }

    // Each row matches the next block of held ids, copying out what
    // completed; once all of them have matched, the table is rebuilt,
    // untimed.
    let block_n = 5_000;
    let valid = vec![true; block_n];
    group.throughput(Throughput::Elements(block_n as u64));
    let match_rows: [MatchRow; 2] = [
        ("complete_block_5000", &|table, block, out| {
            let end = Duration::from_secs(1);
            table.complete_block_with(block, &valid, end, &mut |r| out.push(r.clone()));
        }),
        ("complete_loop_5000", &|table, block, out| {
            let end = Duration::from_secs(1);
            out.extend(block.iter().filter_map(|id| table.complete(id, end, true)));
        }),
    ];
    for (name, complete) in match_rows {
        let table = RefCell::new(held_tracker(held));
        let mut out = Vec::with_capacity(block_n);
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    if next == HELD {
                        (next, *table.borrow_mut()) = (0, held_tracker(held));
                    }
                    next += block_n;
                    &held[next - block_n..next]
                },
                |block| {
                    out.clear();
                    complete(&table.borrow(), block, &mut out)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }

    // The shape a run has: each sample inserts the stream's next block of
    // ids in 128-transaction chunks and matches the block `LAG` behind
    // them, on a tracker built for the whole stream. Once the stream is
    // through, a fresh tracker is filled to the lag, untimed.
    let stream = &ids[..STREAM];
    let lagging = || {
        let table = ShardedTxTable::new(1, STREAM);
        for id in &stream[..LAG] {
            table.insert(*id, 0, 0, Duration::ZERO);
        }
        table
    };
    let table = RefCell::new(lagging());
    let block = RefCell::new(vec![template.clone(); block_n]);
    let mut next = LAG;
    group.bench_function("stream_1m_lag_40k", |b| {
        b.iter_batched(
            || {
                if next == STREAM {
                    (next, *table.borrow_mut()) = (LAG, lagging());
                }
                let fresh = &stream[next..next + block_n];
                for (signed, id) in block.borrow_mut().iter_mut().zip(fresh) {
                    signed.id = *id;
                }
                next += block_n;
                &stream[next - LAG - block_n..next - LAG]
            },
            |settled| {
                let table = table.borrow();
                for chunk in block.borrow().chunks(128) {
                    table.insert_chunk(chunk, Duration::ZERO);
                }
                let mut matched = 0;
                let end = Duration::from_secs(1);
                table.complete_block_with(settled, &valid, end, &mut |_| matched += 1);
                matched
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_insert,
    bench_bloom,
    bench_grouped
);
criterion_main!(benches);
