//! Criterion microbench behind Fig. 9: block matching against a large
//! in-flight set, Hammer task processing vs the batch-testing baseline,
//! plus the Bloom pre-filter probe in front of the table. With
//! `taskproc_compaction` this is the tracker layer's ledger
//! (`BENCH_tracker.json`, written by `scripts/bench_snapshot.sh`).

use std::cell::RefCell;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hammer_chain::smallbank::Op;
use hammer_chain::types::{Transaction, TxId};
use hammer_core::baseline::BatchQueue;
use hammer_core::bloom::BloomFilter;
use hammer_core::index::TxTable;

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

    // A million records is what `inproc_saturate` holds; 50k fit in L2 and
    // hide the cache misses. The baseline's O(n·m) scan stops at 100k.
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

criterion_group!(benches, bench_matching, bench_insert, bench_bloom);
criterion_main!(benches);
