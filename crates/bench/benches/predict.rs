//! Criterion microbench for the prediction layer (paper §IV): one training
//! epoch of each Table III model over Sandbox's training windows
//! (`train_epoch/<model>`, the unit Table III, Fig. 11 and the ablation
//! spend their time in), and one autoregressive step of the proposed
//! model (`rollout_step/ours`, the unit a generated control sequence is
//! made of).
//!
//! An epoch iteration trains a freshly built model for its first epoch
//! (building it is not timed): how much later epochs cost depends on
//! where training has taken the weights, since a matrix product skips
//! the zeros a ReLU leaves. The tuned recipe's validation pass, snapshot
//! and restore are part of its epoch.
//!
//! `scripts/bench_snapshot.sh` runs this group with `CRITERION_JSON` set
//! and snapshots it to `BENCH_predict.json`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hammer_predict::models::{linear, ours, rnn, tcn, transformer, Model};
use hammer_predict::{generate_sequence, Dataset, TrainConfig, WINDOW};
use hammer_workload::traces::{TraceKind, TraceSpec};

fn bench_predict(c: &mut Criterion) {
    bench::record_host("predict");
    let series = TraceSpec::paper(TraceKind::Sandbox, 1).generate();
    let dataset = Dataset::new(&series, 0.8);
    let one_epoch = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let mut group = c.benchmark_group("predict");
    group.sample_size(10);
    let table3: [fn(&TrainConfig) -> Model; 5] = [linear, rnn, tcn, transformer, ours];
    for build in table3 {
        let id = format!("train_epoch/{}", build(&one_epoch).name.to_lowercase());
        group.bench_function(id, |b| {
            b.iter_batched(
                || build(&one_epoch),
                |mut model| model.fit(&dataset.train, &one_epoch),
                BatchSize::SmallInput,
            )
        });
    }
    let mut model = ours(&TrainConfig::default());
    let seed = &dataset.train[dataset.train.len() - WINDOW..];
    group.bench_function("rollout_step/ours", |b| {
        b.iter(|| generate_sequence(&mut model, seed, 1))
    });
    group.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
