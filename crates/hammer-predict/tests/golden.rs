//! The predictor pinned bit-for-bit. The five Table III models and the
//! ablation's three variants train on every paper trace at 5 epochs, and
//! "Ours" rolls forward 24 steps from the last training window; the `{:?}`
//! text of every test-split MAE and R² and of every rollout value must
//! equal the committed golden table.
//!
//! A change that is meant to move these numbers updates the table by
//! pasting in the one this test prints on a mismatch.

use std::fmt::Write as _;

use hammer_predict::models::{ablation_variants, all_models};
use hammer_predict::{evaluate, generate_sequence, Dataset, TrainConfig, WINDOW};
use hammer_workload::traces::{TraceKind, TraceSpec};

const GOLDEN_PATH: &str = "crates/hammer-predict/tests/golden/predict_epochs5.txt";
const GOLDEN: &str = include_str!("golden/predict_epochs5.txt");

#[test]
fn table3_ablation_and_rollout_match_the_golden_table() {
    let config = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let mut actual = String::new();
    for kind in TraceKind::all() {
        let series = TraceSpec::paper(kind, 1).generate();
        let dataset = Dataset::new(&series, 0.8);
        let samples = dataset.test_samples();
        let targets: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let mut models = all_models(&config);
        models.extend(ablation_variants(&config));
        for model in &mut models {
            model.fit(&dataset.train, &config);
            let predictions: Vec<f64> =
                samples.iter().map(|(w, _)| model.predict_next(w)).collect();
            let m = evaluate(&predictions, &targets);
            let (name, mae, r2) = (model.name, m.mae, m.r2);
            writeln!(actual, "{} {name} mae {mae:?} r2 {r2:?}", kind.name()).unwrap();
        }
        let ours = models
            .iter_mut()
            .find(|m| m.name == "Ours")
            .expect("a Table III row");
        let seed = &dataset.train[dataset.train.len() - WINDOW..];
        for (i, v) in generate_sequence(ours, seed, 24).iter().enumerate() {
            writeln!(actual, "{} Ours rollout[{i}] {v:?}", kind.name()).unwrap();
        }
    }
    if actual != GOLDEN {
        panic!(
            "the predictor's numbers moved; if that is intended, paste this \
             table into {GOLDEN_PATH}:\n{actual}"
        );
    }
}
