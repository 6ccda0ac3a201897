//! The §IV pipeline end to end: synthetic trace → dataset → model →
//! generated continuation → control sequence → evaluation.

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::predict::generate::generate_denormalized;
use hammer::predict::models::linear;
use hammer::predict::{evaluate, Dataset, TrainConfig, WINDOW};
use hammer::workload::traces::{TraceKind, TraceSpec};
use hammer::workload::{ControlSequence, WorkloadConfig};

#[test]
fn trace_to_evaluation_pipeline() {
    // 1. Trace.
    let series = TraceSpec::paper(TraceKind::Sandbox, 5).generate();
    assert_eq!(series.len(), 300);

    // 2. Dataset + quick model (Linear keeps the test fast; Table III
    //    compares the full model zoo).
    let config = TrainConfig {
        epochs: 25,
        ..TrainConfig::default()
    };
    let dataset = Dataset::new(&series, 0.8);
    let mut model = linear(&config);
    let loss = model.fit(&dataset.train, &config);
    assert!(loss.is_finite());

    // 3. One-step accuracy beats the trivial "always predict the training
    //    mean" baseline (which scores MAE = mean absolute deviation).
    let samples = dataset.test_samples();
    let mut predictions = Vec::new();
    let mut targets = Vec::new();
    for (w, t) in &samples {
        predictions.push(model.predict_next(w));
        targets.push(*t);
    }
    let metrics = evaluate(&predictions, &targets);
    let trivial_mae = targets.iter().map(|t| t.abs()).sum::<f64>() / targets.len() as f64;
    assert!(
        metrics.mae < trivial_mae * 1.05,
        "model MAE {:.3} no better than trivial {:.3}",
        metrics.mae,
        trivial_mae
    );

    // 4. Generate a 30-hour continuation; it must be finite, non-negative,
    //    and in a plausible range of the training data.
    let seed: Vec<f64> = dataset.train[dataset.train.len() - WINDOW..].to_vec();
    let generated = generate_denormalized(&mut model, &seed, 30, &dataset.normalizer);
    assert_eq!(generated.len(), 30);
    let train_max = series.iter().copied().fold(0.0f64, f64::max);
    for v in &generated {
        assert!(v.is_finite() && *v >= 0.0);
        assert!(*v <= train_max * 3.0, "generated value {v} exploded");
    }

    // 5. Shape the generated series into a control sequence and run it.
    let control = ControlSequence::from_trace(&generated, 2_000, Duration::from_secs(1));
    assert_eq!(control.len(), 30);
    let total = control.total();
    assert!((total as i64 - 2_000).abs() <= 30, "total = {total}");

    let deployment = BackendRegistry::builtin()
        .deploy("neuchain-sim", &BackendOptions::default())
        .unwrap();
    let workload = WorkloadConfig {
        accounts: 500,
        chain_name: "neuchain-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let eval_config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .drain_timeout(Duration::from_secs(120))
        .build()
        .expect("valid config");
    let report = Evaluation::new(eval_config)
        .run(&deployment, &workload, &control)
        .expect("run failed");
    assert_eq!(
        report.committed + report.failed + report.timed_out,
        total as usize
    );
    assert!(report.committed as u64 > total * 9 / 10);
}
