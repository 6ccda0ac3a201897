//! The paper's §IV flow end to end: learn an application's temporal
//! character, extend it into a longer control sequence, and drive an
//! evaluation with the predicted load shape.
//!
//! ```text
//! cargo run --release --example workload_prediction
//! ```

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::predict::generate::generate_denormalized;
use hammer::predict::models::ours;
use hammer::predict::{Dataset, TrainConfig, WINDOW};
use hammer::store::report::render_series;
use hammer::workload::traces::{TraceKind, TraceSpec};
use hammer::workload::{ControlSequence, WorkloadConfig};

fn main() {
    // 1. The "real" workload: 300 hours of NFT transaction counts.
    let series = TraceSpec::paper(TraceKind::Nft, 1).generate();
    println!(
        "{}",
        render_series("real NFT trace (hourly tx counts)", &series, 8)
    );

    // 2. Train the TCN+BiGRU+attention model on it.
    let config = TrainConfig {
        epochs: 40, // quick demo; the Table III bench uses the full budget
        ..TrainConfig::default()
    };
    let dataset = Dataset::new(&series, 0.8);
    let mut model = ours(&config);
    eprintln!("training (a minute or so)...");
    let train_loss = model.fit(&dataset.train, &config);
    println!("training converged at MAE {train_loss:.4} (normalised scale)\n");

    // 3. Extend: generate 48 future hours the real trace does not have.
    let seed_window: Vec<f64> = dataset.train[dataset.train.len() - WINDOW..].to_vec();
    let generated = generate_denormalized(&mut model, &seed_window, 48, &dataset.normalizer);
    println!(
        "{}",
        render_series("generated continuation (48 h)", &generated, 8)
    );

    // 4. Turn the generated shape into a control sequence: same temporal
    //    character, rescaled to a 20 000-transaction test, one simulated
    //    second per slice.
    let control = ControlSequence::from_trace(&generated, 20_000, Duration::from_secs(1));
    println!(
        "control sequence: {} slices, total {} txs, peak {} tx/s, burstiness {:.2}\n",
        control.len(),
        control.total(),
        control.peak(),
        control.burstiness()
    );

    // 5. Evaluate Neuchain under the predicted load shape.
    let deployment = BackendRegistry::builtin()
        .deploy("neuchain-sim", &BackendOptions::default())
        .expect("registered backend");
    let workload = WorkloadConfig {
        accounts: 2_000,
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
        .expect("evaluation failed");
    println!(
        "{}: {} committed, {:.1} TPS, mean latency {:.3}s under the learned load shape",
        report.chain, report.committed, report.overall_tps, report.latency.mean_s
    );
    println!(
        "{}",
        render_series(
            "measured committed tx per simulated second",
            &report
                .tps_series
                .iter()
                .map(|v| *v as f64)
                .collect::<Vec<_>>(),
            8
        )
    );
}
