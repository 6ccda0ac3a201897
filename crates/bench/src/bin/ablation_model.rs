//! **Ablation (§IV / Fig. 5)** — what each component of the prediction
//! model contributes.
//!
//! The paper motivates the architecture piecewise: the TCN captures
//! long-distance dependencies, the BiGRU short-distance ones, and the
//! multi-head attention sudden bursts. This ablation trains the full
//! model and three reduced variants on each dataset and reports test MAE,
//! so the contribution of every stage is measurable rather than asserted.

use bench::save_csv;
use hammer_predict::models::{ablation_variants, ours, Model, TrainConfig};
use hammer_predict::{evaluate, Dataset};
use hammer_store::report::{render_table, to_csv};
use hammer_workload::traces::{TraceKind, TraceSpec};

fn main() {
    println!("=== Ablation: contribution of each Fig. 5 component ===\n");
    let config = TrainConfig::default();
    let mut rows = Vec::new();

    for kind in TraceKind::all() {
        let series = TraceSpec::paper(kind, 1).generate();
        let dataset = Dataset::new(&series, 0.8);
        let samples = dataset.test_samples();
        let targets: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let test_mae = |model: &mut Model| {
            eprintln!("{}: {}...", kind.name(), model.name);
            model.fit(&dataset.train, &config);
            let predictions: Vec<f64> =
                samples.iter().map(|(w, _)| model.predict_next(w)).collect();
            evaluate(&predictions, &targets).mae
        };

        let full_mae = test_mae(&mut ours(&config));
        rows.push(vec![
            kind.name().to_owned(),
            "full (Ours)".to_owned(),
            format!("{full_mae:.3}"),
            "-".to_owned(),
        ]);
        for mut variant in ablation_variants(&config) {
            let mae = test_mae(&mut variant);
            let delta = (mae - full_mae) / full_mae * 100.0;
            rows.push(vec![
                kind.name().to_owned(),
                variant.name.to_owned(),
                format!("{mae:.3}"),
                format!("{delta:+.1}%"),
            ]);
        }
    }

    let header = ["dataset", "variant", "test MAE", "vs full"];
    println!("{}", render_table(&header, &rows));
    save_csv("ablation_model", &to_csv(&header, &rows));
    println!("Positive 'vs full' = removing the component hurt. Each variant is");
    println!("one network, the full model a 3-member ensemble of the same recipe.");
}
