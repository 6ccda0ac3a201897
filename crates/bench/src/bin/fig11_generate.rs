//! **Fig. 11** — Real sequence vs generated sequence.
//!
//! Trains the paper's model on the first 80% of each trace, then rolls it
//! forward autoregressively over the final 20% horizon and overlays the
//! two series. The generated sequence should track long-term structure
//! (period), short-term dependencies, and bursts.

use bench::save_csv;
use hammer_predict::generate::generate_denormalized;
use hammer_predict::models::ours;
use hammer_predict::{Dataset, TrainConfig, WINDOW};
use hammer_store::report::{render_series, to_csv};
use hammer_workload::traces::{TraceKind, TraceSpec};

fn main() {
    println!("=== Fig. 11: real vs generated sequence (Ours) ===\n");
    let config = TrainConfig::default();

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for kind in TraceKind::all() {
        eprintln!("training on {}...", kind.name());
        let series = TraceSpec::paper(kind, 1).generate();
        let dataset = Dataset::new(&series, 0.8);
        let mut model = ours(&config);
        model.fit(&dataset.train, &config);

        // Seed with the last training window, then generate the test span.
        let seed: Vec<f64> = dataset.train[dataset.train.len() - WINDOW..].to_vec();
        let horizon = series.len() - dataset.train.len();
        let generated = generate_denormalized(&mut model, &seed, horizon, &dataset.normalizer);
        let real = &series[dataset.train.len()..];

        println!(
            "{}",
            render_series(&format!("{} — real (test span)", kind.name()), real, 8)
        );
        println!(
            "{}",
            render_series(
                &format!("{} — generated (rollout)", kind.name()),
                &generated,
                8
            )
        );

        let mae: f64 = real
            .iter()
            .zip(&generated)
            .map(|(r, g)| (r - g).abs())
            .sum::<f64>()
            / real.len() as f64;
        let real_mean = real.iter().sum::<f64>() / real.len() as f64;
        println!(
            "{}: rollout MAE = {:.1} (mean level {:.1})\n",
            kind.name(),
            mae,
            real_mean
        );

        for (i, (r, g)) in real.iter().zip(&generated).enumerate() {
            csv_rows.push(vec![
                kind.name().to_owned(),
                i.to_string(),
                format!("{r}"),
                format!("{g:.1}"),
            ]);
        }
    }

    save_csv(
        "fig11_generate",
        &to_csv(&["dataset", "step", "real", "generated"], &csv_rows),
    );
    println!("Paper reference: the generated sequence captures bursts, long-term");
    println!("and short-term structure of the real sequence.");
}
