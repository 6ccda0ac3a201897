//! Table II end to end: run an evaluation, rebuild the Performance table
//! from the report's records, and ask it the paper's two statements and the
//! four aggregates the report carries.
//!
//! ```text
//! cargo run --release --example performance_table
//! ```

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{perf_row, EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::store::report::render_table;
use hammer::store::TableStore;
use hammer::workload::{ControlSequence, WorkloadConfig};

fn main() {
    // Run a short evaluation on the Fabric simulator.
    let deployment = BackendRegistry::builtin()
        .deploy("fabric-sim", &BackendOptions::default())
        .expect("registered backend");
    let workload = WorkloadConfig {
        accounts: 2_000,
        chain_name: "fabric-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(150, 8, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .drain_timeout(Duration::from_secs(60))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation failed");

    // The report's records are the run's Performance table, one row each.
    let table = TableStore::new();
    for record in &report.records {
        table.insert(perf_row(record, &report.chain));
    }
    println!(
        "run complete: {} committed, {} rows in the Performance table\n",
        report.committed,
        table.len()
    );

    println!(
        "SELECT COUNT(*) AS TPS FROM Performance\n\
         WHERE STATUS = '1' AND TIMESTAMPDIFF(SECOND, start_time, end_time) <= 1"
    );
    let tps = vec![vec![table.tps_query().to_string()]];
    println!("{}", render_table(&["TPS"], &tps));

    let latency = table.latency_query();
    println!(
        "SELECT tx_id, start_time, end_time,\n\
         TIMESTAMPDIFF(MILLISECOND, start_time, end_time) AS Latency FROM Performance\n\
         (first 8 of {} rows)",
        latency.len()
    );
    let rows: Vec<Vec<String>> = latency
        .iter()
        .take(8)
        .map(|(tx_id, start, end, ms)| {
            vec![
                format!("{tx_id:016x}"),
                format!("{:.3}", start.as_secs_f64()),
                format!("{:.3}", end.as_secs_f64()),
                ms.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["tx_id", "start_time", "end_time", "Latency"], &rows)
    );

    // The four aggregates the report carries, asked of the table.
    let summary = table.summary(Duration::from_secs(1));
    let latency = summary.latency;
    println!("overall_tps           {:.1}", summary.overall_tps);
    println!(
        "latency p50/p95/p99   {:.3} / {:.3} / {:.3} s",
        latency.p50_s, latency.p95_s, latency.p99_s
    );
    println!("tps_series            {:?}", summary.tps_series);
    println!("per_client_committed  {:?}", summary.per_client_committed);
    let reported = (
        report.overall_tps,
        report.latency,
        &report.tps_series,
        &report.per_client_committed,
    );
    let asked = (
        summary.overall_tps,
        latency,
        &summary.tps_series,
        &summary.per_client_committed,
    );
    println!("identical to the report's: {}", asked == reported);
}
