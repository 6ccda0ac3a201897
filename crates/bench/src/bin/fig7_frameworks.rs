//! **Fig. 7** — Peak performance as *measured by* three frameworks.
//!
//! The same two chains (Ethereum, Fabric) are evaluated with Hammer's task
//! processing, Blockbench-style batch testing, and Caliper-style
//! interactive testing. The paper's observation: on Fabric under heavy
//! load, Hammer reports 239 TPS vs Caliper's 176 — interactive listening
//! wastes client resources, and batch testing suffers from poll-time end
//! stamps and O(n·m) matching. On Ethereum the frameworks are
//! indistinguishable (the chain is the bottleneck at 18.6 TPS).

use bench::{save_csv, RunSpec};
use hammer_core::deploy::BackendRegistry;
use hammer_core::driver::TestingMode;
use hammer_core::machine::ClientMachine;
use hammer_store::report::{render_bars, render_table, to_csv};

fn mode_label(mode: TestingMode) -> &'static str {
    match mode {
        TestingMode::TaskProcessing => "Hammer",
        TestingMode::BatchBaseline => "Blockbench",
        TestingMode::Interactive => "Caliper",
    }
}

fn main() {
    println!("=== Fig. 7: peak TPS of Ethereum & Fabric as seen by three frameworks ===\n");

    let modes = [
        TestingMode::TaskProcessing,
        TestingMode::BatchBaseline,
        TestingMode::Interactive,
    ];

    let mut rows = Vec::new();
    let mut chart = Vec::new();
    for (chain_name, rate, seconds) in [("ethereum-sim", 20u32, 180usize), ("fabric-sim", 260, 60)]
    {
        for mode in modes {
            eprintln!("measuring {chain_name} with {}...", mode_label(mode));
            let mut spec = RunSpec::peak(chain_name, rate, seconds);
            spec.mode = mode;
            // The measuring client is the paper's 2-vCPU machine:
            // submission is comfortably within its budget, but Caliper's
            // event listener shares the same cores and its SDK buffer
            // loses responses once it falls behind.
            spec.machine = ClientMachine {
                submit_cost: std::time::Duration::from_millis(2),
                contention_overhead: 0.5,
                ..ClientMachine::paper_client()
            };
            spec.clients = 2;
            spec.threads_per_client = 2;
            spec.accounts = 30_000;
            // A heavyweight SDK response handler (~4 ms/event on the
            // 2-vCPU client) and a 500-event buffer.
            spec.listen_cost = std::time::Duration::from_millis(4);
            spec.event_buffer = 500;
            spec.speedup = if chain_name == "ethereum-sim" {
                400.0
            } else {
                100.0
            };
            let report = spec.run(&BackendRegistry::builtin());
            let label = format!("{}/{}", chain_name, mode_label(mode));
            chart.push((label, report.overall_tps));
            rows.push(vec![
                chain_name.to_owned(),
                mode_label(mode).to_owned(),
                format!("{:.1}", report.overall_tps),
                format!("{:.3}", report.latency.mean_s),
                report.committed.to_string(),
                report.timed_out.to_string(),
            ]);
        }
    }

    let header = [
        "chain",
        "framework",
        "tps",
        "mean_lat_s",
        "committed",
        "timed_out",
    ];
    println!("{}", render_table(&header, &rows));
    println!(
        "{}",
        render_bars("Measured peak TPS by framework", &chart, 50)
    );
    save_csv("fig7_frameworks", &to_csv(&header, &rows));

    println!("Paper reference: all frameworks agree on Ethereum (~18 TPS);");
    println!("on Fabric, Hammer (239) > Caliper (176) > Blockbench.");
}
