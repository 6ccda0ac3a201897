//! Quickstart: deploy a simulated blockchain, run a SmallBank evaluation,
//! and print the report plus the observability dashboard — the whole
//! Fig. 3 flow in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::net::{LinkConfig, SimClock, SimNetwork};
use hammer::obs::{render_dashboard, Obs};
use hammer::workload::{ControlSequence, WorkloadConfig};

fn main() {
    // 1. Preparation: bring up the SUT (Ansible role). The clock runs
    //    200x faster than wall time; all configured delays keep their
    //    ratios. Installing an `Obs` bundle on the network before the
    //    deployment turns on metrics, lifecycle spans, and the journal
    //    for every component that touches the network.
    let clock = SimClock::with_speedup(200.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    net.install_obs(Obs::new());
    let deployment = BackendRegistry::builtin()
        .deploy_on("neuchain-sim", &BackendOptions::default(), clock, net)
        .expect("registered backend");

    // 2. Describe the workload: SmallBank over 1 000 accounts, submitted
    //    by 2 clients x 2 threads (the paper's sweet spot).
    let workload = WorkloadConfig {
        accounts: 1_000,
        clients: 2,
        threads_per_client: 2,
        chain_name: "neuchain-sim".to_owned(),
        ..WorkloadConfig::default()
    };

    // 3. Shape the load with a control sequence: 10 simulated seconds
    //    ramping from 100 to 600 transactions per second.
    let control = ControlSequence::ramp(100, 600, 10, Duration::from_secs(1));

    // 4. Execute and report.
    let config = EvalConfig::builder().build().expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation failed");

    println!("chain        : {}", report.chain);
    println!("submitted    : {}", report.submitted);
    println!("committed    : {}", report.committed);
    println!("failed       : {}", report.failed);
    println!("timed out    : {}", report.timed_out);
    println!("throughput   : {:.1} TPS", report.overall_tps);
    println!(
        "latency      : mean {:.3}s / p95 {:.3}s / p99 {:.3}s",
        report.latency.mean_s, report.latency.p95_s, report.latency.p99_s
    );
    println!("sim duration : {:.1}s", report.sim_duration.as_secs_f64());
    println!("wall time    : {:.2}s", report.wall_time.as_secs_f64());

    // 5. The observability dashboard: TPS sparkline, per-stage latency
    //    quantiles, resource gauges, and the journal tail. The same data
    //    renders as Prometheus text via `obs.render_prometheus()`.
    let obs = deployment.net().obs();
    let series: Vec<f64> = report.tps_series.iter().map(|&n| n as f64).collect();
    println!("\n{}", render_dashboard(&obs, &series));
}
