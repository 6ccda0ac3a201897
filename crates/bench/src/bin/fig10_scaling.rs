//! **Fig. 10** — Fabric throughput/latency vs client-thread and client
//! counts.
//!
//! The paper's clients are 2-vCPU machines, so throughput peaks at
//! **2 threads per client** — beyond that, core time-sharing and
//! scheduling overhead shrink the offered rate. Across **clients**, two
//! clients saturate the chain; further clients push offered load past the
//! endorsement capacity, deepening the endorse-to-commit window so MVCC
//! conflicts climb (the paper found this in the peer logs), and at five
//! clients the nodes shed load outright (inbox rejections), cutting
//! throughput and capping latency.
//!
//! Both sweeps drive each client thread in a near-closed loop (the control
//! budget is far above the machine capacity), exactly like a peak test.

use bench::{save_csv, save_result};
use hammer_core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer_core::driver::{EvalConfig, EvalReport, Evaluation};
use hammer_core::machine::ClientMachine;
use hammer_fabric::FabricConfig;
use hammer_rpc::json::Value;
use hammer_store::report::{render_table, to_csv};
use hammer_workload::{AccessDistribution, ControlSequence, WorkloadConfig};
use std::time::Duration;

/// The paper's 2-vCPU client: ~12 ms of client CPU per submission
/// (SDK serialisation + gRPC + bookkeeping) and heavy scheduling overhead
/// once threads exceed cores.
fn paper_client() -> ClientMachine {
    ClientMachine {
        vcpus: 2,
        submit_cost: Duration::from_millis(12),
        contention_overhead: 0.5,
    }
}

fn run(fabric: FabricConfig, clients: u32, threads: u32, workload: WorkloadConfig) -> EvalReport {
    let mut registry = BackendRegistry::builtin();
    registry.register("fabric-sim", move |_, clock, net| {
        let chain = hammer_fabric::start(fabric.clone(), clock.clone(), net.clone());
        Deployment::from_chain(chain, clock, net)
    });
    let deployment = registry
        .deploy("fabric-sim", &BackendOptions::default())
        .expect("registered above");
    let workload = WorkloadConfig {
        clients,
        threads_per_client: threads,
        chain_name: "fabric-sim".to_owned(),
        ..workload
    };
    // 600/s budget: far above what the modelled machines can offer, so the
    // client machines (not the pacer) set the submission rate.
    let control = ControlSequence::constant(600, 40, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(paper_client())
        .drain_timeout(Duration::from_secs(60))
        .build()
        .expect("valid config");
    Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("run failed")
}

/// One run of a sweep as a JSON object: which sweep, the swept value,
/// the record-free report.
fn sweep_point(sweep: &str, value: u32, report: &EvalReport) -> Value {
    Value::object([
        ("sweep", Value::from(sweep)),
        ("value", Value::from(u64::from(value))),
        ("report", report.to_value()),
    ])
}

fn main() {
    println!("=== Fig. 10: Fabric vs client threads and client count ===\n");
    let mut json_runs: Vec<Value> = Vec::new();

    // Sweep 1: one client, 1..6 threads. Uniform access over a large pool
    // keeps conflicts out of the picture; the client machine dominates.
    let mut rows = Vec::new();
    for threads in 1..=6u32 {
        eprintln!("threads = {threads}...");
        let out = run(
            FabricConfig::default(),
            1,
            threads,
            WorkloadConfig {
                accounts: 5_000,
                distribution: AccessDistribution::Uniform,
                ..WorkloadConfig::default()
            },
        );
        rows.push(vec![
            threads.to_string(),
            format!("{:.1}", out.overall_tps),
            format!("{:.3}", out.latency.mean_s),
            out.failed.to_string(),
            out.rejected.to_string(),
        ]);
        json_runs.push(sweep_point("threads", threads, &out));
    }
    let header = ["threads", "tps", "mean_lat_s", "conflicts", "rejected"];
    println!("--- thread sweep (1 client, 2 vCPUs) ---");
    println!("{}", render_table(&header, &rows));
    save_csv("fig10_threads", &to_csv(&header, &rows));

    // Sweep 2: 1..5 clients, 2 threads each. Endorsement capacity is the
    // chain-side ceiling (4 endorsers x 15 ms each ~ 267 tx/s, just below
    // what two clients offer; validation at 3.5 ms/tx keeps up with it);
    // past saturation the endorse-to-commit window deepens (latency and
    // MVCC conflicts rise), the bounded inbox sheds load, and every shed
    // request costs the endorsement pool 2 ms of handling — so throughput
    // erodes as client count grows. With validation slower than
    // endorsement instead, its backlog would grow without bound at two
    // clients, and shedding at three would read as relief.
    let mut rows = Vec::new();
    for clients in 1..=5u32 {
        eprintln!("clients = {clients}...");
        let out = run(
            FabricConfig {
                endorse_cost: Duration::from_millis(15),
                inbox_capacity: 400,
                reject_handling_cost: Duration::from_millis(2),
                validate_cost: Duration::from_micros(3_500),
                ..FabricConfig::default()
            },
            clients,
            2,
            WorkloadConfig {
                accounts: 5_000,
                distribution: AccessDistribution::Uniform,
                ..WorkloadConfig::default()
            },
        );
        rows.push(vec![
            clients.to_string(),
            format!("{:.1}", out.overall_tps),
            format!("{:.3}", out.latency.mean_s),
            out.failed.to_string(),
            out.rejected.to_string(),
        ]);
        json_runs.push(sweep_point("clients", clients, &out));
    }
    let header = ["clients", "tps", "mean_lat_s", "conflicts", "rejected"];
    println!("--- client sweep (2 threads per client) ---");
    println!("{}", render_table(&header, &rows));
    save_csv("fig10_clients", &to_csv(&header, &rows));

    // Full machine-readable reports alongside the CSVs.
    save_result(
        "fig10_scaling.json",
        &Value::object([("runs", Value::Array(json_runs))]).to_json(),
    );

    println!("Paper reference: best at 2 threads / 2 clients; more threads add");
    println!("scheduling overhead; more clients add conflicts, then node-side");
    println!("rejections that cut throughput (and shed latency).");
}
