//! **Scenario sweep** — the one sweep: scenarios retargeted across every
//! registered backend, each cell graded by its own expectations plus the
//! leak probes.
//!
//! By default the cells are the shipped corpus
//! (`hammer_core::scenario::corpus`, scripted faults and checkpoint/
//! kill/resume included); `--seeds N` runs N seeded-chaos scenarios
//! (`bench::seeded_chaos`) in their place. Every scenario is retargeted
//! to each backend's operating point (same window shape, average rate
//! scaled to the backend's moderate under-capacity rate) and run through
//! the unmodified driver by `bench::run_cells`.
//!
//! ```text
//! cargo run --release --bin scenario_sweep -- [--seeds N] [--smoke]
//!     [--list] [--scenario NAME] [--backend NAME]
//!     [--deploy-mode in|multi] [--crash-smoke]
//! ```
//!
//! `--deploy-mode multi` reruns the selected cells with each backend as
//! a supervised `node-host` OS process behind loopback TCP (build the
//! binary first: `cargo build --release --bin node-host`).
//! `--crash-smoke` runs one scripted multi-process scenario whose crash
//! window SIGKILLs the real node process mid-run and additionally
//! requires that the supervisor delivered the kill and restarted it.
//!
//! Emits a JSON verdict matrix to
//! `target/bench-results/scenario_sweep.json` and a final summary line
//! (`scenario sweep: R cells, V violations`) that CI greps for
//! `, 0 violations`; exits non-zero on any violation or run error.

use std::time::Duration;

use bench::{run_cells, seeded_chaos, OPERATING_POINTS};
use hammer_core::deploy::DeployMode;
use hammer_core::retry::RetryPolicy;
use hammer_core::scenario::{corpus, Scenario, Verdict};
use hammer_net::FaultPlan;

/// The smoke gate: two fast scenarios on the two fastest backends.
const SMOKE_SCENARIOS: [&str; 2] = ["nft-flash-crowd-mint", "partition-then-heal"];
const SMOKE_BACKENDS: [&str; 2] = ["fabric-sim", "neuchain-sim"];

fn usage() -> ! {
    eprintln!(
        "usage: scenario_sweep [--seeds N] [--smoke] [--list] [--scenario NAME] \
         [--backend NAME] [--deploy-mode in|multi] [--crash-smoke]"
    );
    std::process::exit(2);
}

struct Args {
    seeds: Option<u64>,
    smoke: bool,
    scenario: Option<String>,
    backend: Option<String>,
    deploy_mode: Option<DeployMode>,
    crash_smoke: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seeds: None,
        smoke: false,
        scenario: None,
        backend: None,
        deploy_mode: None,
        crash_smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seeds" => match value().parse() {
                Ok(n) if n > 0 => parsed.seeds = Some(n),
                _ => usage(),
            },
            "--smoke" => parsed.smoke = true,
            "--list" => {
                for name in corpus::names() {
                    let scenario = corpus::load(name).expect("corpus scenario must parse");
                    println!("{name}: {}", scenario.description());
                }
                std::process::exit(0);
            }
            "--scenario" => parsed.scenario = Some(value()),
            "--backend" => parsed.backend = Some(value()),
            "--deploy-mode" => {
                parsed.deploy_mode = Some(DeployMode::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--crash-smoke" => parsed.crash_smoke = true,
            _ => usage(),
        }
    }
    parsed
}

/// The multi-process crash smoke: one scripted scenario whose crash
/// window SIGKILLs the real `node-host` process. Passing means the
/// supervisor delivered the kill AND restarted the node AND the run
/// still completed with the accounting identity intact.
fn crash_smoke() -> Scenario {
    Scenario::builder("multi-process-crash-smoke")
        .describe("crash window SIGKILLs the node-host process; the supervisor restarts it")
        .backend("neuchain-sim")
        .deploy_mode(DeployMode::MultiProcess)
        .workload_with(|w| w.accounts = 100)
        .constant_load(30, 8)
        .retry(RetryPolicy::standard())
        .faults(FaultPlan::new().crash("ingress:0", Duration::from_secs(2), Duration::from_secs(4)))
        .expect_accounting_identity()
        .expect_no_stall()
        .build()
        .expect("the crash smoke scenario is statically valid")
}

/// The selected scenarios, each retargeted to every selected operating
/// point.
fn sweep_cells(args: &Args) -> Vec<Scenario> {
    let authored: Vec<Scenario> = match args.seeds {
        Some(seeds) => (1..=seeds).map(seeded_chaos).collect(),
        None => corpus::names()
            .into_iter()
            .map(|name| corpus::load(name).expect("corpus scenario must parse"))
            .collect(),
    };
    let selected = |only: &Option<String>, smoke: &[&str], name: &str| {
        only.as_deref().is_none_or(|only| only == name) && (!args.smoke || smoke.contains(&name))
    };
    let mut cells = Vec::new();
    for scenario in &authored {
        if !selected(&args.scenario, &SMOKE_SCENARIOS, scenario.name()) {
            continue;
        }
        let native_rate =
            scenario.control().total() as f64 / scenario.control().duration().as_secs_f64();
        for (backend, rate) in OPERATING_POINTS {
            if !selected(&args.backend, &SMOKE_BACKENDS, backend) {
                continue;
            }
            let mut cell = scenario
                .retarget(backend, f64::from(rate) / native_rate)
                .expect("retargeting a valid scenario must validate");
            if let Some(mode) = args.deploy_mode {
                cell = cell
                    .to_builder()
                    .deploy_mode(mode)
                    .build()
                    .expect("a validated scenario stays valid under a deploy-mode change");
            }
            cells.push(cell);
        }
    }
    cells
}

fn main() {
    let args = parse_args();
    let cells = if args.crash_smoke {
        vec![crash_smoke()]
    } else {
        sweep_cells(&args)
    };
    if cells.is_empty() {
        eprintln!("nothing to run (unknown scenario or backend filter?)");
        usage();
    }
    println!("=== Scenario sweep: {} cells ===\n", cells.len());
    let verdicts = run_cells(&cells);
    let mut ok = verdicts.iter().all(Verdict::passed);
    if args.crash_smoke {
        let stats = verdicts[0].process_faults.unwrap_or_default();
        println!(
            "process faults: {} sigkills delivered, {} restarts",
            stats.kills, stats.restarts
        );
        ok &= stats.kills >= 1 && stats.restarts >= 1;
    }
    std::process::exit(if ok { 0 } else { 1 });
}
