//! Fault injection end to end: scripted fault plans on the simulated
//! network, the resilient submission path in the driver, and the
//! accounting invariants that tie them together.
//!
//! The key identity: every transaction pulled from the workload stream is
//! counted in `submitted`, and ends in exactly one terminal bucket —
//! `committed + failed + timed_out + rejected + dropped + expired`.
//! Under a crash-restart plan on a chain that never rejects or aborts
//! (Neuchain), that collapses to `committed + dropped + expired ==
//! submitted`.

use std::time::Duration;

use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, EvalReport, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::net::{FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer::workload::{ControlSequence, WorkloadConfig};

mod common;

/// Runs SmallBank on Neuchain with the given plan and retry policy:
/// `rate` transactions per slice for `slices` slices of `slice` each.
fn run_neuchain(
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    rate: u32,
    slices: usize,
    slice: Duration,
    speedup: f64,
) -> EvalReport {
    let clock = SimClock::with_speedup(speedup);
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    // Deploy first: install_faults validates the plan against the live
    // topology, so the node endpoints must already be registered.
    let deployment = BackendRegistry::builtin()
        .deploy_on(
            "neuchain-sim",
            &BackendOptions::default(),
            clock,
            net.clone(),
        )
        .unwrap();
    if let Some(plan) = plan {
        net.install_faults(plan);
    }
    let workload = WorkloadConfig {
        accounts: 500,
        chain_name: "neuchain-sim".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(rate, slices, slice);
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .retry(retry)
        .drain_timeout(Duration::from_secs(60))
        .build()
        .expect("valid config");
    Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation failed")
}

/// Both Neuchain gate nodes down for `[start, end)`: no ingress, no
/// epoch production.
fn crash_plan(start: Duration, end: Duration) -> FaultPlan {
    FaultPlan::new()
        .crash("neuchain-client-proxy", start, end)
        .crash("neuchain-epoch-server", start, end)
}

/// The hard invariants that must hold on *every* crash-restart run,
/// regardless of host scheduling: Neuchain neither aborts nor rejects,
/// the generous drain leaves nothing pending, and every submitted
/// transaction lands in exactly one terminal bucket.
fn assert_accounting_identity(report: &EvalReport) {
    assert_eq!(report.failed, 0, "unexpected aborts: {report:?}");
    assert_eq!(report.timed_out, 0, "drain too short: {report:?}");
    assert_eq!(report.rejected, 0, "crash outages must be transient");
    assert_eq!(
        report.committed + report.dropped + report.expired,
        report.submitted as usize,
        "accounting identity violated: {report:?}",
    );
}

/// The load-sensitive expectations: the fault window actually intersected
/// the submission schedule. A badly descheduled host can skew the whole
/// (sub-second wall time) run past the window, so the test retries once
/// before failing on these.
fn fault_activity(report: &EvalReport) -> Result<(), String> {
    if report.retried == 0 {
        return Err("no retries under a 3s crash".to_owned());
    }
    if report.dropped + report.expired == 0 {
        return Err("a 3s outage with a 1s retry deadline must exhaust some txs".to_owned());
    }
    if report.committed == 0 {
        return Err("recovery after restart committed nothing".to_owned());
    }
    // Per-window breakdown: both crash windows report degraded TPS
    // relative to the nominal (outside-window) rate.
    let nominal = report
        .fault_windows
        .iter()
        .find(|w| w.label == "nominal")
        .ok_or("nominal entry missing")?;
    let crash_windows: Vec<_> = report
        .fault_windows
        .iter()
        .filter(|w| w.label.starts_with("crash:"))
        .collect();
    if crash_windows.len() != 2 {
        return Err(format!(
            "expected 2 crash windows: {:?}",
            report.fault_windows
        ));
    }
    for w in crash_windows {
        if nominal.tps <= 0.0 || w.tps >= nominal.tps / 2.0 {
            return Err(format!(
                "window {} not degraded: {} vs nominal {}",
                w.label, w.tps, nominal.tps
            ));
        }
    }
    Ok(())
}

#[test]
fn crash_restart_accounting_identity() {
    let _guard = common::serial_guard();
    let run = || {
        run_neuchain(
            Some(crash_plan(Duration::from_secs(1), Duration::from_secs(4))),
            RetryPolicy::standard(),
            200,
            7,
            Duration::from_secs(1),
            50.0,
        )
    };
    let mut report = run();
    assert_accounting_identity(&report);
    if let Err(why) = fault_activity(&report) {
        eprintln!("crash window skewed by host scheduling ({why}); retrying once");
        report = run();
        assert_accounting_identity(&report);
    }
    if let Err(why) = fault_activity(&report) {
        panic!("{why}: {report:?}");
    }
}

#[test]
fn no_fault_plan_is_inert() {
    let _guard = common::serial_guard();
    let report = run_neuchain(
        None,
        RetryPolicy::standard(),
        150,
        3,
        Duration::from_secs(1),
        500.0,
    );
    assert_eq!(report.retried, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.expired, 0);
    assert!(report.fault_windows.is_empty());
    assert_eq!(report.committed, report.submitted as usize);
}

#[test]
fn budget_exhaustion_drops_transactions() {
    let _guard = common::serial_guard();
    // The whole run is inside the outage and backoff is tiny, so every
    // transaction burns its full attempt budget (2 retries) and is
    // dropped — never expired, never committed. Skew-resistant: the
    // window outlasts any possible schedule, and the single 60 s slice
    // puts the default deadline far beyond any host-descheduling gap
    // (which would otherwise expire a tx mid-backoff and break the
    // exact dropped/retried counts).
    let policy = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(1),
        multiplier: 2.0,
        max_backoff: Duration::from_millis(10),
        jitter: 0.0,
        deadline: None,
    };
    let report = run_neuchain(
        Some(crash_plan(Duration::ZERO, Duration::from_secs(600))),
        policy,
        200,
        1,
        Duration::from_secs(60),
        100.0,
    );
    assert!(report.submitted > 0);
    assert_eq!(report.committed, 0);
    assert_eq!(report.expired, 0, "budget must exhaust before the deadline");
    assert_eq!(report.dropped, report.submitted as usize);
    assert_eq!(
        report.retried,
        2 * report.submitted,
        "exactly max_retries re-attempts per transaction"
    );
}

#[test]
fn deadline_clamp_expires_transactions() {
    let _guard = common::serial_guard();
    // Ample attempt budget but backoff pauses that overrun the 500 ms
    // deadline after one retry: every transaction expires instead of
    // exhausting its budget.
    let policy = RetryPolicy {
        max_retries: 100,
        base_backoff: Duration::from_millis(200),
        multiplier: 2.0,
        max_backoff: Duration::from_secs(2),
        jitter: 0.0,
        deadline: Some(Duration::from_millis(500)),
    };
    let report = run_neuchain(
        Some(crash_plan(Duration::ZERO, Duration::from_secs(600))),
        policy,
        100,
        2,
        Duration::from_secs(1),
        100.0,
    );
    assert!(report.submitted > 0);
    assert_eq!(report.committed, 0);
    assert_eq!(report.dropped, 0, "deadline must clamp before the budget");
    assert_eq!(report.expired, report.submitted as usize);
    assert!(report.retried > 0);
}
