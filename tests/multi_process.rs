//! Multi-process deploy mode end to end: a supervised `node-host` OS
//! process behind real TCP, driven by the unmodified driver, with
//! crash-fault windows realised as SIGKILL of the actual process.
//!
//! These are the acceptance tests for the distributed mode: the run must
//! complete with the accounting identity and fault-window attribution
//! intact, the supervisor must actually kill and restart the process,
//! and teardown must leave no orphaned children behind.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use hammer::core::chaos::{check_report, live_children};
use hammer::core::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployMode, Deployment,
    ProcessFaultStats, SupervisorConfig,
};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::Scenario;
use hammer::net::{FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer::workload::{ControlSequence, SmallBankGenerator, WorkloadConfig};

/// The probes below count this process's children, so supervisor tests
/// must not overlap; the harness runs same-binary tests in parallel.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Cargo builds the workspace's bins for integration tests; point the
/// supervisor at the exact artifact instead of relying on path probing.
fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        node_host: Some(env!("CARGO_BIN_EXE_node-host").into()),
    }
}

/// A supervised `neuchain-sim` node on `clock`.
fn deploy(clock: &SimClock) -> Deployment {
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    BackendRegistry::builtin()
        .deploy_multi(
            "neuchain-sim",
            &BackendOptions::default(),
            clock.clone(),
            net,
            supervisor_config(),
            reconnect_policy_for(&RetryPolicy::standard(), clock),
        )
        .expect("multi-process deploy")
}

/// Waits up to `wall` for `done`, re-checking every 5 ms.
fn within(wall: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + wall;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

fn workload(backend: &str) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 100,
        chain_name: backend.to_owned(),
        ..WorkloadConfig::default()
    }
}

#[test]
fn supervised_run_completes_with_accounting_identity() {
    let _guard = serial();
    let children_before = live_children();
    let backend = "neuchain-sim";
    let clock = SimClock::with_speedup(100.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let retry = RetryPolicy::standard();
    let deployment = BackendRegistry::builtin()
        .deploy_multi(
            backend,
            &BackendOptions::default(),
            clock.clone(),
            net.clone(),
            supervisor_config(),
            reconnect_policy_for(&retry, &clock),
        )
        .expect("multi-process deploy");
    assert_eq!(deployment.client().chain_name(), backend);
    // The remote topology is mirrored locally so fault specs and the
    // observability surface see the same node names as in-process mode.
    assert!(!net.endpoint_names().is_empty());

    let control = ControlSequence::constant(50, 4, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(60))
        .retry(retry)
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload(backend), &control)
        .expect("run over TCP");

    assert_eq!(report.submitted, 200);
    assert!(
        report.committed > 150,
        "committed only {} of {}",
        report.committed,
        report.submitted
    );
    for check in check_report(&report, None) {
        assert!(check.passed, "{}: {}", check.name, check.detail);
    }

    deployment.down();
    drop(deployment);
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

#[test]
fn crash_window_sigkills_and_restarts_the_node_process() {
    let _guard = serial();
    let children_before = live_children();
    let backend = "neuchain-sim";
    let clock = SimClock::with_speedup(10.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let retry = RetryPolicy::standard();
    let deployment = BackendRegistry::builtin()
        .deploy_multi(
            backend,
            &BackendOptions::default(),
            clock.clone(),
            net.clone(),
            supervisor_config(),
            reconnect_policy_for(&retry, &clock),
        )
        .expect("multi-process deploy");
    let supervisor = deployment.supervisor().expect("multi mode").clone();
    let ingress = deployment.chain().ingress_nodes();
    let victim = ingress.first().expect("neuchain has ingress nodes");

    // One crash window in the middle of an 8-slice run. The plan lands
    // on the local net (driver attribution) and on the supervisor, which
    // realises it as SIGKILL + restart of the real process.
    let plan = FaultPlan::new().crash(victim, Duration::from_secs(2), Duration::from_secs(4));
    deployment.install_faults(plan).expect("install faults");

    let control = ControlSequence::constant(30, 8, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(60))
        .retry(retry)
        .stall_budget(Duration::from_secs(30))
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload(backend), &control)
        .expect("run survives the crash window");

    let stats = supervisor.stats();
    assert!(stats.kills >= 1, "no SIGKILL delivered: {stats:?}");
    assert!(stats.restarts >= 1, "node never restarted: {stats:?}");
    assert!(
        supervisor.node_alive(),
        "node should be healthy again after the window"
    );
    // The restarted process got every recorded seed replayed: its fresh
    // ledger knows each genesis account (an unseeded one reads as `None`),
    // holding the seeded balances or their committed successors.
    let workload = workload(backend);
    let mut funds = 0;
    for account in SmallBankGenerator::account_pool(workload.accounts, workload.seed) {
        let state = deployment
            .chain()
            .account(account)
            .expect("seeded account is known after the restart");
        funds += state.checking + state.savings;
    }
    assert!(funds >= workload.accounts as u64 * workload.initial_checking);

    // Completeness under real process death: the accounting identity and
    // the per-window attribution still hold, and the watchdog did not
    // fire (the outage is far shorter than the stall budget).
    assert!(!report.stalled, "stall watchdog aborted the run");
    assert!(report.committed > 0, "nothing committed across the crash");
    let plan = deployment.net().fault_plan();
    for check in check_report(&report, plan.as_deref()) {
        assert!(check.passed, "{}: {}", check.name, check.detail);
    }
    // The crash window plus the nominal remainder are attributed.
    assert_eq!(report.fault_windows.len(), 2);

    deployment.down();
    drop(deployment);
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

#[test]
fn scenario_dsl_drives_multi_process_crash_runs() {
    let _guard = serial();
    let children_before = live_children();
    // The DSL path resolves node-host from the environment: point it at
    // the test-build artifact explicitly.
    std::env::set_var("HAMMER_NODE_HOST", env!("CARGO_BIN_EXE_node-host"));

    let spec = r#"{
        "name": "multi-process-crash-smoke",
        "backend": "neuchain-sim",
        "deploy_mode": "multi_process",
        "workload": {"accounts": 100},
        "control": {"shape": "constant", "rate": 30, "slices": 8},
        "retry": "standard",
        "chaos": {"faults": [
            {"kind": "crash", "node": "ingress:0", "start_ms": 2000, "end_ms": 4000}
        ]},
        "expectations": [
            {"kind": "accounting_identity"},
            {"kind": "no_stall"}
        ]
    }"#;
    let scenario = Scenario::from_json(spec).expect("spec parses");
    assert_eq!(scenario.deploy_mode(), DeployMode::MultiProcess);

    let verdict = scenario.run().expect("multi-process scenario run");
    assert!(
        verdict.passed(),
        "violations: {:?}",
        verdict
            .violations()
            .iter()
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect::<Vec<_>>()
    );
    let stats = verdict.process_faults.expect("multi mode reports stats");
    assert!(stats.kills >= 1, "no SIGKILL delivered: {stats:?}");
    assert!(stats.restarts >= 1, "node never restarted: {stats:?}");
    assert!(verdict.to_json().contains("\"process_faults\""));

    // run_on tears down deterministically before returning.
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

/// A crash window shorter than a wake-up's lateness is still an outage:
/// the supervisor acts at the window's edges, so 5 ms at 10× — 0.5 ms of
/// wall time, opening 300 ms of wall time after the clock's epoch — kills
/// the node exactly once and restarts it exactly once. (Sampled every
/// 10 ms of wall time, the window is seen about one time in twenty.)
#[test]
fn a_crash_window_shorter_than_a_millisecond_of_wall_time_kills_and_restarts_once() {
    let _guard = serial();
    let children_before = live_children();
    let clock = SimClock::with_speedup(10.0);
    let deployment = deploy(&clock);
    let supervisor = deployment.supervisor().expect("multi mode").clone();
    let victim = deployment.chain().ingress_nodes()[0].clone();
    let (start, end) = (Duration::from_millis(3000), Duration::from_millis(3005));
    let plan = FaultPlan::new().crash(&victim, start, end);
    deployment.install_faults(plan).expect("install faults");
    assert!(clock.now() < start, "armed too late: {:?}", clock.now());

    let restarted = within(Duration::from_secs(10), || {
        clock.now() >= end && supervisor.stats().restarts >= 1 && supervisor.node_alive()
    });
    // Nothing follows the edge pair.
    std::thread::sleep(Duration::from_millis(200));
    let stats = supervisor.stats();
    assert!(restarted, "no restart within 10 s: {stats:?}");
    assert_eq!(
        stats,
        ProcessFaultStats {
            kills: 1,
            restarts: 1
        }
    );
    assert!(supervisor.node_alive());

    drop(supervisor);
    drop(deployment);
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

/// An exit nobody planned is seen as its stdout's EOF and restarted: with
/// no window open, SIGKILL the node-host from outside.
#[test]
fn a_node_killed_from_outside_is_restarted() {
    let _guard = serial();
    let children_before = live_children();
    let clock = SimClock::with_speedup(10.0);
    let deployment = deploy(&clock);
    let supervisor = deployment.supervisor().expect("multi mode").clone();
    let pid = node_host_pid().expect("the node-host is a live child");
    let killed = std::process::Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -KILL {pid}: {killed}");

    let restarted = within(Duration::from_secs(10), || {
        supervisor.stats().restarts >= 1 && supervisor.node_alive()
    });
    assert!(
        restarted,
        "no restart within 10 s: {:?}",
        supervisor.stats()
    );
    assert_eq!(supervisor.stats().kills, 0, "no window asked for a kill");
    assert!(node_host_pid().is_some_and(|fresh| fresh != pid));

    drop(supervisor);
    drop(deployment);
    assert!(
        live_children() <= children_before,
        "node-host process leaked past teardown"
    );
}

/// The pid of this process's live `node-host` child, read from `/proc`
/// the way `live_children` counts children.
fn node_host_pid() -> Option<u32> {
    let own = std::process::id();
    let procs = std::fs::read_dir("/proc").ok()?;
    procs
        .filter_map(|entry| {
            let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // `pid (comm) state ppid ...`; comm may hold spaces and parens.
            let (head, tail) = stat.rsplit_once(')')?;
            let mut fields = tail.split_whitespace();
            let (state, ppid) = (fields.next()?, fields.next()?.parse::<u32>().ok()?);
            let host = head.ends_with("(node-host") && state != "Z" && ppid == own;
            host.then_some(pid)
        })
        .next()
}

/// A thread that takes part in a virtual clock cannot wait for a node
/// process's handshake: no scheduler sees that OS wait, so it would hold
/// the clock's turn, and the reader it waits for would never run, until
/// the 30 s handshake timeout. The deploy is refused at once, with the
/// cause named, and no process is started.
#[test]
fn a_multi_process_deploy_from_virtual_time_is_refused_at_once() {
    let _guard = serial();
    let children_before = live_children();
    let _virtual = SimClock::virtual_time();
    let started = Instant::now();
    let clock = SimClock::with_speedup(10.0);
    let err = BackendRegistry::builtin()
        .deploy_multi(
            "neuchain-sim",
            &BackendOptions::default(),
            clock.clone(),
            SimNetwork::new(clock.clone(), LinkConfig::lan()),
            supervisor_config(),
            reconnect_policy_for(&RetryPolicy::standard(), &clock),
        )
        .expect_err("a deploy from virtual time must fail");
    assert!(err.to_string().contains("virtual time"), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );
    assert!(live_children() <= children_before, "a node process started");
}
