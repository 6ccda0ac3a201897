//! The chaos harness end to end: seeded randomized fault schedules judged
//! by the run-level invariant oracle, the stall watchdog turning a hung
//! run into a complete report, and the crash-recoverable driver resuming
//! from a checkpoint to the same report an uninterrupted run produces.

use std::sync::Arc;
use std::time::Duration;

use hammer::core::chaos::LeakProbe;
use hammer::core::checkpoint::RecoveryConfig;
use hammer::core::deploy::{BackendOptions, BackendRegistry};
use hammer::core::driver::{EvalConfig, EvalError, EvalReport, Evaluation, TestingMode};
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::Scenario;
use hammer::obs::EventKind;
use hammer::store::kv::KvStore;
use hammer::workload::{ControlSequence, WorkloadConfig};

mod common;

/// A CI-scaled version of the seeded-chaos acceptance run: every
/// registered backend under two seeded schedules, zero invariant
/// violations expected. (`scenario_sweep --seeds 10` is the full matrix.)
#[test]
fn oracle_passes_under_seeded_chaos_on_every_backend() {
    let _guard = common::serial_guard();
    for backend in ["ethereum-sim", "fabric-sim", "meepo-sim", "neuchain-sim"] {
        for seed in [7u64, 1312] {
            let scenario = Scenario::builder("seeded-chaos")
                .backend(backend)
                .speedup(100.0)
                .constant_load(50, 10)
                .workload_with(|w| w.seed = seed)
                .chaos_seeded(seed)
                .retry(RetryPolicy::standard())
                .expect_accounting_identity()
                .expect_no_stall()
                .build()
                .expect("the seeded-chaos scenario is statically valid");
            let probe = LeakProbe::start();
            let mut verdict = scenario.run().expect("run must complete");
            verdict.checks.extend(probe.finish());
            assert!(
                verdict.passed(),
                "{backend} seed {seed}: {:?}",
                verdict.violations()
            );
            // Every row the chaos oracle graded is still graded.
            let graded: Vec<&str> = verdict.checks.iter().map(|c| c.name).collect();
            assert_eq!(
                graded,
                [
                    "accounting_identity",
                    "fault_window_attribution",
                    "no_stall",
                    "journal_monotonicity",
                    "no_thread_leak",
                    "no_child_leak",
                ]
            );
        }
    }
}

/// With sealing stalled, submissions pool forever: pending stays positive
/// and the progress mark freezes, so the watchdog must abort the run
/// after its budget — yielding a *complete* report (every transaction in
/// a terminal bucket, `stalled` flagged, a journal event) instead of
/// hanging until the drain deadline.
#[test]
fn watchdog_aborts_a_stalled_run_with_a_complete_report() {
    let _guard = common::serial_guard();
    let clock = hammer::net::SimClock::with_speedup(200.0);
    let net = hammer::net::SimNetwork::new(clock.clone(), hammer::net::LinkConfig::lan());
    net.install_obs(hammer::obs::Obs::new());
    let deployment = BackendRegistry::builtin()
        .deploy_on(
            "neuchain-sim",
            &BackendOptions {
                stall_sealing: true,
                ..BackendOptions::default()
            },
            clock,
            net,
        )
        .unwrap();
    let workload = WorkloadConfig {
        accounts: 200,
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(600))
        .stall_budget(Duration::from_secs(5))
        .build()
        .unwrap();
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("a stalled run still reports");

    assert!(report.stalled, "watchdog should have fired");
    assert_eq!(report.committed, 0, "sealing was stalled");
    assert_eq!(
        report.timed_out as u64 + report.rejected,
        report.submitted,
        "every pooled transaction lands in a terminal bucket"
    );
    // The abort cut the run far short of the 600 s drain deadline.
    assert!(report.sim_duration < Duration::from_secs(60));
    let obs = deployment.net().obs();
    assert!(
        obs.journal().count_of(EventKind::Stalled) >= 1,
        "the stall is journaled"
    );
}

/// The interactive listener's idle tick is `poll_interval` of *simulated*
/// time, as the pollers' is: with nothing committing, the watchdog still
/// fires within its budget plus a few poll intervals at 1000×, where a
/// tick of 20 ms of wall time was 20 simulated seconds.
#[test]
fn interactive_watchdog_fires_within_its_budget_at_high_speedup() {
    let _guard = common::serial_guard();
    let clock = hammer::net::SimClock::with_speedup(1000.0);
    let net = hammer::net::SimNetwork::new(clock.clone(), hammer::net::LinkConfig::lan());
    net.install_obs(hammer::obs::Obs::new());
    let options = BackendOptions {
        stall_sealing: true,
        ..BackendOptions::default()
    };
    let deployment = BackendRegistry::builtin()
        .deploy_on("neuchain-sim", &options, clock, net)
        .unwrap();
    let workload = WorkloadConfig {
        accounts: 200,
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(20, 1, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .mode(TestingMode::Interactive)
        .machine(ClientMachine::unconstrained())
        .poll_interval(Duration::from_millis(100))
        .drain_timeout(Duration::from_secs(600))
        .stall_budget(Duration::from_secs(5))
        .build()
        .unwrap();
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("a stalled run still reports");

    assert!(report.stalled, "watchdog should have fired");
    let journal = deployment.net().obs().journal().events();
    let stalled_at = journal
        .iter()
        .find(|event| event.kind == EventKind::Stalled)
        .expect("the stall is journaled")
        .at;
    // One second of submission and five of budget on a clock that started
    // at deploy: 7.4–8.0 s here. The bound leaves 7 ms of wall time for
    // the host (a millisecond is a simulated second) and is still under
    // the 20 s at which a wall-clock tick first looked.
    assert!(
        stalled_at < Duration::from_secs(15),
        "stalled at {stalled_at:?} of simulated time"
    );
}

/// The deterministic projection of a report: everything that must be
/// identical between an uninterrupted run and a killed-then-resumed run
/// on the same seed. Timing fields (TPS, latency, durations) depend on
/// wall-clock scheduling and are exempt.
fn projection(report: &EvalReport) -> impl PartialEq + std::fmt::Debug {
    let mut committed_ids: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.status == hammer::chain::types::TxStatus::Committed)
        .map(|r| r.tx_id)
        .collect();
    committed_ids.sort();
    (
        report.chain.clone(),
        report.submitted,
        report.rejected,
        report.retried,
        report.dropped,
        report.expired,
        report.committed,
        report.failed,
        report.timed_out,
        report.per_client_committed.clone(),
        report.per_shard_committed.clone(),
        committed_ids,
    )
}

fn recovery_workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 300,
        seed: 99,
        ..WorkloadConfig::default()
    }
}

fn recovery_config() -> EvalConfig {
    EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .poll_interval(Duration::from_millis(50))
        .drain_timeout(Duration::from_secs(120))
        .retry(RetryPolicy::standard())
        .build()
        .unwrap()
}

/// Kill the driver at a (pseudo-random) point mid-run, then resume from
/// the surviving checkpoint on the same chain: the resumed report's
/// deterministic projection must match an uninterrupted run field for
/// field.
#[test]
fn killed_driver_resumes_and_matches_the_uninterrupted_run() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    let workload = recovery_workload();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));

    // Uninterrupted baseline on a fresh deployment.
    let baseline_deploy = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let baseline = Evaluation::new(recovery_config())
        .run(&baseline_deploy, &workload, &control)
        .unwrap();
    drop(baseline_deploy);
    assert_eq!(baseline.submitted, 400);
    assert_eq!(baseline.committed, 400, "clean run commits everything");

    // Vary the kill point across test processes: any slice must work.
    use std::hash::{BuildHasher, Hasher};
    let h = std::collections::hash_map::RandomState::new().build_hasher();
    let kill_ms = 800 + (h.finish() % 2_400); // within (0.8 s, 3.2 s) of a 4 s run
    eprintln!("killing the driver at {kill_ms} ms of simulated time");

    let store = Arc::new(KvStore::new());
    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let killed = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &workload,
        &control,
        &RecoveryConfig::new(
            Arc::clone(&store),
            "resume-test",
            Duration::from_millis(200),
        )
        .kill_at(Duration::from_millis(kill_ms)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");
    assert!(
        store.get("hammer/checkpoint/resume-test").is_some(),
        "a periodic checkpoint survives the kill"
    );

    // Resume against the same chain: the checkpointed transactions are
    // already on it; the rest of the stream replays.
    let resumed = Evaluation::new(recovery_config())
        .run_recoverable(
            &deployment,
            &workload,
            &control,
            &RecoveryConfig::new(
                Arc::clone(&store),
                "resume-test",
                Duration::from_millis(200),
            ),
        )
        .expect("resume completes");

    assert_eq!(
        projection(&resumed),
        projection(&baseline),
        "resumed report must match the uninterrupted run"
    );
    assert!(
        store.get("hammer/checkpoint/resume-test").is_none(),
        "a completed run deletes its checkpoint"
    );
}

/// Runs `config` uninterrupted on one fresh deployment, then killed at
/// `kill_ms` and resumed on another, and asserts that the two reports'
/// deterministic projections match field for field and that the completed
/// run deleted its checkpoint.
fn assert_resume_matches_uninterrupted(config: fn() -> EvalConfig, run_id: &str, kill_ms: u64) {
    let registry = BackendRegistry::builtin();
    let workload = recovery_workload();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));

    let baseline_deploy = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let baseline = Evaluation::new(config())
        .run(&baseline_deploy, &workload, &control)
        .unwrap();
    drop(baseline_deploy);
    assert_eq!(baseline.committed, 400, "clean run commits everything");

    let store = Arc::new(KvStore::new());
    let recovery = || RecoveryConfig::new(Arc::clone(&store), run_id, Duration::from_millis(200));
    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let killed = Evaluation::new(config()).run_recoverable(
        &deployment,
        &workload,
        &control,
        &recovery().kill_at(Duration::from_millis(kill_ms)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");

    let resumed = Evaluation::new(config())
        .run_recoverable(&deployment, &workload, &control, &recovery())
        .expect("resume completes");

    assert_eq!(
        projection(&resumed),
        projection(&baseline),
        "{run_id}: the resumed run must match the uninterrupted run"
    );
    assert!(
        store.get(&format!("hammer/checkpoint/{run_id}")).is_none(),
        "a completed run deletes its checkpoint"
    );
}

/// The same kill/resume round trip with the tracker explicitly sharded:
/// the HMCP checkpoint is written from the all-shards-locked aggregate
/// snapshot and replayed back across shards on resume, so the resumed
/// report's deterministic projection must still match an uninterrupted
/// run field for field — the checkpoint codec never sees the sharding.
#[test]
fn sharded_tracker_checkpoint_roundtrip_matches_uninterrupted_run() {
    let _guard = common::serial_guard();
    let sharded_config = || {
        EvalConfig::builder()
            .machine(ClientMachine::unconstrained())
            .poll_interval(Duration::from_millis(50))
            .drain_timeout(Duration::from_secs(120))
            .retry(RetryPolicy::standard())
            .tracker_shards(4)
            .build()
            .unwrap()
    };
    assert_resume_matches_uninterrupted(sharded_config, "sharded-resume", 1_700);
}

/// The kill/resume round trip in interactive mode: the checkpoint records
/// per shard the last block whose events have all left the listener's SDK
/// buffer, so the resumed listener re-reads what the buffer held at the
/// kill. On an unconstrained machine with a buffer larger than the run no
/// event is lost, and the resumed report matches an uninterrupted run.
#[test]
fn killed_interactive_run_resumes_and_matches_the_uninterrupted_run() {
    let _guard = common::serial_guard();
    let interactive_config = || {
        EvalConfig::builder()
            .mode(TestingMode::Interactive)
            .machine(ClientMachine::unconstrained())
            .event_buffer(1_000_000)
            .poll_interval(Duration::from_millis(50))
            .drain_timeout(Duration::from_secs(120))
            .retry(RetryPolicy::standard())
            .build()
            .unwrap()
    };
    assert_resume_matches_uninterrupted(interactive_config, "interactive-resume", 1_700);
}

/// A checkpoint taken under one run must not silently resume a different
/// one: a mismatched workload seed is refused with a typed error.
#[test]
fn checkpoint_from_a_different_run_is_refused() {
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));
    let store = Arc::new(KvStore::new());

    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
        .unwrap();
    let killed = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &recovery_workload(),
        &control,
        &RecoveryConfig::new(Arc::clone(&store), "mismatch", Duration::from_millis(200))
            .kill_at(Duration::from_millis(1_500)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)));

    let other_seed = WorkloadConfig {
        seed: 123,
        ..recovery_workload()
    };
    let err = Evaluation::new(recovery_config())
        .run_recoverable(
            &deployment,
            &other_seed,
            &control,
            &RecoveryConfig::new(store, "mismatch", Duration::from_millis(200)),
        )
        .unwrap_err();
    assert!(
        matches!(err, EvalError::InvalidConfig(ref msg) if msg.contains("different run")),
        "{err:?}"
    );
}
