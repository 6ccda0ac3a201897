//! The chaos harness end to end: seeded randomized fault schedules judged
//! by the run-level invariant oracle, the stall watchdog turning a hung
//! run into a complete report, and the crash-recoverable driver resuming
//! from a checkpoint to the same report an uninterrupted run produces.
//!
//! Two tests kill a real process: they re-execute this test binary as a
//! child running only themselves, with [`CHILD_ROLE`] telling the child
//! what to do, and SIGKILL it.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hammer::chain::remote::RemoteChain;
use hammer::chain::rpc_adapter::{serve_sim, serve_tcp};
use hammer::chain::types::{TxId, TxStatus};
use hammer::core::chaos::LeakProbe;
use hammer::core::checkpoint::{DriverCheckpoint, RecoveryConfig};
use hammer::core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer::core::driver::{EvalConfig, EvalError, EvalReport, Evaluation, TestingMode};
use hammer::core::index::TxRecord;
use hammer::core::machine::ClientMachine;
use hammer::core::retry::RetryPolicy;
use hammer::core::scenario::Scenario;
use hammer::net::{
    LinkConfig, ReconnectPolicy, SimClock, SimNetwork, TcpClientConfig, TcpRpcClient,
    TcpServerConfig,
};
use hammer::obs::EventKind;
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
        .deploy("neuchain-sim", &BackendOptions::default())
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

    let dir = common::TempDir::new("resume-test");
    let checkpoint = dir.path().join("checkpoint");
    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default())
        .unwrap();
    let killed = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &workload,
        &control,
        &RecoveryConfig::new(dir.path(), Duration::from_millis(200))
            .kill_at(Duration::from_millis(kill_ms)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");
    assert!(
        checkpoint.exists(),
        "a periodic checkpoint survives the kill"
    );

    // Resume against the same chain: the checkpointed transactions are
    // already on it; the rest of the stream replays.
    let resumed = Evaluation::new(recovery_config())
        .run_recoverable(
            &deployment,
            &workload,
            &control,
            &RecoveryConfig::new(dir.path(), Duration::from_millis(200)),
        )
        .expect("resume completes");

    assert_eq!(
        projection(&resumed),
        projection(&baseline),
        "resumed report must match the uninterrupted run"
    );
    assert!(
        !checkpoint.exists(),
        "a completed run deletes its checkpoint"
    );
}

/// Runs `config` uninterrupted on one fresh deployment, then killed at
/// `kill_ms` and resumed on another, and asserts that the two reports'
/// deterministic projections match field for field and that the completed
/// run deleted its checkpoint.
fn assert_resume_matches_uninterrupted(config: fn() -> EvalConfig, label: &str, kill_ms: u64) {
    let registry = BackendRegistry::builtin();
    let workload = recovery_workload();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));

    let baseline_deploy = registry
        .deploy("neuchain-sim", &BackendOptions::default())
        .unwrap();
    let baseline = Evaluation::new(config())
        .run(&baseline_deploy, &workload, &control)
        .unwrap();
    drop(baseline_deploy);
    assert_eq!(baseline.committed, 400, "clean run commits everything");

    let dir = common::TempDir::new(label);
    let recovery = || RecoveryConfig::new(dir.path(), Duration::from_millis(200));
    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default())
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
        "{label}: the resumed run must match the uninterrupted run"
    );
    assert!(
        !dir.path().join("checkpoint").exists(),
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
    let dir = common::TempDir::new("mismatch");

    let deployment = registry
        .deploy("neuchain-sim", &BackendOptions::default())
        .unwrap();
    let killed = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &recovery_workload(),
        &control,
        &RecoveryConfig::new(dir.path(), Duration::from_millis(200))
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
            &RecoveryConfig::new(dir.path(), Duration::from_millis(200)),
        )
        .unwrap_err();
    assert!(
        matches!(err, EvalError::InvalidConfig(ref msg) if msg.contains("different run")),
        "{err:?}"
    );
}

/// A checkpoint file cut short — a save killed by a write in place, a
/// disk error — is refused with a typed error naming the file. Read as
/// "no checkpoint", the resume would start over at the chain's current
/// heights and report everything the killed run had committed as timed
/// out.
#[test]
fn a_checkpoint_damaged_after_a_kill_fails_the_resume() {
    let _guard = common::serial_guard();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));
    let dir = common::TempDir::new("damaged");
    let recovery = RecoveryConfig::new(dir.path(), Duration::from_millis(200));
    let deployment = BackendRegistry::builtin()
        .deploy("neuchain-sim", &BackendOptions::default())
        .unwrap();
    let evaluation = Evaluation::new(recovery_config());
    let killed = evaluation.run_recoverable(
        &deployment,
        &recovery_workload(),
        &control,
        &recovery.clone().kill_at(Duration::from_millis(1_500)),
    );
    assert!(matches!(killed, Err(EvalError::Killed)), "{killed:?}");

    let checkpoint = dir.path().join("checkpoint");
    let bytes = std::fs::read(&checkpoint).unwrap();
    std::fs::write(&checkpoint, &bytes[..bytes.len() - 1]).unwrap();
    let err = evaluation
        .run_recoverable(&deployment, &recovery_workload(), &control, &recovery)
        .unwrap_err();
    let path = checkpoint.display().to_string();
    assert!(
        matches!(&err, EvalError::Checkpoint(msg) if msg.starts_with(&path)),
        "{err:?}"
    );
}

/// Set in a child this binary spawns of itself: which role the child
/// plays, and its arguments. The parent never has it.
const CHILD_ROLE: &str = "HAMMER_CHAOS_HARNESS_CHILD";

/// Re-executes this test binary as a child that runs only `test`, with
/// [`CHILD_ROLE`] set to `role`. Its stdout is piped; `Child::kill` is
/// SIGKILL.
fn spawn_child(test: &str, role: &str) -> Child {
    Command::new(std::env::current_exe().expect("the test binary's path"))
        .args([test, "--exact", "--nocapture"])
        .env(CHILD_ROLE, role)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn the test binary as a child")
}

/// Reads the child's stdout up to the line `expected`; fails the test if
/// the child ends before printing it.
fn wait_for_line(stdout: &mut impl BufRead, expected: &str) {
    let mut line = String::new();
    loop {
        line.clear();
        let read = stdout
            .read_line(&mut line)
            .expect("read the child's stdout");
        assert!(read > 0, "the child ended before printing {expected:?}");
        if line.trim_end() == expected {
            return;
        }
    }
}

/// SIGKILLs a child that is still running and reaps it. A child that had
/// already exited on its own fails the test.
fn kill(child: &mut Child, what: &str) {
    let early = child.try_wait().expect("poll the child");
    assert!(
        early.is_none(),
        "{what}: the child exited on its own: {early:?}"
    );
    child.kill().expect("kill the child");
    let status = child.wait().expect("reap the child");
    assert_eq!(
        status.signal(),
        Some(9),
        "{what}: the child was not killed: {status}"
    );
}

/// Prints `line` on stdout at once: the parent reads it while this process
/// runs.
fn announce(line: &str) {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.flush())
        .expect("write stdout");
}

/// Records enough for a save to take a few milliseconds (≈ 6 MB).
const BIG_RECORDS: u32 = 100_000;

fn big_checkpoint(retried: u64) -> DriverCheckpoint {
    let record = |i: u32| {
        let mut id = [7u8; 32];
        id[..4].copy_from_slice(&i.to_le_bytes());
        TxRecord {
            tx_id: TxId(id),
            client_id: i % 8,
            server_id: i % 3,
            start: Duration::from_micros(u64::from(i)),
            end: Some(Duration::from_micros(u64::from(i) + 500)),
            status: TxStatus::Committed,
        }
    };
    DriverCheckpoint {
        workload_seed: 99,
        total: u64::from(BIG_RECORDS),
        retried,
        last_seen: vec![42],
        shard_commits: vec![(0, u64::from(BIG_RECORDS))],
        rejected_ids: Vec::new(),
        records: (0..BIG_RECORDS).map(record).collect(),
    }
}

/// The child of the save test: saves the big checkpoint with `retried = i`
/// over and over, printing `saved i` after each, until it is killed (or
/// gives up, which fails the parent).
fn save_until_killed(dir: &Path) {
    let mut checkpoint = big_checkpoint(0);
    announce("ready");
    for i in 0..200 {
        checkpoint.retried = i;
        checkpoint.save(dir).expect("save");
        announce(&format!("saved {i}"));
    }
}

/// A process SIGKILLed while it writes a checkpoint leaves the previous
/// complete snapshot or the new one, never a torn one: the save goes
/// through a temporary file renamed over the last snapshot. The child
/// saves back to back; the parent kills it at 20 instants spread evenly
/// over a window of about ten saves, so most kills land inside one, and
/// reads what is left.
#[test]
fn a_save_killed_at_any_instant_leaves_a_complete_snapshot() {
    const TEST: &str = "a_save_killed_at_any_instant_leaves_a_complete_snapshot";
    const KILLS: u32 = 20;
    if let Ok(role) = std::env::var(CHILD_ROLE) {
        return save_until_killed(Path::new(&role));
    }
    let _guard = common::serial_guard();
    // What one save costs on this disk: the median of five.
    let scratch = common::TempDir::new("save-timing");
    let checkpoint = big_checkpoint(0);
    let mut took: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            checkpoint.save(scratch.path()).expect("save");
            start.elapsed()
        })
        .collect();
    took.sort();
    let window = took[2] * 10;
    eprintln!("one save takes {:?}; kills spread over {window:?}", took[2]);

    let mut inside = 0;
    for k in 0..KILLS {
        let dir = common::TempDir::new("save-kill");
        let mut child = spawn_child(TEST, &dir.path().display().to_string());
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        wait_for_line(&mut stdout, "ready");
        std::thread::sleep(window * k / KILLS);
        kill(&mut child, &format!("kill {k}"));
        // Whatever the child printed before it died is still in the pipe.
        let mut printed = String::new();
        stdout.read_to_string(&mut printed).expect("drain the pipe");
        let last = printed
            .lines()
            .rev()
            .find_map(|line| line.strip_prefix("saved "))
            .map(|i| i.parse::<u64>().expect("a save number"));
        // A temporary file left over: the kill landed inside a save.
        inside += u32::from(dir.path().join("checkpoint.tmp").exists());
        let loaded = DriverCheckpoint::load(dir.path())
            .unwrap_or_else(|e| panic!("kill {k}, last printed {last:?}: {e}"));
        let retried = loaded.as_ref().map(|cp| cp.retried);
        eprintln!("kill {k}: last printed {last:?}, loaded {retried:?}");
        match (loaded, last) {
            (None, None) => {}
            (None, Some(i)) => panic!("kill {k}: save {i} was printed, nothing loads"),
            (Some(cp), last) => {
                // The last save printed, or the one after it: renamed
                // into place, killed before it was printed.
                let next = last.map_or(0, |i| i + 1);
                assert!(
                    Some(cp.retried) == last || cp.retried == next,
                    "kill {k}: loaded save {}, last printed {last:?}",
                    cp.retried
                );
                assert!(cp == big_checkpoint(cp.retried), "kill {k}: records differ");
            }
        }
    }
    eprintln!("{inside} of {KILLS} kills landed inside a save");
    assert!(
        inside > 0,
        "no kill landed inside a save: the test proved nothing"
    );
}

/// Simulated speed of the process-kill test: its 4 s of schedule take
/// 200 ms of wall time, time enough to aim kills inside the run. The chain
/// runs on a scaled clock, not a virtual one: it serves the child over
/// TCP, whose waits no virtual clock's scheduler sees.
const PROCESS_SPEEDUP: f64 = 20.0;

/// The child of the process-kill test: a driver in its own process
/// against the parent's chain on loopback, its clock started at the
/// chain's simulated time. Runs until it is killed; a run that ends fails
/// the parent.
fn drive_until_killed(role: &str) {
    let mut args = role.splitn(3, ' ');
    let mut arg = || args.next().expect("child role: <addr> <sim ns> <dir>");
    let (addr, now_ns, dir) = (arg(), arg(), arg());
    let addr = addr.parse().expect("a socket address");
    let now = Duration::from_nanos(now_ns.parse().expect("simulated nanoseconds"));
    let clock = SimClock::with_speedup_from(PROCESS_SPEEDUP, now);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let transport = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::default());
    let chain = RemoteChain::connect(transport).expect("connect to the parent's chain");
    let deployment = Deployment::from_chain(chain, clock, net);
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));
    let recovery = RecoveryConfig::new(dir, Duration::from_millis(200));
    announce("running");
    let outcome = Evaluation::new(recovery_config()).run_recoverable(
        &deployment,
        &recovery_workload(),
        &control,
        &recovery,
    );
    // Dropping the deployment would shut the parent's chain down.
    std::mem::forget(deployment);
    panic!("the run ended before it was killed: {outcome:?}");
}

/// A driver SIGKILLed as an OS process resumes from what it wrote: the
/// child runs against a chain the parent serves on loopback, the parent
/// kills it at five points spread over the first 80 % of the run, resumes
/// in its own process from the directory against the same chain, and the
/// resumed report's deterministic projection matches an uninterrupted
/// run's. Kills are timed from the first snapshot: a driver killed before
/// it wrote one has nothing to resume from.
#[test]
fn a_driver_killed_as_a_process_resumes_from_its_directory() {
    const TEST: &str = "a_driver_killed_as_a_process_resumes_from_its_directory";
    const KILLS: u32 = 5;
    if let Ok(role) = std::env::var(CHILD_ROLE) {
        return drive_until_killed(&role);
    }
    let _guard = common::serial_guard();
    let registry = BackendRegistry::builtin();
    let workload = recovery_workload();
    let control = ControlSequence::constant(100, 4, Duration::from_secs(1));
    let deploy = || {
        let clock = SimClock::with_speedup(PROCESS_SPEEDUP);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        let options = BackendOptions::default();
        registry
            .deploy_on("neuchain-sim", &options, clock, net)
            .unwrap()
    };
    let baseline = Evaluation::new(recovery_config())
        .run(&deploy(), &workload, &control)
        .unwrap();
    assert_eq!(baseline.committed, 400, "clean run commits everything");
    let run = control.slice_duration() * control.len() as u32;
    let window = run.div_f64(PROCESS_SPEEDUP).mul_f64(0.8);

    for k in 0..KILLS {
        let deployment = deploy();
        let served = serve_sim(Arc::clone(deployment.chain()));
        let server = serve_tcp(served, "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let dir = common::TempDir::new("process-kill");
        let role = format!(
            "{} {} {}",
            server.local_addr(),
            deployment.clock().now().as_nanos(),
            dir.path().display()
        );
        let mut child = spawn_child(TEST, &role);
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        wait_for_line(&mut stdout, "running");
        let checkpoint = dir.path().join("checkpoint");
        while !checkpoint.exists() {
            assert!(child.try_wait().unwrap().is_none(), "the child died");
            std::thread::sleep(Duration::from_millis(1));
        }
        let offset = window * k / KILLS;
        std::thread::sleep(offset);
        kill(&mut child, &format!("kill {k}"));
        server.shutdown_and_join();
        let left = DriverCheckpoint::load(dir.path())
            .unwrap()
            .expect("a snapshot");
        let records = left.records.len();
        eprintln!("kill {k}: {offset:?} after the first snapshot, which left {records} records");

        let resumed = Evaluation::new(recovery_config())
            .run_recoverable(
                &deployment,
                &workload,
                &control,
                &RecoveryConfig::new(dir.path(), Duration::from_millis(200)),
            )
            .unwrap_or_else(|e| panic!("kill {k}: the resume failed: {e}"));
        assert_eq!(
            projection(&resumed),
            projection(&baseline),
            "kill {k}: the resumed run must match the uninterrupted run"
        );
        assert!(
            !checkpoint.exists(),
            "a completed run deletes its checkpoint"
        );
    }
}
