//! Chaos harness: run a backend under a seeded randomized fault schedule
//! ([`hammer_net::ChaosSchedule`]) and check a run-level invariant oracle
//! over the resulting report.
//!
//! The oracle ([`check_report`], [`check_journal`]) verifies properties
//! that must hold for *every* run, whatever faults were injected:
//!
//! 1. **Accounting identity** — `committed + failed + timed_out +
//!    rejected + dropped + expired == submitted`: no transaction is lost
//!    or double-counted, even when retries, drops, and watchdog aborts
//!    interleave.
//! 2. **Fault-window attribution exactness** — every
//!    [`crate::FaultWindowStats`] entry matches an independent recount of
//!    the commit times against the installed plan, and the windowed
//!    entries plus the `nominal` entry cover each commit exactly once.
//! 3. **Journal monotonicity** — per-node block-seal timestamps and the
//!    fault enter/exit stream never run backwards on the simulated clock.
//! 4. **No stall, no thread leak** — the run finished without tripping
//!    the stall watchdog, and tearing the deployment down returns the
//!    process to its baseline thread count.
//!
//! [`run_chaos_case`] packages the whole drill — deploy, discover fault
//! targets, generate and install a schedule, evaluate, judge — and is
//! shared by the `chaos_sweep` bench bin and the integration tests.

use std::collections::HashMap;
use std::time::Duration;

use hammer_chain::types::TxStatus;
use hammer_net::{
    ChaosConfig, ChaosSchedule, ChaosTargets, FaultPlan, LinkConfig, SimClock, SimNetwork,
};
use hammer_obs::{EventKind, JournalEvent, Obs};
use hammer_rpc::json::Value;
use hammer_workload::{ControlSequence, WorkloadConfig};

use crate::deploy::{BackendOptions, BackendRegistry};
use crate::driver::{EvalConfig, EvalReport, Evaluation};
use crate::retry::RetryPolicy;

/// One invariant's verdict for a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantCheck {
    /// Stable snake_case invariant name.
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable evidence (counts compared, first offending event).
    pub detail: String,
}

impl InvariantCheck {
    /// The check as a JSON object (verdict serialisers embed it).
    pub(crate) fn to_value(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name)),
            ("passed", Value::from(self.passed)),
            ("detail", Value::from(self.detail.as_str())),
        ])
    }

    /// A passing check (crate-internal: the chaos oracle and the scenario
    /// expectation layer are the only factories of evidence rows).
    pub(crate) fn pass(name: &'static str, detail: impl Into<String>) -> Self {
        InvariantCheck {
            name,
            passed: true,
            detail: detail.into(),
        }
    }

    /// A failing check (crate-internal, see [`InvariantCheck::pass`]).
    pub(crate) fn fail(name: &'static str, detail: impl Into<String>) -> Self {
        InvariantCheck {
            name,
            passed: false,
            detail: detail.into(),
        }
    }
}

/// The oracle's verdict over one chaos case: which backend and seed ran,
/// whether the watchdog fired, and every invariant's outcome.
#[derive(Clone, Debug)]
pub struct ChaosVerdict {
    /// The backend evaluated (registry name).
    pub backend: String,
    /// The schedule seed.
    pub seed: u64,
    /// Whether the stall watchdog aborted the run.
    pub stalled: bool,
    /// Every invariant checked, in check order.
    pub checks: Vec<InvariantCheck>,
}

impl ChaosVerdict {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The invariants that failed.
    pub fn violations(&self) -> Vec<&InvariantCheck> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// Serialises the verdict as one JSON object.
    pub fn to_json(&self) -> String {
        let checks = self.checks.iter().map(InvariantCheck::to_value);
        Value::object([
            ("backend", Value::from(self.backend.as_str())),
            ("seed", Value::from(self.seed)),
            ("stalled", Value::from(self.stalled)),
            ("passed", Value::from(self.passed())),
            ("checks", Value::Array(checks.collect())),
        ])
        .to_json()
    }
}

/// Checks the report-level invariants: the accounting identity and the
/// fault-window attribution (see the module docs).
pub fn check_report(report: &EvalReport, plan: Option<&FaultPlan>) -> Vec<InvariantCheck> {
    let mut checks = Vec::with_capacity(2);

    let accounted = report.committed as u64
        + report.failed as u64
        + report.timed_out as u64
        + report.dropped as u64
        + report.expired as u64
        + report.rejected;
    let detail = format!(
        "committed={} failed={} timed_out={} dropped={} expired={} rejected={} vs submitted={}",
        report.committed,
        report.failed,
        report.timed_out,
        report.dropped,
        report.expired,
        report.rejected,
        report.submitted
    );
    checks.push(if accounted == report.submitted {
        InvariantCheck::pass("accounting_identity", detail)
    } else {
        InvariantCheck::fail("accounting_identity", detail)
    });

    checks.push(attribution_check(report, plan));
    checks
}

/// Independently recounts commit times against the plan's windows and
/// compares the result entry-by-entry with the report's breakdown.
fn attribution_check(report: &EvalReport, plan: Option<&FaultPlan>) -> InvariantCheck {
    const NAME: &str = "fault_window_attribution";
    let windows = match plan {
        Some(plan) if !plan.is_empty() => plan.windows(),
        _ => {
            return if report.fault_windows.is_empty() {
                InvariantCheck::pass(NAME, "no plan installed, no breakdown reported")
            } else {
                InvariantCheck::fail(
                    NAME,
                    format!(
                        "no plan installed but {} breakdown entries reported",
                        report.fault_windows.len()
                    ),
                )
            };
        }
    };
    if report.fault_windows.len() != windows.len() + 1 {
        return InvariantCheck::fail(
            NAME,
            format!(
                "{} plan windows but {} breakdown entries (want windows + nominal)",
                windows.len(),
                report.fault_windows.len()
            ),
        );
    }
    let commits: Vec<Duration> = report
        .records
        .iter()
        .filter(|r| r.status == TxStatus::Committed)
        .filter_map(|r| r.end)
        .collect();
    for (window, entry) in windows.iter().zip(&report.fault_windows) {
        if entry.label != window.label {
            return InvariantCheck::fail(
                NAME,
                format!(
                    "entry '{}' out of order with window '{}'",
                    entry.label, window.label
                ),
            );
        }
        let recount = commits
            .iter()
            .filter(|&&end| end >= window.start && end < window.end)
            .count();
        if recount != entry.committed {
            return InvariantCheck::fail(
                NAME,
                format!(
                    "window '{}': report says {} commits, recount says {recount}",
                    window.label, entry.committed
                ),
            );
        }
    }
    // Windows may overlap (different fault kinds), so the per-window
    // entries can double-attribute; the exact cover is inside-any +
    // nominal == committed.
    let inside_any = commits
        .iter()
        .filter(|&&end| windows.iter().any(|w| end >= w.start && end < w.end))
        .count();
    let nominal = report.fault_windows.last().expect("checked non-empty");
    if nominal.label != "nominal" {
        return InvariantCheck::fail(
            NAME,
            format!("last entry is '{}', not nominal", nominal.label),
        );
    }
    let outside = commits.len() - inside_any;
    if nominal.committed != outside {
        return InvariantCheck::fail(
            NAME,
            format!(
                "nominal entry says {} commits, recount outside all windows says {outside}",
                nominal.committed
            ),
        );
    }
    InvariantCheck::pass(
        NAME,
        format!(
            "{} windows, {inside_any} commits inside, {outside} outside",
            windows.len()
        ),
    )
}

/// Checks the journal's simulated clock never runs backwards where a
/// single writer guarantees an order: per-node block seals, and the
/// fault enter/exit stream (both emitted by one thread each). A global
/// all-events check would be unsound — threads race into the ring.
pub fn check_journal(events: &[JournalEvent]) -> InvariantCheck {
    const NAME: &str = "journal_monotonicity";
    let mut per_node_seal: HashMap<&str, Duration> = HashMap::new();
    let mut last_fault = Duration::ZERO;
    let mut seals = 0usize;
    let mut fault_edges = 0usize;
    for event in events {
        match event.kind {
            EventKind::BlockSeal => {
                seals += 1;
                let last = per_node_seal.entry(event.node.as_str()).or_default();
                if event.at < *last {
                    return InvariantCheck::fail(
                        NAME,
                        format!(
                            "block seal on '{}' at {:?} after one at {:?}",
                            event.node, event.at, last
                        ),
                    );
                }
                *last = event.at;
            }
            EventKind::FaultEnter | EventKind::FaultExit => {
                fault_edges += 1;
                if event.at < last_fault {
                    return InvariantCheck::fail(
                        NAME,
                        format!(
                            "fault edge '{}' at {:?} after one at {:?}",
                            event.node, event.at, last_fault
                        ),
                    );
                }
                last_fault = event.at;
            }
            _ => {}
        }
    }
    InvariantCheck::pass(
        NAME,
        format!(
            "{seals} seals over {} nodes, {fault_edges} fault edges",
            per_node_seal.len()
        ),
    )
}

/// Live threads in this process (via procfs, like the conformance suite).
pub fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| dir.count())
        .unwrap_or(0)
}

/// Live direct child processes of this process (via procfs): scans
/// `/proc/<pid>/stat` and counts entries whose parent pid is us. Zombies
/// (exited but unreaped children) still count — the supervisor is
/// expected to `wait()` on everything it spawns, so a zombie *is* a
/// leak.
pub fn live_children() -> usize {
    let own = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0;
    };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        // Numeric directory names are pids.
        entry.file_name().to_str()?.parse::<u32>().ok()?;
        let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
        // Field 2 (comm) may contain spaces/parens; the ppid is the 4th
        // field overall, i.e. the 2nd after the *last* ')'.
        let after_comm = &stat[stat.rfind(')')? + 1..];
        let ppid: u32 = after_comm.split_whitespace().nth(1)?.parse().ok()?;
        (ppid == own).then_some(())
    })
    .count()
}

/// One chaos drill: which backend to deploy, which seed drives both the
/// fault schedule and the workload, and how hard to push.
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Registry name of the backend ([`BackendRegistry::builtin`]).
    pub backend: String,
    /// Seed for the fault schedule and the workload generator.
    pub seed: u64,
    /// Control-sequence length in one-second slices.
    pub slices: usize,
    /// Transactions per slice.
    pub rate: u32,
    /// Simulated-clock speedup.
    pub speedup: f64,
    /// Stall-watchdog budget (simulated). Must comfortably exceed the
    /// backend's block interval and the longest generated fault window.
    pub stall_budget: Duration,
}

impl ChaosCase {
    /// A case with sweep-friendly defaults: 10 slices at 100 tx/s, 100×
    /// speedup, and a 30-second stall budget (clear of Ethereum's
    /// 15-second blocks and the generator's 3-second window cap).
    pub fn new(backend: impl Into<String>, seed: u64) -> Self {
        ChaosCase {
            backend: backend.into(),
            seed,
            slices: 10,
            rate: 100,
            speedup: 100.0,
            stall_budget: Duration::from_secs(30),
        }
    }
}

/// Runs one chaos case end-to-end and returns the oracle's verdict:
/// deploy the backend fresh, discover its fault targets, generate and
/// install the seeded schedule, evaluate under the resilient submission
/// path with the stall watchdog armed, then check every invariant and
/// tear the deployment down (probing for leaked threads).
pub fn run_chaos_case(case: &ChaosCase) -> ChaosVerdict {
    let threads_before = live_threads();
    let children_before = live_children();
    let registry = BackendRegistry::builtin();
    let clock = SimClock::with_speedup(case.speedup);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    net.install_obs(Obs::new());
    let deployment = registry
        .deploy_on(
            &case.backend,
            &BackendOptions::default(),
            clock,
            net.clone(),
        )
        .expect("chaos cases target registered backends");

    let targets = ChaosTargets::new(
        deployment.chain().ingress_nodes(),
        deployment.chain().sealer_nodes(),
    );
    let slice = Duration::from_secs(1);
    let chaos_config = ChaosConfig {
        horizon: slice * case.slices as u32,
        ..ChaosConfig::default()
    };
    let schedule = ChaosSchedule::generate(case.seed, &targets, &chaos_config);
    net.try_install_faults(schedule.into_plan())
        .expect("generated schedules always validate against their topology");

    let control = ControlSequence::constant(case.rate, case.slices, slice);
    let workload = WorkloadConfig {
        accounts: 200,
        seed: case.seed,
        ..WorkloadConfig::default()
    };
    let evaluation = Evaluation::new(
        EvalConfig::builder()
            .poll_interval(Duration::from_millis(50))
            .drain_timeout(Duration::from_secs(60))
            .retry(RetryPolicy::standard())
            .stall_budget(case.stall_budget)
            .build()
            .expect("the chaos harness configuration is statically valid"),
    );

    let outcome = evaluation.run(&deployment, &workload, &control);

    let plan = net.fault_plan();
    let events = net.obs().journal().events();
    let mut stalled = false;
    let mut checks = Vec::new();
    match outcome {
        Ok(report) => {
            stalled = report.stalled;
            checks.extend(check_report(&report, plan.as_deref()));
            checks.push(check_journal(&events));
            checks.push(if report.stalled {
                InvariantCheck::fail(
                    "no_stall",
                    format!("watchdog aborted with {} pending", report.timed_out),
                )
            } else {
                InvariantCheck::pass("no_stall", "run completed without a watchdog abort")
            });
        }
        Err(e) => checks.push(InvariantCheck::fail("run_completes", e.to_string())),
    }

    drop(deployment);
    // Deployment teardown joins node threads synchronously, and joining
    // the scheduler makes the teardown point *deterministic* — after
    // this line every framework thread is gone, no settling wait needed.
    net.shutdown_and_join();
    drop(net);
    // A short grace loop still covers unrelated process threads (e.g. a
    // just-finished parallel test) unwinding underneath the probe.
    let probe_deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut threads_after = live_threads();
    while threads_after > threads_before && std::time::Instant::now() < probe_deadline {
        std::thread::sleep(Duration::from_millis(20));
        threads_after = live_threads();
    }
    checks.push(if threads_after <= threads_before {
        InvariantCheck::pass(
            "no_thread_leak",
            format!("before={threads_before} after={threads_after}"),
        )
    } else {
        InvariantCheck::fail(
            "no_thread_leak",
            format!("before={threads_before} after={threads_after}"),
        )
    });
    // Orphan probe: everything the case spawned (nothing, for in-process
    // backends; node-host processes once supervisors are in play) must
    // be dead *and reaped* by now.
    let children_after = live_children();
    checks.push(if children_after <= children_before {
        InvariantCheck::pass(
            "no_child_leak",
            format!("before={children_before} after={children_after}"),
        )
    } else {
        InvariantCheck::fail(
            "no_child_leak",
            format!("before={children_before} after={children_after}"),
        )
    });

    ChaosVerdict {
        backend: case.backend.clone(),
        seed: case.seed,
        stalled,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TxRecord;
    use hammer_chain::types::TxId;
    use hammer_store::table::LatencySummary;

    fn record(i: u8, end_ms: Option<u64>, status: TxStatus) -> TxRecord {
        TxRecord {
            tx_id: TxId([i; 32]),
            client_id: 0,
            server_id: 0,
            start: Duration::ZERO,
            end: end_ms.map(Duration::from_millis),
            status,
        }
    }

    fn report(records: Vec<TxRecord>) -> EvalReport {
        let committed = records
            .iter()
            .filter(|r| r.status == TxStatus::Committed)
            .count();
        let failed = records
            .iter()
            .filter(|r| r.status == TxStatus::Failed)
            .count();
        let timed_out = records
            .iter()
            .filter(|r| r.status == TxStatus::TimedOut)
            .count();
        EvalReport {
            chain: "test".to_owned(),
            submitted: records.len() as u64,
            rejected: 0,
            retried: 0,
            dropped: 0,
            expired: 0,
            committed,
            failed,
            timed_out,
            overall_tps: 0.0,
            latency: LatencySummary::default(),
            tps_series: vec![],
            per_client_committed: vec![],
            per_shard_committed: vec![],
            sim_duration: Duration::ZERO,
            wall_time: Duration::ZERO,
            synced_rows: 0,
            index_stats: None,
            fault_windows: vec![],
            stalled: false,
            records,
        }
    }

    #[test]
    fn accounting_identity_passes_and_fails() {
        let good = report(vec![
            record(1, Some(10), TxStatus::Committed),
            record(2, Some(20), TxStatus::Failed),
            record(3, None, TxStatus::TimedOut),
        ]);
        let checks = check_report(&good, None);
        assert!(checks.iter().all(|c| c.passed), "{checks:?}");

        let mut bad = report(vec![record(1, Some(10), TxStatus::Committed)]);
        bad.submitted = 5; // one committed record cannot account for five
        let checks = check_report(&bad, None);
        let identity = checks
            .iter()
            .find(|c| c.name == "accounting_identity")
            .unwrap();
        assert!(!identity.passed, "{identity:?}");
    }

    #[test]
    fn attribution_recount_catches_tampering() {
        use crate::driver::FaultWindowStats;
        let plan = FaultPlan::new().crash("n0", Duration::from_secs(1), Duration::from_secs(2));
        let mut rpt = report(vec![
            record(1, Some(1_500), TxStatus::Committed), // inside
            record(2, Some(2_500), TxStatus::Committed), // outside
        ]);
        let window = &plan.windows()[0];
        rpt.fault_windows = vec![
            FaultWindowStats {
                label: window.label.clone(),
                start: window.start,
                end: window.end,
                committed: 1,
                tps: 1.0,
            },
            FaultWindowStats {
                label: "nominal".to_owned(),
                start: Duration::ZERO,
                end: Duration::from_secs(3),
                committed: 1,
                tps: 0.5,
            },
        ];
        assert!(attribution_check(&rpt, Some(&plan)).passed);

        rpt.fault_windows[0].committed = 2; // tamper
        assert!(!attribution_check(&rpt, Some(&plan)).passed);

        // A breakdown reported with no plan installed is a violation.
        rpt.fault_windows.truncate(1);
        assert!(!attribution_check(&rpt, None).passed);
    }

    #[test]
    fn journal_monotonicity_is_per_writer() {
        let seal = |node: &str, at_ms: u64| JournalEvent {
            at: Duration::from_millis(at_ms),
            kind: EventKind::BlockSeal,
            node: node.to_owned(),
            detail: String::new(),
            value: 1,
        };
        // Interleaved nodes are fine as long as each node is ordered.
        let ok = vec![seal("a", 10), seal("b", 5), seal("a", 20), seal("b", 6)];
        assert!(check_journal(&ok).passed);
        // A single node running backwards is not.
        let bad = vec![seal("a", 10), seal("a", 5)];
        assert!(!check_journal(&bad).passed);
    }

    #[test]
    fn verdict_json_is_well_formed() {
        let verdict = ChaosVerdict {
            backend: "neuchain-sim".to_owned(),
            seed: 7,
            stalled: false,
            checks: vec![
                InvariantCheck::pass("accounting_identity", "all accounted"),
                InvariantCheck::fail("no_stall", "aborted with 3 \"pending\""),
            ],
        };
        assert!(!verdict.passed());
        assert_eq!(verdict.violations().len(), 1);
        let json = verdict.to_json();
        assert!(json.contains("\"backend\":\"neuchain-sim\""), "{json}");
        assert!(json.contains("\"passed\":false"), "{json}");
        assert!(json.contains("\\\"pending\\\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
