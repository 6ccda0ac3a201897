//! The run-level invariant oracle and the leak probes that wrap a run.
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
//!
//! This module is not a runner: a fault drill is a
//! [`Scenario`](crate::scenario::Scenario), whose verdict grades 1 and 2
//! through `expect_accounting_identity`, carries 3 on every run, and
//! grades the stall watchdog through `expect_no_stall`. What a scenario
//! cannot see from the inside — whether tearing the deployment down
//! returned the process to its thread and child-process baseline — is
//! [`LeakProbe`], which a sweep or a test puts around each cell.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use hammer_chain::types::TxStatus;
use hammer_net::FaultPlan;
use hammer_obs::{EventKind, JournalEvent};
use hammer_rpc::json::Value;

use crate::driver::EvalReport;

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

/// Live threads in this process (via procfs).
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

/// Thread and child-process counts taken before a cell deploys, compared
/// with the counts after it has torn down. It wraps a cell from outside
/// because it must see the process before deploy and after teardown, and
/// it counts the whole process, so it is only sound when nothing else in
/// the process starts or stops threads meanwhile: a sweep's sequential
/// cells are, a test binary's other test threads can mask or fake a
/// leak.
#[derive(Debug)]
pub struct LeakProbe {
    threads: usize,
    children: usize,
}

impl LeakProbe {
    /// Records the baseline; call before the cell deploys anything.
    pub fn start() -> Self {
        LeakProbe {
            threads: live_threads(),
            children: live_children(),
        }
    }

    /// Compares against the baseline after the cell's teardown and
    /// returns the `no_thread_leak` and `no_child_leak` rows.
    ///
    /// [`Scenario::run_on`](crate::scenario::Scenario::run_on) joins every
    /// framework thread before it returns; the five-second grace loop
    /// only covers unrelated process threads still unwinding underneath
    /// the probe. Children get no grace: the supervisor must have killed
    /// *and reaped* everything it spawned by the time it is dropped.
    pub fn finish(self) -> [InvariantCheck; 2] {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut threads = live_threads();
        while threads > self.threads && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            threads = live_threads();
        }
        let children = live_children();
        let row = |name, before: usize, after: usize| InvariantCheck {
            name,
            passed: after <= before,
            detail: format!("before={before} after={after}"),
        };
        [
            row("no_thread_leak", self.threads, threads),
            row("no_child_leak", self.children, children),
        ]
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
        let verdict = crate::scenario::Verdict {
            scenario: "seeded-chaos-7".to_owned(),
            backend: "neuchain-sim".to_owned(),
            stalled: false,
            process_faults: None,
            checks: vec![
                InvariantCheck::pass("accounting_identity", "all accounted"),
                InvariantCheck::fail("no_stall", "aborted with 3 \"pending\""),
            ],
            report: report(vec![record(1, Some(10), TxStatus::Committed)]),
        };
        assert!(!verdict.passed());
        assert_eq!(verdict.violations().len(), 1);
        let json = verdict.to_json();
        assert!(json.contains("\"backend\":\"neuchain-sim\""), "{json}");
        assert!(json.contains("\"passed\":false"), "{json}");
        assert!(json.contains("\\\"pending\\\""), "{json}");
        assert!(Value::parse(&json).is_ok(), "{json}");
    }
}
