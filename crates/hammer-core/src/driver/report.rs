//! The **Report** stage (Fig. 3, step 7): drained tracker records plus the
//! run's counters become an [`EvalReport`], its aggregates folded straight
//! from the records ([`hammer_store::table::summarize`]). [`build`] touches
//! no chain, clock or tracker, so it is testable over hand-built records.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hammer_chain::types::{TxId, TxStatus};
use hammer_net::FaultPlan;
use hammer_rpc::json::Value;
use hammer_store::table::{summarize, LatencySummary, PerfRow, RowOutcome};

use crate::index::{IndexStats, TxRecord};

/// Per-fault-window committed-throughput breakdown (plus one `nominal`
/// entry covering the run time outside every window). Lets a fault sweep
/// show *when* throughput degraded, not just that it did.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultWindowStats {
    /// The fault window's label (`"nominal"` for the outside-all-windows
    /// entry).
    pub label: String,
    /// Window start (simulated time).
    pub start: Duration,
    /// Window end (simulated time, exclusive).
    pub end: Duration,
    /// Transactions whose commit time fell inside the window.
    pub committed: usize,
    /// Committed throughput over the window.
    pub tps: f64,
}

/// The result of one evaluation run.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The evaluated chain's name.
    pub chain: String,
    /// Transactions attempted against the SUT (every transaction pulled
    /// from the signed stream, whatever its eventual fate — so
    /// `committed + failed + timed_out + dropped + expired + rejected`
    /// accounts for all of them).
    pub submitted: u64,
    /// Submissions the SUT terminally rejected (non-retryable errors, or
    /// any error when retrying is disabled).
    pub rejected: u64,
    /// Extra submission attempts made by the retry policy (0 unless
    /// [`super::EvalConfigBuilder::retry`] is set and transient faults
    /// occurred).
    pub retried: u64,
    /// Abandoned after exhausting the retry budget, never accepted.
    pub dropped: usize,
    /// Abandoned after the per-slice retry deadline passed.
    pub expired: usize,
    /// Committed successfully.
    pub committed: usize,
    /// Included on-chain but invalid (execution/MVCC failure).
    pub failed: usize,
    /// Never observed before the drain deadline.
    pub timed_out: usize,
    /// Committed transactions per second over the run span.
    pub overall_tps: f64,
    /// Latency distribution of committed transactions.
    pub latency: LatencySummary,
    /// Committed transactions per simulated second (time series).
    pub tps_series: Vec<usize>,
    /// Per-client committed counts.
    pub per_client_committed: Vec<(u32, usize)>,
    /// Per-shard committed counts (shard-aware load report; a single
    /// entry for non-sharded chains).
    pub per_shard_committed: Vec<(u32, usize)>,
    /// Simulated duration from first submission to last commit.
    pub sim_duration: Duration,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Task-processing index statistics (Bloom rejections, probe steps);
    /// `None` for the batch baseline.
    pub index_stats: Option<IndexStats>,
    /// Per-fault-window TPS breakdown; empty when the deployment's
    /// network has no fault plan installed.
    pub fault_windows: Vec<FaultWindowStats>,
    /// Whether the stall watchdog aborted the run: no progress for
    /// [`super::EvalConfigBuilder::stall_budget`] of simulated time while
    /// transactions were pending. The report is still complete — the
    /// in-flight stragglers are accounted as timed out.
    pub stalled: bool,
    /// The raw per-transaction records (for audits, §V-C).
    pub records: Vec<TxRecord>,
}

/// JSON has no Inf/NaN; a report field that degenerates reads as zero.
fn float(value: f64) -> Value {
    Value::Float(if value.is_finite() { value } else { 0.0 })
}

fn pairs(pairs: &[(u32, usize)]) -> Value {
    let pair = |&(id, n): &(u32, usize)| Value::from(vec![u64::from(id), n as u64]);
    Value::Array(pairs.iter().map(pair).collect())
}

impl EvalReport {
    /// Serialises the report (minus the raw per-transaction records) as a
    /// single JSON object, suitable for experiment bins that aggregate
    /// many runs into one machine-readable file.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The record-free report as a JSON value (what [`EvalReport::to_json`]
    /// serialises; a verdict embeds it as a field).
    pub fn to_value(&self) -> Value {
        let latency = Value::object([
            ("count", Value::from(self.latency.count)),
            ("mean_s", float(self.latency.mean_s)),
            ("p50_s", float(self.latency.p50_s)),
            ("p95_s", float(self.latency.p95_s)),
            ("p99_s", float(self.latency.p99_s)),
            ("max_s", float(self.latency.max_s)),
        ]);
        let index_stats = self.index_stats.as_ref().map(|stats| {
            Value::object([
                ("probe_steps", Value::from(stats.probe_steps)),
                ("expansions", Value::from(stats.expansions)),
                ("bloom_rejections", Value::from(stats.bloom_rejections)),
                ("misses", Value::from(stats.misses)),
                ("bloom_rebuilds", Value::from(stats.bloom_rebuilds)),
            ])
        });
        let window = |w: &FaultWindowStats| {
            Value::object([
                ("label", Value::from(w.label.as_str())),
                ("start_s", float(w.start.as_secs_f64())),
                ("end_s", float(w.end.as_secs_f64())),
                ("committed", Value::from(w.committed)),
                ("tps", float(w.tps)),
            ])
        };
        Value::object([
            ("chain", Value::from(self.chain.as_str())),
            ("submitted", Value::from(self.submitted)),
            ("rejected", Value::from(self.rejected)),
            ("retried", Value::from(self.retried)),
            ("dropped", Value::from(self.dropped)),
            ("expired", Value::from(self.expired)),
            ("committed", Value::from(self.committed)),
            ("failed", Value::from(self.failed)),
            ("timed_out", Value::from(self.timed_out)),
            ("overall_tps", float(self.overall_tps)),
            ("latency", latency),
            ("tps_series", Value::from(self.tps_series.clone())),
            ("per_client_committed", pairs(&self.per_client_committed)),
            ("per_shard_committed", pairs(&self.per_shard_committed)),
            ("sim_duration_s", float(self.sim_duration.as_secs_f64())),
            ("wall_time_s", float(self.wall_time.as_secs_f64())),
            ("index_stats", Value::from(index_stats)),
            (
                "fault_windows",
                Value::Array(self.fault_windows.iter().map(window).collect()),
            ),
            ("stalled", Value::from(self.stalled)),
        ])
    }
}

/// Everything the execution stages hand to the Report stage.
pub(super) struct Finished {
    pub chain: String,
    /// Every tracker record, still-pending ones included.
    pub records: Vec<TxRecord>,
    pub rejected_ids: HashSet<TxId>,
    pub index_stats: Option<IndexStats>,
    pub submitted: u64,
    pub rejected: u64,
    pub retried: u64,
    pub stalled: bool,
    pub shard_commits: BTreeMap<u32, usize>,
    pub fault_plan: Option<Arc<FaultPlan>>,
    pub wall_start: Instant,
}

/// Builds the report. One pass over the records settles the stragglers
/// (anything still pending after the drain deadline timed out), tallies
/// the statuses and finds the run span, a second folds the aggregates;
/// rejected ids count under `rejected`, not `failed`, and get no row.
pub(super) fn build(run: Finished) -> EvalReport {
    let mut records = run.records;
    let rejected_ids = run.rejected_ids;
    let (mut committed, mut failed, mut timed_out, mut dropped, mut expired) = (0, 0, 0, 0, 0);
    let mut first_start: Option<Duration> = None;
    let mut last_end: Option<Duration> = None;
    for record in &mut records {
        match record.status {
            TxStatus::Committed => committed += 1,
            TxStatus::Failed if rejected_ids.contains(&record.tx_id) => {}
            TxStatus::Failed => failed += 1,
            TxStatus::Dropped => dropped += 1,
            TxStatus::Expired => expired += 1,
            TxStatus::Pending | TxStatus::TimedOut => {
                record.status = TxStatus::TimedOut;
                timed_out += 1;
            }
        }
        first_start = Some(first_start.map_or(record.start, |s| s.min(record.start)));
        last_end = last_end.max(record.end);
    }
    let first_start = first_start.unwrap_or_default();
    let last_end = last_end.unwrap_or(first_start);

    let view = |r: &TxRecord| (r.client_id, r.start, r.end, r.status == TxStatus::Committed);
    let summary = summarize(
        rows(&records, &rejected_ids).map(view),
        Duration::from_secs(1),
    );

    EvalReport {
        submitted: run.submitted,
        rejected: run.rejected,
        retried: run.retried,
        dropped,
        expired,
        committed,
        failed,
        timed_out,
        overall_tps: summary.overall_tps,
        latency: summary.latency,
        tps_series: summary.tps_series,
        per_client_committed: summary.per_client_committed,
        per_shard_committed: run.shard_commits.into_iter().collect(),
        sim_duration: last_end.saturating_sub(first_start),
        wall_time: run.wall_start.elapsed(),
        index_stats: run.index_stats,
        fault_windows: fault_window_stats(
            run.fault_plan.as_deref(),
            &records,
            first_start,
            last_end,
        ),
        stalled: run.stalled,
        chain: run.chain,
        records,
    }
}

/// The records that get a Performance-table row: all but the refused.
fn rows<'r>(
    records: &'r [TxRecord],
    rejected_ids: &'r HashSet<TxId>,
) -> impl Iterator<Item = &'r TxRecord> {
    records.iter().filter(|r| !rejected_ids.contains(&r.tx_id))
}

/// The Performance-table row of one of a report's records on `chain`: the
/// one place a [`TxStatus`] becomes a [`RowOutcome`]. Each status maps to
/// the outcome of the same name; `Pending` — which the Report stage has
/// already settled in every record an [`EvalReport`] carries — reads as
/// `TimedOut`.
pub fn perf_row(record: &TxRecord, chain: &str) -> PerfRow {
    PerfRow {
        tx_id: record.tx_id.fingerprint(),
        client_id: record.client_id,
        server_id: record.server_id,
        chain: chain.to_owned(),
        start_time: record.start,
        end_time: record.end,
        outcome: match record.status {
            TxStatus::Committed => RowOutcome::Committed,
            TxStatus::Failed => RowOutcome::Failed,
            TxStatus::Dropped => RowOutcome::Dropped,
            TxStatus::Expired => RowOutcome::Expired,
            TxStatus::TimedOut | TxStatus::Pending => RowOutcome::TimedOut,
        },
    }
}

/// Computes the per-fault-window TPS breakdown: one entry per window of
/// the installed plan, plus a `nominal` entry over the run time outside
/// every window. Empty when no plan is installed (so fault-free reports
/// are unchanged). Overlapping windows each count commits independently;
/// the nominal entry subtracts each window's overlap with the run span,
/// so heavily-overlapping plans can undercount its duration.
fn fault_window_stats(
    plan: Option<&FaultPlan>,
    records: &[TxRecord],
    first_start: Duration,
    last_end: Duration,
) -> Vec<FaultWindowStats> {
    let Some(plan) = plan else {
        return Vec::new();
    };
    if plan.is_empty() {
        return Vec::new();
    }
    let commits: Vec<Duration> = records
        .iter()
        .filter(|r| r.status == TxStatus::Committed)
        .filter_map(|r| r.end)
        .collect();
    let mut stats: Vec<FaultWindowStats> = plan
        .windows()
        .iter()
        .map(|w| {
            let committed = commits
                .iter()
                .filter(|&&end| end >= w.start && end < w.end)
                .count();
            let secs = w.duration().as_secs_f64();
            FaultWindowStats {
                label: w.label.clone(),
                start: w.start,
                end: w.end,
                committed,
                tps: if secs > 0.0 {
                    committed as f64 / secs
                } else {
                    0.0
                },
            }
        })
        .collect();
    let outside = commits
        .iter()
        .filter(|&&end| !plan.windows().iter().any(|w| end >= w.start && end < w.end))
        .count();
    let span = last_end.saturating_sub(first_start);
    let covered: Duration = plan
        .windows()
        .iter()
        .map(|w| w.end.min(last_end).saturating_sub(w.start.max(first_start)))
        .sum();
    let nominal = span.saturating_sub(covered).as_secs_f64();
    stats.push(FaultWindowStats {
        label: "nominal".to_owned(),
        start: first_start,
        end: last_end,
        committed: outside,
        tps: if nominal > 0.0 {
            outside as f64 / nominal
        } else {
            0.0
        },
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_store::TableStore;

    fn rec(i: u8, end_ms: u64, status: TxStatus) -> TxRecord {
        TxRecord {
            tx_id: TxId([i; 32]),
            client_id: u32::from(i % 2),
            server_id: 0,
            start: Duration::from_millis(100),
            end: (status != TxStatus::Pending).then(|| Duration::from_millis(end_ms)),
            status,
        }
    }

    /// `record`, submitted at `start_ms` instead.
    fn at(start_ms: u64, record: TxRecord) -> TxRecord {
        TxRecord {
            start: Duration::from_millis(start_ms),
            ..record
        }
    }

    #[test]
    fn report_accounts_for_every_record_and_keeps_rejections_apart() {
        // Every status at once, plus one id the SUT refused (its record
        // is Failed, like an on-chain failure, but it counts under
        // `rejected`).
        let records = vec![
            rec(1, 1_100, TxStatus::Committed),
            rec(2, 2_100, TxStatus::Committed),
            rec(3, 1_500, TxStatus::Failed),
            rec(4, 100, TxStatus::Failed), // the refused one
            rec(5, 0, TxStatus::Pending),
            rec(6, 9_000, TxStatus::TimedOut),
            rec(7, 700, TxStatus::Dropped),
            rec(8, 800, TxStatus::Expired),
        ];
        let rejected_ids: HashSet<TxId> = [TxId([4; 32])].into();
        assert_eq!(rows(&records, &rejected_ids).count(), 7, "no row for it");
        let report = build(Finished {
            chain: "stub".to_owned(),
            records,
            rejected_ids,
            index_stats: None,
            submitted: 8,
            rejected: 1,
            retried: 3,
            stalled: false,
            shard_commits: [(0, 2)].into(),
            fault_plan: None,
            wall_start: Instant::now(),
        });
        assert_eq!(
            (report.committed, report.failed, report.timed_out),
            (2, 1, 2)
        );
        assert_eq!((report.dropped, report.expired), (1, 1));
        let accounted = report.committed
            + report.failed
            + report.timed_out
            + report.dropped
            + report.expired
            + report.rejected as usize;
        assert_eq!(accounted as u64, report.submitted);
        assert!(report.records.iter().all(|r| r.status != TxStatus::Pending));
        assert_eq!(report.retried, 3);
        assert_eq!(report.latency.count, 2);
        assert_eq!(report.per_client_committed, vec![(0, 1), (1, 1)]);
        assert_eq!(report.per_shard_committed, vec![(0, 2)]);
        // First submission at 0.1 s, last end at 9 s.
        assert_eq!(report.sim_duration, Duration::from_millis(8_900));
        assert!(report.fault_windows.is_empty() && !report.stalled);
    }

    #[test]
    fn aggregates_skip_the_refused_and_the_timed_out_among_the_committed() {
        // Latencies of 400, 900 and 2 000 ms around a refusal (the earliest
        // start of all, but it has no row) and a straggler.
        let records = vec![
            at(200, rec(1, 600, TxStatus::Committed)),
            at(50, rec(2, 50, TxStatus::Failed)), // the refused one
            at(300, rec(3, 1_200, TxStatus::Committed)),
            at(400, rec(4, 0, TxStatus::Pending)),
            at(500, rec(5, 2_500, TxStatus::Committed)),
        ];
        let report = build(Finished {
            chain: "stub".to_owned(),
            records: records.clone(),
            rejected_ids: [TxId([2; 32])].into(),
            index_stats: None,
            submitted: 5,
            rejected: 1,
            retried: 0,
            stalled: false,
            shard_commits: [(0, 3)].into(),
            fault_plan: None,
            wall_start: Instant::now(),
        });
        assert_eq!(
            (report.committed, report.failed, report.timed_out),
            (3, 0, 1)
        );
        assert_eq!(
            report.latency,
            LatencySummary {
                count: 3,
                mean_s: 1.1,
                p50_s: 0.9,
                p95_s: 2.0,
                p99_s: 2.0,
                max_s: 2.0,
            }
        );
        assert_eq!(report.tps_series, vec![1, 1, 1]);
        assert_eq!(report.per_client_committed, vec![(1, 3)]);
        // Three commits between the first row's start (0.2 s) and 2.5 s;
        // the run itself spans from the refusal at 0.05 s.
        assert_eq!(report.overall_tps, 3.0 / 2.3);
        assert_eq!(report.sim_duration, Duration::from_millis(2_450));
        // The records come back in order, the straggler settled.
        let mut settled = records;
        settled[3].status = TxStatus::TimedOut;
        assert_eq!(report.records, settled);
    }

    #[test]
    fn a_table_filled_from_the_records_answers_what_the_report_folded() {
        // Two clients, every status, commits in three different seconds with
        // latencies on both sides of one second, a refusal that gets no row.
        let records = vec![
            at(200, rec(1, 600, TxStatus::Committed)),
            at(50, rec(2, 50, TxStatus::Failed)), // the refused one
            at(300, rec(3, 1_200, TxStatus::Committed)),
            at(350, rec(4, 1_900, TxStatus::Committed)),
            at(400, rec(5, 0, TxStatus::Pending)),
            at(450, rec(6, 900, TxStatus::Failed)),
            at(500, rec(7, 2_500, TxStatus::Committed)),
            at(550, rec(8, 700, TxStatus::Dropped)),
            at(600, rec(9, 1_600, TxStatus::Expired)),
            at(650, rec(10, 9_000, TxStatus::TimedOut)),
        ];
        let rejected_ids: HashSet<TxId> = [TxId([2; 32])].into();
        let table = TableStore::new();
        for record in rows(&records, &rejected_ids) {
            table.insert(perf_row(record, "stub"));
        }
        let report = build(Finished {
            chain: "stub".to_owned(),
            records,
            rejected_ids,
            index_stats: None,
            submitted: 10,
            rejected: 1,
            retried: 0,
            stalled: false,
            shard_commits: [(0, 4)].into(),
            fault_plan: None,
            wall_start: Instant::now(),
        });
        let summary = table.summary(Duration::from_secs(1));
        assert_eq!(summary.overall_tps, report.overall_tps);
        assert_eq!(summary.latency, report.latency);
        assert_eq!(summary.tps_series, report.tps_series);
        assert_eq!(summary.per_client_committed, report.per_client_committed);
        // ... and it is not the empty answer, nor Table II's: the 1.55 s and
        // 2 s commits are in the aggregates and outside the TPS statement.
        assert_eq!((table.len(), report.latency.count), (9, 4));
        assert_eq!(report.tps_series, vec![1, 2, 1]);
        assert_eq!(report.per_client_committed, vec![(0, 1), (1, 3)]);
        assert_eq!(table.tps_query(), 2);
    }

    #[test]
    fn perf_row_maps_each_status_to_its_namesake_outcome() {
        for status in [
            TxStatus::Committed,
            TxStatus::Failed,
            TxStatus::TimedOut,
            TxStatus::Dropped,
            TxStatus::Expired,
        ] {
            let outcome = perf_row(&rec(1, 1_100, status), "stub").outcome;
            assert_eq!(format!("{outcome:?}"), format!("{status:?}"));
        }
        let record = rec(7, 0, TxStatus::Pending);
        assert_eq!(
            perf_row(&record, "stub"),
            PerfRow {
                tx_id: record.tx_id.fingerprint(),
                client_id: 1,
                server_id: 0,
                chain: "stub".to_owned(),
                start_time: Duration::from_millis(100),
                end_time: None,
                outcome: RowOutcome::TimedOut,
            }
        );
    }

    #[test]
    fn fault_window_stats_attributes_commits_exactly() {
        // Two scripted windows: [2s, 4s) and [6s, 8s). Commit end times are
        // chosen so the attribution is exact: 3 in the first window, 2 in
        // the second, 4 outside both.
        let plan = FaultPlan::new()
            .crash("n0", Duration::from_secs(2), Duration::from_secs(4))
            .latency_spike(
                Duration::from_millis(10),
                Duration::from_secs(6),
                Duration::from_secs(8),
            );
        let rec = |i: u8, end_ms: u64, status: TxStatus| TxRecord {
            tx_id: TxId([i; 32]),
            client_id: 0,
            server_id: 0,
            start: Duration::ZERO,
            end: (status != TxStatus::Pending).then(|| Duration::from_millis(end_ms)),
            status,
        };
        let records = vec![
            // First window: boundary inclusion at the start, exclusion at
            // the end (half-open [start, end)).
            rec(1, 2_000, TxStatus::Committed),
            rec(2, 3_000, TxStatus::Committed),
            rec(3, 3_999, TxStatus::Committed),
            rec(4, 4_000, TxStatus::Committed), // == w1 end: outside
            // Second window.
            rec(5, 6_500, TxStatus::Committed),
            rec(6, 7_000, TxStatus::Committed),
            // Outside both.
            rec(7, 500, TxStatus::Committed),
            rec(8, 1_000, TxStatus::Committed),
            rec(9, 9_000, TxStatus::Committed),
            // Non-committed records never count.
            rec(10, 2_500, TxStatus::Failed),
            rec(11, 0, TxStatus::Pending),
        ];
        let stats = fault_window_stats(
            Some(&plan),
            &records,
            Duration::ZERO,
            Duration::from_secs(9),
        );
        assert_eq!(stats.len(), 3, "{stats:?}");
        assert_eq!(stats[0].label, plan.windows()[0].label);
        assert_eq!(stats[0].committed, 3);
        assert!((stats[0].tps - 1.5).abs() < 1e-9, "{stats:?}");
        assert_eq!(stats[1].label, plan.windows()[1].label);
        assert_eq!(stats[1].committed, 2);
        assert!((stats[1].tps - 1.0).abs() < 1e-9, "{stats:?}");
        // Nominal: 4 commits over the 9s span minus the 4s covered by
        // windows = 5s outside-window time.
        assert_eq!(stats[2].label, "nominal");
        assert_eq!(stats[2].committed, 4);
        assert!((stats[2].tps - 0.8).abs() < 1e-9, "{stats:?}");
        // Every committed record is attributed exactly once.
        let attributed: usize = stats.iter().map(|s| s.committed).sum();
        assert_eq!(attributed, 9);
    }
}
