//! The analytic `Performance` table, standing in for MySQL.
//!
//! Rows mirror the paper's schema (Table II and §III-B3): one row per
//! transaction with start/end timestamps and a success flag. Query methods
//! are the one implementation of the paper's two SQL statements
//! ([`TableStore::tps_query`], [`TableStore::latency_query`]) plus the
//! aggregations the figures need (per-second TPS series, latency
//! percentiles).

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::RwLock;

/// Terminal outcome of a transaction, as recorded in the `Performance`
/// table. The paper's schema only stores a `'1'`/`'0'` STATUS flag; the
/// fault-injection extension needs to distinguish *why* a transaction
/// never committed (dropped by the retry budget vs. expired past the
/// per-slice deadline vs. simply unobserved).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// Committed successfully (`STATUS = '1'`).
    Committed,
    /// Included on-chain but invalid (execution/MVCC failure).
    Failed,
    /// Never observed before the drain deadline.
    TimedOut,
    /// Abandoned after exhausting the submission retry budget.
    Dropped,
    /// Abandoned after the per-slice retry deadline passed.
    Expired,
}

/// One row of the `Performance` table.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRow {
    /// Transaction id fingerprint (64-bit prefix of the full id).
    pub tx_id: u64,
    /// Workload client that generated the transaction.
    pub client_id: u32,
    /// Driver server that submitted it.
    pub server_id: u32,
    /// Target chain name.
    pub chain: String,
    /// Submission timestamp (simulated).
    pub start_time: Duration,
    /// Commit timestamp (simulated); `None` while pending / timed out.
    pub end_time: Option<Duration>,
    /// Terminal outcome (`'1'` in the paper's schema ⇔ `Committed`).
    pub outcome: RowOutcome,
}

impl PerfRow {
    /// Transaction latency, when completed.
    pub fn latency(&self) -> Option<Duration> {
        self.end_time.map(|e| e.saturating_sub(self.start_time))
    }

    /// The paper's boolean STATUS flag: committed successfully.
    pub fn status_ok(&self) -> bool {
        self.outcome == RowOutcome::Committed
    }

    /// What the aggregate queries read of this row.
    pub fn view(&self) -> RowView {
        let ok = self.status_ok();
        (self.client_id, self.start_time, self.end_time, ok)
    }
}

/// What the aggregate queries read of a row: `(client_id, start, end,
/// committed)`. Anything that has these can be summarised without a table.
pub type RowView = (u32, Duration, Option<Duration>, bool);

/// An append-mostly analytic table with the paper's queries.
#[derive(Debug, Default)]
pub struct TableStore {
    rows: RwLock<Vec<PerfRow>>,
}

/// Summary statistics over completed transactions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of completed transactions measured.
    pub count: usize,
    /// Mean latency in seconds.
    pub mean_s: f64,
    /// Median (p50) latency in seconds.
    pub p50_s: f64,
    /// 95th percentile latency in seconds.
    pub p95_s: f64,
    /// 99th percentile latency in seconds.
    pub p99_s: f64,
    /// Maximum latency in seconds.
    pub max_s: f64,
}

/// The aggregates of the `Performance` table, computed together.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// What [`TableStore::overall_tps`] returns.
    pub overall_tps: f64,
    /// What [`TableStore::latency_summary`] returns.
    pub latency: LatencySummary,
    /// What [`TableStore::tps_series`] returns.
    pub tps_series: Vec<usize>,
    /// What [`TableStore::per_client_committed`] returns.
    pub per_client_committed: Vec<(u32, usize)>,
}

/// Folds `rows` into every aggregate in one pass, with a `bucket`-wide
/// series (panics on a zero `bucket`). All arithmetic on timestamps is in
/// integer nanoseconds, so the result does not depend on the row order.
pub fn summarize(rows: impl IntoIterator<Item = RowView>, bucket: Duration) -> Summary {
    assert!(!bucket.is_zero(), "bucket must be positive");
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let bucket_ns = nanos(bucket);
    let mut committed = 0usize;
    let mut first_start = Duration::MAX;
    let mut last_commit = Duration::ZERO;
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut latency_sum_ns = 0u128;
    let mut tps_series: Vec<usize> = Vec::new();
    let mut per_client: BTreeMap<u32, usize> = BTreeMap::new();
    for (client_id, start, end, ok) in rows {
        first_start = first_start.min(start);
        if !ok {
            continue;
        }
        committed += 1;
        *per_client.entry(client_id).or_default() += 1;
        let Some(end) = end else {
            continue;
        };
        last_commit = last_commit.max(end);
        let latency_ns = nanos(end.saturating_sub(start));
        latency_sum_ns += u128::from(latency_ns);
        latencies_ns.push(latency_ns);
        let bucket = (nanos(end) / bucket_ns) as usize;
        if bucket >= tps_series.len() {
            tps_series.resize(bucket + 1, 0);
        }
        tps_series[bucket] += 1;
    }
    if last_commit.is_zero() {
        tps_series.clear();
    }
    let mut span = last_commit.saturating_sub(first_start);
    if span.is_zero() {
        span = Duration::from_secs(1); // a run without a span counts as a second long
    }
    Summary {
        overall_tps: committed as f64 / span.as_secs_f64(),
        latency: latency_summary(latencies_ns, latency_sum_ns),
        tps_series,
        per_client_committed: per_client.into_iter().collect(),
    }
}

/// Percentiles at rank `((n − 1)·p).round()` of the ascending order, by
/// selection; each one only orders what the one before left above it.
fn latency_summary(mut latencies_ns: Vec<u64>, sum_ns: u128) -> LatencySummary {
    let count = latencies_ns.len();
    if count == 0 {
        return LatencySummary::default();
    }
    let secs = |ns: u64| Duration::from_nanos(ns).as_secs_f64();
    let mut settled = 0;
    let mut pct = |p: f64| -> f64 {
        let rank = ((count as f64 - 1.0) * p).round() as usize;
        let (_, &mut value, _) = latencies_ns[settled..].select_nth_unstable(rank - settled);
        settled = rank;
        secs(value)
    };
    let (p50_s, p95_s, p99_s) = (pct(0.50), pct(0.95), pct(0.99));
    let max_ns = latencies_ns[settled..].iter().max().expect("nonempty");
    LatencySummary {
        count,
        mean_s: sum_ns as f64 / (count as f64 * 1e9),
        p50_s,
        p95_s,
        p99_s,
        max_s: secs(*max_ns),
    }
}

impl TableStore {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row.
    pub fn insert(&self, row: PerfRow) {
        self.rows.write().push(row);
    }

    /// Appends many rows with one lock acquisition.
    pub fn insert_batch(&self, batch: Vec<PerfRow>) {
        self.rows.write().extend(batch);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The paper's TPS statement:
    ///
    /// ```sql
    /// SELECT COUNT(*) AS TPS FROM Performance
    /// WHERE STATUS = '1' AND TIMESTAMPDIFF(SECOND, start_time, end_time) <= 1
    /// ```
    ///
    /// i.e. committed transactions whose latency is at most one second.
    /// MySQL's `TIMESTAMPDIFF(SECOND, …)` truncates to whole seconds and
    /// would admit a 1.5 s transaction; this method compares the exact
    /// durations and does not.
    pub fn tps_query(&self) -> usize {
        self.rows
            .read()
            .iter()
            .filter(|r| r.status_ok())
            .filter(|r| r.latency().is_some_and(|l| l <= Duration::from_secs(1)))
            .count()
    }

    /// The paper's latency statement: per-transaction
    /// `(tx_id, start, end, latency_ms)` for every completed transaction.
    pub fn latency_query(&self) -> Vec<(u64, Duration, Duration, u128)> {
        self.rows
            .read()
            .iter()
            .filter_map(|r| {
                let end = r.end_time?;
                Some((
                    r.tx_id,
                    r.start_time,
                    end,
                    end.saturating_sub(r.start_time).as_millis(),
                ))
            })
            .collect()
    }

    /// [`summarize`] over the rows; each query below is one field of it.
    pub fn summary(&self, bucket: Duration) -> Summary {
        summarize(self.rows.read().iter().map(PerfRow::view), bucket)
    }

    /// Committed-transaction count per `bucket` of *commit* time — the TPS
    /// time series a Grafana panel plots. Buckets span `[0, horizon]` where
    /// `horizon` is the max end time seen; empty buckets are included.
    pub fn tps_series(&self, bucket: Duration) -> Vec<usize> {
        self.summary(bucket).tps_series
    }

    /// Overall committed throughput: committed transactions divided by the
    /// span from first submission to last commit.
    pub fn overall_tps(&self) -> f64 {
        // One bucket for everything: nobody reads this summary's series.
        self.summary(Duration::MAX).overall_tps
    }

    /// Latency summary over committed transactions.
    pub fn latency_summary(&self) -> LatencySummary {
        self.summary(Duration::MAX).latency
    }

    /// Per-client committed counts, sorted by client id (load monitoring,
    /// one of the two roles `c_id` plays in Algorithm 1).
    pub fn per_client_committed(&self) -> Vec<(u32, usize)> {
        self.summary(Duration::MAX).per_client_committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tx: u64, start_ms: u64, end_ms: Option<u64>, ok: bool) -> PerfRow {
        PerfRow {
            tx_id: tx,
            client_id: (tx % 3) as u32,
            server_id: 0,
            chain: "test".to_owned(),
            start_time: Duration::from_millis(start_ms),
            end_time: end_ms.map(Duration::from_millis),
            outcome: if ok {
                RowOutcome::Committed
            } else {
                RowOutcome::Failed
            },
        }
    }

    #[test]
    fn tps_query_counts_fast_committed_only() {
        let t = TableStore::new();
        t.insert(row(1, 0, Some(500), true)); // fast, committed
        t.insert(row(2, 0, Some(1500), true)); // slow, committed
        t.insert(row(3, 0, Some(100), false)); // fast, failed
        t.insert(row(4, 0, None, true)); // pending (no end)
        assert_eq!(t.tps_query(), 1);
    }

    #[test]
    fn latency_query_returns_ms() {
        let t = TableStore::new();
        t.insert(row(1, 100, Some(400), true));
        t.insert(row(2, 0, None, false));
        let result = t.latency_query();
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, 1);
        assert_eq!(result[0].3, 300);
    }

    #[test]
    fn tps_series_buckets_by_commit_time() {
        let t = TableStore::new();
        t.insert(row(1, 0, Some(100), true));
        t.insert(row(2, 0, Some(900), true));
        t.insert(row(3, 0, Some(1100), true));
        t.insert(row(4, 0, Some(2500), true));
        let series = t.tps_series(Duration::from_secs(1));
        assert_eq!(series, vec![2, 1, 1]);
    }

    #[test]
    fn tps_series_buckets_in_integer_nanoseconds() {
        // 0.3 / 0.1 is 2.9999999999999996 in floating point, and 0.6 and
        // 0.7 fall short the same way.
        let t = TableStore::new();
        for (tx, end_ms) in [100, 300, 600, 700, 999].into_iter().enumerate() {
            t.insert(row(tx as u64, 0, Some(end_ms), true));
        }
        let series = t.tps_series(Duration::from_millis(100));
        assert_eq!(series, vec![0, 1, 0, 1, 0, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn tps_series_empty_table() {
        let t = TableStore::new();
        assert!(t.tps_series(Duration::from_secs(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket must be positive")]
    fn tps_series_zero_bucket_panics() {
        let t = TableStore::new();
        let _ = t.tps_series(Duration::ZERO);
    }

    #[test]
    fn overall_tps_spans_first_submit_to_last_commit() {
        let t = TableStore::new();
        t.insert(row(1, 0, Some(1000), true));
        t.insert(row(2, 0, Some(2000), true));
        // 2 committed over 2 seconds = 1 TPS.
        assert!((t.overall_tps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_summary_percentiles() {
        let t = TableStore::new();
        for i in 1..=100u64 {
            t.insert(row(i, 0, Some(i * 10), true)); // 10ms..1000ms
        }
        let s = t.latency_summary();
        assert_eq!(s.count, 100);
        assert!((s.p50_s - 0.50).abs() < 0.02, "p50 = {}", s.p50_s);
        assert!((s.p95_s - 0.95).abs() < 0.02, "p95 = {}", s.p95_s);
        assert!((s.max_s - 1.0).abs() < 1e-9);
        assert!((s.mean_s - 0.505).abs() < 0.01);
    }

    #[test]
    fn latency_summary_empty() {
        let t = TableStore::new();
        assert_eq!(t.latency_summary(), LatencySummary::default());
    }

    #[test]
    fn per_client_counts() {
        let t = TableStore::new();
        for i in 0..9u64 {
            t.insert(row(i, 0, Some(1), true)); // client = i % 3
        }
        assert_eq!(t.per_client_committed(), vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn insert_batch_appends_all() {
        let t = TableStore::new();
        t.insert_batch((0..50).map(|i| row(i, 0, Some(1), true)).collect());
        assert_eq!(t.len(), 50);
        assert!(!t.is_empty());
    }

    /// The four queries as they were before [`summarize`]: one pass (or
    /// two) each, latencies sorted as `f64` seconds. Only the series differs
    /// from what it replaced, in that it buckets in integer nanoseconds.
    mod reference {
        use super::*;

        pub fn overall_tps(rows: &[PerfRow]) -> f64 {
            let committed: Vec<&PerfRow> = rows.iter().filter(|r| r.status_ok()).collect();
            if committed.is_empty() {
                return 0.0;
            }
            let first = rows.iter().map(|r| r.start_time).min().unwrap_or_default();
            let last = committed.iter().filter_map(|r| r.end_time).max();
            let span = last.unwrap_or_default().saturating_sub(first).as_secs_f64();
            if span <= 0.0 {
                return committed.len() as f64;
            }
            committed.len() as f64 / span
        }

        pub fn latency_summary(rows: &[PerfRow]) -> LatencySummary {
            let mut lats: Vec<f64> = rows
                .iter()
                .filter(|r| r.status_ok())
                .filter_map(|r| r.latency())
                .map(|l| l.as_secs_f64())
                .collect();
            if lats.is_empty() {
                return LatencySummary::default();
            }
            lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let pct = |p: f64| lats[((lats.len() as f64 - 1.0) * p).round() as usize];
            LatencySummary {
                count: lats.len(),
                mean_s: lats.iter().sum::<f64>() / lats.len() as f64,
                p50_s: pct(0.50),
                p95_s: pct(0.95),
                p99_s: pct(0.99),
                max_s: *lats.last().expect("nonempty"),
            }
        }

        pub fn tps_series(rows: &[PerfRow], bucket: Duration) -> Vec<usize> {
            let commits = || {
                rows.iter()
                    .filter(|r| r.status_ok())
                    .filter_map(|r| r.end_time)
            };
            let horizon = commits().max().unwrap_or_default();
            if horizon.is_zero() {
                return Vec::new();
            }
            let index = |end: Duration| (end.as_nanos() / bucket.as_nanos()) as usize;
            let mut series = vec![0usize; index(horizon) + 1];
            for end in commits() {
                series[index(end)] += 1;
            }
            series
        }

        pub fn per_client_committed(rows: &[PerfRow]) -> Vec<(u32, usize)> {
            let mut map: BTreeMap<u32, usize> = BTreeMap::new();
            for r in rows.iter().filter(|r| r.status_ok()) {
                *map.entry(r.client_id).or_default() += 1;
            }
            map.into_iter().collect()
        }
    }

    use proptest::prelude::*;

    /// Timestamps on a coarse grid with a nanosecond or two of offset, so
    /// that equal timestamps, exact bucket edges and ends before starts all
    /// occur.
    fn timestamp() -> impl Strategy<Value = Duration> {
        (0u64..60, 0u64..3).prop_map(|(steps, ns)| Duration::from_nanos(steps * 50_000_000 + ns))
    }

    fn arbitrary_row() -> impl Strategy<Value = PerfRow> {
        const OUTCOMES: [RowOutcome; 5] = [
            RowOutcome::Committed,
            RowOutcome::Failed,
            RowOutcome::TimedOut,
            RowOutcome::Dropped,
            RowOutcome::Expired,
        ];
        (0u32..4, timestamp(), timestamp(), any::<bool>(), 0usize..5).prop_map(
            |(client_id, start_time, end, ended, outcome)| PerfRow {
                tx_id: 0,
                client_id,
                server_id: 0,
                chain: "test".to_owned(),
                start_time,
                end_time: ended.then_some(end),
                outcome: OUTCOMES[outcome],
            },
        )
    }

    proptest! {
        /// The fold, the table's four queries and the queries it replaced
        /// agree on every field — exactly, except that the mean is now the
        /// integer nanosecond sum divided once.
        #[test]
        fn prop_fold_matches_the_four_queries(
            rows in proptest::collection::vec(arbitrary_row(), 0..120),
            fine in any::<bool>(),
        ) {
            let bucket = Duration::from_millis(if fine { 100 } else { 1000 });
            let folded = summarize(rows.iter().map(PerfRow::view), bucket);
            let table = TableStore::new();
            table.insert_batch(rows.clone());
            prop_assert_eq!(&folded, &table.summary(bucket));
            prop_assert_eq!(folded.overall_tps, table.overall_tps());
            prop_assert_eq!(folded.latency, table.latency_summary());
            prop_assert_eq!(&folded.tps_series, &table.tps_series(bucket));
            prop_assert_eq!(&folded.per_client_committed, &table.per_client_committed());

            prop_assert_eq!(folded.overall_tps, reference::overall_tps(&rows));
            prop_assert_eq!(&folded.tps_series, &reference::tps_series(&rows, bucket));
            prop_assert_eq!(&folded.per_client_committed, &reference::per_client_committed(&rows));
            let sorted = reference::latency_summary(&rows);
            let mean_error = (folded.latency.mean_s - sorted.mean_s).abs();
            prop_assert!(mean_error <= 1e-9 * sorted.mean_s, "{folded:?} vs {sorted:?}");
            prop_assert_eq!(
                LatencySummary { mean_s: sorted.mean_s, ..folded.latency },
                sorted
            );
        }
    }
}
