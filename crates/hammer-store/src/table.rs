//! The analytic `Performance` table, standing in for MySQL.
//!
//! Rows mirror the paper's schema (Table II and §III-B3): one row per
//! transaction with start/end timestamps and a success flag. Query methods
//! implement the exact semantics of the paper's two SQL statements plus
//! the aggregations the figures need (per-second TPS series, latency
//! percentiles).

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

impl RowOutcome {
    /// Stable lowercase label (CSV/SQL rendering).
    pub fn as_str(&self) -> &'static str {
        match self {
            RowOutcome::Committed => "committed",
            RowOutcome::Failed => "failed",
            RowOutcome::TimedOut => "timed_out",
            RowOutcome::Dropped => "dropped",
            RowOutcome::Expired => "expired",
        }
    }

    /// Stable one-byte wire code (the Fig. 2 status pipeline).
    pub fn code(&self) -> u8 {
        match self {
            RowOutcome::Committed => 1,
            RowOutcome::Failed => 0,
            RowOutcome::TimedOut => 2,
            RowOutcome::Dropped => 3,
            RowOutcome::Expired => 4,
        }
    }

    /// Inverse of [`RowOutcome::code`]; `None` on an unknown byte.
    pub fn from_code(code: u8) -> Option<RowOutcome> {
        match code {
            1 => Some(RowOutcome::Committed),
            0 => Some(RowOutcome::Failed),
            2 => Some(RowOutcome::TimedOut),
            3 => Some(RowOutcome::Dropped),
            4 => Some(RowOutcome::Expired),
            _ => None,
        }
    }
}

impl std::fmt::Display for RowOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
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
}

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

impl TableStore {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table pre-populated with rows.
    pub fn new_from_rows(rows: Vec<PerfRow>) -> Self {
        TableStore {
            rows: RwLock::new(rows),
        }
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

    /// Clones out every row (test/diagnostic use).
    pub fn all_rows(&self) -> Vec<PerfRow> {
        self.rows.read().clone()
    }

    /// The paper's TPS statement:
    ///
    /// ```sql
    /// SELECT COUNT(*) AS TPS FROM Performance
    /// WHERE STATUS = '1' AND TIMESTAMPDIFF(SECOND, start_time, end_time) <= 1
    /// ```
    ///
    /// i.e. committed transactions whose latency is at most one second.
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

    /// Committed-transaction count per `bucket` of *commit* time — the TPS
    /// time series a Grafana panel plots. Buckets span `[0, horizon)` where
    /// `horizon` is the max end time seen; empty buckets are included.
    pub fn tps_series(&self, bucket: Duration) -> Vec<usize> {
        assert!(!bucket.is_zero(), "bucket must be positive");
        let rows = self.rows.read();
        let horizon = rows
            .iter()
            .filter(|r| r.status_ok())
            .filter_map(|r| r.end_time)
            .max()
            .unwrap_or(Duration::ZERO);
        if horizon.is_zero() {
            return Vec::new();
        }
        let n_buckets = (horizon.as_secs_f64() / bucket.as_secs_f64()).floor() as usize + 1;
        let mut series = vec![0usize; n_buckets];
        for row in rows.iter().filter(|r| r.status_ok()) {
            if let Some(end) = row.end_time {
                let idx = (end.as_secs_f64() / bucket.as_secs_f64()).floor() as usize;
                series[idx.min(n_buckets - 1)] += 1;
            }
        }
        series
    }

    /// Overall committed throughput: committed transactions divided by the
    /// span from first submission to last commit.
    pub fn overall_tps(&self) -> f64 {
        let rows = self.rows.read();
        let committed: Vec<&PerfRow> = rows.iter().filter(|r| r.status_ok()).collect();
        if committed.is_empty() {
            return 0.0;
        }
        let first = rows.iter().map(|r| r.start_time).min().unwrap_or_default();
        let last = committed
            .iter()
            .filter_map(|r| r.end_time)
            .max()
            .unwrap_or_default();
        let span = last.saturating_sub(first).as_secs_f64();
        if span <= 0.0 {
            return committed.len() as f64;
        }
        committed.len() as f64 / span
    }

    /// Latency summary over committed transactions.
    pub fn latency_summary(&self) -> LatencySummary {
        let rows = self.rows.read();
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
        let pct = |p: f64| -> f64 {
            let idx = ((lats.len() as f64 - 1.0) * p).round() as usize;
            lats[idx]
        };
        LatencySummary {
            count: lats.len(),
            mean_s: lats.iter().sum::<f64>() / lats.len() as f64,
            p50_s: pct(0.50),
            p95_s: pct(0.95),
            p99_s: pct(0.99),
            max_s: *lats.last().expect("nonempty"),
        }
    }

    /// Per-client committed counts, sorted by client id (load monitoring,
    /// one of the two roles `c_id` plays in Algorithm 1).
    pub fn per_client_committed(&self) -> Vec<(u32, usize)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<u32, usize> = BTreeMap::new();
        for r in self.rows.read().iter().filter(|r| r.status_ok()) {
            *map.entry(r.client_id).or_default() += 1;
        }
        map.into_iter().collect()
    }

    /// Removes every row.
    pub fn clear(&self) {
        self.rows.write().clear();
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
        t.clear();
        assert!(t.is_empty());
    }
}
