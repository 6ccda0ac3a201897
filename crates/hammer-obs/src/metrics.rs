//! Lock-free metric primitives and the unified registry.
//!
//! Three metric kinds are provided:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`.
//! * [`Gauge`] — settable `AtomicU64` (last-write-wins).
//! * [`Histogram`] — log-bucketed latency histogram in the HDR style:
//!   values are binned into 32 sub-buckets per power-of-two octave
//!   (≤ 3.2 % relative error), recorded with a single relaxed atomic
//!   increment, merged by pairwise bucket addition, and summarised via
//!   an immutable [`HistogramSnapshot`].
//!
//! Handles are cheap `Arc` clones. A handle minted by a *disabled*
//! registry carries `enabled = false` and turns every record operation
//! into one predictable branch, so instrumentation can stay inline on
//! hot paths at near-zero cost when observability is off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Number of sub-bucket bits per octave: 2^5 = 32 linear sub-buckets
/// between consecutive powers of two, bounding relative error at
/// `1/32 ≈ 3.1 %` (half that when bucket midpoints are reported).
const SUB_BITS: usize = 5;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: buckets `0..32`
/// hold exact values `0..32`, then 59 octaves of 32 sub-buckets each.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// Map a recorded value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let shift = octave - SUB_BITS;
    (shift + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// Inclusive lower bound of the value range covered by bucket `idx`.
#[inline]
fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = idx / SUB - 1;
    ((SUB + idx % SUB) as u64) << shift
}

/// Representative value reported for bucket `idx`: its midpoint, which
/// halves the worst-case quantile error versus the lower bound.
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = idx / SUB - 1;
    bucket_lower(idx) + ((1u64 << shift) >> 1)
}

/// Monotonic counter handle.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: bool,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
            enabled,
        }
    }

    /// Detached handle that ignores every increment.
    pub fn disabled() -> Self {
        Counter::new(false)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Whether records on this handle take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Settable gauge handle.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
    enabled: bool,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0)),
            enabled,
        }
    }

    /// Detached handle that ignores every write.
    pub fn disabled() -> Self {
        Gauge::new(false)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.enabled {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Add to the value (useful for free-running tallies).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Whether writes on this handle take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

/// Lock-free log-bucketed histogram. Values are raw `u64`s; by
/// convention the framework records **nanoseconds** so that snapshots
/// can be rendered in seconds downstream.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
    enabled: bool,
}

impl Histogram {
    fn alloc(enabled: bool) -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
            }),
            enabled,
        }
    }

    /// Fresh live histogram, not attached to any registry.
    pub fn new() -> Self {
        Histogram::alloc(true)
    }

    /// Detached handle that ignores every record.
    pub fn disabled() -> Self {
        Histogram {
            // Disabled handles never record, so one shared empty bucket
            // vector would also work; a private one keeps `snapshot`
            // uniform and the allocation happens once per handle mint.
            inner: Arc::new(HistInner {
                buckets: Vec::new(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
            }),
            enabled: false,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled {
            return;
        }
        let inner = &*self.inner;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.enabled {
            self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Fold another histogram into this one by pairwise bucket
    /// addition. Merging is commutative and associative up to
    /// concurrent-record races.
    pub fn merge(&self, other: &Histogram) {
        if !self.enabled || !other.enabled {
            return;
        }
        let dst = &*self.inner;
        let src = &*other.inner;
        for (d, s) in dst.buckets.iter().zip(src.buckets.iter()) {
            let n = s.load(Ordering::Relaxed);
            if n != 0 {
                d.fetch_add(n, Ordering::Relaxed);
            }
        }
        dst.count
            .fetch_add(src.count.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.sum
            .fetch_add(src.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.max
            .fetch_max(src.max.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.min
            .fetch_min(src.min.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Whether records on this handle take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Immutable point-in-time copy for quantile computation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        HistogramSnapshot {
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            min: inner.min.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Frozen histogram state; all quantile queries run against this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Smallest recorded value (exact; `u64::MAX` when empty).
    pub min: u64,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`, reported as the midpoint of
    /// the containing bucket (exact for values below 32). Returns 0
    /// for an empty snapshot; `q = 1` returns the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q.max(0.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Cumulative count of values recorded in buckets whose
    /// representative value is `<= bound` (Prometheus `le` semantics
    /// over bucket midpoints).
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        let mut total = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n != 0 && bucket_mid(idx) <= bound {
                total += n;
            }
        }
        total
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (d, s) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *d += s;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// Unified metric registry. Cloning shares the underlying metric maps;
/// metric lookups interned by name, so repeated calls with the same
/// name return handles to the same cell. A disabled registry hands out
/// detached disabled handles without touching the maps or any lock.
#[derive(Clone, Default)]
pub struct Registry {
    enabled: bool,
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Live registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            inner: Arc::new(RegistryInner::default()),
        }
    }

    /// Disabled registry: every minted handle is a no-op.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            inner: Arc::new(RegistryInner::default()),
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Counter handle for `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::disabled();
        }
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| Counter::new(true))
            .clone()
    }

    /// Counter handle for `name` qualified by `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&qualified(name, labels))
    }

    /// Gauge handle for `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::disabled();
        }
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner
            .gauges
            .write()
            .entry(name.to_owned())
            .or_insert_with(|| Gauge::new(true))
            .clone()
    }

    /// Gauge handle for `name` qualified by `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&qualified(name, labels))
    }

    /// Histogram handle for `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::disabled();
        }
        if let Some(h) = self.inner.histograms.read().get(name) {
            return h.clone();
        }
        self.inner
            .histograms
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Histogram handle for `name` qualified by `labels`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(&qualified(name, labels))
    }

    /// All counters, sorted by full name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// All gauges, sorted by full name.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        self.inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Snapshots of all histograms, sorted by full name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// Build the full metric name `name{k1="v1",k2="v2"}`.
fn qualified(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 2 {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "idx {idx} out of range for {v}");
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
            // Lower bound of the bucket must not exceed the value.
            assert!(bucket_lower(idx) <= v);
            v = v.saturating_mul(2).saturating_add(1);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Midpoint representative is within 1/64 of any value in the
        // bucket; allow 1/32 to be safe across bucket edges.
        for &v in &[33u64, 100, 1_000, 12_345, 1 << 20, (1 << 40) + 17] {
            let rep = bucket_mid(bucket_index(v));
            let err = rep.abs_diff(v) as f64 / v as f64;
            assert!(err <= 1.0 / 32.0, "error {err} too large for {v}");
        }
    }

    #[test]
    fn quantiles_match_sorted_vec_oracle() {
        // Deterministic pseudo-random values, compared against exact
        // quantiles from a sorted vector within the bucket error bound.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut values = Vec::new();
        let hist = Histogram::new();
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 5_000_000;
            values.push(v);
            hist.record(v);
        }
        values.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.max, *values.last().unwrap());
        for &q in &[0.10, 0.50, 0.90, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank];
            let approx = snap.quantile(q);
            let tol = (exact as f64 / 16.0).max(2.0); // 2 bucket widths
            assert!(
                (approx as f64 - exact as f64).abs() <= tol,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(snap.quantile(1.0), snap.max);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let h = Histogram::new();
            let mut x = seed;
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.record(x >> 33);
            }
            h
        };
        let (a, b, c) = (mk(1, 500), mk(2, 700), mk(3, 900));

        // (a + b) + c
        let left = Histogram::new();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let bc = Histogram::new();
        bc.merge(&b);
        bc.merge(&c);
        let right = Histogram::new();
        right.merge(&a);
        right.merge(&bc);
        // c + b + a (commutativity)
        let rev = Histogram::new();
        rev.merge(&c);
        rev.merge(&b);
        rev.merge(&a);

        assert_eq!(left.snapshot(), right.snapshot());
        assert_eq!(left.snapshot(), rev.snapshot());
        assert_eq!(left.count(), 2100);
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 7);
            b.record(v * 13 + 5);
        }
        let merged = Histogram::new();
        merged.merge(&a);
        merged.merge(&b);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap, merged.snapshot());
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.add(5);
        g.set(9);
        h.record(100);
        h.record_duration(Duration::from_millis(3));
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        assert!(reg.counters().is_empty());
        assert!(reg.gauges().is_empty());
        assert!(reg.histograms().is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn registry_interns_by_name_and_label() {
        let reg = Registry::new();
        reg.counter("hits").inc();
        reg.counter("hits").add(2);
        assert_eq!(reg.counter("hits").value(), 3);

        let labelled = reg.counter_with("bytes", &[("from", "a"), ("to", "b")]);
        labelled.add(10);
        assert_eq!(
            reg.counter_with("bytes", &[("from", "a"), ("to", "b")])
                .value(),
            10
        );
        let names: Vec<String> = reg.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["bytes{from=\"a\",to=\"b\"}", "hits"]);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(7);
        g.add(3);
        assert_eq!(g.value(), 10);
        g.set(1);
        assert_eq!(reg.gauge("depth").value(), 1);
    }

    #[test]
    fn empty_snapshot_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.quantile(1.0), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().count, 40_000);
    }
}
