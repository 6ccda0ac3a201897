//! Structured event journal: a bounded ring buffer of run events with
//! a JSONL sink.
//!
//! The journal captures the *discrete* events of a run — fault-window
//! transitions, backpressure episodes, retry exhaustion, block seals —
//! that aggregate metrics cannot express. It is bounded: when full,
//! the oldest event is dropped and a drop counter is bumped, so a
//! misbehaving run can never exhaust memory.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_rpc::json::write_json_string;
use parking_lot::Mutex;

/// Default ring capacity, sized for a full evaluation run's seals and
/// fault transitions with headroom.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Discrete event classes recorded in the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A fault-plan window became active.
    FaultEnter,
    /// A fault-plan window ended.
    FaultExit,
    /// A submission hit chain backpressure (first occurrence per tx).
    Backpressure,
    /// A transaction exhausted its retry budget or slice deadline.
    RetryExhausted,
    /// A chain sim sealed a block or epoch.
    BlockSeal,
    /// The driver's stall watchdog detected a no-progress interval and
    /// aborted the run gracefully.
    Stalled,
    /// The driver's monitor hit a fatal chain error and aborted the run.
    MonitorFailed,
}

impl EventKind {
    /// Stable snake_case label used in the JSONL sink.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EventKind::FaultEnter => "fault_enter",
            EventKind::FaultExit => "fault_exit",
            EventKind::Backpressure => "backpressure",
            EventKind::RetryExhausted => "retry_exhausted",
            EventKind::BlockSeal => "block_seal",
            EventKind::Stalled => "stalled",
            EventKind::MonitorFailed => "monitor_failed",
        }
    }
}

/// One journal entry. `at` is simulation time; `node` names the
/// emitting node or slice; `detail` is free-form context; `value`
/// carries the event's primary magnitude (txs in a sealed block,
/// retry attempts spent, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Simulation timestamp of the event.
    pub at: Duration,
    /// Event class.
    pub kind: EventKind,
    /// Emitting node, window label, or slice.
    pub node: String,
    /// Free-form context.
    pub detail: String,
    /// Primary magnitude of the event.
    pub value: u64,
}

struct JournalInner {
    events: Mutex<VecDeque<JournalEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Bounded event journal handle; clones share the ring.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<JournalInner>,
    enabled: bool,
}

impl Journal {
    /// Live journal with the given ring capacity (min 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Journal {
            inner: Arc::new(JournalInner {
                events: Mutex::new(VecDeque::new()),
                capacity: capacity.max(1),
                dropped: AtomicU64::new(0),
            }),
            enabled: true,
        }
    }

    /// Live journal with `DEFAULT_JOURNAL_CAPACITY`.
    pub fn new() -> Self {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Disabled journal: every push is a no-op.
    pub(crate) fn disabled() -> Self {
        Journal {
            inner: Arc::new(JournalInner {
                events: Mutex::new(VecDeque::new()),
                capacity: 0,
                dropped: AtomicU64::new(0),
            }),
            enabled: false,
        }
    }

    /// Append an event, evicting the oldest entry when full.
    pub(crate) fn push(&self, event: JournalEvent) {
        if !self.enabled {
            return;
        }
        let mut events = self.inner.events.lock();
        if events.len() == self.inner.capacity {
            events.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Record a sealed block/epoch.
    pub fn block_seal(&self, at: Duration, node: &str, height: u64, txs: usize) {
        if !self.enabled {
            return;
        }
        self.push(JournalEvent {
            at,
            kind: EventKind::BlockSeal,
            node: node.to_owned(),
            detail: format!("height={height}"),
            value: txs as u64,
        });
    }

    /// Record a fault window becoming active.
    pub fn fault_enter(&self, at: Duration, label: &str) {
        if !self.enabled {
            return;
        }
        self.push(JournalEvent {
            at,
            kind: EventKind::FaultEnter,
            node: label.to_owned(),
            detail: String::new(),
            value: 0,
        });
    }

    /// Record a fault window ending.
    pub fn fault_exit(&self, at: Duration, label: &str) {
        if !self.enabled {
            return;
        }
        self.push(JournalEvent {
            at,
            kind: EventKind::FaultExit,
            node: label.to_owned(),
            detail: String::new(),
            value: 0,
        });
    }

    /// Record a backpressure episode on `node` (one per transaction).
    pub fn backpressure(&self, at: Duration, node: &str, detail: &str) {
        if !self.enabled {
            return;
        }
        self.push(JournalEvent {
            at,
            kind: EventKind::Backpressure,
            node: node.to_owned(),
            detail: detail.to_owned(),
            value: 0,
        });
    }

    /// Record a stall-watchdog abort: no commit, retry, or chain
    /// progress for `budget_s` simulated seconds with work outstanding.
    /// `pending` carries the number of in-flight transactions stranded
    /// by the stall.
    pub fn stalled(&self, at: Duration, node: &str, budget: Duration, pending: u64) {
        if !self.enabled {
            return;
        }
        self.push(JournalEvent {
            at,
            kind: EventKind::Stalled,
            node: node.to_owned(),
            detail: format!("budget_s={:.3}", budget.as_secs_f64()),
            value: pending,
        });
    }

    /// Record the monitor aborting the run on a fatal chain error
    /// (`detail` is the error's text).
    pub fn monitor_failed(&self, at: Duration, node: &str, detail: &str) {
        self.push(JournalEvent {
            at,
            kind: EventKind::MonitorFailed,
            node: node.to_owned(),
            detail: detail.to_owned(),
            value: 0,
        });
    }

    /// Record a transaction giving up after `attempts` tries.
    pub fn retry_exhausted(&self, at: Duration, node: &str, outcome: &str, attempts: u64) {
        if !self.enabled {
            return;
        }
        self.push(JournalEvent {
            at,
            kind: EventKind::RetryExhausted,
            node: node.to_owned(),
            detail: outcome.to_owned(),
            value: attempts,
        });
    }

    /// Number of buffered events.
    pub(crate) fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner.events.lock().iter().cloned().collect()
    }

    /// Count of buffered events of one kind.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.inner
            .events
            .lock()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }

    /// Serialise the buffered events as JSON Lines, oldest first.
    pub fn to_jsonl(&self) -> String {
        let events = self.inner.events.lock();
        let mut out = String::with_capacity(events.len() * 96);
        for e in events.iter() {
            let _ = write!(
                out,
                "{{\"at_s\":{:.6},\"kind\":\"{}\",\"node\":",
                e.at.as_secs_f64(),
                e.kind.as_str()
            );
            write_json_string(&e.node, &mut out);
            out.push_str(",\"detail\":");
            write_json_string(&e.detail, &mut out);
            let _ = writeln!(out, ",\"value\":{}}}", e.value);
        }
        out
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Journal {
        /// Whether pushes take effect.
        fn is_enabled(&self) -> bool {
            self.enabled
        }

        /// Ring capacity (0 when disabled).
        fn capacity(&self) -> usize {
            self.inner.capacity * usize::from(self.enabled)
        }

        /// Events evicted because the ring was full.
        fn dropped(&self) -> u64 {
            self.inner.dropped.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn ring_buffer_bounds_hold_and_oldest_is_evicted() {
        let j = Journal::with_capacity(3);
        for i in 0..5u64 {
            j.block_seal(Duration::from_secs(i), "n", i, 10);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let events = j.events();
        // Oldest two (heights 0 and 1) were evicted.
        assert_eq!(events[0].detail, "height=2");
        assert_eq!(events[2].detail, "height=4");
        assert_eq!(j.capacity(), 3);
    }

    #[test]
    fn disabled_journal_is_inert() {
        let j = Journal::disabled();
        j.block_seal(Duration::ZERO, "n", 1, 2);
        j.fault_enter(Duration::ZERO, "w");
        j.push(JournalEvent {
            at: Duration::ZERO,
            kind: EventKind::Backpressure,
            node: "n".into(),
            detail: String::new(),
            value: 0,
        });
        assert!(j.is_empty());
        assert_eq!(j.capacity(), 0);
        assert!(!j.is_enabled());
        assert!(j.to_jsonl().is_empty());
    }

    #[test]
    fn jsonl_serialisation_escapes_and_orders() {
        let j = Journal::new();
        j.fault_enter(Duration::from_millis(1500), "crash \"w1\"");
        j.retry_exhausted(Duration::from_secs(2), "client-3", "dropped", 8);
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"at_s\":1.500000"));
        assert!(lines[0].contains("\\\"w1\\\""));
        assert!(lines[1].contains("\"kind\":\"retry_exhausted\""));
        assert!(lines[1].contains("\"value\":8"));
    }

    #[test]
    fn helpers_tag_kinds_correctly() {
        let j = Journal::new();
        j.fault_enter(Duration::ZERO, "w");
        j.fault_exit(Duration::from_secs(1), "w");
        j.backpressure(Duration::from_secs(2), "eth-node-0", "mempool full");
        j.retry_exhausted(Duration::from_secs(3), "client-0", "expired", 4);
        j.block_seal(Duration::from_secs(4), "eth-node-0", 7, 120);
        j.stalled(Duration::from_secs(5), "driver", Duration::from_secs(8), 42);
        assert_eq!(j.count_of(EventKind::FaultEnter), 1);
        assert_eq!(j.count_of(EventKind::FaultExit), 1);
        assert_eq!(j.count_of(EventKind::Backpressure), 1);
        assert_eq!(j.count_of(EventKind::RetryExhausted), 1);
        assert_eq!(j.count_of(EventKind::BlockSeal), 1);
        assert_eq!(j.count_of(EventKind::Stalled), 1);
        assert_eq!(j.events()[4].value, 120);
        let stall = &j.events()[5];
        assert_eq!(stall.detail, "budget_s=8.000");
        assert_eq!(stall.value, 42);
    }
}
