//! Driver checkpoint/resume: a compact, versioned snapshot of the
//! evaluation driver's mutable state, periodically written to a
//! [`KvStore`] so a killed driver can resume mid-run
//! ([`crate::driver::Evaluation::run_recoverable`]).
//!
//! The snapshot captures exactly the state a resumed driver needs to
//! account for every transaction once:
//!
//! * the tracker's per-transaction records (pending included),
//! * the monitor's per-shard scan heights and per-shard commit counts,
//! * the rejected-id set and the retried counter,
//! * the workload seed and control total, as a guard against resuming
//!   into a different run.
//!
//! Workers are never interrupted mid-transaction (the abort flag is only
//! polled between transactions), so every checkpointed record was already
//! handed to the chain: terminal records are settled, and pending ones
//! are re-observed by rescanning blocks from the checkpointed heights.
//! Transactions *not* in the checkpoint — pulled after the snapshot, or
//! never pulled — are simply reprocessed by the resumed run; the chain
//! simulators tolerate the resulting duplicate submissions (a transaction
//! sealed twice matches at most once in the tracker).
//!
//! The format is a hand-rolled little-endian byte codec (no serde in the
//! dependency tree): a `HMCP` magic, a version word, then length-prefixed
//! sections. [`DriverCheckpoint::from_bytes`] returns `None` on any
//! structural mismatch, which a resuming driver treats as "no checkpoint".

use std::sync::Arc;
use std::time::Duration;

use hammer_chain::types::{TxId, TxStatus};
use hammer_store::KvStore;

use crate::index::TxRecord;

const MAGIC: &[u8; 4] = b"HMCP";
const VERSION: u16 = 1;
/// `end_ns` sentinel for records with no end time yet.
const NO_END: u64 = u64::MAX;

/// How a recoverable run checkpoints, and (for tests and chaos drills)
/// when it should simulate a crash.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Where checkpoints live. Share one store across the crash and the
    /// resume, as a real deployment would share a Redis instance.
    pub store: Arc<KvStore>,
    /// Namespaces the checkpoint key: two runs under different ids never
    /// see each other's snapshots.
    pub run_id: String,
    /// Simulated time between periodic snapshots (the first is taken as
    /// soon as the monitor starts).
    pub interval: Duration,
    /// Cooperative kill switch: when the monitor's clock passes this
    /// simulated time, the run aborts with [`crate::driver::EvalError::Killed`]
    /// *without* writing a final snapshot — state since the last periodic
    /// checkpoint is lost, exactly as in a real crash. `None` runs to
    /// completion.
    pub kill_at: Option<Duration>,
}

impl RecoveryConfig {
    /// A recovery setup that checkpoints every `interval` and never
    /// kills.
    pub fn new(store: Arc<KvStore>, run_id: impl Into<String>, interval: Duration) -> Self {
        RecoveryConfig {
            store,
            run_id: run_id.into(),
            interval,
            kill_at: None,
        }
    }

    /// Arms the kill switch at the given simulated time.
    pub fn kill_at(mut self, at: Duration) -> Self {
        self.kill_at = Some(at);
        self
    }
}

/// The KV key a run's checkpoint lives under.
pub fn checkpoint_key(run_id: &str) -> String {
    format!("hammer/checkpoint/{run_id}")
}

/// One snapshot of the driver's mutable state (see the module docs for
/// what is and is not captured).
#[derive(Clone, Debug, PartialEq)]
pub struct DriverCheckpoint {
    /// The workload seed the run was started with (resume guard).
    pub workload_seed: u64,
    /// The control sequence's transaction total (resume guard).
    pub total: u64,
    /// The retry counter at snapshot time (a pure metric; the submitted
    /// and rejected counters are derived from the records instead).
    pub retried: u64,
    /// The monitor's per-shard block-scan heights.
    pub last_seen: Vec<u64>,
    /// Per-shard committed counts at snapshot time.
    pub shard_commits: Vec<(u32, u64)>,
    /// Transactions the SUT terminally rejected.
    pub rejected_ids: Vec<TxId>,
    /// Every tracker record, pending included.
    pub records: Vec<TxRecord>,
}

impl DriverCheckpoint {
    /// Serialises the checkpoint.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.records.len() * 61);
        out.extend_from_slice(MAGIC);
        put_u16(&mut out, VERSION);
        put_u64(&mut out, self.workload_seed);
        put_u64(&mut out, self.total);
        put_u64(&mut out, self.retried);
        put_u32(&mut out, self.last_seen.len() as u32);
        for h in &self.last_seen {
            put_u64(&mut out, *h);
        }
        put_u32(&mut out, self.shard_commits.len() as u32);
        for (shard, n) in &self.shard_commits {
            put_u32(&mut out, *shard);
            put_u64(&mut out, *n);
        }
        put_u32(&mut out, self.rejected_ids.len() as u32);
        for id in &self.rejected_ids {
            out.extend_from_slice(&id.0);
        }
        put_u32(&mut out, self.records.len() as u32);
        for r in &self.records {
            out.extend_from_slice(&r.tx_id.0);
            put_u32(&mut out, r.client_id);
            put_u32(&mut out, r.server_id);
            put_u64(&mut out, r.start.as_nanos() as u64);
            put_u64(
                &mut out,
                r.end.map(|e| e.as_nanos() as u64).unwrap_or(NO_END),
            );
            out.push(status_byte(r.status));
        }
        out
    }

    /// Deserialises a checkpoint; `None` on any structural mismatch
    /// (wrong magic/version, truncation, an unknown status byte).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(4)? != MAGIC.as_slice() || c.u16()? != VERSION {
            return None;
        }
        let workload_seed = c.u64()?;
        let total = c.u64()?;
        let retried = c.u64()?;
        let n = c.u32()? as usize;
        let mut last_seen = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            last_seen.push(c.u64()?);
        }
        let n = c.u32()? as usize;
        let mut shard_commits = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let shard = c.u32()?;
            shard_commits.push((shard, c.u64()?));
        }
        let n = c.u32()? as usize;
        let mut rejected_ids = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            rejected_ids.push(TxId(c.take(32)?.try_into().ok()?));
        }
        let n = c.u32()? as usize;
        let mut records = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            let tx_id = TxId(c.take(32)?.try_into().ok()?);
            let client_id = c.u32()?;
            let server_id = c.u32()?;
            let start = Duration::from_nanos(c.u64()?);
            let end_ns = c.u64()?;
            let status = status_from_byte(c.u8()?)?;
            records.push(TxRecord {
                tx_id,
                client_id,
                server_id,
                start,
                end: (end_ns != NO_END).then(|| Duration::from_nanos(end_ns)),
                status,
            });
        }
        if c.pos != bytes.len() {
            return None; // trailing garbage
        }
        Some(DriverCheckpoint {
            workload_seed,
            total,
            retried,
            last_seen,
            shard_commits,
            rejected_ids,
            records,
        })
    }

    /// Writes the checkpoint into the store under the run's key.
    pub fn save(&self, store: &KvStore, run_id: &str) {
        store.set(&checkpoint_key(run_id), self.to_bytes());
    }

    /// Loads and decodes a run's checkpoint, if one exists and parses.
    pub fn load(store: &KvStore, run_id: &str) -> Option<Self> {
        store
            .get(&checkpoint_key(run_id))
            .and_then(|bytes| Self::from_bytes(&bytes))
    }
}

fn status_byte(status: TxStatus) -> u8 {
    match status {
        TxStatus::Pending => 0,
        TxStatus::Committed => 1,
        TxStatus::Failed => 2,
        TxStatus::TimedOut => 3,
        TxStatus::Dropped => 4,
        TxStatus::Expired => 5,
    }
}

fn status_from_byte(byte: u8) -> Option<TxStatus> {
    Some(match byte {
        0 => TxStatus::Pending,
        1 => TxStatus::Committed,
        2 => TxStatus::Failed,
        3 => TxStatus::TimedOut,
        4 => TxStatus::Dropped,
        5 => TxStatus::Expired,
        _ => return None,
    })
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DriverCheckpoint {
        let rec = |i: u8, status: TxStatus, end: Option<u64>| TxRecord {
            tx_id: TxId([i; 32]),
            client_id: i as u32,
            server_id: (i as u32) % 3,
            start: Duration::from_millis(i as u64 * 7),
            end: end.map(Duration::from_millis),
            status,
        };
        DriverCheckpoint {
            workload_seed: 42,
            total: 500,
            retried: 9,
            last_seen: vec![12, 3],
            shard_commits: vec![(0, 110), (1, 95)],
            rejected_ids: vec![TxId([9; 32])],
            records: vec![
                rec(1, TxStatus::Committed, Some(100)),
                rec(2, TxStatus::Pending, None),
                rec(3, TxStatus::Failed, Some(150)),
                rec(4, TxStatus::Dropped, Some(80)),
                rec(5, TxStatus::Expired, Some(90)),
                rec(6, TxStatus::TimedOut, Some(200)),
            ],
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let cp = sample();
        let decoded = DriverCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(decoded, cp);
    }

    #[test]
    fn round_trips_through_a_store() {
        let store = KvStore::new();
        let cp = sample();
        cp.save(&store, "run-7");
        assert_eq!(DriverCheckpoint::load(&store, "run-7").unwrap(), cp);
        assert!(DriverCheckpoint::load(&store, "other-run").is_none());
    }

    #[test]
    fn rejects_corruption() {
        let bytes = sample().to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(DriverCheckpoint::from_bytes(&bad).is_none());
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(DriverCheckpoint::from_bytes(&bad).is_none());
        // Truncation at every prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                DriverCheckpoint::from_bytes(&bytes[..cut]).is_none(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(DriverCheckpoint::from_bytes(&bad).is_none());
        // Unknown status byte (last byte of the last record).
        let mut bad = bytes;
        let last = bad.len() - 1;
        bad[last] = 200;
        assert!(DriverCheckpoint::from_bytes(&bad).is_none());
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let cp = DriverCheckpoint {
            workload_seed: 0,
            total: 0,
            retried: 0,
            last_seen: vec![],
            shard_commits: vec![],
            rejected_ids: vec![],
            records: vec![],
        };
        assert_eq!(DriverCheckpoint::from_bytes(&cp.to_bytes()).unwrap(), cp);
    }

    use proptest::prelude::*;

    fn arbitrary_id() -> impl Strategy<Value = TxId> {
        proptest::collection::vec(any::<u8>(), 32)
            .prop_map(|bytes| TxId(bytes.try_into().expect("32 bytes")))
    }

    /// Every status; an end of `u64::MAX` ns is the codec's "no end"
    /// sentinel, so ends stop one short of it.
    fn arbitrary_record() -> impl Strategy<Value = TxRecord> {
        const STATUSES: [TxStatus; 6] = [
            TxStatus::Pending,
            TxStatus::Committed,
            TxStatus::Failed,
            TxStatus::TimedOut,
            TxStatus::Dropped,
            TxStatus::Expired,
        ];
        let end = (any::<bool>(), 0..NO_END).prop_map(|(ended, ns)| ended.then_some(ns));
        (
            arbitrary_id(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            end,
            0usize..6,
        )
            .prop_map(
                |(tx_id, client_id, server_id, start_ns, end_ns, status)| TxRecord {
                    tx_id,
                    client_id,
                    server_id,
                    start: Duration::from_nanos(start_ns),
                    end: end_ns.map(Duration::from_nanos),
                    status: STATUSES[status],
                },
            )
    }

    /// Empty and non-empty vectors in every section.
    fn arbitrary_checkpoint() -> impl Strategy<Value = DriverCheckpoint> {
        use proptest::collection::vec;
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            vec(any::<u64>(), 0..4),
            vec((any::<u32>(), any::<u64>()), 0..4),
            vec(arbitrary_id(), 0..4),
            vec(arbitrary_record(), 0..6),
        )
            .prop_map(
                |(
                    (workload_seed, total, retried),
                    last_seen,
                    shard_commits,
                    rejected_ids,
                    records,
                )| {
                    DriverCheckpoint {
                        workload_seed,
                        total,
                        retried,
                        last_seen,
                        shard_commits,
                        rejected_ids,
                        records,
                    }
                },
            )
    }

    proptest! {
        /// A checkpoint read back from a store is outside input: whatever
        /// the bytes, decoding returns. Half the cases carry a valid header,
        /// and zero and small bytes are common enough for length prefixes to
        /// read as small counts, so every section decoder sees the garbage.
        #[test]
        fn prop_from_bytes_never_panics(
            mut bytes in proptest::collection::vec(
                prop_oneof![Just(0u8), 0u8..4, any::<u8>()],
                0..512,
            ),
            stamped in any::<bool>(),
        ) {
            if stamped && bytes.len() >= 6 {
                bytes[..4].copy_from_slice(MAGIC);
                bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
            }
            if let Some(decoded) = DriverCheckpoint::from_bytes(&bytes) {
                prop_assert_eq!(decoded.to_bytes(), bytes);
            }
        }

        #[test]
        fn prop_any_checkpoint_round_trips(cp in arbitrary_checkpoint()) {
            prop_assert_eq!(DriverCheckpoint::from_bytes(&cp.to_bytes()), Some(cp));
        }

        /// No strict prefix of an encoding decodes, and a byte changed
        /// anywhere is either refused or is the encoding of what it decodes
        /// to: the codec never reads a damaged snapshot as something else.
        #[test]
        fn prop_damage_is_refused_or_faithful(cp in arbitrary_checkpoint(), flip in 1u8..=255) {
            let bytes = cp.to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(
                    DriverCheckpoint::from_bytes(&bytes[..cut]).is_none(),
                    "prefix of {cut} of {} bytes decoded", bytes.len()
                );
            }
            for at in 0..bytes.len() {
                let mut damaged = bytes.clone();
                damaged[at] ^= flip;
                if let Some(decoded) = DriverCheckpoint::from_bytes(&damaged) {
                    prop_assert!(decoded.to_bytes() == damaged, "byte {at} ^ {flip:#04x} decoded");
                }
            }
        }
    }
}
