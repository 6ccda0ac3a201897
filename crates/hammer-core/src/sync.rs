//! The Redis→MySQL status pipeline of Fig. 2 (steps ④–⑥).
//!
//! The paper's driver does not write the Performance table directly:
//! transaction statuses accumulate in per-server vector lists, the driver
//! pushes them to **Redis**, and Redis periodically transfers merged
//! batches into **MySQL**, from which the visualisation layer reads. This
//! module reproduces that pipeline over the in-process stand-ins
//! ([`hammer_store::KvStore`] and [`hammer_store::TableStore`]):
//!
//! * [`StatusSyncer`] — the driver-side half: completion records are
//!   encoded and `RPUSH`ed onto a per-server list key.
//! * [`run_merger`] — the Redis→MySQL half: a background thread `LTAKE`s
//!   every status list on a period and inserts the decoded rows into the
//!   Performance table.
//! * `LiveSync` — the two halves wired up for one evaluation run.
//!
//! Records use a fixed-width binary encoding (33 bytes) so the KV store
//! carries realistic payloads rather than references.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_chain::types::TxStatus;
use hammer_store::table::{PerfRow, RowOutcome};
use hammer_store::{KvStore, TableStore};

use crate::index::TxRecord;

/// One completed (or finally-failed) transaction status record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatusRecord {
    /// 64-bit fingerprint of the transaction id.
    pub tx_fingerprint: u64,
    /// Generating client.
    pub client_id: u32,
    /// Submitting server.
    pub server_id: u32,
    /// Submission time (simulated, nanoseconds).
    pub start_ns: u64,
    /// Completion time (simulated, nanoseconds); `u64::MAX` = never.
    pub end_ns: u64,
    /// Terminal outcome.
    pub outcome: RowOutcome,
}

impl StatusRecord {
    /// Encoded size in bytes.
    pub const ENCODED_LEN: usize = 8 + 4 + 4 + 8 + 8 + 1;

    /// Fixed-width binary encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        out.extend_from_slice(&self.tx_fingerprint.to_be_bytes());
        out.extend_from_slice(&self.client_id.to_be_bytes());
        out.extend_from_slice(&self.server_id.to_be_bytes());
        out.extend_from_slice(&self.start_ns.to_be_bytes());
        out.extend_from_slice(&self.end_ns.to_be_bytes());
        out.push(self.outcome.code());
        out
    }

    /// Decodes a record; `None` on length or flag corruption.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let outcome = RowOutcome::from_code(bytes[32])?;
        Some(StatusRecord {
            tx_fingerprint: u64::from_be_bytes(bytes[0..8].try_into().ok()?),
            client_id: u32::from_be_bytes(bytes[8..12].try_into().ok()?),
            server_id: u32::from_be_bytes(bytes[12..16].try_into().ok()?),
            start_ns: u64::from_be_bytes(bytes[16..24].try_into().ok()?),
            end_ns: u64::from_be_bytes(bytes[24..32].try_into().ok()?),
            outcome,
        })
    }

    /// Converts into a Performance-table row for `chain`.
    pub fn into_row(self, chain: &str) -> PerfRow {
        PerfRow {
            tx_id: self.tx_fingerprint,
            client_id: self.client_id,
            server_id: self.server_id,
            chain: chain.to_owned(),
            start_time: Duration::from_nanos(self.start_ns),
            end_time: (self.end_ns != u64::MAX).then(|| Duration::from_nanos(self.end_ns)),
            outcome: self.outcome,
        }
    }
}

impl From<&TxRecord> for StatusRecord {
    /// A finished tracker record as a publishable status. `Pending` is
    /// defensively mapped to `TimedOut`: the report settles every pending
    /// record before rows are built.
    fn from(record: &TxRecord) -> Self {
        StatusRecord {
            tx_fingerprint: record.tx_id.fingerprint(),
            client_id: record.client_id,
            server_id: record.server_id,
            start_ns: record.start.as_nanos() as u64,
            end_ns: record.end.map_or(u64::MAX, |e| e.as_nanos() as u64),
            outcome: match record.status {
                TxStatus::Committed => RowOutcome::Committed,
                TxStatus::Failed => RowOutcome::Failed,
                TxStatus::Dropped => RowOutcome::Dropped,
                TxStatus::Expired => RowOutcome::Expired,
                TxStatus::TimedOut | TxStatus::Pending => RowOutcome::TimedOut,
            },
        }
    }
}

/// The per-server list key.
pub fn list_key(server_id: u32) -> String {
    format!("hammer:status:{server_id}")
}

/// Driver-side status publisher: pushes encoded records to the KV store.
#[derive(Clone)]
pub struct StatusSyncer {
    kv: Arc<KvStore>,
    server_id: u32,
}

impl StatusSyncer {
    /// A syncer publishing under `server_id`'s list.
    pub fn new(kv: Arc<KvStore>, server_id: u32) -> Self {
        StatusSyncer { kv, server_id }
    }

    /// Publishes one record.
    pub fn publish(&self, record: &StatusRecord) {
        self.kv.rpush(&list_key(self.server_id), record.encode());
    }
}

/// Runs the Redis→MySQL merger until `stop` is set *and* the lists are
/// empty; returns the number of rows transferred. Decodes every record and
/// inserts batches into the Performance table.
pub fn run_merger(
    kv: &KvStore,
    table: &TableStore,
    chain: &str,
    server_ids: &[u32],
    period: Duration,
    stop: &AtomicBool,
) -> usize {
    let mut transferred = 0usize;
    loop {
        let mut drained_any = false;
        for &server in server_ids {
            let items = kv.ltake(&list_key(server));
            if items.is_empty() {
                continue;
            }
            drained_any = true;
            let rows: Vec<PerfRow> = items
                .iter()
                .filter_map(|bytes| StatusRecord::decode(bytes))
                .map(|record| record.into_row(chain))
                .collect();
            transferred += rows.len();
            table.insert_batch(rows);
        }
        if stop.load(Ordering::Acquire) && !drained_any {
            return transferred;
        }
        std::thread::sleep(period);
    }
}

/// The pipeline wired up for one evaluation run (the driver builds it
/// only when live sync is on): statuses published through
/// [`LiveSync::syncer`] flow into a Performance table via a background
/// merger thread.
pub(crate) struct LiveSync {
    syncer: StatusSyncer,
    table: Arc<TableStore>,
    stop: Arc<AtomicBool>,
    merger: std::thread::JoinHandle<usize>,
}

impl LiveSync {
    pub(crate) fn start(chain_name: &str, servers: u32) -> Self {
        let kv = Arc::new(KvStore::new());
        let table = Arc::new(TableStore::new());
        let stop = Arc::new(AtomicBool::new(false));
        let server_ids: Vec<u32> = (0..servers.max(1)).collect();
        let merger = {
            let (kv, table, stop) = (Arc::clone(&kv), Arc::clone(&table), Arc::clone(&stop));
            let name = chain_name.to_owned();
            let period = Duration::from_millis(5);
            std::thread::Builder::new()
                .name("hammer-merger".to_owned())
                .spawn(move || run_merger(&kv, &table, &name, &server_ids, period, &stop))
                .expect("spawn merger")
        };
        LiveSync {
            syncer: StatusSyncer::new(kv, 0),
            table,
            stop,
            merger,
        }
    }

    /// The publisher completions are pushed through while the run lasts.
    pub(crate) fn syncer(&self) -> StatusSyncer {
        self.syncer.clone()
    }

    /// Flushes `stragglers` (records that never produced a completion
    /// event) through the same pipeline, stops the merger once the lists
    /// are empty, and returns its table with the number of rows that
    /// travelled the pipeline.
    pub(crate) fn finish<'r>(
        self,
        stragglers: impl IntoIterator<Item = &'r TxRecord>,
    ) -> (Arc<TableStore>, usize) {
        for record in stragglers {
            self.syncer.publish(&record.into());
        }
        self.stop.store(true, Ordering::Release);
        let synced_rows = self.merger.join().expect("merger panicked");
        (self.table, synced_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(n: u64) -> StatusRecord {
        StatusRecord {
            tx_fingerprint: n.wrapping_mul(0x9e3779b97f4a7c15),
            client_id: (n % 5) as u32,
            server_id: (n % 3) as u32,
            start_ns: n * 1000,
            end_ns: n * 1000 + 500,
            outcome: if n.is_multiple_of(7) {
                RowOutcome::Failed
            } else {
                RowOutcome::Committed
            },
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for n in 0..50 {
            let r = record(n);
            assert_eq!(StatusRecord::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(StatusRecord::decode(&[]), None);
        assert_eq!(StatusRecord::decode(&[0u8; 10]), None);
        let mut bytes = record(1).encode();
        bytes[32] = 9; // bad outcome code
        assert_eq!(StatusRecord::decode(&bytes), None);
    }

    #[test]
    fn pending_record_maps_to_no_end_time() {
        let r = StatusRecord {
            end_ns: u64::MAX,
            ..record(1)
        };
        let row = r.into_row("c");
        assert!(row.end_time.is_none());
    }

    #[test]
    fn syncer_and_merger_transfer_everything() {
        let kv = Arc::new(KvStore::new());
        let table = TableStore::new();
        let s0 = StatusSyncer::new(Arc::clone(&kv), 0);
        let s1 = StatusSyncer::new(Arc::clone(&kv), 1);
        for n in 0..200 {
            if n % 2 == 0 {
                s0.publish(&record(n));
            } else {
                s1.publish(&record(n));
            }
        }
        let stop = AtomicBool::new(true); // stop after draining
        let transferred = run_merger(
            &kv,
            &table,
            "test-chain",
            &[0, 1],
            Duration::from_millis(1),
            &stop,
        );
        assert_eq!(transferred, 200);
        assert_eq!(table.len(), 200);
        assert!(kv.lrange(&list_key(0), 0, 10).is_empty());
        // Row content carried through.
        let rows = table.all_rows();
        assert!(rows.iter().all(|r| r.chain == "test-chain"));
    }

    #[test]
    fn merger_drains_concurrent_publishers() {
        let kv = Arc::new(KvStore::new());
        let table = Arc::new(TableStore::new());
        let stop = Arc::new(AtomicBool::new(false));
        let merger = {
            let kv = Arc::clone(&kv);
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_merger(&kv, &table, "c", &[0], Duration::from_millis(2), &stop)
            })
        };
        let syncer = StatusSyncer::new(Arc::clone(&kv), 0);
        for n in 0..500 {
            syncer.publish(&record(n));
            if n % 100 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::Release);
        let transferred = merger.join().unwrap();
        assert_eq!(transferred, 500);
        assert_eq!(table.len(), 500);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(fp in any::<u64>(), c in any::<u32>(), s in any::<u32>(),
                          start in any::<u64>(), end in any::<u64>(), code in 0u8..=4) {
            let r = StatusRecord {
                tx_fingerprint: fp,
                client_id: c,
                server_id: s,
                start_ns: start,
                end_ns: end,
                outcome: RowOutcome::from_code(code).unwrap(),
            };
            prop_assert_eq!(StatusRecord::decode(&r.encode()), Some(r));
        }
    }
}
