//! The in-flight status tracker behind one internally-locked interface.
//! The task tracker's vector list and Bloom filter are sized for the run's
//! total; its hash index holds only the records in flight.

use std::collections::HashSet;
use std::time::Duration;

use hammer_chain::types::{SignedTransaction, TxId, TxStatus};
use parking_lot::Mutex;

use crate::baseline::BatchQueue;
use crate::index::{IndexStats, TxRecord, Visit};
use crate::shard::ShardedTxTable;

/// Internal: one interface over the two status-tracking structures.
/// Locking is *internal* to the implementation — the sharded task tracker
/// takes one shard lock per call (and one per touched shard per chunk or
/// block for [`Tracker::insert_chunk`] and [`Tracker::complete_block_with`])
/// while the batch baseline keeps its single
/// queue lock — so callers never serialise on a global tracker mutex.
/// `complete` returns the finished record so the interactive listener can
/// record its spans without a second lookup.
pub(super) trait Tracker: Send + Sync {
    fn insert(&self, id: TxId, client: u32, server: u32, start: Duration);
    /// Records a chunk of submissions that share `start`, before the chain
    /// sees any of them. The sharded tracker locks each touched shard once
    /// per 128 (a piece is at most 128) and reads a group's Bloom blocks and
    /// home slots before it inserts any of the group.
    fn insert_chunk(&self, chunk: &[SignedTransaction], start: Duration);
    fn complete(&self, id: &TxId, end: Duration, ok: bool) -> Option<TxRecord>;
    /// Matches a whole sealed block, read from its two columns
    /// (`valid[i]` belongs to `tx_ids[i]`), showing `visit` every record
    /// that completed, in place and under the tracker's lock. The sharded
    /// tracker walks the block once per shard it touches, locks each of
    /// them once per block, and reads a group's Bloom blocks, home slots and records
    /// before it settles any of the group.
    fn complete_block_with(
        &self,
        tx_ids: &[TxId],
        valid: &[bool],
        end: Duration,
        visit: &mut Visit<'_>,
    );
    /// Submission-side abandonment: the retry loop gave up on a
    /// transaction ([`TxStatus::Dropped`] / [`TxStatus::Expired`]) that
    /// therefore never reached the chain.
    fn abandon(&self, id: &TxId, end: Duration, status: TxStatus) -> bool;
    /// Terminal rejection: the record completes as failed *and* the id
    /// joins the rejected set under one lock (the pre-sharding driver
    /// took two global locks here).
    fn reject(&self, id: &TxId, end: Duration);
    fn pending(&self) -> usize;
    fn index_stats(&self) -> Option<IndexStats> {
        None
    }
    /// A consistent point-in-time copy of every record (pending included)
    /// plus the rejected-id set, for checkpointing. The sharded tracker
    /// holds all shard locks while copying, so the view is identical to a
    /// single-table snapshot.
    fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>);
    /// Resume path: replays a checkpointed rejected-id set.
    fn restore_rejected(&self, ids: &[TxId]);
    /// Drains the tracker at end of run: every record plus the combined
    /// rejected-id set.
    fn finish(&self) -> (Vec<TxRecord>, HashSet<TxId>);
}

impl Tracker for ShardedTxTable {
    fn insert(&self, id: TxId, client: u32, server: u32, start: Duration) {
        ShardedTxTable::insert(self, id, client, server, start);
    }
    fn insert_chunk(&self, chunk: &[SignedTransaction], start: Duration) {
        ShardedTxTable::insert_chunk(self, chunk, start);
    }
    fn complete(&self, id: &TxId, end: Duration, ok: bool) -> Option<TxRecord> {
        ShardedTxTable::complete(self, id, end, ok)
    }
    fn complete_block_with(
        &self,
        tx_ids: &[TxId],
        valid: &[bool],
        end: Duration,
        visit: &mut Visit<'_>,
    ) {
        ShardedTxTable::complete_block_with(self, tx_ids, valid, end, visit);
    }
    fn abandon(&self, id: &TxId, end: Duration, status: TxStatus) -> bool {
        ShardedTxTable::abandon(self, id, end, status)
    }
    fn reject(&self, id: &TxId, end: Duration) {
        ShardedTxTable::reject(self, id, end);
    }
    fn pending(&self) -> usize {
        ShardedTxTable::pending(self)
    }
    fn index_stats(&self) -> Option<IndexStats> {
        Some(self.stats())
    }
    fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>) {
        ShardedTxTable::snapshot(self)
    }
    fn restore_rejected(&self, ids: &[TxId]) {
        ShardedTxTable::restore_rejected(self, ids);
    }
    fn finish(&self) -> (Vec<TxRecord>, HashSet<TxId>) {
        self.drain()
    }
}

/// The Blockbench-style baseline behind the same internally-locked
/// interface: one mutex around the unconfirmed queue (the O(n·m) scan is
/// the point of the baseline) plus its rejected-id set.
pub(super) struct BatchTracker {
    queue: Mutex<BatchQueue>,
    rejected: Mutex<HashSet<TxId>>,
}

impl BatchTracker {
    pub(super) fn new() -> Self {
        BatchTracker {
            queue: Mutex::new(BatchQueue::new()),
            rejected: Mutex::new(HashSet::new()),
        }
    }
}

impl Tracker for BatchTracker {
    fn insert(&self, id: TxId, client: u32, server: u32, start: Duration) {
        self.queue.lock().insert(id, client, server, start);
    }
    fn insert_chunk(&self, chunk: &[SignedTransaction], start: Duration) {
        let mut queue = self.queue.lock();
        for signed in chunk {
            let tx = &signed.tx;
            queue.insert(signed.id, tx.client_id, tx.server_id, start);
        }
    }
    fn complete(&self, id: &TxId, end: Duration, ok: bool) -> Option<TxRecord> {
        let mut queue = self.queue.lock();
        if queue.complete(id, end, ok) {
            queue.records().last().cloned()
        } else {
            None
        }
    }
    fn complete_block_with(
        &self,
        tx_ids: &[TxId],
        valid: &[bool],
        end: Duration,
        visit: &mut Visit<'_>,
    ) {
        let mut queue = self.queue.lock();
        for (id, ok) in tx_ids.iter().zip(valid) {
            if queue.complete(id, end, *ok) {
                queue.records().last().into_iter().for_each(&mut *visit);
            }
        }
    }
    fn abandon(&self, id: &TxId, end: Duration, status: TxStatus) -> bool {
        self.queue.lock().abandon(id, end, status)
    }
    fn reject(&self, id: &TxId, end: Duration) {
        let mut queue = self.queue.lock();
        let _ = queue.complete(id, end, false);
        self.rejected.lock().insert(*id);
    }
    fn pending(&self) -> usize {
        self.queue.lock().pending()
    }
    /// Completed records only: the unconfirmed queue is not included, so
    /// the batch baseline does not support checkpoint/resume (recoverable
    /// runs are restricted to task processing).
    fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>) {
        (
            self.queue.lock().records().to_vec(),
            self.rejected.lock().iter().copied().collect(),
        )
    }
    fn restore_rejected(&self, ids: &[TxId]) {
        self.rejected.lock().extend(ids.iter().copied());
    }
    fn finish(&self) -> (Vec<TxRecord>, HashSet<TxId>) {
        let mut queue = std::mem::take(&mut *self.queue.lock());
        queue.timeout_pending();
        (
            queue.into_records(),
            std::mem::take(&mut self.rejected.lock()),
        )
    }
}
