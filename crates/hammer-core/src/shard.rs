//! The sharded in-flight tracker: Algorithm 1's vector list, hash index,
//! and Bloom filter ([`TxTable`]), partitioned across N independently
//! locked shards so the driver's submit, monitor, and match threads
//! contend only per shard instead of on one global tracker lock.
//!
//! * **Fingerprint → shard mapping.** A transaction lands in shard
//!   `(fingerprint × φ64) >> 33 & (N−1)` — a multiply-shift over the
//!   64-bit id fingerprint. The mapping deliberately consumes *different*
//!   bits than [`TxTable`]'s home-slot computation (`fingerprint &
//!   (slot_count − 1)`, the low bits): deriving both from the same bits
//!   would leave each shard's slot array systematically underpopulated.
//! * **Batched block fan-out.** [`ShardedTxTable::complete_block_with`]
//!   groups a sealed block's transaction ids by shard first and then takes
//!   each shard's lock exactly once per block — not once per transaction —
//!   so a 10k-transaction block costs N lock acquisitions, and blocks
//!   touching disjoint shards match fully in parallel. Completed records
//!   are shown to a visitor in place, not copied out.
//! * **Per-shard rejection state.** Each shard also owns its slice of the
//!   rejected-id set, so a terminal rejection updates the record *and*
//!   the set under one shard lock (the old driver took two global locks).
//! * **Aggregate view.** [`ShardedTxTable::snapshot`] locks every shard
//!   at once and concatenates, so checkpointing, the invariant oracle,
//!   and the final report see the same single-table view a one-lock
//!   tracker would produce; [`ShardedTxTable::stats`] sums per-shard
//!   [`IndexStats`].
//!
//! With `shards = 1` this *is* the single-lock tracker, which is what the
//! `driver_ceiling` bench uses as its baseline arm.

use std::collections::HashSet;
use std::time::Duration;

use hammer_chain::types::{SignedTransaction, TxId, TxStatus};
use parking_lot::{Mutex, MutexGuard};

use crate::index::{IndexStats, TxRecord, TxTable, Visit};

/// One shard: a vector-list segment with its own hash index and Bloom
/// filter, plus this shard's slice of the rejected-id set.
#[derive(Debug)]
struct Shard {
    table: TxTable,
    rejected: HashSet<TxId>,
}

/// The sharded tracker. All methods take `&self`; locking is internal and
/// per shard. See the module docs for the layout.
#[derive(Debug)]
pub struct ShardedTxTable {
    shards: Box<[Mutex<Shard>]>,
    /// `shards.len() - 1`; the length is always a power of two.
    mask: usize,
}

impl ShardedTxTable {
    /// Creates a tracker with `shards` shards (rounded up to the next
    /// power of two, floored at 1 and capped at 4096) sized for an
    /// expected total of `expected` in-flight transactions.
    pub fn new(shards: usize, expected: usize) -> Self {
        let shards = shards.clamp(1, 4096).next_power_of_two();
        let per_shard = (expected / shards).max(16);
        let shards: Vec<Mutex<Shard>> = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    table: TxTable::with_capacity(per_shard),
                    rejected: HashSet::new(),
                })
            })
            .collect();
        ShardedTxTable {
            mask: shards.len() - 1,
            shards: shards.into_boxed_slice(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a transaction id maps to.
    #[inline]
    pub fn shard_of(&self, tx_id: &TxId) -> usize {
        // Multiply-shift over the fingerprint: bits 33.. of fp·φ64 are
        // well mixed and independent of the low bits the per-shard home
        // slot consumes (fingerprint & (slot_count - 1)).
        ((tx_id.fingerprint().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize) & self.mask
    }

    #[inline]
    fn shard(&self, tx_id: &TxId) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_of(tx_id)].lock()
    }

    /// Records a submitted transaction (Algorithm 1, lines 4–8) in its
    /// shard.
    pub fn insert(&self, tx_id: TxId, client_id: u32, server_id: u32, start: Duration) {
        self.shard(&tx_id)
            .table
            .insert(tx_id, client_id, server_id, start);
    }

    /// Records a chunk of submissions that share `start`, locking each
    /// touched shard once per 128 of them. The submit path's grouping is
    /// sorted on the stack: it allocates nothing.
    pub fn insert_chunk(&self, chunk: &[SignedTransaction], start: Duration) {
        const WINDOW: usize = 128;
        for window in chunk.chunks(WINDOW) {
            // (shard, index): sorted, each shard's entries in chunk order.
            let mut order = [(0u32, 0u8); WINDOW];
            let order = &mut order[..window.len()];
            for (i, (slot, signed)) in (0u8..).zip(order.iter_mut().zip(window)) {
                *slot = (self.shard_of(&signed.id) as u32, i);
            }
            order.sort_unstable();
            for run in order.chunk_by(|a, b| a.0 == b.0) {
                let mut shard = self.shards[run[0].0 as usize].lock();
                for &(_, i) in run {
                    let signed = &window[usize::from(i)];
                    let tx = &signed.tx;
                    shard
                        .table
                        .insert(signed.id, tx.client_id, tx.server_id, start);
                }
            }
        }
    }

    /// Completes a single transaction, returning the finished record when
    /// it was pending here.
    pub fn complete(&self, tx_id: &TxId, end: Duration, success: bool) -> Option<TxRecord> {
        self.shard(tx_id)
            .table
            .complete_record(tx_id, end, success)
            .cloned()
    }

    /// Matches a whole sealed block, read straight from its two columns
    /// (`valid[i]` belongs to `tx_ids[i]`): groups the entries by shard,
    /// takes each touched shard's lock exactly once, and shows `visit` every
    /// record that completed (transitioned out of `Pending`) where it lies,
    /// under its shard's lock — `visit` must not call back into the tracker.
    pub fn complete_block_with(
        &self,
        tx_ids: &[TxId],
        valid: &[bool],
        end: Duration,
        visit: &mut Visit<'_>,
    ) {
        assert_eq!(tx_ids.len(), valid.len(), "a block's two columns align");
        self.match_grouped(tx_ids.len(), |i| (&tx_ids[i], valid[i]), end, visit);
    }

    /// [`ShardedTxTable::complete_block_with`] over `(id, valid)` pairs,
    /// appending a copy of every record that completed to `out`.
    pub fn complete_block(&self, entries: &[(TxId, bool)], end: Duration, out: &mut Vec<TxRecord>) {
        self.match_grouped(
            entries.len(),
            |i| (&entries[i].0, entries[i].1),
            end,
            &mut |record| out.push(record.clone()),
        );
    }

    /// The one block-matching loop, over `len` entries read by `entry`:
    /// one pass buckets the entry indices by shard, then each touched
    /// shard is locked once and its entries completed in block order.
    fn match_grouped<'e>(
        &self,
        len: usize,
        entry: impl Fn(usize) -> (&'e TxId, bool),
        end: Duration,
        visit: &mut Visit<'_>,
    ) {
        let len = u32::try_from(len).expect("a block holds fewer than 2^32 transactions");
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for i in 0..len {
            buckets[self.shard_of(entry(i as usize).0)].push(i);
        }
        for (shard, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = self.shards[shard].lock();
            for &i in bucket {
                let (tx_id, ok) = entry(i as usize);
                if let Some(record) = shard.table.complete_record(tx_id, end, ok) {
                    visit(record);
                }
            }
        }
    }

    /// Marks a still-pending transaction abandoned by the submission path
    /// (`Dropped` / `Expired`). Returns `true` when it was pending here.
    pub fn abandon(&self, tx_id: &TxId, end: Duration, status: TxStatus) -> bool {
        self.shard(tx_id).table.abandon(tx_id, end, status)
    }

    /// Terminal rejection: completes the record as failed *and* adds the
    /// id to this shard's rejected set, atomically under one shard lock.
    pub fn reject(&self, tx_id: &TxId, end: Duration) {
        let mut shard = self.shard(tx_id);
        let _ = shard.table.complete_record(tx_id, end, false);
        shard.rejected.insert(*tx_id);
    }

    /// Replays a checkpointed rejected-id set into the per-shard state
    /// (resume path). Ids are routed to their shards; records are not
    /// touched.
    pub fn restore_rejected(&self, ids: &[TxId]) {
        for id in ids {
            self.shard(id).rejected.insert(*id);
        }
    }

    /// Still-pending records, summed across shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.pending()).sum()
    }

    /// Total records across shards, completed included.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.len()).sum()
    }

    /// Whether no transaction was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate index statistics: the per-shard [`IndexStats`] summed
    /// into the single-table view the report expects.
    pub fn stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for shard in self.shards.iter() {
            total.merge(&shard.lock().table.stats());
        }
        total
    }

    /// A consistent point-in-time copy of every record (pending included,
    /// concatenated in shard order) plus the rejected-id set. All shard
    /// locks are held simultaneously while copying, so the view is
    /// exactly what a single-lock tracker would have snapshotted.
    pub fn snapshot(&self) -> (Vec<TxRecord>, Vec<TxId>) {
        let guards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(|s| s.lock()).collect();
        let mut records = Vec::with_capacity(guards.iter().map(|g| g.table.len()).sum());
        let mut rejected = Vec::new();
        for guard in &guards {
            records.extend_from_slice(guard.table.records());
            rejected.extend(guard.rejected.iter().copied());
        }
        (records, rejected)
    }

    /// Drains the tracker at end of run: every record (in shard order)
    /// and the combined rejected-id set. The tracker is left empty. The
    /// first shard's vector list is handed over as it is and the others
    /// are appended to it after one exact reservation: nothing is cloned.
    pub fn drain(&self) -> (Vec<TxRecord>, HashSet<TxId>) {
        let mut rejected = HashSet::new();
        let mut lists = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let mut guard = shard.lock();
            let table = std::mem::replace(&mut guard.table, TxTable::with_capacity(16));
            lists.push(table.into_records());
            rejected.extend(std::mem::take(&mut guard.rejected));
        }
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut lists = lists.into_iter();
        let mut records = lists.next().expect("at least one shard");
        records.reserve_exact(total - records.len());
        lists.for_each(|mut list| records.append(&mut list));
        (records, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;
    use hammer_net::thread;
    use proptest::prelude::*;

    fn tx_id(n: u64) -> TxId {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce: n,
            op: Op::KvGet { key: n },
            chain_name: "t".to_owned(),
            contract_name: "k".to_owned(),
        }
        .id()
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedTxTable::new(0, 100).shard_count(), 1);
        assert_eq!(ShardedTxTable::new(1, 100).shard_count(), 1);
        assert_eq!(ShardedTxTable::new(3, 100).shard_count(), 4);
        assert_eq!(ShardedTxTable::new(8, 100).shard_count(), 8);
        assert_eq!(ShardedTxTable::new(5000, 100).shard_count(), 4096);
    }

    #[test]
    fn ids_spread_across_shards() {
        let table = ShardedTxTable::new(8, 1024);
        let mut per_shard = vec![0usize; table.shard_count()];
        for i in 0..8_000 {
            per_shard[table.shard_of(&tx_id(i))] += 1;
        }
        for (shard, n) in per_shard.iter().enumerate() {
            // 1000 expected per shard; a grossly skewed mapping would
            // put the whole load back on one lock.
            assert!(
                (500..1500).contains(n),
                "shard {shard} holds {n} of 8000: {per_shard:?}"
            );
        }
    }

    #[test]
    fn insert_complete_reject_roundtrip() {
        let table = ShardedTxTable::new(4, 64);
        for i in 0..100 {
            table.insert(tx_id(i), i as u32, 0, Duration::ZERO);
        }
        assert_eq!(table.pending(), 100);
        assert_eq!(table.len(), 100);

        let record = table
            .complete(&tx_id(7), Duration::from_secs(1), true)
            .expect("pending");
        assert_eq!(record.status, TxStatus::Committed);
        assert_eq!(record.client_id, 7);
        assert!(table
            .complete(&tx_id(7), Duration::from_secs(2), true)
            .is_none());

        table.reject(&tx_id(8), Duration::from_millis(5));
        assert!(table.abandon(&tx_id(9), Duration::from_secs(1), TxStatus::Dropped));
        assert_eq!(table.pending(), 97);

        let (records, rejected) = table.snapshot();
        assert_eq!(records.len(), 100);
        assert_eq!(rejected, vec![tx_id(8)]);
        let failed = records
            .iter()
            .filter(|r| r.status == TxStatus::Failed)
            .count();
        assert_eq!(failed, 1);
    }

    #[test]
    fn complete_block_matches_exactly_once_per_entry() {
        let table = ShardedTxTable::new(8, 1024);
        for i in 0..5_000 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        // A block mixing known ids (every other one failed), duplicates,
        // and foreign ids.
        let mut entries: Vec<(TxId, bool)> = (0..1_000).map(|i| (tx_id(i), i % 2 == 0)).collect();
        entries.push((tx_id(0), true)); // duplicate sighting
        entries.extend((100_000..100_050).map(|i| (tx_id(i), true))); // foreign
        let mut matched = Vec::new();
        table.complete_block(&entries, Duration::from_secs(3), &mut matched);
        assert_eq!(matched.len(), 1_000);
        let committed = matched
            .iter()
            .filter(|r| r.status == TxStatus::Committed)
            .count();
        assert_eq!(committed, 500);
        assert_eq!(table.pending(), 4_000);
        // A second sighting of the same block matches nothing.
        matched.clear();
        table.complete_block(&entries, Duration::from_secs(4), &mut matched);
        assert!(matched.is_empty());
    }

    proptest! {
        /// The two entry points are one loop: over any block — pending ids,
        /// duplicate sightings, foreign ids, either outcome — the
        /// two-column `complete_block_with` shows its visitor exactly the
        /// records the pair-slice `complete_block` returns, in its order
        /// (shard by shard, block order within a shard), and leaves equal
        /// `IndexStats`; a second sighting of the whole block completes
        /// nothing.
        #[test]
        fn the_visitor_sees_what_complete_block_returns_in_its_order(
            block in proptest::collection::vec(((0u64..400), any::<bool>()), 0..300),
            inserted in 0u64..300,
            shards in 1usize..16,
        ) {
            let copied = ShardedTxTable::new(shards, 64);
            let visited = ShardedTxTable::new(shards, 64);
            for i in 0..inserted {
                copied.insert(tx_id(i), i as u32, 0, Duration::ZERO);
                visited.insert(tx_id(i), i as u32, 0, Duration::ZERO);
            }
            let entries: Vec<(TxId, bool)> = block.iter().map(|&(n, ok)| (tx_id(n), ok)).collect();
            let (tx_ids, valid): (Vec<TxId>, Vec<bool>) = entries.iter().copied().unzip();
            // A pending id completes at its first sighting only.
            let mut sighted = HashSet::new();
            let mut expect: Vec<TxId> = block
                .iter()
                .filter(|&&(n, _)| n < inserted && sighted.insert(n))
                .map(|&(n, _)| tx_id(n))
                .collect();
            expect.sort_by_key(|id| copied.shard_of(id));
            for (end, expect) in [(1, expect), (2, Vec::new())] {
                let end = Duration::from_secs(end);
                let mut out = Vec::new();
                copied.complete_block(&entries, end, &mut out);
                let mut seen = Vec::new();
                visited.complete_block_with(&tx_ids, &valid, end, &mut |r| seen.push(r.clone()));
                prop_assert_eq!(&seen, &out);
                prop_assert_eq!(seen.iter().map(|r| r.tx_id).collect::<Vec<_>>(), expect);
                prop_assert!(seen.iter().all(|r| r.end == Some(end)));
                prop_assert_eq!(copied.stats(), visited.stats());
            }
        }
    }

    #[test]
    fn drain_empties_and_returns_everything() {
        let table = ShardedTxTable::new(4, 64);
        for i in 0..50 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        table.reject(&tx_id(3), Duration::ZERO);
        let (records, rejected) = table.drain();
        assert_eq!(records.len(), 50);
        assert_eq!(rejected.len(), 1);
        assert!(rejected.contains(&tx_id(3)));
        assert_eq!(table.len(), 0);
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn drain_hands_over_every_record_once_in_snapshot_order() {
        // Few enough records that some of eight shards stay empty, and none
        // at all.
        for shards in [1, 2, 8] {
            for n in [0, 3, 200] {
                let table = ShardedTxTable::new(shards, 64);
                for i in 0..n {
                    table.insert(tx_id(i), i as u32, 0, Duration::from_millis(i));
                    if i % 3 == 0 {
                        table.complete(&tx_id(i), Duration::from_secs(1), true);
                    }
                }
                let (snapshot, _) = table.snapshot();
                let (records, _) = table.drain();
                assert_eq!(records, snapshot, "{shards} shards, {n} records");
                let ids: HashSet<TxId> = records.iter().map(|r| r.tx_id).collect();
                assert_eq!(ids, (0..n).map(tx_id).collect::<HashSet<_>>());
                assert_eq!((table.len(), table.pending()), (0, 0));
                assert!(table.drain().0.is_empty(), "nothing is handed over twice");
            }
        }
    }

    #[test]
    fn a_chunk_is_recorded_as_its_inserts_one_by_one() {
        use hammer_crypto::sig::SigParams;
        use hammer_crypto::Keypair;
        // Over two and a half windows of 128, so the grouping restarts.
        let chunk: Vec<SignedTransaction> = (0..300u64)
            .map(|n| {
                Transaction {
                    client_id: (n % 7) as u32,
                    server_id: (n % 3) as u32,
                    nonce: n,
                    op: Op::KvGet { key: n },
                    chain_name: "t".to_owned(),
                    contract_name: "k".to_owned(),
                }
                .sign(&Keypair::from_seed(1), &SigParams::fast())
            })
            .collect();
        let start = Duration::from_millis(9);
        for shards in [1, 2, 8] {
            let chunked = ShardedTxTable::new(shards, chunk.len());
            chunked.insert_chunk(&chunk, start);
            let single = ShardedTxTable::new(shards, chunk.len());
            for signed in &chunk {
                single.insert(signed.id, signed.tx.client_id, signed.tx.server_id, start);
            }
            // The same records in the same shards, each in chunk order.
            assert_eq!(chunked.snapshot(), single.snapshot(), "{shards} shards");
        }
    }

    #[test]
    fn concurrent_submit_and_match_account_for_everything() {
        // 4 submit threads × 4 match threads against 8 shards; every
        // inserted id is completed exactly once and the totals add up.
        let table = std::sync::Arc::new(ShardedTxTable::new(8, 40_000));
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let table = std::sync::Arc::clone(&table);
                let submit = move || {
                    for i in 0..per_thread {
                        let id = tx_id(t * per_thread + i);
                        table.insert(id, t as u32, 0, Duration::ZERO);
                        if i % 1000 == 999 {
                            table.reject(&id, Duration::from_millis(1));
                        }
                    }
                };
                thread::spawn_scoped(scope, "shard-test-submit", submit).unwrap();
            }
        });
        let inserted = 4 * per_thread as usize;
        assert_eq!(table.len(), inserted);
        let matched: usize = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let table = std::sync::Arc::clone(&table);
                let matcher = move || {
                    let mut out = Vec::new();
                    let entries: Vec<(TxId, bool)> = (0..per_thread)
                        .map(|i| (tx_id(t * per_thread + i), true))
                        .collect();
                    for chunk in entries.chunks(500) {
                        table.complete_block(chunk, Duration::from_secs(1), &mut out);
                    }
                    out.len()
                };
                handles.push(thread::spawn_scoped(scope, "shard-test-match", matcher).unwrap());
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let (records, rejected) = table.drain();
        assert_eq!(records.len(), inserted);
        assert_eq!(rejected.len(), 4 * 10); // every 1000th per thread
        assert_eq!(matched, inserted - rejected.len());
        assert_eq!(
            records
                .iter()
                .filter(|r| r.status == TxStatus::Pending)
                .count(),
            0
        );
    }

    /// A deterministic single-table reference: the same op sequence
    /// applied to one `TxTable` + one rejected set.
    #[derive(Clone, Debug)]
    enum TrackOp {
        Insert(u64),
        Complete(u64, bool),
        Abandon(u64),
        Reject(u64),
    }

    fn op_strategy() -> impl Strategy<Value = TrackOp> {
        prop_oneof![
            (0u64..200).prop_map(TrackOp::Insert),
            ((0u64..200), any::<bool>()).prop_map(|(n, ok)| TrackOp::Complete(n, ok)),
            (0u64..200).prop_map(TrackOp::Abandon),
            (0u64..200).prop_map(TrackOp::Reject),
        ]
    }

    proptest! {
        /// For any interleaving of tracker operations, the sharded
        /// tracker and a single-lock tracker expose identical record
        /// sets, pending counts, and rejected sets. (Layout-dependent
        /// stats — probe steps, expansions, Bloom counters — are *not*
        /// compared: partitioning legitimately changes them; the
        /// aggregate is exercised via `stats()` summing per-shard.)
        #[test]
        fn prop_sharded_matches_single_lock(
            ops in proptest::collection::vec(op_strategy(), 1..250),
            shards in 1usize..16,
        ) {
            let sharded = ShardedTxTable::new(shards, 64);
            let single = ShardedTxTable::new(1, 64);
            let mut inserted: HashSet<u64> = HashSet::new();
            for op in &ops {
                match *op {
                    TrackOp::Insert(n) => {
                        // Double-inserting the same id is not a driver
                        // behaviour; skip (ids are unique per run).
                        if inserted.insert(n) {
                            sharded.insert(tx_id(n), n as u32, 0, Duration::ZERO);
                            single.insert(tx_id(n), n as u32, 0, Duration::ZERO);
                        }
                    }
                    TrackOp::Complete(n, ok) => {
                        let a = sharded.complete(&tx_id(n), Duration::from_secs(1), ok);
                        let b = single.complete(&tx_id(n), Duration::from_secs(1), ok);
                        prop_assert_eq!(a, b);
                    }
                    TrackOp::Abandon(n) => {
                        let a = sharded.abandon(&tx_id(n), Duration::from_secs(1), TxStatus::Dropped);
                        let b = single.abandon(&tx_id(n), Duration::from_secs(1), TxStatus::Dropped);
                        prop_assert_eq!(a, b);
                    }
                    TrackOp::Reject(n) => {
                        sharded.reject(&tx_id(n), Duration::from_secs(1));
                        single.reject(&tx_id(n), Duration::from_secs(1));
                    }
                }
            }
            prop_assert_eq!(sharded.pending(), single.pending());
            prop_assert_eq!(sharded.len(), single.len());
            let (mut rec_a, mut rej_a) = sharded.snapshot();
            let (mut rec_b, mut rej_b) = single.snapshot();
            rec_a.sort_by_key(|r| r.tx_id);
            rec_b.sort_by_key(|r| r.tx_id);
            prop_assert_eq!(rec_a, rec_b);
            rej_a.sort();
            rej_b.sort();
            prop_assert_eq!(rej_a, rej_b);
            // The aggregate stats view stays a plain sum of shards.
            let total = sharded.stats();
            prop_assert!(total.probe_steps < u64::MAX);
        }
    }
}
