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
//! * **Two passes per group.** Under a shard's lock, a chunk's inserts and a
//!   block's matches are taken `GROUP` (16) at a time: first every entry's
//!   Bloom block, home slot and tag-matching record are read, then the
//!   unchanged per-entry insert or settle runs in the unchanged order. The
//!   reads of a group miss the cache side by side instead of one at a time.
//! * **Per-shard rejection state.** Each shard also owns its slice of the
//!   rejected-id set, so a terminal rejection updates the record *and*
//!   the set under one shard lock (the old driver took two global locks).
//! * **Aggregate view.** [`ShardedTxTable::snapshot`] locks every shard
//!   at once and concatenates, so checkpointing, the invariant oracle,
//!   and the final report see the same single-table view a one-lock
//!   tracker would produce; [`ShardedTxTable::stats`] sums per-shard
//!   [`IndexStats`].
//!
//! With `shards = 1` this *is* the single-lock tracker, and that is what
//! the driver runs unless a caller pins more: each chunk or block takes one
//! lock, and [`ShardedTxTable::drain`] hands the one vector list to the
//! report as it is. With N shards the drain appends shards 1.. into the
//! first one's list, which on `inproc_saturate` (2 cores, 2 shards) took
//! 35–65 ms and set the run's peak RSS in pages faulted for the copy; no
//! end-to-end reading has shown the per-shard locks paying for that. The
//! `driver_ceiling` bench uses one shard as its baseline arm.

use std::collections::HashSet;
use std::time::Duration;

use hammer_chain::types::{SignedTransaction, TxId, TxStatus};
use parking_lot::{Mutex, MutexGuard};

use crate::index::{IndexStats, TxRecord, TxTable, Visit};

/// How many of a shard's entries are touched ([`TxTable::touch`]) before
/// the first of them is inserted or settled: their Bloom blocks, slots and
/// records then miss the cache side by side instead of one at a time.
const GROUP: usize = 16;

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
    /// power of two, floored at 1 and capped at 4096) for a run of
    /// `expected` transactions: each shard's vector list and Bloom filter
    /// are sized for its share of them. Each shard's hash index holds only
    /// its records in flight, so the in-flight load sizes it, not
    /// `expected` ([`TxTable::with_capacity`]).
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

    /// The shard a transaction id maps to.
    #[inline]
    pub(crate) fn shard_of(&self, tx_id: &TxId) -> usize {
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
    /// touched shard once per 128 of them and touching each group of a
    /// shard's entries before inserting it. The submit path's grouping is
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
                let table = &mut self.shards[run[0].0 as usize].lock().table;
                for group in run.chunks(GROUP) {
                    for &(_, i) in group {
                        table.touch(&window[usize::from(i)].id);
                    }
                    for &(_, i) in group {
                        let signed = &window[usize::from(i)];
                        let tx = &signed.tx;
                        table.insert(signed.id, tx.client_id, tx.server_id, start);
                    }
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
    /// shard is locked once and its entries completed in block order, each
    /// group touched before it is settled.
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
            let table = &mut self.shards[shard].lock().table;
            for group in bucket.chunks(GROUP) {
                for &i in group {
                    table.touch(entry(i as usize).0);
                }
                for &i in group {
                    let (tx_id, ok) = entry(i as usize);
                    if let Some(record) = table.complete_record(tx_id, end, ok) {
                        visit(record);
                    }
                }
            }
        }
    }

    /// Marks a still-pending transaction abandoned by the submission path
    /// (`Dropped` / `Expired`). Returns `true` when it was pending here.
    pub(crate) fn abandon(&self, tx_id: &TxId, end: Duration, status: TxStatus) -> bool {
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
    pub(crate) fn restore_rejected(&self, ids: &[TxId]) {
        for id in ids {
            self.shard(id).rejected.insert(*id);
        }
    }

    /// Still-pending records, summed across shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.pending()).sum()
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
    /// are appended to it after one exact reservation: nothing is cloned,
    /// and with one shard nothing is moved either.
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
    use crate::bloom::splitmix64;
    use crate::index::tests::colliding_id;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;
    use hammer_net::thread;
    use proptest::prelude::*;

    impl ShardedTxTable {
        /// Total records across shards, completed included.
        fn len(&self) -> usize {
            self.shards.iter().map(|s| s.lock().table.len()).sum()
        }
    }

    impl ShardedTxTable {
        /// Number of shards (always a power of two).
        fn shard_count(&self) -> usize {
            self.shards.len()
        }
    }

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

    /// A cheap id for the grouped-vs-one-by-one sequences: four mixes of
    /// `n`, no SHA-256.
    fn mixed_id(n: u64) -> TxId {
        let mut bytes = [0u8; 32];
        let mut x = n;
        for word in bytes.chunks_mut(8) {
            x = splitmix64(x);
            word.copy_from_slice(&x.to_be_bytes());
        }
        TxId(bytes)
    }

    /// The ids chunks insert, in order: the first 72 fingerprint-colliding
    /// ids, so probe chains form inside groups, then mixed ones. Colliding
    /// ids 72..96 share a fingerprint with one of the first 24 and are
    /// never inserted: the Bloom filter passes them and the index misses.
    fn stream_id(p: u64) -> TxId {
        if p < 72 {
            colliding_id(p as usize)
        } else {
            mixed_id(p)
        }
    }

    /// Ids inserted one at a time before a sequence starts, and ids never
    /// inserted at all: two ranges of mixed ids apart from the stream's.
    const PREFILLED: u64 = 1 << 40;
    const FOREIGN: u64 = 2 << 40;

    /// What a block entry `sel` names, with `next` stream ids inserted
    /// after `prefill` one-at-a-time ones: an inserted id (pending or
    /// settled), a Bloom false positive, or a foreign id (rejected by the
    /// filter almost always).
    fn pick(sel: u64, next: u64, prefill: u64) -> TxId {
        let k = sel / 4;
        match sel % 4 {
            0 => stream_id(k % next),
            1 => mixed_id(PREFILLED | (k % prefill)),
            2 => colliding_id(72 + (k % 24) as usize),
            _ => mixed_id(FOREIGN | (k % 1_000)),
        }
    }

    /// How long a chunk or block is: one group's edges, a whole window,
    /// or anything up to one.
    fn run_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1),
            Just(GROUP - 1),
            Just(GROUP),
            Just(GROUP + 1),
            Just(128),
            2usize..128,
        ]
    }

    #[derive(Clone, Debug)]
    enum GroupedOp {
        /// The next `n` stream ids, as one chunk.
        Chunk(usize),
        /// A block of `(sel, valid)` entries, the one at `dup % len` sighted
        /// a second time at its end.
        Block(Vec<(u64, bool)>, usize),
        Reject(u64),
        Abandon(u64),
    }

    fn grouped_ops() -> impl Strategy<Value = Vec<GroupedOp>> {
        let block = (
            run_len(),
            proptest::collection::vec((any::<u64>(), any::<bool>()), 128),
            any::<usize>(),
        )
            .prop_map(|(len, mut entries, dup)| {
                entries.truncate(len);
                GroupedOp::Block(entries, dup)
            })
            .boxed();
        let op = prop_oneof![
            run_len().prop_map(GroupedOp::Chunk),
            block.clone(),
            block,
            any::<u64>().prop_map(GroupedOp::Reject),
            any::<u64>().prop_map(GroupedOp::Abandon),
        ];
        proptest::collection::vec(op, 1..24)
    }

    proptest! {
        /// A chunk inserted through `insert_chunk` and a block matched
        /// through `complete_block_with` leave what their entries inserted
        /// and completed one by one leave: the same records in the same
        /// order, pending count, rejected set and all five `IndexStats`
        /// counters, and the visitor sees the one-by-one completions shard
        /// by shard. The sequences take in colliding ids, Bloom false
        /// positives and rejections, a second sighting in one block, and a
        /// lead chunk that crosses an expansion (640 records) or a filter
        /// rotation (1 024) of a one-shard tracker part way into a group.
        #[test]
        fn grouped_paths_equal_one_by_one(
            shards in prop_oneof![Just(1usize), Just(1), Just(2), Just(4)],
            prefill in prop_oneof![615u64..640, 1_000u64..1_024],
            ops in grouped_ops(),
        ) {
            use hammer_crypto::sig::SigParams;
            use hammer_crypto::Keypair;
            let template = Transaction {
                client_id: 0,
                server_id: 0,
                nonce: 0,
                op: Op::KvGet { key: 0 },
                chain_name: "t".to_owned(),
                contract_name: "k".to_owned(),
            }
            .sign(&Keypair::from_seed(1), &SigParams::fast());
            let grouped = ShardedTxTable::new(shards, 64);
            let single = ShardedTxTable::new(shards, 64);
            for i in 0..prefill {
                for table in [&grouped, &single] {
                    table.insert(mixed_id(PREFILLED | i), 0, 1, Duration::ZERO);
                }
            }
            let before = single.stats();
            let mut next = 0u64;
            let lead = GroupedOp::Chunk(128);
            for (step, op) in std::iter::once(&lead).chain(&ops).enumerate() {
                let at = Duration::from_millis(step as u64 + 1);
                match op {
                    GroupedOp::Chunk(n) => {
                        let chunk: Vec<SignedTransaction> = (next..next + *n as u64)
                            .map(|p| {
                                let mut signed = template.clone();
                                signed.id = stream_id(p);
                                signed.tx.client_id = p as u32;
                                signed
                            })
                            .collect();
                        next += *n as u64;
                        grouped.insert_chunk(&chunk, at);
                        for signed in &chunk {
                            single.insert(signed.id, signed.tx.client_id, signed.tx.server_id, at);
                        }
                    }
                    GroupedOp::Block(entries, dup) => {
                        let mut block: Vec<(TxId, bool)> = entries
                            .iter()
                            .map(|&(sel, ok)| (pick(sel, next, prefill), ok))
                            .collect();
                        block.push(block[dup % block.len()]);
                        let (tx_ids, valid): (Vec<TxId>, Vec<bool>) = block.iter().copied().unzip();
                        let mut seen = Vec::new();
                        grouped.complete_block_with(&tx_ids, &valid, at, &mut |r| seen.push(r.clone()));
                        let mut expect: Vec<TxRecord> = block
                            .iter()
                            .filter_map(|(id, ok)| single.complete(id, at, *ok))
                            .collect();
                        expect.sort_by_key(|r| single.shard_of(&r.tx_id));
                        prop_assert_eq!(seen, expect);
                    }
                    GroupedOp::Reject(sel) => {
                        let id = pick(*sel, next, prefill);
                        grouped.reject(&id, at);
                        single.reject(&id, at);
                    }
                    GroupedOp::Abandon(sel) => {
                        let id = pick(*sel, next, prefill);
                        let a = grouped.abandon(&id, at, TxStatus::Expired);
                        prop_assert_eq!(a, single.abandon(&id, at, TxStatus::Expired));
                    }
                }
                if step == 0 && shards == 1 {
                    let after = single.stats();
                    prop_assert!(
                        after.expansions + after.bloom_rebuilds
                            > before.expansions + before.bloom_rebuilds,
                        "the lead chunk crosses no threshold: {before:?} -> {after:?}"
                    );
                }
            }
            prop_assert_eq!(grouped.pending(), single.pending());
            prop_assert_eq!(grouped.stats(), single.stats());
            let (records, mut rejected) = grouped.snapshot();
            let (expect, mut expect_rejected) = single.snapshot();
            prop_assert_eq!(records, expect);
            rejected.sort();
            expect_rejected.sort();
            prop_assert_eq!(rejected, expect_rejected);
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
    fn a_one_shard_drain_hands_over_the_allocation_its_shard_held() {
        let table = ShardedTxTable::new(1, 64);
        for i in 0..50 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        let held = table.shards[0].lock().table.records().as_ptr();
        let (records, _) = table.drain();
        assert_eq!(records.as_ptr(), held, "handed over, not copied");
        assert_eq!(records.len(), 50);
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
