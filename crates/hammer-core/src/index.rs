//! The vector list + dynamic hash index of Algorithm 1.
//!
//! The paper replaces Blockbench's unconfirmed-transaction *queue* with a
//! **vector list** (append-only `Vec` of transaction records — "due to the
//! high overhead associated with enqueue and dequeue operations in
//! queues") plus a **dynamically created hash index** from transaction id
//! to vector position. A Bloom filter sits in front of the index to
//! exclude foreign transactions cheaply. On hash-table pressure the table
//! *expands its length* to keep collisions rare, so both insert and match
//! stay O(1). The slot count is a power of two — home slot and probe step
//! are a mask of the fingerprint's low bits — and a slot carries the high 32
//! bits as a tag, so a probe reads a record only where the tag matches.
//!
//! The paper's stated limitation — the table only ever grows, inflating
//! storage on long runs — is addressed by [`TxTable::compact`]
//! (future-work feature; see DESIGN.md §7 and the `taskproc_compaction`
//! ablation bench).

use std::time::Duration;

use hammer_chain::types::{TxId, TxStatus};

use crate::bloom::BloomFilter;

/// One entry of the vector list (Algorithm 1's `transaction_info`
/// structure: start/end time, ids, names, status).
#[derive(Clone, Debug, PartialEq)]
pub struct TxRecord {
    /// The transaction id.
    pub tx_id: TxId,
    /// Generating client (`c_id`).
    pub client_id: u32,
    /// Submitting server (`s_id`).
    pub server_id: u32,
    /// Submission time (`S_t`).
    pub start: Duration,
    /// Commit time (`E_t`), set on match.
    pub end: Option<Duration>,
    /// Lifecycle status.
    pub status: TxStatus,
}

/// What a block match shows every record it completed, in place.
pub(crate) type Visit<'a> = dyn FnMut(&TxRecord) + 'a;

/// Counters describing index behaviour (for the Fig. 9 analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total probe steps beyond the home slot (collision walking).
    pub probe_steps: u64,
    /// Times the hash table expanded.
    pub expansions: u64,
    /// Lookups short-circuited by the Bloom filter.
    pub bloom_rejections: u64,
    /// Lookups that passed the Bloom filter but found no record: Bloom
    /// false positives and ids compacted away. An already-completed
    /// duplicate resolves through the index, so it is not a miss.
    pub misses: u64,
    /// Times the Bloom filter was rebuilt: rotations forced by
    /// saturation (insertions past the design capacity would silently
    /// degrade the false-positive rate) plus compactions.
    pub bloom_rebuilds: u64,
}

impl IndexStats {
    /// Accumulates another table's counters into this one — how a
    /// sharded tracker presents a single-table view of its shards.
    pub(crate) fn merge(&mut self, other: &IndexStats) {
        self.probe_steps += other.probe_steps;
        self.expansions += other.expansions;
        self.bloom_rejections += other.bloom_rejections;
        self.misses += other.misses;
        self.bloom_rebuilds += other.bloom_rebuilds;
    }
}

const EMPTY: u64 = u64::MAX;

/// The tag half of a slot: the fingerprint's high 32 bits, kept in place.
const TAG: u64 = !0 << 32;

/// Walks the probe chain from `fingerprint`'s home slot to the first free
/// slot and puts record `idx` there; returns the steps walked.
#[inline]
fn place(slots: &mut [u64], fingerprint: u64, idx: usize) -> u64 {
    let mask = slots.len() - 1;
    let mut slot = fingerprint as usize & mask;
    let mut steps = 0;
    while slots[slot] != EMPTY {
        steps += 1;
        slot = (slot + 1) & mask;
    }
    slots[slot] = fingerprint & TAG | idx as u64;
    steps
}

/// What a table expecting `expected` records is built for: an eighth of
/// headroom. Ids hashed over N shards always leave one shard above
/// `total / N`; a vector list and a filter sized for exactly that would
/// copy the one and rotate the other at the end of every run. The eighth
/// bounds the overshoot a shard has before either happens.
fn with_headroom(expected: usize) -> usize {
    expected + expected / 8
}

/// The filter for a table built for `capacity` records.
fn bloom_for(capacity: usize) -> BloomFilter {
    BloomFilter::new(capacity.max(1024), 0.01)
}

/// The vector list with its dynamic hash index and Bloom filter.
#[derive(Clone, Debug)]
pub struct TxTable {
    records: Vec<TxRecord>,
    /// Open-addressing slots: the fingerprint's tag over a `u32` index into
    /// `records` (EMPTY = free; no index is `u32::MAX`, so no entry is it).
    slots: Vec<u64>,
    bloom: BloomFilter,
    /// Consult the Bloom filter before the hash index (Algorithm 1's
    /// default; disable only for the ablation bench).
    use_bloom: bool,
    stats: IndexStats,
    live: usize,
}

impl TxTable {
    /// Creates a table sized for an expected number of in-flight
    /// transactions (it grows beyond this transparently).
    pub fn with_capacity(expected: usize) -> Self {
        Self::with_capacity_and_bloom(expected, true)
    }

    /// Like [`TxTable::with_capacity`], optionally without the Bloom
    /// filter front (the ablation in DESIGN.md §7).
    pub fn with_capacity_and_bloom(expected: usize, use_bloom: bool) -> Self {
        let expected = expected.max(16);
        let slot_count = (expected * 2).next_power_of_two();
        let capacity = with_headroom(expected);
        TxTable {
            records: Vec::with_capacity(capacity),
            slots: vec![EMPTY; slot_count],
            bloom: bloom_for(capacity),
            use_bloom,
            stats: IndexStats::default(),
            live: 0,
        }
    }

    /// Number of records in the vector list (including completed ones).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the vector list is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of still-pending records.
    pub(crate) fn pending(&self) -> usize {
        self.live
    }

    /// Index behaviour counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Current slot-array length (storage diagnostics).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Algorithm 1, lines 4–8: records a sent transaction and indexes it.
    ///
    /// # Panics
    ///
    /// Panics at `u32::MAX` records (340 GB): a slot's index half never wraps.
    pub fn insert(&mut self, tx_id: TxId, client_id: u32, server_id: u32, start: Duration) {
        // Expand before the load factor hurts ("we attempt to minimize the
        // occurrence of hash collisions by expanding the length of the
        // hash table").
        if (self.records.len() + 1) * 10 > self.slots.len() * 7 {
            self.reindex((self.slots.len() * 2).max(32));
            self.stats.expansions += 1;
        }
        // Rotate a saturated Bloom filter: past its design capacity the
        // false-positive rate degrades silently, so rebuild it over the
        // current records with doubled headroom. A table that stays within
        // an eighth of its expectation never gets here.
        if self.bloom.len() >= self.bloom.capacity() {
            self.rebuild_bloom(BloomFilter::new(self.records.len().max(512) * 2, 0.01));
        }
        let idx = self.records.len();
        assert!(idx < u32::MAX as usize, "a slot's index half is 32 bits");
        self.records.push(TxRecord {
            tx_id,
            client_id,
            server_id,
            start,
            end: None,
            status: TxStatus::Pending,
        });
        self.live += 1;
        let fingerprint = tx_id.fingerprint();
        self.bloom.insert(fingerprint);
        self.stats.probe_steps += place(&mut self.slots, fingerprint, idx);
    }

    /// Rebuilds the index over the current records in `slot_count` slots
    /// (a power of two).
    fn reindex(&mut self, slot_count: usize) {
        self.slots = vec![EMPTY; slot_count];
        for (idx, record) in self.records.iter().enumerate() {
            place(&mut self.slots, record.tx_id.fingerprint(), idx);
        }
    }

    /// Refills `bloom` from every current record (completed ones included
    /// — duplicate block sightings must still pass the filter and resolve
    /// through the index) and installs it, so the false-positive rate
    /// returns to the design point.
    fn rebuild_bloom(&mut self, mut bloom: BloomFilter) {
        for record in &self.records {
            bloom.insert(record.tx_id.fingerprint());
        }
        self.bloom = bloom;
        self.stats.bloom_rebuilds += 1;
    }

    /// Walks `tx_id`'s probe chain from its home slot without writing
    /// (Algorithm 1 lines 14–19 after the filter): the record's index when
    /// the id is indexed, and the steps walked past the home slot either way.
    fn probe(&self, tx_id: &TxId) -> (Option<usize>, u64) {
        let fingerprint = tx_id.fingerprint();
        let mask = self.slots.len() - 1;
        let mut slot = fingerprint as usize & mask;
        let mut steps = 0;
        // A full walk of a table without a free slot ends as a miss too.
        for _ in 0..self.slots.len() {
            let entry = self.slots[slot];
            if entry == EMPTY {
                break;
            }
            let idx = entry as u32 as usize;
            if entry & TAG == fingerprint & TAG && self.records[idx].tx_id == *tx_id {
                return (Some(idx), steps);
            }
            steps += 1;
            slot = (slot + 1) & mask;
        }
        (None, steps)
    }

    /// Looks up a record index by id for a settle: the Bloom filter first,
    /// then the probe walk, each counted in [`IndexStats`].
    fn find(&mut self, tx_id: &TxId) -> Option<usize> {
        if self.use_bloom && !self.bloom.contains(tx_id.fingerprint()) {
            self.stats.bloom_rejections += 1;
            return None;
        }
        let (idx, steps) = self.probe(tx_id);
        self.stats.probe_steps += steps;
        self.stats.misses += u64::from(idx.is_none());
        idx
    }

    /// Reads, and writes nothing, the lines an `insert` or a settle of
    /// `tx_id` reads first: its Bloom block, its home slot and, where the
    /// slot's tag is the id's, the record it points to. Touching a group of
    /// ids before working any of them lets their cache misses overlap;
    /// `hammer-core` has no `unsafe`, so there is no prefetch intrinsic
    /// (DESIGN.md §5, "Sharded in-flight tracker").
    pub(crate) fn touch(&self, tx_id: &TxId) {
        let fingerprint = tx_id.fingerprint();
        if self.use_bloom {
            self.bloom.touch(fingerprint);
        }
        // These loads are made only to bring their lines into cache:
        // `black_box` keeps each one though no result depends on it.
        let entry = self.slots[fingerprint as usize & (self.slots.len() - 1)];
        std::hint::black_box(entry);
        if entry != EMPTY && entry & TAG == fingerprint & TAG {
            std::hint::black_box(self.records[entry as u32 as usize].tx_id.0[0]);
        }
    }

    /// Algorithm 1, lines 10–19: marks a transaction complete with the
    /// block time as its end time. Returns `true` when the transaction was
    /// pending in this table.
    pub fn complete(&mut self, tx_id: &TxId, end: Duration, success: bool) -> bool {
        self.complete_record(tx_id, end, success).is_some()
    }

    /// Like [`TxTable::complete`], but returns the finished record so the
    /// sharded tracker can hand it on without a second index lookup.
    /// `None` when the transaction was not pending here (foreign, unknown,
    /// or a duplicate sighting).
    pub(crate) fn complete_record(
        &mut self,
        tx_id: &TxId,
        end: Duration,
        success: bool,
    ) -> Option<&TxRecord> {
        let status = if success {
            TxStatus::Committed
        } else {
            TxStatus::Failed
        };
        self.settle(tx_id, end, status)
    }

    /// Moves a pending record to `status`; `None` when it is not pending
    /// here (foreign, unknown, or a duplicate block sighting).
    fn settle(&mut self, tx_id: &TxId, end: Duration, status: TxStatus) -> Option<&TxRecord> {
        let idx = self.find(tx_id)?;
        let record = &mut self.records[idx];
        if record.status != TxStatus::Pending {
            return None;
        }
        record.end = Some(end);
        record.status = status;
        self.live -= 1;
        Some(record)
    }

    /// Marks a still-pending transaction as abandoned by the submission
    /// path — `Dropped` (retry budget exhausted) or `Expired` (per-slice
    /// retry deadline passed) — without it ever reaching the chain.
    /// Returns `true` when the transaction was pending in this table.
    pub(crate) fn abandon(&mut self, tx_id: &TxId, end: Duration, status: TxStatus) -> bool {
        debug_assert!(
            matches!(status, TxStatus::Dropped | TxStatus::Expired),
            "abandon is for submission-side terminal statuses"
        );
        self.settle(tx_id, end, status).is_some()
    }

    /// All records (checkpoint snapshots).
    pub(crate) fn records(&self) -> &[TxRecord] {
        &self.records
    }

    /// Gives up the vector list (the hand-over to the report at end of run).
    pub(crate) fn into_records(self) -> Vec<TxRecord> {
        self.records
    }

    /// The future-work compaction: drops completed records and rebuilds
    /// the index over the survivors, bounding storage on long runs.
    /// Returns the number of dropped records.
    pub fn compact(&mut self) -> usize {
        let before = self.records.len();
        self.records.retain(|r| r.status == TxStatus::Pending);
        let dropped = before - self.records.len();
        if dropped == 0 {
            return 0;
        }
        // Rebuild slots and Bloom filter over the survivors.
        self.reindex((self.records.len().max(16) * 2).next_power_of_two());
        self.rebuild_bloom(bloom_for(with_headroom(self.records.len())));
        dropped
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl TxTable {
        /// Reads a record by id (diagnostics). A read moves no counter: it
        /// walks the index without the filter in front and counts nothing.
        fn get(&self, tx_id: &TxId) -> Option<&TxRecord> {
            self.probe(tx_id).0.map(|idx| &self.records[idx])
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
    fn insert_and_complete() {
        let mut table = TxTable::with_capacity(16);
        let id = tx_id(1);
        table.insert(id, 3, 1, Duration::from_millis(10));
        assert_eq!(table.pending(), 1);
        assert!(table.complete(&id, Duration::from_millis(50), true));
        assert_eq!(table.pending(), 0);
        let record = table.get(&id).unwrap();
        assert_eq!(record.status, TxStatus::Committed);
        assert_eq!(record.end, Some(Duration::from_millis(50)));
        assert_eq!(record.client_id, 3);
    }

    #[test]
    fn complete_unknown_returns_false() {
        let mut table = TxTable::with_capacity(16);
        table.insert(tx_id(1), 0, 0, Duration::ZERO);
        assert!(!table.complete(&tx_id(2), Duration::from_secs(1), true));
    }

    #[test]
    fn duplicate_completion_rejected() {
        let mut table = TxTable::with_capacity(16);
        let id = tx_id(1);
        table.insert(id, 0, 0, Duration::ZERO);
        assert!(table.complete(&id, Duration::from_secs(1), true));
        assert!(!table.complete(&id, Duration::from_secs(2), true));
        // End time keeps the first sighting.
        assert_eq!(table.get(&id).unwrap().end, Some(Duration::from_secs(1)));
    }

    #[test]
    fn failure_recorded() {
        let mut table = TxTable::with_capacity(16);
        let id = tx_id(1);
        table.insert(id, 0, 0, Duration::ZERO);
        table.complete(&id, Duration::from_secs(1), false);
        assert_eq!(table.get(&id).unwrap().status, TxStatus::Failed);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut table = TxTable::with_capacity(4);
        for i in 0..10_000 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        assert!(table.stats().expansions > 0);
        // Every one still findable after expansion.
        for i in 0..10_000 {
            assert!(
                table.complete(&tx_id(i), Duration::from_secs(1), true),
                "{i}"
            );
        }
    }

    #[test]
    fn bloom_rejects_foreign_txs() {
        let mut table = TxTable::with_capacity(1024);
        for i in 0..1000 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        let mut rejected = 0;
        for i in 10_000..11_000 {
            if !table.complete(&tx_id(i), Duration::from_secs(1), true) {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 1000);
        // Most were bloom-rejected without touching the index.
        assert!(table.stats().bloom_rejections > 900, "{:?}", table.stats());
    }

    #[test]
    fn a_table_takes_an_eighth_over_its_expectation_without_growing() {
        let n = 10_000;
        let mut table = TxTable::with_capacity(n);
        let capacity = table.records.capacity();
        for i in 0..(n + n / 8) as u64 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
            assert_eq!(table.records.capacity(), capacity, "insert {i}");
        }
        assert_eq!(table.stats().bloom_rebuilds, 0);
    }

    #[test]
    fn compact_drops_completed_and_keeps_pending_findable() {
        let mut table = TxTable::with_capacity(16);
        for i in 0..100 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        for i in 0..60 {
            table.complete(&tx_id(i), Duration::from_secs(1), true);
        }
        let dropped = table.compact();
        assert_eq!(dropped, 60);
        assert_eq!(table.len(), 40);
        // Pending survivors still findable and completable.
        for i in 60..100 {
            assert!(
                table.complete(&tx_id(i), Duration::from_secs(2), true),
                "{i}"
            );
        }
        // Completed ones are gone.
        assert!(table.get(&tx_id(0)).is_none());
    }

    #[test]
    fn compact_noop_when_all_pending() {
        let mut table = TxTable::with_capacity(16);
        for i in 0..10 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        assert_eq!(table.compact(), 0);
        assert_eq!(table.len(), 10);
    }

    #[test]
    fn saturated_bloom_rotates_and_recovers_fp_rate() {
        // Capacity 100 floors the Bloom at 1024; pushing well past that
        // must trigger at least one rotation instead of letting the
        // false-positive rate degrade silently.
        let mut table = TxTable::with_capacity(100);
        for i in 0..8_000 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        assert!(table.stats().bloom_rebuilds >= 1, "{:?}", table.stats());
        // Every insert is still findable through the rotated filter (no
        // false negatives across the rebuild)...
        for i in 0..8_000 {
            assert!(
                table.complete(&tx_id(i), Duration::from_secs(1), true),
                "{i}"
            );
        }
        // ...and foreign ids are still overwhelmingly rejected by it: a
        // saturated un-rotated filter would pass nearly everything.
        let stats_before = table.stats();
        for i in 100_000..101_000 {
            assert!(!table.complete(&tx_id(i), Duration::from_secs(1), true));
        }
        let rejected = table.stats().bloom_rejections - stats_before.bloom_rejections;
        assert!(rejected > 900, "only {rejected}/1000 foreign ids rejected");
    }

    #[test]
    fn stats_merge_sums_fields() {
        let a = IndexStats {
            probe_steps: 1,
            expansions: 2,
            bloom_rejections: 3,
            misses: 4,
            bloom_rebuilds: 5,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            IndexStats {
                probe_steps: 2,
                expansions: 4,
                bloom_rejections: 6,
                misses: 8,
                bloom_rebuilds: 10,
            }
        );
    }

    #[test]
    fn bloomless_table_still_correct() {
        let mut table = TxTable::with_capacity_and_bloom(64, false);
        for i in 0..500 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        for i in 0..500 {
            assert!(table.complete(&tx_id(i), Duration::from_secs(1), true));
        }
        // Foreign lookups miss via the probe chain, not the filter.
        assert!(!table.complete(&tx_id(9999), Duration::from_secs(1), true));
        assert_eq!(table.stats().bloom_rejections, 0);
        assert!(table.stats().misses >= 1);
    }

    #[test]
    fn probe_counters_match_the_divide_and_compare_index() {
        // Taken from the index as it was before slots carried a tag and
        // were masked: same home slot, same probe order, same counts.
        for (use_bloom, expect) in [(true, (24_037, 3, 0)), (false, (26_664, 3, 1_000))] {
            let mut table = TxTable::with_capacity_and_bloom(1024, use_bloom);
            for i in 0..10_000 {
                table.insert(tx_id(i), 0, 0, Duration::ZERO);
            }
            assert_eq!(table.stats().probe_steps, 16_326);
            for i in 0..10_000 {
                assert!(table.complete(&tx_id(i), Duration::from_secs(1), true));
            }
            // Foreign ids walk the chain only where no filter stops them.
            for i in (20_000..21_000).filter(|_| !use_bloom) {
                assert!(!table.complete(&tx_id(i), Duration::from_secs(1), true));
            }
            let stats = table.stats();
            assert_eq!((stats.probe_steps, stats.expansions, stats.misses), expect);
        }
    }

    /// 96 ids built to collide: low fingerprint bits that share a home slot
    /// in a small table and part in a larger one, under four tags (the
    /// all-ones tag included), and four ids per fingerprint that differ
    /// only from byte 8 on.
    pub(crate) fn colliding_id(k: usize) -> TxId {
        let low = [0u64, 1, 32, 64, 96, 5][k % 6];
        let high = [0u64, 1, 0x8000_0000, 0xffff_ffff][k / 6 % 4];
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&(high << 32 | low).to_be_bytes());
        bytes[8] = (k / 24) as u8;
        TxId(bytes)
    }

    #[derive(Clone, Debug)]
    enum TableOp {
        Insert(usize),
        Complete(usize, bool),
        Abandon(usize),
        Get(usize),
        Compact,
    }

    fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
        let op = prop_oneof![
            (0usize..96).prop_map(TableOp::Insert),
            (0usize..96).prop_map(TableOp::Insert),
            ((0usize..96), any::<bool>()).prop_map(|(k, ok)| TableOp::Complete(k, ok)),
            (0usize..96).prop_map(TableOp::Abandon),
            (0usize..96).prop_map(TableOp::Get),
            (0usize..8).prop_map(TableOp::Get),
            (0usize..4).prop_map(|n| if n == 0 {
                TableOp::Compact
            } else {
                TableOp::Insert(n)
            }),
        ];
        proptest::collection::vec(op, 0..200)
    }

    /// Applies `op` to the table and to a `HashMap` model of it, comparing
    /// every answer.
    fn apply(table: &mut TxTable, model: &mut HashMap<TxId, TxRecord>, op: &TableOp) {
        let end = Duration::from_secs(1);
        let pending = |r: &TxRecord| r.status == TxStatus::Pending;
        match *op {
            TableOp::Insert(k) => {
                let id = colliding_id(k);
                // Ids are unique per run: only an id the table does not
                // hold (never seen, or compacted away) is inserted.
                model.entry(id).or_insert_with(|| {
                    table.insert(id, k as u32, 0, Duration::from_millis(k as u64));
                    table.records().last().unwrap().clone()
                });
            }
            TableOp::Complete(k, ok) => {
                let id = colliding_id(k);
                let expect = model.get_mut(&id).filter(|r| pending(r)).map(|r| {
                    r.end = Some(end);
                    r.status = if ok {
                        TxStatus::Committed
                    } else {
                        TxStatus::Failed
                    };
                    r.clone()
                });
                assert_eq!(table.complete_record(&id, end, ok).cloned(), expect);
            }
            TableOp::Abandon(k) => {
                let id = colliding_id(k);
                let expect = model.get_mut(&id).filter(|r| pending(r)).map(|r| {
                    r.end = Some(end);
                    r.status = TxStatus::Dropped;
                });
                assert_eq!(table.abandon(&id, end, TxStatus::Dropped), expect.is_some());
            }
            TableOp::Get(k) => {
                let id = colliding_id(k);
                let stats = table.stats();
                assert_eq!(table.get(&id), model.get(&id));
                // A diagnostic read moves no counter.
                assert_eq!(table.stats(), stats);
            }
            TableOp::Compact => {
                let before = model.len();
                model.retain(|_, r| pending(r));
                assert_eq!(table.compact(), before - model.len());
            }
        }
        assert_eq!(table.len(), model.len());
        assert_eq!(
            table.pending(),
            model.values().filter(|r| pending(r)).count()
        );
    }

    proptest! {
        /// Any operation sequence over colliding ids answers as a map from
        /// id to record does, through at least two expansions.
        #[test]
        fn prop_table_matches_a_map_model(before in table_ops(), after in table_ops()) {
            let mut table = TxTable::with_capacity(8);
            let mut model = HashMap::new();
            // Whatever `before` left out is inserted in between, so the
            // table holds all 96 ids at once: 32 slots cannot.
            let fill: Vec<TableOp> = (0..96).map(TableOp::Insert).collect();
            for op in before.iter().chain(&fill) {
                apply(&mut table, &mut model, op);
            }
            prop_assert_eq!(table.len(), 96);
            prop_assert!(table.stats().expansions >= 2, "{:?}", table.stats());
            for op in after.iter().chain((0..96).map(TableOp::Get).collect::<Vec<_>>().iter()) {
                apply(&mut table, &mut model, op);
            }
            let mut records = table.records().to_vec();
            records.sort_by_key(|r| r.tx_id);
            let mut expect: Vec<TxRecord> = model.into_values().collect();
            expect.sort_by_key(|r| r.tx_id);
            prop_assert_eq!(records, expect);
        }

        /// Inserting any set of ids and completing a subset leaves exactly
        /// the complement pending.
        #[test]
        fn prop_insert_complete_consistency(
            n in 1usize..300,
            complete_mask in proptest::collection::vec(any::<bool>(), 300),
        ) {
            let mut table = TxTable::with_capacity(8);
            for i in 0..n {
                table.insert(tx_id(i as u64), 0, 0, Duration::ZERO);
            }
            let mut completed = 0;
            for (i, &done) in complete_mask.iter().enumerate().take(n) {
                if done {
                    prop_assert!(table.complete(&tx_id(i as u64), Duration::from_secs(1), true));
                    completed += 1;
                }
            }
            prop_assert_eq!(table.pending(), n - completed);
            for (i, &done) in complete_mask.iter().enumerate().take(n) {
                let status = table.get(&tx_id(i as u64)).unwrap().status;
                if done {
                    prop_assert_eq!(status, TxStatus::Committed);
                } else {
                    prop_assert_eq!(status, TxStatus::Pending);
                }
            }
        }
    }
}
