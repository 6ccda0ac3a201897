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
//! are a mask of the fingerprint's low bits — and a slot carries those low
//! 32 bits as a tag, so a probe reads a record only where the tag matches.
//!
//! The paper's stated limitation — the table only ever grows, inflating
//! storage on long runs — does not apply here: the index holds only the
//! records in flight. A record that settles leaves it by backward-shift
//! deletion (no tombstones), and the index doubles on the in-flight load,
//! not on the records the run has made. The vector list keeps every record
//! for the report.

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
    /// Total probe steps beyond the home slot (collision walking), on
    /// insert and lookup.
    pub probe_steps: u64,
    /// Times the index doubled with more records in flight than the table
    /// was built for (its `expected` plus an eighth): an under-sized
    /// table. The doublings that take the index from its small start up
    /// to that load are not counted.
    pub expansions: u64,
    /// Lookups short-circuited by the Bloom filter.
    pub bloom_rejections: u64,
    /// Lookups that passed the Bloom filter but found no record in flight:
    /// Bloom false positives, and duplicate sightings of settled ids (which
    /// have left the index; a filter rotation drops them from the filter
    /// too, and they count as rejections from then on).
    pub misses: u64,
    /// Times the Bloom filter was rebuilt: rotations forced by saturation
    /// (insertions past the design capacity would silently degrade the
    /// false-positive rate).
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

/// A free slot. A full slot holds a record's index in the vector list over
/// its tag, and no index is `u32::MAX`, so no full slot is all ones.
const EMPTY: u64 = u64::MAX;

/// The index's length when its table is built, whatever the table expects:
/// it doubles as the records in flight pass 5/8 of it.
const START_SLOTS: usize = 32;

/// The record a full slot points to.
#[inline]
fn record_of(entry: u64) -> usize {
    (entry >> 32) as usize
}

/// Walks the probe chain from `entry`'s home slot to the first free slot
/// and puts `entry` there; returns the steps walked.
#[inline]
fn place(slots: &mut [u64], entry: u64) -> u64 {
    let mask = slots.len() - 1;
    let mut slot = entry as u32 as usize & mask;
    let mut steps = 0;
    while slots[slot] != EMPTY {
        steps += 1;
        slot = (slot + 1) & mask;
    }
    slots[slot] = entry;
    steps
}

/// Frees slot `hole` by backward-shift deletion: each later slot of its
/// cluster whose home slot does not lie after the hole (cyclically) moves
/// back into it, so every chain stays unbroken and no tombstone is left.
#[inline]
fn remove(slots: &mut [u64], mut hole: usize) {
    let mask = slots.len() - 1;
    let mut slot = (hole + 1) & mask;
    while slots[slot] != EMPTY {
        let entry = slots[slot];
        let home = entry as u32 as usize & mask;
        // The entry may move to the hole when the hole is on its chain: no
        // nearer to `slot` than its home slot is.
        if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
            slots[hole] = entry;
            hole = slot;
        }
        slot = (slot + 1) & mask;
    }
    slots[hole] = EMPTY;
}

/// What a table expecting `expected` records is built for: an eighth of
/// headroom. Ids hashed over N shards always leave one shard above
/// `total / N`; a vector list and a filter sized for exactly that would
/// copy the one and rotate the other at the end of every run. The eighth
/// bounds the overshoot a shard has before either happens.
fn with_headroom(expected: usize) -> usize {
    expected + expected / 8
}

/// The vector list with its dynamic hash index and Bloom filter.
#[derive(Clone, Debug)]
pub struct TxTable {
    records: Vec<TxRecord>,
    /// Open-addressing slots over the records in flight: a record's index
    /// over its tag, the fingerprint's low 32 bits, which the home slot is
    /// cut from, so a slot moves without reading its record (EMPTY = free).
    slots: Vec<u64>,
    bloom: BloomFilter,
    /// Consult the Bloom filter before the hash index (Algorithm 1's
    /// default; disable only for the ablation bench).
    use_bloom: bool,
    stats: IndexStats,
    live: usize,
    /// The records the table was built for, headroom included: a doubling
    /// with this many in flight counts as an expansion.
    built_for: usize,
}

impl TxTable {
    /// Creates a table for a run expecting `expected` transactions: the
    /// vector list and the Bloom filter are sized for them, with an eighth
    /// of headroom, and grow beyond it transparently. The hash index holds
    /// only the records in flight, so its size follows the in-flight load,
    /// not `expected`: it starts small and doubles as that load grows.
    pub fn with_capacity(expected: usize) -> Self {
        Self::with_capacity_and_bloom(expected, true)
    }

    /// Like [`TxTable::with_capacity`], optionally without the Bloom
    /// filter front (the ablation in DESIGN.md §7).
    pub fn with_capacity_and_bloom(expected: usize, use_bloom: bool) -> Self {
        let capacity = with_headroom(expected.max(16));
        TxTable {
            records: Vec::with_capacity(capacity),
            slots: vec![EMPTY; START_SLOTS],
            bloom: BloomFilter::new(capacity.max(1024), 0.01),
            use_bloom,
            stats: IndexStats::default(),
            live: 0,
            built_for: capacity,
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
        // hash table"): the load is the records in flight.
        if (self.live + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        // Rotate a saturated Bloom filter: past its design capacity the
        // false-positive rate degrades silently, so rebuild it over the
        // records in flight with doubled headroom. A table that stays
        // within an eighth of its expectation never gets here.
        if self.bloom.len() >= self.bloom.capacity() {
            self.rebuild_bloom(BloomFilter::new(self.live.max(512) * 2, 0.01));
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
        let entry = (idx as u64) << 32 | u64::from(fingerprint as u32);
        self.stats.probe_steps += place(&mut self.slots, entry);
    }

    /// Doubles the index, re-placing its slots from their tags alone.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for entry in old.into_iter().filter(|&entry| entry != EMPTY) {
            place(&mut self.slots, entry);
        }
        self.stats.expansions += u64::from(self.live >= self.built_for);
    }

    /// Refills `bloom` from the records in flight and installs it, so the
    /// false-positive rate returns to the design point. A settled id has
    /// left the index, so it need not pass the filter either.
    fn rebuild_bloom(&mut self, mut bloom: BloomFilter) {
        for record in self
            .records
            .iter()
            .filter(|r| r.status == TxStatus::Pending)
        {
            bloom.insert(record.tx_id.fingerprint());
        }
        self.bloom = bloom;
        self.stats.bloom_rebuilds += 1;
    }

    /// Walks `tx_id`'s probe chain from its home slot without writing
    /// (Algorithm 1 lines 14–19 after the filter): the id's slot when it is
    /// in flight, and the steps walked past the home slot either way. The
    /// index is at most 5/8 full, so every chain ends at a free slot.
    fn probe(&self, tx_id: &TxId) -> (Option<usize>, u64) {
        let tag = tx_id.fingerprint() as u32;
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        let mut steps = 0;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return (None, steps);
            }
            if entry as u32 == tag && self.records[record_of(entry)].tx_id == *tx_id {
                return (Some(slot), steps);
            }
            steps += 1;
            slot = (slot + 1) & mask;
        }
    }

    /// Looks up an id's slot for a settle: the Bloom filter first, then
    /// the probe walk, each counted in [`IndexStats`].
    fn find(&mut self, tx_id: &TxId) -> Option<usize> {
        if self.use_bloom && !self.bloom.contains(tx_id.fingerprint()) {
            self.stats.bloom_rejections += 1;
            return None;
        }
        let (slot, steps) = self.probe(tx_id);
        self.stats.probe_steps += steps;
        self.stats.misses += u64::from(slot.is_none());
        slot
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
        let tag = fingerprint as u32;
        let entry = self.slots[tag as usize & (self.slots.len() - 1)];
        std::hint::black_box(entry);
        if entry != EMPTY && entry as u32 == tag {
            std::hint::black_box(self.records[record_of(entry)].tx_id.0[0]);
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

    /// Moves a pending record to `status` and takes it out of the index;
    /// `None` when it is not in flight here (foreign, unknown, or a
    /// duplicate block sighting).
    fn settle(&mut self, tx_id: &TxId, end: Duration, status: TxStatus) -> Option<&TxRecord> {
        let slot = self.find(tx_id)?;
        let idx = record_of(self.slots[slot]);
        remove(&mut self.slots, slot);
        self.live -= 1;
        let record = &mut self.records[idx];
        debug_assert_eq!(
            record.status,
            TxStatus::Pending,
            "only what is in flight is indexed"
        );
        record.end = Some(end);
        record.status = status;
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bloom::splitmix64;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl TxTable {
        /// Reads a pending record by id through the index (diagnostics). A
        /// read moves no counter: it walks the index without the filter in
        /// front and counts nothing.
        fn get(&self, tx_id: &TxId) -> Option<&TxRecord> {
            let (slot, _) = self.probe(tx_id);
            slot.map(|slot| &self.records[record_of(self.slots[slot])])
        }

        /// The id whose slot `slot` is, if it is full.
        fn id_at(&self, slot: usize) -> Option<TxId> {
            let entry = self.slots[slot];
            (entry != EMPTY).then(|| self.records[record_of(entry)].tx_id)
        }

        /// Full slots: the index's own count of what it holds.
        fn occupied(&self) -> usize {
            self.slots.iter().filter(|&&entry| entry != EMPTY).count()
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

    /// An id whose fingerprint's low 32 bits — its tag, and the bits its
    /// home slot is cut from — are `tag`; `n` tells apart ids that share it.
    fn tagged(tag: u32, n: u8) -> TxId {
        let mut bytes = [0u8; 32];
        bytes[4..8].copy_from_slice(&tag.to_be_bytes());
        bytes[8] = n;
        TxId(bytes)
    }

    #[test]
    fn insert_and_complete() {
        let mut table = TxTable::with_capacity(16);
        let id = tx_id(1);
        table.insert(id, 3, 1, Duration::from_millis(10));
        assert_eq!(table.pending(), 1);
        assert!(table.complete(&id, Duration::from_millis(50), true));
        assert_eq!(table.pending(), 0);
        // The record has left the index; the vector list keeps it.
        assert!(table.get(&id).is_none());
        assert_eq!(table.occupied(), 0);
        let record = &table.records()[0];
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
        // The filter still passes the settled id; the index misses it.
        assert_eq!(table.stats().misses, 1);
        // End time keeps the first sighting.
        assert_eq!(table.records()[0].end, Some(Duration::from_secs(1)));
    }

    #[test]
    fn failure_recorded() {
        let mut table = TxTable::with_capacity(16);
        let id = tx_id(1);
        table.insert(id, 0, 0, Duration::ZERO);
        table.complete(&id, Duration::from_secs(1), false);
        assert_eq!(table.records()[0].status, TxStatus::Failed);
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
        assert_eq!(table.stats().expansions, 0);
    }

    #[test]
    fn the_index_stays_the_size_of_what_is_in_flight() {
        // The shape of a long run: a million ids through one table built
        // for all of them, each settled 40 000 inserts after it went in.
        const TOTAL: u64 = 1_000_000;
        const LAG: u64 = 40_000;
        let id = |n: u64| {
            let mut bytes = [0u8; 32];
            bytes[..8].copy_from_slice(&splitmix64(n).to_be_bytes());
            TxId(bytes)
        };
        let mut table = TxTable::with_capacity(TOTAL as usize);
        for n in 0..TOTAL {
            if n >= LAG {
                assert!(table.complete(&id(n - LAG), Duration::from_secs(1), true));
            }
            table.insert(id(n), 0, 0, Duration::ZERO);
            if n % 5_000 == 0 {
                assert_eq!(table.occupied(), table.pending(), "after {n}");
            }
        }
        assert_eq!(table.pending(), LAG as usize);
        assert!(table.slot_count() <= 65_536, "{}", table.slot_count());
        assert_eq!(table.stats().expansions, 0);
    }

    #[test]
    fn a_settle_shifts_its_chain_back_across_the_wrap() {
        // Three ids homed at the last of 32 slots fill it and wrap into
        // slots 0 and 1; one homed at 0 lands in 2, and one homed at 3 in 3.
        let mut table = TxTable::with_capacity(16);
        let [a, b, c, d, e] = [
            tagged(31, 0),
            tagged(0xffff_ffff, 0),
            tagged(31, 1),
            tagged(0, 0),
            tagged(3, 0),
        ];
        for id in [a, b, c, d, e] {
            table.insert(id, 0, 0, Duration::ZERO);
        }
        assert_eq!(table.slot_count(), 32);
        let layout = |table: &TxTable| [31, 0, 1, 2, 3].map(|slot| table.id_at(slot));
        assert_eq!(layout(&table), [a, b, c, d, e].map(Some));
        // Settling `a` moves its chain back one slot across the wrap; `e`
        // is at its home slot and stays.
        assert!(table.complete(&a, Duration::from_secs(1), true));
        assert_eq!(layout(&table), [Some(b), Some(c), Some(d), None, Some(e)]);
        // Settling `c` moves `d` back to its home slot.
        assert!(table.complete(&c, Duration::from_secs(1), true));
        assert_eq!(layout(&table), [Some(b), Some(d), None, None, Some(e)]);
        for id in [b, d, e] {
            assert_eq!(table.get(&id).map(|r| r.tx_id), Some(id));
        }
        assert_eq!(table.occupied(), 3);
    }

    #[test]
    fn a_settled_id_does_not_hide_a_later_insert_of_it() {
        let mut table = TxTable::with_capacity(16);
        let id = tx_id(1);
        table.insert(id, 1, 0, Duration::ZERO);
        assert!(table.complete(&id, Duration::from_secs(1), false));
        table.insert(id, 2, 0, Duration::from_secs(2));
        assert!(table.complete(&id, Duration::from_secs(3), true));
        let settled: Vec<_> = table
            .records()
            .iter()
            .map(|r| (r.client_id, r.status))
            .collect();
        assert_eq!(settled, [(1, TxStatus::Failed), (2, TxStatus::Committed)]);
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
    fn probe_counters_are_pinned_for_a_fixed_sequence() {
        // 10 000 ids in, then (without the filter) 1 000 foreign lookups
        // against all of them, then every id settled, newest first: the
        // index starts at 32 slots and doubles to 16 384, three of its
        // nine doublings past the 1 152 records the table was built for.
        for (use_bloom, expect) in [(true, (21_369, 3, 0)), (false, (23_996, 3, 1_000))] {
            let mut table = TxTable::with_capacity_and_bloom(1024, use_bloom);
            for i in 0..10_000 {
                table.insert(tx_id(i), 0, 0, Duration::ZERO);
            }
            assert_eq!(table.stats().probe_steps, 13_658);
            assert_eq!(table.slot_count(), 16_384);
            // Foreign ids walk the chain only where no filter stops them.
            for i in (20_000..21_000).filter(|_| !use_bloom) {
                assert!(!table.complete(&tx_id(i), Duration::from_secs(1), true));
            }
            for i in (0..10_000).rev() {
                assert!(table.complete(&tx_id(i), Duration::from_secs(1), true));
            }
            let stats = table.stats();
            assert_eq!((stats.probe_steps, stats.expansions, stats.misses), expect);
        }
    }

    /// 96 ids built to collide: six tags (the all-ones one included) whose
    /// low bits share a home slot in a small table and part in a larger
    /// one, each under four fingerprints that differ only in their high 32
    /// bits (same home slot, same tag), and four ids per fingerprint that
    /// differ only from byte 8 on.
    pub(crate) fn colliding_id(k: usize) -> TxId {
        let low = [0u64, 1, 32, 64, 0xffff_ffe0, 0xffff_ffff][k % 6];
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
    }

    fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
        let op = prop_oneof![
            (0usize..96).prop_map(TableOp::Insert),
            (0usize..96).prop_map(TableOp::Insert),
            ((0usize..96), any::<bool>()).prop_map(|(k, ok)| TableOp::Complete(k, ok)),
            (0usize..96).prop_map(TableOp::Abandon),
            (0usize..96).prop_map(TableOp::Get),
            (0usize..8).prop_map(TableOp::Get),
            (0usize..4).prop_map(TableOp::Insert),
        ];
        proptest::collection::vec(op, 0..200)
    }

    /// A model of the table: the vector list as a plain `Vec`, and a map
    /// from each pending id to its position in it.
    #[derive(Default)]
    struct Model {
        records: Vec<TxRecord>,
        pending: HashMap<TxId, usize>,
    }

    impl Model {
        /// Settles `id` when it is pending, as the table should.
        fn settle(&mut self, id: &TxId, status: TxStatus) -> Option<TxRecord> {
            let record = &mut self.records[self.pending.remove(id)?];
            record.end = Some(Duration::from_secs(1));
            record.status = status;
            Some(record.clone())
        }

        /// Whether `id` was inserted and has settled since.
        fn settled(&self, id: &TxId) -> bool {
            !self.pending.contains_key(id) && self.records.iter().any(|r| r.tx_id == *id)
        }
    }

    /// Applies `op` to the table and to the model, comparing every answer.
    /// The semantics it pins: only a pending id is in the index, so a
    /// duplicate sighting of a settled id is a counted miss (the filter
    /// never rotates here), never a second completion, and a settled id
    /// does not hide a later insert of the same id.
    fn apply(table: &mut TxTable, model: &mut Model, op: &TableOp) {
        let end = Duration::from_secs(1);
        let before = table.stats();
        let mut missed = false;
        match *op {
            TableOp::Insert(k) => {
                let id = colliding_id(k);
                // The driver never inserts an id it holds pending.
                if !model.pending.contains_key(&id) {
                    table.insert(id, k as u32, 0, Duration::from_millis(k as u64));
                    model.pending.insert(id, model.records.len());
                    model.records.push(table.records().last().unwrap().clone());
                }
            }
            TableOp::Complete(k, ok) => {
                let id = colliding_id(k);
                missed = model.settled(&id);
                let status = if ok {
                    TxStatus::Committed
                } else {
                    TxStatus::Failed
                };
                let expect = model.settle(&id, status);
                assert_eq!(table.complete_record(&id, end, ok).cloned(), expect);
            }
            TableOp::Abandon(k) => {
                let id = colliding_id(k);
                missed = model.settled(&id);
                let expect = model.settle(&id, TxStatus::Dropped);
                assert_eq!(table.abandon(&id, end, TxStatus::Dropped), expect.is_some());
            }
            TableOp::Get(k) => {
                let id = colliding_id(k);
                let expect = model.pending.get(&id).map(|&idx| &model.records[idx]);
                assert_eq!(table.get(&id), expect);
                // A diagnostic read moves no counter.
                assert_eq!(table.stats(), before);
            }
        }
        if missed {
            assert_eq!(table.stats().misses, before.misses + 1, "{op:?}");
            assert_eq!(table.stats().bloom_rejections, before.bloom_rejections);
        }
        assert_eq!(table.records(), model.records);
        assert_eq!(table.pending(), model.pending.len());
        assert_eq!(table.occupied(), model.pending.len());
    }

    proptest! {
        /// Any operation sequence over colliding ids answers as the model
        /// does, through at least two expansions.
        #[test]
        fn prop_table_matches_a_map_model(before in table_ops(), after in table_ops()) {
            let mut table = TxTable::with_capacity(8);
            let mut model = Model::default();
            // Whatever `before` left out of flight is inserted in between,
            // so the index holds all 96 ids at once: 32 slots cannot.
            let fill: Vec<TableOp> = (0..96).map(TableOp::Insert).collect();
            for op in before.iter().chain(&fill) {
                apply(&mut table, &mut model, op);
            }
            prop_assert_eq!(table.pending(), 96);
            prop_assert!(table.stats().expansions >= 2, "{:?}", table.stats());
            for op in after.iter().chain((0..96).map(TableOp::Get).collect::<Vec<_>>().iter()) {
                apply(&mut table, &mut model, op);
            }
        }

        /// Inserting any set of ids and completing a subset leaves exactly
        /// the complement pending, and in the index.
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
                let status = table.records()[i].status;
                let indexed = table.get(&tx_id(i as u64)).is_some();
                if done {
                    prop_assert_eq!(status, TxStatus::Committed);
                } else {
                    prop_assert_eq!(status, TxStatus::Pending);
                }
                prop_assert_eq!(indexed, !done);
            }
        }
    }
}
