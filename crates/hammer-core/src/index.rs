//! The vector list + dynamic hash index of Algorithm 1.
//!
//! The paper replaces Blockbench's unconfirmed-transaction *queue* with a
//! **vector list** (append-only `Vec` of transaction records — "due to the
//! high overhead associated with enqueue and dequeue operations in
//! queues") plus a **dynamically created hash index** from transaction id
//! to vector position. A Bloom filter sits in front of the index to
//! exclude foreign transactions cheaply. On hash-table pressure the table
//! *expands its length* to keep collisions rare, so both insert and match
//! stay O(1).
//!
//! The paper's stated limitation — the table only ever grows, inflating
//! storage on long runs — is addressed by [`TxTable::compact`]
//! (future-work feature; see DESIGN.md §6 and the `taskproc_compaction`
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

/// Counters describing index behaviour (for the Fig. 9 analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total probe steps beyond the home slot (collision walking).
    pub probe_steps: u64,
    /// Times the hash table expanded.
    pub expansions: u64,
    /// Lookups short-circuited by the Bloom filter.
    pub bloom_rejections: u64,
    /// Lookups that passed the Bloom filter but were not in the index
    /// (Bloom false positives or already-completed duplicates).
    pub misses: u64,
    /// Times the Bloom filter was rebuilt: rotations forced by
    /// saturation (insertions past the design capacity would silently
    /// degrade the false-positive rate) plus compactions.
    pub bloom_rebuilds: u64,
}

impl IndexStats {
    /// Accumulates another table's counters into this one — how a
    /// sharded tracker presents a single-table view of its shards.
    pub fn merge(&mut self, other: &IndexStats) {
        self.probe_steps += other.probe_steps;
        self.expansions += other.expansions;
        self.bloom_rejections += other.bloom_rejections;
        self.misses += other.misses;
        self.bloom_rebuilds += other.bloom_rebuilds;
    }
}

const EMPTY: u64 = u64::MAX;

/// The vector list with its dynamic hash index and Bloom filter.
#[derive(Clone, Debug)]
pub struct TxTable {
    records: Vec<TxRecord>,
    /// Open-addressing slots holding indices into `records` (EMPTY = free).
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
    /// filter front (the ablation in DESIGN.md §6).
    pub fn with_capacity_and_bloom(expected: usize, use_bloom: bool) -> Self {
        let expected = expected.max(16);
        let slot_count = (expected * 2).next_power_of_two();
        TxTable {
            records: Vec::with_capacity(expected),
            slots: vec![EMPTY; slot_count],
            bloom: BloomFilter::new(expected.max(1024), 0.01),
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
    pub fn pending(&self) -> usize {
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

    #[inline]
    fn home_slot(&self, tx_id: &TxId) -> usize {
        (tx_id.fingerprint() % self.slots.len() as u64) as usize
    }

    /// Algorithm 1, lines 4–8: records a sent transaction and indexes it.
    pub fn insert(&mut self, tx_id: TxId, client_id: u32, server_id: u32, start: Duration) {
        // Expand before the load factor hurts ("we attempt to minimize the
        // occurrence of hash collisions by expanding the length of the
        // hash table").
        if (self.records.len() + 1) * 10 > self.slots.len() * 7 {
            self.expand();
        }
        // Rotate a saturated Bloom filter: past its design capacity the
        // false-positive rate degrades silently, so rebuild it over the
        // current records with doubled headroom.
        if self.bloom.len() >= self.bloom.capacity() {
            self.rotate_bloom();
        }
        let idx = self.records.len() as u64;
        self.records.push(TxRecord {
            tx_id,
            client_id,
            server_id,
            start,
            end: None,
            status: TxStatus::Pending,
        });
        self.live += 1;
        self.bloom.insert(tx_id.fingerprint());
        let mut slot = self.home_slot(&tx_id);
        loop {
            if self.slots[slot] == EMPTY {
                self.slots[slot] = idx;
                return;
            }
            self.stats.probe_steps += 1;
            slot = (slot + 1) % self.slots.len();
        }
    }

    fn expand(&mut self) {
        let new_len = (self.slots.len() * 2).max(32);
        self.slots = vec![EMPTY; new_len];
        self.stats.expansions += 1;
        for (idx, record) in self.records.iter().enumerate() {
            let mut slot = (record.tx_id.fingerprint() % new_len as u64) as usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) % new_len;
            }
            self.slots[slot] = idx as u64;
        }
    }

    /// Rebuilds the Bloom filter over every current record (completed
    /// ones included — duplicate block sightings must still pass the
    /// filter and resolve through the index) with capacity doubled, so
    /// the false-positive rate returns to the design point.
    fn rotate_bloom(&mut self) {
        self.bloom = BloomFilter::new(self.records.len().max(512) * 2, 0.01);
        for record in &self.records {
            self.bloom.insert(record.tx_id.fingerprint());
        }
        self.stats.bloom_rebuilds += 1;
    }

    /// Looks up a record index by id (Bloom filter first, then the hash
    /// index; collisions walk the probe chain — Algorithm 1 lines 14–19).
    fn find(&mut self, tx_id: &TxId) -> Option<usize> {
        if self.use_bloom && !self.bloom.contains(tx_id.fingerprint()) {
            self.stats.bloom_rejections += 1;
            return None;
        }
        let mut slot = self.home_slot(tx_id);
        let mut walked = 0usize;
        loop {
            match self.slots[slot] {
                s if s == EMPTY => {
                    self.stats.misses += 1;
                    return None;
                }
                s => {
                    if self.records[s as usize].tx_id == *tx_id {
                        return Some(s as usize);
                    }
                    self.stats.probe_steps += 1;
                }
            }
            walked += 1;
            if walked >= self.slots.len() {
                self.stats.misses += 1;
                return None;
            }
            slot = (slot + 1) % self.slots.len();
        }
    }

    /// Algorithm 1, lines 10–19: marks a transaction complete with the
    /// block time as its end time. Returns `true` when the transaction was
    /// pending in this table.
    pub fn complete(&mut self, tx_id: &TxId, end: Duration, success: bool) -> bool {
        self.complete_record(tx_id, end, success).is_some()
    }

    /// Like [`TxTable::complete`], but returns the finished record so
    /// callers (the driver's live-sync pipeline) can publish it without a
    /// second index lookup. `None` when the transaction was not pending
    /// here (foreign, unknown, or a duplicate sighting).
    pub fn complete_record(
        &mut self,
        tx_id: &TxId,
        end: Duration,
        success: bool,
    ) -> Option<&TxRecord> {
        match self.find(tx_id) {
            Some(idx) => {
                let record = &mut self.records[idx];
                if record.status != TxStatus::Pending {
                    return None; // duplicate block sighting
                }
                record.end = Some(end);
                record.status = if success {
                    TxStatus::Committed
                } else {
                    TxStatus::Failed
                };
                self.live -= 1;
                Some(&self.records[idx])
            }
            None => None,
        }
    }

    /// Marks a still-pending transaction as abandoned by the submission
    /// path — `Dropped` (retry budget exhausted) or `Expired` (per-slice
    /// retry deadline passed) — without it ever reaching the chain.
    /// Returns `true` when the transaction was pending in this table.
    pub fn abandon(&mut self, tx_id: &TxId, end: Duration, status: TxStatus) -> bool {
        debug_assert!(
            matches!(status, TxStatus::Dropped | TxStatus::Expired),
            "abandon is for submission-side terminal statuses"
        );
        match self.find(tx_id) {
            Some(idx) => {
                let record = &mut self.records[idx];
                if record.status != TxStatus::Pending {
                    return false;
                }
                record.end = Some(end);
                record.status = status;
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Marks every still-pending transaction as timed out.
    pub fn timeout_pending(&mut self) -> usize {
        let mut n = 0;
        for record in &mut self.records {
            if record.status == TxStatus::Pending {
                record.status = TxStatus::TimedOut;
                n += 1;
            }
        }
        self.live = 0;
        n
    }

    /// Reads a record by id (diagnostics).
    pub fn get(&mut self, tx_id: &TxId) -> Option<&TxRecord> {
        self.find(tx_id).map(|idx| &self.records[idx])
    }

    /// All records (checkpoint snapshots).
    pub fn records(&self) -> &[TxRecord] {
        &self.records
    }

    /// Gives up the vector list (the hand-over to the report at end of run).
    pub fn into_records(self) -> Vec<TxRecord> {
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
        let slot_count = (self.records.len().max(16) * 2).next_power_of_two();
        self.slots = vec![EMPTY; slot_count];
        self.bloom = BloomFilter::new(self.records.len().max(1024), 0.01);
        self.stats.bloom_rebuilds += 1;
        for (idx, record) in self.records.iter().enumerate() {
            self.bloom.insert(record.tx_id.fingerprint());
            let mut slot = (record.tx_id.fingerprint() % slot_count as u64) as usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) % slot_count;
            }
            self.slots[slot] = idx as u64;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;
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
    fn timeout_pending_marks_remaining() {
        let mut table = TxTable::with_capacity(16);
        for i in 0..5 {
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        table.complete(&tx_id(0), Duration::from_secs(1), true);
        assert_eq!(table.timeout_pending(), 4);
        assert_eq!(table.get(&tx_id(1)).unwrap().status, TxStatus::TimedOut);
        assert_eq!(table.get(&tx_id(0)).unwrap().status, TxStatus::Committed);
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

    proptest! {
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
