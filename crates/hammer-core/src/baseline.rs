//! The Blockbench-style batch-testing baseline.
//!
//! §II-C1: "the driver maintains an unconfirmed and incomplete transaction
//! queue ... extracts the transaction list from the contents of the
//! acknowledgment block and removes the matching transaction list from
//! the local queue". Matching one block of `m` transactions against a
//! queue of length `n` scans the queue per transaction — `O(n·m)` — which
//! Eq. 1–2 formalise and Fig. 9 measures against Hammer's O(1) algorithm.
//!
//! This module implements that baseline faithfully (linear scan + remove),
//! so the comparison in the Fig. 9 bench measures real work on both sides.

use std::time::Duration;

use hammer_chain::types::{TxId, TxStatus};

use crate::index::TxRecord;

/// The unconfirmed-transaction queue of batch testing.
#[derive(Clone, Debug, Default)]
pub struct BatchQueue {
    /// Pending transactions, in submission order.
    queue: Vec<TxRecord>,
    /// Completed transactions (moved out of the queue on match).
    done: Vec<TxRecord>,
}

impl BatchQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of unconfirmed transactions.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Records a submitted transaction.
    pub fn insert(&mut self, tx_id: TxId, client_id: u32, server_id: u32, start: Duration) {
        self.queue.push(TxRecord {
            tx_id,
            client_id,
            server_id,
            start,
            end: None,
            status: TxStatus::Pending,
        });
    }

    /// Matches one transaction from a confirmed block: linearly scans the
    /// queue and removes the entry (the O(n) inner step of batch testing).
    /// Returns `true` when a pending transaction was matched.
    pub fn complete(&mut self, tx_id: &TxId, end: Duration, success: bool) -> bool {
        // Deliberately a linear scan with positional remove — this is the
        // baseline algorithm whose cost the paper measures; do not
        // "optimise" it.
        for i in 0..self.queue.len() {
            if self.queue[i].tx_id == *tx_id {
                let mut record = self.queue.remove(i);
                record.end = Some(end);
                record.status = if success {
                    TxStatus::Committed
                } else {
                    TxStatus::Failed
                };
                self.done.push(record);
                return true;
            }
        }
        false
    }

    /// Matches a whole block of transactions (the O(n·m) outer loop).
    /// Returns the number matched.
    pub fn complete_block(&mut self, tx_ids: &[TxId], end: Duration) -> usize {
        let mut matched = 0;
        for tx_id in tx_ids {
            if self.complete(tx_id, end, true) {
                matched += 1;
            }
        }
        matched
    }

    /// Marks a still-pending transaction as abandoned by the submission
    /// path (`Dropped` / `Expired`): removes it from the unconfirmed
    /// queue with the given terminal status. Returns `true` when the
    /// transaction was pending.
    pub(crate) fn abandon(&mut self, tx_id: &TxId, end: Duration, status: TxStatus) -> bool {
        debug_assert!(
            matches!(status, TxStatus::Dropped | TxStatus::Expired),
            "abandon is for submission-side terminal statuses"
        );
        for i in 0..self.queue.len() {
            if self.queue[i].tx_id == *tx_id {
                let mut record = self.queue.remove(i);
                record.end = Some(end);
                record.status = status;
                self.done.push(record);
                return true;
            }
        }
        false
    }

    /// Marks all still-pending transactions as timed out and returns how
    /// many there were.
    pub(crate) fn timeout_pending(&mut self) -> usize {
        let n = self.queue.len();
        for mut record in self.queue.drain(..) {
            record.status = TxStatus::TimedOut;
            self.done.push(record);
        }
        n
    }

    /// All completed/timed-out records.
    pub(crate) fn records(&self) -> &[TxRecord] {
        &self.done
    }

    /// Gives up the completed/timed-out records (end-of-run hand-over).
    pub(crate) fn into_records(self) -> Vec<TxRecord> {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;

    impl BatchQueue {
        /// Number of matched transactions.
        fn completed(&self) -> usize {
            self.done.len()
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
    fn insert_match_remove() {
        let mut queue = BatchQueue::new();
        queue.insert(tx_id(1), 0, 0, Duration::ZERO);
        queue.insert(tx_id(2), 0, 0, Duration::ZERO);
        assert!(queue.complete(&tx_id(1), Duration::from_secs(1), true));
        assert_eq!(queue.pending(), 1);
        assert_eq!(queue.completed(), 1);
        assert_eq!(queue.records()[0].status, TxStatus::Committed);
    }

    #[test]
    fn unknown_tx_not_matched() {
        let mut queue = BatchQueue::new();
        queue.insert(tx_id(1), 0, 0, Duration::ZERO);
        assert!(!queue.complete(&tx_id(9), Duration::from_secs(1), true));
        assert_eq!(queue.pending(), 1);
    }

    #[test]
    fn block_matching_counts() {
        let mut queue = BatchQueue::new();
        for i in 0..10 {
            queue.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        let block: Vec<TxId> = (5..15).map(tx_id).collect();
        let matched = queue.complete_block(&block, Duration::from_secs(1));
        assert_eq!(matched, 5);
        assert_eq!(queue.pending(), 5);
    }

    #[test]
    fn timeout_drains_queue() {
        let mut queue = BatchQueue::new();
        for i in 0..4 {
            queue.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        assert_eq!(queue.timeout_pending(), 4);
        assert_eq!(queue.pending(), 0);
        assert!(queue
            .records()
            .iter()
            .all(|r| r.status == TxStatus::TimedOut));
    }

    #[test]
    fn matches_agree_with_tx_table() {
        // Differential test: batch queue and TxTable must classify
        // identically on the same event stream.
        use crate::index::TxTable;
        let mut queue = BatchQueue::new();
        let mut table = TxTable::with_capacity(64);
        for i in 0..200 {
            queue.insert(tx_id(i), 0, 0, Duration::ZERO);
            table.insert(tx_id(i), 0, 0, Duration::ZERO);
        }
        for i in (0..300).step_by(3) {
            let a = queue.complete(&tx_id(i), Duration::from_secs(1), true);
            let b = table.complete(&tx_id(i), Duration::from_secs(1), true);
            assert_eq!(a, b, "divergence at {i}");
        }
        assert_eq!(queue.pending(), table.pending());
    }
}
