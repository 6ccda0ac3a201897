//! A bounded, de-duplicating transaction pool.

use std::collections::{HashSet, VecDeque};

use parking_lot::Mutex;

use crate::types::{SignedTransaction, TxId};

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MempoolError {
    /// The pool is at capacity (the node is overloaded; the paper's Fig. 10
    /// shows nodes rejecting requests beyond their processing capacity).
    Full,
    /// A transaction with the same id is already pooled.
    Duplicate,
    /// The transaction failed signature verification at admission.
    BadSignature,
}

impl std::fmt::Display for MempoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MempoolError::Full => write!(f, "mempool is full"),
            MempoolError::Duplicate => write!(f, "duplicate transaction"),
            MempoolError::BadSignature => write!(f, "invalid signature"),
        }
    }
}

impl std::error::Error for MempoolError {}

struct Inner {
    queue: VecDeque<SignedTransaction>,
    ids: HashSet<TxId>,
    accepted: u64,
    rejected_full: u64,
    rejected_dup: u64,
}

/// A thread-safe FIFO mempool with a hard capacity.
pub struct Mempool {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for Mempool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Mempool")
            .field("len", &inner.queue.len())
            .field("capacity", &self.capacity)
            .field("accepted", &inner.accepted)
            .finish()
    }
}

impl Mempool {
    /// Creates a pool holding at most `capacity` transactions.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                ids: HashSet::new(),
                accepted: 0,
                rejected_full: 0,
                rejected_dup: 0,
            }),
            capacity,
        }
    }

    /// Current number of pooled transactions.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a transaction, enforcing capacity and uniqueness.
    pub fn push(&self, tx: SignedTransaction) -> Result<(), MempoolError> {
        let mut inner = self.inner.lock();
        if inner.queue.len() >= self.capacity {
            inner.rejected_full += 1;
            return Err(MempoolError::Full);
        }
        if !inner.ids.insert(tx.id) {
            inner.rejected_dup += 1;
            return Err(MempoolError::Duplicate);
        }
        inner.queue.push_back(tx);
        inner.accepted += 1;
        Ok(())
    }

    /// Removes and returns up to `max` transactions in FIFO order.
    pub fn drain(&self, max: usize) -> Vec<SignedTransaction> {
        let mut inner = self.inner.lock();
        let n = max.min(inner.queue.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let tx = inner.queue.pop_front().expect("checked length");
            inner.ids.remove(&tx.id);
            out.push(tx);
        }
        out
    }

    /// `(accepted, rejected_full, rejected_duplicate)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock();
        (inner.accepted, inner.rejected_full, inner.rejected_dup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallbank::Op;
    use crate::types::Transaction;
    use hammer_crypto::sig::SigParams;
    use hammer_crypto::Keypair;

    fn signed(nonce: u64) -> SignedTransaction {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op: Op::KvPut {
                key: nonce,
                value: 1,
            },
            chain_name: "t".to_owned(),
            contract_name: "kv".to_owned(),
        }
        .sign(&Keypair::from_seed(1), &SigParams::fast())
    }

    #[test]
    fn push_and_drain_fifo() {
        let pool = Mempool::new(10);
        for i in 0..5 {
            pool.push(signed(i)).unwrap();
        }
        assert_eq!(pool.len(), 5);
        let drained = pool.drain(3);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].tx.nonce, 0);
        assert_eq!(drained[2].tx.nonce, 2);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn capacity_enforced() {
        let pool = Mempool::new(2);
        pool.push(signed(1)).unwrap();
        pool.push(signed(2)).unwrap();
        assert_eq!(pool.push(signed(3)), Err(MempoolError::Full));
        let (accepted, full, _) = pool.stats();
        assert_eq!(accepted, 2);
        assert_eq!(full, 1);
    }

    #[test]
    fn duplicates_rejected() {
        let pool = Mempool::new(10);
        pool.push(signed(1)).unwrap();
        assert_eq!(pool.push(signed(1)), Err(MempoolError::Duplicate));
        let (_, _, dups) = pool.stats();
        assert_eq!(dups, 1);
    }

    #[test]
    fn drained_tx_can_be_resubmitted() {
        let pool = Mempool::new(10);
        pool.push(signed(1)).unwrap();
        pool.drain(10);
        // Once drained, the id is free again (e.g. a retry after timeout).
        pool.push(signed(1)).unwrap();
    }

    #[test]
    fn drain_more_than_present() {
        let pool = Mempool::new(10);
        pool.push(signed(1)).unwrap();
        assert_eq!(pool.drain(100).len(), 1);
        assert!(pool.is_empty());
        assert_eq!(pool.drain(100).len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Mempool::new(0);
    }

    #[test]
    fn concurrent_pushes_respect_capacity() {
        use std::sync::Arc;
        let pool = Arc::new(Mempool::new(100));
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let _ = pool.push(signed(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.len(), 100);
        let (accepted, full, _) = pool.stats();
        assert_eq!(accepted, 100);
        assert_eq!(full, 100);
    }
}
