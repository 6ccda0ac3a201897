//! An append-only block store with hash-chain verification.
//!
//! A block reaches a ledger as a [`Verified`], made with no lock held in
//! one of two ways. A block from outside goes through [`Verified::new`],
//! which recomputes its Merkle root against the header; the kernel's
//! sealer builds one from its ids with `Verified::seal`, which computes
//! the root once and so has nothing to re-check. Either way the header is
//! hashed there, and [`Ledger::append`] only compares the height and
//! `prev_hash` against its cached tip and pushes a pointer.
//! Blocks are stored as `Arc<Block>`, so a reader takes a pointer copy, not
//! the block.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Duration;

use hammer_crypto::Hash32;

use crate::types::{Block, TxId};

/// Errors from ledger operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// Appended block's height is not `tip + 1`.
    HeightMismatch {
        /// Height the ledger expected.
        expected: u64,
        /// Height the block carried.
        got: u64,
    },
    /// Appended block's `prev_hash` does not match the tip hash.
    BrokenHashChain,
    /// Block's Merkle root does not match its transaction list.
    BadMerkleRoot,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::HeightMismatch { expected, got } => {
                write!(f, "height mismatch: expected {expected}, got {got}")
            }
            LedgerError::BrokenHashChain => write!(f, "prev_hash does not match tip"),
            LedgerError::BadMerkleRoot => write!(f, "merkle root does not match transactions"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// A block whose Merkle root matches its transactions — checked against
/// them, or computed from them — with its header hash computed: the only
/// thing [`Ledger::append`] accepts, so no block reaches a ledger
/// unchecked. Built with no lock held.
#[derive(Debug)]
pub struct Verified {
    block: Arc<Block>,
    hash: Hash32,
}

impl Verified {
    /// Recomputes `block`'s Merkle root and refuses the block when it does
    /// not match the header.
    pub fn new(block: Block) -> Result<Self, LedgerError> {
        if !block.verify_merkle_root() {
            return Err(LedgerError::BadMerkleRoot);
        }
        let hash = block.header.hash();
        Ok(Verified {
            block: Arc::new(block),
            hash,
        })
    }

    /// Builds a block from its ids through [`Block::new`], which computes
    /// the Merkle root, and hashes the header. The root is right by
    /// construction, so it is not computed a second time: this is the
    /// sealer's one Merkle pass. Crate-private, so a block built outside
    /// `hammer-chain` still goes through [`Verified::new`].
    pub(crate) fn seal(
        height: u64,
        prev_hash: Hash32,
        timestamp: Duration,
        proposer: &str,
        shard: u32,
        tx_ids: Vec<TxId>,
        valid: Vec<bool>,
    ) -> Self {
        let block = Block::new(height, prev_hash, timestamp, proposer, shard, tx_ids, valid);
        let hash = block.header.hash();
        Verified {
            block: Arc::new(block),
            hash,
        }
    }

    /// The checked block, shared with the ledger once appended.
    pub fn block(&self) -> &Arc<Block> {
        &self.block
    }
}

/// An append-only chain of blocks (one shard's ledger).
///
/// Heights start at 1; "height 0" denotes the implicit genesis whose hash
/// is all zeroes.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    blocks: Vec<Arc<Block>>,
    /// Hash of the newest block header, cached at append.
    tip_hash: Hash32,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Height of the newest block (0 when empty).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Hash of the newest block header (all-zero when empty).
    pub fn tip_hash(&self) -> Hash32 {
        self.tip_hash
    }

    /// Appends a verified block after checking its height and hash link
    /// against the tip: two comparisons and a push.
    pub fn append(&mut self, block: Verified) -> Result<(), LedgerError> {
        let expected = self.height() + 1;
        if block.block.header.height != expected {
            return Err(LedgerError::HeightMismatch {
                expected,
                got: block.block.header.height,
            });
        }
        if block.block.header.prev_hash != self.tip_hash {
            return Err(LedgerError::BrokenHashChain);
        }
        self.tip_hash = block.hash;
        self.blocks.push(block.block);
        Ok(())
    }

    /// The block at `height` (1-based), if present.
    pub fn block_at(&self, height: u64) -> Option<&Arc<Block>> {
        let index = height.checked_sub(1)?;
        self.blocks.get(usize::try_from(index).ok()?)
    }

    /// The blocks at `heights` that exist, in height order.
    pub fn blocks(&self, heights: RangeInclusive<u64>) -> &[Arc<Block>] {
        let first = (*heights.start()).max(1);
        let last = (*heights.end()).min(self.height());
        if first > last {
            return &[];
        }
        &self.blocks[first as usize - 1..last as usize]
    }

    /// Verifies the whole chain: heights, hash links, Merkle roots.
    pub fn verify_chain(&self) -> Result<(), LedgerError> {
        let mut prev_hash: Hash32 = [0u8; 32];
        for (i, block) in self.blocks.iter().enumerate() {
            let expected = i as u64 + 1;
            if block.header.height != expected {
                return Err(LedgerError::HeightMismatch {
                    expected,
                    got: block.header.height,
                });
            }
            if block.header.prev_hash != prev_hash {
                return Err(LedgerError::BrokenHashChain);
            }
            if !block.verify_merkle_root() {
                return Err(LedgerError::BadMerkleRoot);
            }
            prev_hash = block.header.hash();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallbank::Op;
    use crate::types::Transaction;

    fn tx_id(nonce: u64) -> TxId {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op: Op::KvPut {
                key: nonce,
                value: 0,
            },
            chain_name: "t".to_owned(),
            contract_name: "kv".to_owned(),
        }
        .id()
    }

    fn make_block(ledger: &Ledger, n_txs: u64) -> Block {
        let base = ledger.height() * 1000;
        let ids: Vec<TxId> = (0..n_txs).map(|i| tx_id(base + i)).collect();
        let valid = vec![true; ids.len()];
        Block::new(
            ledger.height() + 1,
            ledger.tip_hash(),
            Duration::from_secs(ledger.height()),
            "node-0",
            0,
            ids,
            valid,
        )
    }

    /// Verifies and appends the next block, of `n_txs` transactions.
    fn append_next(ledger: &mut Ledger, n_txs: u64) {
        let block = make_block(ledger, n_txs);
        ledger.append(Verified::new(block).unwrap()).unwrap();
    }

    #[test]
    fn append_and_lookup() {
        let mut ledger = Ledger::new();
        let b1 = make_block(&ledger, 3);
        let first_tx = b1.tx_ids[0];
        ledger.append(Verified::new(b1).unwrap()).unwrap();
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.block_at(1).unwrap().tx_ids[0], first_tx);
    }

    #[test]
    fn rejects_wrong_height() {
        let mut ledger = Ledger::new();
        let mut b = make_block(&ledger, 1);
        b.header.height = 5;
        // The height is not part of the root: the block verifies, and the
        // ledger turns it away.
        let verified = Verified::new(b).unwrap();
        assert_eq!(
            ledger.append(verified),
            Err(LedgerError::HeightMismatch {
                expected: 1,
                got: 5
            })
        );
        assert_eq!(ledger.height(), 0);
    }

    #[test]
    fn rejects_broken_hash_chain() {
        let mut ledger = Ledger::new();
        append_next(&mut ledger, 1);
        let tip = ledger.tip_hash();
        let mut b = make_block(&ledger, 1);
        b.header.prev_hash = [9u8; 32];
        let verified = Verified::new(b).unwrap();
        assert_eq!(ledger.append(verified), Err(LedgerError::BrokenHashChain));
        assert_eq!((ledger.height(), ledger.tip_hash()), (1, tip));
    }

    #[test]
    fn rejects_bad_merkle_root() {
        let mut b = make_block(&Ledger::new(), 2);
        b.tx_ids[0] = tx_id(123_456);
        assert_eq!(Verified::new(b).unwrap_err(), LedgerError::BadMerkleRoot);
    }

    /// The sealer's constructor builds the block `Block::new` builds and
    /// the header hash the checking `Verified::new` computes, at sizes
    /// around the Merkle tree's odd levels and a 4096-id block's edge, and
    /// a chain of its blocks passes the full audit.
    #[test]
    fn seal_matches_the_checked_block() {
        let mut ledger = Ledger::new();
        for n in [0u64, 1, 2, 3, 7, 64, 4095, 4096, 4097] {
            let ids: Vec<TxId> = (0..n).map(|i| tx_id(n * 10_000 + i)).collect();
            let valid: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
            let (height, tip) = (ledger.height() + 1, ledger.tip_hash());
            let at = Duration::from_millis(n);
            let block = Block::new(height, tip, at, "node-0", 1, ids.clone(), valid.clone());
            let reference = Verified::new(block).unwrap();
            let sealed = Verified::seal(height, tip, at, "node-0", 1, ids, valid);
            assert_eq!(sealed.block(), reference.block(), "{n} ids");
            assert_eq!(sealed.hash, reference.hash, "{n} ids");
            ledger.append(sealed).unwrap();
        }
        assert_eq!(ledger.height(), 9);
        ledger.verify_chain().unwrap();
    }

    #[test]
    #[should_panic(expected = "tx_ids and valid must align")]
    fn seal_refuses_misaligned_flags() {
        let ids = vec![tx_id(1), tx_id(2)];
        Verified::seal(1, [0u8; 32], Duration::ZERO, "n", 0, ids, vec![true]);
    }

    #[test]
    fn the_cached_tip_is_the_newest_header_hash() {
        let mut ledger = Ledger::new();
        assert_eq!(ledger.tip_hash(), [0u8; 32]);
        for n in 1..=6u64 {
            append_next(&mut ledger, n % 3);
            assert_eq!(ledger.tip_hash(), ledger.block_at(n).unwrap().header.hash());
        }
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn verify_chain_passes_for_valid_chain() {
        let mut ledger = Ledger::new();
        for _ in 0..5 {
            append_next(&mut ledger, 2);
        }
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn block_at_bounds() {
        let mut ledger = Ledger::new();
        append_next(&mut ledger, 1);
        assert!(ledger.block_at(0).is_none());
        assert!(ledger.block_at(1).is_some());
        assert!(ledger.block_at(2).is_none());
        assert!(ledger.block_at(u64::MAX).is_none());
    }

    #[test]
    fn a_range_read_is_the_blocks_that_exist() {
        let mut ledger = Ledger::new();
        for _ in 0..4 {
            append_next(&mut ledger, 1);
        }
        let heights = |range| {
            ledger
                .blocks(range)
                .iter()
                .map(|b| b.header.height)
                .collect::<Vec<_>>()
        };
        assert_eq!(heights(1..=4), [1, 2, 3, 4]);
        assert_eq!(heights(0..=2), [1, 2]);
        assert_eq!(heights(3..=9), [3, 4]);
        assert_eq!(heights(RangeInclusive::new(3, 2)), [0u64; 0]);
        assert_eq!(heights(5..=u64::MAX), [0u64; 0]);
        assert!(Arc::ptr_eq(
            &ledger.blocks(2..=2)[0],
            ledger.block_at(2).unwrap()
        ));
    }

    #[test]
    fn receipts_reflect_validity() {
        let mut ledger = Ledger::new();
        let ids = vec![tx_id(1), tx_id(2)];
        let block = Block::new(
            1,
            ledger.tip_hash(),
            Duration::from_secs(7),
            "n",
            0,
            ids.clone(),
            vec![true, false],
        );
        ledger.append(Verified::new(block).unwrap()).unwrap();
        let stored = ledger.block_at(1).unwrap();
        assert_eq!(
            stored.entries().collect::<Vec<_>>(),
            [(ids[0], true), (ids[1], false)]
        );
        assert_eq!(stored.header.timestamp, Duration::from_secs(7));
    }

    #[test]
    fn empty_block_is_allowed() {
        let mut ledger = Ledger::new();
        let b = make_block(&ledger, 0);
        assert!(b.is_empty());
        ledger.append(Verified::new(b).unwrap()).unwrap();
        assert_eq!(ledger.height(), 1);
        ledger.verify_chain().unwrap();
    }
}
