//! An append-only block store with hash-chain verification.

use hammer_crypto::Hash32;

use crate::types::Block;

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

/// An append-only chain of blocks (one shard's ledger).
///
/// Heights start at 1; "height 0" denotes the implicit genesis whose hash
/// is all zeroes.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    blocks: Vec<Block>,
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
        self.blocks
            .last()
            .map(|b| b.header.hash())
            .unwrap_or([0u8; 32])
    }

    /// Appends a block after validating height, hash chain, and Merkle root.
    pub fn append(&mut self, block: Block) -> Result<(), LedgerError> {
        let expected = self.height() + 1;
        if block.header.height != expected {
            return Err(LedgerError::HeightMismatch {
                expected,
                got: block.header.height,
            });
        }
        if block.header.prev_hash != self.tip_hash() {
            return Err(LedgerError::BrokenHashChain);
        }
        if !block.verify_merkle_root() {
            return Err(LedgerError::BadMerkleRoot);
        }
        self.blocks.push(block);
        Ok(())
    }

    /// The block at `height` (1-based), if present.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        if height == 0 {
            return None;
        }
        self.blocks.get(height as usize - 1)
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
    use crate::types::{Address, Transaction, TxId};
    use std::time::Duration;

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

    #[test]
    fn append_and_lookup() {
        let mut ledger = Ledger::new();
        let b1 = make_block(&ledger, 3);
        let first_tx = b1.tx_ids[0];
        ledger.append(b1).unwrap();
        assert_eq!(ledger.height(), 1);
        assert_eq!(ledger.block_at(1).unwrap().tx_ids[0], first_tx);
    }

    #[test]
    fn rejects_wrong_height() {
        let mut ledger = Ledger::new();
        let mut b = make_block(&ledger, 1);
        b.header.height = 5;
        assert!(matches!(
            ledger.append(b),
            Err(LedgerError::HeightMismatch {
                expected: 1,
                got: 5
            })
        ));
    }

    #[test]
    fn rejects_broken_hash_chain() {
        let mut ledger = Ledger::new();
        ledger.append(make_block(&ledger, 1)).unwrap();
        let mut b = make_block(&ledger, 1);
        b.header.prev_hash = [9u8; 32];
        assert_eq!(ledger.append(b), Err(LedgerError::BrokenHashChain));
    }

    #[test]
    fn rejects_bad_merkle_root() {
        let mut ledger = Ledger::new();
        let mut b = make_block(&ledger, 2);
        b.tx_ids[0] = tx_id(123_456);
        assert_eq!(ledger.append(b), Err(LedgerError::BadMerkleRoot));
    }

    #[test]
    fn verify_chain_passes_for_valid_chain() {
        let mut ledger = Ledger::new();
        for _ in 0..5 {
            let b = make_block(&ledger, 2);
            ledger.append(b).unwrap();
        }
        ledger.verify_chain().unwrap();
    }

    #[test]
    fn block_at_bounds() {
        let mut ledger = Ledger::new();
        ledger.append(make_block(&ledger, 1)).unwrap();
        assert!(ledger.block_at(0).is_none());
        assert!(ledger.block_at(1).is_some());
        assert!(ledger.block_at(2).is_none());
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
        ledger.append(block).unwrap();
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
        ledger.append(b).unwrap();
        assert_eq!(ledger.height(), 1);
        ledger.verify_chain().unwrap();
    }

    // Unused import silencer: Address is used in other test modules.
    #[allow(dead_code)]
    fn _touch(_a: Address) {}
}
