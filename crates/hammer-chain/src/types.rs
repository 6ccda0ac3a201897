//! Core wire types: addresses, transaction ids, transactions, blocks.

use std::fmt;
use std::time::Duration;

use hammer_crypto::sig::{SigParams, Signature};
use hammer_crypto::{sha256, to_hex, Hash32, PublicKey, Sha256};

use crate::smallbank::Op;

/// An account address: a 64-bit id, deterministically derivable from a name.
///
/// Real chains use 20-byte addresses; a 64-bit id preserves the semantics
/// (unique account identity, hashable, cheap to copy) at simulation scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub u64);

impl Address {
    /// Derives an address from an account name.
    pub fn from_name(name: &str) -> Self {
        let digest = sha256(name.as_bytes());
        Address(u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")))
    }

    /// The raw id.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

/// A 32-byte transaction id (hash of the signable transaction content).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub Hash32);

impl TxId {
    /// The raw bytes.
    pub(crate) fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A short printable prefix (first 8 hex chars).
    pub(crate) fn short(&self) -> String {
        to_hex(&self.0[..4])
    }

    /// A cheap, well-distributed 64-bit fingerprint (first 8 bytes).
    pub fn fingerprint(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl AsRef<[u8]> for TxId {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({})", self.short())
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_hex(&self.0))
    }
}

/// Lifecycle status of a tracked transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxStatus {
    /// Submitted, not yet observed in a block.
    Pending,
    /// Observed in a committed block and executed successfully.
    Committed,
    /// Observed in a committed block but failed validation/execution
    /// (e.g. a Fabric MVCC conflict).
    Failed,
    /// Never observed before the evaluation deadline.
    TimedOut,
    /// Never accepted by the chain: the submitter's retry budget ran out
    /// on transient errors (node outage, backpressure).
    Dropped,
    /// Never accepted by the chain: the submitter's per-slice retry
    /// deadline passed before an attempt succeeded.
    Expired,
}

/// An unsigned transaction as generated by the workload layer.
///
/// `client_id` and `server_id` are carried for the two purposes the paper
/// names (Algorithm 1): flood-attack attribution and per-client/per-server
/// load monitoring.
#[derive(Clone, Debug, PartialEq)]
pub struct Transaction {
    /// Id of the workload client that generated this transaction.
    pub client_id: u32,
    /// Id of the driver server that submitted it.
    pub server_id: u32,
    /// Per-client sequence number (uniquifies otherwise identical ops).
    pub nonce: u64,
    /// The contract operation to execute.
    pub op: Op,
    /// Target chain name (the paper's `chainname`).
    pub chain_name: String,
    /// Target contract name (the paper's `contractname`).
    pub contract_name: String,
}

impl Transaction {
    /// The canonical byte encoding that is hashed and signed.
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut h = Vec::with_capacity(64);
        self.signable_bytes_into(&mut h);
        h
    }

    /// Appends the canonical byte encoding to `out`, letting hot paths
    /// (signing pools, batch verifiers) reuse one buffer across
    /// transactions instead of allocating per call.
    pub(crate) fn signable_bytes_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client_id.to_be_bytes());
        out.extend_from_slice(&self.server_id.to_be_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out.extend_from_slice(self.chain_name.as_bytes());
        out.push(0);
        out.extend_from_slice(self.contract_name.as_bytes());
        out.push(0);
        self.op.encode_into(out);
    }

    /// The transaction id: SHA-256 of the signable bytes.
    pub fn id(&self) -> TxId {
        TxId(sha256(&self.signable_bytes()))
    }

    /// Signs the transaction, producing a [`SignedTransaction`].
    pub fn sign(self, keypair: &hammer_crypto::Keypair, params: &SigParams) -> SignedTransaction {
        let mut buf = Vec::with_capacity(64);
        self.sign_with_buf(keypair, params, &mut buf)
    }

    /// Signs the transaction's id (hash-then-sign, as ECDSA clients do),
    /// using a caller-supplied scratch buffer for the signable bytes the id
    /// hashes, so signing pools reuse one buffer per worker instead of
    /// allocating per transaction.
    pub fn sign_with_buf(
        self,
        keypair: &hammer_crypto::Keypair,
        params: &SigParams,
        buf: &mut Vec<u8>,
    ) -> SignedTransaction {
        buf.clear();
        self.signable_bytes_into(buf);
        let id = TxId(sha256(buf));
        let signature = keypair.sign(&id.0, params);
        SignedTransaction {
            tx: self,
            id,
            signature,
            public_key: keypair.public(),
        }
    }
}

/// A signed transaction ready for submission.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedTransaction {
    /// The transaction body.
    pub tx: Transaction,
    /// Cached id (hash of the signable bytes).
    pub id: TxId,
    /// Client signature over the id.
    pub signature: Signature,
    /// The signer's public key.
    pub public_key: PublicKey,
}

impl SignedTransaction {
    /// Verifies that the cached id is the hash of the body and that the
    /// signature is over that id.
    pub fn verify(&self, params: &SigParams) -> bool {
        self.tx.id() == self.id && self.public_key.verify(&self.id.0, &self.signature, params)
    }
}

/// Verifies a batch of signed transactions, returning one verdict per
/// transaction, each exactly equal to [`SignedTransaction::verify`]: the
/// id is rehashed from the body through one reused buffer, and the
/// signature checked over the id.
///
/// Chain simulators validate block-sized bursts signed by a handful of
/// client keys; routing them through
/// [`hammer_crypto::sig::verify_batch`] lets repeated public keys share
/// a precomputed exponentiation table instead of paying the full
/// modexp per signature.
pub fn verify_signed_batch(txs: &[SignedTransaction], params: &SigParams) -> Vec<bool> {
    use hammer_crypto::sig::{verify_batch, VerifyItem};

    let mut buf = Vec::with_capacity(64);
    let id_ok: Vec<bool> = txs
        .iter()
        .map(|tx| {
            buf.clear();
            tx.tx.signable_bytes_into(&mut buf);
            TxId(sha256(&buf)) == tx.id
        })
        .collect();
    let items: Vec<VerifyItem<'_>> = txs
        .iter()
        .map(|tx| VerifyItem {
            y: tx.public_key.as_u64(),
            msg: &tx.id.0,
            sig: tx.signature,
        })
        .collect();
    verify_batch(&items, params)
        .into_iter()
        .zip(id_ok)
        .map(|(sig_ok, id_ok)| sig_ok && id_ok)
        .collect()
}

/// A block header.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the previous block header.
    pub prev_hash: Hash32,
    /// Merkle root over the transaction ids.
    pub merkle_root: Hash32,
    /// Simulated timestamp at which the block was committed.
    pub timestamp: Duration,
    /// Name of the producing node.
    pub proposer: String,
    /// Shard that produced the block (0 for non-sharded chains).
    pub shard: u32,
}

impl BlockHeader {
    /// Hash of this header.
    pub(crate) fn hash(&self) -> Hash32 {
        let mut h = Sha256::new();
        h.update(&self.height.to_be_bytes());
        h.update(&self.prev_hash);
        h.update(&self.merkle_root);
        h.update(&(self.timestamp.as_nanos() as u64).to_be_bytes());
        h.update(self.proposer.as_bytes());
        h.update(&self.shard.to_be_bytes());
        h.finalize()
    }
}

/// A committed block: header plus the per-transaction commit outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transaction ids in block order.
    pub tx_ids: Vec<TxId>,
    /// Per-transaction success flags, parallel to `tx_ids`.
    /// (Fabric commits conflicted transactions into the block with an
    /// invalid flag; other chains mark everything valid.)
    pub valid: Vec<bool>,
}

impl Block {
    /// Builds a block, computing the Merkle root from the tx ids.
    pub fn new(
        height: u64,
        prev_hash: Hash32,
        timestamp: Duration,
        proposer: &str,
        shard: u32,
        tx_ids: Vec<TxId>,
        valid: Vec<bool>,
    ) -> Self {
        assert_eq!(tx_ids.len(), valid.len(), "tx_ids and valid must align");
        let merkle_root = hammer_crypto::merkle::merkle_root(&tx_ids);
        Block {
            header: BlockHeader {
                height,
                prev_hash,
                merkle_root,
                timestamp,
                proposer: proposer.to_owned(),
                shard,
            },
            tx_ids,
            valid,
        }
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.tx_ids.len()
    }

    /// Whether the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.tx_ids.is_empty()
    }

    /// Recomputes the Merkle root and compares it to the header.
    pub fn verify_merkle_root(&self) -> bool {
        hammer_crypto::merkle::merkle_root(&self.tx_ids) == self.header.merkle_root
    }

    /// Iterates `(tx_id, valid)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (TxId, bool)> + '_ {
        self.tx_ids.iter().copied().zip(self.valid.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallbank::Op;
    use hammer_crypto::Keypair;

    fn sample_tx(nonce: u64) -> Transaction {
        Transaction {
            client_id: 1,
            server_id: 2,
            nonce,
            op: Op::DepositChecking {
                account: Address::from_name("alice"),
                amount: 100,
            },
            chain_name: "testchain".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
    }

    #[test]
    fn address_from_name_deterministic() {
        assert_eq!(Address::from_name("alice"), Address::from_name("alice"));
        assert_ne!(Address::from_name("alice"), Address::from_name("bob"));
    }

    #[test]
    fn tx_id_depends_on_all_fields() {
        let base = sample_tx(1);
        let mut other = sample_tx(1);
        other.client_id = 9;
        assert_ne!(base.id(), other.id());
        let mut other = sample_tx(1);
        other.chain_name = "x".to_owned();
        assert_ne!(base.id(), other.id());
        assert_ne!(sample_tx(1).id(), sample_tx(2).id());
        assert_eq!(sample_tx(1).id(), sample_tx(1).id());
    }

    #[test]
    fn sign_and_verify() {
        let params = SigParams::fast();
        let kp = Keypair::from_seed(5);
        let signed = sample_tx(3).sign(&kp, &params);
        assert!(signed.verify(&params));
        assert_eq!(signed.id, signed.tx.id());
    }

    #[test]
    fn tampered_signed_tx_fails_verify() {
        let params = SigParams::fast();
        let kp = Keypair::from_seed(5);
        let mut signed = sample_tx(3).sign(&kp, &params);
        signed.tx.nonce = 99;
        assert!(!signed.verify(&params));
    }

    #[test]
    fn block_merkle_root_verifies() {
        let ids: Vec<TxId> = (0..5).map(|i| sample_tx(i).id()).collect();
        let valid = vec![true; 5];
        let block = Block::new(1, [0; 32], Duration::from_secs(1), "node-0", 0, ids, valid);
        assert!(block.verify_merkle_root());
        assert_eq!(block.len(), 5);
    }

    #[test]
    fn tampered_block_fails_merkle_check() {
        let ids: Vec<TxId> = (0..5).map(|i| sample_tx(i).id()).collect();
        let mut block = Block::new(
            1,
            [0; 32],
            Duration::from_secs(1),
            "node-0",
            0,
            ids,
            vec![true; 5],
        );
        block.tx_ids[0] = sample_tx(99).id();
        assert!(!block.verify_merkle_root());
    }

    #[test]
    fn header_hash_changes_with_height() {
        let ids: Vec<TxId> = vec![sample_tx(0).id()];
        let b1 = Block::new(
            1,
            [0; 32],
            Duration::from_secs(1),
            "n",
            0,
            ids.clone(),
            vec![true],
        );
        let b2 = Block::new(2, [0; 32], Duration::from_secs(1), "n", 0, ids, vec![true]);
        assert_ne!(b1.header.hash(), b2.header.hash());
    }

    #[test]
    #[should_panic(expected = "tx_ids and valid must align")]
    fn block_rejects_mismatched_validity() {
        let _ = Block::new(
            1,
            [0; 32],
            Duration::ZERO,
            "n",
            0,
            vec![sample_tx(0).id()],
            vec![],
        );
    }

    #[test]
    fn txid_display_and_short() {
        let id = sample_tx(0).id();
        assert_eq!(id.to_string().len(), 64);
        assert_eq!(id.short().len(), 8);
        assert!(id.to_string().starts_with(&id.short()));
    }

    /// Ids, roots and block hashes as the parent commit produced them:
    /// the hash kernel and the Merkle fold may change, their output not.
    /// The signature over the id is an independent SHA-256 reference's
    /// (the script is in CHANGES.md).
    #[test]
    fn id_root_and_block_hash_golden_vectors() {
        let tx = sample_tx(3);
        assert_eq!(
            tx.id().to_string(),
            "7691197c0fe0b31522a983863f29366092dd51266d48067fe6f10e27e76efc81"
        );
        let signed = tx.sign(&Keypair::from_seed(5), &SigParams::realistic());
        assert_eq!(
            (signed.signature.r, signed.signature.s),
            (0x15d2_de5a_278e_937c, 0x0044_69a7_5188_3ef2)
        );
        let ids: Vec<TxId> = (0..5).map(|i| sample_tx(i).id()).collect();
        let block = Block::new(
            7,
            [9u8; 32],
            Duration::from_millis(1234),
            "node-0",
            3,
            ids,
            vec![true; 5],
        );
        assert_eq!(
            to_hex(&block.header.merkle_root),
            "d1917060cbc3521e3dcc610eff2f2ae78f66f02a9bbec2e7764fde72169734f4"
        );
        assert_eq!(
            to_hex(&block.header.hash()),
            "cc2d59211a771e3f448d686dd71648a06cb9bb098de317af385c4aedc0672ae7"
        );
    }

    /// A body changed with its id recomputed to match keeps a signature
    /// over the old id: both verifiers refuse it. The signature is over
    /// the id itself.
    #[test]
    fn the_signature_is_over_the_id() {
        let params = SigParams::fast();
        let kp = Keypair::from_seed(5);
        let mut buf = Vec::new();
        let mut txs: Vec<SignedTransaction> = (0..5)
            .map(|i| sample_tx(i).sign_with_buf(&kp, &params, &mut buf))
            .collect();
        for s in &txs {
            assert!(kp.public().verify(&s.id.0, &s.signature, &params));
        }
        txs[2].tx.nonce = 99;
        txs[2].id = txs[2].tx.id();
        assert_eq!(
            (txs[2].verify(&params), verify_signed_batch(&txs, &params)),
            (false, vec![true, true, false, true, true])
        );
    }

    #[test]
    fn signable_bytes_into_matches_signable_bytes() {
        let tx = sample_tx(7);
        let mut buf = b"prefix".to_vec();
        tx.signable_bytes_into(&mut buf);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(&buf[6..], tx.signable_bytes().as_slice());
    }

    #[test]
    fn verify_signed_batch_matches_scalar_verify() {
        let params = SigParams::fast();
        let signer = Keypair::from_seed(5);
        let other = Keypair::from_seed(6);
        // Many txs under one key so the batch path builds a shared table,
        // plus one under a second key that stays on the scalar path.
        let mut txs: Vec<SignedTransaction> = (0..6)
            .map(|i| sample_tx(i).sign(&signer, &params))
            .collect();
        txs.push(sample_tx(100).sign(&other, &params));
        // Corrupt one payload (id mismatch) and one signature.
        txs[2].tx.nonce = 999;
        txs[4].signature.s ^= 1;

        let verdicts = verify_signed_batch(&txs, &params);
        assert_eq!(verdicts.len(), txs.len());
        for (tx, verdict) in txs.iter().zip(&verdicts) {
            assert_eq!(*verdict, tx.verify(&params));
        }
        assert!(!verdicts[2]);
        assert!(!verdicts[4]);
        assert!(verdicts[0] && verdicts[6]);
    }

    /// A signature whose `s` is re-encoded as `s + GROUP_ORDER` still
    /// satisfies the verification equation; neither check accepts it.
    #[test]
    fn second_encoding_of_a_signature_is_refused() {
        let params = SigParams::fast();
        let signer = Keypair::from_seed(5);
        let mut txs: Vec<SignedTransaction> = (0..5)
            .map(|i| sample_tx(i).sign(&signer, &params))
            .collect();
        txs[1].signature.s += hammer_crypto::sig::GROUP_ORDER;
        assert_eq!(
            (txs[1].verify(&params), verify_signed_batch(&txs, &params)),
            (false, vec![true, false, true, true, true])
        );
    }

    #[test]
    fn verify_signed_batch_empty() {
        assert!(verify_signed_batch(&[], &SigParams::fast()).is_empty());
    }
}
