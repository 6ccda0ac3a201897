//! The generic blockchain interface (the paper's §III-A2).
//!
//! Every simulated chain implements [`BlockchainClient`]. The Hammer driver
//! programs against this trait only, which is what lets one framework
//! evaluate sharded and non-sharded systems alike. The
//! [`crate::rpc_adapter`] module additionally exposes any implementation
//! over JSON-RPC, mirroring how the real framework bridges SDKs written in
//! different languages.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use hammer_net::{NodeFault, SimNetwork};

use crate::mempool::MempoolError;
use crate::types::{Block, SignedTransaction, TxId};

/// Maps an active fault on `node` to the ingress error a caller would see:
/// a crashed node refuses service ([`ChainError::Unavailable`]) while a
/// blackholed one leaves the RPC hanging until it times out
/// ([`ChainError::Transport`]). Chain simulators call this at the top of
/// [`BlockchainClient::submit`] so scripted outages surface as transient,
/// retryable errors instead of silent acceptance.
pub(crate) fn check_node_ingress(net: &SimNetwork, node: &str) -> Result<(), ChainError> {
    match net.node_fault(node) {
        Some(NodeFault::Crashed) => Err(ChainError::unavailable(node)),
        Some(NodeFault::Unreachable) => Err(ChainError::transport(format!(
            "rpc timeout: node {node} unreachable"
        ))),
        None => Ok(()),
    }
}

/// Whether a chain is sharded, and into how many shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// A single ledger replicated on every node.
    NonSharded,
    /// The ledger is split into `shards` shards.
    Sharded {
        /// Number of shards.
        shards: u32,
    },
}

impl Architecture {
    /// Number of independent ledgers this architecture maintains.
    pub fn shard_count(&self) -> u32 {
        match self {
            Architecture::NonSharded => 1,
            Architecture::Sharded { shards } => *shards,
        }
    }
}

/// Coarse classification of a [`ChainError`], driving retry decisions.
///
/// Submission workers never match `ChainError` variants directly — new
/// fault variants must not break downstream code — so every retry
/// decision flows through [`ChainError::kind`] /
/// [`ChainError::is_retryable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A temporary condition (node outage, RPC timeout, transport hiccup);
    /// resubmitting the same transaction later can succeed.
    Transient,
    /// The transaction itself (or the request) can never succeed:
    /// duplicate, bad signature, unknown shard, chain shut down.
    Fatal,
    /// The node is alive but overloaded (mempool full); backing off and
    /// retrying is the intended response.
    Backpressure,
}

/// Errors surfaced through the generic interface.
///
/// The enum is `#[non_exhaustive]`: downstream crates classify errors via
/// [`ChainError::kind`] and the predicate/constructor helpers instead of
/// matching variants, so new fault modes can be added without breaking
/// them. Direct variant matching is reserved for `hammer-chain` itself
/// (the RPC adapter's wire mapping).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChainError {
    /// The node rejected the transaction (mempool full / duplicate).
    Rejected(MempoolError),
    /// The signature did not verify.
    BadSignature,
    /// The requested shard does not exist.
    UnknownShard(u32),
    /// The chain has been shut down.
    Shutdown,
    /// Transport-level failure (RPC framing, serialisation, timeouts).
    Transport(String),
    /// The target node is down for a fault window; the chain itself is
    /// expected to recover once the node restarts.
    Unavailable {
        /// Endpoint name of the unavailable node.
        node: String,
    },
    /// Wire-protocol violation: the peer sent bytes that cannot be a
    /// well-formed frame or response (oversized length header, garbage
    /// framing, mismatched call id). Unlike [`ChainError::Transport`]
    /// this is *fatal*: a peer speaking garbage will not start speaking
    /// sense on retry, so the connection is dropped and the request
    /// fails.
    Protocol(String),
}

impl ChainError {
    /// A rejection carrying the mempool's reason.
    pub fn rejected(reason: MempoolError) -> Self {
        ChainError::Rejected(reason)
    }

    /// A signature-verification failure.
    pub(crate) fn bad_signature() -> Self {
        ChainError::BadSignature
    }

    /// A request for a shard the chain does not have.
    pub(crate) fn unknown_shard(shard: u32) -> Self {
        ChainError::UnknownShard(shard)
    }

    /// The chain has been shut down.
    pub fn shutdown() -> Self {
        ChainError::Shutdown
    }

    /// A transport-level failure.
    pub fn transport(msg: impl Into<String>) -> Self {
        ChainError::Transport(msg.into())
    }

    /// The target node is down (crash fault window).
    pub(crate) fn unavailable(node: impl Into<String>) -> Self {
        ChainError::Unavailable { node: node.into() }
    }

    /// A wire-protocol violation (fatal; see [`ChainError::Protocol`]).
    pub fn protocol(msg: impl Into<String>) -> Self {
        ChainError::Protocol(msg.into())
    }

    /// Classifies the error for retry decisions.
    pub fn kind(&self) -> ErrorKind {
        match self {
            ChainError::Rejected(MempoolError::Full) => ErrorKind::Backpressure,
            ChainError::Rejected(_) => ErrorKind::Fatal,
            ChainError::BadSignature => ErrorKind::Fatal,
            ChainError::UnknownShard(_) => ErrorKind::Fatal,
            ChainError::Shutdown => ErrorKind::Fatal,
            ChainError::Transport(_) => ErrorKind::Transient,
            ChainError::Unavailable { .. } => ErrorKind::Transient,
            ChainError::Protocol(_) => ErrorKind::Fatal,
        }
    }

    /// Whether resubmitting the same transaction later can succeed
    /// (i.e. the error is not [`ErrorKind::Fatal`]).
    pub fn is_retryable(&self) -> bool {
        !matches!(self.kind(), ErrorKind::Fatal)
    }

    /// The mempool's rejection reason, when this is a rejection.
    pub fn rejection(&self) -> Option<MempoolError> {
        match self {
            ChainError::Rejected(e) => Some(*e),
            _ => None,
        }
    }

    /// The unknown shard id, when this is a shard-routing failure.
    pub fn shard(&self) -> Option<u32> {
        match self {
            ChainError::UnknownShard(s) => Some(*s),
            _ => None,
        }
    }

    /// Whether this is the shutdown error.
    pub fn is_shutdown(&self) -> bool {
        matches!(self, ChainError::Shutdown)
    }

    /// Whether this is a node-outage error.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, ChainError::Unavailable { .. })
    }
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Rejected(e) => write!(f, "transaction rejected: {e}"),
            ChainError::BadSignature => write!(f, "invalid signature"),
            ChainError::UnknownShard(s) => write!(f, "unknown shard {s}"),
            ChainError::Shutdown => write!(f, "chain has shut down"),
            ChainError::Transport(msg) => write!(f, "transport error: {msg}"),
            ChainError::Unavailable { node } => write!(f, "node {node} is unavailable"),
            ChainError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A per-transaction commit notification: one entry of a sealed block, as
/// the interactive (Caliper-style) listener holds it in its SDK buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitEvent {
    /// The committed transaction.
    pub tx_id: TxId,
    /// Whether it executed successfully (false = validation failure).
    pub success: bool,
    /// Height of the containing block.
    pub block_height: u64,
    /// Shard that committed it.
    pub shard: u32,
    /// Simulated commit time.
    pub committed_at: Duration,
}

/// The generic interface every system under test implements.
///
/// Methods take `&self`; implementations are internally synchronised and
/// shared across driver threads.
pub trait BlockchainClient: Send + Sync {
    /// The chain's display name (e.g. `"ethereum-sim"`).
    fn chain_name(&self) -> &str;

    /// Sharded or non-sharded.
    fn architecture(&self) -> Architecture;

    /// Submits a signed transaction; returns its id on acceptance.
    ///
    /// Acceptance means *queued*, not committed — commitment is observed
    /// later by reading sealed blocks ([`BlockchainClient::latest_height`]
    /// and [`BlockchainClient::blocks`]), in every testing mode.
    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError>;

    /// Submits `txs` in order and answers one result per transaction, in
    /// the same order: each is what [`BlockchainClient::submit`] would
    /// have answered for it at that point (an id seen earlier in the batch
    /// is a duplicate; a mempool that fills mid-batch refuses the rest).
    /// The default calls `submit` once per transaction; a client whose
    /// calls cost a round trip sends the batch as one.
    fn submit_batch(&self, txs: Vec<SignedTransaction>) -> Vec<Result<TxId, ChainError>> {
        txs.into_iter().map(|tx| self.submit(tx)).collect()
    }

    /// Height of the newest committed block on `shard`.
    fn latest_height(&self, shard: u32) -> Result<u64, ChainError>;

    /// The committed block at `height` on `shard`, if any.
    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError>;

    /// The committed blocks at `heights` on `shard` that exist, in height
    /// order: how the polling monitor reads. The default asks
    /// [`BlockchainClient::block_at`] once per height and moves each owned
    /// block into its `Arc`; a chain that stores `Arc<Block>` answers with
    /// pointer copies.
    fn blocks(
        &self,
        shard: u32,
        heights: RangeInclusive<u64>,
    ) -> Result<Vec<Arc<Block>>, ChainError> {
        heights
            .filter_map(|height| self.block_at(shard, height).transpose())
            .map(|block| block.map(Arc::new))
            .collect()
    }

    /// Number of transactions waiting in the mempool(s).
    fn pending_txs(&self) -> Result<usize, ChainError>;

    /// A commit subscription that pushes nothing (its sender is already
    /// gone): every testing mode observes commits by reading sealed blocks.
    /// Kept for wrappers that forward it; no backend overrides it.
    fn subscribe_commits(&self) -> Receiver<CommitEvent> {
        crossbeam::channel::unbounded().1
    }

    /// Shuts the chain down, stopping block production.
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_shard_count() {
        assert_eq!(Architecture::NonSharded.shard_count(), 1);
        assert_eq!(Architecture::Sharded { shards: 4 }.shard_count(), 4);
    }

    #[test]
    fn chain_error_display() {
        assert_eq!(
            ChainError::rejected(MempoolError::Full).to_string(),
            "transaction rejected: mempool is full"
        );
        assert_eq!(ChainError::unknown_shard(3).to_string(), "unknown shard 3");
        assert!(ChainError::transport("boom").to_string().contains("boom"));
        assert_eq!(
            ChainError::unavailable("eth-node-0").to_string(),
            "node eth-node-0 is unavailable"
        );
    }

    #[test]
    fn error_kinds_drive_retryability() {
        let cases = [
            (
                ChainError::rejected(MempoolError::Full),
                ErrorKind::Backpressure,
                true,
            ),
            (
                ChainError::rejected(MempoolError::Duplicate),
                ErrorKind::Fatal,
                false,
            ),
            (
                ChainError::rejected(MempoolError::BadSignature),
                ErrorKind::Fatal,
                false,
            ),
            (ChainError::bad_signature(), ErrorKind::Fatal, false),
            (ChainError::unknown_shard(9), ErrorKind::Fatal, false),
            (ChainError::shutdown(), ErrorKind::Fatal, false),
            (ChainError::transport("timeout"), ErrorKind::Transient, true),
            (
                ChainError::unavailable("peer-0"),
                ErrorKind::Transient,
                true,
            ),
            (
                ChainError::protocol("oversized frame"),
                ErrorKind::Fatal,
                false,
            ),
        ];
        for (err, kind, retryable) in cases {
            assert_eq!(err.kind(), kind, "{err}");
            assert_eq!(err.is_retryable(), retryable, "{err}");
        }
    }

    #[test]
    fn error_accessors_expose_payloads() {
        assert_eq!(
            ChainError::rejected(MempoolError::Duplicate).rejection(),
            Some(MempoolError::Duplicate)
        );
        assert_eq!(ChainError::shutdown().rejection(), None);
        assert_eq!(ChainError::unknown_shard(2).shard(), Some(2));
        assert_eq!(ChainError::transport("x").shard(), None);
        assert!(ChainError::shutdown().is_shutdown());
        assert!(ChainError::unavailable("n").is_unavailable());
        assert!(!ChainError::shutdown().is_unavailable());
    }
}
