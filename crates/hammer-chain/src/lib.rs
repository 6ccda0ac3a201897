//! Common blockchain building blocks shared by every simulated chain in the
//! Hammer evaluation framework.
//!
//! The paper evaluates four very different systems — Ethereum (PoW),
//! Hyperledger Fabric (execute-order-validate), Neuchain (deterministic
//! ordering) and Meepo (sharded consortium) — through one generic driver.
//! This crate provides everything those simulators share:
//!
//! * [`types`] — addresses, transaction ids, transactions, blocks.
//! * [`smallbank`] — the SmallBank contract operations (the paper's
//!   workload) plus a YCSB-style KV extension.
//! * [`state`] — a versioned world state with read/write-set tracking
//!   (Fabric-style MVCC validation needs versions).
//! * [`ledger`] — an append-only block store with hash-chain verification.
//! * [`mempool`] — a bounded transaction pool with de-duplication.
//! * [`client`] — the [`client::BlockchainClient`] trait, the *generic
//!   interface* of the paper (§III-A2), which both the driver and the RPC
//!   facade program against, plus commit-event subscriptions used by
//!   Caliper-style interactive testing.
//! * [`codec`] — JSON encodings of the wire types.
//! * [`rpc_adapter`] — the wire table: one entry per JSON-RPC method of
//!   the generic interface, from which both the server handler and the
//!   client call are derived.
//! * [`remote`] — [`remote::RemoteChain`], the generic interface
//!   re-imported over either transport (in-process, or real TCP to a
//!   `node-host` process), with restart-aware height virtualisation and
//!   graceful degradation during fault windows.
//! * [`kernel`] — the chain-node runtime: thread lifecycle with joined
//!   shutdown, fault-gated mempool ingress, sealed-block accounting and
//!   observability, and gossip accounting — everything chain-agnostic, so a
//!   simulator reduces to a [`kernel::ConsensusPolicy`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod events;
pub mod kernel;
pub mod ledger;
pub mod mempool;
pub mod remote;
pub mod rpc_adapter;
pub mod smallbank;
pub mod state;
pub mod types;

pub use client::{
    check_node_ingress, Architecture, BlockchainClient, ChainError, CommitEvent, ErrorKind,
};
pub use kernel::{
    ChainNode, ConsensusPolicy, Kernel, KernelStats, NodeKernelBuilder, Round, ShardCtx, SimChain,
    Worker,
};
pub use ledger::Ledger;
pub use mempool::Mempool;
pub use remote::RemoteChain;
pub use smallbank::{ExecError, Op, OpOutput};
pub use state::{RwSet, VersionedState};
pub use types::{Address, Block, BlockHeader, SignedTransaction, Transaction, TxId, TxStatus};
