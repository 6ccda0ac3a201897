//! The generic interface on the wire: one table of JSON-RPC methods.
//!
//! Every method the chain interface speaks is one [`Method`] entry below:
//! its name, how its params travel and how its result travels. Both halves
//! are derived from that entry — [`serve`] / [`serve_sim`] register a
//! handler that decodes the params and encodes the result, and
//! [`Method::call`] encodes the params and decodes the result — so the
//! two sides cannot disagree, and nothing else in the workspace spells a
//! method name or a field of these messages (a fault plan's fields live
//! with its type, in `hammer_net::fault`).
//! [`crate::remote::RemoteChain`] is the one [`BlockchainClient`] built on
//! the client half, over either transport.
//!
//! Addresses travel as decimal strings (the [`codec`] id convention);
//! shards, heights and balances as JSON integers. Everything read off the
//! wire is range-checked — a shard that does not fit `u32` is an
//! `invalid params` error, never shard 0.

use std::sync::Arc;

use hammer_net::{FaultPlan, TcpRpcClient};
use hammer_rpc::json::Value;
use hammer_rpc::jsonrpc::RpcError;
use hammer_rpc::transport::{RpcClient, RpcServer};

use crate::client::{Architecture, BlockchainClient, ChainError};
use crate::codec;
use crate::kernel::SimChain;
use crate::ledger::LedgerError;
use crate::mempool::MempoolError;
use crate::state::AccountState;
use crate::types::{Address, Block, SignedTransaction, TxId};

/// A connection that carries one call and flattens every failure —
/// transport, framing, or the peer's own error object — into
/// [`ChainError`]. All [`crate::remote::RemoteChain`] needs from a
/// transport.
pub trait Transport: Send + Sync + 'static {
    /// Calls `method` with `params` and returns the result value.
    fn call(&self, method: &str, params: Value) -> Result<Value, ChainError>;
}

impl Transport for RpcClient {
    fn call(&self, method: &str, params: Value) -> Result<Value, ChainError> {
        RpcClient::call(self, method, params).map_err(rpc_error_to_chain)
    }
}

impl Transport for TcpRpcClient {
    fn call(&self, method: &str, params: Value) -> Result<Value, ChainError> {
        TcpRpcClient::call(self, method, params)
            .map_err(|e| {
                if e.is_protocol() {
                    ChainError::protocol(e.to_string())
                } else {
                    ChainError::transport(e.to_string())
                }
            })?
            .map_err(rpc_error_to_chain)
    }
}

// ---- errors -------------------------------------------------------------

/// Application error codes used on the wire.
mod codes {
    pub const REJECTED_FULL: i64 = -1001;
    pub const REJECTED_DUP: i64 = -1002;
    pub const BAD_SIGNATURE: i64 = -1003;
    pub const UNKNOWN_SHARD: i64 = -1004;
    pub const SHUTDOWN: i64 = -1005;
    pub const UNAVAILABLE: i64 = -1006;
    pub const PROTOCOL: i64 = -1007;
    pub const REJECTED_BAD_SIGNATURE: i64 = -1008;
    pub const TRANSPORT: i64 = -1099;
}

// The wire mapping is the one place direct variant matching is allowed:
// the adapter lives inside `hammer-chain`, so adding a variant updates
// the enum and this table in the same change. A variant's payload rides
// in `data`, so the two functions are inverses (table-tested).
fn chain_error_to_rpc(err: ChainError) -> RpcError {
    let code = match &err {
        ChainError::Rejected(MempoolError::Full) => codes::REJECTED_FULL,
        ChainError::Rejected(MempoolError::Duplicate) => codes::REJECTED_DUP,
        ChainError::Rejected(MempoolError::BadSignature) => codes::REJECTED_BAD_SIGNATURE,
        ChainError::BadSignature => codes::BAD_SIGNATURE,
        ChainError::UnknownShard(_) => codes::UNKNOWN_SHARD,
        ChainError::Shutdown => codes::SHUTDOWN,
        ChainError::Unavailable { .. } => codes::UNAVAILABLE,
        ChainError::Transport(_) => codes::TRANSPORT,
        ChainError::Protocol(_) => codes::PROTOCOL,
    };
    let data = match &err {
        ChainError::UnknownShard(shard) => Some(("shard", Value::from(u64::from(*shard)))),
        ChainError::Unavailable { node } => Some(("node", Value::from(node.as_str()))),
        _ => None,
    };
    let message = match err {
        ChainError::Transport(msg) | ChainError::Protocol(msg) => msg,
        other => other.to_string(),
    };
    RpcError {
        data: data.map(|field| Value::object([field])),
        ..RpcError::application(code, message)
    }
}

fn rpc_error_to_chain(err: RpcError) -> ChainError {
    let data = |key: &str| err.data.as_ref().and_then(|d| d.get(key));
    match err.code.code() {
        codes::REJECTED_FULL => ChainError::rejected(MempoolError::Full),
        codes::REJECTED_DUP => ChainError::rejected(MempoolError::Duplicate),
        codes::REJECTED_BAD_SIGNATURE => ChainError::rejected(MempoolError::BadSignature),
        codes::BAD_SIGNATURE => ChainError::bad_signature(),
        codes::UNKNOWN_SHARD => match data("shard").and_then(as_u32) {
            Some(shard) => ChainError::unknown_shard(shard),
            None => ChainError::protocol("unknown-shard error without a shard"),
        },
        codes::SHUTDOWN => ChainError::shutdown(),
        codes::UNAVAILABLE => match data("node").and_then(Value::as_str) {
            Some(node) => ChainError::unavailable(node),
            None => ChainError::transport(err.to_string()),
        },
        codes::PROTOCOL => ChainError::protocol(err.message),
        codes::TRANSPORT => ChainError::transport(err.message),
        // Not a chain error at all (method not found, invalid params, a
        // parse failure): keep the code in the text.
        _ => ChainError::transport(err.to_string()),
    }
}

// ---- codecs: how one Rust value travels as JSON ------------------------

/// Used for a method's params in one direction and its result in the
/// other; `decode` says why when the value is malformed.
struct Codec<T> {
    encode: fn(&T) -> Value,
    decode: fn(&Value) -> Result<T, String>,
}

fn as_u32(v: &Value) -> Option<u32> {
    v.as_u64().and_then(|n| u32::try_from(n).ok())
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    let field = v.get(key).and_then(Value::as_u64);
    field.ok_or_else(|| format!("missing '{key}' (u64)"))
}

/// `shard`, defaulting to 0 when absent (non-sharded callers may omit it).
fn shard_field(v: &Value) -> Result<u32, String> {
    match v.get("shard") {
        None => Ok(0),
        Some(shard) => as_u32(shard).ok_or_else(|| "'shard' is not a u32".to_owned()),
    }
}

fn account_field(v: &Value) -> Result<Address, String> {
    let account = v.get("account").and_then(Value::as_str);
    let account = account.and_then(|s| s.parse().ok()).map(Address);
    account.ok_or_else(|| "missing 'account' (u64 string)".to_owned())
}

/// More shards than any deployment has; bounds what a peer's
/// `architecture` answer can make the client allocate per shard.
const MAX_SHARDS: u32 = 1 << 16;

const NONE: Codec<()> = Codec {
    encode: |()| Value::Null,
    decode: |_| Ok(()),
};
const SHARD: Codec<u32> = Codec {
    encode: |shard| Value::object([("shard", Value::from(u64::from(*shard)))]),
    decode: shard_field,
};
const SHARD_HEIGHT: Codec<(u32, u64)> = Codec {
    encode: |(shard, height)| {
        Value::object([
            ("shard", Value::from(u64::from(*shard))),
            ("height", Value::from(*height)),
        ])
    },
    decode: |v| Ok((shard_field(v)?, u64_field(v, "height")?)),
};
const SIGNED_TX: Codec<SignedTransaction> = Codec {
    encode: codec::encode_signed_tx,
    decode: |v| codec::decode_signed_tx(v).map_err(|e| e.to_string()),
};
const ACCOUNT: Codec<Address> = Codec {
    encode: |account| Value::object([("account", Value::from(account.0.to_string()))]),
    decode: account_field,
};
const SEED: Codec<(Address, u64, u64)> = Codec {
    encode: |(account, checking, savings)| {
        Value::object([
            ("account", Value::from(account.0.to_string())),
            ("checking", Value::from(*checking)),
            ("savings", Value::from(*savings)),
        ])
    },
    decode: |v| {
        Ok((
            account_field(v)?,
            u64_field(v, "checking")?,
            u64_field(v, "savings")?,
        ))
    },
};
const NAME: Codec<String> = Codec {
    encode: |name| Value::from(name.as_str()),
    decode: |v| {
        let name = v.as_str().map(str::to_owned);
        name.ok_or_else(|| "not a string".to_owned())
    },
};
const ARCHITECTURE_SHAPE: Codec<Architecture> = Codec {
    encode: |architecture| match architecture {
        Architecture::NonSharded => Value::object([("type", Value::from("non_sharded"))]),
        Architecture::Sharded { shards } => Value::object([
            ("type", Value::from("sharded")),
            ("shards", Value::from(u64::from(*shards))),
        ]),
    },
    decode: |v| match v.get("type").and_then(Value::as_str) {
        Some("non_sharded") => Ok(Architecture::NonSharded),
        Some("sharded") => {
            let shards = v.get("shards").and_then(as_u32);
            let shards = shards.filter(|shards| *shards <= MAX_SHARDS);
            shards
                .map(|shards| Architecture::Sharded { shards })
                .ok_or_else(|| "'shards' missing or out of range".to_owned())
        }
        _ => Err("unknown 'type'".to_owned()),
    },
};
const TX_ID: Codec<TxId> = Codec {
    encode: |id| Value::from(hammer_crypto::to_hex(id.as_bytes())),
    decode: |v| codec::decode_tx_id(v).map_err(|e| e.to_string()),
};
const COUNT: Codec<u64> = Codec {
    encode: |n| Value::from(*n),
    decode: |v| v.as_u64().ok_or_else(|| "non-numeric result".to_owned()),
};
const BLOCK: Codec<Option<Block>> = Codec {
    encode: |block| block.as_ref().map_or(Value::Null, codec::encode_block),
    decode: |v| match v {
        Value::Null => Ok(None),
        block => codec::decode_block(block)
            .map(Some)
            .map_err(|e| e.to_string()),
    },
};
const ACCOUNT_STATE: Codec<Option<AccountState>> = Codec {
    encode: |state| match state {
        Some(state) => Value::object([
            ("checking", Value::from(state.checking)),
            ("savings", Value::from(state.savings)),
            ("version", Value::from(state.version)),
        ]),
        None => Value::Null,
    },
    decode: |v| match v {
        Value::Null => Ok(None),
        state => Ok(Some(AccountState {
            checking: u64_field(state, "checking")?,
            savings: u64_field(state, "savings")?,
            version: u64_field(state, "version")?,
        })),
    },
};
const NODES: Codec<Vec<String>> = Codec {
    encode: |nodes| Value::Array(nodes.iter().map(|n| Value::from(n.as_str())).collect()),
    decode: |v| {
        let nodes = v.as_array().ok_or("not an array")?.iter();
        let nodes = nodes.map(|n| n.as_str().map(str::to_owned));
        let nodes: Option<_> = nodes.collect();
        nodes.ok_or_else(|| "a node name is not a string".to_owned())
    },
};
/// A fault plan in its one JSON form (`hammer_net::fault`), read strictly.
const FAULT_PLAN: Codec<FaultPlan> = Codec {
    encode: FaultPlan::to_value,
    decode: FaultPlan::from_value,
};
/// `null` when every ledger verifies, else why one does not.
const LEDGER_CHECK: Codec<Result<(), LedgerError>> = Codec {
    encode: |check| match check {
        Ok(()) => Value::Null,
        Err(LedgerError::HeightMismatch { expected, got }) => Value::object([
            ("kind", Value::from("height_mismatch")),
            ("expected", Value::from(*expected)),
            ("got", Value::from(*got)),
        ]),
        Err(LedgerError::BrokenHashChain) => {
            Value::object([("kind", Value::from("broken_hash_chain"))])
        }
        Err(LedgerError::BadMerkleRoot) => {
            Value::object([("kind", Value::from("bad_merkle_root"))])
        }
    },
    decode: |v| match v.get("kind").and_then(Value::as_str) {
        None if v.is_null() => Ok(Ok(())),
        Some("height_mismatch") => Ok(Err(LedgerError::HeightMismatch {
            expected: u64_field(v, "expected")?,
            got: u64_field(v, "got")?,
        })),
        Some("broken_hash_chain") => Ok(Err(LedgerError::BrokenHashChain)),
        Some("bad_merkle_root") => Ok(Err(LedgerError::BadMerkleRoot)),
        _ => Err("unknown ledger-check answer".to_owned()),
    },
};

// ---- the method table ---------------------------------------------------

/// One wire method: its name and how its params and result travel.
pub struct Method<P, R> {
    /// The JSON-RPC method name.
    pub name: &'static str,
    params: Codec<P>,
    result: Codec<R>,
}

impl<P: 'static, R: 'static> Method<P, R> {
    /// The client half: encodes `params`, calls, decodes the result. A
    /// result that does not decode is a protocol violation.
    pub fn call(&self, transport: &impl Transport, params: &P) -> Result<R, ChainError> {
        let answer = transport.call(self.name, (self.params.encode)(params))?;
        (self.result.decode)(&answer)
            .map_err(|why| ChainError::protocol(format!("{}: {why}", self.name)))
    }

    /// The server half: registers a handler that decodes the params (or
    /// answers `invalid params`), runs `handler` on `chain` — the chain, or
    /// for [`INSTALL_FAULTS`] the network it runs on — and encodes what it
    /// returns.
    pub fn serve<T: ?Sized + Send + Sync + 'static>(
        &self,
        server: &RpcServer,
        chain: &Arc<T>,
        handler: fn(&T, P) -> Result<R, ChainError>,
    ) {
        let (chain, decode, encode) = (Arc::clone(chain), self.params.decode, self.result.encode);
        server.register(self.name, move |params| {
            let params = decode(&params).map_err(RpcError::invalid_params)?;
            let result = handler(&chain, params).map_err(chain_error_to_rpc)?;
            Ok(encode(&result))
        });
    }
}

const fn method<P, R>(name: &'static str, params: Codec<P>, result: Codec<R>) -> Method<P, R> {
    Method {
        name,
        params,
        result,
    }
}

/// The chain's display name.
pub const CHAIN_NAME: Method<(), String> = method("chain_name", NONE, NAME);
/// The chain's sharding model.
pub const ARCHITECTURE: Method<(), Architecture> = method("architecture", NONE, ARCHITECTURE_SHAPE);
/// Submits one signed transaction; answers its id.
pub const SUBMIT_TRANSACTION: Method<SignedTransaction, TxId> =
    method("submit_transaction", SIGNED_TX, TX_ID);
/// The height of the newest sealed block on a shard, as the peer counts.
pub const LATEST_HEIGHT: Method<u32, u64> = method("latest_height", SHARD, COUNT);
/// The block at `(shard, height)`, if the peer has one.
pub const GET_BLOCK: Method<(u32, u64), Option<Block>> = method("get_block", SHARD_HEIGHT, BLOCK);
/// Transactions pooled but not yet sealed.
pub const PENDING_TXS: Method<(), u64> = method("pending_txs", NONE, COUNT);
/// Installs a genesis allocation `(account, checking, savings)`.
pub const SEED_ACCOUNT: Method<(Address, u64, u64), ()> = method("seed_account", SEED, NONE);
/// Reads one account's state; `None` when the peer has no such account.
pub const GET_ACCOUNT: Method<Address, Option<AccountState>> =
    method("get_account", ACCOUNT, ACCOUNT_STATE);
/// The peer's ingress endpoint names.
pub const INGRESS_NODES: Method<(), Vec<String>> = method("ingress_nodes", NONE, NODES);
/// The peer's sealer endpoint names.
pub const SEALER_NODES: Method<(), Vec<String>> = method("sealer_nodes", NONE, NODES);
/// Asks the peer to verify every shard's hash chain.
pub const VERIFY_LEDGERS: Method<(), Result<(), LedgerError>> =
    method("verify_ledgers", NONE, LEDGER_CHECK);
/// The peer's monotone progress probe.
pub const PROGRESS_MARK: Method<(), u64> = method("progress_mark", NONE, COUNT);
/// Stops block production on the peer. Named `shutdown_chain` (not
/// `shutdown`) so a typo'd method list can never confuse stopping the
/// chain with closing a connection.
pub const SHUTDOWN_CHAIN: Method<(), ()> = method("shutdown_chain", NONE, NONE);
/// Installs a resolved fault plan on the network the peer's chain runs on.
/// Not part of [`serve_sim`]: a chain does not own its network, so whoever
/// hosts both (`node-host`) serves it.
pub const INSTALL_FAULTS: Method<FaultPlan, ()> = method("install_faults", FAULT_PLAN, NONE);

/// Exposes `chain` over JSON-RPC with the generic method set:
/// `chain_name`, `architecture`, `submit_transaction`, `latest_height`,
/// `get_block`, `pending_txs`.
pub fn serve(chain: Arc<dyn BlockchainClient>) -> RpcServer {
    let server = RpcServer::new(chain.chain_name());
    CHAIN_NAME.serve(&server, &chain, |c, ()| Ok(c.chain_name().to_owned()));
    ARCHITECTURE.serve(&server, &chain, |c, ()| Ok(c.architecture()));
    SUBMIT_TRANSACTION.serve(&server, &chain, |c, tx| c.submit(tx));
    LATEST_HEIGHT.serve(&server, &chain, |c, shard| c.latest_height(shard));
    GET_BLOCK.serve(&server, &chain, |c, (shard, height)| {
        c.block_at(shard, height)
    });
    PENDING_TXS.serve(&server, &chain, |c, ()| Ok(c.pending_txs()? as u64));
    server
}

/// Exposes a full [`SimChain`] over JSON-RPC: everything [`serve`]
/// registers plus the deployment-facing methods a supervisor and remote
/// driver need — `seed_account`, `get_account`, `ingress_nodes`,
/// `sealer_nodes`, `verify_ledgers`, `progress_mark`, and
/// `shutdown_chain`. This is the method set a `node-host` process serves
/// over TCP.
pub fn serve_sim(chain: Arc<dyn SimChain>) -> RpcServer {
    let server = serve(Arc::clone(&chain) as Arc<dyn BlockchainClient>);
    SEED_ACCOUNT.serve(&server, &chain, |c, (account, checking, savings)| {
        c.seed_account(account, checking, savings);
        Ok(())
    });
    GET_ACCOUNT.serve(&server, &chain, |c, account| Ok(c.account(account)));
    INGRESS_NODES.serve(&server, &chain, |c, ()| Ok(c.ingress_nodes()));
    SEALER_NODES.serve(&server, &chain, |c, ()| Ok(c.sealer_nodes()));
    VERIFY_LEDGERS.serve(&server, &chain, |c, ()| Ok(c.verify_ledgers()));
    PROGRESS_MARK.serve(&server, &chain, |c, ()| Ok(c.progress_mark()));
    SHUTDOWN_CHAIN.serve(&server, &chain, |c, ()| {
        c.shutdown();
        Ok(())
    });
    server
}

/// Serves an [`RpcServer`]'s dispatch table over real TCP: the listener
/// hands each length-prefixed frame to
/// [`RpcServer::handle_bytes_into`] — the identical entry point the
/// in-process transport uses, so both deploy modes execute the same
/// dispatch and codec code on byte-identical JSON. The third parameter has
/// nothing in it; the frozen `driver_e2e` package passes it (ROADMAP 6b).
pub fn serve_tcp(
    server: RpcServer,
    addr: &str,
    _config: hammer_net::TcpServerConfig,
) -> std::io::Result<hammer_net::TcpRpcServer> {
    let handler: hammer_net::RawHandler =
        Arc::new(move |req: &[u8], out: &mut String| server.handle_bytes_into(req, out));
    hammer_net::TcpRpcServer::bind(addr, handler)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::CommitEvent;
    use crate::remote::RemoteChain;
    use crate::smallbank::Op;
    use crate::types::{Transaction, TxId};
    use crossbeam::channel::{unbounded, Receiver};
    use hammer_crypto::sig::SigParams;
    use hammer_crypto::Keypair;
    use hammer_net::SimNetwork;
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::time::Duration;

    /// The one in-memory chain the wire tests serve: two shards sharing a
    /// ledger that seals every submission into its own block.
    #[derive(Default)]
    pub(crate) struct MockChain {
        blocks: Mutex<Vec<Block>>,
        accounts: Mutex<HashMap<Address, AccountState>>,
    }

    impl BlockchainClient for MockChain {
        fn chain_name(&self) -> &str {
            "mock-chain"
        }
        fn architecture(&self) -> Architecture {
            Architecture::Sharded { shards: 2 }
        }
        fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
            let mut blocks = self.blocks.lock();
            let height = blocks.len() as u64 + 1;
            let prev = blocks.last().map(|b| b.header.hash()).unwrap_or([0; 32]);
            blocks.push(Block::new(
                height,
                prev,
                Duration::from_millis(height),
                "mock-node",
                0,
                vec![tx.id],
                vec![true],
            ));
            Ok(tx.id)
        }
        fn latest_height(&self, shard: u32) -> Result<u64, ChainError> {
            if shard > 1 {
                return Err(ChainError::UnknownShard(shard));
            }
            Ok(self.blocks.lock().len() as u64)
        }
        fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
            if shard > 1 {
                return Err(ChainError::UnknownShard(shard));
            }
            let index = usize::try_from(height).ok().and_then(|h| h.checked_sub(1));
            Ok(index.and_then(|i| self.blocks.lock().get(i).cloned()))
        }
        fn pending_txs(&self) -> Result<usize, ChainError> {
            Ok(0)
        }
        fn subscribe_commits(&self) -> Receiver<CommitEvent> {
            unbounded().1
        }
        fn shutdown(&self) {}
    }

    impl SimChain for MockChain {
        fn seed_account(&self, account: Address, checking: u64, savings: u64) {
            let state = AccountState {
                checking,
                savings,
                version: 1,
            };
            self.accounts.lock().insert(account, state);
        }
        fn account(&self, account: Address) -> Option<AccountState> {
            self.accounts.lock().get(&account).copied()
        }
        fn ingress_nodes(&self) -> Vec<String> {
            vec!["mock-node".to_owned()]
        }
        fn sealer_nodes(&self) -> Vec<String> {
            vec!["mock-node".to_owned()]
        }
        fn verify_ledgers(&self) -> Result<(), LedgerError> {
            Ok(())
        }
        fn progress_mark(&self) -> u64 {
            self.blocks.lock().len() as u64
        }
    }

    /// A fresh [`MockChain`] behind the full method set.
    pub(crate) fn serve_mock() -> (Arc<MockChain>, RpcServer) {
        let chain = Arc::new(MockChain::default());
        let server = serve_sim(Arc::clone(&chain) as Arc<dyn SimChain>);
        (chain, server)
    }

    /// Serves [`INSTALL_FAULTS`] beside the mock chain, the way `node-host`
    /// does: on the network the chain's one node is registered on.
    fn serve_faults(server: &RpcServer) -> Arc<SimNetwork> {
        let net = Arc::new(SimNetwork::ideal());
        net.register("mock-node");
        INSTALL_FAULTS.serve(server, &net, |net, plan| {
            let installed = net.try_install_faults(plan);
            installed.map_err(|e| ChainError::protocol(e.to_string()))
        });
        net
    }

    pub(crate) fn signed_tx(nonce: u64) -> SignedTransaction {
        Transaction {
            client_id: 1,
            server_id: 1,
            nonce,
            op: Op::KvPut {
                key: nonce,
                value: 7,
            },
            chain_name: "mock-chain".to_owned(),
            contract_name: "kv".to_owned(),
        }
        .sign(&Keypair::from_seed(3), &SigParams::fast())
    }

    #[test]
    fn every_chain_error_survives_the_wire() {
        let table = [
            ChainError::Rejected(MempoolError::Full),
            ChainError::Rejected(MempoolError::Duplicate),
            ChainError::Rejected(MempoolError::BadSignature),
            ChainError::BadSignature,
            ChainError::UnknownShard(5),
            ChainError::Shutdown,
            ChainError::Transport("connection reset".to_owned()),
            ChainError::Unavailable {
                node: "peer0".to_owned(),
            },
            ChainError::Protocol("oversized frame".to_owned()),
        ];
        // Fails to compile when a variant is added: give it a table row.
        let row = |err: &ChainError| match err {
            ChainError::Rejected(MempoolError::Full) => 0,
            ChainError::Rejected(MempoolError::Duplicate) => 1,
            ChainError::Rejected(MempoolError::BadSignature) => 2,
            ChainError::BadSignature => 3,
            ChainError::UnknownShard(_) => 4,
            ChainError::Shutdown => 5,
            ChainError::Transport(_) => 6,
            ChainError::Unavailable { .. } => 7,
            ChainError::Protocol(_) => 8,
        };
        for (i, err) in table.iter().enumerate() {
            assert_eq!(row(err), i);
            // Through the response text, as a transport carries it.
            let text = hammer_rpc::jsonrpc::RpcResponse::error(1, chain_error_to_rpc(err.clone()))
                .to_json();
            let back = hammer_rpc::jsonrpc::RpcResponse::parse(&text).unwrap();
            assert_eq!(&rpc_error_to_chain(back.outcome.unwrap_err()), err);
        }
    }

    #[test]
    fn errors_missing_their_payload_keep_their_kind() {
        let shard = rpc_error_to_chain(RpcError::application(codes::UNKNOWN_SHARD, "?"));
        assert_eq!(shard.kind(), crate::client::ErrorKind::Fatal);
        let node = rpc_error_to_chain(RpcError::application(codes::UNAVAILABLE, "?"));
        assert_eq!(node.kind(), crate::client::ErrorKind::Transient);
    }

    #[test]
    fn hostile_params_are_rejected_not_truncated() {
        let (chain, server) = serve_mock();
        chain.submit(signed_tx(1)).unwrap();
        let raw = server.client();
        let invalid = |method: &str, params: Value| {
            let err = raw.call(method, params).unwrap_err();
            assert_eq!(err.code.code(), -32602, "{method}: {err}");
            err.message
        };
        // 2^32 must not read as shard 0.
        let wide = Value::object([
            ("shard", Value::from(1u64 << 32)),
            ("height", Value::from(1)),
        ]);
        invalid(LATEST_HEIGHT.name, wide.clone());
        invalid(GET_BLOCK.name, wide);
        let negative = Value::object([("shard", Value::from(-1))]);
        invalid(LATEST_HEIGHT.name, negative);
        assert!(invalid(GET_BLOCK.name, Value::Null).contains("height"));
        let no_balances = Value::object([("account", Value::from("7"))]);
        invalid(SEED_ACCOUNT.name, no_balances);
        let numeric_account = Value::object([("account", Value::from(7))]);
        invalid(GET_ACCOUNT.name, numeric_account);
        // An omitted shard is shard 0.
        let height = raw.call(LATEST_HEIGHT.name, Value::Null).unwrap();
        assert_eq!(height, Value::Int(1));
    }

    /// A transport whose peer answers every call with the same value.
    struct Answers(Value);

    impl Transport for Answers {
        fn call(&self, _method: &str, _params: Value) -> Result<Value, ChainError> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn hostile_results_are_protocol_errors() {
        use crate::client::ErrorKind::Fatal;
        let sharded = |shards| {
            Answers(Value::object([
                ("type", Value::from("sharded")),
                ("shards", shards),
            ]))
        };
        let arch = |peer: Answers| ARCHITECTURE.call(&peer, &()).unwrap_err().kind();
        assert_eq!(arch(sharded(Value::from(1u64 << 32))), Fatal);
        assert_eq!(arch(sharded(Value::from(u64::from(MAX_SHARDS) + 1))), Fatal);
        assert_eq!(arch(sharded(Value::Null)), Fatal);
        assert_eq!(arch(Answers(Value::from("sharded"))), Fatal);
        let text = Answers(Value::from("seven"));
        assert_eq!(LATEST_HEIGHT.call(&text, &0).unwrap_err().kind(), Fatal);
        assert_eq!(GET_BLOCK.call(&text, &(0, 1)).unwrap_err().kind(), Fatal);
        let account = GET_ACCOUNT.call(&text, &Address(1));
        assert_eq!(account.unwrap_err().kind(), Fatal);
        // A ledger check that does not parse is not a passed check.
        assert!(VERIFY_LEDGERS.call(&text, &()).is_err());
    }

    #[test]
    fn every_ledger_check_survives_the_wire() {
        for check in [
            Ok(()),
            Err(LedgerError::HeightMismatch {
                expected: 3,
                got: 7,
            }),
            Err(LedgerError::BrokenHashChain),
            Err(LedgerError::BadMerkleRoot),
        ] {
            let wire = (LEDGER_CHECK.encode)(&check);
            assert_eq!((LEDGER_CHECK.decode)(&wire), Ok(check));
        }
    }

    /// Values shaped like wire messages: the field names the decoders look
    /// for, holding anything.
    fn arb_wire_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (0i64..5).prop_map(Value::Int),
            (-1e19f64..1e19f64).prop_map(Value::Float),
            "[0-9]{1,21}".prop_map(Value::String),
            "(sharded|non_sharded|height_mismatch|bad_merkle_root|kv_put|[a-f0-9]{64})"
                .prop_map(Value::String),
        ];
        let key = "(shard|shards|height|account|checking|savings|version|type|ok|error|kind\
                   |expected|got|id|tx|op|header|tx_ids|valid|signature|nonce|faults|node\
                   |start_ms|end_ms)";
        leaf.prop_recursive(2, 16, 5, move |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::vec((key, inner), 0..5).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_server_decoders_never_panic(params in arb_wire_value()) {
            let (_chain, server) = serve_mock();
            serve_faults(&server);
            let raw = server.client();
            for method in server.method_names() {
                let _ = raw.call(&method, params.clone());
            }
            prop_assert_eq!(server.method_names().len(), 14);
        }

        #[test]
        fn prop_client_decoders_never_panic(answer in arb_wire_value()) {
            let peer = Answers(answer);
            let _ = CHAIN_NAME.call(&peer, &());
            let _ = ARCHITECTURE.call(&peer, &());
            let _ = SUBMIT_TRANSACTION.call(&peer, &signed_tx(1));
            let _ = LATEST_HEIGHT.call(&peer, &0);
            let _ = GET_BLOCK.call(&peer, &(0, 1));
            let _ = PENDING_TXS.call(&peer, &());
            let _ = SEED_ACCOUNT.call(&peer, &(Address(1), 2, 3));
            let _ = GET_ACCOUNT.call(&peer, &Address(1));
            let _ = INGRESS_NODES.call(&peer, &());
            let _ = SEALER_NODES.call(&peer, &());
            let _ = VERIFY_LEDGERS.call(&peer, &());
            let _ = PROGRESS_MARK.call(&peer, &());
            let _ = SHUTDOWN_CHAIN.call(&peer, &());
            let _ = INSTALL_FAULTS.call(&peer, &FaultPlan::new());
            let _ = rpc_error_to_chain(RpcError {
                data: Some(peer.0.clone()),
                ..RpcError::application(codes::UNKNOWN_SHARD, "")
            });
            // What `connect` allocates per shard is bounded whatever the peer says.
            if let Ok(remote) = RemoteChain::connect(peer) {
                prop_assert!(remote.architecture().shard_count() <= MAX_SHARDS);
            }
        }

        #[test]
        fn prop_well_formed_calls_round_trip(
            nonces in proptest::collection::vec(0u64..1_000_000, 1..4),
            shard in 0u32..4,
            height in 0u64..6,
            account in any::<u64>(),
            checking in 0u64..=i64::MAX as u64,
            savings in 0u64..=i64::MAX as u64,
        ) {
            let (chain, server) = serve_mock();
            let remote = RemoteChain::connect(server.client()).unwrap();
            prop_assert_eq!(remote.chain_name(), chain.chain_name());
            prop_assert_eq!(remote.architecture(), chain.architecture());
            for nonce in nonces {
                let tx = signed_tx(nonce);
                prop_assert_eq!(remote.submit(tx.clone()), Ok(tx.id));
            }
            // Shards 2 and 3 do not exist: the same error, shard included.
            prop_assert_eq!(remote.latest_height(shard), chain.latest_height(shard));
            prop_assert_eq!(remote.block_at(shard, height), chain.block_at(shard, height));
            prop_assert_eq!(remote.pending_txs(), chain.pending_txs());
            remote.seed_account(Address(account), checking, savings);
            prop_assert!(chain.account(Address(account)).is_some());
            prop_assert_eq!(remote.account(Address(account)), chain.account(Address(account)));
            prop_assert_eq!(remote.account(Address(account ^ 1)), None);
            prop_assert_eq!(remote.ingress_nodes(), chain.ingress_nodes());
            prop_assert_eq!(remote.sealer_nodes(), chain.sealer_nodes());
            prop_assert_eq!(remote.verify_ledgers(), chain.verify_ledgers());
            prop_assert_eq!(remote.progress_mark(), chain.progress_mark());
            // The one method served on the network rather than the chain.
            let net = serve_faults(&server);
            let (start, end) = (Duration::from_millis(height), Duration::from_millis(height + 1));
            let plan = FaultPlan::new()
                .crash("mock-node", start, end)
                .latency_spike(Duration::from_millis(u64::from(shard)), start, end);
            prop_assert_eq!(INSTALL_FAULTS.call(&server.client(), &plan), Ok(()));
            prop_assert_eq!(net.fault_plan(), Some(Arc::new(plan)));
            let unresolved = FaultPlan::new().crash("ingress:0", start, end);
            prop_assert!(INSTALL_FAULTS.call(&server.client(), &unresolved).is_err());
        }
    }
}
