//! The one chain client that speaks RPC.
//!
//! [`RemoteChain`] implements [`BlockchainClient`] and [`SimChain`] by
//! issuing the [`rpc_adapter`](crate::rpc_adapter) wire-table calls over
//! any [`Transport`]:
//! the in-process `hammer_rpc::transport::RpcClient`, or
//! `hammer_net::TcpRpcClient` to a `node-host` process. Two things make
//! it more than a dumb proxy; each is a no-op over a transport that never
//! fails and a peer that never restarts, so both transports run the same
//! code:
//!
//! * **Graceful degradation.** The evaluation driver's polling monitor
//!   treats an `Err` from `latest_height`/`blocks` as terminal, which
//!   is correct in-process (only shutdown errors there) but would wedge
//!   a run the moment a node is SIGKILLed. This client therefore absorbs
//!   *transient* failures: `latest_height` answers the last height it
//!   saw, `blocks` reports the blocks as (currently) missing, and only
//!   fatal errors (protocol violations, unknown shards) propagate.
//!   Submission errors always propagate — the retry taxonomy handles
//!   those.
//! * **Height continuity across restarts.** A respawned node starts an
//!   empty ledger at height 0. The client virtualises heights per shard:
//!   when the remote height regresses, the old height becomes a base
//!   offset, pre-restart heights read as lost (`Ok(None)`), and new
//!   remote blocks surface at monotonically increasing virtual heights —
//!   so the monitor's cursor never runs backwards and never re-matches a
//!   block it already processed.
//!
//! The client starts no thread: the driver observes commits in every
//! testing mode by reading blocks through these same calls.

use std::ops::RangeInclusive;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::client::{Architecture, BlockchainClient, ChainError, ErrorKind};
use crate::kernel::SimChain;
use crate::ledger::LedgerError;
use crate::rpc_adapter::{self as wire, Transport};
use crate::state::AccountState;
use crate::types::{Address, Block, SignedTransaction, TxId};

/// Per-shard height-virtualization state.
#[derive(Clone, Copy, Debug, Default)]
struct ShardCursor {
    /// Virtual height consumed by ledgers that died with earlier process
    /// incarnations.
    base: u64,
    /// The remote height seen on the last successful poll.
    last_remote: u64,
}

/// A [`BlockchainClient`] + [`SimChain`] over an RPC [`Transport`]. See
/// the module docs for the failure semantics.
pub struct RemoteChain<C: Transport> {
    rpc: C,
    name: String,
    architecture: Architecture,
    cursors: Mutex<Vec<ShardCursor>>,
}

impl<C: Transport> RemoteChain<C> {
    /// Connects to a served chain, fetching its name and architecture.
    /// A TCP transport's reconnect policy governs in-call reconnection (a
    /// node being restarted by a supervisor surfaces as transient errors,
    /// not a dead client).
    pub fn connect(transport: C) -> Result<Arc<Self>, ChainError> {
        let name = wire::CHAIN_NAME.call(&transport, &())?;
        let architecture = wire::ARCHITECTURE.call(&transport, &())?;
        Ok(Arc::new(RemoteChain {
            rpc: transport,
            name,
            architecture,
            cursors: Mutex::new(vec![
                ShardCursor::default();
                architecture.shard_count() as usize
            ]),
        }))
    }

    /// Fetches the remote height and folds it into the virtual cursor,
    /// detecting restarts (remote height regression).
    fn virtual_height(&self, shard: u32) -> Result<u64, ChainError> {
        let remote = wire::LATEST_HEIGHT.call(&self.rpc, &shard)?;
        let mut cursors = self.cursors.lock();
        let cursor = cursors
            .get_mut(shard as usize)
            .ok_or(ChainError::UnknownShard(shard))?;
        if remote < cursor.last_remote {
            // The node restarted with a fresh ledger: retire the old
            // incarnation's heights into the base offset.
            cursor.base += cursor.last_remote;
        }
        cursor.last_remote = remote;
        Ok(cursor.base + remote)
    }

    fn cursor(&self, shard: u32) -> Result<ShardCursor, ChainError> {
        let cursors = self.cursors.lock();
        cursors
            .get(shard as usize)
            .copied()
            .ok_or(ChainError::UnknownShard(shard))
    }
}

/// A peer's answer to a range read holds blocks inside the range, in
/// strictly ascending height order — so never more blocks than heights.
fn check_heights(blocks: &[Arc<Block>], asked: &RangeInclusive<u64>) -> Result<(), ChainError> {
    let inside = blocks.iter().all(|b| asked.contains(&b.header.height));
    let ascending = blocks
        .windows(2)
        .all(|pair| pair[0].header.height < pair[1].header.height);
    if !(inside && ascending) {
        return Err(ChainError::protocol(format!(
            "get_blocks: heights out of order in {}..={}",
            asked.start(),
            asked.end()
        )));
    }
    Ok(())
}

impl<C: Transport> BlockchainClient for RemoteChain<C> {
    fn chain_name(&self) -> &str {
        &self.name
    }

    fn architecture(&self) -> Architecture {
        self.architecture
    }

    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
        let mut answer = self.submit_batch(vec![tx]);
        answer.pop().expect("one result per transaction")
    }

    /// One [`wire::SUBMIT_BATCH`] call per `wire::MAX_SUBMIT_BATCH`
    /// transactions. A failed call answers its error for each of them; an
    /// answer of the wrong length is a protocol error for each.
    fn submit_batch(&self, mut txs: Vec<SignedTransaction>) -> Vec<Result<TxId, ChainError>> {
        let mut results = Vec::with_capacity(txs.len());
        while !txs.is_empty() {
            let rest = txs.split_off(txs.len().min(wire::MAX_SUBMIT_BATCH));
            let batch = std::mem::replace(&mut txs, rest);
            let n = batch.len();
            match wire::SUBMIT_BATCH.call(&self.rpc, &batch) {
                Ok(answer) if answer.len() == n => results.extend(answer),
                Ok(answer) => {
                    let why = format!(
                        "submit_batch: {} results for {n} transactions",
                        answer.len()
                    );
                    results.extend(std::iter::repeat_n(Err(ChainError::protocol(why)), n));
                }
                Err(e) => results.extend(std::iter::repeat_n(Err(e), n)),
            }
        }
        results
    }

    fn latest_height(&self, shard: u32) -> Result<u64, ChainError> {
        match self.virtual_height(shard) {
            // A dead or restarting node must not kill the monitor:
            // answer the last virtual height we saw and let the next
            // poll catch up.
            Err(e) if e.kind() == ErrorKind::Transient => {
                let cursor = self.cursor(shard)?;
                Ok(cursor.base + cursor.last_remote)
            }
            other => other,
        }
    }

    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
        let mut blocks = self.blocks(shard, height..=height)?;
        Ok(blocks.pop().map(Arc::unwrap_or_clone))
    }

    /// `wire::GET_BLOCKS` calls of at most `wire::MAX_BLOCKS_PER_CALL`
    /// heights, asked at the peer's own heights and answered at virtual
    /// ones. An answer that stops short of its range (the peer cut it at
    /// `wire::MAX_BLOCKS_BYTES`) is followed by a call for the rest.
    fn blocks(
        &self,
        shard: u32,
        heights: RangeInclusive<u64>,
    ) -> Result<Vec<Arc<Block>>, ChainError> {
        let base = self.cursor(shard)?.base;
        // Heights at or below the base died, unread, with an earlier
        // process incarnation; their transactions will drain as timed out.
        let (mut from, to) = ((*heights.start()).max(base + 1), *heights.end());
        let mut blocks = Vec::new();
        while from <= to {
            let last = to.min(from.saturating_add(wire::MAX_BLOCKS_PER_CALL - 1));
            let remote = from - base..=last - base;
            // The last height this call settled: the newest block it
            // answered, or its whole range when it answered none.
            let mut settled = last;
            match wire::GET_BLOCKS.call(&self.rpc, &(shard, remote.clone())) {
                Ok(part) => {
                    check_heights(&part, &remote)?;
                    if let Some(newest) = part.last() {
                        settled = newest.header.height + base;
                    }
                    blocks.extend(part.into_iter().map(|mut block| {
                        // Surface the *virtual* height so the monitor's
                        // cursor arithmetic holds across restarts.
                        Arc::make_mut(&mut block).header.height += base;
                        block
                    }));
                }
                // Transient outage: report the blocks as currently missing
                // so the monitor survives; its cursor moves on, which
                // matches what a restart does to unread blocks anyway.
                Err(e) if e.kind() == ErrorKind::Transient => {}
                Err(e) => return Err(e),
            }
            match settled.checked_add(1) {
                Some(next) => from = next,
                None => break,
            }
        }
        Ok(blocks)
    }

    fn pending_txs(&self) -> Result<usize, ChainError> {
        let pending = wire::PENDING_TXS.call(&self.rpc, &())?;
        usize::try_from(pending).map_err(|_| ChainError::protocol("pending_txs: out of range"))
    }

    fn shutdown(&self) {
        // Best effort: the node may already be gone (killed by its
        // supervisor), which is fine — process teardown is authoritative.
        let _ = wire::SHUTDOWN_CHAIN.call(&self.rpc, &());
    }
}

impl<C: Transport> SimChain for RemoteChain<C> {
    fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        // Seeding happens before the run, with the node healthy; a
        // failure here means the deployment is broken, which the driver
        // discovers immediately through every later call. Best effort by
        // signature (the trait returns nothing).
        let _ = wire::SEED_ACCOUNT.call(&self.rpc, &(account, checking, savings));
    }

    fn account(&self, account: Address) -> Option<AccountState> {
        wire::GET_ACCOUNT.call(&self.rpc, &account).ok()?
    }

    fn ingress_nodes(&self) -> Vec<String> {
        wire::INGRESS_NODES.call(&self.rpc, &()).unwrap_or_default()
    }

    fn sealer_nodes(&self) -> Vec<String> {
        wire::SEALER_NODES.call(&self.rpc, &()).unwrap_or_default()
    }

    fn verify_ledgers(&self) -> Result<(), LedgerError> {
        // An unreachable node cannot prove its ledger broken; the
        // supervisor owns liveness.
        wire::VERIFY_LEDGERS.call(&self.rpc, &()).unwrap_or(Ok(()))
    }

    fn progress_mark(&self) -> u64 {
        wire::PROGRESS_MARK.call(&self.rpc, &()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mempool::MempoolError;
    use crate::rpc_adapter::tests::{serve_chain, serve_mock, signed_tx, MockChain};
    use crate::rpc_adapter::{serve, serve_tcp};
    use hammer_net::{ReconnectPolicy, TcpClientConfig, TcpRpcClient, TcpServerConfig};
    use hammer_rpc::json::Value;
    use hammer_rpc::transport::RpcClient;
    use std::time::Duration;

    #[test]
    fn loopback_simchain_roundtrip() {
        let (_chain, rpc) = serve_mock();
        let server = serve_tcp(rpc, "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let client = RemoteChain::connect(TcpRpcClient::new(
            server.local_addr(),
            TcpClientConfig::default(),
            ReconnectPolicy::none(),
        ))
        .unwrap();
        assert_eq!(client.chain_name(), "mock-chain");
        assert_eq!(client.architecture(), Architecture::Sharded { shards: 2 });

        client.seed_account(Address(42), 100, 200);
        let acct = client.account(Address(42)).unwrap();
        assert_eq!((acct.checking, acct.savings), (100, 200));
        assert_eq!(client.account(Address(99)), None);

        let id = client.submit(signed_tx(1)).unwrap();
        assert_eq!(client.latest_height(0).unwrap(), 1);
        let block = client.block_at(0, 1).unwrap().unwrap();
        assert_eq!(block.tx_ids, vec![id]);
        assert!(client.block_at(0, 9).unwrap().is_none());
        assert_eq!(
            client.latest_height(5).unwrap_err(),
            ChainError::UnknownShard(5)
        );

        assert_eq!(client.ingress_nodes(), vec!["mock-node"]);
        assert_eq!(client.sealer_nodes(), vec!["mock-node"]);
        assert!(client.verify_ledgers().is_ok());
        assert_eq!(client.progress_mark(), 1);
        assert_eq!(client.pending_txs().unwrap(), 0);
    }

    #[test]
    fn a_batch_answers_what_lone_submissions_would_over_both_transports() {
        // One id twice, and a chain that holds four: the repeat is a
        // duplicate, and the pool fills at the sixth item.
        let batch: Vec<_> = [0, 1, 0, 2, 3, 4, 5].into_iter().map(signed_tx).collect();
        let lone = MockChain::holding(4);
        let expect: Vec<_> = batch.iter().map(|tx| lone.submit(tx.clone())).collect();
        let duplicate = Err(ChainError::rejected(MempoolError::Duplicate));
        let full = Err(ChainError::rejected(MempoolError::Full));
        assert_eq!(expect[2], duplicate);
        assert_eq!(expect[5..], [full.clone(), full]);

        let capped = || serve_chain(MockChain::holding(4));
        let (_chain, rpc) = capped();
        let in_process = RemoteChain::connect(rpc.client()).unwrap();
        assert_eq!(in_process.submit_batch(batch.clone()), expect);
        let (_chain, rpc) = capped();
        let server = serve_tcp(rpc, "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let tcp = RemoteChain::connect(TcpRpcClient::new(
            server.local_addr(),
            TcpClientConfig::default(),
            ReconnectPolicy::none(),
        ))
        .unwrap();
        assert_eq!(tcp.submit_batch(batch), expect);
        // A lone submission is a batch of one.
        assert_eq!(tcp.submit(signed_tx(0)), expect[2]);
    }

    #[test]
    fn a_batch_over_the_bound_is_split_and_answered_in_order() {
        let (_chain, rpc) = serve_mock();
        let calls = Counted(rpc.client(), Default::default());
        let client = RemoteChain::connect(calls).unwrap();
        let connecting = client.rpc.calls();
        let batch: Vec<_> = (0..wire::MAX_SUBMIT_BATCH as u64 + 1)
            .map(signed_tx)
            .collect();
        let ids: Vec<_> = batch.iter().map(|tx| Ok(tx.id)).collect();
        assert_eq!(client.submit_batch(batch), ids);
        assert_eq!(client.rpc.calls() - connecting, 2);
        // A range of heights over the bound is split the same way.
        let height = client.latest_height(0).unwrap();
        let blocks = client.blocks(0, 1..=height).unwrap();
        let heights: Vec<u64> = blocks.iter().map(|b| b.header.height).collect();
        assert_eq!(heights, (1..=height).collect::<Vec<_>>());
        let reads = height.div_ceil(wire::MAX_BLOCKS_PER_CALL) as usize;
        assert_eq!(client.rpc.calls() - connecting, 2 + 1 + reads);
    }

    /// A finished ledger of `height` full blocks on shard 0.
    struct Sealed(Vec<Arc<Block>>);

    impl BlockchainClient for Sealed {
        fn chain_name(&self) -> &str {
            "sealed"
        }
        fn architecture(&self) -> Architecture {
            Architecture::NonSharded
        }
        fn submit(&self, _tx: SignedTransaction) -> Result<TxId, ChainError> {
            Err(ChainError::shutdown())
        }
        fn latest_height(&self, _shard: u32) -> Result<u64, ChainError> {
            Ok(self.0.len() as u64)
        }
        fn block_at(&self, _shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
            let index = height.checked_sub(1).map(|i| i as usize);
            Ok(index.and_then(|i| self.0.get(i)).map(|b| Block::clone(b)))
        }
        fn pending_txs(&self) -> Result<usize, ChainError> {
            Ok(0)
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn a_catch_up_over_tcp_reads_every_full_block() {
        // More heights than one call asks for, each a full Neuchain block:
        // together far over one frame, so the server cuts its answers at
        // the byte budget and the client asks again for the rest.
        const TXS_PER_BLOCK: u64 = 2_000;
        let height = wire::MAX_BLOCKS_PER_CALL + 1;
        let ids: Vec<TxId> = (0..TXS_PER_BLOCK)
            .map(|i| TxId(hammer_crypto::sha256(&i.to_le_bytes())))
            .collect();
        let valid = vec![false; ids.len()];
        let full = Block::new(0, [0; 32], Duration::ZERO, "n0", 0, ids, valid);
        let ledger = (1..=height).map(|h| {
            let mut block = full.clone();
            block.header.height = h;
            Arc::new(block)
        });
        let chain: Arc<dyn BlockchainClient> = Arc::new(Sealed(ledger.collect()));
        let server = serve_tcp(serve(chain), "127.0.0.1:0", TcpServerConfig::default()).unwrap();
        let tcp = TcpRpcClient::new(
            server.local_addr(),
            TcpClientConfig::default(),
            ReconnectPolicy::none(),
        );
        let client = RemoteChain::connect(Counted(tcp, Default::default())).unwrap();
        let connecting = client.rpc.calls();
        let blocks = client.blocks(0, 1..=height).unwrap();
        let heights: Vec<u64> = blocks.iter().map(|b| b.header.height).collect();
        assert_eq!(heights, (1..=height).collect::<Vec<_>>());
        assert!(blocks.iter().all(|b| b.len() == TXS_PER_BLOCK as usize));
        let per_answer = (wire::MAX_BLOCKS_BYTES / wire::block_len_bound(&full)) as u64;
        let answers = height.div_ceil(per_answer) as usize;
        assert_eq!(client.rpc.calls() - connecting, answers);
    }

    /// A transport that counts its calls.
    struct Counted<T = RpcClient>(T, std::sync::atomic::AtomicUsize);

    impl<T> Counted<T> {
        fn calls(&self) -> usize {
            self.1.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl<T: Transport> Transport for Counted<T> {
        fn call(&self, method: &str, params: Value) -> Result<Value, ChainError> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Transport::call(&self.0, method, params)
        }
    }

    /// A peer that answers `submit_batch` and `get_blocks` with `answer`
    /// and everything else as a served mock chain does.
    struct Lying(RpcClient, Value);

    impl Transport for Lying {
        fn call(&self, method: &str, params: Value) -> Result<Value, ChainError> {
            if [wire::SUBMIT_BATCH.name, wire::GET_BLOCKS.name].contains(&method) {
                Ok(self.1.clone())
            } else {
                Transport::call(&self.0, method, params)
            }
        }
    }

    #[test]
    fn a_peer_that_answers_out_of_shape_is_a_protocol_error() {
        let (chain, rpc) = serve_mock();
        for nonce in 0..3 {
            chain.submit(signed_tx(nonce)).unwrap();
        }
        let block =
            |height| crate::codec::encode_block(&chain.block_at(0, height).unwrap().unwrap());
        let id = |nonce| Value::from(hammer_crypto::to_hex(signed_tx(nonce).id.as_bytes()));
        let lying = |answer: Value| RemoteChain::connect(Lying(rpc.client(), answer)).unwrap();
        let fatal = |err: &ChainError| err.kind() == ErrorKind::Fatal;

        // Two answers for one transaction, and none for two.
        let two = lying(Value::Array(vec![id(1), id(2)]));
        assert!(fatal(&two.submit(signed_tx(1)).unwrap_err()));
        let none = lying(Value::Array(Vec::new()));
        let answers = none.submit_batch(vec![signed_tx(1), signed_tx(2)]);
        assert!(answers
            .iter()
            .all(|answer| answer.as_ref().is_err_and(fatal)));

        // Heights 1..=2 asked: a block outside them, the two out of order,
        // one height twice, or more blocks than heights.
        for answer in [
            vec![block(3)],
            vec![block(2), block(1)],
            vec![block(1), block(1)],
            vec![block(1), block(2), block(3)],
        ] {
            let err = lying(Value::Array(answer)).blocks(0, 1..=2).unwrap_err();
            assert!(fatal(&err), "{err}");
        }
        let fine = lying(Value::Array(vec![block(1), block(2)]));
        assert_eq!(fine.blocks(0, 1..=2).unwrap().len(), 2);
    }

    /// An in-memory node that dies and restarts on command: while down
    /// every call fails the way a refused connection does, and a restart
    /// comes back with an empty ledger.
    #[derive(Clone, Default)]
    struct Node(Arc<Mutex<Option<RpcClient>>>);

    impl Node {
        fn start() -> Self {
            let node = Node::default();
            node.restart();
            node
        }
        fn kill(&self) {
            *self.0.lock() = None;
        }
        fn restart(&self) {
            *self.0.lock() = Some(serve_mock().1.client());
        }
    }

    impl Transport for Node {
        fn call(&self, method: &str, params: Value) -> Result<Value, ChainError> {
            match &*self.0.lock() {
                Some(rpc) => Transport::call(rpc, method, params),
                None => Err(ChainError::transport("connection refused")),
            }
        }
    }

    #[test]
    fn transient_outage_degrades_instead_of_erroring() {
        let node = Node::start();
        let client = RemoteChain::connect(node.clone()).unwrap();
        client.submit(signed_tx(1)).unwrap();
        assert_eq!(client.latest_height(0).unwrap(), 1);

        // Kill the node: the monitor-facing reads degrade, never error.
        node.kill();
        assert_eq!(client.latest_height(0).unwrap(), 1);
        assert!(client.block_at(0, 1).unwrap().is_none());
        // Submission errors DO propagate, as transient.
        let err = client.submit(signed_tx(2)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Transient);
    }

    #[test]
    fn restart_virtualizes_heights() {
        let node = Node::start();
        let client = RemoteChain::connect(node.clone()).unwrap();
        // First incarnation seals 3 blocks.
        for nonce in 0..3 {
            client.submit(signed_tx(nonce)).unwrap();
        }
        assert_eq!(client.latest_height(0).unwrap(), 3);
        assert!(client.block_at(0, 2).unwrap().is_some());

        // Crash, and restart with a fresh (empty) chain.
        node.kill();
        node.restart();

        // The fresh node is at remote height 0 → virtual height stays 3.
        assert_eq!(client.latest_height(0).unwrap(), 3);
        // One new block on the fresh chain: virtual height 4, and the
        // block surfaces AT height 4, with pre-restart heights now lost.
        client.submit(signed_tx(100)).unwrap();
        assert_eq!(client.latest_height(0).unwrap(), 4);
        let b = client.block_at(0, 4).unwrap().unwrap();
        assert_eq!(b.header.height, 4);
        assert!(client.block_at(0, 2).unwrap().is_none());
        // The other shard has its own cursor and has not seen the restart.
        assert_eq!(client.latest_height(1).unwrap(), 1);
    }
}
