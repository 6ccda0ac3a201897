//! The chain-node runtime ("node kernel") shared by every simulated chain.
//!
//! The paper evaluates four very different consensus designs through one
//! generic driver, and the simulators for those designs used to duplicate
//! all of the chain-*agnostic* node scaffolding: named-thread spawn loops,
//! mempool ingress with fault gating, and sealed-block accounting and
//! observability. The kernel owns that scaffolding once:
//!
//! * **Lifecycle** — a chain is one loop over simulated time, on one thread
//!   named after it: per shard a deadline, a crash gate on the sealer node,
//!   a policy round sealed at its build instant plus
//!   [`ConsensusPolicy::round_cost`]. A stop or a [`Kernel::ring`] ends its
//!   wait; [`ChainNode::shutdown_and_join`] stops and joins it, so dropping
//!   a chain never leaks a live thread. A policy never waits.
//! * **Ingress** — [`BlockchainClient::submit`] is implemented once:
//!   shutdown check, `check_node_ingress` fault gating on the shard's
//!   ingress node (names asked of the policy once, at start; no lock taken
//!   until a fault plan is installed, the locked path from then on), then
//!   policy-controlled admission (bounded mempool by default, so overload
//!   surfaces as [`ErrorKind::Backpressure`]).
//! * **Sealing** — [`Kernel::seal_block`] builds the block on the shard
//!   ledger's tip with no lock held (one Merkle pass, one header hash),
//!   appends it under the write lock (a push), updates the activity
//!   counters, emits the per-block observability (sealed counters,
//!   mempool-depth gauge, journal `block_seal`). Nothing is pushed to the
//!   driver: it reads the sealed blocks, and nothing is replicated: no
//!   simulated node reads another's blocks.
//! * **RPC wiring** — [`ChainNode::serve_rpc_sim`] exposes any
//!   kernel-hosted chain over the JSON-RPC adapter.
//!
//! What remains per chain is a [`ConsensusPolicy`]: when to seal, how to
//! order/validate/endorse a round, and how accounts map onto shards. A
//! new backend is one policy implementation instead of a full crate of
//! node plumbing — see `DESIGN.md` §5 for the walkthrough.
//!
//! [`ErrorKind::Backpressure`]: crate::client::ErrorKind::Backpressure

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_crypto::sig::SigParams;
use hammer_net::{thread, SimClock, SimNetwork, StopSignal};
use parking_lot::{Mutex, RwLock};

use crate::client::{check_node_ingress, Architecture, BlockchainClient, ChainError};
use crate::ledger::{Ledger, LedgerError, Verified};
use crate::mempool::Mempool;
use crate::rpc_adapter;
use crate::state::{AccountState, VersionedState};
use crate::types::{verify_signed_batch, Address, Block, SignedTransaction, TxId};

/// Per-shard storage: mempool, ledger, and world state.
///
/// Non-sharded chains have exactly one; [`Kernel::shard`] indexes them.
pub struct ShardCtx {
    /// Pending-transaction pool (bounded, de-duplicating).
    pub mempool: Mempool,
    /// Append-only block store with hash-chain verification. Private to
    /// the kernel, so its one write guard is [`Kernel::seal_block`]'s
    /// append; everything else reads it through the kernel's methods.
    ledger: RwLock<Ledger>,
    /// Versioned world state.
    pub state: Mutex<VersionedState>,
}

impl ShardCtx {
    fn new(mempool_capacity: usize) -> Self {
        ShardCtx {
            mempool: Mempool::new(mempool_capacity),
            ledger: RwLock::new(Ledger::new()),
            state: Mutex::new(VersionedState::new()),
        }
    }
}

/// Activity counters every kernel-hosted chain maintains.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Blocks sealed (across all shards).
    pub blocks: u64,
    /// Transactions committed successfully.
    pub committed: u64,
    /// Transactions included in a block but marked invalid.
    pub failed: u64,
    /// Transactions dropped for bad signatures.
    pub bad_sig: u64,
}

/// One sealed round, handed from a [`ConsensusPolicy`] to
/// [`Kernel::seal_block`].
pub struct Round {
    /// Endpoint name of the proposing node (the block author).
    pub proposer: String,
    /// Transactions in block order.
    pub tx_ids: Vec<TxId>,
    /// Per-transaction validity flags (`valid[i]` belongs to `tx_ids[i]`).
    pub valid: Vec<bool>,
    /// Read by nothing: no block is replicated. Kept because the frozen
    /// benchmark package builds a `Round` with it; leave it empty.
    pub gossip_to: Vec<String>,
    /// Pending-depth reported to the mempool gauge; `None` uses the
    /// shard's kernel mempool length (policies with their own pending set
    /// — e.g. an endorsement pipeline — override it).
    pub mempool_depth: Option<usize>,
}

/// The chain-agnostic node runtime: clock, network, per-shard storage,
/// stop signal, and activity counters.
pub struct Kernel {
    chain_name: String,
    architecture: Architecture,
    clock: SimClock,
    net: SimNetwork,
    shards: Vec<ShardCtx>,
    shutdown: StopSignal,
    blocks: AtomicU64,
    committed: AtomicU64,
    failed: AtomicU64,
    bad_sig: AtomicU64,
}

impl Kernel {
    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// Storage for one shard (panics on an out-of-range id; use
    /// [`Kernel::shards`] for fallible access).
    pub fn shard(&self, shard: u32) -> &ShardCtx {
        &self.shards[shard as usize]
    }

    /// All shard contexts, indexed by shard id.
    pub fn shards(&self) -> &[ShardCtx] {
        &self.shards
    }

    /// Whether shutdown has been requested.
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.is_raised()
    }

    /// The height of `shard`'s ledger: the number of blocks sealed on it.
    pub fn height(&self, shard: u32) -> u64 {
        self.shard(shard).ledger.read().height()
    }

    /// Ends the loop's wait: it asks `seal_wait` again of every shard with
    /// no round built. Ring only when an arrival moved a next round earlier.
    pub fn ring(&self) {
        self.shutdown.ring();
    }

    /// Snapshot of the activity counters.
    pub(crate) fn stats(&self) -> KernelStats {
        KernelStats {
            blocks: self.blocks.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            bad_sig: self.bad_sig.load(Ordering::Relaxed),
        }
    }

    /// Batch-verifies `txs` in place, dropping (and counting) the ones
    /// with bad signatures. One shared-table batch pass instead of a full
    /// modexp per transaction.
    pub fn verify_retain(&self, txs: &mut Vec<SignedTransaction>, params: &SigParams) {
        let verdicts = verify_signed_batch(txs, params);
        let mut verdicts = verdicts.iter();
        txs.retain(|_| {
            let ok = *verdicts.next().expect("one verdict per tx");
            if !ok {
                self.bad_sig.fetch_add(1, Ordering::Relaxed);
            }
            ok
        });
    }

    /// Seals one round into a block on `shard`: builds the block on the
    /// shard ledger's tip, appends it, updates the counters and emits the
    /// per-block observability. One obs-bundle fetch per sealed block,
    /// never per tx. The block's one Merkle pass
    /// and its header hash run before the write lock, which is held for a
    /// push; the root is built from the round's ids, so nothing re-checks
    /// it (a received block is checked where it is decoded).
    pub fn seal_block(&self, shard_id: u32, round: Round) {
        let Round {
            proposer,
            tx_ids,
            valid,
            mempool_depth,
            ..
        } = round;
        debug_assert_eq!(tx_ids.len(), valid.len());
        let shard = &self.shards[shard_id as usize];
        let timestamp = self.clock.now();
        let (height, tip) = {
            let ledger = shard.ledger.read();
            (ledger.height() + 1, ledger.tip_hash())
        };
        let verified = Verified::seal(height, tip, timestamp, &proposer, shard_id, tx_ids, valid);
        let block = verified.block();
        let sealed_txs = block.len();
        let ok = block.valid.iter().filter(|v| **v).count() as u64;
        shard
            .ledger
            .write()
            .append(verified)
            .expect("the kernel seals sequential blocks per shard");
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.committed.fetch_add(ok, Ordering::Relaxed);
        self.failed
            .fetch_add(sealed_txs as u64 - ok, Ordering::Relaxed);

        let obs = self.net.obs();
        if obs.enabled() {
            let shard_label = shard_id.to_string();
            let mut labels: Vec<(&str, &str)> = vec![("chain", self.chain_name.as_str())];
            if matches!(self.architecture, Architecture::Sharded { .. }) {
                labels.push(("shard", shard_label.as_str()));
            }
            let depth = mempool_depth.unwrap_or_else(|| shard.mempool.len());
            let registry = obs.registry();
            registry
                .counter_with("hammer_chain_blocks_sealed_total", &labels)
                .inc();
            registry
                .counter_with("hammer_chain_txs_sealed_total", &labels)
                .add(sealed_txs as u64);
            registry
                .gauge_with("hammer_chain_mempool_depth", &labels)
                .set(depth as u64);
            obs.journal()
                .block_seal(timestamp, &proposer, height, sealed_txs);
        }
    }
}

/// The consensus-specific core of a chain: everything the kernel cannot
/// decide for you. Implementations are cheap value types; the four
/// built-in sims (`hammer-ethereum`, `hammer-fabric`, `hammer-neuchain`,
/// `hammer-meepo`) are the reference examples.
pub trait ConsensusPolicy: Send + Sync + 'static {
    /// The chain's display name (also the obs `chain` label).
    fn chain_name(&self) -> &'static str;

    /// Sharded or not; decides the kernel's shard-context count.
    fn architecture(&self) -> Architecture {
        Architecture::NonSharded
    }

    /// Endpoint submissions for `shard` land on; an outage there turns
    /// ingress away (crash ⇒ unavailable, unreachable ⇒ timeout).
    fn ingress_node(&self, shard: u32) -> String;

    /// Endpoint whose crash suspends sealing on `shard`.
    fn sealer_node(&self, shard: u32) -> String {
        self.ingress_node(shard)
    }

    /// Which shard a transaction is routed to (non-sharded chains keep
    /// the default).
    fn route(&self, _tx: &SignedTransaction) -> u32 {
        0
    }

    /// Which shard an account's state lives on (genesis seeding and
    /// reads go through this).
    fn home_shard(&self, _account: Address) -> u32 {
        0
    }

    /// Admits a routed transaction past the ingress gate. The default
    /// pushes into the shard's bounded kernel mempool; pipelines with
    /// their own inbox (e.g. an endorsement channel) override it. A full
    /// pool must map to a rejection whose kind is `Backpressure`.
    fn admit(
        &self,
        kernel: &Kernel,
        shard: u32,
        tx: SignedTransaction,
    ) -> Result<TxId, ChainError> {
        let id = tx.id;
        kernel
            .shard(shard)
            .mempool
            .push(tx)
            .map_err(ChainError::rejected)?;
        Ok(id)
    }

    /// Transactions accepted but not yet sealed.
    fn pending(&self, kernel: &Kernel) -> usize {
        kernel.shards().iter().map(|s| s.mempool.len()).sum()
    }

    /// How long from now until the loop next asks for a round on `shard`
    /// (fixed epochs, sampled PoW intervals, a pipeline's next block, ...):
    /// asked after every round, skip and [`Kernel::ring`]. `Duration::MAX`
    /// is never: only a ring or a stop ends that wait.
    fn seal_wait(&self, _shard: u32) -> Duration {
        Duration::from_millis(100)
    }

    /// Produces the next round for `shard`: drain/order/validate however
    /// the consensus design dictates, and return `None` to seal nothing
    /// this wait.
    fn build_round(&self, _kernel: &Kernel, _shard: u32) -> Option<Round> {
        None
    }

    /// Simulated time from a round's build to its seal (execution, say);
    /// the loop serves the other shards meanwhile.
    fn round_cost(&self, _shard: u32, _txs: usize) -> Duration {
        Duration::ZERO
    }
}

/// Builds and starts a [`ChainNode`]: endpoints and the chain's loop in
/// one call.
pub struct NodeKernelBuilder {
    clock: SimClock,
    net: SimNetwork,
    mempool_capacity: usize,
    endpoints: Vec<String>,
}

impl NodeKernelBuilder {
    /// Starts a builder on an existing clock and network.
    pub fn new(clock: SimClock, net: SimNetwork) -> Self {
        NodeKernelBuilder {
            clock,
            net,
            mempool_capacity: 10_000,
            endpoints: Vec::new(),
        }
    }

    /// Capacity of each shard's kernel mempool.
    pub fn mempool_capacity(mut self, capacity: usize) -> Self {
        self.mempool_capacity = capacity;
        self
    }

    /// Registers a network endpoint: a node name a fault plan can target.
    pub fn endpoint(mut self, name: &str) -> Self {
        self.endpoints.push(name.to_owned());
        self
    }

    /// Starts the node: registers endpoints, starts the chain's loop, and
    /// returns the running chain handle.
    pub fn start<P: ConsensusPolicy>(self, policy: P) -> Arc<ChainNode<P>> {
        let policy = Arc::new(policy);
        let shard_count = policy.architecture().shard_count().max(1);
        let kernel = Arc::new(Kernel {
            chain_name: policy.chain_name().to_owned(),
            architecture: policy.architecture(),
            clock: self.clock,
            net: self.net,
            shards: (0..shard_count)
                .map(|_| ShardCtx::new(self.mempool_capacity))
                .collect(),
            shutdown: StopSignal::default(),
            blocks: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            bad_sig: AtomicU64::new(0),
        });

        for name in &self.endpoints {
            kernel.net.register(name);
        }
        // Asked once, not per submission or sealer tick: a name is a `String`.
        let ingress: Vec<String> = (0..shard_count).map(|s| policy.ingress_node(s)).collect();
        let sealers: Vec<String> = (0..shard_count).map(|s| policy.sealer_node(s)).collect();
        let (loop_kernel, loop_policy) = (Arc::clone(&kernel), Arc::clone(&policy));
        let loop_sealers = sealers.clone();
        let run = move || run_loop(&loop_kernel, &*loop_policy, &loop_sealers);
        let handle = thread::spawn(kernel.chain_name.clone(), run).expect("spawn the chain loop");
        Arc::new(ChainNode {
            kernel,
            policy,
            ingress,
            sealers,
            thread: Mutex::new(Some(handle)),
        })
    }
}

/// A shard's next deadline, and the round built to seal there, if any.
type Next = (Duration, Option<Round>);

/// The shard whose deadline comes first; a tie goes to the lower shard.
fn earliest(next: &[Next]) -> usize {
    (0..next.len())
        .min_by_key(|&shard| (next[shard].0, shard))
        .expect("a chain has a shard")
}

/// The chain's one loop: wait to the earliest shard deadline →
/// crash-gate on the sealer node → policy round → seal at the build
/// instant plus the round's cost. A shard's next deadline is its
/// `seal_wait` from the moment it is asked.
fn run_loop<P: ConsensusPolicy>(kernel: &Kernel, policy: &P, sealers: &[String]) {
    let (clock, signal) = (&kernel.clock, &kernel.shutdown);
    let after_wait = |shard: u32| -> Next {
        let wait = policy.seal_wait(shard);
        (clock.now().saturating_add(wait), None)
    };
    let mut next: Vec<Next> = (0..kernel.shards.len() as u32).map(after_wait).collect();
    loop {
        let shard = earliest(&next);
        clock.sleep_until_signalled(next[shard].0, signal);
        if signal.is_raised() {
            return;
        }
        if signal.take_ring() {
            for (id, next) in (0u32..).zip(&mut next) {
                if next.1.is_none() {
                    *next = after_wait(id);
                }
            }
            continue;
        }
        let id = shard as u32;
        next[shard] = match next[shard].1.take() {
            Some(round) => {
                kernel.seal_block(id, round);
                after_wait(id)
            }
            // A crashed sealer seals nothing this round; pooled
            // transactions wait out the fault window.
            None if kernel.net.node_crashed(&sealers[shard]) => after_wait(id),
            None => match policy.build_round(kernel, id) {
                Some(round) => {
                    let cost = policy.round_cost(id, round.tx_ids.len());
                    (clock.now().saturating_add(cost), Some(round))
                }
                None => after_wait(id),
            },
        };
    }
}

/// A running chain: the kernel plus its policy and the join handle of the
/// chain's loop.
pub struct ChainNode<P: ConsensusPolicy> {
    kernel: Arc<Kernel>,
    policy: Arc<P>,
    /// Per shard, the policy's ingress and sealer endpoint names.
    ingress: Vec<String>,
    sealers: Vec<String>,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl<P: ConsensusPolicy> ChainNode<P> {
    /// The shared runtime (clock, network, shards, counters).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The consensus policy driving this chain.
    pub fn policy(&self) -> &Arc<P> {
        &self.policy
    }

    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        self.kernel.clock()
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNetwork {
        self.kernel.net()
    }

    /// Snapshot of the kernel activity counters.
    pub fn stats(&self) -> KernelStats {
        self.kernel.stats()
    }

    /// Storage for `shard`, or the client-facing error for a shard the
    /// chain does not have.
    fn shard_ctx(&self, shard: u32) -> Result<&ShardCtx, ChainError> {
        self.kernel
            .shards
            .get(shard as usize)
            .ok_or(ChainError::unknown_shard(shard))
    }

    /// Serves this chain over the JSON-RPC adapter *including* the
    /// [`SimChain`] method set (account seeding, ledger verification,
    /// fault-target discovery) — the surface a `node-host` process
    /// exposes to the driver.
    pub fn serve_rpc_sim(self: &Arc<Self>) -> hammer_rpc::transport::RpcServer
    where
        P: 'static,
    {
        rpc_adapter::serve_sim(Arc::clone(self) as Arc<dyn SimChain>)
    }

    /// Requests shutdown, which ends the loop's wait, and joins the loop.
    /// Idempotent.
    pub fn shutdown_and_join(&self) {
        self.kernel.shutdown.raise();
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl<P: ConsensusPolicy> std::fmt::Debug for ChainNode<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainNode")
            .field("chain", &self.kernel.chain_name)
            .field("stats", &self.kernel.stats())
            .finish()
    }
}

impl<P: ConsensusPolicy> Drop for ChainNode<P> {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

impl<P: ConsensusPolicy> BlockchainClient for ChainNode<P> {
    fn chain_name(&self) -> &str {
        &self.kernel.chain_name
    }

    fn architecture(&self) -> Architecture {
        self.kernel.architecture
    }

    fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
        if self.kernel.is_shutdown() {
            return Err(ChainError::shutdown());
        }
        let shard = self.policy.route(&tx);
        check_node_ingress(&self.kernel.net, &self.ingress[shard as usize])?;
        self.policy.admit(&self.kernel, shard, tx)
    }

    fn latest_height(&self, shard: u32) -> Result<u64, ChainError> {
        self.shard_ctx(shard)?;
        Ok(self.kernel.height(shard))
    }

    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
        let block = self
            .shard_ctx(shard)?
            .ledger
            .read()
            .block_at(height)
            .cloned();
        // The copy is taken after the read guard is gone.
        Ok(block.map(|block| Block::clone(&block)))
    }

    fn blocks(
        &self,
        shard: u32,
        heights: RangeInclusive<u64>,
    ) -> Result<Vec<Arc<Block>>, ChainError> {
        Ok(self
            .shard_ctx(shard)?
            .ledger
            .read()
            .blocks(heights)
            .to_vec())
    }

    fn pending_txs(&self) -> Result<usize, ChainError> {
        Ok(self.policy.pending(&self.kernel))
    }

    fn shutdown(&self) {
        self.shutdown_and_join();
    }
}

/// The deployment-facing surface of a simulated chain, over and above
/// [`BlockchainClient`]: genesis seeding, state reads, fault-target
/// discovery, and ledger audits. Implemented generically for every
/// [`ChainNode`].
pub trait SimChain: BlockchainClient {
    /// Seeds an account's balances directly into world state on its home
    /// shard (genesis allocation).
    fn seed_account(&self, account: Address, checking: u64, savings: u64);

    /// Reads an account's state from its home shard.
    fn account(&self, account: Address) -> Option<AccountState>;

    /// Every ingress endpoint (one per shard, deduplicated) — the nodes
    /// a fault plan targets to take submissions down.
    fn ingress_nodes(&self) -> Vec<String>;

    /// Every sealer endpoint (one per shard, deduplicated) — the nodes a
    /// fault plan targets to halt block production.
    fn sealer_nodes(&self) -> Vec<String>;

    /// Verifies every shard's hash chain.
    fn verify_ledgers(&self) -> Result<(), LedgerError>;

    /// A monotone progress probe for stall watchdogs: total sealed
    /// blocks/epochs across shards. A chain that keeps accepting
    /// submissions while this counter stops advancing is stalled, not
    /// merely slow. The default (always `0`) makes the probe inert for
    /// chains that do not implement it.
    fn progress_mark(&self) -> u64 {
        0
    }
}

impl<P: ConsensusPolicy> SimChain for ChainNode<P> {
    fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        let shard = self.policy.home_shard(account);
        self.kernel
            .shard(shard)
            .state
            .lock()
            .seed_account(account, checking, savings);
    }

    fn account(&self, account: Address) -> Option<AccountState> {
        let shard = self.policy.home_shard(account);
        self.kernel.shard(shard).state.lock().get(account)
    }

    fn ingress_nodes(&self) -> Vec<String> {
        let mut nodes = self.ingress.clone();
        nodes.dedup();
        nodes
    }

    fn sealer_nodes(&self) -> Vec<String> {
        let mut nodes = self.sealers.clone();
        nodes.dedup();
        nodes
    }

    fn verify_ledgers(&self) -> Result<(), LedgerError> {
        for shard in &self.kernel.shards {
            shard.ledger.read().verify_chain()?;
        }
        Ok(())
    }

    fn progress_mark(&self) -> u64 {
        self.kernel.stats().blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_net::LinkConfig;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    const MS: Duration = Duration::from_millis(1);

    /// A minimal policy: one node, fixed 20 ms epochs, FIFO order.
    struct FifoPolicy;

    impl ConsensusPolicy for FifoPolicy {
        fn chain_name(&self) -> &'static str {
            "fifo-sim"
        }

        fn ingress_node(&self, _shard: u32) -> String {
            "fifo-node-0".to_owned()
        }

        fn seal_wait(&self, _shard: u32) -> Duration {
            Duration::from_millis(20)
        }

        fn build_round(&self, kernel: &Kernel, shard: u32) -> Option<Round> {
            let txs = kernel.shard(shard).mempool.drain(1_000);
            if txs.is_empty() {
                return None;
            }
            let mut tx_ids = Vec::with_capacity(txs.len());
            let mut valid = Vec::with_capacity(txs.len());
            {
                let mut state = kernel.shard(shard).state.lock();
                for tx in &txs {
                    tx_ids.push(tx.id);
                    valid.push(state.apply(&tx.tx.op).is_ok());
                }
            }
            Some(Round {
                proposer: "fifo-node-0".to_owned(),
                tx_ids,
                valid,
                gossip_to: Vec::new(),
                mempool_depth: None,
            })
        }
    }

    /// A FIFO chain on a virtual clock, which the calling test thread takes
    /// part in: the loop runs only while the test waits on the clock.
    fn start_fifo() -> Arc<ChainNode<FifoPolicy>> {
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        NodeKernelBuilder::new(clock, net)
            .mempool_capacity(100)
            .endpoint("fifo-node-0")
            .start(FifoPolicy)
    }

    /// The `(id, valid)` entries of the blocks sealed on shard 0 above
    /// `after`.
    fn sealed_after<P: ConsensusPolicy>(chain: &ChainNode<P>, after: u64) -> Vec<(TxId, bool)> {
        let height = chain.latest_height(0).unwrap();
        let blocks = chain.blocks(0, after + 1..=height).unwrap();
        blocks.iter().flat_map(|block| block.entries()).collect()
    }

    fn signed(nonce: u64) -> SignedTransaction {
        use crate::smallbank::Op;
        use crate::types::Transaction;
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op: Op::DepositChecking {
                account: Address::from_name("k"),
                amount: 1,
            },
            chain_name: "fifo-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
        .sign(&hammer_crypto::Keypair::from_seed(9), &SigParams::fast())
    }

    #[test]
    fn kernel_seals_submitted_txs() {
        let chain = start_fifo();
        chain.seed_account(Address::from_name("k"), 100, 0);
        let id = chain.submit(signed(1)).unwrap();
        // The first epoch ends at 20 ms; a tie would go to the test thread.
        chain.clock().sleep_until(30 * MS);
        assert_eq!(sealed_after(&chain, 0), [(id, true)]);
        let block = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(block.header.timestamp, 20 * MS);
        assert_eq!(chain.stats().committed, 1);
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    #[test]
    fn seal_block_appends_the_round_in_order() {
        let chain = start_fifo();
        let valid = vec![true, false, true, true, false, true, true];
        let round = |first_nonce: u64| Round {
            proposer: "fifo-node-0".to_owned(),
            tx_ids: (first_nonce..first_nonce + 7)
                .map(|n| signed(n).id)
                .collect(),
            valid: valid.clone(),
            gossip_to: Vec::new(),
            mempool_depth: None,
        };
        chain.kernel().seal_block(0, round(0));
        assert_eq!(chain.stats().committed + chain.stats().failed, 7);

        let second = round(100);
        let expect: Vec<(TxId, bool)> = second.tx_ids.iter().copied().zip(valid.clone()).collect();
        chain.kernel().seal_block(0, second);
        assert_eq!(sealed_after(&chain, 1), expect);
        let block = chain.block_at(0, 2).unwrap().unwrap();
        assert_eq!((block.header.height, block.header.shard), (2, 0));
        chain.shutdown();
    }

    #[test]
    fn a_shared_read_is_a_pointer_copy_and_an_owned_read_an_equal_block() {
        let chain = start_fifo();
        for first_nonce in [0, 100] {
            chain.kernel().seal_block(
                0,
                Round {
                    proposer: "fifo-node-0".to_owned(),
                    tx_ids: (first_nonce..first_nonce + 3)
                        .map(|n| signed(n).id)
                        .collect(),
                    valid: vec![true, false, true],
                    gossip_to: Vec::new(),
                    mempool_depth: None,
                },
            );
        }
        let h = chain.latest_height(0).unwrap();
        assert_eq!(h, 2);
        let (first, second) = (
            chain.blocks(0, h..=h).unwrap(),
            chain.blocks(0, h..=h).unwrap(),
        );
        assert_eq!((first.len(), second.len()), (1, 1));
        assert!(Arc::ptr_eq(&first[0], &second[0]));
        assert_eq!(chain.block_at(0, h).unwrap().as_ref(), Some(&*first[0]));
        let all = chain.blocks(0, 0..=h + 5).unwrap();
        assert_eq!(
            all.iter().map(|b| b.header.height).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(chain.blocks(7, 1..=1).unwrap_err().shard(), Some(7));
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    /// Two shards, each sealing a one-id round every `wait`, shard 0's
    /// at a cost of `cost`; every build is logged with its shard and the
    /// clock's reading.
    struct CostlyShard {
        wait: Duration,
        cost: Duration,
        builds: Mutex<Vec<(u32, Duration)>>,
    }

    impl ConsensusPolicy for CostlyShard {
        fn chain_name(&self) -> &'static str {
            "two-shard-sim"
        }

        fn architecture(&self) -> Architecture {
            Architecture::Sharded { shards: 2 }
        }

        fn ingress_node(&self, shard: u32) -> String {
            format!("two-shard-node-{shard}")
        }

        fn seal_wait(&self, _shard: u32) -> Duration {
            self.wait
        }

        fn build_round(&self, kernel: &Kernel, shard: u32) -> Option<Round> {
            let mut builds = self.builds.lock();
            builds.push((shard, kernel.clock().now()));
            Some(Round {
                proposer: self.ingress_node(shard),
                tx_ids: vec![signed(builds.len() as u64).id],
                valid: vec![true],
                gossip_to: Vec::new(),
                mempool_depth: None,
            })
        }

        fn round_cost(&self, shard: u32, _txs: usize) -> Duration {
            if shard == 0 {
                self.cost
            } else {
                Duration::ZERO
            }
        }
    }

    fn start_two_shards(wait: Duration, cost: Duration) -> Arc<ChainNode<CostlyShard>> {
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        // Endpoints are names, not threads: five of them add none.
        NodeKernelBuilder::new(clock, net)
            .endpoint("two-shard-node-0")
            .endpoint("two-shard-node-1")
            .endpoint("two-shard-replica-0")
            .endpoint("two-shard-replica-1")
            .endpoint("two-shard-replica-2")
            .start(CostlyShard {
                wait,
                cost,
                builds: Mutex::new(Vec::new()),
            })
    }

    #[test]
    fn a_two_shard_node_owns_exactly_one_thread() {
        let chain = start_two_shards(100 * MS, Duration::ZERO);
        let clock = chain.clock().clone();
        // The test thread, and one loop for both shards, which seal ten
        // blocks each meanwhile.
        assert_eq!(clock.participants(), 2);
        clock.sleep_until(1050 * MS);
        assert_eq!(clock.participants(), 2);
        assert_eq!(
            (chain.latest_height(0), chain.latest_height(1)),
            (Ok(10), Ok(10))
        );
        chain.shutdown();
        assert!(chain.thread.lock().is_none());
        assert_eq!(clock.participants(), 1, "joined at shutdown");
    }

    #[test]
    fn a_costly_round_seals_after_its_cost_while_the_other_shard_keeps_its_cadence() {
        let (wait, cost) = (100 * MS, Duration::from_secs(1));
        let chain = start_two_shards(wait, cost);
        // Shard 0 builds at 100 ms and seals at 1.1 s; shard 1 builds and
        // seals every 100 ms meanwhile, ten times from 100 ms to 1 s.
        chain.clock().sleep_until(1150 * MS);
        chain.shutdown();
        let builds = chain.policy().builds.lock().clone();
        let built = builds.iter().find(|(shard, _)| *shard == 0).unwrap().1;
        assert_eq!(built, wait);
        assert_eq!(chain.latest_height(0).unwrap(), 1);
        let sealed = chain.block_at(0, 1).unwrap().unwrap().header.timestamp;
        assert_eq!(sealed, built + cost);
        let heights = 1..=chain.latest_height(1).unwrap();
        let inside = (chain.blocks(1, heights).unwrap().iter())
            .filter(|block| (built..sealed).contains(&block.header.timestamp))
            .count();
        assert_eq!(inside, 10, "shard 1's blocks inside shard 0's cost");
    }

    #[test]
    fn equal_deadlines_go_to_the_lower_shard() {
        let (at, later) = (Duration::from_millis(7), Duration::from_millis(9));
        assert_eq!(earliest(&[(later, None), (at, None), (at, None)]), 1);
        assert_eq!(earliest(&[(at, None), (later, None), (at, None)]), 0);
    }

    #[test]
    fn a_plan_installed_while_serving_gates_the_next_submission() {
        use hammer_net::FaultPlan;
        let chain = start_fifo();
        // The ids sealed above `height`.
        let sealed = |height| -> Vec<TxId> {
            sealed_after(&chain, height)
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        };
        // No plan was ever installed: the gate answers from its flag.
        let first = chain.submit(signed(1)).unwrap();
        chain.clock().sleep_until(30 * MS);
        assert_eq!(sealed(0), [first]);
        let forever = Duration::from_secs(1 << 40);
        chain
            .net()
            .install_faults(FaultPlan::new().crash("fifo-node-0", Duration::ZERO, forever));
        // A thread that starts after the install returned must see it.
        let refused = std::thread::scope(|scope| {
            let submit = || chain.submit(signed(2));
            let handle = thread::spawn_scoped(scope, "kernel-test-submit", submit).unwrap();
            handle.join().unwrap()
        });
        assert!(refused.unwrap_err().is_unavailable());
        // An empty plan in its place: served again, and sealed again.
        chain.net().install_faults(FaultPlan::new());
        let third = chain.submit(signed(3)).unwrap();
        // Sealed at the next epoch, 40 ms.
        chain.clock().sleep_until(50 * MS);
        assert_eq!(sealed(1), [third]);
        assert_eq!(chain.ingress_nodes(), ["fifo-node-0"]);
        assert_eq!(chain.sealer_nodes(), ["fifo-node-0"]);
        chain.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let chain = start_fifo();
        chain.submit(signed(1)).unwrap();
        chain.shutdown_and_join();
        assert!(chain.thread.lock().is_none());
        // Idempotent, and submissions now fail cleanly.
        chain.shutdown_and_join();
        assert!(chain.submit(signed(2)).unwrap_err().is_shutdown());
    }

    /// One shard that waits for ever unless an admission rang it, then
    /// seals what the mempool holds.
    struct Rung {
        due: AtomicBool,
        asked: AtomicU64,
    }

    impl ConsensusPolicy for Rung {
        fn chain_name(&self) -> &'static str {
            "rung-sim"
        }

        fn ingress_node(&self, _shard: u32) -> String {
            "fifo-node-0".to_owned()
        }

        fn admit(
            &self,
            kernel: &Kernel,
            shard: u32,
            tx: SignedTransaction,
        ) -> Result<TxId, ChainError> {
            let id = tx.id;
            kernel
                .shard(shard)
                .mempool
                .push(tx)
                .map_err(ChainError::rejected)?;
            self.due.store(true, Ordering::Release);
            kernel.ring();
            Ok(id)
        }

        fn seal_wait(&self, _shard: u32) -> Duration {
            self.asked.fetch_add(1, Ordering::Relaxed);
            if self.due.swap(false, Ordering::AcqRel) {
                Duration::ZERO
            } else {
                Duration::MAX
            }
        }

        fn build_round(&self, kernel: &Kernel, shard: u32) -> Option<Round> {
            FifoPolicy.build_round(kernel, shard)
        }
    }

    fn start_rung(clock: SimClock) -> Arc<ChainNode<Rung>> {
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let chain = NodeKernelBuilder::new(clock, net)
            .endpoint("fifo-node-0")
            .start(Rung {
                due: AtomicBool::new(false),
                asked: AtomicU64::new(0),
            });
        chain.seed_account(Address::from_name("k"), 100, 0);
        chain
    }

    #[test]
    fn a_shard_waiting_for_ever_is_woken_by_a_ring_and_a_stop() {
        let chain = start_rung(SimClock::virtual_time());
        let clock = chain.clock().clone();
        // Asked once at start, then parked: an hour on, nothing asked again.
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(chain.policy().asked.load(Ordering::Relaxed), 1);
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        // The ring moves the deadline to its instant: asked again, the round
        // is built and sealed there, and the loop is asked once more.
        let rung_at = clock.now();
        let id = chain.submit(signed(1)).unwrap();
        clock.sleep(MS);
        assert_eq!(sealed_after(&chain, 0), [(id, true)]);
        let block = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(block.header.timestamp, rung_at);
        assert_eq!(chain.policy().asked.load(Ordering::Relaxed), 3);
        // Parked on no deadline, the loop is stopped by the raise, and
        // joined at its instant.
        let raised_at = clock.now();
        chain.shutdown();
        assert_eq!(clock.now(), raised_at);
        assert_eq!(clock.participants(), 1);
    }

    #[test]
    fn a_stop_ends_a_wall_mode_wait_for_ever_by_a_wake() {
        let chain = start_rung(SimClock::with_speedup(1000.0));
        chain.submit(signed(1)).unwrap();
        // 30 ms of wall time: the ring is served, and the loop parks on no
        // deadline.
        chain.clock().sleep(Duration::from_secs(30));
        let started = Instant::now();
        chain.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "took {took:?}");
    }

    #[test]
    fn mempool_full_is_backpressure() {
        use crate::client::ErrorKind;
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let chain = NodeKernelBuilder::new(clock, net)
            .mempool_capacity(2)
            .endpoint("fifo-node-0")
            .start(FifoPolicy);
        // No time passes between submissions: the loop drains nothing.
        let answers: Vec<_> = (1..=3).map(|nonce| chain.submit(signed(nonce))).collect();
        assert!(answers[..2].iter().all(Result::is_ok), "{answers:?}");
        let refused = answers[2].as_ref().unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::Backpressure);
        chain.shutdown();
    }
}
