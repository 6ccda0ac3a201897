//! The chain-node runtime ("node kernel") shared by every simulated chain.
//!
//! The paper evaluates four very different consensus designs through one
//! generic driver, and the simulators for those designs used to duplicate
//! all of the chain-*agnostic* node scaffolding: named-thread spawn loops,
//! mempool ingress with fault gating, sealed-block accounting and
//! observability, and replication-traffic accounting on the simulated
//! network. The kernel owns that scaffolding once:
//!
//! * **Lifecycle** — [`NodeKernelBuilder::start`] spawns every node
//!   thread (the per-shard sealer loop, policy workers) and records the
//!   join handles; [`ChainNode::shutdown_and_join`] stops
//!   *and joins* them, so dropping a chain never leaks a live thread.
//!   They wait for simulated time in one way,
//!   [`Kernel::sleep_interruptible`], which shutdown ends by a wake.
//! * **Ingress** — [`BlockchainClient::submit`] is implemented once:
//!   shutdown check, [`check_node_ingress`] fault gating on the shard's
//!   ingress node (names asked of the policy once, at start; no lock taken
//!   until a fault plan is installed, the locked path from then on), then
//!   policy-controlled admission (bounded mempool by default, so overload
//!   surfaces as [`ErrorKind::Backpressure`]).
//! * **Sealing** — [`Kernel::seal_block`] builds the block against the
//!   shard ledger, accounts its replication traffic on `hammer-net`,
//!   updates the activity counters, emits the per-block observability (sealed
//!   counters, mempool-depth gauge, journal `block_seal`) and publishes
//!   the commit events.
//! * **RPC wiring** — [`ChainNode::serve_rpc_sim`] exposes any
//!   kernel-hosted chain over the JSON-RPC adapter.
//!
//! What remains per chain is a [`ConsensusPolicy`]: when to seal, how to
//! order/validate/endorse a round, and how accounts map onto shards. A
//! new backend is one policy implementation instead of a full crate of
//! node plumbing — see `DESIGN.md` §5 for the walkthrough.
//!
//! [`ErrorKind::Backpressure`]: crate::client::ErrorKind::Backpressure

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use hammer_crypto::sig::SigParams;
use hammer_net::{SimClock, SimNetwork, StopSignal};
use parking_lot::{Mutex, RwLock};

use crate::client::{check_node_ingress, Architecture, BlockchainClient, ChainError, CommitEvent};
use crate::events::CommitBus;
use crate::ledger::{Ledger, LedgerError};
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
    /// Append-only block store with hash-chain verification.
    pub ledger: RwLock<Ledger>,
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
    /// Endpoint name of the proposing node (block author and gossip
    /// source).
    pub proposer: String,
    /// Transactions in block order.
    pub tx_ids: Vec<TxId>,
    /// Per-transaction validity flags (`valid[i]` belongs to `tx_ids[i]`).
    pub valid: Vec<bool>,
    /// Endpoints the sealed block is replicated to (accounted on the
    /// network, one message each).
    pub gossip_to: Vec<String>,
    /// Pending-depth reported to the mempool gauge; `None` uses the
    /// shard's kernel mempool length (policies with their own pending set
    /// — e.g. an endorsement pipeline — override it).
    pub mempool_depth: Option<usize>,
}

/// A named background thread a policy asks the kernel to run (endorser
/// pools, orderers, committers, ...). The kernel spawns it and joins it
/// at shutdown; the closure must exit promptly once
/// [`Kernel::is_shutdown`] turns true: it waits only through
/// [`Kernel::sleep_interruptible`] and on channels that
/// [`ConsensusPolicy::stop`] disconnects.
pub struct Worker {
    name: String,
    run: Box<dyn FnOnce() + Send + 'static>,
}

impl Worker {
    /// Creates a worker with a thread name and body.
    pub fn new(name: impl Into<String>, run: impl FnOnce() + Send + 'static) -> Self {
        Worker {
            name: name.into(),
            run: Box::new(run),
        }
    }
}

/// The chain-agnostic node runtime: clock, network, per-shard storage,
/// commit bus, stop signal, and activity counters.
pub struct Kernel {
    chain_name: String,
    architecture: Architecture,
    clock: SimClock,
    net: SimNetwork,
    shards: Vec<ShardCtx>,
    bus: CommitBus,
    shutdown: StopSignal,
    gossip_base: usize,
    gossip_per_tx: usize,
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

    /// The chain's display name.
    pub fn chain_name(&self) -> &str {
        &self.chain_name
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
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.is_raised()
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            blocks: self.blocks.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            bad_sig: self.bad_sig.load(Ordering::Relaxed),
        }
    }

    /// Sleeps for `sim` of simulated time, woken early by shutdown: how
    /// every sealer, policy worker and modelled cost waits. Returns `false`
    /// when the sleep was cut short (the caller's loop should exit). Both
    /// the precision and the wake are [`SimClock::sleep_unless`]'s.
    pub fn sleep_interruptible(&self, sim: Duration) -> bool {
        self.clock.sleep_unless(sim, &self.shutdown)
    }

    /// Batch-verifies `txs` in place, dropping (and counting) the ones
    /// with bad signatures. One shared-table batch pass instead of a full
    /// modexp per transaction.
    pub fn verify_retain(&self, txs: &mut Vec<SignedTransaction>, params: &SigParams) {
        self.verify_retain_with(txs, params, |_| {});
    }

    /// [`Kernel::verify_retain`] with a callback per rejected transaction
    /// (policies that track pending ids outside the kernel mempool use it
    /// to release them).
    pub fn verify_retain_with(
        &self,
        txs: &mut Vec<SignedTransaction>,
        params: &SigParams,
        mut on_bad: impl FnMut(&SignedTransaction),
    ) {
        let verdicts = verify_signed_batch(txs, params);
        let mut verdicts = verdicts.iter();
        txs.retain(|tx| {
            let ok = *verdicts.next().expect("one verdict per tx");
            if !ok {
                self.bad_sig.fetch_add(1, Ordering::Relaxed);
                on_bad(tx);
            }
            ok
        });
    }

    /// Accounts a sealed block's replication from `from` to every
    /// endpoint in `to`, approximating the wire size from the transaction
    /// count.
    pub fn gossip(&self, from: &str, to: &[String], txs: usize) {
        let approx = self.gossip_base + txs * self.gossip_per_tx;
        for target in to {
            let _ = self.net.send(from, target, approx);
        }
    }

    /// Seals one round into a block on `shard`: builds the block against
    /// the shard ledger, accounts its gossip, appends it, updates the counters,
    /// emits the per-block observability, and publishes the commit
    /// events. One obs-bundle fetch per sealed block, never per tx.
    pub fn seal_block(&self, shard_id: u32, round: Round) {
        let Round {
            proposer,
            tx_ids,
            valid,
            gossip_to,
            mempool_depth,
        } = round;
        debug_assert_eq!(tx_ids.len(), valid.len());
        let shard = &self.shards[shard_id as usize];
        let timestamp = self.clock.now();
        let block = {
            let ledger = shard.ledger.read();
            Block::new(
                ledger.height() + 1,
                ledger.tip_hash(),
                timestamp,
                &proposer,
                shard_id,
                tx_ids,
                valid,
            )
        };
        self.gossip(&proposer, &gossip_to, block.len());

        let height = block.header.height;
        let sealed_txs = block.len();
        let ok = block.valid.iter().filter(|v| **v).count() as u64;
        shard
            .ledger
            .write()
            .append(block)
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
        // Events are built from the appended block, and only for a bus
        // someone is subscribed to.
        self.bus.publish_all(|| {
            let ledger = shard.ledger.read();
            let block = ledger.block_at(height).expect("appended above");
            block
                .entries()
                .map(|(tx_id, success)| CommitEvent {
                    tx_id,
                    success,
                    block_height: height,
                    shard: shard_id,
                    committed_at: timestamp,
                })
                .collect()
        });
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

    /// Whether the kernel should drive a sealer loop per shard (sleep
    /// [`ConsensusPolicy::seal_wait`] → crash-gate → round). Pipelines
    /// that seal from their own workers return `false`.
    fn drives_sealer(&self) -> bool {
        true
    }

    /// How long the sealer loop waits before the next round on `shard`
    /// (fixed epochs, sampled PoW intervals, ...). Only called when
    /// [`ConsensusPolicy::drives_sealer`] is true.
    fn seal_wait(&self, _shard: u32) -> Duration {
        Duration::from_millis(100)
    }

    /// Produces the next round for `shard`: drain/order/validate however
    /// the consensus design dictates, and return `None` to seal nothing
    /// this wait. Only called when [`ConsensusPolicy::drives_sealer`] is
    /// true.
    fn build_round(&self, _kernel: &Kernel, _shard: u32) -> Option<Round> {
        None
    }

    /// Extra background threads (endorser pools, orderers, ...) the
    /// kernel spawns at start and joins at shutdown.
    fn workers(self: &Arc<Self>, _kernel: &Arc<Kernel>) -> Vec<Worker>
    where
        Self: Sized,
    {
        Vec::new()
    }

    /// Called at shutdown, before the workers are joined: a policy whose
    /// workers block on channels it owns drops the sending ends here, so
    /// they leave by disconnection.
    fn stop(&self) {}
}

/// Builds and starts a [`ChainNode`]: endpoints, sealers, and policy
/// workers in one call.
pub struct NodeKernelBuilder {
    clock: SimClock,
    net: SimNetwork,
    mempool_capacity: usize,
    gossip_base: usize,
    gossip_per_tx: usize,
    endpoints: Vec<String>,
}

impl NodeKernelBuilder {
    /// Starts a builder on an existing clock and network.
    pub fn new(clock: SimClock, net: SimNetwork) -> Self {
        NodeKernelBuilder {
            clock,
            net,
            mempool_capacity: 10_000,
            gossip_base: 200,
            gossip_per_tx: 110,
            endpoints: Vec::new(),
        }
    }

    /// Capacity of each shard's kernel mempool.
    pub fn mempool_capacity(mut self, capacity: usize) -> Self {
        self.mempool_capacity = capacity;
        self
    }

    /// Approximate gossip wire size: `base + txs * per_tx` bytes.
    pub fn gossip_sizing(mut self, base: usize, per_tx: usize) -> Self {
        self.gossip_base = base;
        self.gossip_per_tx = per_tx;
        self
    }

    /// Registers a network endpoint: a node name gossip can be addressed
    /// to and a fault plan can target.
    pub fn endpoint(mut self, name: &str) -> Self {
        self.endpoints.push(name.to_owned());
        self
    }

    /// Starts the node: registers endpoints, spawns sealers and policy
    /// workers, and returns the running chain handle.
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
            bus: CommitBus::new(),
            shutdown: StopSignal::default(),
            gossip_base: self.gossip_base,
            gossip_per_tx: self.gossip_per_tx,
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
        let mut threads = Vec::new();
        for worker in policy.workers(&kernel) {
            threads.push(
                std::thread::Builder::new()
                    .name(worker.name)
                    .spawn(worker.run)
                    .expect("spawn policy worker"),
            );
        }
        if policy.drives_sealer() {
            for shard in 0..shard_count {
                let sealer_kernel = Arc::clone(&kernel);
                let sealer_policy = Arc::clone(&policy);
                let node = sealers[shard as usize].clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("{}-sealer-{shard}", kernel.chain_name))
                        .spawn(move || sealer_loop(sealer_kernel, sealer_policy, shard, &node))
                        .expect("spawn sealer"),
                );
            }
        }
        Arc::new(ChainNode {
            kernel,
            policy,
            ingress,
            sealers,
            threads: Mutex::new(threads),
        })
    }
}

/// The kernel-driven sealer: wait → crash-gate on the sealer node →
/// policy round → seal.
fn sealer_loop<P: ConsensusPolicy>(kernel: Arc<Kernel>, policy: Arc<P>, shard: u32, node: &str) {
    loop {
        if !kernel.sleep_interruptible(policy.seal_wait(shard)) {
            return;
        }
        // A crashed sealer seals nothing this round; pooled transactions
        // wait out the fault window.
        if kernel.net.node_crashed(node) {
            continue;
        }
        if let Some(round) = policy.build_round(&kernel, shard) {
            kernel.seal_block(shard, round);
        }
    }
}

/// A running chain: the kernel plus its policy and the join handles of
/// every thread the kernel spawned.
pub struct ChainNode<P: ConsensusPolicy> {
    kernel: Arc<Kernel>,
    policy: Arc<P>,
    /// Per shard, the policy's ingress and sealer endpoint names.
    ingress: Vec<String>,
    sealers: Vec<String>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
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

    /// Requests shutdown (waking every thread in
    /// [`Kernel::sleep_interruptible`]) and joins every kernel-spawned
    /// thread. Idempotent; never joins the calling thread (a policy worker
    /// may itself trigger shutdown).
    pub fn shutdown_and_join(&self) {
        self.kernel.shutdown.raise();
        self.policy.stop();
        let me = std::thread::current().id();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
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
        let ctx = self
            .kernel
            .shards
            .get(shard as usize)
            .ok_or(ChainError::unknown_shard(shard))?;
        Ok(ctx.ledger.read().height())
    }

    fn block_at(&self, shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
        let ctx = self
            .kernel
            .shards
            .get(shard as usize)
            .ok_or(ChainError::unknown_shard(shard))?;
        Ok(ctx.ledger.read().block_at(height).cloned())
    }

    fn pending_txs(&self) -> Result<usize, ChainError> {
        Ok(self.policy.pending(&self.kernel))
    }

    fn subscribe_commits(&self) -> Receiver<CommitEvent> {
        self.kernel.bus.subscribe()
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
    use std::time::Instant;

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

    fn start_fifo() -> Arc<ChainNode<FifoPolicy>> {
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        NodeKernelBuilder::new(clock, net)
            .mempool_capacity(100)
            .endpoint("fifo-node-0")
            .start(FifoPolicy)
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
        let rx = chain.subscribe_commits();
        let id = chain.submit(signed(1)).unwrap();
        let event = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(event.tx_id, id);
        assert!(event.success);
        assert_eq!(chain.stats().committed, 1);
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    #[test]
    fn seal_block_publishes_in_block_order_to_subscribers_only() {
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
        // Sealed with nobody subscribed: committed all the same, and (the
        // bus's own tests pin this) without building an event.
        chain.kernel().seal_block(0, round(0));
        assert_eq!(chain.stats().committed + chain.stats().failed, 7);
        let rx = chain.subscribe_commits();
        assert!(rx.try_recv().is_err(), "a late subscriber missed block 1");

        let second = round(100);
        let expect: Vec<(TxId, bool)> = second.tx_ids.iter().copied().zip(valid.clone()).collect();
        chain.kernel().seal_block(0, second);
        let got: Vec<CommitEvent> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(
            got.iter().map(|e| (e.tx_id, e.success)).collect::<Vec<_>>(),
            expect
        );
        assert!(got.iter().all(|e| e.block_height == 2 && e.shard == 0));
        chain.shutdown();
    }

    #[test]
    fn a_started_node_owns_exactly_its_sealers_and_workers() {
        /// Two shards on kernel-driven sealers plus one policy worker.
        struct TwoShardPolicy;

        impl ConsensusPolicy for TwoShardPolicy {
            fn chain_name(&self) -> &'static str {
                "two-shard-sim"
            }

            fn architecture(&self) -> Architecture {
                Architecture::Sharded { shards: 2 }
            }

            fn ingress_node(&self, shard: u32) -> String {
                format!("two-shard-node-{shard}")
            }

            fn workers(self: &Arc<Self>, kernel: &Arc<Kernel>) -> Vec<Worker> {
                let kernel = Arc::clone(kernel);
                vec![Worker::new("two-shard-worker", move || {
                    while kernel.sleep_interruptible(Duration::from_secs(1)) {}
                })]
            }
        }

        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        // Endpoints are names, not threads: five of them add none.
        let chain = NodeKernelBuilder::new(clock, net)
            .endpoint("two-shard-node-0")
            .endpoint("two-shard-node-1")
            .endpoint("two-shard-replica-0")
            .endpoint("two-shard-replica-1")
            .endpoint("two-shard-replica-2")
            .start(TwoShardPolicy);
        assert_eq!(chain.threads.lock().len(), 3);
        chain.shutdown();
    }

    #[test]
    fn sealing_accounts_one_gossip_message_per_follower() {
        use hammer_net::FaultPlan;
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        let chain = NodeKernelBuilder::new(clock, net.clone())
            .gossip_sizing(40, 7)
            .endpoint("fifo-node-0")
            .endpoint("fifo-node-1")
            .endpoint("fifo-node-2")
            .start(FifoPolicy);
        let round = |first_nonce: u64| Round {
            proposer: "fifo-node-0".to_owned(),
            tx_ids: (first_nonce..first_nonce + 5)
                .map(|n| signed(n).id)
                .collect(),
            valid: vec![true; 5],
            gossip_to: vec!["fifo-node-1".to_owned(), "fifo-node-2".to_owned()],
            mempool_depth: None,
        };
        chain.kernel().seal_block(0, round(0));
        let stats = net.stats();
        assert_eq!((stats.sent, stats.bytes_sent), (2, 2 * (40 + 7 * 5)));
        assert_eq!(stats.faulted + stats.lost, 0);

        // Cut the proposer off from one follower: both messages are
        // still accepted, one is booked as dropped by the fault.
        net.install_faults(FaultPlan::new().partition(
            &[&["fifo-node-0", "fifo-node-1"], &["fifo-node-2"]],
            Duration::ZERO,
            Duration::from_secs(3600),
        ));
        chain.kernel().seal_block(0, round(100));
        let stats = net.stats();
        assert_eq!((stats.sent, stats.bytes_sent), (4, 4 * (40 + 7 * 5)));
        assert_eq!((stats.faulted, stats.lost), (1, 0));
        chain.shutdown();
    }

    #[test]
    fn a_plan_installed_while_serving_gates_the_next_submission() {
        use hammer_net::FaultPlan;
        let chain = start_fifo();
        let rx = chain.subscribe_commits();
        let committed = || rx.recv_timeout(Duration::from_secs(5)).unwrap().tx_id;
        // No plan was ever installed: the gate answers from its flag.
        assert_eq!(chain.submit(signed(1)).unwrap(), committed());
        let forever = Duration::from_secs(1 << 40);
        chain
            .net()
            .install_faults(FaultPlan::new().crash("fifo-node-0", Duration::ZERO, forever));
        // A thread that starts after the install returned must see it.
        let refused =
            std::thread::scope(|scope| scope.spawn(|| chain.submit(signed(2))).join().unwrap());
        assert!(refused.unwrap_err().is_unavailable());
        // An empty plan in its place: served again, and sealed again.
        chain.net().install_faults(FaultPlan::new());
        assert_eq!(chain.submit(signed(3)).unwrap(), committed());
        assert_eq!(chain.ingress_nodes(), ["fifo-node-0"]);
        assert_eq!(chain.sealer_nodes(), ["fifo-node-0"]);
        chain.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let chain = start_fifo();
        chain.submit(signed(1)).unwrap();
        chain.shutdown_and_join();
        assert!(chain.threads.lock().is_empty());
        // Idempotent, and submissions now fail cleanly.
        chain.shutdown_and_join();
        assert!(chain.submit(signed(2)).unwrap_err().is_shutdown());
    }

    #[test]
    fn a_worker_that_shuts_its_own_node_down_is_not_self_joined() {
        use crossbeam::channel::{bounded, Sender};

        /// One sealer plus a worker that is handed its own node and shuts
        /// it down from inside.
        struct SelfStopPolicy {
            node: Receiver<Arc<ChainNode<SelfStopPolicy>>>,
            done: Sender<()>,
        }

        impl ConsensusPolicy for SelfStopPolicy {
            fn chain_name(&self) -> &'static str {
                "self-stop-sim"
            }

            fn ingress_node(&self, _shard: u32) -> String {
                "self-stop-node-0".to_owned()
            }

            fn workers(self: &Arc<Self>, _kernel: &Arc<Kernel>) -> Vec<Worker> {
                let policy = Arc::clone(self);
                vec![Worker::new("self-stop-worker", move || {
                    let node = policy.node.recv().expect("the test hands the node over");
                    node.shutdown_and_join(); // joins the sealer, skips itself
                    let _ = policy.done.send(());
                })]
            }
        }

        let (node_tx, node) = bounded(1);
        let (done, done_rx) = bounded(1);
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        let chain = NodeKernelBuilder::new(clock, net)
            .endpoint("self-stop-node-0")
            .start(SelfStopPolicy { node, done });
        assert_eq!(chain.threads.lock().len(), 2);
        node_tx.send(Arc::clone(&chain)).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a self-join would have parked the worker on its own handle");
        assert!(chain.kernel().is_shutdown());
        assert!(chain.threads.lock().is_empty());
    }

    #[test]
    fn interruptible_sleep_cut_short_by_shutdown() {
        let chain = start_fifo();
        let kernel = Arc::clone(chain.kernel());
        // 1 hour of simulated time at 1000× is 3.6 s of wall time; the
        // shutdown below must cut it to the 30 ms it waited before.
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            let completed = kernel.sleep_interruptible(Duration::from_secs(3600));
            (completed, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        chain.shutdown();
        let (completed, elapsed) = waiter.join().unwrap();
        assert!(!completed, "sleep should have been interrupted");
        assert!(elapsed < Duration::from_millis(250), "took {elapsed:?}");
    }

    #[test]
    fn mempool_full_is_backpressure() {
        use crate::client::ErrorKind;
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        let chain = NodeKernelBuilder::new(clock, net)
            .mempool_capacity(2)
            .endpoint("fifo-node-0")
            .start(FifoPolicy);
        // Stall-free window is tiny; submit fast enough to overflow.
        let mut saw_backpressure = false;
        for nonce in 1..200 {
            if let Err(err) = chain.submit(signed(nonce)) {
                if err.kind() == ErrorKind::Backpressure {
                    saw_backpressure = true;
                    break;
                }
            }
        }
        assert!(saw_backpressure);
        chain.shutdown();
    }
}
