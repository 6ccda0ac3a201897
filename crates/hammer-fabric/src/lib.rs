//! A Hyperledger-Fabric-style execute-order-validate blockchain simulator.
//!
//! Reproduces the performance-relevant mechanics of a permissioned Fabric
//! network (the paper's primary correctness/usability target, §V-C/V-D):
//!
//! * **Endorsement** — a pool of endorser threads *simulates* each
//!   transaction against current state, producing a read/write set
//!   ([`hammer_chain::state::RwSet`]) without committing.
//! * **Ordering** — an orderer thread batches endorsed transactions into
//!   blocks by count ([`FabricConfig::max_batch`]) or timeout
//!   ([`FabricConfig::batch_timeout`]), like a Raft ordering service.
//! * **Validation (MVCC)** — a committer thread re-checks every read
//!   version and marks conflicting transactions invalid *inside the block*
//!   (Fabric commits invalid transactions with a validation-failure flag;
//!   they are visible on the ledger). Conflicts grow with client
//!   concurrency on hot accounts, which is exactly the effect behind the
//!   paper's Fig. 10.
//! * **Block distribution** — the push of each sealed block from the
//!   orderer to the peer endpoints is accounted on the simulated network.
//!
//! Node scaffolding (thread lifecycle, ingress gating, sealed-block
//! accounting) comes from the [`hammer_chain::kernel`]. Unlike the
//! epoch-driven sims, Fabric's [`ConsensusPolicy`] does not use the
//! kernel's sealer loop: the endorse → order → validate pipeline runs as
//! policy workers, and the committer seals through
//! [`hammer_chain::kernel::Kernel::seal_block`] when a validated batch is
//! ready. [`start`] returns the running [`ChainNode`] itself; the policy's
//! own counters are read through `node.policy()`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use hammer_chain::client::ChainError;
use hammer_chain::kernel::{ChainNode, ConsensusPolicy, Kernel, NodeKernelBuilder, Round, Worker};
use hammer_chain::mempool::MempoolError;
use hammer_chain::state::RwSet;
use hammer_chain::types::{SignedTransaction, TxId};
use hammer_crypto::sig::SigParams;
use hammer_net::{SimClock, SimNetwork};
use parking_lot::Mutex;

/// Configuration of the simulated Fabric network.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of peer nodes (the paper uses 4 peers + 1 orderer).
    pub peers: usize,
    /// Endorser worker threads (one per peer by default).
    pub endorser_threads: usize,
    /// Simulated cost of endorsing one transaction (execute + sign).
    pub endorse_cost: Duration,
    /// Maximum transactions per block.
    pub max_batch: usize,
    /// Ordering batch timeout.
    pub batch_timeout: Duration,
    /// Simulated cost of validating/committing one transaction.
    pub validate_cost: Duration,
    /// Capacity of the endorsement inbox; beyond it submissions are
    /// rejected (the node-overload rejection seen in the paper's Fig. 10).
    pub inbox_capacity: usize,
    /// CPU the node spends turning away one over-capacity request
    /// (gRPC handling + error response). Overload is not free: heavy
    /// rejection traffic eats into endorsement capacity, which is what
    /// makes throughput *decline* past the saturation point in Fig. 10.
    pub reject_handling_cost: Duration,
    /// Signature scheme parameters.
    pub sig_params: SigParams,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            peers: 4,
            endorser_threads: 4,
            endorse_cost: Duration::from_millis(2),
            max_batch: 120,
            batch_timeout: Duration::from_millis(500),
            // Validation/commit is Fabric's structural bottleneck (ledger
            // writes + VSCC): ~4 ms/tx caps the chain near 250 TPS, the
            // peak the paper reports.
            validate_cost: Duration::from_millis(4),
            inbox_capacity: 10_000,
            reject_handling_cost: Duration::from_millis(1),
            sig_params: SigParams::fast(),
        }
    }
}

/// An endorsed transaction waiting for ordering.
struct Endorsed {
    tx_id: TxId,
    /// `None` = endorsement failed (still ordered, marked invalid).
    rwset: Option<RwSet>,
}

fn peer_name(i: usize) -> String {
    format!("fabric-peer-{i}")
}

/// The execute-order-validate consensus core: an endorsement inbox with
/// overload rejection, and the endorser/orderer/committer pipeline run as
/// kernel workers.
pub struct FabricPolicy {
    config: FabricConfig,
    endorse_tx: Sender<SignedTransaction>,
    endorse_rx: Receiver<SignedTransaction>,
    pending_ids: Mutex<HashSet<TxId>>,
    /// Rejected requests whose handling cost the endorser pool still owes.
    reject_debt: AtomicU64,
    mvcc_conflicts: AtomicU64,
    endorse_failures: AtomicU64,
    rejected_overload: AtomicU64,
}

impl FabricPolicy {
    /// Transactions invalidated by MVCC conflicts.
    pub fn mvcc_conflicts(&self) -> u64 {
        self.mvcc_conflicts.load(Ordering::Relaxed)
    }

    /// Transactions that failed endorsement (execution error).
    pub fn endorse_failures(&self) -> u64 {
        self.endorse_failures.load(Ordering::Relaxed)
    }

    /// Submissions rejected because the inbox was full.
    pub fn rejected_overload(&self) -> u64 {
        self.rejected_overload.load(Ordering::Relaxed)
    }
}

impl ConsensusPolicy for FabricPolicy {
    fn chain_name(&self) -> &'static str {
        "fabric-sim"
    }

    /// Submissions land on the first endorsing peer; an outage there
    /// surfaces as a transient error rather than silent acceptance.
    fn ingress_node(&self, _shard: u32) -> String {
        peer_name(0)
    }

    /// The orderer cuts the blocks; its crash halts sealing.
    fn sealer_node(&self, _shard: u32) -> String {
        "fabric-orderer".to_owned()
    }

    /// The EOV pipeline has its own inbox, not the kernel mempool.
    fn admit(
        &self,
        _kernel: &Kernel,
        _shard: u32,
        tx: SignedTransaction,
    ) -> Result<TxId, ChainError> {
        let id = tx.id;
        {
            let mut pending = self.pending_ids.lock();
            if !pending.insert(id) {
                return Err(ChainError::rejected(MempoolError::Duplicate));
            }
        }
        match self.endorse_tx.try_send(tx) {
            Ok(()) => Ok(id),
            Err(_) => {
                self.pending_ids.lock().remove(&id);
                self.rejected_overload.fetch_add(1, Ordering::Relaxed);
                self.reject_debt.fetch_add(1, Ordering::Relaxed);
                // Backpressure, not a verdict on the transaction: the
                // submitter may back off and retry.
                Err(ChainError::rejected(MempoolError::Full))
            }
        }
    }

    fn pending(&self, _kernel: &Kernel) -> usize {
        self.pending_ids.lock().len()
    }

    /// Blocks are cut by the committer worker, not a kernel sealer loop.
    fn drives_sealer(&self) -> bool {
        false
    }

    fn workers(self: &Arc<Self>, kernel: &Arc<Kernel>) -> Vec<Worker> {
        let (ordered_tx, ordered_rx) = bounded::<Endorsed>(self.config.inbox_capacity.max(1024));
        let (block_tx, block_rx) = bounded::<Vec<Endorsed>>(64);
        let mut workers = Vec::new();
        for t in 0..self.config.endorser_threads {
            let policy = Arc::clone(self);
            let kernel = Arc::clone(kernel);
            let rx = self.endorse_rx.clone();
            let out = ordered_tx.clone();
            workers.push(Worker::new(format!("fabric-endorser-{t}"), move || {
                endorser_loop(policy, kernel, rx, out)
            }));
        }
        drop(ordered_tx);
        {
            let policy = Arc::clone(self);
            let kernel = Arc::clone(kernel);
            workers.push(Worker::new("fabric-orderer", move || {
                orderer_loop(policy, kernel, ordered_rx, block_tx)
            }));
        }
        {
            let policy = Arc::clone(self);
            let kernel = Arc::clone(kernel);
            workers.push(Worker::new("fabric-committer", move || {
                committer_loop(policy, kernel, block_rx)
            }));
        }
        workers
    }
}

fn endorser_loop(
    policy: Arc<FabricPolicy>,
    kernel: Arc<Kernel>,
    rx: Receiver<SignedTransaction>,
    out: Sender<Endorsed>,
) {
    let config = &policy.config;
    loop {
        // Pay for any requests the node turned away since the last pass:
        // rejection is not free for the endorsement pool.
        let owed = policy.reject_debt.swap(0, Ordering::Relaxed);
        if owed > 0
            && !kernel.sleep_interruptible(config.reject_handling_cost * owed.min(10_000) as u32)
        {
            return;
        }
        let first = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(tx) => tx,
            Err(RecvTimeoutError::Timeout) => {
                if kernel.is_shutdown() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        // Greedily drain whatever burst is already queued so signature
        // checks run through the batch verifier (shared per-key tables)
        // instead of one full modexp per transaction. The drain is capped
        // at a pool share of a block so a deep queue is still endorsed by
        // every endorser thread in parallel — one thread swallowing a
        // whole block serialises its endorsement cost, which inflates
        // read-set staleness and MVCC conflicts downstream.
        let burst_cap = (config.max_batch / config.endorser_threads).max(8);
        let mut burst = vec![first];
        while burst.len() < burst_cap {
            match rx.try_recv() {
                Ok(tx) => burst.push(tx),
                Err(_) => break,
            }
        }
        kernel.verify_retain_with(&mut burst, &config.sig_params, |tx| {
            policy.pending_ids.lock().remove(&tx.id);
        });
        // Per-burst (not per-tx) observability.
        let obs = kernel.net().obs();
        if obs.enabled() {
            obs.registry()
                .counter_with("hammer_fabric_endorsed_total", &[("chain", "fabric-sim")])
                .add(burst.len() as u64);
        }
        for tx in burst {
            // Endorsement = simulated execution cost + rwset. The sleep is
            // interruptible so a shutdown mid-burst (or under an hour-long
            // conformance stall) joins promptly instead of serving out the
            // remaining endorsements.
            if !kernel.sleep_interruptible(config.endorse_cost) {
                return;
            }
            let rwset = kernel.shard(0).state.lock().simulate(&tx.tx.op).ok();
            if rwset.is_none() {
                policy.endorse_failures.fetch_add(1, Ordering::Relaxed);
            }
            if out
                .send(Endorsed {
                    tx_id: tx.id,
                    rwset,
                })
                .is_err()
            {
                return;
            }
        }
    }
}

fn orderer_loop(
    policy: Arc<FabricPolicy>,
    kernel: Arc<Kernel>,
    rx: Receiver<Endorsed>,
    out: Sender<Vec<Endorsed>>,
) {
    let config = &policy.config;
    let peers: Vec<String> = (0..config.peers).map(peer_name).collect();
    let mut batch: Vec<Endorsed> = Vec::new();
    let mut batch_deadline: Option<std::time::Instant> = None;
    loop {
        if kernel.is_shutdown() {
            return;
        }
        let wall_timeout = match batch_deadline {
            Some(deadline) => deadline
                .saturating_duration_since(std::time::Instant::now())
                .min(Duration::from_millis(100)),
            None => Duration::from_millis(100),
        };
        match rx.recv_timeout(wall_timeout) {
            Ok(endorsed) => {
                if batch.is_empty() {
                    batch_deadline = Some(
                        std::time::Instant::now() + kernel.clock().to_wall(config.batch_timeout),
                    );
                }
                batch.push(endorsed);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(_) => return,
        }
        let timed_out = batch_deadline
            .map(|d| std::time::Instant::now() >= d)
            .unwrap_or(false);
        // A crashed orderer cuts no blocks; endorsed transactions pile up
        // in the batch until the restart.
        if kernel.net().node_crashed("fabric-orderer") {
            continue;
        }
        if batch.len() >= config.max_batch || (timed_out && !batch.is_empty()) {
            let full = std::mem::take(&mut batch);
            batch_deadline = None;
            // Block distribution traffic: orderer -> every peer, sent at
            // ordering time (before validation), as Fabric delivers raw
            // blocks to peers for local validation.
            kernel.gossip("fabric-orderer", &peers, full.len());
            if out.send(full).is_err() {
                return;
            }
        }
    }
}

fn committer_loop(policy: Arc<FabricPolicy>, kernel: Arc<Kernel>, rx: Receiver<Vec<Endorsed>>) {
    let config = &policy.config;
    loop {
        let batch = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(b) => b,
            Err(RecvTimeoutError::Timeout) => {
                if kernel.is_shutdown() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        // Validation cost for the whole block.
        kernel
            .clock()
            .sleep(config.validate_cost * batch.len() as u32);
        let mut tx_ids = Vec::with_capacity(batch.len());
        let mut valid = Vec::with_capacity(batch.len());
        {
            let mut state = kernel.shard(0).state.lock();
            for endorsed in &batch {
                let ok = match &endorsed.rwset {
                    Some(rwset) => state.validate_and_commit(rwset),
                    None => false,
                };
                tx_ids.push(endorsed.tx_id);
                valid.push(ok);
                if !ok && endorsed.rwset.is_some() {
                    policy.mvcc_conflicts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let depth = {
            let mut pending = policy.pending_ids.lock();
            for id in &tx_ids {
                pending.remove(id);
            }
            pending.len()
        };
        // Distribution already happened at ordering time; in-flight
        // endorsement depth stands in for a mempool on this EOV pipeline.
        kernel.seal_block(
            0,
            Round {
                proposer: "fabric-orderer".to_owned(),
                tx_ids,
                valid,
                gossip_to: Vec::new(),
                mempool_depth: Some(depth),
            },
        );
    }
}

/// Starts the network: endorser pool, orderer, committer, peers.
pub fn start(
    config: FabricConfig,
    clock: SimClock,
    net: SimNetwork,
) -> Arc<ChainNode<FabricPolicy>> {
    assert!(config.peers >= 1 && config.endorser_threads >= 1);
    let (endorse_tx, endorse_rx) = bounded::<SignedTransaction>(config.inbox_capacity);
    let mut builder = NodeKernelBuilder::new(clock, net)
        .gossip_sizing(200, 150)
        .endpoint("fabric-orderer");
    for i in 0..config.peers {
        builder = builder.endpoint(&peer_name(i));
    }
    builder.start(FabricPolicy {
        config,
        endorse_tx,
        endorse_rx,
        pending_ids: Mutex::new(HashSet::new()),
        reject_debt: AtomicU64::new(0),
        mvcc_conflicts: AtomicU64::new(0),
        endorse_failures: AtomicU64::new(0),
        rejected_overload: AtomicU64::new(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::client::BlockchainClient;
    use hammer_chain::kernel::SimChain;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::{Address, Transaction};
    use hammer_crypto::Keypair;
    use hammer_net::LinkConfig;

    fn fast_chain(mut config: FabricConfig) -> Arc<ChainNode<FabricPolicy>> {
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        config.batch_timeout = Duration::from_millis(200);
        start(config, clock, net)
    }

    fn signed(nonce: u64, op: Op) -> SignedTransaction {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op,
            chain_name: "fabric-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
        .sign(&Keypair::from_seed(2), &SigParams::fast())
    }

    fn wait_until(pred: impl Fn() -> bool, wall_ms: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(wall_ms);
        while std::time::Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn endorse_order_validate_commits() {
        let chain = fast_chain(FabricConfig::default());
        chain.seed_account(Address::from_name("a"), 100, 0);
        let id = chain
            .submit(signed(
                1,
                Op::DepositChecking {
                    account: Address::from_name("a"),
                    amount: 11,
                },
            ))
            .unwrap();
        assert!(wait_until(|| chain.stats().committed == 1, 5000));
        assert_eq!(
            chain.account(Address::from_name("a")).unwrap().checking,
            111
        );
        let height = chain.latest_height(0).unwrap();
        let mut found = false;
        for h in 1..=height {
            let b = chain.block_at(0, h).unwrap().unwrap();
            if let Some(pos) = b.tx_ids.iter().position(|t| *t == id) {
                assert!(b.valid[pos]);
                found = true;
            }
        }
        assert!(found);
        chain.shutdown();
    }

    #[test]
    fn conflicting_txs_are_invalidated() {
        // One endorser, batched together: both endorsed against the same
        // snapshot -> later ones conflict at validation.
        let chain = fast_chain(FabricConfig {
            endorser_threads: 1,
            max_batch: 10,
            ..FabricConfig::default()
        });
        chain.seed_account(Address::from_name("hot"), 1000, 0);
        for i in 0..5 {
            chain
                .submit(signed(
                    i,
                    Op::WriteCheck {
                        account: Address::from_name("hot"),
                        amount: 1,
                    },
                ))
                .unwrap();
        }
        assert!(wait_until(
            || chain.stats().committed + chain.policy().mvcc_conflicts() >= 5,
            8000
        ));
        let conflicts = chain.policy().mvcc_conflicts();
        assert!(conflicts >= 1, "expected conflicts, got {conflicts}");
        assert!(chain.stats().committed >= 1);
        chain.shutdown();
    }

    #[test]
    fn endorsement_failure_marked_invalid() {
        let chain = fast_chain(FabricConfig::default());
        let id = chain
            .submit(signed(
                1,
                Op::WriteCheck {
                    account: Address::from_name("ghost"),
                    amount: 1,
                },
            ))
            .unwrap();
        assert!(wait_until(|| chain.policy().endorse_failures() == 1, 5000));
        assert!(wait_until(|| chain.latest_height(0).unwrap() >= 1, 5000));
        let b = chain.block_at(0, 1).unwrap().unwrap();
        let pos = b.tx_ids.iter().position(|t| *t == id).unwrap();
        assert!(!b.valid[pos]);
        chain.shutdown();
    }

    #[test]
    fn overload_rejection() {
        let chain = fast_chain(FabricConfig {
            inbox_capacity: 4,
            endorse_cost: Duration::from_secs(60), // endorsers stall
            ..FabricConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 100, 0);
        let mut rejected = 0;
        for i in 0..50 {
            if let Err(err) = chain.submit(signed(
                i,
                Op::DepositChecking {
                    account: Address::from_name("a"),
                    amount: 1,
                },
            )) {
                // Overload is observable backpressure: retryable, not fatal.
                assert_eq!(err.kind(), hammer_chain::ErrorKind::Backpressure);
                assert!(err.is_retryable());
                rejected += 1;
            }
        }
        assert!(rejected > 0, "expected overload rejections");
        assert_eq!(chain.policy().rejected_overload(), rejected);
        chain.shutdown();
    }

    #[test]
    fn duplicate_pending_rejected() {
        let chain = fast_chain(FabricConfig {
            endorse_cost: Duration::from_secs(60),
            ..FabricConfig::default()
        });
        let tx = signed(1, Op::KvGet { key: 1 });
        chain.submit(tx.clone()).unwrap();
        let err = chain.submit(tx).unwrap_err();
        assert_eq!(err.rejection(), Some(MempoolError::Duplicate));
        assert!(!err.is_retryable());
        chain.shutdown();
    }

    #[test]
    fn commit_events_fire_per_tx() {
        let chain = fast_chain(FabricConfig::default());
        let rx = chain.subscribe_commits();
        chain.seed_account(Address::from_name("a"), 100, 50);
        for i in 0..3 {
            chain
                .submit(signed(
                    i,
                    Op::Balance {
                        account: Address::from_name("a"),
                    },
                ))
                .unwrap();
        }
        let mut seen = 0;
        while seen < 3 {
            let event = rx.recv_timeout(Duration::from_secs(5)).expect("event");
            assert!(event.success);
            seen += 1;
        }
        chain.shutdown();
    }

    #[test]
    fn ledger_verifies_after_run() {
        let chain = fast_chain(FabricConfig::default());
        // Distinct accounts: concurrent endorsement must not conflict.
        for i in 0..40 {
            chain.seed_account(Address::from_name(&format!("a{i}")), 10_000, 0);
        }
        for i in 0..40 {
            let _ = chain.submit(signed(
                i,
                Op::DepositChecking {
                    account: Address::from_name(&format!("a{i}")),
                    amount: 1,
                },
            ));
        }
        assert!(wait_until(|| chain.stats().committed >= 40, 8000));
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    #[test]
    fn batch_size_respected() {
        let chain = fast_chain(FabricConfig {
            max_batch: 5,
            ..FabricConfig::default()
        });
        for i in 0..23 {
            chain.seed_account(Address::from_name(&format!("b{i}")), 10_000, 0);
        }
        for i in 0..23 {
            let _ = chain.submit(signed(
                i,
                Op::DepositChecking {
                    account: Address::from_name(&format!("b{i}")),
                    amount: 1,
                },
            ));
        }
        assert!(wait_until(|| chain.stats().committed >= 23, 8000));
        for h in 1..=chain.latest_height(0).unwrap() {
            let b = chain.block_at(0, h).unwrap().unwrap();
            assert!(b.len() <= 5);
        }
        chain.shutdown();
    }

    #[test]
    fn pending_count_drains() {
        let chain = fast_chain(FabricConfig::default());
        for i in 0..10 {
            chain.seed_account(Address::from_name(&format!("c{i}")), 10_000, 0);
        }
        for i in 0..10 {
            let _ = chain.submit(signed(
                i,
                Op::DepositChecking {
                    account: Address::from_name(&format!("c{i}")),
                    amount: 1,
                },
            ));
        }
        assert!(wait_until(|| chain.pending_txs().unwrap() == 0, 8000));
        chain.shutdown();
    }

    #[test]
    fn reports_roles_for_fault_targeting() {
        let chain = fast_chain(FabricConfig::default());
        assert_eq!(SimChain::ingress_nodes(&*chain), vec!["fabric-peer-0"]);
        assert_eq!(SimChain::sealer_nodes(&*chain), vec!["fabric-orderer"]);
        chain.shutdown();
    }
}
