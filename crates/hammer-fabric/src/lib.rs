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
//! ready. The workers pay every modelled cost through
//! `Kernel::sleep_interruptible` and block otherwise in a plain `recv`
//! (the orderer's open batch has the one timed receive, its deadline kept
//! in simulated time), so shutdown is a cascade of disconnections, not a
//! polled flag: [`ConsensusPolicy::stop`] drops the inbox sender, the
//! endorsers' exit disconnects the orderer, and the orderer's the
//! committer. [`start`] returns the running [`ChainNode`] itself; the
//! policy's own counters are read through `node.policy()`.

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

/// The admission side of the endorsement inbox, under the one lock `admit`
/// takes.
struct Inbox {
    pending_ids: HashSet<TxId>,
    /// Set when the workers are made; `None` again once the node stops,
    /// which is what releases endorsers blocked on an empty inbox.
    endorse_tx: Option<Sender<SignedTransaction>>,
}

fn peer_name(i: usize) -> String {
    format!("fabric-peer-{i}")
}

/// The execute-order-validate consensus core: an endorsement inbox with
/// overload rejection, and the endorser/orderer/committer pipeline run as
/// kernel workers.
pub struct FabricPolicy {
    config: FabricConfig,
    inbox: Mutex<Inbox>,
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
        let mut inbox = self.inbox.lock();
        let Some(endorse_tx) = &inbox.endorse_tx else {
            return Err(ChainError::shutdown());
        };
        if inbox.pending_ids.contains(&id) {
            return Err(ChainError::rejected(MempoolError::Duplicate));
        }
        match endorse_tx.try_send(tx) {
            Ok(()) => {
                inbox.pending_ids.insert(id);
                Ok(id)
            }
            Err(_) => {
                self.rejected_overload.fetch_add(1, Ordering::Relaxed);
                self.reject_debt.fetch_add(1, Ordering::Relaxed);
                // Backpressure, not a verdict on the transaction: the
                // submitter may back off and retry.
                Err(ChainError::rejected(MempoolError::Full))
            }
        }
    }

    fn pending(&self, _kernel: &Kernel) -> usize {
        self.inbox.lock().pending_ids.len()
    }

    /// Blocks are cut by the committer worker, not a kernel sealer loop.
    fn drives_sealer(&self) -> bool {
        false
    }

    fn workers(self: &Arc<Self>, kernel: &Arc<Kernel>) -> Vec<Worker> {
        let (ordered_tx, ordered_rx) = bounded::<Endorsed>(self.config.inbox_capacity.max(1024));
        let (block_tx, block_rx) = bounded::<Vec<Endorsed>>(64);
        let (endorse_tx, endorse_rx) = bounded(self.config.inbox_capacity);
        self.inbox.lock().endorse_tx = Some(endorse_tx);
        let mut workers = Vec::new();
        for t in 0..self.config.endorser_threads {
            let policy = Arc::clone(self);
            let kernel = Arc::clone(kernel);
            let rx = endorse_rx.clone();
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

    /// Closes the inbox; the pipeline drains out behind it.
    fn stop(&self) {
        self.inbox.lock().endorse_tx = None;
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
        let Ok(first) = rx.recv() else {
            return; // inbox closed and drained
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
            policy.inbox.lock().pending_ids.remove(&tx.id);
        });
        // Per-burst (not per-tx) observability.
        let obs = kernel.net().obs();
        if obs.enabled() {
            obs.registry()
                .counter_with("hammer_fabric_endorsed_total", &[("chain", "fabric-sim")])
                .add(burst.len() as u64);
        }
        for tx in burst {
            // Endorsement = simulated execution cost + rwset.
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
    let clock = kernel.clock();
    let peers: Vec<String> = (0..config.peers).map(peer_name).collect();
    loop {
        // The first transaction opens a batch and sets its deadline, in
        // simulated time; until then there is nothing to time out.
        let Ok(first) = rx.recv() else {
            return; // every endorser is gone
        };
        let deadline = clock.now() + config.batch_timeout;
        let mut batch = vec![first];
        while batch.len() < config.max_batch {
            let left = deadline.saturating_sub(clock.now());
            match rx.recv_timeout(clock.to_wall(left)) {
                Ok(endorsed) => batch.push(endorsed),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        // A crashed orderer cuts no blocks; endorsed transactions pile up
        // in the batch until the restart. It looks again once per
        // `batch_timeout`, as a crashed sealer does once per `seal_wait`.
        while kernel.net().node_crashed("fabric-orderer") {
            if !kernel.sleep_interruptible(config.batch_timeout) {
                return;
            }
            while let Ok(endorsed) = rx.try_recv() {
                batch.push(endorsed);
            }
        }
        // Block distribution traffic: orderer -> every peer, sent at
        // ordering time (before validation), as Fabric delivers raw
        // blocks to peers for local validation.
        kernel.gossip("fabric-orderer", &peers, batch.len());
        if out.send(batch).is_err() {
            return;
        }
    }
}

fn committer_loop(policy: Arc<FabricPolicy>, kernel: Arc<Kernel>, rx: Receiver<Vec<Endorsed>>) {
    let config = &policy.config;
    loop {
        let Ok(batch) = rx.recv() else {
            return; // the orderer is gone
        };
        // Validation cost for the whole block; cut short by shutdown, the
        // block is abandoned (nothing reads the ledger afterwards).
        if !kernel.sleep_interruptible(config.validate_cost * batch.len() as u32) {
            return;
        }
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
            let mut inbox = policy.inbox.lock();
            for id in &tx_ids {
                inbox.pending_ids.remove(id);
            }
            inbox.pending_ids.len()
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
    let mut builder = NodeKernelBuilder::new(clock, net)
        .gossip_sizing(200, 150)
        .endpoint("fabric-orderer");
    for i in 0..config.peers {
        builder = builder.endpoint(&peer_name(i));
    }
    builder.start(FabricPolicy {
        config,
        inbox: Mutex::new(Inbox {
            pending_ids: HashSet::new(),
            endorse_tx: None,
        }),
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
    use hammer_chain::types::{Address, Transaction, TxId};
    use hammer_crypto::Keypair;
    use hammer_net::LinkConfig;

    fn chain_at(speedup: f64, config: FabricConfig) -> Arc<ChainNode<FabricPolicy>> {
        let clock = SimClock::with_speedup(speedup);
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        start(config, clock, net)
    }

    fn fast_chain(mut config: FabricConfig) -> Arc<ChainNode<FabricPolicy>> {
        config.batch_timeout = Duration::from_millis(200);
        chain_at(1000.0, config)
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
    fn every_submission_is_sealed_as_valid() {
        let chain = fast_chain(FabricConfig::default());
        chain.seed_account(Address::from_name("a"), 100, 50);
        let ids: Vec<TxId> = (0..3)
            .map(|i| {
                chain
                    .submit(signed(
                        i,
                        Op::Balance {
                            account: Address::from_name("a"),
                        },
                    ))
                    .unwrap()
            })
            .collect();
        let sealed = || -> Vec<(TxId, bool)> {
            let height = chain.latest_height(0).unwrap();
            let blocks = chain.blocks(0, 1..=height).unwrap();
            blocks.iter().flat_map(|b| b.entries()).collect()
        };
        assert!(wait_until(|| sealed().len() >= ids.len(), 5000), "sealed");
        let entries = sealed();
        assert_eq!(entries.len(), ids.len(), "{entries:?}");
        assert!(entries.iter().all(|(id, ok)| ids.contains(id) && *ok));
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

    /// `n` signed deposits, each to a seeded account of its own.
    fn deposits(chain: &ChainNode<FabricPolicy>, n: u64) -> Vec<SignedTransaction> {
        let signed_deposit = |i| {
            let account = Address::from_name(&format!("d{i}"));
            chain.seed_account(account, 100, 0);
            signed(i, Op::DepositChecking { account, amount: 1 })
        };
        (0..n).map(signed_deposit).collect()
    }

    #[test]
    fn dropping_the_node_takes_no_poll_to_come_down() {
        let timed_drop = |chain: Arc<ChainNode<FabricPolicy>>| {
            let start = std::time::Instant::now();
            drop(chain);
            start.elapsed()
        };
        // Idle: every worker is blocked on an empty channel.
        let idle = timed_drop(fast_chain(FabricConfig::default()));
        assert!(idle < Duration::from_millis(20), "idle drop took {idle:?}");

        // Busy: at 100× a burst of 300 is 12 ms of validation alone, so the
        // drop finds endorsers mid-burst, an open batch at the orderer and
        // the committer inside its validation wait.
        let chain = chain_at(100.0, FabricConfig::default());
        for tx in deposits(&chain, 300) {
            chain.submit(tx).unwrap();
        }
        assert!(chain.pending_txs().unwrap() > 0, "the burst is in flight");
        let busy = timed_drop(chain);
        assert!(busy < Duration::from_millis(20), "busy drop took {busy:?}");
    }

    #[test]
    fn a_partial_batch_is_cut_at_the_timeout_in_simulated_time() {
        let batch_timeout = Duration::from_secs(20);
        for speedup in [100.0, 1000.0] {
            let config = FabricConfig {
                batch_timeout,
                ..FabricConfig::default()
            };
            let chain = chain_at(speedup, config);
            let submitted_at = chain.clock().now();
            for tx in deposits(&chain, 3) {
                chain.submit(tx).unwrap();
            }
            assert!(
                wait_until(|| chain.latest_height(0).unwrap() > 0, 5000),
                "{speedup}×: nothing sealed"
            );
            let block = chain.block_at(0, 1).unwrap().unwrap();
            // The block's timestamp is simulated time: the timeout plus a
            // few milliseconds of endorsement and validation, at any
            // speed-up. The slack is 20 ms of wall time at 1000×.
            let waited = block.header.timestamp - submitted_at;
            assert!(waited >= batch_timeout, "{speedup}×: cut after {waited:?}");
            assert!(
                waited < batch_timeout * 2,
                "{speedup}×: cut after {waited:?}"
            );
            assert_eq!(chain.latest_height(0).unwrap(), 1, "one block of three");
            chain.shutdown();
        }
    }

    /// CPU time (user + system, in 10 ms ticks) of every live thread named
    /// `fabric-orderer`; `None` where `/proc` does not say.
    fn orderer_cpu_ticks() -> Option<u64> {
        let mut ticks = 0;
        for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
            let read = |file| std::fs::read_to_string(task.path().join(file));
            if read("comm").is_ok_and(|name| name.trim() == "fabric-orderer") {
                // Fields 14 and 15; the thread name in field 2 has no space.
                let stat = read("stat").ok()?;
                let mut fields = stat.split(' ').skip(13);
                ticks += fields.next()?.parse::<u64>().ok()?;
                ticks += fields.next()?.parse::<u64>().ok()?;
            }
        }
        Some(ticks)
    }

    #[test]
    fn a_crashed_orderer_neither_spins_nor_loses_its_open_batch() {
        use hammer_net::FaultPlan;
        // The crash window is 400 ms of wall time, eighty batch timeouts.
        let window_end = Duration::from_secs(40);
        let chain = chain_at(100.0, FabricConfig::default());
        chain.net().install_faults(FaultPlan::new().crash(
            "fabric-orderer",
            Duration::ZERO,
            window_end,
        ));
        for tx in deposits(&chain, 3) {
            chain.submit(tx).unwrap();
        }
        let cpu_before = orderer_cpu_ticks();
        // Well inside the window the batch's deadline is long past, and
        // nothing has been cut.
        chain
            .clock()
            .sleep_until(window_end - Duration::from_secs(5));
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        assert_eq!(chain.pending_txs().unwrap(), 3);
        if let (Some(before), Some(after)) = (cpu_before, orderer_cpu_ticks()) {
            // One look per batch timeout costs the orderer a few percent of
            // a core; holding an expired deadline in a loop, all 35 ticks.
            let spent = after.saturating_sub(before);
            assert!(spent <= 10, "the crashed orderer burnt {spent} ticks");
        }
        // The window ends; the batch it held is cut whole.
        assert!(wait_until(|| chain.stats().committed == 3, 5000));
        assert_eq!(chain.latest_height(0).unwrap(), 1);
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
