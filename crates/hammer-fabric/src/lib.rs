//! A Hyperledger-Fabric-style execute-order-validate blockchain simulator.
//!
//! Reproduces the performance-relevant mechanics of a permissioned Fabric
//! network (the paper's primary correctness/usability target, §V-C/V-D)
//! as a tandem line of three service stages in simulated time:
//!
//! * **Endorsement** — [`FabricConfig::endorser_threads`] FIFO servers; an
//!   arrival takes the earliest-free one. At its completion instant an
//!   endorsement *simulates* the transaction against the state committed
//!   before that instant, producing a read/write set
//!   ([`hammer_chain::state::RwSet`]) without committing.
//! * **Ordering** — the orderer batches endorsed transactions into blocks
//!   by count ([`FabricConfig::max_batch`]) or timeout
//!   ([`FabricConfig::batch_timeout`]), like a Raft ordering service.
//! * **Validation (MVCC)** — one server re-checks every read version and
//!   marks conflicting transactions invalid *inside the block* (Fabric
//!   commits invalid transactions with a validation-failure flag). Conflicts
//!   grow with the endorse-to-commit window on hot accounts, which is
//!   exactly the effect behind the paper's Fig. 10.
//! * **Block distribution** — the push of each sealed block from the
//!   orderer to the peer endpoints is accounted on the simulated network.
//!
//! The line is one struct with no clock and no thread. Events run in
//! simulated-time order, ties by stage (endorse, order, validate), then by
//! arrival, so which transactions conflict depends on the arrival instants
//! alone. The kernel's loop drives it through `seal_wait` (the time to the
//! next cut or validated block) and `build_round`; an arrival rings the loop
//! only when it moves that event earlier. [`start`] returns the running
//! [`ChainNode`]; the policy's counters are read through `node.policy()`.

#![warn(missing_docs)]

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use hammer_chain::client::ChainError;
use hammer_chain::kernel::{ChainNode, ConsensusPolicy, Kernel, NodeKernelBuilder, Round};
use hammer_chain::mempool::MempoolError;
use hammer_chain::state::{RwSet, VersionedState};
use hammer_chain::types::{SignedTransaction, TxId};
use hammer_crypto::sig::SigParams;
use hammer_net::{SimClock, SimNetwork};
use parking_lot::Mutex;

/// Configuration of the simulated Fabric network.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of peer nodes (the paper uses 4 peers + 1 orderer).
    pub peers: usize,
    /// Endorsement servers (one per peer by default): queues of the model
    /// that endorse side by side in simulated time, not OS threads.
    pub endorser_threads: usize,
    /// Simulated cost of endorsing one transaction (execute + sign).
    pub endorse_cost: Duration,
    /// Maximum transactions per block.
    pub max_batch: usize,
    /// Ordering batch timeout.
    pub batch_timeout: Duration,
    /// Simulated cost of validating/committing one transaction.
    pub validate_cost: Duration,
    /// How many arrivals may wait for an endorsement server; beyond it
    /// submissions are rejected (the node-overload rejection seen in the
    /// paper's Fig. 10).
    pub inbox_capacity: usize,
    /// Endorsement-server time the node spends turning away one
    /// over-capacity request (gRPC handling + error response). Overload is
    /// not free: heavy rejection traffic eats into endorsement capacity,
    /// which is what makes throughput *decline* past the saturation point
    /// in Fig. 10.
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

const ORDERER: &str = "fabric-orderer";

fn peer_name(i: usize) -> String {
    format!("fabric-peer-{i}")
}

/// An admitted transaction, the instant its server takes it (it waits in
/// the inbox until then) and the instant its endorsement completes.
struct Endorsing {
    start: Duration,
    done: Duration,
    tx: SignedTransaction,
}

/// An ordered transaction and its read/write set; `None` when endorsement
/// failed (still ordered, marked invalid).
type Endorsed = (TxId, Option<RwSet>);

/// A validated block: ids in block order and their validity flags.
type Validated = (Vec<TxId>, Vec<bool>);

/// The endorse → order → validate line over simulated instants.
#[derive(Default)]
struct Pipeline {
    config: FabricConfig,
    /// The latest instant stamped or advanced to: no arrival lands before.
    now: Duration,
    /// When each endorsement server is next free.
    servers: Vec<Duration>,
    /// Admitted, not yet endorsed, in arrival order. Starts and so
    /// completions never decrease along it: an arrival takes the
    /// earliest-free server, whose free instant only grows, at an instant
    /// that only grows.
    endorsing: VecDeque<Endorsing>,
    /// The orderer's open batch, and when it is next cut: its timeout, or
    /// a crashed orderer's retry.
    batch: Vec<Endorsed>,
    cut_at: Option<Duration>,
    /// A cut found the orderer crashed: the batch takes every endorsement,
    /// past `max_batch` too, until a retry cuts it.
    held: bool,
    /// Cut batches in order, each with its validation completion.
    validating: VecDeque<(Duration, Vec<Endorsed>)>,
    validator_free: Duration,
    /// Admitted and not yet validated.
    pending: HashSet<TxId>,
    /// The next block event the loop was last told of.
    armed: Duration,
    endorsed: u64,
    mvcc_conflicts: u64,
    endorse_failures: u64,
    rejected_overload: u64,
}

impl Pipeline {
    fn new(config: FabricConfig) -> Self {
        Pipeline {
            servers: vec![Duration::ZERO; config.endorser_threads],
            armed: Duration::MAX,
            config,
            ..Pipeline::default()
        }
    }

    /// Admits `tx` arriving at `at` (raised to the latest instant seen)
    /// onto the earliest-free endorsement server, lowest index first. A
    /// pending id is a duplicate; with `inbox_capacity` arrivals already
    /// waiting for a server the request is turned away, which costs that
    /// server `reject_handling_cost`.
    fn admit(&mut self, at: Duration, tx: SignedTransaction) -> Result<TxId, MempoolError> {
        let at = at.max(self.now);
        self.now = at;
        let id = tx.id;
        if self.pending.contains(&id) {
            return Err(MempoolError::Duplicate);
        }
        let (server, free) = (self.servers.iter().copied().enumerate())
            .min_by_key(|&(server, free)| (free, server))
            .expect("at least one endorsement server");
        let waiting = self.endorsing.len() - self.endorsing.partition_point(|e| e.start <= at);
        if waiting >= self.config.inbox_capacity {
            self.rejected_overload += 1;
            self.servers[server] = free.max(at) + self.config.reject_handling_cost;
            return Err(MempoolError::Full);
        }
        let start = free.max(at);
        let done = start + self.config.endorse_cost;
        self.servers[server] = done;
        self.endorsing.push_back(Endorsing { start, done, tx });
        self.pending.insert(id);
        Ok(id)
    }

    /// The next cut or validated block, `Duration::MAX` for none.
    fn next_event(&self) -> Duration {
        let cut = if self.held {
            self.cut_at
        } else {
            // The endorsement that fills the batch, or the timeout of the
            // open batch or of the one the next endorsement opens.
            let fill = self.config.max_batch.saturating_sub(self.batch.len() + 1);
            let by_count = self.endorsing.get(fill).map(|e| e.done);
            let first = self.endorsing.front();
            let by_time =
                (self.cut_at).or_else(|| first.map(|e| e.done + self.config.batch_timeout));
            by_count.into_iter().chain(by_time).min()
        };
        let validated = self.validating.front().map(|(done, _)| *done);
        cut.into_iter()
            .chain(validated)
            .min()
            .unwrap_or(Duration::MAX)
    }

    /// Whether the next block event moved earlier than the loop was told.
    fn rearm(&mut self) -> bool {
        let next = self.next_event();
        let earlier = next < self.armed;
        self.armed = self.armed.min(next);
        earlier
    }

    /// Runs every event due by `to` in order — at one instant endorsements
    /// (in arrival order), then the orderer's cut, then a validation — and
    /// returns the first block validated, leaving later events for the
    /// next call. `orderer_down(t)`: whether the orderer is crashed at `t`.
    fn advance(
        &mut self,
        to: Duration,
        state: &mut VersionedState,
        orderer_down: impl Fn(Duration) -> bool,
    ) -> Option<Validated> {
        self.now = self.now.max(to);
        loop {
            let endorse = self.endorsing.front().map(|e| (e.done, 0));
            let order = self.cut_at.map(|at| (at, 1));
            let validate = self.validating.front().map(|(done, _)| (*done, 2));
            let (at, stage) = endorse.into_iter().chain(order).chain(validate).min()?;
            if at > to {
                return None;
            }
            match stage {
                0 => self.endorse(state, &orderer_down),
                1 => self.cut(at, &orderer_down),
                _ => return Some(self.validate(state)),
            }
        }
    }

    /// The front endorsement completes: its read set is taken now, and it
    /// joins the open batch, which it may fill.
    fn endorse(&mut self, state: &VersionedState, orderer_down: &impl Fn(Duration) -> bool) {
        let Endorsing { done, tx, .. } = self.endorsing.pop_front().expect("an endorsement is due");
        let rwset = state.simulate(&tx.tx.op).ok();
        self.endorsed += 1;
        self.endorse_failures += u64::from(rwset.is_none());
        if self.batch.is_empty() {
            self.cut_at = Some(done + self.config.batch_timeout);
        }
        self.batch.push((tx.id, rwset));
        if !self.held && self.batch.len() >= self.config.max_batch {
            self.cut(done, orderer_down);
        }
    }

    /// The orderer cuts the open batch at `at` onto the validation server;
    /// crashed, it keeps the batch and tries again a timeout later.
    fn cut(&mut self, at: Duration, orderer_down: &impl Fn(Duration) -> bool) {
        if orderer_down(at) {
            self.held = true;
            self.cut_at = Some(at + self.config.batch_timeout);
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        (self.held, self.cut_at) = (false, None);
        let start = at.max(self.validator_free);
        self.validator_free = start + self.config.validate_cost * batch.len() as u32;
        self.validating.push_back((self.validator_free, batch));
    }

    /// The front batch is validated: each read set is checked against the
    /// state and committed, in block order.
    fn validate(&mut self, state: &mut VersionedState) -> Validated {
        let (_, batch) = self.validating.pop_front().expect("a batch is due");
        let validated = batch.into_iter().map(|(id, rwset)| {
            let ok = rwset.map(|rw| state.validate_and_commit(&rw));
            self.mvcc_conflicts += u64::from(ok == Some(false));
            self.pending.remove(&id);
            (id, ok == Some(true))
        });
        validated.unzip()
    }
}

/// The execute-order-validate consensus core: the endorse → order →
/// validate line under one lock, driven by the kernel's loop.
pub struct FabricPolicy {
    net: SimNetwork,
    sig_params: SigParams,
    pipeline: Mutex<Pipeline>,
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
        ORDERER.to_owned()
    }

    /// The EOV pipeline has its own inbox, not the kernel mempool. The
    /// endorser's signature check runs first, outside the lock: a bad
    /// signature is accepted, counted and never endorsed. A full inbox is
    /// backpressure, not a verdict: the submitter may back off and retry.
    fn admit(
        &self,
        kernel: &Kernel,
        _shard: u32,
        tx: SignedTransaction,
    ) -> Result<TxId, ChainError> {
        let id = tx.id;
        let mut checked = vec![tx];
        kernel.verify_retain(&mut checked, &self.sig_params);
        let Some(tx) = checked.pop() else {
            return Ok(id);
        };
        let mut pipeline = self.pipeline.lock();
        let at = kernel.clock().now();
        pipeline.admit(at, tx).map_err(ChainError::rejected)?;
        if pipeline.rearm() {
            kernel.ring();
        }
        Ok(id)
    }

    fn pending(&self, _kernel: &Kernel) -> usize {
        self.pipeline.lock().pending.len()
    }

    /// The time to the next cut or validated block. While the orderer is
    /// crashed the loop holds every round, looking again once per batch
    /// timeout.
    fn seal_wait(&self, _shard: u32) -> Duration {
        let mut pipeline = self.pipeline.lock();
        if self.net.node_crashed(ORDERER) {
            return pipeline.config.batch_timeout;
        }
        pipeline.armed = pipeline.next_event();
        pipeline.armed.saturating_sub(self.net.clock().now())
    }

    fn build_round(&self, kernel: &Kernel, _shard: u32) -> Option<Round> {
        let plan = kernel.net().fault_plan();
        let orderer_down = |at| plan.as_ref().is_some_and(|plan| plan.crashed(ORDERER, at));
        let mut pipeline = self.pipeline.lock();
        let endorsed = pipeline.endorsed;
        let to = kernel.clock().now();
        let validated = pipeline.advance(to, &mut kernel.shard(0).state.lock(), orderer_down);
        // Per wake (not per tx) observability.
        let (obs, newly) = (kernel.net().obs(), pipeline.endorsed - endorsed);
        if obs.enabled() && newly > 0 {
            obs.registry()
                .counter_with("hammer_fabric_endorsed_total", &[("chain", "fabric-sim")])
                .add(newly);
        }
        let (tx_ids, valid) = validated?;
        // In-flight endorsement depth stands in for a mempool here.
        Some(Round {
            proposer: ORDERER.to_owned(),
            tx_ids,
            valid,
            gossip_to: (0..pipeline.config.peers).map(peer_name).collect(),
            mempool_depth: Some(pipeline.pending.len()),
        })
    }
}

/// Starts the network: the orderer and peer endpoints, and the pipeline
/// on the chain's loop.
pub fn start(
    config: FabricConfig,
    clock: SimClock,
    net: SimNetwork,
) -> Arc<ChainNode<FabricPolicy>> {
    assert!(config.peers >= 1 && config.endorser_threads >= 1);
    let mut builder = NodeKernelBuilder::new(clock, net.clone())
        .gossip_sizing(200, 150)
        .endpoint(ORDERER);
    for i in 0..config.peers {
        builder = builder.endpoint(&peer_name(i));
    }
    builder.start(FabricPolicy {
        net,
        sig_params: config.sig_params,
        pipeline: Mutex::new(Pipeline::new(config)),
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

    /// The pipeline's counters: what the tests observe of the chain's
    /// semantics.
    impl FabricPolicy {
        /// Transactions invalidated by MVCC conflicts.
        fn mvcc_conflicts(&self) -> u64 {
            self.pipeline.lock().mvcc_conflicts
        }

        /// Transactions that failed endorsement (execution error).
        fn endorse_failures(&self) -> u64 {
            self.pipeline.lock().endorse_failures
        }

        /// Submissions rejected because the inbox was full.
        fn rejected_overload(&self) -> u64 {
            self.pipeline.lock().rejected_overload
        }
    }

    fn chain_on(clock: SimClock, config: FabricConfig) -> Arc<ChainNode<FabricPolicy>> {
        let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
        start(config, clock, net)
    }

    /// The chain with 200 ms batch timeouts on a virtual clock, which the
    /// calling test thread takes part in: the line runs only while the test
    /// waits on the clock.
    fn fast_chain(mut config: FabricConfig) -> Arc<ChainNode<FabricPolicy>> {
        config.batch_timeout = Duration::from_millis(200);
        chain_on(SimClock::virtual_time(), config)
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

    // ---- The pipeline alone: simulated instants, no clock, no thread. ----

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn write_check(nonce: u64, account: &str) -> SignedTransaction {
        let account = Address::from_name(account);
        signed(nonce, Op::WriteCheck { account, amount: 1 })
    }

    fn deposit(nonce: u64, account: &str) -> SignedTransaction {
        let account = Address::from_name(account);
        signed(nonce, Op::DepositChecking { account, amount: 1 })
    }

    /// 2 ms endorsements, batches of 3 or 10 ms, 1 ms validation per
    /// transaction, on `servers` endorsement servers.
    fn line(servers: usize) -> FabricConfig {
        FabricConfig {
            endorser_threads: servers,
            endorse_cost: ms(2),
            max_batch: 3,
            batch_timeout: ms(10),
            validate_cost: ms(1),
            inbox_capacity: 100,
            reject_handling_cost: ms(1),
            ..FabricConfig::default()
        }
    }

    /// State with `hot`, `a`, `b` and `h0`..`h4` seeded.
    fn seeded() -> VersionedState {
        let mut state = VersionedState::new();
        let names = ["hot", "a", "b", "h0", "h1", "h2", "h3", "h4"];
        for name in names {
            state.seed_account(Address::from_name(name), 1_000, 0);
        }
        state
    }

    /// Endorsed, MVCC conflicts, endorsement failures, rejections.
    type Counters = [u64; 4];

    fn counters(pipeline: &Pipeline) -> Counters {
        let p = pipeline;
        [
            p.endorsed,
            p.mvcc_conflicts,
            p.endorse_failures,
            p.rejected_overload,
        ]
    }

    /// Runs arrivals `(instant, tx)` (instants ascending) through a fresh
    /// pipeline the way the chain's loop does, waking at each next event,
    /// until nothing is left: each validated block with the instant it was
    /// sealed at, and the final counters.
    fn run(
        config: FabricConfig,
        arrivals: Vec<(Duration, SignedTransaction)>,
    ) -> (Vec<(Duration, Validated)>, Counters) {
        let (mut pipeline, mut state) = (Pipeline::new(config), seeded());
        let mut arrivals = arrivals.into_iter().peekable();
        let mut blocks = Vec::new();
        loop {
            let event = pipeline.next_event();
            match arrivals.peek() {
                Some(&(at, _)) if at <= event => {
                    let (at, tx) = arrivals.next().unwrap();
                    let _ = pipeline.admit(at, tx);
                }
                _ if event == Duration::MAX => return (blocks, counters(&pipeline)),
                _ => {
                    while let Some(block) = pipeline.advance(event, &mut state, |_| false) {
                        blocks.push((event, block));
                    }
                }
            }
        }
    }

    fn ids(txs: &[&SignedTransaction]) -> Vec<TxId> {
        txs.iter().map(|tx| tx.id).collect()
    }

    #[test]
    fn a_hand_worked_trace_gives_its_blocks_flags_and_conflicts() {
        let tx = [
            write_check(0, "hot"),
            deposit(1, "a"),
            write_check(2, "hot"),
            deposit(3, "b"),
            write_check(4, "hot"),
            write_check(5, "ghost"),
        ];
        let arrivals = [0, 0, 1, 1, 20, 20].map(ms).into_iter();
        let (blocks, counters) = run(line(2), arrivals.zip(tx.clone()).collect());
        // Servers: tx0, tx1 endorse over [0, 2]; tx2, tx3 over [2, 4].
        // At 4 tx2 fills the batch [tx0 tx1 tx2]: validated over [4, 7],
        // where tx2's read of `hot`, taken at 4, lost to tx0's commit at 7.
        // tx3 opens a batch that times out at 14: validated at 15. tx4 and
        // tx5 endorse over [20, 22], tx5 failing (no such account); their
        // batch times out at 32 and is validated at 34.
        let expect = [
            (7, ids(&[&tx[0], &tx[1], &tx[2]]), vec![true, true, false]),
            (15, ids(&[&tx[3]]), vec![true]),
            (34, ids(&[&tx[4], &tx[5]]), vec![true, false]),
        ];
        let expect: Vec<(Duration, Validated)> = (expect.into_iter())
            .map(|(at, tx_ids, valid)| (ms(at), (tx_ids, valid)))
            .collect();
        assert_eq!(blocks, expect);
        assert_eq!(counters, [6, 1, 1, 0]);
    }

    #[test]
    fn the_same_trace_gives_the_same_blocks_and_counters() {
        // 600 arrivals 0.7 ms apart onto five hot accounts: the four
        // servers and the batches interleave, and many reads go stale.
        let trace = || -> Vec<(Duration, SignedTransaction)> {
            (0..600u64)
                .map(|i| {
                    let at = Duration::from_micros(700 * i);
                    (at, write_check(i, &format!("h{}", i * 7 % 5)))
                })
                .collect()
        };
        let config = FabricConfig {
            max_batch: 40,
            ..line(4)
        };
        let first = run(config.clone(), trace());
        let second = run(config, trace());
        assert_eq!(first, second);
        let (blocks, counters) = first;
        assert_eq!(blocks.iter().map(|(_, b)| b.0.len()).sum::<usize>(), 600);
        assert!(counters[1] > 0, "{counters:?}");
    }

    #[test]
    fn an_endorsement_at_a_commit_instant_reads_the_state_before_it() {
        // One server, a batch per endorsement, 2 ms validation: tx0 is
        // endorsed at 2 and committed at 4. The second write endorsed at
        // exactly 4 (endorse before validate) reads the old version and
        // conflicts; one endorsed a nanosecond later reads the new one.
        let config = FabricConfig {
            max_batch: 1,
            validate_cost: ms(2),
            ..line(1)
        };
        for (late, second_valid) in [(Duration::ZERO, false), (Duration::from_nanos(1), true)] {
            let arrivals = vec![
                (ms(0), write_check(0, "hot")),
                (ms(2) + late, write_check(1, "hot")),
            ];
            let (blocks, _) = run(config.clone(), arrivals);
            let valid: Vec<bool> = blocks.iter().flat_map(|(_, b)| b.1.clone()).collect();
            assert_eq!(valid, [true, second_valid], "second arrival {late:?} late");
        }
    }

    #[test]
    fn an_endorsement_at_the_timeout_instant_joins_the_batch_being_cut() {
        // tx0's batch opens at 2 and times out at 12. tx1, endorsed at
        // exactly 12 (endorse before order), rides in it; endorsed a
        // nanosecond later, it opens the next batch.
        for (late, blocks_expected) in [(Duration::ZERO, 1), (Duration::from_nanos(1), 2)] {
            let arrivals = vec![(ms(0), deposit(0, "a")), (ms(10) + late, deposit(1, "b"))];
            let (blocks, _) = run(line(1), arrivals);
            assert_eq!(
                blocks.len(),
                blocks_expected,
                "second arrival {late:?} late"
            );
        }
    }

    #[test]
    fn endorsements_completing_together_are_ordered_by_arrival() {
        // Two servers, two writes to one account arriving at one instant:
        // both complete at 2, and the first to arrive is first in the
        // block (cut at 12, validated at 14), commits, and makes the other
        // conflict.
        let (x, y) = (write_check(0, "hot"), write_check(1, "hot"));
        for (first, second) in [(&x, &y), (&y, &x)] {
            let arrivals = vec![(ms(0), first.clone()), (ms(0), second.clone())];
            let (blocks, counters) = run(line(2), arrivals);
            let expect = (ids(&[first, second]), vec![true, false]);
            assert_eq!(blocks, [(ms(14), expect)]);
            assert_eq!(counters[1], 1);
        }
    }

    #[test]
    fn each_rejection_delays_the_next_endorsement_by_its_handling_cost() {
        // One 10 ms server, two may wait: at 0 tx0 is served over [0, 10],
        // tx1 and tx2 wait, and every further arrival is turned away, each
        // costing the server 1 ms. The arrival at 25 (tx1 and tx2 served by
        // then) would be served over [30, 40]; it ends 1 ms later per
        // rejection.
        let config = FabricConfig {
            endorse_cost: ms(10),
            inbox_capacity: 2,
            ..line(1)
        };
        for rejections in 0..4u64 {
            let (mut pipeline, mut state) = (Pipeline::new(config.clone()), seeded());
            for nonce in 0..3 + rejections {
                let admitted = pipeline.admit(ms(0), deposit(nonce, "a"));
                let expect = if nonce < 3 {
                    Ok(())
                } else {
                    Err(MempoolError::Full)
                };
                assert_eq!(admitted.map(|_| ()), expect, "arrival {nonce}");
            }
            while pipeline.advance(ms(25), &mut state, |_| false).is_some() {}
            pipeline.admit(ms(25), deposit(99, "b")).unwrap();
            let done = pipeline.endorsing.back().unwrap().done;
            assert_eq!(done, ms(40 + rejections), "{rejections} rejections");
            assert_eq!(pipeline.rejected_overload, rejections);
        }
    }

    #[test]
    fn a_crashed_orderer_keeps_its_batch_and_retries_once_per_timeout() {
        // The cut due at 12 finds the orderer down over [5, 31): it holds
        // the batch, which takes the endorsements at 14, 16 and 18 although
        // max_batch is 3, retries at 22 and 32, and cuts at 32.
        let mut pipeline = Pipeline::new(line(1));
        let mut state = seeded();
        let txs: Vec<SignedTransaction> = (0..4).map(|n| deposit(n, "a")).collect();
        for (at, tx) in [0, 12, 12, 12].map(ms).into_iter().zip(txs.clone()) {
            pipeline.admit(at, tx).unwrap();
        }
        let down = |at: Duration| (ms(5)..ms(31)).contains(&at);
        let (tx_ids, _) = pipeline.advance(ms(40), &mut state, down).unwrap();
        assert_eq!(tx_ids, ids(&txs.iter().collect::<Vec<_>>()));
        assert_eq!(pipeline.validator_free, ms(32 + 4));
    }

    // ---- The chain: the pipeline on the kernel's loop. ----

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
        // Endorsed at 2 ms, cut at the timeout, validated 4 ms later.
        chain.clock().sleep_until(ms(300));
        let block = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(block.header.timestamp, ms(206));
        assert_eq!(block.entries().collect::<Vec<_>>(), [(id, true)]);
        assert_eq!(
            chain.account(Address::from_name("a")).unwrap().checking,
            111
        );
        chain.shutdown();
    }

    #[test]
    fn conflicting_txs_are_invalidated() {
        // One server; the fifth endorsement (10 ms) fills the batch, so all
        // five are read before any commits (30 ms): the first commits and
        // the other four conflict.
        let chain = fast_chain(FabricConfig {
            endorser_threads: 1,
            max_batch: 5,
            ..FabricConfig::default()
        });
        chain.seed_account(Address::from_name("hot"), 1000, 0);
        let txs: Vec<SignedTransaction> = (0..5).map(|i| write_check(i, "hot")).collect();
        for tx in txs {
            chain.submit(tx).unwrap();
        }
        chain.clock().sleep_until(ms(100));
        assert_eq!(chain.policy().mvcc_conflicts(), 4);
        assert_eq!(chain.stats().committed, 1);
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
        chain.clock().sleep_until(ms(300));
        assert_eq!(chain.policy().endorse_failures(), 1);
        let b = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(b.entries().collect::<Vec<_>>(), [(id, false)]);
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
        // No time passes between submissions: four are in service, four
        // wait, and the other 42 are turned away.
        assert_eq!(rejected, 42);
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
        // Endorsed side by side: one block, in arrival order.
        chain.clock().sleep_until(ms(300));
        let blocks = chain.blocks(0, 1..=u64::MAX).unwrap();
        let entries: Vec<_> = blocks.iter().flat_map(|b| b.entries()).collect();
        assert_eq!(
            entries,
            ids.iter().map(|&id| (id, true)).collect::<Vec<_>>()
        );
        chain.shutdown();
    }

    #[test]
    fn ledger_verifies_after_run() {
        let chain = fast_chain(FabricConfig::default());
        // Distinct accounts: concurrent endorsement must not conflict.
        for tx in deposits(&chain, 40) {
            chain.submit(tx).unwrap();
        }
        // One batch: cut at its timeout, validated 160 ms later.
        chain.clock().sleep_until(Duration::from_secs(1));
        assert_eq!(chain.stats().committed, 40);
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    #[test]
    fn batch_size_respected() {
        let chain = fast_chain(FabricConfig {
            max_batch: 5,
            ..FabricConfig::default()
        });
        for tx in deposits(&chain, 23) {
            chain.submit(tx).unwrap();
        }
        chain.clock().sleep_until(Duration::from_secs(1));
        let blocks = chain.blocks(0, 1..=u64::MAX).unwrap();
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [5, 5, 5, 5, 3]);
        chain.shutdown();
    }

    #[test]
    fn pending_count_drains() {
        let chain = fast_chain(FabricConfig::default());
        for tx in deposits(&chain, 10) {
            chain.submit(tx).unwrap();
        }
        assert_eq!(chain.pending_txs().unwrap(), 10);
        chain.clock().sleep_until(Duration::from_secs(1));
        assert_eq!(chain.pending_txs().unwrap(), 0);
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
        let wall = |speedup| chain_on(SimClock::with_speedup(speedup), FabricConfig::default());
        // Idle: the loop waits for an event that never comes.
        let idle = timed_drop(wall(1000.0));
        assert!(idle < Duration::from_millis(20), "idle drop took {idle:?}");

        // Busy: at 100× a burst of 300 is 12 ms of validation alone, so the
        // drop finds endorsements in service, an open batch at the orderer
        // and a batch in validation.
        let chain = wall(100.0);
        for tx in deposits(&chain, 300) {
            chain.submit(tx).unwrap();
        }
        assert!(chain.pending_txs().unwrap() > 0, "the burst is in flight");
        let busy = timed_drop(chain);
        assert!(busy < Duration::from_millis(20), "busy drop took {busy:?}");
    }

    #[test]
    fn dropping_the_node_in_virtual_time_joins_it_at_the_raise() {
        let clock = SimClock::virtual_time();
        let drop_at_its_instant = |chain: Arc<ChainNode<FabricPolicy>>| {
            let raised_at = clock.now();
            drop(chain);
            assert_eq!(clock.now(), raised_at);
            assert_eq!(clock.participants(), 1, "the loop is joined");
        };
        let idle = chain_on(clock.clone(), FabricConfig::default());
        clock.sleep(Duration::from_secs(1));
        drop_at_its_instant(idle);
        // Busy: at 100 ms the burst of 300 is still being endorsed (until
        // 150 ms), its first batch of 120 is in validation (60 ms to 540 ms)
        // and the second is open at the orderer.
        let chain = chain_on(clock.clone(), FabricConfig::default());
        for tx in deposits(&chain, 300) {
            chain.submit(tx).unwrap();
        }
        clock.sleep(ms(100));
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        assert_eq!(chain.pending_txs().unwrap(), 300, "the burst is in flight");
        drop_at_its_instant(chain);
    }

    #[test]
    fn a_partial_batch_is_cut_at_the_timeout_in_simulated_time() {
        let batch_timeout = Duration::from_secs(20);
        let config = FabricConfig {
            batch_timeout,
            ..FabricConfig::default()
        };
        let chain = chain_on(SimClock::virtual_time(), config);
        for tx in deposits(&chain, 3) {
            chain.submit(tx).unwrap();
        }
        chain.clock().sleep_until(Duration::from_secs(30));
        assert_eq!(chain.latest_height(0).unwrap(), 1, "one block of three");
        // Endorsed at 2 ms, cut a timeout later, three validations after.
        let block = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(block.header.timestamp, ms(2) + batch_timeout + ms(12));
        chain.shutdown();
    }

    /// CPU time (user + system, in 10 ms ticks) of every live thread named
    /// `fabric-sim`, the chain's loop; `None` where `/proc` does not say.
    fn chain_cpu_ticks() -> Option<u64> {
        let mut ticks = 0;
        for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
            let read = |file| std::fs::read_to_string(task.path().join(file));
            if read("comm").is_ok_and(|name| name.trim() == "fabric-sim") {
                // Fields 14 and 15; the thread name in field 2 has no space.
                let stat = read("stat").ok()?;
                let mut fields = stat.split(' ').skip(13);
                ticks += fields.next()?.parse::<u64>().ok()?;
                ticks += fields.next()?.parse::<u64>().ok()?;
            }
        }
        Some(ticks)
    }

    /// A chain on `clock` whose orderer is crashed for its first 40 s,
    /// holding three deposits submitted at zero.
    fn crashed_orderer(clock: SimClock) -> Arc<ChainNode<FabricPolicy>> {
        use hammer_net::FaultPlan;
        let chain = chain_on(clock, FabricConfig::default());
        let window = (Duration::ZERO, Duration::from_secs(40));
        let plan = FaultPlan::new().crash("fabric-orderer", window.0, window.1);
        chain.net().install_faults(plan);
        for tx in deposits(&chain, 3) {
            chain.submit(tx).unwrap();
        }
        chain
    }

    #[test]
    fn a_crashed_orderer_keeps_its_open_batch_and_cuts_it_at_the_first_retry_after() {
        let chain = crashed_orderer(SimClock::virtual_time());
        chain.clock().sleep_until(Duration::from_secs(39));
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        assert_eq!(chain.pending_txs().unwrap(), 3);
        // The cut due at 502 ms is retried every 500 ms: the first retry
        // after the window, at 40.002 s, cuts the batch whole.
        chain.clock().sleep_until(Duration::from_secs(41));
        assert_eq!(chain.stats().committed, 3);
        assert_eq!(chain.latest_height(0).unwrap(), 1);
        let block = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(block.header.timestamp, ms(40_002 + 12));
        chain.shutdown();
    }

    #[test]
    fn a_crashed_orderer_does_not_spin_in_wall_mode() {
        // The crash window is 400 ms of wall time, eighty batch timeouts.
        let window_end = Duration::from_secs(40);
        let chain = crashed_orderer(SimClock::with_speedup(100.0));
        let cpu_before = chain_cpu_ticks();
        // Well inside the window the batch's deadline is long past, and
        // nothing has been cut.
        chain
            .clock()
            .sleep_until(window_end - Duration::from_secs(5));
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        assert_eq!(chain.pending_txs().unwrap(), 3);
        if let (Some(before), Some(after)) = (cpu_before, chain_cpu_ticks()) {
            // One look per batch timeout costs the loop a few percent of a
            // core; holding an expired deadline in a loop, all 35 ticks.
            let spent = after.saturating_sub(before);
            assert!(spent <= 10, "the crashed orderer burnt {spent} ticks");
        }
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
