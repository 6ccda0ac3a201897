//! A Meepo-style sharded consortium blockchain simulator.
//!
//! Meepo (Zheng et al., ICDE 2021) splits a consortium chain into shards
//! that process transactions in parallel and settle cross-shard calls at
//! epoch boundaries ("cross-epoch"). This simulator reproduces the
//! behaviour the Hammer paper needs (§V *Sharding*):
//!
//! * **Static sharding** — accounts are routed to a shard by account id
//!   (`id % shards`); the paper seeds 5 000 accounts per shard.
//! * **Per-shard epochs** — each shard cuts a block every
//!   [`MeepoConfig::epoch_interval`] from its own mempool, so aggregate
//!   throughput scales with the shard count.
//! * **Cross-epoch settlement** — a transfer whose sender and receiver
//!   live on different shards executes its debit in the source shard's
//!   block, relays the credit, and the destination shard applies it at its
//!   first epoch boundary after that block is sealed. The transaction is
//!   reported committed at the source block (the relay is deterministic),
//!   as the paper does not distinguish intra-/inter-shard transactions.
//!
//! Throughput lands between Fabric and Neuchain, with high confirmation
//! latency from the long consortium epochs — the shape Fig. 6 shows.
//!
//! Node scaffolding (one loop for both shards' epochs, ingress gating,
//! sealed-block accounting) comes from [`hammer_chain::kernel`];
//! this crate contributes the sharded-routing [`ConsensusPolicy`] and the
//! cross-epoch relay, and [`start`] returns the running [`ChainNode`].

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_chain::client::Architecture;
use hammer_chain::kernel::{ChainNode, ConsensusPolicy, Kernel, NodeKernelBuilder, Round};
use hammer_chain::smallbank::Op;
use hammer_chain::state::VersionedState;
use hammer_chain::types::{Address, SignedTransaction};
use hammer_crypto::sig::SigParams;
use hammer_net::{SimClock, SimNetwork};
use parking_lot::Mutex;

/// Configuration of the simulated Meepo deployment.
#[derive(Clone, Debug)]
pub struct MeepoConfig {
    /// Number of shards (the paper deploys 2).
    pub shards: u32,
    /// Nodes participating in each shard (the paper configures 3 nodes
    /// serving both shards).
    pub nodes_per_shard: usize,
    /// Epoch length per shard (consortium block time).
    pub epoch_interval: Duration,
    /// Maximum transactions per shard block.
    pub max_block_txs: usize,
    /// Simulated execution cost per transaction.
    pub exec_cost_per_tx: Duration,
    /// Per-shard mempool capacity.
    pub mempool_capacity: usize,
    /// Signature scheme parameters.
    pub sig_params: SigParams,
}

impl Default for MeepoConfig {
    fn default() -> Self {
        MeepoConfig {
            shards: 2,
            nodes_per_shard: 3,
            epoch_interval: Duration::from_millis(800),
            max_block_txs: 1_200,
            exec_cost_per_tx: Duration::from_micros(60),
            mempool_capacity: 30_000,
            sig_params: SigParams::fast(),
        }
    }
}

/// A pending cross-shard credit: `(account, amount)` to apply to checking.
#[derive(Clone, Copy, Debug)]
struct Credit {
    account: Address,
    amount: u64,
}

/// A relayed credit behind the `(shard, height)` of its debiting block.
type Relayed = ((u32, u64), Credit);

fn node_name(shard: u32, i: usize) -> String {
    format!("meepo-s{shard}-node-{i}")
}

/// The sharded consensus core: static account routing, per-shard epochs,
/// and cross-epoch credit relay.
pub struct MeepoPolicy {
    config: MeepoConfig,
    /// Inbound cross-epoch credits, one inbox per shard.
    relay_in: Vec<Mutex<Vec<Relayed>>>,
    cross_shard: AtomicU64,
}

impl ConsensusPolicy for MeepoPolicy {
    fn chain_name(&self) -> &'static str {
        "meepo-sim"
    }

    fn architecture(&self) -> Architecture {
        Architecture::Sharded {
            shards: self.config.shards,
        }
    }

    /// Ingress goes through the target shard's leader; a fault there only
    /// affects that shard.
    fn ingress_node(&self, shard: u32) -> String {
        node_name(shard, 0)
    }

    /// Route by the first touched account (the transaction's home shard,
    /// where its debit executes).
    fn route(&self, tx: &SignedTransaction) -> u32 {
        tx.tx
            .op
            .touched_accounts()
            .first()
            .map(|a| self.home_shard(*a))
            .unwrap_or(0)
    }

    fn home_shard(&self, account: Address) -> u32 {
        (account.as_u64() % self.config.shards as u64) as u32
    }

    fn seal_wait(&self, _shard: u32) -> Duration {
        self.config.epoch_interval
    }

    fn build_round(&self, kernel: &Kernel, shard_id: u32) -> Option<Round> {
        let shard = kernel.shard(shard_id);

        // 1. Apply the cross-epoch credits whose source block is sealed.
        let inbox = &self.relay_in[shard_id as usize];
        let sealed = |((source, height), _): &Relayed| kernel.height(*source) >= *height;
        let (credits, waiting): (Vec<_>, _) = inbox.lock().drain(..).partition(sealed);
        *inbox.lock() = waiting;
        if !credits.is_empty() {
            let mut state = shard.state.lock();
            for (_, c) in &credits {
                let (checking, savings) = state
                    .get(c.account)
                    .map(|a| (a.checking, a.savings))
                    .unwrap_or((0, 0));
                state.force_write(c.account, checking.saturating_add(c.amount), savings);
            }
        }

        // 2. Cut this shard's block.
        let mut txs = shard.mempool.drain(self.config.max_block_txs);
        if txs.is_empty() && credits.is_empty() {
            return None;
        }
        kernel.verify_retain(&mut txs, &self.config.sig_params);

        let debited_in = (shard_id, kernel.height(shard_id) + 1);
        let mut tx_ids = Vec::with_capacity(txs.len());
        let mut valid = Vec::with_capacity(txs.len());
        {
            let mut state = shard.state.lock();
            for tx in &txs {
                let outcome = self.execute_on_shard(&mut state, &tx.tx.op, shard_id);
                let ok = match outcome {
                    ExecOutcome::Ok => true,
                    ExecOutcome::OkCrossShard(dest, credit) => {
                        self.cross_shard.fetch_add(1, Ordering::Relaxed);
                        let inbox = &self.relay_in[dest as usize];
                        inbox.lock().push((debited_in, credit));
                        true
                    }
                    ExecOutcome::Failed => false,
                };
                tx_ids.push(tx.id);
                valid.push(ok);
            }
        }

        if tx_ids.is_empty() {
            return None;
        }
        Some(Round {
            proposer: node_name(shard_id, 0),
            tx_ids,
            valid,
            gossip_to: Vec::new(),
            mempool_depth: None,
        })
    }

    fn round_cost(&self, _shard: u32, txs: usize) -> Duration {
        self.config.exec_cost_per_tx * txs as u32
    }
}

/// Outcome of executing one transaction on its source shard.
enum ExecOutcome {
    Ok,
    OkCrossShard(u32, Credit),
    Failed,
}

impl MeepoPolicy {
    /// Executes `op` on its source shard; cross-shard transfers debit
    /// locally and emit a relay credit.
    fn execute_on_shard(&self, state: &mut VersionedState, op: &Op, shard_id: u32) -> ExecOutcome {
        let home = |a: &Address| self.home_shard(*a);
        match op {
            Op::SendPayment { from, to, amount } => {
                debug_assert_eq!(home(from), shard_id, "router sent tx to wrong shard");
                if home(to) == shard_id {
                    return match state.apply(op) {
                        Ok(_) => ExecOutcome::Ok,
                        Err(_) => ExecOutcome::Failed,
                    };
                }
                // Cross-shard: debit locally, relay the credit.
                match state.get(*from) {
                    Some(acct) if acct.checking >= *amount => {
                        state.force_write(*from, acct.checking - amount, acct.savings);
                        ExecOutcome::OkCrossShard(
                            home(to),
                            Credit {
                                account: *to,
                                amount: *amount,
                            },
                        )
                    }
                    _ => ExecOutcome::Failed,
                }
            }
            Op::Amalgamate { from, to } => {
                debug_assert_eq!(home(from), shard_id, "router sent tx to wrong shard");
                if home(to) == shard_id {
                    return match state.apply(op) {
                        Ok(_) => ExecOutcome::Ok,
                        Err(_) => ExecOutcome::Failed,
                    };
                }
                match state.get(*from) {
                    Some(acct) => {
                        let moved = acct.savings;
                        state.force_write(*from, acct.checking, 0);
                        ExecOutcome::OkCrossShard(
                            home(to),
                            Credit {
                                account: *to,
                                amount: moved,
                            },
                        )
                    }
                    None => ExecOutcome::Failed,
                }
            }
            single_shard => match state.apply(single_shard) {
                Ok(_) => ExecOutcome::Ok,
                Err(_) => ExecOutcome::Failed,
            },
        }
    }
}

/// Starts the deployment: node endpoints and the chain's loop on the
/// kernel runtime.
pub fn start(config: MeepoConfig, clock: SimClock, net: SimNetwork) -> Arc<ChainNode<MeepoPolicy>> {
    assert!(config.shards >= 1 && config.nodes_per_shard >= 1);
    let mut builder = NodeKernelBuilder::new(clock, net).mempool_capacity(config.mempool_capacity);
    for shard in 0..config.shards {
        for i in 0..config.nodes_per_shard {
            builder = builder.endpoint(&node_name(shard, i));
        }
    }
    let relay_in = (0..config.shards).map(|_| Mutex::new(Vec::new())).collect();
    builder.start(MeepoPolicy {
        config,
        relay_in,
        cross_shard: AtomicU64::new(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::client::BlockchainClient;
    use hammer_chain::kernel::SimChain;
    use hammer_chain::types::Transaction;
    use hammer_crypto::Keypair;
    use hammer_net::LinkConfig;

    impl MeepoPolicy {
        /// Cross-shard transactions settled: what the tests observe of
        /// the chain's relay.
        fn cross_shard(&self) -> u64 {
            self.cross_shard.load(Ordering::Relaxed)
        }
    }

    const MS: Duration = Duration::from_millis(1);

    /// The chain on a virtual clock, which the calling test thread takes
    /// part in: each shard cuts its first epoch at `epoch_interval`, the
    /// next an interval after its seal, and only while the test waits on the
    /// clock.
    fn fast_chain(config: MeepoConfig) -> Arc<ChainNode<MeepoPolicy>> {
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        start(config, clock, net)
    }

    /// Sum of funds across every shard (conservation audits).
    fn total_funds(chain: &ChainNode<MeepoPolicy>) -> u128 {
        let shards = chain.kernel().shards().iter();
        shards.map(|s| s.state.lock().total_funds()).sum()
    }

    fn signed(nonce: u64, op: Op) -> SignedTransaction {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op,
            chain_name: "meepo-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
        .sign(&Keypair::from_seed(6), &SigParams::fast())
    }

    /// Finds addresses on specific shards (2-shard default config).
    fn addr_on_shard(shard: u64, salt: u64) -> Address {
        let mut i = salt;
        loop {
            let a = Address::from_name(&format!("acct-{i}"));
            if a.as_u64() % 2 == shard {
                return a;
            }
            i += 1;
        }
    }

    #[test]
    fn intra_shard_transfer_commits() {
        let chain = fast_chain(MeepoConfig::default());
        let a = addr_on_shard(0, 0);
        let b = addr_on_shard(0, 100);
        assert_ne!(a, b);
        chain.seed_account(a, 100, 0);
        chain.seed_account(b, 0, 0);
        chain
            .submit(signed(
                1,
                Op::SendPayment {
                    from: a,
                    to: b,
                    amount: 30,
                },
            ))
            .unwrap();
        chain.clock().sleep_until(900 * MS);
        assert_eq!(chain.stats().committed, 1);
        assert_eq!(chain.account(a).unwrap().checking, 70);
        assert_eq!(chain.account(b).unwrap().checking, 30);
        assert_eq!(chain.policy().cross_shard(), 0);
        chain.shutdown();
    }

    #[test]
    fn cross_shard_transfer_settles_next_epoch() {
        let chain = fast_chain(MeepoConfig::default());
        let a = addr_on_shard(0, 0);
        let b = addr_on_shard(1, 200);
        chain.seed_account(a, 100, 0);
        chain.seed_account(b, 5, 0);
        let before = total_funds(&chain);
        chain
            .submit(signed(
                1,
                Op::SendPayment {
                    from: a,
                    to: b,
                    amount: 40,
                },
            ))
            .unwrap();
        // The debit is in shard 0's first block (800 ms); the credit lands
        // at shard 1's next epoch (1.6 s), the first after that block.
        chain.clock().sleep_until(900 * MS);
        assert_eq!(chain.policy().cross_shard(), 1);
        assert_eq!(chain.account(a).unwrap().checking, 60);
        assert_eq!(chain.account(b).unwrap().checking, 5);
        chain.clock().sleep_until(1700 * MS);
        assert_eq!(chain.account(b).unwrap().checking, 45);
        assert_eq!(total_funds(&chain), before);
        chain.shutdown();
    }

    #[test]
    fn a_cross_shard_credit_waits_for_its_source_block_to_seal() {
        // Shard 0 builds the payment at 100 ms and seals it a second of
        // execution later, while shard 1 cuts ten epochs of its own.
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let config = MeepoConfig {
            epoch_interval: Duration::from_millis(100),
            exec_cost_per_tx: Duration::from_secs(1),
            ..MeepoConfig::default()
        };
        let chain = start(config, clock.clone(), net);
        let a = addr_on_shard(0, 0);
        let b = addr_on_shard(1, 200);
        chain.seed_account(a, 100, 0);
        chain.seed_account(b, 5, 0);
        let payment = Op::SendPayment {
            from: a,
            to: b,
            amount: 40,
        };
        chain.submit(signed(1, payment)).unwrap();
        let sealed = 100 * MS + Duration::from_secs(1);
        // A nanosecond before the seal: every epoch of shard 1 so far found
        // the credit's source unsealed.
        clock.sleep_until(sealed - Duration::from_nanos(1));
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        assert_eq!(chain.account(b).unwrap().checking, 5);
        // Shard 1's epoch at the seal's instant comes after it (a tie goes
        // to the lower shard), and applies the credit.
        clock.sleep_until(sealed + MS);
        let source = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(source.header.timestamp, sealed);
        assert_eq!(chain.account(b).unwrap().checking, 45);
        chain.shutdown();
    }

    #[test]
    fn cross_shard_amalgamate_settles() {
        let chain = fast_chain(MeepoConfig::default());
        let a = addr_on_shard(0, 0);
        let b = addr_on_shard(1, 200);
        chain.seed_account(a, 10, 70);
        chain.seed_account(b, 1, 0);
        chain
            .submit(signed(1, Op::Amalgamate { from: a, to: b }))
            .unwrap();
        chain.clock().sleep_until(900 * MS);
        assert_eq!(chain.policy().cross_shard(), 1);
        assert_eq!(chain.account(a).unwrap().savings, 0);
        chain.clock().sleep_until(1700 * MS);
        assert_eq!(chain.account(b).unwrap().checking, 71);
        chain.shutdown();
    }

    #[test]
    fn insufficient_funds_cross_shard_fails_without_relay() {
        let chain = fast_chain(MeepoConfig::default());
        let a = addr_on_shard(0, 0);
        let b = addr_on_shard(1, 200);
        chain.seed_account(a, 10, 0);
        chain.seed_account(b, 0, 0);
        chain
            .submit(signed(
                1,
                Op::SendPayment {
                    from: a,
                    to: b,
                    amount: 999,
                },
            ))
            .unwrap();
        chain.clock().sleep_until(900 * MS);
        assert_eq!(chain.stats().failed, 1);
        assert_eq!(chain.policy().cross_shard(), 0);
        assert_eq!(chain.account(a).unwrap().checking, 10);
        chain.shutdown();
    }

    #[test]
    fn txs_route_to_home_shard_block() {
        let chain = fast_chain(MeepoConfig::default());
        let a0 = addr_on_shard(0, 0);
        let a1 = addr_on_shard(1, 300);
        chain.seed_account(a0, 100, 0);
        chain.seed_account(a1, 100, 0);
        let id0 = chain
            .submit(signed(
                1,
                Op::DepositChecking {
                    account: a0,
                    amount: 1,
                },
            ))
            .unwrap();
        let id1 = chain
            .submit(signed(
                2,
                Op::DepositChecking {
                    account: a1,
                    amount: 1,
                },
            ))
            .unwrap();
        chain.clock().sleep_until(900 * MS);
        assert_eq!(chain.stats().committed, 2);
        let b0 = chain.block_at(0, 1).unwrap().unwrap();
        let b1 = chain.block_at(1, 1).unwrap().unwrap();
        assert!(b0.tx_ids.contains(&id0));
        assert!(b1.tx_ids.contains(&id1));
        assert_eq!(b0.header.shard, 0);
        assert_eq!(b1.header.shard, 1);
        chain.shutdown();
    }

    #[test]
    fn unknown_shard_query_rejected() {
        let chain = fast_chain(MeepoConfig::default());
        assert_eq!(chain.latest_height(5).unwrap_err().shard(), Some(5));
        chain.shutdown();
    }

    #[test]
    fn shard_leader_crash_only_affects_its_shard() {
        use hammer_net::FaultPlan;
        let chain = fast_chain(MeepoConfig {
            epoch_interval: Duration::from_millis(200),
            ..MeepoConfig::default()
        });
        chain.net().install_faults(FaultPlan::new().crash(
            "meepo-s0-node-0",
            Duration::ZERO,
            Duration::from_secs(3600),
        ));
        let a0 = addr_on_shard(0, 7);
        let a1 = addr_on_shard(1, 7);
        chain.seed_account(a0, 1000, 0);
        chain.seed_account(a1, 1000, 0);
        // Shard 0 ingress is down...
        let err = chain
            .submit(signed(
                1,
                Op::DepositChecking {
                    account: a0,
                    amount: 1,
                },
            ))
            .unwrap_err();
        assert!(err.is_unavailable());
        // ...while shard 1 keeps accepting and committing.
        chain
            .submit(signed(
                2,
                Op::DepositChecking {
                    account: a1,
                    amount: 1,
                },
            ))
            .unwrap();
        chain.clock().sleep_until(300 * MS);
        assert_eq!(chain.stats().committed, 1);
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        assert_eq!(chain.latest_height(1).unwrap(), 1);
        chain.shutdown();
    }

    #[test]
    fn sharded_architecture_reported() {
        let chain = fast_chain(MeepoConfig::default());
        assert_eq!(chain.architecture(), Architecture::Sharded { shards: 2 });
        chain.shutdown();
    }

    #[test]
    fn conservation_under_mixed_load() {
        let chain = fast_chain(MeepoConfig {
            epoch_interval: Duration::from_millis(200),
            ..MeepoConfig::default()
        });
        let accounts: Vec<Address> = (0..10).map(|i| addr_on_shard(i % 2, i * 50)).collect();
        for a in &accounts {
            chain.seed_account(*a, 1000, 500);
        }
        let before = total_funds(&chain);
        let mut n = 0;
        for i in 0..40u64 {
            let from = accounts[(i % 10) as usize];
            let to = accounts[((i * 3 + 1) % 10) as usize];
            if from == to {
                continue;
            }
            chain
                .submit(signed(
                    i,
                    Op::SendPayment {
                        from,
                        to,
                        amount: 7,
                    },
                ))
                .unwrap();
            n += 1;
        }
        // Every payment is in each shard's first block (200 ms), and every
        // relayed credit is applied by the epoch after it.
        chain.clock().sleep_until(Duration::from_secs(1));
        let s = chain.stats();
        assert_eq!(s.committed + s.failed, n);
        assert_eq!(total_funds(&chain), before);
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    #[test]
    fn per_shard_heights_reported() {
        let chain = fast_chain(MeepoConfig::default());
        assert_eq!(chain.kernel().shards().len(), 2);
        chain.shutdown();
    }

    #[test]
    fn reports_roles_for_fault_targeting() {
        let chain = fast_chain(MeepoConfig::default());
        assert_eq!(
            SimChain::ingress_nodes(&*chain),
            vec!["meepo-s0-node-0", "meepo-s1-node-0"]
        );
        assert_eq!(
            SimChain::sealer_nodes(&*chain),
            vec!["meepo-s0-node-0", "meepo-s1-node-0"]
        );
        chain.shutdown();
    }
}
