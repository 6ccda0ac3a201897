//! A Neuchain-style deterministic-ordering blockchain simulator.
//!
//! Neuchain (Peng et al., VLDB 2022) removes the ordering phase entirely:
//! transactions received within an epoch are ordered *deterministically*
//! (here: by transaction id) and executed by every block server, so no
//! consensus round trips sit on the critical path. That is why it is the
//! high-throughput / low-latency extreme of the paper's Fig. 6 (8 688 TPS
//! against Ethereum's 18.6).
//!
//! Roles, mirroring the paper's deployment (§V *Environment*): one **epoch
//! server** cutting epochs, one **client proxy** accepting submissions, and
//! the remaining nodes as **block servers**, registered as endpoints a
//! fault plan can target; no block is replicated to them.
//!
//! Node scaffolding (the chain's loop, ingress gating, sealing,
//! observability) comes from the [`hammer_chain::kernel`]; this crate only
//! contributes the epoch-cut [`ConsensusPolicy`], whose execution cost is a
//! `round_cost`, and [`start`] returns the running [`ChainNode`] itself.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use hammer_chain::kernel::{ChainNode, ConsensusPolicy, Kernel, NodeKernelBuilder, Round};
use hammer_crypto::sig::SigParams;
use hammer_net::{SimClock, SimNetwork};

/// Configuration of the simulated Neuchain deployment.
#[derive(Clone, Debug)]
pub struct NeuchainConfig {
    /// Number of block servers (the paper uses 3: 5 nodes minus the epoch
    /// server and the client proxy).
    pub block_servers: usize,
    /// Epoch length: every epoch the pending set becomes one block.
    pub epoch_interval: Duration,
    /// Maximum transactions per epoch block.
    pub max_block_txs: usize,
    /// Simulated deterministic-execution cost per transaction.
    pub exec_cost_per_tx: Duration,
    /// Client-proxy pool capacity.
    pub mempool_capacity: usize,
    /// Signature scheme parameters.
    pub sig_params: SigParams,
}

impl Default for NeuchainConfig {
    fn default() -> Self {
        NeuchainConfig {
            block_servers: 3,
            epoch_interval: Duration::from_millis(100),
            max_block_txs: 2_000,
            exec_cost_per_tx: Duration::from_micros(8),
            mempool_capacity: 50_000,
            sig_params: SigParams::fast(),
        }
    }
}

/// The epoch-cut consensus core: drain the pool every epoch, order
/// deterministically by transaction id, execute, seal.
pub struct NeuchainPolicy {
    config: NeuchainConfig,
}

fn server_name(i: usize) -> String {
    format!("neuchain-block-server-{i}")
}

impl ConsensusPolicy for NeuchainPolicy {
    fn chain_name(&self) -> &'static str {
        "neuchain-sim"
    }

    fn ingress_node(&self, _shard: u32) -> String {
        "neuchain-client-proxy".to_owned()
    }

    fn sealer_node(&self, _shard: u32) -> String {
        "neuchain-epoch-server".to_owned()
    }

    fn seal_wait(&self, _shard: u32) -> Duration {
        self.config.epoch_interval
    }

    fn build_round(&self, kernel: &Kernel, shard: u32) -> Option<Round> {
        let ctx = kernel.shard(shard);
        let mut txs = ctx.mempool.drain(self.config.max_block_txs);
        if txs.is_empty() {
            // Neuchain still advances epochs, but empty blocks are elided
            // in the simulation to keep ledgers compact.
            return None;
        }
        // Deterministic order: sort by transaction id. Every block server
        // derives the same order with no communication.
        txs.sort_by_key(|t| t.id);

        kernel.verify_retain(&mut txs, &self.config.sig_params);

        let mut tx_ids = Vec::with_capacity(txs.len());
        let mut valid = Vec::with_capacity(txs.len());
        {
            let mut state = ctx.state.lock();
            for tx in &txs {
                tx_ids.push(tx.id);
                valid.push(state.apply(&tx.tx.op).is_ok());
            }
        }

        Some(Round {
            proposer: "neuchain-epoch-server".to_owned(),
            tx_ids,
            valid,
            gossip_to: Vec::new(),
            mempool_depth: None,
        })
    }

    /// Deterministic execution cost.
    fn round_cost(&self, _shard: u32, txs: usize) -> Duration {
        self.config.exec_cost_per_tx * txs as u32
    }
}

/// Starts the deployment: epoch server, client proxy, and block-server
/// endpoints on the kernel runtime.
pub fn start(
    config: NeuchainConfig,
    clock: SimClock,
    net: SimNetwork,
) -> Arc<ChainNode<NeuchainPolicy>> {
    assert!(config.block_servers >= 1);
    let mut builder = NodeKernelBuilder::new(clock, net)
        .mempool_capacity(config.mempool_capacity)
        .endpoint("neuchain-epoch-server")
        .endpoint("neuchain-client-proxy");
    for i in 0..config.block_servers {
        builder = builder.endpoint(&server_name(i));
    }
    builder.start(NeuchainPolicy { config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::client::{Architecture, BlockchainClient};
    use hammer_chain::kernel::SimChain;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::{Address, SignedTransaction, Transaction, TxId};
    use hammer_crypto::Keypair;
    use hammer_net::LinkConfig;

    /// The chain on a virtual clock: epochs are cut while the test waits on
    /// it, the first at `epoch_interval`, each next an interval after a seal.
    fn fast_chain(config: NeuchainConfig) -> Arc<ChainNode<NeuchainPolicy>> {
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        start(config, clock, net)
    }

    fn signed(nonce: u64, op: Op) -> SignedTransaction {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op,
            chain_name: "neuchain-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
        .sign(&Keypair::from_seed(4), &SigParams::fast())
    }

    #[test]
    fn commits_within_an_epoch() {
        let chain = fast_chain(NeuchainConfig::default());
        chain.seed_account(Address::from_name("a"), 100, 0);
        chain
            .submit(signed(
                1,
                Op::DepositChecking {
                    account: Address::from_name("a"),
                    amount: 1,
                },
            ))
            .unwrap();
        chain.clock().sleep_until(Duration::from_millis(150));
        assert_eq!(chain.stats().committed, 1);
        // Built at the first epoch, sealed one execution later.
        let sealed = chain.block_at(0, 1).unwrap().unwrap().header.timestamp;
        assert_eq!(sealed, Duration::from_micros(100_008));
        assert_eq!(
            chain.account(Address::from_name("a")).unwrap().checking,
            101
        );
        chain.shutdown();
    }

    #[test]
    fn deterministic_order_within_block() {
        let chain = fast_chain(NeuchainConfig {
            epoch_interval: Duration::from_millis(500),
            ..NeuchainConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 10_000, 0);
        let mut ids: Vec<TxId> = Vec::new();
        for i in 0..20 {
            ids.push(
                chain
                    .submit(signed(
                        i,
                        Op::DepositChecking {
                            account: Address::from_name("a"),
                            amount: 1,
                        },
                    ))
                    .unwrap(),
            );
        }
        // All land in the first epoch's block, sorted by id.
        chain.clock().sleep_until(Duration::from_millis(600));
        let b = chain.block_at(0, 1).unwrap().unwrap();
        ids.sort();
        assert_eq!(b.tx_ids, ids, "not deterministically ordered");
        chain.shutdown();
    }

    #[test]
    fn empty_epochs_produce_no_blocks() {
        let chain = fast_chain(NeuchainConfig {
            epoch_interval: Duration::from_millis(50),
            ..NeuchainConfig::default()
        });
        chain.clock().sleep(Duration::from_millis(300));
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        chain.shutdown();
    }

    #[test]
    fn bad_signature_dropped_entirely() {
        let chain = fast_chain(NeuchainConfig::default());
        chain.seed_account(Address::from_name("a"), 100, 0);
        let mut tx = signed(
            1,
            Op::DepositChecking {
                account: Address::from_name("a"),
                amount: 1,
            },
        );
        // The id no longer matches the body: the mempool accepts it
        // (stateless), the epoch cut drops it.
        tx.tx.nonce = 999;
        chain.submit(tx).unwrap();
        chain.clock().sleep_until(Duration::from_millis(150));
        assert_eq!(chain.stats().bad_sig, 1);
        assert_eq!(chain.stats().committed, 0);
        chain.shutdown();
    }

    #[test]
    fn failed_execution_marked_invalid() {
        let chain = fast_chain(NeuchainConfig::default());
        let id = chain
            .submit(signed(
                1,
                Op::WriteCheck {
                    account: Address::from_name("ghost"),
                    amount: 1,
                },
            ))
            .unwrap();
        chain.clock().sleep_until(Duration::from_millis(150));
        assert_eq!(chain.stats().failed, 1);
        let b = chain.block_at(0, 1).unwrap().unwrap();
        assert_eq!(b.entries().collect::<Vec<_>>(), [(id, false)]);
        chain.shutdown();
    }

    #[test]
    fn sustains_high_throughput() {
        // 2000 txs in one block: built at 100 ms, sealed 16 ms later.
        let chain = fast_chain(NeuchainConfig::default());
        chain.seed_account(Address::from_name("a"), 10_000_000, 0);
        for i in 0..2000 {
            chain
                .submit(signed(
                    i,
                    Op::DepositChecking {
                        account: Address::from_name("a"),
                        amount: 1,
                    },
                ))
                .unwrap();
        }
        chain.clock().sleep_until(Duration::from_secs(1));
        assert_eq!(chain.stats().committed, 2000);
        let sealed = chain.block_at(0, 1).unwrap().unwrap().header.timestamp;
        assert_eq!(sealed, Duration::from_millis(116));
        chain.verify_ledgers().unwrap();
        chain.shutdown();
    }

    #[test]
    fn crash_window_halts_epochs_and_fails_ingress() {
        use hammer_net::FaultPlan;
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let chain = start(NeuchainConfig::default(), clock.clone(), net.clone());
        chain.seed_account(Address::from_name("a"), 10_000, 0);
        // Crash both roles from the epoch start; restart at 2s (simulated).
        net.install_faults(
            FaultPlan::new()
                .crash(
                    "neuchain-client-proxy",
                    Duration::ZERO,
                    Duration::from_secs(2),
                )
                .crash(
                    "neuchain-epoch-server",
                    Duration::ZERO,
                    Duration::from_secs(2),
                ),
        );
        let deposit = |n| {
            signed(
                n,
                Op::DepositChecking {
                    account: Address::from_name("a"),
                    amount: 1,
                },
            )
        };
        let err = chain.submit(deposit(1)).unwrap_err();
        assert!(err.is_unavailable(), "expected outage error, got {err}");
        assert!(err.is_retryable());
        assert_eq!(chain.latest_height(0).unwrap(), 0);
        // Restarted at 2 s, the epoch there seals it (the test runs first).
        clock.sleep_until(Duration::from_secs(2));
        chain.submit(deposit(2)).unwrap();
        clock.sleep(Duration::from_millis(50));
        assert_eq!(chain.stats().committed, 1);
        let sealed = chain.block_at(0, 1).unwrap().unwrap().header.timestamp;
        assert_eq!(sealed, Duration::from_secs(2) + Duration::from_micros(8));
        chain.shutdown();
    }

    #[test]
    fn max_block_txs_respected() {
        let chain = fast_chain(NeuchainConfig {
            max_block_txs: 7,
            epoch_interval: Duration::from_millis(100),
            ..NeuchainConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 10_000, 0);
        for i in 0..30 {
            chain
                .submit(signed(
                    i,
                    Op::DepositChecking {
                        account: Address::from_name("a"),
                        amount: 1,
                    },
                ))
                .unwrap();
        }
        chain.clock().sleep_until(Duration::from_secs(1));
        let blocks = chain.blocks(0, 1..=u64::MAX).unwrap();
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [7, 7, 7, 7, 2], "seven an epoch");
        chain.shutdown();
    }

    #[test]
    fn reports_roles_for_fault_targeting() {
        let chain = fast_chain(NeuchainConfig::default());
        assert_eq!(chain.architecture(), Architecture::NonSharded);
        assert_eq!(
            SimChain::ingress_nodes(&*chain),
            vec!["neuchain-client-proxy".to_owned()]
        );
        assert_eq!(
            SimChain::sealer_nodes(&*chain),
            vec!["neuchain-epoch-server".to_owned()]
        );
        chain.shutdown();
    }
}
