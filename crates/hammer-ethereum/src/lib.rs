//! A Proof-of-Work (Ethereum-style) blockchain simulator.
//!
//! Reproduces the performance-relevant mechanics of a pre-merge Ethereum
//! network, which is the low-throughput / high-latency extreme of the
//! paper's Fig. 6:
//!
//! * **PoW mining** — blocks are produced at exponentially distributed
//!   intervals (mean [`EthereumConfig::block_interval`], the classic 15 s)
//!   by a seeded proposer. No hash work is done: mining costs simulated
//!   time only.
//! * **Gas-limited blocks** — each block packs transactions until
//!   [`EthereumConfig::block_gas_limit`] is reached, capping throughput at
//!   roughly `gas_limit / tx_gas / interval` TPS (~19 TPS with defaults,
//!   matching the paper's 18.6).
//! * **Order-execute** — transactions execute in block order against the
//!   world state; failed executions are included with `valid = false`
//!   (they still consumed gas).
//!
//! Node scaffolding (the chain's loop, ingress gating, sealing,
//! observability) comes from the [`hammer_chain::kernel`]; this crate only
//! contributes the PoW [`ConsensusPolicy`], whose execution cost is a
//! `round_cost`, and [`start`] returns the running [`ChainNode`] itself.
//!
//! ```no_run
//! use hammer_chain::client::BlockchainClient;
//! use hammer_ethereum::EthereumConfig;
//! use hammer_net::{LinkConfig, SimClock, SimNetwork};
//!
//! let clock = SimClock::with_speedup(100.0);
//! let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
//! let chain = hammer_ethereum::start(EthereumConfig::default(), clock, net);
//! // ... submit transactions through the BlockchainClient trait ...
//! chain.shutdown();
//! ```

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use hammer_chain::kernel::{ChainNode, ConsensusPolicy, Kernel, NodeKernelBuilder, Round};
use hammer_crypto::sig::SigParams;
use hammer_net::{SimClock, SimNetwork};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the simulated PoW chain.
#[derive(Clone, Debug)]
pub struct EthereumConfig {
    /// Number of worker nodes (the paper deploys 5).
    pub nodes: usize,
    /// Mean block interval in simulated time (PoW => exponential).
    pub block_interval: Duration,
    /// Gas limit per block.
    pub block_gas_limit: u64,
    /// Gas consumed per transaction (21 000 for a simple transfer).
    pub tx_gas: u64,
    /// Mempool capacity (pending transaction pool).
    pub mempool_capacity: usize,
    /// Signature scheme parameters (must match the submitting clients).
    pub sig_params: SigParams,
    /// Simulated EVM execution cost per transaction.
    pub exec_cost_per_tx: Duration,
    /// RNG seed for block-interval sampling and proposer choice.
    pub seed: u64,
}

impl Default for EthereumConfig {
    fn default() -> Self {
        EthereumConfig {
            nodes: 5,
            block_interval: Duration::from_secs(15),
            block_gas_limit: 6_000_000,
            tx_gas: 21_000,
            mempool_capacity: 20_000,
            sig_params: SigParams::fast(),
            exec_cost_per_tx: Duration::from_micros(300),
            seed: 7,
        }
    }
}

impl EthereumConfig {
    /// Maximum transactions per block under the gas limit.
    pub(crate) fn max_txs_per_block(&self) -> usize {
        (self.block_gas_limit / self.tx_gas.max(1)) as usize
    }
}

fn node_name(i: usize) -> String {
    format!("eth-node-{i}")
}

/// The PoW consensus core: exponential block intervals, a seeded
/// proposer, gas-capped packing, and order-execute semantics.
pub struct EthereumPolicy {
    config: EthereumConfig,
    rng: Mutex<StdRng>,
}

impl ConsensusPolicy for EthereumPolicy {
    fn chain_name(&self) -> &'static str {
        "ethereum-sim"
    }

    fn ingress_node(&self, _shard: u32) -> String {
        node_name(0)
    }

    fn seal_wait(&self, _shard: u32) -> Duration {
        // Exponential inter-block time (PoW is memoryless).
        let mean = self.config.block_interval.as_secs_f64();
        Duration::from_secs_f64(sample_exponential(&mut *self.rng.lock(), mean))
    }

    fn build_round(&self, kernel: &Kernel, shard: u32) -> Option<Round> {
        // 32 bytes are drawn and dropped before the proposer: Fig. 6,
        // `cross_chain`'s `committed == 120` and the two pinned red corpus
        // cells read the seeded interval and proposer sequence this order
        // gives, and skipping the draw would shift it.
        let proposer_idx = {
            let mut rng = self.rng.lock();
            rng.fill(&mut [0u8; 32]);
            rng.gen_range(0..self.config.nodes)
        };

        // Pack the block under the gas limit.
        let ctx = kernel.shard(shard);
        let mut txs = ctx.mempool.drain(self.config.max_txs_per_block());
        // Verify the whole candidate set in one batch before touching the
        // state lock: repeated sender keys share a precomputed table, and
        // the lock is never held across signature checks.
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

        // PoW seals empty blocks too.
        Some(Round {
            proposer: node_name(proposer_idx),
            tx_ids,
            valid,
            gossip_to: Vec::new(),
            mempool_depth: None,
        })
    }

    /// Aggregate EVM execution time.
    fn round_cost(&self, _shard: u32, txs: usize) -> Duration {
        self.config.exec_cost_per_tx * txs as u32
    }
}

/// Starts the chain on the kernel runtime: registers node endpoints
/// and starts the chain's loop, which mines.
pub fn start(
    config: EthereumConfig,
    clock: SimClock,
    net: SimNetwork,
) -> Arc<ChainNode<EthereumPolicy>> {
    assert!(config.nodes >= 1, "need at least one node");
    let mut builder = NodeKernelBuilder::new(clock, net).mempool_capacity(config.mempool_capacity);
    for i in 0..config.nodes {
        builder = builder.endpoint(&node_name(i));
    }
    let rng = Mutex::new(StdRng::seed_from_u64(config.seed));
    builder.start(EthereumPolicy { config, rng })
}

/// Samples an exponential distribution with the given mean.
fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_chain::client::BlockchainClient;
    use hammer_chain::kernel::SimChain;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::{Address, SignedTransaction, Transaction, TxId};
    use hammer_crypto::Keypair;
    use hammer_net::LinkConfig;

    /// The chain on a virtual clock: it mines while the test waits on it.
    fn fast_chain(config: EthereumConfig) -> (Arc<ChainNode<EthereumPolicy>>, SimClock) {
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        (start(config, clock.clone(), net), clock)
    }

    fn signed(nonce: u64, op: Op) -> SignedTransaction {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op,
            chain_name: "ethereum-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
        .sign(&Keypair::from_seed(1), &SigParams::fast())
    }

    /// The `(id, valid)` entries of the first block, which holds one
    /// transaction, slept past: it is sealed at the seeded sampler's first
    /// draw (the loop asks at zero) plus one transaction's execution.
    fn first_block(chain: &ChainNode<EthereumPolicy>) -> Vec<(TxId, bool)> {
        let config = &chain.policy().config;
        let mean = config.block_interval.as_secs_f64();
        let first = sample_exponential(&mut StdRng::seed_from_u64(config.seed), mean);
        let sealed = Duration::from_secs_f64(first) + config.exec_cost_per_tx;
        chain.clock().sleep_until(sealed + Duration::from_millis(1));
        let block = chain.block_at(0, 1).unwrap().expect("the first block");
        assert_eq!(block.header.timestamp, sealed);
        block.entries().collect()
    }

    #[test]
    fn mines_blocks_and_commits_txs() {
        let (chain, _clock) = fast_chain(EthereumConfig {
            block_interval: Duration::from_secs(2),
            ..EthereumConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 1000, 0);
        let id = chain
            .submit(signed(
                1,
                Op::DepositChecking {
                    account: Address::from_name("a"),
                    amount: 5,
                },
            ))
            .unwrap();
        assert_eq!(first_block(&chain), [(id, true)]);
        assert_eq!(
            chain.account(Address::from_name("a")).unwrap().checking,
            1005
        );
        chain.shutdown();
    }

    #[test]
    fn failed_execution_included_invalid() {
        let (chain, _clock) = fast_chain(EthereumConfig {
            block_interval: Duration::from_secs(1),
            ..EthereumConfig::default()
        });
        // Withdraw from a non-existent account fails execution.
        let id = chain
            .submit(signed(
                1,
                Op::WriteCheck {
                    account: Address::from_name("ghost"),
                    amount: 5,
                },
            ))
            .unwrap();
        assert_eq!(first_block(&chain), [(id, false)]);
        assert_eq!(chain.stats().failed, 1);
        chain.shutdown();
    }

    #[test]
    fn a_read_only_call_is_sealed_as_valid() {
        let (chain, _clock) = fast_chain(EthereumConfig {
            block_interval: Duration::from_secs(1),
            ..EthereumConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 100, 0);
        let id = chain
            .submit(signed(
                1,
                Op::Balance {
                    account: Address::from_name("a"),
                },
            ))
            .unwrap();
        assert_eq!(first_block(&chain), [(id, true)]);
        chain.shutdown();
    }

    #[test]
    fn gas_limit_caps_block_size() {
        let (chain, clock) = fast_chain(EthereumConfig {
            block_interval: Duration::from_secs(2),
            block_gas_limit: 210_000, // 10 txs max
            ..EthereumConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 1_000_000, 0);
        for i in 0..25 {
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
        // A minute is thirty mean intervals: the pool drains ten at a time,
        // and PoW seals empty blocks after.
        clock.sleep(Duration::from_secs(60));
        let blocks = chain.blocks(0, 1..=u64::MAX).unwrap();
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        assert_eq!(sizes[..4], [10, 10, 5, 0]);
        chain.shutdown();
    }

    #[test]
    fn rejects_wrong_shard() {
        let (chain, _clock) = fast_chain(EthereumConfig::default());
        assert_eq!(chain.latest_height(1).unwrap_err().shard(), Some(1));
        assert_eq!(chain.block_at(2, 1).unwrap_err().shard(), Some(2));
        chain.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (chain, _clock) = fast_chain(EthereumConfig::default());
        chain.shutdown();
        let err = chain.submit(signed(1, Op::KvGet { key: 1 })).unwrap_err();
        assert!(err.is_shutdown());
        assert!(!err.is_retryable());
    }

    #[test]
    fn duplicate_submission_rejected() {
        let (chain, _clock) = fast_chain(EthereumConfig {
            block_interval: Duration::from_secs(600), // effectively never mine
            ..EthereumConfig::default()
        });
        let tx = signed(1, Op::KvGet { key: 1 });
        chain.submit(tx.clone()).unwrap();
        let err = chain.submit(tx).unwrap_err();
        assert!(err.rejection().is_some());
        assert!(!err.is_retryable(), "duplicates must not be retried");
    }

    #[test]
    fn blackholed_node_times_out_ingress() {
        use hammer_chain::client::ErrorKind;
        use hammer_net::FaultPlan;
        let (chain, _clock) = fast_chain(EthereumConfig::default());
        chain.net().install_faults(FaultPlan::new().blackhole(
            "eth-node-0",
            Duration::ZERO,
            Duration::from_secs(3600),
        ));
        let err = chain.submit(signed(1, Op::KvGet { key: 1 })).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Transient);
        assert!(err.is_retryable());
        chain.shutdown();
    }

    #[test]
    fn ledger_chain_verifies() {
        let (chain, clock) = fast_chain(EthereumConfig {
            block_interval: Duration::from_millis(500),
            ..EthereumConfig::default()
        });
        chain.seed_account(Address::from_name("a"), 1000, 0);
        for i in 0..10 {
            let _ = chain.submit(signed(
                i,
                Op::DepositChecking {
                    account: Address::from_name("a"),
                    amount: 1,
                },
            ));
        }
        clock.sleep(Duration::from_secs(10)); // twenty mean intervals
        chain.shutdown();
        assert_eq!(chain.stats().committed, 10);
        chain.verify_ledgers().unwrap();
    }

    /// The default seed's first twenty blocks on a virtual clock, as
    /// (timestamp in ns, proposer index). Fig. 6, `cross_chain`'s Ethereum
    /// count and the corpus cells read this sequence: each round draws its
    /// interval, then 32 nonce bytes, then the proposer, and a change to
    /// those draws moves every one of them.
    #[test]
    fn the_default_seed_seals_a_pinned_sequence() {
        const PINNED: [(u128, usize); 20] = [
            (29642241645, 1),
            (44028576911, 2),
            (55896833744, 3),
            (57436543092, 0),
            (61425321094, 1),
            (67464809032, 0),
            (75355768941, 4),
            (108037339152, 1),
            (117891650358, 3),
            (123162381663, 0),
            (131729367712, 4),
            (136350360891, 3),
            (148574270764, 4),
            (150339715390, 0),
            (160046802126, 1),
            (162835957188, 4),
            (174746827929, 1),
            (179276778600, 0),
            (185042941860, 4),
            (191913361556, 1),
        ];
        let (chain, clock) = fast_chain(EthereumConfig::default());
        clock.sleep(Duration::from_secs(600));
        chain.shutdown();
        let sealed: Vec<(u128, usize)> = chain
            .blocks(0, 1..=20)
            .unwrap()
            .iter()
            .map(|b| {
                let author = b.header.proposer.strip_prefix("eth-node-").unwrap();
                (b.header.timestamp.as_nanos(), author.parse().unwrap())
            })
            .collect();
        assert_eq!(sealed, PINNED, "{sealed:?}");
    }

    #[test]
    fn exponential_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| sample_exponential(&mut rng, 3.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean = {mean}");
    }
}
