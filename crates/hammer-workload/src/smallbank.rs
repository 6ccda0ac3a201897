//! The SmallBank transaction generator.
//!
//! §V *Workload*: "SmallBank is employed to simulate a basic banking
//! system ... Its primary operations typically include deposit, withdraw,
//! transfer, and amalgamate. The access patterns of these four operations
//! follow a uniform distribution." When
//! [`crate::config::WorkloadConfig::read_ratio`] is non-zero, balance reads
//! are mixed in.

use hammer_chain::smallbank::Op;
use hammer_chain::types::{Address, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{AccessDistribution, WorkloadConfig, WorkloadKind};
use crate::zipf::Zipfian;

/// Generates SmallBank transactions from a [`WorkloadConfig`].
#[derive(Debug)]
pub struct SmallBankGenerator {
    config: WorkloadConfig,
    accounts: Vec<Address>,
    zipf: Option<Zipfian>,
    rng: StdRng,
    next_nonce: u64,
}

impl SmallBankGenerator {
    /// Builds a generator; the account pool is derived from the seed so
    /// every component (generator, chain seeding, verification) agrees on
    /// the same addresses.
    ///
    /// # Panics
    ///
    /// Panics when the config does not validate or is not a SmallBank
    /// config.
    pub fn new(config: WorkloadConfig) -> Self {
        config.validate().expect("invalid workload config");
        assert_eq!(
            config.kind,
            WorkloadKind::SmallBank,
            "SmallBankGenerator needs a SmallBank config"
        );
        let accounts = Self::account_pool(config.accounts, config.seed);
        let zipf = match config.distribution {
            AccessDistribution::Uniform => None,
            AccessDistribution::Zipfian { theta } => Some(Zipfian::new(config.accounts, theta)),
        };
        let rng = StdRng::seed_from_u64(config.seed);
        SmallBankGenerator {
            config,
            accounts,
            zipf,
            rng,
            next_nonce: 0,
        }
    }

    /// The deterministic account pool for `(count, seed)`.
    pub fn account_pool(count: usize, seed: u64) -> Vec<Address> {
        (0..count)
            .map(|i| Address::from_name(&format!("smallbank-{seed}-{i}")))
            .collect()
    }

    /// The generator's account pool.
    pub fn accounts(&self) -> &[Address] {
        &self.accounts
    }

    fn pick_account(&mut self) -> Address {
        let idx = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.accounts.len()),
        };
        self.accounts[idx]
    }

    fn pick_two_accounts(&mut self) -> (Address, Address) {
        let a = self.pick_account();
        if self.accounts.len() == 1 {
            return (a, a);
        }
        loop {
            let b = self.pick_account();
            if b != a {
                return (a, b);
            }
        }
    }

    /// Generates the next unsigned transaction. `client_id`/`server_id`
    /// are stamped by the driver when it assigns work.
    pub fn next_tx(&mut self, client_id: u32, server_id: u32) -> Transaction {
        let op = self.next_op();
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        Transaction {
            client_id,
            server_id,
            nonce,
            op,
            chain_name: self.config.chain_name.clone(),
            contract_name: self.config.contract_name.clone(),
        }
    }

    /// Generates the next operation following the configured mix.
    pub fn next_op(&mut self) -> Op {
        if self.config.read_ratio > 0.0 && self.rng.gen::<f64>() < self.config.read_ratio {
            return Op::Balance {
                account: self.pick_account(),
            };
        }
        let amount = self.rng.gen_range(1..=100u64);
        // Uniform over the four primary operations (paper §V Workload).
        match self.rng.gen_range(0..4u8) {
            0 => Op::DepositChecking {
                account: self.pick_account(),
                amount,
            },
            1 => Op::WriteCheck {
                account: self.pick_account(),
                amount,
            },
            2 => {
                let (from, to) = self.pick_two_accounts();
                Op::SendPayment { from, to, amount }
            }
            _ => {
                let (from, to) = self.pick_two_accounts();
                Op::Amalgamate { from, to }
            }
        }
    }

    /// Generates the next at most `max` transactions of the configured
    /// batch (the nonces below `total_txs`; empty once it is complete),
    /// round-robining the configured clients/servers by nonce: however the
    /// batch is cut, it is the same transactions in the same order.
    pub fn next_segment(&mut self, max: usize) -> Vec<Transaction> {
        let left = (self.config.total_txs as u64).saturating_sub(self.next_nonce);
        (0..left.min(max as u64))
            .map(|_| {
                let client = (self.next_nonce as u32) % self.config.clients;
                self.next_tx(client, client % self.config.threads_per_client.max(1))
            })
            .collect()
    }

    /// Generates the full batch of `total_txs` transactions.
    pub fn generate_all(&mut self) -> Vec<Transaction> {
        self.next_segment(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(total: usize) -> WorkloadConfig {
        WorkloadConfig {
            accounts: 50,
            total_txs: total,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<Transaction> = SmallBankGenerator::new(config(100)).generate_all();
        let b: Vec<Transaction> = SmallBankGenerator::new(config(100)).generate_all();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = config(100);
        cfg.seed = 1;
        let a = SmallBankGenerator::new(cfg.clone()).generate_all();
        cfg.seed = 2;
        let b = SmallBankGenerator::new(cfg).generate_all();
        assert_ne!(a, b);
    }

    #[test]
    fn nonces_are_unique() {
        let txs = SmallBankGenerator::new(config(500)).generate_all();
        let mut nonces: Vec<u64> = txs.iter().map(|t| t.nonce).collect();
        nonces.sort_unstable();
        nonces.dedup();
        assert_eq!(nonces.len(), 500);
    }

    #[test]
    fn op_mix_roughly_uniform() {
        let mut generator = SmallBankGenerator::new(config(0));
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            match generator.next_op() {
                Op::DepositChecking { .. } => counts[0] += 1,
                Op::WriteCheck { .. } => counts[1] += 1,
                Op::SendPayment { .. } => counts[2] += 1,
                Op::Amalgamate { .. } => counts[3] += 1,
                other => panic!("unexpected op {other:?}"),
            }
        }
        for c in counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
        }
    }

    #[test]
    fn read_ratio_mixes_in_balances() {
        let mut generator = SmallBankGenerator::new(WorkloadConfig {
            read_ratio: 0.5,
            ..config(0)
        });
        let reads = (0..10_000)
            .filter(|_| matches!(generator.next_op(), Op::Balance { .. }))
            .count();
        let frac = reads as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn transfers_use_distinct_accounts() {
        let mut generator = SmallBankGenerator::new(config(0));
        for _ in 0..5_000 {
            if let Op::SendPayment { from, to, .. } = generator.next_op() {
                assert_ne!(from, to);
            }
        }
    }

    #[test]
    fn all_ops_touch_pool_accounts() {
        let mut generator = SmallBankGenerator::new(config(0));
        let pool: std::collections::HashSet<Address> =
            generator.accounts().iter().copied().collect();
        for _ in 0..2_000 {
            for a in generator.next_op().touched_accounts() {
                assert!(pool.contains(&a));
            }
        }
    }

    #[test]
    fn zipfian_skews_account_use() {
        let mut generator = SmallBankGenerator::new(WorkloadConfig {
            distribution: AccessDistribution::Zipfian { theta: 0.99 },
            ..config(0)
        });
        let pool = generator.accounts().to_vec();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            for a in generator.next_op().touched_accounts() {
                *counts.entry(a).or_insert(0usize) += 1;
            }
        }
        let hot = counts.get(&pool[0]).copied().unwrap_or(0);
        let cold = counts.get(&pool[pool.len() - 1]).copied().unwrap_or(0);
        assert!(hot > cold * 3, "hot={hot} cold={cold}");
    }

    #[test]
    fn clients_round_robin() {
        let txs = SmallBankGenerator::new(WorkloadConfig {
            clients: 4,
            ..config(8)
        })
        .generate_all();
        let ids: Vec<u32> = txs.iter().map(|t| t.client_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn segments_concatenate_to_generate_all() {
        const SEGMENT: usize = 32 * 1024;
        for n in [0, 1, SEGMENT - 1, SEGMENT, 2 * SEGMENT + 129] {
            let config = WorkloadConfig {
                clients: 3,
                threads_per_client: 2,
                ..config(n)
            };
            let whole = SmallBankGenerator::new(config.clone()).generate_all();
            assert_eq!(whole.len(), n);
            for size in [7, 128, SEGMENT - 1, SEGMENT, n + 5] {
                let mut generator = SmallBankGenerator::new(config.clone());
                let mut pieces = Vec::new();
                loop {
                    let piece = generator.next_segment(size);
                    if piece.is_empty() {
                        break;
                    }
                    assert!(piece.len() <= size);
                    pieces.extend(piece);
                }
                assert!(pieces == whole, "n = {n}, segments of {size}");
                assert!(generator.next_segment(size).is_empty(), "stays exhausted");
            }
        }
    }

    #[test]
    #[should_panic(expected = "SmallBank config")]
    fn rejects_ycsb_config() {
        let _ = SmallBankGenerator::new(WorkloadConfig {
            kind: WorkloadKind::Ycsb,
            ..WorkloadConfig::default()
        });
    }
}
