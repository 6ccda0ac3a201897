//! A YCSB-style key/value workload generator.
//!
//! Covers the paper's "self-defined workloads" claim with the classic
//! cloud-serving mixes: the read ratio and key distribution come from the
//! same [`WorkloadConfig`] as SmallBank (YCSB-A = 50% reads uniform,
//! YCSB-B = 95% reads zipfian, YCSB-C = 100% reads).

use hammer_chain::smallbank::Op;
use hammer_chain::types::Transaction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{AccessDistribution, WorkloadConfig, WorkloadKind};
use crate::zipf::Zipfian;

/// Generates `KvPut`/`KvGet` transactions from a [`WorkloadConfig`].
#[derive(Debug)]
pub struct YcsbGenerator {
    config: WorkloadConfig,
    zipf: Option<Zipfian>,
    rng: StdRng,
    next_nonce: u64,
}

impl YcsbGenerator {
    /// Builds a generator.
    ///
    /// # Panics
    ///
    /// Panics when the config does not validate or is not a YCSB config.
    pub fn new(config: WorkloadConfig) -> Self {
        config.validate().expect("invalid workload config");
        assert_eq!(
            config.kind,
            WorkloadKind::Ycsb,
            "YcsbGenerator needs a YCSB config"
        );
        let zipf = match config.distribution {
            AccessDistribution::Uniform => None,
            AccessDistribution::Zipfian { theta } => Some(Zipfian::new(config.accounts, theta)),
        };
        let rng = StdRng::seed_from_u64(config.seed);
        YcsbGenerator {
            config,
            zipf,
            rng,
            next_nonce: 0,
        }
    }

    fn pick_key(&mut self) -> u64 {
        let idx = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.config.accounts),
        };
        // Disperse indices so keys don't collide with SmallBank addresses.
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1)
    }

    /// Generates the next operation following the configured read mix.
    pub fn next_op(&mut self) -> Op {
        if self.rng.gen::<f64>() < self.config.read_ratio {
            Op::KvGet {
                key: self.pick_key(),
            }
        } else {
            Op::KvPut {
                key: self.pick_key(),
                value: self.rng.gen(),
            }
        }
    }

    /// Generates the next unsigned transaction.
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

    /// Generates the next at most `max` transactions of the configured
    /// batch (the nonces below `total_txs`; empty once it is complete),
    /// round-robining the configured clients by nonce: however the batch
    /// is cut, it is the same transactions in the same order.
    pub fn next_segment(&mut self, max: usize) -> Vec<Transaction> {
        let left = (self.config.total_txs as u64).saturating_sub(self.next_nonce);
        (0..left.min(max as u64))
            .map(|_| self.next_tx((self.next_nonce as u32) % self.config.clients, 0))
            .collect()
    }

    /// Generates the configured batch.
    pub fn generate_all(&mut self) -> Vec<Transaction> {
        self.next_segment(usize::MAX)
    }

    /// The classic YCSB-A profile (50/50 read/update, uniform keys).
    pub fn workload_a(keys: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            kind: WorkloadKind::Ycsb,
            contract_name: "kv".to_owned(),
            accounts: keys,
            read_ratio: 0.5,
            distribution: AccessDistribution::Uniform,
            seed,
            ..WorkloadConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_a_mix() {
        let mut generator = YcsbGenerator::new(YcsbGenerator::workload_a(100, 1));
        let reads = (0..10_000)
            .filter(|_| matches!(generator.next_op(), Op::KvGet { .. }))
            .count();
        let frac = reads as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let mut generator = YcsbGenerator::new(WorkloadConfig {
            read_ratio: 1.0,
            ..YcsbGenerator::workload_a(100, 1)
        });
        assert!((0..5_000).all(|_| matches!(generator.next_op(), Op::KvGet { .. })));
    }

    #[test]
    fn workload_b_mostly_reads_and_skewed() {
        let mut generator = YcsbGenerator::new(WorkloadConfig {
            read_ratio: 0.95,
            distribution: AccessDistribution::Zipfian { theta: 0.99 },
            ..YcsbGenerator::workload_a(100, 1)
        });
        let mut reads = 0;
        let mut key_counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            match generator.next_op() {
                Op::KvGet { key } => {
                    reads += 1;
                    *key_counts.entry(key).or_insert(0usize) += 1;
                }
                Op::KvPut { key, .. } => {
                    *key_counts.entry(key).or_insert(0usize) += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let frac = reads as f64 / 20_000.0;
        assert!((frac - 0.95).abs() < 0.02, "frac = {frac}");
        let max = key_counts.values().max().copied().unwrap_or(0);
        assert!(max > 20_000 / 100 * 3, "no skew visible (max={max})");
    }

    #[test]
    fn deterministic_generation() {
        let a = YcsbGenerator::new(YcsbGenerator::workload_a(100, 9)).generate_all();
        let b = YcsbGenerator::new(YcsbGenerator::workload_a(100, 9)).generate_all();
        assert_eq!(a, b);
    }

    #[test]
    fn segments_concatenate_to_generate_all() {
        const SEGMENT: usize = 32 * 1024;
        for n in [0, 1, SEGMENT - 1, SEGMENT, 2 * SEGMENT + 129] {
            let config = WorkloadConfig {
                clients: 3,
                total_txs: n,
                ..YcsbGenerator::workload_a(100, 9)
            };
            let whole = YcsbGenerator::new(config.clone()).generate_all();
            assert_eq!(whole.len(), n);
            for size in [7, 128, SEGMENT - 1, SEGMENT, n + 5] {
                let mut generator = YcsbGenerator::new(config.clone());
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
    #[should_panic(expected = "YCSB config")]
    fn rejects_smallbank_config() {
        let _ = YcsbGenerator::new(WorkloadConfig::default());
    }
}
