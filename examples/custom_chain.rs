//! Plugging a *new* blockchain into Hammer: since the chain-node runtime
//! ("node kernel") owns all the node scaffolding — threads, mempool,
//! fault-gated ingress, sealed-block accounting, gossip — a new backend
//! is ~40 lines of [`ConsensusPolicy`] plus one registry entry, not a
//! full crate. The unmodified driver then evaluates it by name, and the
//! JSON-RPC facade exposes it exactly like the four built-in systems —
//! the paper's extensibility claim in practice.
//!
//! ```text
//! cargo run --release --example custom_chain
//! ```

use std::time::Duration;

use hammer::chain::kernel::{ConsensusPolicy, Kernel, NodeKernelBuilder, Round};
use hammer::chain::rpc_adapter;
use hammer::core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer::core::driver::{EvalConfig, Evaluation};
use hammer::core::machine::ClientMachine;
use hammer::workload::{ControlSequence, WorkloadConfig};

/// A toy chain: a centralised sequencer seals whatever is pooled every
/// few milliseconds (think "instant-finality rollup demo"). Everything
/// not written here — lifecycle, ingress gating, backpressure, obs,
/// commit events — comes from the kernel.
struct InstantPolicy;

impl ConsensusPolicy for InstantPolicy {
    fn chain_name(&self) -> &'static str {
        "instant-chain"
    }

    fn ingress_node(&self, _shard: u32) -> String {
        "sequencer".to_owned()
    }

    fn seal_wait(&self, _shard: u32) -> Duration {
        Duration::from_millis(5)
    }

    fn build_round(&self, kernel: &Kernel, shard: u32) -> Option<Round> {
        let txs = kernel.shard(shard).mempool.drain(10_000);
        if txs.is_empty() {
            return None;
        }
        let mut tx_ids = Vec::with_capacity(txs.len());
        let mut valid = Vec::with_capacity(txs.len());
        let mut state = kernel.shard(shard).state.lock();
        for tx in &txs {
            tx_ids.push(tx.id);
            valid.push(state.apply(&tx.tx.op).is_ok());
        }
        Some(Round {
            proposer: "sequencer".to_owned(),
            tx_ids,
            valid,
            gossip_to: Vec::new(),
            mempool_depth: None,
        })
    }
}

fn main() {
    // One registry entry makes the new chain selectable by name next to
    // the four built-in systems.
    let mut registry = BackendRegistry::builtin();
    registry.register("instant-chain", |_opts, clock, net| {
        let node = NodeKernelBuilder::new(clock.clone(), net.clone())
            .endpoint("sequencer")
            .start(InstantPolicy);
        Deployment::from_chain(node, clock, net)
    });
    println!("registered backends: {:?}\n", registry.names());

    let deployment = registry
        .deploy("instant-chain", &BackendOptions::default(), 500.0)
        .expect("just registered");

    // The generic JSON-RPC facade works unchanged, exactly as a non-Rust
    // SUT would be driven.
    let server = rpc_adapter::serve(deployment.client());
    println!("rpc methods: {:?}\n", server.method_names());

    // The unmodified driver evaluates it like any built-in chain.
    let workload = WorkloadConfig {
        accounts: 200,
        chain_name: "instant-chain".to_owned(),
        ..WorkloadConfig::default()
    };
    let control = ControlSequence::constant(300, 3, Duration::from_secs(1));
    let config = EvalConfig::builder()
        .machine(ClientMachine::unconstrained())
        .build()
        .expect("valid config");
    let report = Evaluation::new(config)
        .run(&deployment, &workload, &control)
        .expect("evaluation");

    println!(
        "{}: {:.0} TPS, {} committed, mean latency {:.3}s",
        report.chain, report.overall_tps, report.committed, report.latency.mean_s
    );
    println!("\nA ~40-line policy + one registry entry, evaluated by the same");
    println!("generic driver that measures Ethereum/Fabric/Neuchain/Meepo.");
}
