//! The `null` backend: a chain that costs as little as the node kernel
//! allows, so what a run measures is the driver.
//!
//! Admission keeps only the transaction id (no signature check, no
//! de-duplication, no body), sealing marks everything valid, and nothing is
//! gossiped. Two knobs pick when the sealer fires: a cadence, and a pooled
//! depth below which it waits (until the pool has been idle for
//! [`IDLE_FLUSH`], so a run's tail still commits).
//!
//! The backends are registered by name on top of
//! [`BackendRegistry::builtin`], and this binary doubles as their node host:
//! started with `--backend … --port …` it serves one of them over loopback
//! TCP exactly like `src/bin/node_host.rs`, which is what lets the
//! multi-process deploy mode run without touching the repo's own bins.

use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hammer_chain::client::ChainError;
use hammer_chain::kernel::{ChainNode, ConsensusPolicy, Kernel, NodeKernelBuilder, Round};
use hammer_chain::types::{SignedTransaction, TxId};
use hammer_core::deploy::{BackendOptions, BackendRegistry, Deployment};
use hammer_net::{FaultPlan, LinkConfig, SimClock, SimNetwork, TcpServerConfig};
use hammer_rpc::json::Value;
use hammer_rpc::jsonrpc::RpcError;

use crate::flag_value;

/// How long a pool below its sealing depth must stay unchanged before it is
/// sealed anyway.
const IDLE_FLUSH: Duration = Duration::from_millis(50);

/// The one endpoint a null chain registers (ingress and sealer).
const NODE: &str = "null-node-0";

/// When a null chain seals.
#[derive(Clone, Copy, Debug)]
pub struct NullConfig {
    /// Registry and display name.
    pub name: &'static str,
    /// Sealer cadence.
    pub seal_every: Duration,
    /// Pooled transactions the sealer waits for (1 = seal whatever is
    /// pooled on every tick).
    pub min_depth: usize,
}

/// Seals on a 5 ms cadence: thousands of small blocks.
pub const NULL_5MS: NullConfig = NullConfig {
    name: "null-5ms",
    seal_every: Duration::from_millis(5),
    min_depth: 1,
};

/// Seals on a 2 ms cadence: the low-latency chain under the paced workload.
pub const NULL_2MS: NullConfig = NullConfig {
    name: "null-2ms",
    seal_every: Duration::from_millis(2),
    min_depth: 1,
};

/// Sealing depth of the `null-deep` backend at full size.
pub const DEEP_DEPTH: usize = 500_000;

/// Seals only once `depth` transactions are pooled: a few huge blocks.
pub fn null_deep(depth: usize) -> NullConfig {
    NullConfig {
        name: "null-deep",
        seal_every: Duration::from_millis(5),
        min_depth: depth,
    }
}

/// Admitted, unsealed transactions.
struct Pool {
    ids: Vec<TxId>,
    /// Size last seen below the sealing depth, and since when.
    idle_len: usize,
    idle_since: Instant,
}

/// The policy behind every null backend.
pub struct NullPolicy {
    config: NullConfig,
    pool: Mutex<Pool>,
}

impl NullPolicy {
    pub fn new(config: NullConfig) -> Self {
        NullPolicy {
            config,
            pool: Mutex::new(Pool {
                ids: Vec::new(),
                idle_len: 0,
                idle_since: Instant::now(),
            }),
        }
    }
}

impl ConsensusPolicy for NullPolicy {
    fn chain_name(&self) -> &'static str {
        self.config.name
    }

    fn ingress_node(&self, _shard: u32) -> String {
        NODE.to_owned()
    }

    fn admit(
        &self,
        _kernel: &Kernel,
        _shard: u32,
        tx: SignedTransaction,
    ) -> Result<TxId, ChainError> {
        self.pool.lock().expect("pool lock").ids.push(tx.id);
        Ok(tx.id)
    }

    fn pending(&self, _kernel: &Kernel) -> usize {
        self.pool.lock().expect("pool lock").ids.len()
    }

    fn seal_wait(&self, _shard: u32) -> Duration {
        self.config.seal_every
    }

    fn build_round(&self, _kernel: &Kernel, _shard: u32) -> Option<Round> {
        let mut pool = self.pool.lock().expect("pool lock");
        let len = pool.ids.len();
        if len == 0 {
            return None;
        }
        if len < self.config.min_depth {
            if pool.idle_len != len {
                pool.idle_len = len;
                pool.idle_since = Instant::now();
                return None;
            }
            if pool.idle_since.elapsed() < IDLE_FLUSH {
                return None;
            }
        }
        let tx_ids = std::mem::take(&mut pool.ids);
        drop(pool);
        Some(round_of(tx_ids))
    }
}

/// A block of `tx_ids`, all valid, gossiped to nobody.
pub fn round_of(tx_ids: Vec<TxId>) -> Round {
    Round {
        proposer: NODE.to_owned(),
        valid: vec![true; tx_ids.len()],
        tx_ids,
        gossip_to: Vec::new(),
        mempool_depth: Some(0),
    }
}

/// Starts a null chain on `clock`/`net`. The endpoint has no sink thread:
/// nothing is ever gossiped to it, and a sink would only add its 100 ms
/// receive timeout to every teardown.
pub fn start(config: NullConfig, clock: SimClock, net: SimNetwork) -> Arc<ChainNode<NullPolicy>> {
    NodeKernelBuilder::new(clock, net)
        .endpoint(NODE)
        .start(NullPolicy::new(config))
}

/// The built-in registry plus the null backends. `deep_depth` is the
/// sealing depth of `null-deep` (the smoke run shrinks it with the load).
pub fn registry(deep_depth: usize) -> BackendRegistry {
    let mut registry = BackendRegistry::builtin();
    for config in [NULL_5MS, NULL_2MS, null_deep(deep_depth)] {
        registry.register(config.name, move |_opts, clock, net| {
            Deployment::from_chain(start(config, clock.clone(), net.clone()), clock, net)
        });
    }
    registry
}

/// The node-host command line, as `Supervisor::spawn_process` writes it.
#[derive(Debug)]
pub struct HostArgs {
    pub backend: String,
    pub port: u16,
    pub speedup: f64,
    pub epoch_offset: Duration,
    pub options: BackendOptions,
}

/// Parses node-host flags (everything after the program name).
pub fn parse_host_args(args: &[String]) -> Result<HostArgs, String> {
    let mut parsed = HostArgs {
        backend: String::new(),
        port: 0,
        speedup: 1000.0,
        epoch_offset: Duration::ZERO,
        options: BackendOptions::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--backend" => parsed.backend = flag_value(flag, it.next())?,
            "--port" => parsed.port = flag_value(flag, it.next())?,
            "--speedup" => parsed.speedup = flag_value(flag, it.next())?,
            "--epoch-offset-ms" => {
                parsed.epoch_offset = Duration::from_millis(flag_value(flag, it.next())?)
            }
            "--mempool-capacity" => {
                parsed.options.mempool_capacity = Some(flag_value(flag, it.next())?)
            }
            "--stall-sealing" => parsed.options.stall_sealing = true,
            other => return Err(format!("unknown node-host flag {other:?}")),
        }
    }
    if parsed.backend.is_empty() {
        return Err("--backend is required".to_owned());
    }
    if !(parsed.speedup.is_finite() && parsed.speedup > 0.0) {
        return Err(format!(
            "--speedup must be positive, got {}",
            parsed.speedup
        ));
    }
    Ok(parsed)
}

/// Serves one backend over loopback TCP until stdin closes: the node side
/// of the multi-process deploy mode (handshake line, `install_faults`,
/// orphan guard — the contract of `src/bin/node_host.rs`).
pub fn serve_node(args: HostArgs) -> ExitCode {
    let clock = SimClock::with_speedup_from(args.speedup, args.epoch_offset);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let deployment =
        match registry(DEEP_DEPTH).deploy_on(&args.backend, &args.options, clock, net.clone()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("driver_e2e node host: {e}");
                return ExitCode::from(2);
            }
        };
    let rpc = hammer_chain::rpc_adapter::serve_sim(Arc::clone(deployment.chain()));
    let fault_net = net.clone();
    rpc.register("install_faults", move |params| {
        let plan = FaultPlan::from_value(&params).map_err(RpcError::invalid_params)?;
        fault_net
            .try_install_faults(plan)
            .map_err(|e| RpcError::invalid_params(e.to_string()))?;
        Ok(Value::object([("ok", Value::from(true))]))
    });
    let addr = format!("127.0.0.1:{}", args.port);
    let server = match hammer_chain::rpc_adapter::serve_tcp(rpc, &addr, TcpServerConfig::default())
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("driver_e2e node host: bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("LISTENING {}", server.local_addr().port());
    let _ = std::io::stdout().flush();

    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin().lock();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    deployment.down();
    server.shutdown_and_join();
    net.shutdown_and_join();
    ExitCode::SUCCESS
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hammer_chain::client::BlockchainClient;
    use hammer_chain::kernel::SimChain;
    use hammer_chain::smallbank::Op;
    use hammer_chain::types::Transaction;
    use hammer_crypto::sig::SigParams;
    use hammer_crypto::Keypair;
    use std::collections::HashSet;

    pub(crate) fn signed(nonce: u64) -> SignedTransaction {
        Transaction {
            client_id: 0,
            server_id: 0,
            nonce,
            op: Op::KvPut {
                key: nonce,
                value: nonce,
            },
            chain_name: "null".to_owned(),
            contract_name: "kv".to_owned(),
        }
        .sign(&Keypair::from_seed(1), &SigParams::fast())
    }

    /// Submits `n` transactions and returns the ids of every sealed block
    /// once all of them have committed.
    fn sealed_ids(config: NullConfig, n: u64) -> (HashSet<TxId>, Vec<usize>) {
        let clock = SimClock::with_speedup(1.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let node = start(config, clock, net.clone());
        let submitted: HashSet<TxId> = (0..n)
            .map(|nonce| node.submit(signed(nonce)).expect("null admits everything"))
            .collect();
        assert_eq!(submitted.len() as u64, n);
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.stats().committed < n {
            assert!(Instant::now() < deadline, "sealed {:?}", node.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(node.pending_txs().unwrap(), 0);
        assert_eq!(node.stats().failed, 0);
        node.verify_ledgers()
            .expect("hash chain and Merkle roots hold");
        let mut sealed = HashSet::new();
        let mut sizes = Vec::new();
        for height in 1..=node.latest_height(0).unwrap() {
            let block = node.block_at(0, height).unwrap().expect("sealed block");
            assert!(block.valid.iter().all(|v| *v));
            sizes.push(block.len());
            for id in &block.tx_ids {
                assert!(sealed.insert(*id), "transaction sealed twice");
            }
        }
        assert_eq!(sealed, submitted);
        node.shutdown_and_join();
        net.shutdown_and_join();
        (sealed, sizes)
    }

    #[test]
    fn cadence_policy_seals_exactly_what_was_admitted() {
        let (sealed, _) = sealed_ids(NULL_2MS, 500);
        assert_eq!(sealed.len(), 500);
    }

    #[test]
    fn deep_policy_waits_for_its_depth_then_flushes_the_idle_tail() {
        // 250 pooled against a depth of 100: the first tick that sees at
        // least 100 seals them all at once; nothing is left for a tail.
        let (_, sizes) = sealed_ids(null_deep(100), 250);
        assert!(sizes.iter().all(|n| *n > 0));
        assert_eq!(sizes.iter().sum::<usize>(), 250);
        // 40 pooled against a depth of 100 never reach it: only the idle
        // flush can have sealed them, in one block.
        let (_, sizes) = sealed_ids(null_deep(100), 40);
        assert_eq!(sizes, vec![40]);
    }

    #[test]
    fn node_host_parser_accepts_every_flag_the_supervisor_emits() {
        // `SupervisorShared::spawn_process`, with both optional flags.
        let argv: Vec<String> = [
            "--backend",
            "null-5ms",
            "--port",
            "40123",
            "--speedup",
            "1",
            "--epoch-offset-ms",
            "1500",
            "--mempool-capacity",
            "64",
            "--stall-sealing",
        ]
        .map(str::to_owned)
        .to_vec();
        let args = parse_host_args(&argv).unwrap();
        assert_eq!(args.backend, "null-5ms");
        assert_eq!(args.port, 40123);
        assert_eq!(args.speedup, 1.0);
        assert_eq!(args.epoch_offset, Duration::from_millis(1500));
        assert_eq!(args.options.mempool_capacity, Some(64));
        assert!(args.options.stall_sealing);
        // `f64::to_string` of the speed-ups the repo uses.
        for speedup in ["1000", "0.5", "250.25"] {
            let argv = ["--backend", "x", "--speedup", speedup].map(str::to_owned);
            assert!(parse_host_args(&argv).is_ok(), "{speedup}");
        }
    }

    #[test]
    fn node_host_parser_rejects_what_it_does_not_know() {
        let parse = |argv: &[&str]| {
            parse_host_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(parse(&[]).is_err(), "backend is required");
        assert!(parse(&["--backend"]).is_err());
        assert!(parse(&["--backend", "x", "--port", "70000"]).is_err());
        assert!(parse(&["--backend", "x", "--speedup", "0"]).is_err());
        assert!(parse(&["--backend", "x", "--frobnicate"]).is_err());
    }

    #[test]
    fn registry_serves_the_null_backends_beside_the_builtin_ones() {
        let registry = registry(10);
        for name in [NULL_5MS.name, NULL_2MS.name, "null-deep", "neuchain-sim"] {
            assert!(registry.names().contains(&name), "{name}");
        }
    }
}
