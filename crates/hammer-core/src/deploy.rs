//! One-call SUT deployment (the paper's Ansible role, §III-A1) and the
//! backend registry.
//!
//! "We utilize the Ansible component to develop automated deployment
//! scripts, simplifying the deployment and configuration processes of the
//! blockchain environment. Currently, automated deployment scripts are
//! available for four typical blockchain systems." — the
//! [`BackendRegistry`] is the programmatic equivalent, and the one way to
//! deploy: backends are selected *by name* (from config files, CLI flags,
//! or conformance sweeps), so the driver, `multi`, and the bench binaries
//! never hard-code a constructor. [`BackendRegistry::deploy`] builds the
//! simulated cluster (a virtual clock, network, nodes) and hands back a
//! [`Deployment`] with a ready [`BlockchainClient`]. A chain with a
//! non-default configuration, or a new backend, is one
//! [`BackendRegistry::register`] call with a builder closure over
//! [`Deployment::from_chain`] — see `DESIGN.md` §5.

use std::collections::VecDeque;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use hammer_chain::client::BlockchainClient;
use hammer_chain::kernel::SimChain;
use hammer_chain::remote::RemoteChain;
use hammer_chain::rpc_adapter;
use hammer_chain::types::Address;
use hammer_ethereum::EthereumConfig;
use hammer_fabric::FabricConfig;
use hammer_meepo::MeepoConfig;
use hammer_net::{
    thread, FaultPlan, LinkConfig, ReconnectPolicy, SimClock, SimNetwork, TcpClientConfig,
    TcpRpcClient,
};
use hammer_neuchain::NeuchainConfig;
use parking_lot::Mutex;

use crate::retry::RetryPolicy;

/// Backend-agnostic knobs a registry builder applies to whatever config
/// the chain uses internally (conformance suites tighten capacity and
/// stall sealing without knowing any chain's config type).
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendOptions {
    /// Overrides the ingress capacity (mempool / endorsement inbox).
    pub mempool_capacity: Option<usize>,
    /// Makes block production effectively never happen (hour-long
    /// intervals), so pooled transactions stay pooled — used to drive a
    /// bounded ingress to overflow deterministically.
    pub stall_sealing: bool,
}

/// How a registered backend is constructed: from the generic options plus
/// the shared clock and network.
pub(crate) type BackendBuilder =
    Box<dyn Fn(&BackendOptions, SimClock, SimNetwork) -> Deployment + Send + Sync>;

/// The name was not registered.
#[derive(Debug)]
pub struct UnknownBackend {
    /// The name that failed to resolve.
    pub name: String,
    /// Every registered name, for the error message.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?} (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// How the system under test is deployed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeployMode {
    /// Every chain node runs inside the driver process on the simulated
    /// network (the default; byte-identical with the pre-distributed
    /// framework).
    #[default]
    InProcess,
    /// The chain runs as its own `node-host` OS process behind real TCP;
    /// a [`Supervisor`] owns its lifecycle and realises crash-fault
    /// windows as SIGKILL + restart.
    MultiProcess,
}

impl DeployMode {
    /// Parses the spec/CLI spelling (`in_process` / `multi_process`,
    /// `in` / `multi` accepted as shorthand).
    pub fn parse(s: &str) -> Option<DeployMode> {
        match s {
            "in_process" | "in" => Some(DeployMode::InProcess),
            "multi_process" | "multi" => Some(DeployMode::MultiProcess),
            _ => None,
        }
    }

    /// The canonical spec spelling.
    pub fn name(&self) -> &'static str {
        match self {
            DeployMode::InProcess => "in_process",
            DeployMode::MultiProcess => "multi_process",
        }
    }
}

/// Why a deployment failed: the name is unknown, or (multi-process only)
/// the node process could not be spawned / never became healthy.
#[derive(Debug)]
pub enum DeployError {
    /// The backend name is not registered.
    Unknown(UnknownBackend),
    /// Spawning the node process, or its handshake or first call, failed.
    Spawn(String),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Unknown(e) => e.fmt(f),
            DeployError::Spawn(msg) => write!(f, "node process: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<UnknownBackend> for DeployError {
    fn from(e: UnknownBackend) -> Self {
        DeployError::Unknown(e)
    }
}

/// Where the node-process [`Supervisor`] finds its binary.
#[derive(Clone, Debug, Default)]
pub struct SupervisorConfig {
    /// Explicit path to the `node-host` binary. `None` resolves via the
    /// `HAMMER_NODE_HOST` environment variable, then next to the current
    /// executable (and its parent directory, covering test binaries in
    /// `target/<profile>/deps/`).
    pub node_host: Option<PathBuf>,
}

/// How long a spawned node has to print its `LISTENING <port>` line.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Wall-time back-off after a failed respawn, doubling per consecutive
/// failure up to `MAX_RESTART_BACKOFF`.
const RESTART_BACKOFF: Duration = Duration::from_millis(50);
const MAX_RESTART_BACKOFF: Duration = Duration::from_secs(1);

/// Finds the `node-host` binary per [`SupervisorConfig::node_host`].
fn resolve_node_host(explicit: Option<&PathBuf>) -> Result<PathBuf, DeployError> {
    if let Some(path) = explicit {
        return Ok(path.clone());
    }
    if let Some(env) = std::env::var_os("HAMMER_NODE_HOST") {
        return Ok(PathBuf::from(env));
    }
    let exe = std::env::current_exe()
        .map_err(|e| DeployError::Spawn(format!("cannot locate current executable: {e}")))?;
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join("node-host");
        if candidate.is_file() {
            return Ok(candidate);
        }
        // Test binaries live in target/<profile>/deps/; the bin is one
        // level up. Stop at the target dir.
        if d.file_name().is_some_and(|n| n == "target") {
            break;
        }
        dir = d.parent();
    }
    Err(DeployError::Spawn(
        "cannot find the node-host binary: set HAMMER_NODE_HOST or build it \
         (cargo build --bin node-host)"
            .to_owned(),
    ))
}

/// Lifecycle stats for one supervised node process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessFaultStats {
    /// SIGKILLs delivered for crash-fault windows.
    pub kills: u64,
    /// Successful restarts (crash-window exits and unexpected deaths).
    pub restarts: u64,
}

/// A `node-host` command line but for the per-incarnation port and epoch.
struct NodeCommand {
    binary: PathBuf,
    backend: String,
    options: BackendOptions,
    clock: SimClock,
}

impl NodeCommand {
    /// Spawns incarnation `id` on `port` (0: a free one) and returns it with
    /// the port its `LISTENING <port>` line announced — the host prints it
    /// once its RPC server is bound and every handler registered.
    fn spawn(
        &self,
        id: u64,
        port: u16,
        events: &Sender<Event>,
    ) -> Result<(Incarnation, u16), DeployError> {
        let mut cmd = Command::new(&self.binary);
        cmd.arg("--backend")
            .arg(&self.backend)
            .arg("--port")
            .arg(port.to_string())
            .arg("--speedup")
            .arg(self.clock.speedup().to_string())
            .arg("--epoch-offset-ms")
            .arg(self.clock.now().as_millis().to_string());
        if let Some(capacity) = self.options.mempool_capacity {
            cmd.arg("--mempool-capacity").arg(capacity.to_string());
        }
        if self.options.stall_sealing {
            cmd.arg("--stall-sealing");
        }
        // stdin stays piped so our death closes it and the node exits (its
        // orphan guard); stdout carries the handshake, then EOF at exit.
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| DeployError::Spawn(format!("spawn {:?}: {e}", self.binary)))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (hello_tx, hello) = crossbeam::channel::bounded(1);
        let exited = events.clone();
        let reader = thread::spawn("node-host-stdout", move || {
            let mut stdout = std::io::BufReader::new(stdout);
            let mut line = String::new();
            let _ = stdout.read_line(&mut line);
            let _ = hello_tx.send(line);
            // The host prints nothing more: EOF is its exit.
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
            let _ = exited.send(Event::Exited(id));
        })
        .expect("failed to spawn the node-host stdout reader");
        let node = Incarnation {
            id,
            child,
            reader: Some(reader),
        };
        let line = hello.recv_timeout(HANDSHAKE_TIMEOUT).unwrap_or_default();
        // A node that never became ready is dropped: killed and reaped.
        let port = parse_listening(&line).map_err(DeployError::Spawn)?;
        Ok((node, port))
    }
}

/// The port of a `LISTENING <port>` line; anything else is an error naming it.
fn parse_listening(line: &str) -> Result<u16, String> {
    let port = line.strip_suffix('\n').unwrap_or(line);
    let port = port.strip_prefix("LISTENING ").and_then(|p| p.parse().ok());
    port.ok_or_else(|| {
        format!("no LISTENING <port> handshake within {HANDSHAKE_TIMEOUT:?}: got {line:?}")
    })
}

/// One `node-host` process and the thread reading its stdout to EOF.
/// Dropping it SIGKILLs the process (a no-op once it has exited), reaps it
/// and joins the reader — on every path, unwinding included.
struct Incarnation {
    id: u64,
    child: Child,
    reader: Option<thread::JoinHandle<()>>,
}

impl Drop for Incarnation {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// What the supervision loop wakes for, besides a deadline.
enum Event {
    /// Incarnation `n`'s stdout reached EOF: the process is gone.
    Exited(u64),
    /// A plan was installed: the union of its crash windows.
    Windows(Vec<(Duration, Duration)>),
    /// `shutdown`: end the node and return.
    Stop,
}

struct SupervisorShared {
    command: NodeCommand,
    addr: SocketAddr,
    /// The loop's inbox, for readers, `install_plan` and `shutdown`.
    events: Sender<Event>,
    /// Genesis allocations to replay into a fresh process incarnation.
    seeds: Mutex<Vec<(Address, u64, u64)>>,
    plan: Mutex<Option<FaultPlan>>,
    rpc: TcpRpcClient,
    alive: AtomicBool,
    kills: AtomicU64,
    restarts: AtomicU64,
}

impl SupervisorShared {
    /// Spawns incarnation `id` on the node's port and replays the recorded
    /// genesis seeds and fault plan into it.
    fn respawn(&self, id: u64) -> Result<Incarnation, DeployError> {
        let (node, _) = self.command.spawn(id, self.addr.port(), &self.events)?;
        let seeds = self.seeds.lock().clone();
        for seed in seeds {
            let seeded = rpc_adapter::SEED_ACCOUNT.call(&self.rpc, &seed);
            seeded.map_err(|e| DeployError::Spawn(format!("replay seed: {e}")))?;
        }
        let plan = self.plan.lock().clone();
        plan.map_or(Ok(()), |plan| self.install_faults(&plan))?;
        Ok(node)
    }

    fn install_faults(&self, plan: &FaultPlan) -> Result<(), DeployError> {
        let installed = rpc_adapter::INSTALL_FAULTS.call(&self.rpc, plan);
        installed.map_err(|e| DeployError::Spawn(format!("forward fault plan: {e}")))
    }
}

/// Owns one `node-host` process: deploy (spawn + handshake) → execute (crash
/// windows realised as SIGKILL and restart-with-backoff) → cleanup (kill +
/// reap on shutdown or drop, so no child outlives the driver, panics included).
pub struct Supervisor {
    shared: Arc<SupervisorShared>,
    thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("backend", &self.shared.command.backend)
            .field("addr", &self.shared.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Supervisor {
    /// Spawns a `node-host` for `backend`, waits for its handshake, then
    /// starts the supervision loop.
    pub(crate) fn launch(
        backend: &str,
        options: &BackendOptions,
        clock: SimClock,
        config: SupervisorConfig,
    ) -> Result<Arc<Supervisor>, DeployError> {
        let command = NodeCommand {
            binary: resolve_node_host(config.node_host.as_ref())?,
            backend: backend.to_owned(),
            options: *options,
            clock,
        };
        let (events, inbox) = crossbeam::channel::unbounded();
        // The first incarnation picks a free port; restarts reuse it.
        let (node, port) = command.spawn(0, 0, &events)?;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        // Its first call after a restart finds the old connection dead.
        let rpc = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::default());
        let shared = Arc::new(SupervisorShared {
            command,
            addr,
            events,
            seeds: Mutex::new(Vec::new()),
            plan: Mutex::new(None),
            rpc,
            alive: AtomicBool::new(true),
            kills: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        });
        let loop_shared = Arc::clone(&shared);
        let supervisor = move || supervise(&loop_shared, Some(node), &inbox);
        let handle = thread::spawn("node-supervisor", supervisor)
            .expect("failed to spawn supervisor thread");
        Ok(Arc::new(Supervisor {
            shared,
            thread: Mutex::new(Some(handle)),
        }))
    }

    /// The node's TCP address (stable across restarts).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stores the fault plan, forwards it to the node (blackhole windows
    /// gate its ingress; nothing reads partition / latency windows), and
    /// arms the crash windows this supervisor realises as SIGKILL +
    /// restart.
    pub(crate) fn install_plan(&self, plan: FaultPlan) -> Result<(), DeployError> {
        let crashes = plan.crash_windows();
        self.shared.install_faults(&plan)?;
        *self.shared.plan.lock() = Some(plan);
        let _ = self.shared.events.send(Event::Windows(crashes));
        Ok(())
    }

    /// Kill/restart counters.
    pub fn stats(&self) -> ProcessFaultStats {
        ProcessFaultStats {
            kills: self.shared.kills.load(Ordering::Relaxed),
            restarts: self.shared.restarts.load(Ordering::Relaxed),
        }
    }

    /// Whether the node process is alive, as of the loop's last event.
    pub fn node_alive(&self) -> bool {
        self.shared.alive.load(Ordering::Relaxed)
    }

    /// Stops the supervision loop, which kills and reaps the node process
    /// and joins its reader. Idempotent; called by `Drop` (panic-safe: an
    /// unwinding test still reaps its children).
    pub(crate) fn shutdown(&self) {
        let _ = self.shared.events.send(Event::Stop);
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The supervision loop, one rule evaluated at events: while a crash
/// window is open the node is dead (SIGKILL at its start edge), while none
/// is open it runs (spawn + replay, backing off after a failure — which
/// also restarts a node that exited unplanned). Every deadline it keeps is
/// simulated: the next window edge and the next restart attempt; between
/// them it blocks in the channel, as a chain's loop blocks in its wait.
fn supervise(shared: &SupervisorShared, mut node: Option<Incarnation>, inbox: &Receiver<Event>) {
    let clock = &shared.command.clock;
    let mut next_id = 1;
    // The window edges still ahead: a start, its end, the next start, ...
    let mut edges = VecDeque::new();
    let mut open = false;
    let mut backoff = RESTART_BACKOFF;
    let mut retry_at = Duration::ZERO;
    loop {
        let now = clock.now();
        // Every edge the clock has passed, in order: a window shorter than
        // a wake-up's lateness still kills once and restarts once.
        while edges.front().is_some_and(|&edge| edge <= now) {
            edges.pop_front();
            open = !open;
            // A start edge: dropping the node kills it.
            if node.take_if(|_| open).is_some() {
                shared.kills.fetch_add(1, Ordering::Relaxed);
            }
        }
        let down = node.is_none() && !open;
        if down && now >= retry_at {
            match shared.respawn(next_id) {
                Ok(fresh) => {
                    node = Some(fresh);
                    shared.restarts.fetch_add(1, Ordering::Relaxed);
                    backoff = RESTART_BACKOFF;
                }
                Err(_) => {
                    // A port in TIME_WAIT, a busy host: back off, retry.
                    retry_at = clock.now() + clock.to_sim(backoff);
                    backoff = (backoff * 2).min(MAX_RESTART_BACKOFF);
                }
            }
            next_id += 1;
            continue; // a spawn takes wall time: read the clock again
        }
        shared.alive.store(node.is_some(), Ordering::Relaxed);
        let retry = down.then_some(retry_at);
        let event = match edges.front().copied().into_iter().chain(retry).min() {
            Some(at) => inbox.recv_timeout(clock.to_wall(at.saturating_sub(now))),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match event {
            Ok(Event::Exited(id)) => drop(node.take_if(|n| n.id == id)),
            // Windows already over when the plan arrives are history.
            Ok(Event::Windows(union)) => {
                let now = clock.now();
                let ahead = union.into_iter().filter(|&(_, end)| end > now);
                edges = ahead.flat_map(|(start, end)| [start, end]).collect();
                open = false;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Event::Stop) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    drop(node);
    shared.alive.store(false, Ordering::Relaxed);
}

/// The driver-side reconnect policy for a multi-process deployment,
/// derived from the run's [`RetryPolicy`]: sim-time backoffs scale to
/// wall time, so at high speedups the TCP client fails fast and the
/// sim-time-aware retry machinery governs pacing. A disabled retry
/// policy means a single connection attempt per call.
pub fn reconnect_policy_for(policy: &RetryPolicy, clock: &SimClock) -> ReconnectPolicy {
    if !policy.enabled() {
        return ReconnectPolicy::none();
    }
    // Never fully zero: a sub-millisecond wall backoff busy-spins against
    // a connection-refused loopback port.
    let floor = Duration::from_millis(1);
    ReconnectPolicy {
        max_attempts: policy.max_retries,
        base_backoff: clock.to_wall(policy.base_backoff).max(floor),
        multiplier: policy.multiplier,
        max_backoff: clock.to_wall(policy.max_backoff).max(floor),
    }
}

/// Name → builder map for every deployable backend. [`BackendRegistry::builtin`]
/// holds the paper's four systems; [`BackendRegistry::register`] adds new
/// ones (a custom [`hammer_chain::kernel::ConsensusPolicy`] wrapped in a
/// builder closure — see `examples/custom_chain.rs`).
pub struct BackendRegistry {
    builders: Vec<(String, BackendBuilder)>,
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("names", &self.names())
            .finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

const STALL_INTERVAL: std::time::Duration = std::time::Duration::from_secs(3600);

impl BackendRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        BackendRegistry {
            builders: Vec::new(),
        }
    }

    /// A registry holding the paper's four systems under their display
    /// names, in Fig. 6 order.
    pub fn builtin() -> Self {
        let mut registry = Self::new();
        registry.register("ethereum-sim", |opts, clock, net| {
            let mut config = EthereumConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.mempool_capacity = capacity;
            }
            if opts.stall_sealing {
                config.block_interval = STALL_INTERVAL;
            }
            Deployment::start(hammer_ethereum::start, config, clock, net)
        });
        registry.register("fabric-sim", |opts, clock, net| {
            let mut config = FabricConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.inbox_capacity = capacity;
            }
            if opts.stall_sealing {
                // Fabric's pool is the endorsement inbox: stalling the
                // endorsers keeps it full.
                config.endorse_cost = STALL_INTERVAL;
            }
            Deployment::start(hammer_fabric::start, config, clock, net)
        });
        registry.register("meepo-sim", |opts, clock, net| {
            let mut config = MeepoConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.mempool_capacity = capacity;
            }
            if opts.stall_sealing {
                config.epoch_interval = STALL_INTERVAL;
            }
            Deployment::start(hammer_meepo::start, config, clock, net)
        });
        registry.register("neuchain-sim", |opts, clock, net| {
            let mut config = NeuchainConfig::default();
            if let Some(capacity) = opts.mempool_capacity {
                config.mempool_capacity = capacity;
            }
            if opts.stall_sealing {
                config.epoch_interval = STALL_INTERVAL;
            }
            Deployment::start(hammer_neuchain::start, config, clock, net)
        });
        registry
    }

    /// Registers (or replaces) a backend under `name`.
    pub fn register(
        &mut self,
        name: &str,
        builder: impl Fn(&BackendOptions, SimClock, SimNetwork) -> Deployment + Send + Sync + 'static,
    ) {
        if let Some(slot) = self.builders.iter_mut().find(|(n, _)| n == name) {
            slot.1 = Box::new(builder);
        } else {
            self.builders.push((name.to_owned(), Box::new(builder)));
        }
    }

    /// Every registered backend name, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.builders.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Deploys `name` on a fresh simulated network over a fresh virtual
    /// clock ([`SimClock::virtual_time`]), which makes the calling thread
    /// its first participant: the run is exact, and the host's speed is not
    /// in it. A caller that needs wall or scaled time passes its clock to
    /// [`BackendRegistry::deploy_on`].
    pub fn deploy(&self, name: &str, opts: &BackendOptions) -> Result<Deployment, UnknownBackend> {
        let clock = SimClock::virtual_time();
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        self.deploy_on(name, opts, clock, net)
    }

    /// Deploys `name` on an existing clock/network.
    pub fn deploy_on(
        &self,
        name: &str,
        opts: &BackendOptions,
        clock: SimClock,
        net: SimNetwork,
    ) -> Result<Deployment, UnknownBackend> {
        Ok(self.builder(name)?(opts, clock, net))
    }

    fn builder(&self, name: &str) -> Result<&BackendBuilder, UnknownBackend> {
        let found = self.builders.iter().find(|(n, _)| n == name);
        found
            .map(|(_, builder)| builder)
            .ok_or_else(|| UnknownBackend {
                name: name.to_owned(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// Deploys `name` as its own `node-host` OS process behind real TCP,
    /// supervised for crash-fault realisation (SIGKILL + restart).
    ///
    /// `clock`/`net` are the *driver-side* clock and network: the node
    /// process runs its own simulated network internally, but its node
    /// names are registered on the local `net` so fault-target resolution,
    /// fault-plan validation and attribution all work exactly as in
    /// in-process mode.
    ///
    /// `clock` must be a wall or scaled clock, and the calling thread must
    /// take part in no virtual clock: the node process keeps a clock of its
    /// own, and the handshake with it is an OS wait that no virtual clock's
    /// scheduler sees, so either would hang the deploy until the handshake
    /// timed out. Both are a [`DeployError::Spawn`] at once instead.
    pub fn deploy_multi(
        &self,
        name: &str,
        opts: &BackendOptions,
        clock: SimClock,
        net: SimNetwork,
        supervisor_config: SupervisorConfig,
        reconnect: ReconnectPolicy,
    ) -> Result<Deployment, DeployError> {
        self.builder(name)?;
        if !clock.speedup().is_finite() || thread::in_virtual_time() {
            return Err(DeployError::Spawn(
                "a node process cannot join virtual time: deploy it on a wall or scaled \
                 clock, from a thread outside any virtual clock"
                    .to_owned(),
            ));
        }
        let supervisor = Supervisor::launch(name, opts, clock.clone(), supervisor_config)?;
        let chain = RemoteChain::connect(TcpRpcClient::new(
            supervisor.addr(),
            TcpClientConfig::default(),
            reconnect,
        ))
        .map_err(|e| {
            supervisor.shutdown();
            DeployError::Spawn(format!("connect to node: {e}"))
        })?;
        // Mirror the remote node names onto the local network so
        // ChaosTargets placeholders resolve and try_install_faults
        // validates against the real topology.
        let mut names: Vec<String> = chain.ingress_nodes();
        names.extend(chain.sealer_nodes());
        names.sort();
        names.dedup();
        for node in names {
            if !net.endpoint_names().contains(&node) {
                net.register(&node);
            }
        }
        let mut deployment = Deployment::from_chain(chain, clock, net);
        deployment.supervisor = Some(supervisor);
        Ok(deployment)
    }
}

/// A running SUT: in-process on the simulated network, or a supervised
/// `node-host` OS process behind real TCP.
pub struct Deployment {
    client: Arc<dyn BlockchainClient>,
    chain: Arc<dyn SimChain>,
    clock: SimClock,
    net: SimNetwork,
    supervisor: Option<Arc<Supervisor>>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("chain", &self.client().chain_name())
            .finish()
    }
}

impl Deployment {
    /// Wraps any started [`SimChain`] (built-in or custom policy) as a
    /// deployment.
    pub fn from_chain<T: SimChain + 'static>(
        chain: Arc<T>,
        clock: SimClock,
        net: SimNetwork,
    ) -> Self {
        Deployment {
            client: Arc::clone(&chain) as Arc<dyn BlockchainClient>,
            chain: chain as Arc<dyn SimChain>,
            clock,
            net,
            supervisor: None,
        }
    }

    /// Starts a chain with its crate's `start` and wraps it.
    fn start<C, T: SimChain + 'static>(
        start: fn(C, SimClock, SimNetwork) -> Arc<T>,
        config: C,
        clock: SimClock,
        net: SimNetwork,
    ) -> Self {
        Self::from_chain(start(config, clock.clone(), net.clone()), clock, net)
    }

    /// The generic client handle the driver programs against.
    pub fn client(&self) -> Arc<dyn BlockchainClient> {
        Arc::clone(&self.client)
    }

    /// The deployment-facing chain surface: seeding, state reads,
    /// fault-target discovery, ledger audits.
    pub fn chain(&self) -> &Arc<dyn SimChain> {
        &self.chain
    }

    /// Seeds an account with initial balances (genesis allocation — the
    /// preparation-phase fixture the paper's client installs). A
    /// supervised deployment also records the seed, so a restarted node
    /// process gets it replayed.
    pub fn seed_account(&self, account: Address, checking: u64, savings: u64) {
        if let Some(supervisor) = &self.supervisor {
            supervisor
                .shared
                .seeds
                .lock()
                .push((account, checking, savings));
        }
        self.chain.seed_account(account, checking, savings);
    }

    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// The node-process supervisor, if this is a multi-process deployment.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.as_ref()
    }

    /// Installs a fault plan on this deployment, whatever its mode.
    ///
    /// The plan always lands on the local simulated network (attribution
    /// and the fault journal read it from there). In multi-process mode it
    /// is additionally armed on the supervisor, which realises crash
    /// windows as SIGKILL of the actual node process and forwards the
    /// full plan to the node for its internal network.
    pub fn install_faults(&self, plan: FaultPlan) -> Result<(), String> {
        self.net
            .try_install_faults(plan.clone())
            .map_err(|e| e.to_string())?;
        if let Some(supervisor) = &self.supervisor {
            supervisor.install_plan(plan).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Stops block production (and, in multi-process mode, reaps the node
    /// process).
    pub fn down(&self) {
        self.client.shutdown();
        if let Some(supervisor) = &self.supervisor {
            supervisor.shutdown();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_reaches_the_chain() {
        let deployment = BackendRegistry::builtin()
            .deploy("fabric-sim", &BackendOptions::default())
            .unwrap();
        let account = Address::from_name("seeded");
        deployment.seed_account(account, 123, 456);
        assert_eq!(deployment.chain().account(account).unwrap().checking, 123);
        assert_eq!(deployment.client().pending_txs().unwrap(), 0);
    }

    #[test]
    fn registry_deploys_by_name() {
        let registry = BackendRegistry::builtin();
        assert_eq!(
            registry.names(),
            vec!["ethereum-sim", "fabric-sim", "meepo-sim", "neuchain-sim"]
        );
        for name in registry.names() {
            let deployment = registry.deploy(name, &BackendOptions::default()).unwrap();
            assert_eq!(deployment.client().chain_name(), name);
            assert_eq!(deployment.client().latest_height(0).unwrap(), 0);
            deployment.down();
        }
    }

    #[test]
    fn registry_rejects_unknown_names() {
        let registry = BackendRegistry::builtin();
        let err = registry
            .deploy("tendermint", &BackendOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("tendermint"));
        assert!(err.to_string().contains("neuchain-sim"));
    }

    #[test]
    fn registry_applies_generic_options() {
        use hammer_chain::client::ErrorKind;
        use hammer_chain::smallbank::Op;
        use hammer_chain::types::Transaction;
        use hammer_crypto::sig::SigParams;
        use hammer_crypto::Keypair;

        let registry = BackendRegistry::builtin();
        let opts = BackendOptions {
            mempool_capacity: Some(2),
            stall_sealing: true,
        };
        let deployment = registry.deploy("neuchain-sim", &opts).unwrap();
        let client = deployment.client();
        let mut saw_backpressure = false;
        for nonce in 0..10 {
            let tx = Transaction {
                client_id: 0,
                server_id: 0,
                nonce,
                op: Op::KvGet { key: nonce },
                chain_name: "neuchain-sim".to_owned(),
                contract_name: "smallbank".to_owned(),
            }
            .sign(&Keypair::from_seed(3), &SigParams::fast());
            if let Err(err) = client.submit(tx) {
                assert_eq!(err.kind(), ErrorKind::Backpressure);
                saw_backpressure = true;
                break;
            }
        }
        assert!(saw_backpressure, "capacity override not applied");
        deployment.down();
    }

    #[test]
    fn deploy_mode_spellings_roundtrip() {
        for mode in [DeployMode::InProcess, DeployMode::MultiProcess] {
            assert_eq!(DeployMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(DeployMode::parse("multi"), Some(DeployMode::MultiProcess));
        assert_eq!(DeployMode::parse("in"), Some(DeployMode::InProcess));
        assert_eq!(DeployMode::parse("remote"), None);
        assert_eq!(DeployMode::default(), DeployMode::InProcess);
    }

    #[test]
    fn reconnect_policy_scales_sim_backoffs_to_wall_time() {
        let clock = SimClock::with_speedup(100.0);
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(400),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(2),
            ..RetryPolicy::standard()
        };
        let reconnect = reconnect_policy_for(&policy, &clock);
        assert_eq!(reconnect.max_attempts, 4);
        assert_eq!(reconnect.base_backoff, Duration::from_millis(4));
        assert_eq!(reconnect.max_backoff, Duration::from_millis(20));

        // Sub-millisecond wall backoffs clamp up so a dead port is not
        // busy-spun against.
        let fast = reconnect_policy_for(&policy, &SimClock::with_speedup(1_000_000.0));
        assert!(fast.base_backoff >= Duration::from_millis(1));

        let none = reconnect_policy_for(&RetryPolicy::disabled(), &clock);
        assert_eq!(none.max_attempts, ReconnectPolicy::none().max_attempts);
    }

    #[test]
    fn deploy_multi_rejects_unknown_backend_without_spawning() {
        let clock = SimClock::with_speedup(1000.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        let err = BackendRegistry::builtin()
            .deploy_multi(
                "tendermint",
                &BackendOptions::default(),
                clock,
                net,
                SupervisorConfig::default(),
                ReconnectPolicy::none(),
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::Unknown(_)), "{err}");
    }

    fn launch_host(node_host: PathBuf) -> DeployError {
        Supervisor::launch(
            "neuchain-sim",
            &BackendOptions::default(),
            SimClock::with_speedup(1000.0),
            SupervisorConfig {
                node_host: Some(node_host),
            },
        )
        .unwrap_err()
    }

    #[test]
    fn missing_node_host_binary_is_a_spawn_error() {
        let err = launch_host(PathBuf::from("/nonexistent/node-host"));
        assert!(matches!(err, DeployError::Spawn(_)), "{err}");
    }

    /// The handshake is the readiness check, read strictly: a host that
    /// announces no port, or exits without a word, is a spawn error naming
    /// what it printed.
    #[test]
    fn a_host_without_a_listening_port_is_a_spawn_error() {
        use std::os::unix::fs::PermissionsExt;
        for (name, script, printed) in [
            (
                "notaport",
                "echo 'LISTENING notaport'",
                "\"LISTENING notaport\\n\"",
            ),
            ("silent", "exit 0", "\"\""),
        ] {
            let host = std::env::temp_dir().join(format!(
                "hammer-fake-node-host-{}-{name}",
                std::process::id()
            ));
            std::fs::write(&host, format!("#!/bin/sh\n{script}\n")).unwrap();
            std::fs::set_permissions(&host, std::fs::Permissions::from_mode(0o755)).unwrap();
            let err = launch_host(host.clone());
            let _ = std::fs::remove_file(&host);
            match err {
                DeployError::Spawn(msg) => assert!(msg.contains(printed), "{name}: {msg}"),
                other => panic!("{name}: {other}"),
            }
        }
    }

    #[test]
    fn only_a_listening_line_with_a_port_is_a_handshake() {
        assert_eq!(parse_listening("LISTENING 4242\n"), Ok(4242));
        assert_eq!(parse_listening("LISTENING 0"), Ok(0));
        for bad in [
            "",
            "LISTENING\n",
            "LISTENING 70000\n",
            " LISTENING 1\n",
            "READY 1\n",
        ] {
            let err = parse_listening(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
