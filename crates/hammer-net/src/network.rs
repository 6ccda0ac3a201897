//! The simulated message bus connecting named endpoints.
//!
//! Messages sent through [`SimNetwork::send`] are delivered to the
//! destination endpoint's channel after the link's sampled delay (scaled by
//! the shared [`SimClock`]), unless the link drops them or an installed
//! fault window severs the pair. A background scheduler thread owns a
//! min-heap of pending deliveries.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use hammer_obs::{Counter, Obs};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::SimClock;
use crate::fault::{FaultPlan, FaultPlanError, NodeFault};
use crate::link::LinkConfig;

/// Default RNG seed for delay/loss sampling. One fixed seed (rather than
/// per-call-site entropy) keeps probabilistic loss reproducible; override
/// it per run with [`SimNetwork::with_seed`].
pub const DEFAULT_NET_SEED: u64 = 0xbeef_cafe;

/// A message in flight or delivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sender endpoint name.
    pub from: String,
    /// Destination endpoint name.
    pub to: String,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
    /// Simulated send timestamp (from the network's clock).
    pub sent_at: Duration,
}

/// Errors from network operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The named endpoint was never registered.
    UnknownEndpoint(String),
    /// An endpoint with this name already exists.
    DuplicateEndpoint(String),
    /// The network scheduler has shut down.
    Shutdown,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownEndpoint(name) => write!(f, "unknown endpoint: {name}"),
            NetError::DuplicateEndpoint(name) => write!(f, "duplicate endpoint: {name}"),
            NetError::Shutdown => write!(f, "network scheduler has shut down"),
        }
    }
}

impl std::error::Error for NetError {}

/// The receiving side of a registered endpoint.
#[derive(Debug)]
pub struct Endpoint {
    name: String,
    rx: Receiver<Message>,
}

impl Endpoint {
    /// The endpoint's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until a message arrives or all senders disconnect.
    pub fn recv(&self) -> Option<Message> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive with a wall-clock timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Number of messages waiting in the inbox.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

struct Pending {
    deliver_at: Instant,
    seq: u64,
    msg: Message,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

#[derive(Default)]
struct SchedulerState {
    heap: BinaryHeap<Reverse<Pending>>,
    shutdown: bool,
}

struct Shared {
    clock: SimClock,
    default_link: LinkConfig,
    endpoints: Mutex<HashMap<String, Sender<Message>>>,
    /// Scripted fault schedule, consulted against the clock on every send.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    sched: Mutex<SchedulerState>,
    sched_cv: Condvar,
    /// The scheduler thread's handle, taken by
    /// [`SimNetwork::shutdown_and_join`] for deterministic teardown.
    sched_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    rng: Mutex<StdRng>,
    seq: Mutex<u64>,
    stats: Mutex<NetStats>,
    /// Fast-path flag mirroring `obs` being an enabled bundle, so the
    /// disabled case costs one relaxed load per send.
    obs_enabled: AtomicBool,
    obs: Mutex<ObsState>,
}

/// Observability state carried by the network: the installed bundle
/// plus interned per-link byte counters and drop counters, so the send
/// path never rebuilds label strings.
struct ObsState {
    obs: Obs,
    link_bytes: HashMap<(String, String), Counter>,
    drop_lost: Counter,
    drop_faulted: Counter,
}

impl ObsState {
    fn new(obs: Obs) -> Self {
        let reg = obs.registry();
        ObsState {
            drop_lost: reg.counter_with("hammer_net_dropped_total", &[("reason", "loss")]),
            drop_faulted: reg.counter_with("hammer_net_dropped_total", &[("reason", "fault")]),
            link_bytes: HashMap::new(),
            obs,
        }
    }
}

/// Counters describing everything the network has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by `send`.
    pub sent: u64,
    /// Messages delivered to an endpoint inbox.
    pub delivered: u64,
    /// Messages dropped by link loss.
    pub lost: u64,
    /// Messages dropped by an active fault window (crash, blackhole, or
    /// scripted partition).
    pub faulted: u64,
    /// Total payload bytes accepted.
    pub bytes_sent: u64,
}

/// The simulated network. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct SimNetwork {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetwork")
            .field("endpoints", &self.shared.endpoints.lock().len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SimNetwork {
    /// Creates a network with the given clock and default link quality,
    /// spawning the delivery scheduler thread. Uses [`DEFAULT_NET_SEED`]
    /// for delay/loss sampling; see [`SimNetwork::with_seed`].
    pub fn new(clock: SimClock, default_link: LinkConfig) -> Self {
        Self::with_seed(clock, default_link, DEFAULT_NET_SEED)
    }

    /// Creates a network whose probabilistic delay/loss sampling is driven
    /// by `seed`, so lossy-link and fault runs are reproducible end to end.
    pub fn with_seed(clock: SimClock, default_link: LinkConfig, seed: u64) -> Self {
        default_link
            .validate()
            .expect("default link configuration must be valid");
        let shared = Arc::new(Shared {
            clock,
            default_link,
            endpoints: Mutex::new(HashMap::new()),
            faults: Mutex::new(None),
            sched: Mutex::new(SchedulerState::default()),
            sched_cv: Condvar::new(),
            sched_thread: Mutex::new(None),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            seq: Mutex::new(0),
            stats: Mutex::new(NetStats::default()),
            obs_enabled: AtomicBool::new(false),
            obs: Mutex::new(ObsState::new(Obs::disabled())),
        });
        let weak = Arc::downgrade(&shared);
        let handle = std::thread::Builder::new()
            .name("sim-net-scheduler".to_owned())
            .spawn(move || scheduler_loop(weak))
            .expect("failed to spawn network scheduler");
        *shared.sched_thread.lock() = Some(handle);
        SimNetwork { shared }
    }

    /// Creates an ideal network on a realtime clock — handy in tests.
    pub fn ideal() -> Self {
        Self::new(SimClock::realtime(), LinkConfig::ideal())
    }

    /// Registers a named endpoint and returns its receiving half.
    ///
    /// # Panics
    ///
    /// Panics when the name is already taken; endpoint names identify nodes
    /// and duplicates are a programming error.
    pub fn register(&self, name: &str) -> Endpoint {
        let (tx, rx) = channel::unbounded();
        let mut eps = self.shared.endpoints.lock();
        if eps.contains_key(name) {
            panic!("duplicate endpoint: {name}");
        }
        eps.insert(name.to_owned(), tx);
        Endpoint {
            name: name.to_owned(),
            rx,
        }
    }

    /// Installs a scripted fault schedule. Windows are evaluated against
    /// this network's clock on every send; chain simulators additionally
    /// consult [`SimNetwork::node_fault`] to gate production and ingress.
    ///
    /// This is the infallible convenience for hand-written fixtures: it
    /// is exactly [`SimNetwork::try_install_faults`] with the error
    /// unwrapped, so both entry points share one validation code path
    /// (plan shape *and* topology). Install after the chain has deployed
    /// so the plan's node names can be checked against the registered
    /// endpoints; generated or user-supplied plans should prefer the
    /// fallible variant and handle the typed error.
    ///
    /// # Panics
    ///
    /// Panics when the plan contains an empty or inverted window, an
    /// ambiguous partition, contradictory overlapping windows, or a node
    /// name that is not a registered endpoint — scripted faults are test
    /// fixtures and a malformed one is a programming error.
    pub fn install_faults(&self, plan: FaultPlan) {
        self.try_install_faults(plan)
            .expect("fault plan must be valid");
    }

    /// Fallible fault installation: validates the plan's shape *and*
    /// checks every referenced node against the currently registered
    /// endpoints ([`SimNetwork::endpoint_names`]), so a typo'd or stale
    /// node name is rejected instead of producing a window that silently
    /// never fires. Call this after the chain has deployed (endpoints
    /// registered); nothing is installed on error.
    pub fn try_install_faults(&self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate_against(&self.endpoint_names())?;
        *self.shared.faults.lock() = Some(Arc::new(plan));
        Ok(())
    }

    /// The currently installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.shared.faults.lock().clone()
    }

    /// How `name` is impaired right now (per the installed plan and this
    /// network's clock), if at all.
    pub fn node_fault(&self, name: &str) -> Option<NodeFault> {
        let plan = self.shared.faults.lock().clone()?;
        plan.node_fault(name, self.shared.clock.now())
    }

    /// Whether `name` is crash-faulted right now. Production loops poll
    /// this to stop sealing blocks while their node is down.
    pub fn node_crashed(&self, name: &str) -> bool {
        matches!(self.node_fault(name), Some(NodeFault::Crashed))
    }

    /// Installs an observability bundle. Every component holding this
    /// network (chain simulators, the evaluation driver) records into the
    /// installed bundle; without one, the default disabled bundle makes
    /// all instrumentation a no-op.
    pub fn install_obs(&self, obs: Obs) {
        self.shared
            .obs_enabled
            .store(obs.enabled(), Ordering::Relaxed);
        *self.shared.obs.lock() = ObsState::new(obs);
    }

    /// The installed observability bundle (a disabled bundle when none
    /// was installed). Cheap to call off the hot path; hot loops should
    /// fetch once and reuse the handles.
    pub fn obs(&self) -> Obs {
        self.shared.obs.lock().obs.clone()
    }

    /// Whether an enabled observability bundle is installed.
    pub fn obs_on(&self) -> bool {
        self.shared.obs_enabled.load(Ordering::Relaxed)
    }

    /// Record accepted payload bytes on the directed link, interning the
    /// labelled counter on first use.
    fn record_link_bytes(&self, from: &str, to: &str, bytes: u64) {
        let mut state = self.shared.obs.lock();
        let state = &mut *state;
        state
            .link_bytes
            .entry((from.to_owned(), to.to_owned()))
            .or_insert_with(|| {
                state
                    .obs
                    .registry()
                    .counter_with("hammer_net_link_bytes_total", &[("from", from), ("to", to)])
            })
            .add(bytes);
    }

    /// Sends `payload` from `from` to `to`, scheduling delivery after the
    /// link's sampled delay. Returns immediately.
    pub fn send(&self, from: &str, to: &str, payload: Vec<u8>) -> Result<(), NetError> {
        if !self.shared.endpoints.lock().contains_key(to) {
            return Err(NetError::UnknownEndpoint(to.to_owned()));
        }
        {
            let mut stats = self.shared.stats.lock();
            stats.sent += 1;
            stats.bytes_sent += payload.len() as u64;
        }
        let obs_on = self.obs_on();
        if obs_on {
            self.record_link_bytes(from, to, payload.len() as u64);
        }
        // Scripted fault check: severed links drop silently (like a real
        // partition), active latency spikes stretch the delivery below.
        let fault_extra = {
            let plan = self.shared.faults.lock().clone();
            match plan {
                Some(plan) => {
                    let now = self.shared.clock.now();
                    if plan.link_cut(from, to, now) {
                        self.shared.stats.lock().faulted += 1;
                        if obs_on {
                            self.shared.obs.lock().drop_faulted.inc();
                        }
                        return Ok(());
                    }
                    plan.extra_latency(from, to, now)
                }
                None => Duration::ZERO,
            }
        };
        let link = self.shared.default_link;
        let (lost, sim_delay) = {
            let mut rng = self.shared.rng.lock();
            (
                link.sample_loss(&mut *rng),
                link.sample_delay(payload.len(), &mut *rng),
            )
        };
        if lost {
            self.shared.stats.lock().lost += 1;
            if obs_on {
                self.shared.obs.lock().drop_lost.inc();
            }
            return Ok(());
        }
        let wall_delay = self.shared.clock.to_wall(sim_delay + fault_extra);
        let msg = Message {
            from: from.to_owned(),
            to: to.to_owned(),
            payload,
            sent_at: self.shared.clock.now(),
        };
        let seq = {
            let mut s = self.shared.seq.lock();
            *s += 1;
            *s
        };
        let mut sched = self.shared.sched.lock();
        if sched.shutdown {
            return Err(NetError::Shutdown);
        }
        sched.heap.push(Reverse(Pending {
            deliver_at: Instant::now() + wall_delay,
            seq,
            msg,
        }));
        drop(sched);
        self.shared.sched_cv.notify_one();
        Ok(())
    }

    /// A snapshot of the network counters.
    pub fn stats(&self) -> NetStats {
        *self.shared.stats.lock()
    }

    /// The clock this network runs on.
    pub fn clock(&self) -> &SimClock {
        &self.shared.clock
    }

    /// Names of all registered endpoints, sorted.
    pub fn endpoint_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.endpoints.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Stops the delivery scheduler and joins its thread.
    ///
    /// Without this, teardown is only *eventually* quiet: the scheduler
    /// thread holds a `Weak` to the shared state and exits within one
    /// 50 ms poll tick of the last [`SimNetwork`] clone dropping, which
    /// makes thread-leak probes taken right after teardown racy. Calling
    /// `shutdown_and_join` first makes the quiesce deterministic: when it
    /// returns, the scheduler thread is gone and any in-flight deliveries
    /// are discarded. Later [`SimNetwork::send`]s fail with
    /// [`NetError::Shutdown`].
    ///
    /// Idempotent, and safe to call from any thread (including — as a
    /// no-join no-op — the scheduler itself, which cannot happen in
    /// practice but costs nothing to guard).
    pub fn shutdown_and_join(&self) {
        {
            let mut sched = self.shared.sched.lock();
            sched.shutdown = true;
        }
        self.shared.sched_cv.notify_all();
        let handle = self.shared.sched_thread.lock().take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// Tracks fault-window state transitions against the installed
/// observability bundle: each [`FaultObserver::poll`] diffs the set of
/// active fault windows since the previous poll, journals
/// `fault_enter`/`fault_exit` events, and updates the
/// `hammer_net_fault_windows_active` gauge. Poll it from any periodic
/// loop (the evaluation driver's monitor does).
pub struct FaultObserver {
    net: SimNetwork,
    active: Vec<String>,
}

impl FaultObserver {
    /// Observer over `net`'s installed fault plan and obs bundle.
    pub fn new(net: &SimNetwork) -> Self {
        FaultObserver {
            net: net.clone(),
            active: Vec::new(),
        }
    }

    /// Diff active windows against the previous poll and record the
    /// transitions. A no-op when no enabled bundle is installed.
    pub fn poll(&mut self) {
        if !self.net.obs_on() {
            return;
        }
        let obs = self.net.obs();
        let now = self.net.clock().now();
        let labels: Vec<String> = match self.net.fault_plan() {
            Some(plan) => plan
                .active_labels(now)
                .into_iter()
                .map(str::to_owned)
                .collect(),
            None => Vec::new(),
        };
        for label in &labels {
            if !self.active.contains(label) {
                obs.journal().fault_enter(now, label);
            }
        }
        for label in &self.active {
            if !labels.contains(label) {
                obs.journal().fault_exit(now, label);
            }
        }
        obs.registry()
            .gauge("hammer_net_fault_windows_active")
            .set(labels.len() as u64);
        self.active = labels;
    }

    /// Labels of the windows active at the last poll.
    pub fn active(&self) -> &[String] {
        &self.active
    }
}

fn scheduler_loop(weak: std::sync::Weak<Shared>) {
    loop {
        let shared = match weak.upgrade() {
            Some(s) => s,
            None => return, // network dropped entirely
        };
        // Hold the arc only briefly per iteration so drop can proceed.
        let mut sched = shared.sched.lock();
        if sched.shutdown {
            return; // deterministic teardown via shutdown_and_join
        }
        let now = Instant::now();
        // Deliver everything due.
        let mut due = Vec::new();
        while let Some(Reverse(p)) = sched.heap.peek() {
            if p.deliver_at <= now {
                let Reverse(p) = sched.heap.pop().expect("peeked");
                due.push(p);
            } else {
                break;
            }
        }
        let next_deadline = sched.heap.peek().map(|Reverse(p)| p.deliver_at);
        if due.is_empty() {
            match next_deadline {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    shared
                        .sched_cv
                        .wait_for(&mut sched, wait.min(Duration::from_millis(50)));
                }
                None => {
                    // Nothing pending: wait briefly, then re-check liveness.
                    shared
                        .sched_cv
                        .wait_for(&mut sched, Duration::from_millis(50));
                }
            }
            drop(sched);
            drop(shared);
            continue;
        }
        drop(sched);
        for p in due {
            let tx = shared.endpoints.lock().get(&p.msg.to).cloned();
            if let Some(tx) = tx {
                if tx.send(p.msg).is_ok() {
                    shared.stats.lock().delivered += 1;
                }
            }
        }
        drop(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_net() -> SimNetwork {
        SimNetwork::new(SimClock::with_speedup(1000.0), LinkConfig::cloud_100mbps())
    }

    #[test]
    fn delivers_message() {
        let net = fast_net();
        let _a = net.register("a");
        let b = net.register("b");
        net.send("a", "b", b"hello".to_vec()).unwrap();
        let msg = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.payload, b"hello");
        assert_eq!(msg.from, "a");
        assert_eq!(msg.to, "b");
    }

    #[test]
    fn unknown_destination_errors() {
        let net = fast_net();
        let _a = net.register("a");
        assert_eq!(
            net.send("a", "nobody", vec![]),
            Err(NetError::UnknownEndpoint("nobody".to_owned()))
        );
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_registration_panics() {
        let net = fast_net();
        let _a = net.register("a");
        let _again = net.register("a");
    }

    #[test]
    fn fifo_per_link_with_fixed_delay() {
        // With zero jitter every message has the same delay, so ordering
        // must be preserved by the seq tiebreaker.
        let clock = SimClock::with_speedup(1000.0);
        let cfg = LinkConfig {
            base_latency: Duration::from_millis(5),
            jitter: Duration::ZERO,
            bandwidth_bps: None,
            loss_probability: 0.0,
        };
        let net = SimNetwork::new(clock, cfg);
        let _a = net.register("a");
        let b = net.register("b");
        for i in 0..20u8 {
            net.send("a", "b", vec![i]).unwrap();
        }
        for i in 0..20u8 {
            let msg = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(msg.payload, vec![i]);
        }
    }

    #[test]
    fn lossy_link_drops_some() {
        let clock = SimClock::with_speedup(1000.0);
        let cfg = LinkConfig {
            base_latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bps: None,
            loss_probability: 0.5,
        };
        let net = SimNetwork::with_seed(clock, cfg, 123);
        let _a = net.register("a");
        let b = net.register("b");
        for _ in 0..200 {
            net.send("a", "b", vec![0]).unwrap();
        }
        // Wait for deliveries to settle.
        std::thread::sleep(Duration::from_millis(200));
        let stats = net.stats();
        assert!(stats.lost > 50, "lost = {}", stats.lost);
        assert!(stats.lost < 150, "lost = {}", stats.lost);
        assert_eq!(stats.delivered as usize, b.pending());
        assert_eq!(stats.lost + stats.delivered, 200);
    }

    #[test]
    fn stats_count_bytes() {
        let net = fast_net();
        let _a = net.register("a");
        let _b = net.register("b");
        net.send("a", "b", vec![0u8; 100]).unwrap();
        net.send("a", "b", vec![0u8; 50]).unwrap();
        let stats = net.stats();
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.bytes_sent, 150);
    }

    #[test]
    fn fault_plan_cuts_links_inside_window() {
        use crate::fault::FaultPlan;
        // Start the window at zero so no clock race is possible.
        let net = fast_net();
        let _a = net.register("a");
        let b = net.register("b");
        net.install_faults(FaultPlan::new().crash("b", Duration::ZERO, Duration::from_secs(3600)));
        net.send("a", "b", b"dropped".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(net.stats().faulted, 1);
        assert!(net.node_crashed("b"));
        assert!(!net.node_crashed("a"));
        net.install_faults(FaultPlan::new());
        net.send("a", "b", b"through".to_vec()).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn identical_seeds_reproduce_loss_pattern() {
        let lossy = LinkConfig {
            base_latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bps: None,
            loss_probability: 0.3,
        };
        let run = |seed: u64| {
            let net = SimNetwork::with_seed(SimClock::with_speedup(1000.0), lossy, seed);
            let _a = net.register("a");
            let _b = net.register("b");
            for _ in 0..100 {
                net.send("a", "b", vec![0]).unwrap();
            }
            net.stats().lost
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "distinct seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "fault plan must be valid")]
    fn installing_inverted_window_panics() {
        use crate::fault::FaultPlan;
        let net = fast_net();
        let _x = net.register("x");
        net.install_faults(FaultPlan::new().crash("x", Duration::from_secs(2), Duration::ZERO));
    }

    #[test]
    #[should_panic(expected = "fault plan must be valid")]
    fn installing_against_unknown_node_panics() {
        // `install_faults` shares `try_install_faults`' validation —
        // including the topology check — so a typo'd node name is a
        // programming error, not a window that silently never fires.
        use crate::fault::FaultPlan;
        let net = fast_net();
        net.install_faults(FaultPlan::new().crash("ghost", Duration::ZERO, Duration::from_secs(1)));
    }

    #[test]
    fn try_install_rejects_bad_shape_and_unknown_nodes() {
        use crate::fault::{FaultPlan, FaultPlanError};
        let net = fast_net();
        let _a = net.register("a");
        let _b = net.register("b");
        // Shape error: typed, nothing installed.
        let inverted = FaultPlan::new().crash("a", Duration::from_secs(2), Duration::ZERO);
        assert!(matches!(
            net.try_install_faults(inverted),
            Err(FaultPlanError::EmptyWindow { .. })
        ));
        assert!(net.fault_plan().is_none());
        // Topology error: the node name is not a registered endpoint.
        let ghost = FaultPlan::new().blackhole("ghost", Duration::ZERO, Duration::from_secs(1));
        assert!(matches!(
            net.try_install_faults(ghost),
            Err(FaultPlanError::UnknownNode { node, .. }) if node == "ghost"
        ));
        assert!(net.fault_plan().is_none());
        // A well-formed plan over registered endpoints installs.
        let good = FaultPlan::new().crash("b", Duration::ZERO, Duration::from_secs(1));
        net.try_install_faults(good).unwrap();
        assert!(net.fault_plan().is_some());
    }

    #[test]
    fn obs_defaults_to_disabled_and_installs() {
        let net = fast_net();
        assert!(!net.obs_on());
        assert!(!net.obs().enabled());
        let _a = net.register("a");
        let _b = net.register("b");
        // Sends without a bundle record nothing and cost one flag load.
        net.send("a", "b", vec![0u8; 10]).unwrap();
        assert!(net.obs().render_prometheus().is_empty());

        net.install_obs(hammer_obs::Obs::new());
        assert!(net.obs_on());
        net.send("a", "b", vec![0u8; 64]).unwrap();
        net.send("a", "b", vec![0u8; 36]).unwrap();
        let obs = net.obs();
        let bytes = obs
            .registry()
            .counter_with("hammer_net_link_bytes_total", &[("from", "a"), ("to", "b")]);
        assert_eq!(bytes.value(), 100);
    }

    #[test]
    fn obs_counts_fault_drops() {
        use crate::fault::FaultPlan;
        let net = fast_net();
        let _a = net.register("a");
        let _b = net.register("b");
        net.install_obs(hammer_obs::Obs::new());
        net.install_faults(FaultPlan::new().crash("b", Duration::ZERO, Duration::from_secs(3600)));
        net.send("a", "b", vec![1]).unwrap();
        let dropped = net
            .obs()
            .registry()
            .counter_with("hammer_net_dropped_total", &[("reason", "fault")]);
        assert_eq!(dropped.value(), 1);
    }

    #[test]
    fn fault_observer_journals_transitions() {
        use crate::fault::FaultPlan;
        use hammer_obs::EventKind;
        // A generous window (50–100 ms of wall time) so thread-spawn and
        // setup overhead on a busy 1-core host cannot outrun it.
        let clock = SimClock::with_speedup(100.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::ideal());
        net.install_obs(hammer_obs::Obs::new());
        let _n = net.register("n");
        net.install_faults(FaultPlan::new().crash(
            "n",
            Duration::from_secs(5),
            Duration::from_secs(10),
        ));
        let mut observer = FaultObserver::new(&net);
        observer.poll(); // before the window: nothing active yet
        clock.sleep_until(Duration::from_secs(7));
        observer.poll(); // inside: enter
        assert_eq!(observer.active(), ["crash:n"]);
        clock.sleep_until(Duration::from_secs(12));
        observer.poll(); // after: exit
        assert!(observer.active().is_empty());
        let journal = net.obs().journal().clone();
        assert_eq!(journal.count_of(EventKind::FaultEnter), 1);
        assert_eq!(journal.count_of(EventKind::FaultExit), 1);
        assert_eq!(
            net.obs()
                .registry()
                .gauge("hammer_net_fault_windows_active")
                .value(),
            0
        );
    }

    #[test]
    fn shutdown_and_join_is_deterministic_and_idempotent() {
        let net = fast_net();
        let _a = net.register("a");
        let _b = net.register("b");
        net.send("a", "b", b"in flight".to_vec()).unwrap();
        // When this returns the scheduler thread has been joined — gone
        // *now*, not within a poll tick — and sends fail loudly.
        net.shutdown_and_join();
        assert_eq!(net.send("a", "b", vec![0]), Err(NetError::Shutdown));
        // Idempotent.
        net.shutdown_and_join();
    }

    #[test]
    fn endpoint_names_sorted() {
        let net = fast_net();
        let _c = net.register("c");
        let _a = net.register("a");
        let _b = net.register("b");
        assert_eq!(net.endpoint_names(), vec!["a", "b", "c"]);
    }
}
