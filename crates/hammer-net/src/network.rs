//! What a simulated deployment shares: the clock, the registry of
//! endpoint names, the installed fault plan, the observability bundle,
//! and traffic accounting.
//!
//! [`SimNetwork::send`] *accounts* a message — counters, per-link bytes,
//! whether an active fault window or the link's seeded loss sample would
//! have dropped it — and returns. Nothing is delivered: no node of the
//! simulated chains reads replicated blocks, so there is no inbox to
//! deliver into and no thread to carry the bytes.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_obs::{Counter, Obs};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::SimClock;
use crate::fault::{FaultPlan, FaultPlanError, NodeFault};
use crate::link::LinkConfig;

/// Default RNG seed for loss sampling. One fixed seed (rather than
/// per-call-site entropy) keeps probabilistic loss reproducible; override
/// it per run with [`SimNetwork::with_seed`].
pub(crate) const DEFAULT_NET_SEED: u64 = 0xbeef_cafe;

/// Errors from network operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The named endpoint was never registered.
    UnknownEndpoint(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownEndpoint(name) => write!(f, "unknown endpoint: {name}"),
        }
    }
}

impl std::error::Error for NetError {}

struct Shared {
    clock: SimClock,
    default_link: LinkConfig,
    endpoints: Mutex<BTreeSet<String>>,
    /// Scripted fault schedule, consulted against the clock on every send.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// A plan has been stored in `faults` (never cleared): see `node_fault`.
    faults_installed: AtomicBool,
    rng: Mutex<StdRng>,
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

    /// The accepted-bytes counter of the directed link, interned on
    /// first use.
    fn link_bytes(&mut self, from: &str, to: &str) -> &Counter {
        self.link_bytes
            .entry((from.to_owned(), to.to_owned()))
            .or_insert_with(|| {
                self.obs
                    .registry()
                    .counter_with("hammer_net_link_bytes_total", &[("from", from), ("to", to)])
            })
    }
}

/// Counters describing everything the network has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted by `send`.
    pub sent: u64,
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
    /// Creates a network with the given clock and default link quality.
    /// Uses `DEFAULT_NET_SEED` for loss sampling; see
    /// `SimNetwork::with_seed`.
    pub fn new(clock: SimClock, default_link: LinkConfig) -> Self {
        Self::with_seed(clock, default_link, DEFAULT_NET_SEED)
    }

    /// Creates a network whose probabilistic loss sampling is driven by
    /// `seed`, so lossy-link and fault runs are reproducible end to end.
    pub(crate) fn with_seed(clock: SimClock, default_link: LinkConfig, seed: u64) -> Self {
        default_link
            .validate()
            .expect("default link configuration must be valid");
        SimNetwork {
            shared: Arc::new(Shared {
                clock,
                default_link,
                endpoints: Mutex::new(BTreeSet::new()),
                faults: Mutex::new(None),
                faults_installed: AtomicBool::new(false),
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                stats: Mutex::new(NetStats::default()),
                obs_enabled: AtomicBool::new(false),
                obs: Mutex::new(ObsState::new(Obs::disabled())),
            }),
        }
    }

    /// Creates an ideal network on a realtime clock — handy in tests.
    pub fn ideal() -> Self {
        Self::new(SimClock::realtime(), LinkConfig::ideal())
    }

    /// Registers a named endpoint: a name fault plans may target and
    /// [`SimNetwork::send`] accepts as a destination.
    ///
    /// # Panics
    ///
    /// Panics when the name is already taken; endpoint names identify nodes
    /// and duplicates are a programming error.
    pub fn register(&self, name: &str) {
        if !self.shared.endpoints.lock().insert(name.to_owned()) {
            panic!("duplicate endpoint: {name}");
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
        // Pairs with `node_fault`'s Acquire; the plan is read under the lock.
        self.shared.faults_installed.store(true, Ordering::Release);
        Ok(())
    }

    /// The currently installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.shared.faults.lock().clone()
    }

    /// How `name` is impaired right now (per the installed plan and this
    /// network's clock), if at all.
    ///
    /// Every submission and sealer tick asks, so until a plan is installed
    /// one flag answers. With a plan, an empty one too, it costs the lock, an
    /// `Arc` clone and a clock reading: drills are not measured traffic.
    pub fn node_fault(&self, name: &str) -> Option<NodeFault> {
        if !self.shared.faults_installed.load(Ordering::Acquire) {
            return None;
        }
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
    pub(crate) fn obs_on(&self) -> bool {
        self.shared.obs_enabled.load(Ordering::Relaxed)
    }

    /// Accounts one message of `bytes` from `from` to `to` and returns:
    /// the counters and the per-link byte metric move, and the message
    /// is booked as dropped when an active fault window severs the pair
    /// or the link's seeded loss sample says so. Nothing is delivered.
    pub fn send(&self, from: &str, to: &str, bytes: usize) -> Result<(), NetError> {
        if !self.shared.endpoints.lock().contains(to) {
            return Err(NetError::UnknownEndpoint(to.to_owned()));
        }
        // A message must first survive the plan (crash, blackhole,
        // partition) and then the link's own loss sample.
        let plan = self.shared.faults.lock().clone();
        let cut = plan.is_some_and(|plan| plan.link_cut(from, to, self.shared.clock.now()));
        let lost = !cut
            && self
                .shared
                .default_link
                .sample_loss(&mut *self.shared.rng.lock());
        {
            let mut stats = self.shared.stats.lock();
            stats.sent += 1;
            stats.bytes_sent += bytes as u64;
            stats.faulted += u64::from(cut);
            stats.lost += u64::from(lost);
        }
        if self.obs_on() {
            let mut state = self.shared.obs.lock();
            state.link_bytes(from, to).add(bytes as u64);
            if cut {
                state.drop_faulted.inc();
            } else if lost {
                state.drop_lost.inc();
            }
        }
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
        self.shared.endpoints.lock().iter().cloned().collect()
    }

    /// Does nothing: the network owns no thread to stop. Kept only
    /// because the frozen benchmark package
    /// (`crates/bench/src/bin/driver_e2e/src/{null,layers,trace,workloads}.rs`)
    /// calls it at teardown; nothing else should.
    pub fn shutdown_and_join(&self) {}
}

/// Tracks fault-window state transitions against the installed
/// observability bundle: each [`FaultObserver::poll`] diffs the set of
/// active fault windows since the previous poll, journals
/// `fault_enter`/`fault_exit` events, and updates the
/// `hammer_net_fault_windows_active` gauge. Poll it from any periodic
/// loop (the evaluation driver's monitor does).
pub struct FaultObserver {
    net: SimNetwork,
    /// Position in the plan and label of each window active at the last
    /// poll. The position is the key: labels repeat (every partition is
    /// `partition`), and two such windows that overlap or touch are still
    /// two windows, each with its own enter and exit.
    active: Vec<(usize, String)>,
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
        if self.net.obs_on() {
            self.poll_at(self.net.clock().now());
        }
    }

    fn poll_at(&mut self, now: Duration) {
        let obs = self.net.obs();
        let plan = self.net.fault_plan();
        let windows = plan.as_deref().map_or(&[][..], FaultPlan::windows);
        let active: Vec<(usize, String)> = windows
            .iter()
            .enumerate()
            .filter(|(_, w)| w.contains(now))
            .map(|(i, w)| (i, w.label.clone()))
            .collect();
        for window in &active {
            if !self.active.contains(window) {
                obs.journal().fault_enter(now, &window.1);
            }
        }
        for window in &self.active {
            if !active.contains(window) {
                obs.journal().fault_exit(now, &window.1);
            }
        }
        obs.registry()
            .gauge("hammer_net_fault_windows_active")
            .set(active.len() as u64);
        self.active = active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_net() -> SimNetwork {
        SimNetwork::new(SimClock::with_speedup(1000.0), LinkConfig::cloud_100mbps())
    }

    #[test]
    fn unknown_destination_errors() {
        let net = fast_net();
        net.register("a");
        assert_eq!(
            net.send("a", "nobody", 0),
            Err(NetError::UnknownEndpoint("nobody".to_owned()))
        );
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_registration_panics() {
        let net = fast_net();
        net.register("a");
        net.register("a");
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
        net.register("a");
        net.register("b");
        for _ in 0..200 {
            net.send("a", "b", 1).unwrap();
        }
        let stats = net.stats();
        assert_eq!(stats.sent, 200);
        assert!(stats.lost > 50, "lost = {}", stats.lost);
        assert!(stats.lost < 150, "lost = {}", stats.lost);
        assert_eq!(stats.faulted, 0);
    }

    #[test]
    fn stats_count_bytes() {
        let net = fast_net();
        net.register("a");
        net.register("b");
        net.send("a", "b", 100).unwrap();
        net.send("a", "b", 50).unwrap();
        assert_eq!(
            net.stats(),
            NetStats {
                sent: 2,
                bytes_sent: 150,
                ..NetStats::default()
            }
        );
    }

    #[test]
    fn fault_plan_cuts_links_inside_window() {
        use crate::fault::FaultPlan;
        // Start the window at zero so no clock race is possible.
        let net = fast_net();
        net.register("a");
        net.register("b");
        net.install_faults(FaultPlan::new().crash("b", Duration::ZERO, Duration::from_secs(3600)));
        net.send("a", "b", 7).unwrap();
        assert_eq!(net.stats().faulted, 1);
        assert!(net.node_crashed("b"));
        assert!(!net.node_crashed("a"));
        net.install_faults(FaultPlan::new());
        net.send("a", "b", 7).unwrap();
        let stats = net.stats();
        assert_eq!((stats.sent, stats.faulted), (2, 1));
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
            net.register("a");
            net.register("b");
            // The running `lost` count after every send is the pattern.
            (0..100)
                .map(|_| {
                    net.send("a", "b", 1).unwrap();
                    net.stats().lost
                })
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "distinct seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "fault plan must be valid")]
    fn installing_inverted_window_panics() {
        use crate::fault::FaultPlan;
        let net = fast_net();
        net.register("x");
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
        net.register("a");
        net.register("b");
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
        net.register("a");
        net.register("b");
        // Sends without a bundle record nothing and cost one flag load.
        net.send("a", "b", 10).unwrap();
        assert!(net.obs().render_prometheus().is_empty());

        net.install_obs(hammer_obs::Obs::new());
        assert!(net.obs_on());
        net.send("a", "b", 64).unwrap();
        net.send("a", "b", 36).unwrap();
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
        net.register("a");
        net.register("b");
        net.install_obs(hammer_obs::Obs::new());
        net.install_faults(FaultPlan::new().crash("b", Duration::ZERO, Duration::from_secs(3600)));
        net.send("a", "b", 1).unwrap();
        let obs = net.obs();
        let registry = obs.registry();
        let dropped = registry.counter_with("hammer_net_dropped_total", &[("reason", "fault")]);
        assert_eq!(dropped.value(), 1);
        // The byte counter is *accepted* traffic: it moves before the
        // fault check, so a dropped message is in it too.
        let bytes =
            registry.counter_with("hammer_net_link_bytes_total", &[("from", "a"), ("to", "b")]);
        assert_eq!(bytes.value(), 1);
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
        net.register("n");
        net.install_faults(FaultPlan::new().crash(
            "n",
            Duration::from_secs(5),
            Duration::from_secs(10),
        ));
        let mut observer = FaultObserver::new(&net);
        let active = || {
            let obs = net.obs();
            obs.registry()
                .gauge("hammer_net_fault_windows_active")
                .value()
        };
        observer.poll(); // before the window: nothing active yet
        clock.sleep_until(Duration::from_secs(7));
        observer.poll(); // inside: enter
        assert_eq!(active(), 1);
        clock.sleep_until(Duration::from_secs(12));
        observer.poll(); // after: exit
        assert_eq!(active(), 0);
        let journal = net.obs().journal().clone();
        assert_eq!(journal.count_of(EventKind::FaultEnter), 1);
        assert_eq!(journal.count_of(EventKind::FaultExit), 1);
    }

    /// Labels repeat — every partition is `partition` — and the seeded
    /// generator overlaps them freely (seed 7 of the chaos harness does):
    /// two windows are two enters and two exits, overlapping or touching.
    #[test]
    fn fault_observer_tells_same_label_windows_apart() {
        use crate::fault::FaultPlan;
        use hammer_obs::EventKind;
        let secs = Duration::from_secs;
        let net = fast_net();
        net.install_obs(hammer_obs::Obs::new());
        net.register("a");
        net.register("b");
        let groups: &[&[&str]] = &[&["a"], &["b"]];
        net.install_faults(
            FaultPlan::new()
                .partition(groups, secs(1), secs(3))
                .partition(groups, secs(2), secs(4)) // overlaps the first
                .partition(groups, secs(5), secs(6))
                .partition(groups, secs(6), secs(7)), // touches the third
        );
        let mut observer = FaultObserver::new(&net);
        let journal = net.obs().journal().clone();
        // (poll instant in ms, enters so far, exits so far, active now)
        let script = [
            (500, 0, 0, 0),
            (1500, 1, 0, 1),
            (2500, 2, 0, 2),
            (3500, 2, 1, 1),
            (4500, 2, 2, 0),
            (5500, 3, 2, 1),
            (6500, 4, 3, 1), // one poll sees the third end and the fourth begin
            (7500, 4, 4, 0),
        ];
        for (at, enters, exits, active) in script {
            observer.poll_at(Duration::from_millis(at));
            assert_eq!(journal.count_of(EventKind::FaultEnter), enters, "at {at}");
            assert_eq!(journal.count_of(EventKind::FaultExit), exits, "at {at}");
            let gauge = net
                .obs()
                .registry()
                .gauge("hammer_net_fault_windows_active");
            assert_eq!(gauge.value(), active, "at {at}");
        }
    }

    #[test]
    fn endpoint_names_sorted() {
        let net = fast_net();
        net.register("c");
        net.register("a");
        net.register("b");
        assert_eq!(net.endpoint_names(), vec!["a", "b", "c"]);
    }
}
