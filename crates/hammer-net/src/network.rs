//! What a simulated deployment shares: the clock, the registry of
//! endpoint names, the installed fault plan and the observability bundle.
//!
//! Nothing travels over it: no node of the simulated chains reads
//! replicated blocks, so there is no message to deliver, count or drop.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_obs::Obs;
use parking_lot::Mutex;

use crate::clock::SimClock;
use crate::fault::{FaultPlan, FaultPlanError, NodeFault};
use crate::link::LinkConfig;

struct Shared {
    clock: SimClock,
    endpoints: Mutex<BTreeSet<String>>,
    /// Scripted fault schedule, consulted against the clock by `node_fault`.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// A plan has been stored in `faults` (never cleared): see `node_fault`.
    faults_installed: AtomicBool,
    obs: Mutex<Obs>,
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
            .finish()
    }
}

impl SimNetwork {
    /// Creates a network on `clock`. The link preset is ignored (see
    /// [`crate::link`]).
    pub fn new(clock: SimClock, _link: LinkConfig) -> Self {
        SimNetwork {
            shared: Arc::new(Shared {
                clock,
                endpoints: Mutex::new(BTreeSet::new()),
                faults: Mutex::new(None),
                faults_installed: AtomicBool::new(false),
                obs: Mutex::new(Obs::disabled()),
            }),
        }
    }

    /// Creates a network on a realtime clock — handy in tests.
    pub fn ideal() -> Self {
        Self::new(SimClock::realtime(), LinkConfig::lan())
    }

    /// Registers a named endpoint: a name a fault plan may target.
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

    /// Installs a scripted fault schedule. Chain simulators consult
    /// [`SimNetwork::node_fault`], which reads it against this network's
    /// clock, to gate production and ingress.
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
        *self.shared.obs.lock() = obs;
    }

    /// The installed observability bundle (a disabled bundle when none
    /// was installed). Cheap to call off the hot path; hot loops should
    /// fetch once and reuse the handles.
    pub fn obs(&self) -> Obs {
        self.shared.obs.lock().clone()
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
        if self.net.obs().enabled() {
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
        SimNetwork::new(SimClock::with_speedup(1000.0), LinkConfig::lan())
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_registration_panics() {
        let net = fast_net();
        net.register("a");
        net.register("a");
    }

    #[test]
    fn a_crash_window_crashes_only_its_node() {
        use crate::fault::FaultPlan;
        // Start the window at zero so no clock race is possible.
        let net = fast_net();
        net.register("a");
        net.register("b");
        net.install_faults(FaultPlan::new().crash("b", Duration::ZERO, Duration::from_secs(3600)));
        assert!(net.node_crashed("b"));
        assert!(!net.node_crashed("a"));
        net.install_faults(FaultPlan::new());
        assert!(!net.node_crashed("b"));
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
        assert!(!net.obs().enabled());
        net.install_obs(hammer_obs::Obs::new());
        assert!(net.obs().enabled());
    }

    #[test]
    fn fault_observer_journals_transitions() {
        use crate::fault::FaultPlan;
        use hammer_obs::EventKind;
        // A generous window (50–100 ms of wall time) so thread-spawn and
        // setup overhead on a busy 1-core host cannot outrun it.
        let clock = SimClock::with_speedup(100.0);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
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
