//! Declarative evaluation scenarios: builder → validate → compile → run
//! → verdict.
//!
//! Everything PRs 2–6 built — the [`EvalConfig`] builder, scripted
//! [`FaultPlan`]s and seeded ones ([`chaos::generate`]), [`RetryPolicy`],
//! the crash-recoverable driver, and the invariant oracle — composes here
//! behind one fluent [`ScenarioBuilder`] (modeled on
//! logos-blockchain-testing's build/deploy/capture/execute/evaluate
//! lifecycle). A scenario names its backend, shapes its workload and run
//! window, scripts or seeds its faults, and — the new piece — states
//! [`Expectation`]s: consensus liveness, a minimum tx-inclusion ratio,
//! latency SLO quantiles read from the hammer-obs lifecycle histograms,
//! the accounting identity, and no-stall. `build()` validates the whole
//! composition up front (typed [`ScenarioError`], no panics) and
//! compiles it down to the existing `EvalConfig` / `FaultPlan` /
//! [`RecoveryConfig`] machinery; `run()` drives the unmodified driver
//! and grades the report into a [`Verdict`] with per-expectation
//! pass/fail evidence.
//!
//! A scenario's faults are a seed or a [`FaultPlan`] as its author wrote
//! it — `hammer_net::fault` owns the fault kinds, their JSON form (a
//! spec's `"chaos"` object) and the `ingress:N` / `sealer:N` / `rest`
//! placeholders, which [`FaultPlan::resolve`] turns into the deployed
//! chain's node names at install time, so corpus scenarios stay
//! backend-agnostic data.
//!
//! The shipped corpus ([`corpus`]) is data, not code: eight JSON specs
//! under `scenarios/` at the repository root, each runnable by name
//! (`scenario_sweep` bench bin, `examples/scenarios.rs`).
//!
//! ```
//! use std::time::Duration;
//! use hammer_core::scenario::Scenario;
//!
//! let verdict = Scenario::builder("smoke")
//!     .backend("neuchain-sim")
//!     .speedup(1000.0)
//!     .constant_load(50, 2)
//!     .workload_with(|w| w.accounts = 100)
//!     .expect_consensus_liveness(1)
//!     .expect_accounting_identity()
//!     .expect_no_stall()
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(verdict.passed(), "{:?}", verdict.violations());
//! ```

use std::sync::Arc;
use std::time::Duration;

use hammer_net::{chaos, ChaosTargets, FaultPlan, LinkConfig, SimClock, SimNetwork};
use hammer_obs::{EventKind, Obs, Stage};
use hammer_rpc::json::Value;
use hammer_store::KvStore;
use hammer_workload::{ControlSequence, TraceKind, TraceSpec, WorkloadConfig};

use crate::chaos::{check_journal, check_report, InvariantCheck};
use crate::checkpoint::RecoveryConfig;
use crate::deploy::{
    reconnect_policy_for, BackendOptions, BackendRegistry, DeployMode, Deployment,
    ProcessFaultStats, SupervisorConfig,
};
use crate::driver::{EvalConfig, EvalError, EvalReport, Evaluation};
use crate::retry::RetryPolicy;

/// The most slices a spec's `"slices"` may ask for: the count sizes the
/// budget vector at parse time, and a million one-second slices is already
/// an eleven-day run window.
const MAX_SLICES: usize = 1_000_000;

/// The most transactions a run window may carry: what one tracker shard
/// can index (`TxTable::insert` asserts its slot indices stay 32-bit).
const MAX_TOTAL: u64 = u32::MAX as u64;

/// What a scenario demands of its run. Each expectation grades into one
/// (or, for the oracle-backed ones, a few) [`InvariantCheck`] evidence
/// rows in the [`Verdict`].
#[derive(Clone, Debug, PartialEq)]
pub enum Expectation {
    /// The chain made consensus progress: at least `min_blocks` sealed
    /// blocks/epochs across shards (the kernel's
    /// [`SimChain::progress_mark`](hammer_chain::kernel::SimChain::progress_mark)).
    ConsensusLiveness {
        /// Minimum sealed blocks/epochs (≥ 1).
        min_blocks: u64,
    },
    /// At least `ratio` of attempted transactions committed
    /// (`committed / submitted`).
    MinInclusionRatio {
        /// The floor, in `(0, 1]`.
        ratio: f64,
        /// Per-backend floors overriding `ratio` — calibration data for
        /// corpus scenarios retargeted across backends with very
        /// different commit disciplines.
        overrides: Vec<(String, f64)>,
    },
    /// The `quantile` of commit latency (submission → block inclusion,
    /// simulated time, read from the hammer-obs [`Stage::InBlock`]
    /// lifecycle histogram) stays at or under `bound`.
    LatencySlo {
        /// Which quantile to read, in `(0, 1)` (e.g. `0.95`).
        quantile: f64,
        /// The latency bound.
        bound: Duration,
        /// Per-backend bounds overriding `bound` (a PoW chain's 15 s
        /// blocks need a different SLO than a deterministic sealer).
        overrides: Vec<(String, Duration)>,
    },
    /// The PR 5 oracle's report checks: the accounting identity
    /// `committed + failed + timed_out + rejected + dropped + expired ==
    /// submitted`, plus the fault-window attribution recount.
    AccountingIdentity,
    /// The stall watchdog must not have aborted the run (flag and
    /// journal agree).
    NoStall,
}

/// The fault side of a scenario.
#[derive(Clone, Debug, PartialEq)]
enum Chaos {
    /// Generate the schedule from `(seed, discovered targets, run window)`
    /// at deploy time ([`chaos::generate`]).
    Seeded(u64),
    /// A plan as written; placeholders resolve at deploy time.
    Scripted(FaultPlan),
}

/// Crash-during-drain knobs: run through the checkpointing driver, kill
/// cooperatively at `kill_at` (simulated time), then resume from the
/// checkpoint store and let the resumed run finish the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Checkpoint cadence (simulated time).
    pub interval: Duration,
    /// When the driver kills itself (simulated time); kills land between
    /// submission attempts, so a kill during drain is exactly the
    /// crash-during-drain case.
    pub kill_at: Duration,
}

/// Why a scenario failed to build, parse, or run. Every variant is a
/// typed, non-panicking diagnosis.
#[derive(Debug)]
pub enum ScenarioError {
    /// The backend name is not registered.
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name.
        known: Vec<String>,
    },
    /// The workload profile is invalid.
    Workload(String),
    /// The run window (control sequence) is empty or inconsistent with
    /// the retry policy.
    RunWindow(String),
    /// The chaos/fault spec is malformed or cannot resolve against the
    /// deployed topology.
    Chaos(String),
    /// An expectation's parameters are out of range.
    Expectation(String),
    /// The recovery spec is malformed.
    Recovery(String),
    /// A multi-process deployment failed (spawn, handshake, health
    /// check, or fault-plan forwarding).
    Deploy(String),
    /// A JSON scenario spec failed to parse.
    Spec(String),
    /// The compiled driver configuration was rejected, or the run failed.
    Config(EvalError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::UnknownBackend { name, known } => {
                write!(f, "unknown backend {name:?} (known: {})", known.join(", "))
            }
            ScenarioError::Workload(msg) => write!(f, "workload: {msg}"),
            ScenarioError::RunWindow(msg) => write!(f, "run window: {msg}"),
            ScenarioError::Chaos(msg) => write!(f, "chaos spec: {msg}"),
            ScenarioError::Expectation(msg) => write!(f, "expectation: {msg}"),
            ScenarioError::Recovery(msg) => write!(f, "recovery spec: {msg}"),
            ScenarioError::Deploy(msg) => write!(f, "deploy: {msg}"),
            ScenarioError::Spec(msg) => write!(f, "scenario spec: {msg}"),
            ScenarioError::Config(e) => write!(f, "driver config: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Config(e) => Some(e),
            _ => None,
        }
    }
}

/// Fluent scenario assembly; start from [`Scenario::builder`] and finish
/// with [`ScenarioBuilder::build`], which validates the composition and
/// pre-compiles the driver configuration.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    description: String,
    backend: String,
    speedup: f64,
    deploy_mode: DeployMode,
    workload: WorkloadConfig,
    control: Option<ControlSequence>,
    chaos: Option<Chaos>,
    retry: RetryPolicy,
    stall_budget: Duration,
    drain_timeout: Duration,
    poll_interval: Duration,
    tracker_shards: Option<usize>,
    recovery: Option<RecoverySpec>,
    expectations: Vec<Expectation>,
}

impl ScenarioBuilder {
    fn new(name: &str) -> Self {
        ScenarioBuilder {
            name: name.to_owned(),
            description: String::new(),
            backend: "neuchain-sim".to_owned(),
            speedup: 100.0,
            deploy_mode: DeployMode::default(),
            workload: WorkloadConfig {
                accounts: 200,
                ..WorkloadConfig::default()
            },
            control: None,
            chaos: None,
            retry: RetryPolicy::disabled(),
            // Clears the longest quiet gap of any builtin backend
            // (ethereum's 15 s blocks — see the chaos harness).
            stall_budget: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(60),
            poll_interval: Duration::from_millis(50),
            tracker_shards: None,
            recovery: None,
            expectations: Vec::new(),
        }
    }

    /// Human-readable description (shows up in verdict JSON).
    pub fn describe(mut self, description: &str) -> Self {
        self.description = description.to_owned();
        self
    }

    /// Target backend, by registry name.
    pub fn backend(mut self, name: &str) -> Self {
        self.backend = name.to_owned();
        self
    }

    /// Clock speedup (simulated seconds per wall second).
    pub fn speedup(mut self, speedup: f64) -> Self {
        self.speedup = speedup;
        self
    }

    /// How the SUT is deployed: in-process on the simulated network
    /// (default) or as a supervised `node-host` OS process behind real
    /// TCP, where crash-fault windows SIGKILL the actual process.
    pub fn deploy_mode(mut self, mode: DeployMode) -> Self {
        self.deploy_mode = mode;
        self
    }

    /// Replaces the workload profile wholesale.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Tweaks the workload profile in place.
    pub fn workload_with(mut self, f: impl FnOnce(&mut WorkloadConfig)) -> Self {
        f(&mut self.workload);
        self
    }

    /// The run window: an explicit control sequence.
    pub fn control(mut self, control: ControlSequence) -> Self {
        self.control = Some(control);
        self
    }

    /// Shorthand: a constant-rate run window of `rate` tx per one-second
    /// slice for `slices` slices.
    pub fn constant_load(self, rate: u32, slices: usize) -> Self {
        self.control(ControlSequence::constant(
            rate,
            slices,
            Duration::from_secs(1),
        ))
    }

    /// Seeded chaos: generate the fault schedule from `(seed, discovered
    /// targets, run window)` at deploy time.
    pub fn chaos_seeded(mut self, seed: u64) -> Self {
        self.chaos = Some(Chaos::Seeded(seed));
        self
    }

    /// Scripted faults: the plan's node names may be placeholders
    /// (`ingress:0`, `sealer:0`, `rest` in a partition group), resolved
    /// against the deployed topology.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(Chaos::Scripted(plan));
        self
    }

    /// Retry policy for transient submission failures.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Stall watchdog budget (must exceed the SUT's longest quiet gap).
    pub fn stall_budget(mut self, budget: Duration) -> Self {
        self.stall_budget = budget;
        self
    }

    /// How long the driver waits for in-flight transactions after the
    /// last slice.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Monitor poll interval.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// In-flight tracker shard count override.
    pub fn tracker_shards(mut self, shards: usize) -> Self {
        self.tracker_shards = Some(shards);
        self
    }

    /// Runs through the checkpointing driver and kills/resumes at
    /// `kill_at` (crash-during-drain when `kill_at` lands after the last
    /// slice).
    pub fn recover(mut self, interval: Duration, kill_at: Duration) -> Self {
        self.recovery = Some(RecoverySpec { interval, kill_at });
        self
    }

    /// Adds any expectation.
    pub fn expect(mut self, expectation: Expectation) -> Self {
        self.expectations.push(expectation);
        self
    }

    /// Expects at least `min_blocks` sealed blocks/epochs.
    pub fn expect_consensus_liveness(self, min_blocks: u64) -> Self {
        self.expect(Expectation::ConsensusLiveness { min_blocks })
    }

    /// Expects `committed / submitted >= ratio`.
    pub fn expect_min_inclusion(self, ratio: f64) -> Self {
        self.expect(Expectation::MinInclusionRatio {
            ratio,
            overrides: Vec::new(),
        })
    }

    /// Expects the commit-latency `quantile` at or under `bound`.
    pub fn expect_latency_slo(self, quantile: f64, bound: Duration) -> Self {
        self.expect(Expectation::LatencySlo {
            quantile,
            bound,
            overrides: Vec::new(),
        })
    }

    /// Expects the PR 5 report oracle (accounting identity +
    /// fault-window attribution) to pass.
    pub fn expect_accounting_identity(self) -> Self {
        self.expect(Expectation::AccountingIdentity)
    }

    /// Expects the stall watchdog not to fire.
    pub fn expect_no_stall(self) -> Self {
        self.expect(Expectation::NoStall)
    }

    /// Validates the composition against the builtin backend registry
    /// and compiles the driver configuration.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.build_for(&BackendRegistry::builtin())
    }

    /// [`ScenarioBuilder::build`] against a custom registry (e.g. one
    /// with extra backends registered).
    pub fn build_for(self, registry: &BackendRegistry) -> Result<Scenario, ScenarioError> {
        if !registry.names().contains(&self.backend.as_str()) {
            return Err(ScenarioError::UnknownBackend {
                name: self.backend,
                known: registry.names().iter().map(|s| (*s).to_owned()).collect(),
            });
        }
        if !(self.speedup.is_finite() && self.speedup > 0.0) {
            return Err(ScenarioError::Spec(format!(
                "speedup must be positive and finite, got {}",
                self.speedup
            )));
        }
        let mut workload = self.workload.clone();
        workload.chain_name = self.backend.clone();
        workload
            .validate()
            .map_err(|e| ScenarioError::Workload(e.to_string()))?;
        let control = self
            .control
            .clone()
            .ok_or_else(|| ScenarioError::RunWindow("no control sequence set".to_owned()))?;
        if control.is_empty() || control.total() == 0 {
            return Err(ScenarioError::RunWindow(
                "control sequence carries no transactions".to_owned(),
            ));
        }
        if control.total() > MAX_TOTAL {
            return Err(ScenarioError::Spec(format!(
                "control total {} exceeds the {MAX_TOTAL} transactions a run can track",
                control.total()
            )));
        }
        if let Some(deadline) = self.retry.deadline {
            if deadline > control.slice_duration() {
                return Err(ScenarioError::RunWindow(format!(
                    "retry deadline {deadline:?} exceeds the {:?} control slice",
                    control.slice_duration()
                )));
            }
        }
        if let Some(Chaos::Scripted(plan)) = &self.chaos {
            if plan.is_empty() {
                return Err(ScenarioError::Chaos(
                    "scripted chaos with no fault windows".to_owned(),
                ));
            }
            plan.validate()
                .map_err(|e| ScenarioError::Chaos(e.to_string()))?;
        }
        if let Some(recovery) = &self.recovery {
            if recovery.interval.is_zero() {
                return Err(ScenarioError::Recovery(
                    "checkpoint interval must be positive".to_owned(),
                ));
            }
            if recovery.kill_at.is_zero() {
                return Err(ScenarioError::Recovery(
                    "kill_at must be positive (simulated time)".to_owned(),
                ));
            }
        }
        for expectation in &self.expectations {
            validate_expectation(expectation)?;
        }
        // Compile eagerly: a driver-config rejection is a build-time
        // error, not a surprise at run time.
        let eval = compile_eval(&self)?;
        Ok(Scenario {
            eval,
            spec: self,
            workload,
            control,
        })
    }
}

fn validate_expectation(expectation: &Expectation) -> Result<(), ScenarioError> {
    match expectation {
        Expectation::ConsensusLiveness { min_blocks } => {
            if *min_blocks == 0 {
                return Err(ScenarioError::Expectation(
                    "consensus liveness needs min_blocks >= 1".to_owned(),
                ));
            }
        }
        Expectation::MinInclusionRatio { ratio, overrides } => {
            for (scope, r) in std::iter::once((&String::new(), ratio))
                .chain(overrides.iter().map(|(b, r)| (b, r)))
            {
                if !(r.is_finite() && *r > 0.0 && *r <= 1.0) {
                    return Err(ScenarioError::Expectation(format!(
                        "inclusion ratio{} must be in (0, 1], got {r}",
                        if scope.is_empty() {
                            String::new()
                        } else {
                            format!(" for {scope}")
                        }
                    )));
                }
            }
        }
        Expectation::LatencySlo {
            quantile,
            bound,
            overrides,
        } => {
            if !(quantile.is_finite() && *quantile > 0.0 && *quantile < 1.0) {
                return Err(ScenarioError::Expectation(format!(
                    "latency SLO quantile must be in (0, 1), got {quantile}"
                )));
            }
            if bound.is_zero() || overrides.iter().any(|(_, b)| b.is_zero()) {
                return Err(ScenarioError::Expectation(
                    "latency SLO bound must be positive".to_owned(),
                ));
            }
        }
        Expectation::AccountingIdentity | Expectation::NoStall => {}
    }
    Ok(())
}

fn compile_eval(spec: &ScenarioBuilder) -> Result<EvalConfig, ScenarioError> {
    let mut builder = EvalConfig::builder()
        .poll_interval(spec.poll_interval)
        .drain_timeout(spec.drain_timeout)
        .retry(spec.retry)
        .stall_budget(spec.stall_budget);
    if let Some(shards) = spec.tracker_shards {
        builder = builder.tracker_shards(shards);
    }
    builder.build().map_err(ScenarioError::Config)
}

/// Chunk-averages a long trace shape into `slices` buckets, preserving
/// the shape's relative mass per bucket.
fn resample(shape: &[f64], slices: usize) -> Vec<f64> {
    if shape.is_empty() || slices == 0 {
        return Vec::new();
    }
    let chunk = shape.len().div_ceil(slices);
    shape
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// A validated, compiled scenario — build one with [`Scenario::builder`]
/// or parse one from JSON ([`Scenario::from_json`], [`corpus`]).
#[derive(Clone, Debug)]
pub struct Scenario {
    spec: ScenarioBuilder,
    /// Workload with `chain_name` pinned to the target backend.
    workload: WorkloadConfig,
    control: ControlSequence,
    eval: EvalConfig,
}

impl Scenario {
    /// Starts a fluent builder.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The scenario's description.
    pub fn description(&self) -> &str {
        &self.spec.description
    }

    /// The target backend's registry name.
    pub fn backend(&self) -> &str {
        &self.spec.backend
    }

    /// The clock speedup.
    pub fn speedup(&self) -> f64 {
        self.spec.speedup
    }

    /// The deploy mode.
    pub fn deploy_mode(&self) -> DeployMode {
        self.spec.deploy_mode
    }

    /// The validated run window.
    pub fn control(&self) -> &ControlSequence {
        &self.control
    }

    /// The stated expectations.
    pub fn expectations(&self) -> &[Expectation] {
        &self.spec.expectations
    }

    /// Whether the scenario runs through the checkpointing driver.
    pub fn recoverable(&self) -> bool {
        self.spec.recovery.is_some()
    }

    /// The compiled driver configuration (scenarios compile down to the
    /// existing machinery; nothing scenario-specific reaches the driver).
    pub fn eval_config(&self) -> &EvalConfig {
        &self.eval
    }

    /// Decompiles back into a builder (retargeting, tweaking).
    pub fn to_builder(&self) -> ScenarioBuilder {
        self.spec.clone()
    }

    /// Re-aims a scenario at another backend/operating point: swaps the
    /// backend and speedup, scales the run window's total by
    /// `load_scale` (shape preserved), and re-validates. Expectation
    /// overrides keyed by the new backend name take effect at check
    /// time.
    pub fn retarget(
        &self,
        backend: &str,
        speedup: f64,
        load_scale: f64,
    ) -> Result<Scenario, ScenarioError> {
        if !(load_scale.is_finite() && load_scale > 0.0) {
            return Err(ScenarioError::Spec(format!(
                "load scale must be positive and finite, got {load_scale}"
            )));
        }
        let mut spec = self.spec.clone();
        spec.backend = backend.to_owned();
        spec.speedup = speedup;
        let total = (self.control.total() as f64 * load_scale).round().max(1.0) as usize;
        spec.control = Some(self.control.scaled_to_total(total));
        spec.build()
    }

    /// Runs against the builtin registry.
    pub fn run(&self) -> Result<Verdict, ScenarioError> {
        self.run_on(&BackendRegistry::builtin())
    }

    /// Deploys the backend ([`DeployMode::InProcess`] on a fresh
    /// simulated network, [`DeployMode::MultiProcess`] as a supervised
    /// `node-host` OS process behind real TCP), installs the compiled
    /// fault plan, drives the unmodified driver (the checkpointing
    /// variant when a recovery spec is set — including the kill and the
    /// resume), and grades the expectations into a [`Verdict`].
    ///
    /// Teardown is deterministic: the deployment comes down, every node
    /// thread joined, before this returns, so callers can probe for
    /// leaked threads/processes immediately.
    pub fn run_on(&self, registry: &BackendRegistry) -> Result<Verdict, ScenarioError> {
        let clock = SimClock::with_speedup(self.spec.speedup);
        let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
        net.install_obs(Obs::new());
        let deployment = match self.spec.deploy_mode {
            DeployMode::InProcess => registry
                .deploy_on(
                    &self.spec.backend,
                    &BackendOptions::default(),
                    clock,
                    net.clone(),
                )
                .map_err(|e| ScenarioError::UnknownBackend {
                    name: e.name,
                    known: e.known,
                })?,
            DeployMode::MultiProcess => registry
                .deploy_multi(
                    &self.spec.backend,
                    &BackendOptions::default(),
                    clock.clone(),
                    net.clone(),
                    SupervisorConfig::default(),
                    reconnect_policy_for(&self.spec.retry, &clock),
                )
                .map_err(|e| match e {
                    crate::deploy::DeployError::Unknown(u) => ScenarioError::UnknownBackend {
                        name: u.name,
                        known: u.known,
                    },
                    other => ScenarioError::Deploy(other.to_string()),
                })?,
        };
        let run = self.run_deployed(&deployment, &net);
        let process_faults = deployment.supervisor().map(|s| s.stats());
        // Deterministic teardown, success or error: Drop shuts the SUT
        // (and any node process) down and joins its threads.
        drop(deployment);
        let (report, checks) = run?;
        Ok(Verdict {
            scenario: self.spec.name.clone(),
            backend: self.spec.backend.clone(),
            stalled: report.stalled,
            process_faults,
            checks,
            report,
        })
    }

    /// The deploy-to-grade middle of [`Scenario::run_on`], factored out
    /// so teardown runs on every exit path.
    fn run_deployed(
        &self,
        deployment: &Deployment,
        net: &SimNetwork,
    ) -> Result<(EvalReport, Vec<InvariantCheck>), ScenarioError> {
        let targets = ChaosTargets::new(
            deployment.chain().ingress_nodes(),
            deployment.chain().sealer_nodes(),
        );
        let plan = match &self.spec.chaos {
            None => None,
            Some(Chaos::Seeded(seed)) => {
                Some(chaos::generate(*seed, &targets, self.control.duration()))
            }
            Some(Chaos::Scripted(written)) => Some(
                written
                    .resolve(&targets, &net.endpoint_names())
                    .map_err(|e| ScenarioError::Chaos(e.to_string()))?,
            ),
        };
        if let Some(plan) = &plan {
            deployment
                .install_faults(plan.clone())
                .map_err(ScenarioError::Chaos)?;
        }

        let report = self.drive(deployment)?;

        let progress = deployment.chain().progress_mark();
        let obs = net.obs();
        let mut checks = Vec::new();
        for expectation in &self.spec.expectations {
            self.grade(
                expectation,
                &report,
                plan.as_ref(),
                progress,
                &obs,
                &mut checks,
            );
        }
        // A property of any run, not an expectation a spec opts into.
        checks.push(check_journal(&obs.journal().events()));
        Ok((report, checks))
    }

    fn drive(&self, deployment: &Deployment) -> Result<EvalReport, ScenarioError> {
        let evaluation = Evaluation::new(self.eval.clone());
        match &self.spec.recovery {
            None => evaluation
                .run(deployment, &self.workload, &self.control)
                .map_err(ScenarioError::Config),
            Some(spec) => {
                let store = Arc::new(KvStore::new());
                let run_id = format!("scenario-{}", self.spec.name);
                let first = RecoveryConfig::new(Arc::clone(&store), &run_id, spec.interval)
                    .kill_at(spec.kill_at);
                match evaluation.run_recoverable(deployment, &self.workload, &self.control, &first)
                {
                    // The cooperative kill landed: resume from the
                    // checkpoint and let the resumed run finish.
                    Err(EvalError::Killed) => {
                        let resume = RecoveryConfig::new(store, &run_id, spec.interval);
                        evaluation
                            .run_recoverable(deployment, &self.workload, &self.control, &resume)
                            .map_err(ScenarioError::Config)
                    }
                    // `kill_at` can land after the run completed — still
                    // a valid (un-killed) recoverable run.
                    other => other.map_err(ScenarioError::Config),
                }
            }
        }
    }

    fn grade(
        &self,
        expectation: &Expectation,
        report: &EvalReport,
        plan: Option<&FaultPlan>,
        progress: u64,
        obs: &Obs,
        checks: &mut Vec<InvariantCheck>,
    ) {
        match expectation {
            Expectation::ConsensusLiveness { min_blocks } => {
                let detail = format!("sealed {progress} blocks/epochs (need >= {min_blocks})");
                checks.push(if progress >= *min_blocks {
                    InvariantCheck::pass("consensus_liveness", detail)
                } else {
                    InvariantCheck::fail("consensus_liveness", detail)
                });
            }
            Expectation::MinInclusionRatio { ratio, overrides } => {
                let floor = overrides
                    .iter()
                    .find(|(b, _)| *b == self.spec.backend)
                    .map(|(_, r)| *r)
                    .unwrap_or(*ratio);
                if report.submitted == 0 {
                    checks.push(InvariantCheck::fail(
                        "min_inclusion",
                        "no transactions were submitted",
                    ));
                    return;
                }
                let observed = report.committed as f64 / report.submitted as f64;
                let detail = format!(
                    "{}/{} committed = {observed:.3} (need >= {floor:.3})",
                    report.committed, report.submitted
                );
                checks.push(if observed >= floor {
                    InvariantCheck::pass("min_inclusion", detail)
                } else {
                    InvariantCheck::fail("min_inclusion", detail)
                });
            }
            Expectation::LatencySlo {
                quantile,
                bound,
                overrides,
            } => {
                let bound = overrides
                    .iter()
                    .find(|(b, _)| *b == self.spec.backend)
                    .map(|(_, d)| *d)
                    .unwrap_or(*bound);
                let histogram = obs.spans().histogram(Stage::InBlock);
                if histogram.count() == 0 {
                    checks.push(InvariantCheck::fail(
                        "latency_slo",
                        "no commit-latency samples in the InBlock histogram",
                    ));
                    return;
                }
                let observed = Duration::from_nanos(histogram.snapshot().quantile(*quantile));
                let detail = format!(
                    "p{:.0} = {:.3}s over {} samples (need <= {:.3}s, simulated time)",
                    quantile * 100.0,
                    observed.as_secs_f64(),
                    histogram.count(),
                    bound.as_secs_f64()
                );
                checks.push(if observed <= bound {
                    InvariantCheck::pass("latency_slo", detail)
                } else {
                    InvariantCheck::fail("latency_slo", detail)
                });
            }
            Expectation::AccountingIdentity => {
                checks.extend(check_report(report, plan));
            }
            Expectation::NoStall => {
                let journaled = obs.journal().count_of(EventKind::Stalled);
                checks.push(if report.stalled || journaled > 0 {
                    InvariantCheck::fail(
                        "no_stall",
                        format!(
                            "watchdog aborted (flag={}, {journaled} journal events), {} timed out",
                            report.stalled, report.timed_out
                        ),
                    )
                } else {
                    InvariantCheck::pass("no_stall", "run completed without a watchdog abort")
                });
            }
        }
    }

    /// Parses a scenario from its JSON spec (the corpus format) and
    /// validates it.
    pub fn from_json(spec: &str) -> Result<Scenario, ScenarioError> {
        Self::builder_from_json(spec)?.build()
    }

    /// Parses the JSON spec into a builder without validating the
    /// composition — callers can tweak (retarget, rescale) before
    /// `build()`. The spec itself is outside input and is read strictly:
    /// a key the format does not define, or a value that does not fit its
    /// field, is [`ScenarioError::Spec`], never a silent default.
    pub fn builder_from_json(spec: &str) -> Result<ScenarioBuilder, ScenarioError> {
        let value =
            Value::parse(spec).map_err(|e| ScenarioError::Spec(format!("bad JSON: {e:?}")))?;
        known_keys(
            &value,
            "the scenario",
            &[
                "name",
                "description",
                "backend",
                "speedup",
                "deploy_mode",
                "workload",
                "control",
                "retry",
                "stall_budget_s",
                "drain_timeout_s",
                "poll_interval_ms",
                "tracker_shards",
                "chaos",
                "recovery",
                "expectations",
            ],
        )?;
        let mut builder = Scenario::builder(req(&value, "name", Value::as_str)?);
        if let Some(d) = opt(&value, "description", Value::as_str)? {
            builder = builder.describe(d);
        }
        builder = builder.backend(req(&value, "backend", Value::as_str)?);
        if let Some(s) = opt(&value, "speedup", Value::as_f64)? {
            builder = builder.speedup(s);
        }
        if let Some(m) = opt(&value, "deploy_mode", Value::as_str)? {
            let mode = DeployMode::parse(m).ok_or_else(|| {
                ScenarioError::Spec(format!(
                    "unknown deploy_mode {m:?} (want \"in_process\" or \"multi_process\")"
                ))
            })?;
            builder = builder.deploy_mode(mode);
        }
        if let Some(w) = value.get("workload") {
            builder.workload = WorkloadConfig::from_json(w, builder.workload)
                .map_err(|e| ScenarioError::Spec(e.to_string()))?;
        }
        builder = builder.control(parse_control(req(&value, "control", Some)?)?);
        if let Some(r) = value.get("retry") {
            builder = builder.retry(parse_retry(r)?);
        }
        if let Some(budget) = opt(&value, "stall_budget_s", secs)? {
            builder = builder.stall_budget(budget);
        }
        if let Some(timeout) = opt(&value, "drain_timeout_s", secs)? {
            builder = builder.drain_timeout(timeout);
        }
        if let Some(interval) = opt(&value, "poll_interval_ms", millis)? {
            builder = builder.poll_interval(interval);
        }
        if let Some(n) = opt(&value, "tracker_shards", uint)? {
            builder = builder.tracker_shards(n);
        }
        if let Some(c) = value.get("chaos") {
            builder.chaos = Some(parse_chaos(c)?);
        }
        if let Some(r) = value.get("recovery") {
            known_keys(r, "recovery", &["interval_ms", "kill_at_ms"])?;
            builder = builder.recover(
                req(r, "interval_ms", millis)?,
                req(r, "kill_at_ms", millis)?,
            );
        }
        for e in opt(&value, "expectations", Value::as_array)?.unwrap_or_default() {
            builder = builder.expect(parse_expectation(e)?);
        }
        Ok(builder)
    }
}

/// Rejects a key of the object `value` that the format does not define:
/// a typo (`stall_budget` for `stall_budget_s`) must not run with the
/// default and pass its gate vacuously.
fn known_keys(value: &Value, at: &str, keys: &[&str]) -> Result<(), ScenarioError> {
    let Value::Object(pairs) = value else {
        return Err(ScenarioError::Spec(format!("{at} must be an object")));
    };
    match pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((key, _)) => Err(ScenarioError::Spec(format!("unknown key {key:?} in {at}"))),
        None => Ok(()),
    }
}

/// Reads `key` if present; a value `read` refuses is an error.
fn opt<'a, T>(
    value: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, ScenarioError> {
    let bad = |f: &Value| ScenarioError::Spec(format!("bad {key:?}: {}", f.to_json()));
    value
        .get(key)
        .map(|f| read(f).ok_or_else(|| bad(f)))
        .transpose()
}

/// [`opt`] for a key the format requires.
fn req<'a, T>(
    value: &'a Value,
    key: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, ScenarioError> {
    opt(value, key, read)?.ok_or_else(|| ScenarioError::Spec(format!("missing {key:?}")))
}

/// A non-negative integer that fits `T`.
fn uint<T: TryFrom<u64>>(f: &Value) -> Option<T> {
    T::try_from(f.as_u64()?).ok()
}

fn millis(f: &Value) -> Option<Duration> {
    f.as_u64().map(Duration::from_millis)
}

fn secs(f: &Value) -> Option<Duration> {
    Duration::try_from_secs_f64(f.as_f64()?).ok()
}

fn parse_control(value: &Value) -> Result<ControlSequence, ScenarioError> {
    known_keys(
        value,
        "control",
        &[
            "shape", "slices", "slice_ms", "rate", "from", "to", "trace", "total", "seed",
            "budgets",
        ],
    )?;
    let slice = opt(value, "slice_ms", millis)?.unwrap_or(Duration::from_secs(1));
    if slice.is_zero() {
        return Err(ScenarioError::Spec("slice_ms must be positive".to_owned()));
    }
    let slices: usize = opt(value, "slices", uint)?.unwrap_or(10);
    if slices > MAX_SLICES {
        return Err(ScenarioError::Spec(format!(
            "slices {slices} exceeds the {MAX_SLICES} a run window may have"
        )));
    }
    match req(value, "shape", Value::as_str)? {
        "constant" => Ok(ControlSequence::constant(
            req(value, "rate", uint)?,
            slices,
            slice,
        )),
        "ramp" => {
            if slices == 0 {
                return Err(ScenarioError::Spec(
                    "ramp needs at least one slice".to_owned(),
                ));
            }
            let from = opt(value, "from", uint)?.unwrap_or(0);
            Ok(ControlSequence::ramp(
                from,
                req(value, "to", uint)?,
                slices,
                slice,
            ))
        }
        "trace" => {
            let kind = match req(value, "trace", Value::as_str)? {
                "defi" => TraceKind::DeFi,
                "nft" => TraceKind::Nft,
                "sandbox" => TraceKind::Sandbox,
                other => {
                    return Err(ScenarioError::Spec(format!("unknown trace {other:?}")));
                }
            };
            let total = req(value, "total", uint)?;
            let seed = opt(value, "seed", uint)?.unwrap_or(7);
            let shape = resample(&TraceSpec::paper(kind, seed).generate(), slices);
            Ok(ControlSequence::from_trace(&shape, total, slice))
        }
        "budgets" => {
            let budgets = req(value, "budgets", |list| {
                list.as_array()?.iter().map(uint).collect()
            })?;
            Ok(ControlSequence::from_budgets(budgets, slice))
        }
        other => Err(ScenarioError::Spec(format!(
            "unknown control shape {other:?}"
        ))),
    }
}

fn parse_retry(value: &Value) -> Result<RetryPolicy, ScenarioError> {
    let preset = match value.as_str() {
        Some(preset) => preset,
        None => {
            known_keys(value, "retry", &["preset"])?;
            req(value, "preset", Value::as_str)?
        }
    };
    match preset {
        "standard" => Ok(RetryPolicy::standard()),
        "disabled" => Ok(RetryPolicy::disabled()),
        other => Err(ScenarioError::Spec(format!(
            "unknown retry preset {other:?}"
        ))),
    }
}

fn parse_chaos(value: &Value) -> Result<Chaos, ScenarioError> {
    if value.get("faults").is_some() {
        let plan = FaultPlan::from_value(value).map_err(ScenarioError::Spec)?;
        return Ok(Chaos::Scripted(plan));
    }
    known_keys(value, "seeded chaos", &["seed"])?;
    Ok(Chaos::Seeded(req(value, "seed", uint)?))
}

fn parse_expectation(value: &Value) -> Result<Expectation, ScenarioError> {
    known_keys(
        value,
        "an expectation",
        &[
            "kind",
            "min_blocks",
            "ratio",
            "quantile",
            "max_ms",
            "overrides",
        ],
    )?;
    match req(value, "kind", Value::as_str)? {
        "consensus_liveness" => Ok(Expectation::ConsensusLiveness {
            min_blocks: opt(value, "min_blocks", uint)?.unwrap_or(1),
        }),
        "min_inclusion" => Ok(Expectation::MinInclusionRatio {
            ratio: req(value, "ratio", Value::as_f64)?,
            overrides: parse_overrides(value, Value::as_f64)?,
        }),
        "latency_slo" => Ok(Expectation::LatencySlo {
            quantile: req(value, "quantile", Value::as_f64)?,
            bound: req(value, "max_ms", millis)?,
            overrides: parse_overrides(value, millis)?,
        }),
        "accounting_identity" => Ok(Expectation::AccountingIdentity),
        "no_stall" => Ok(Expectation::NoStall),
        other => Err(ScenarioError::Spec(format!(
            "unknown expectation kind {other:?}"
        ))),
    }
}

fn parse_overrides<T>(
    value: &Value,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<(String, T)>, ScenarioError> {
    let Some(overrides) = value.get("overrides") else {
        return Ok(Vec::new());
    };
    let Value::Object(pairs) = overrides else {
        return Err(ScenarioError::Spec(
            "overrides must map backend names to values".to_owned(),
        ));
    };
    pairs
        .iter()
        .map(|(backend, v)| {
            read(v)
                .map(|t| (backend.clone(), t))
                .ok_or_else(|| ScenarioError::Spec(format!("bad override value for {backend:?}")))
        })
        .collect()
}

/// The graded outcome of one scenario run: per-expectation pass/fail
/// with evidence, plus the full driver report it was graded from.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The scenario's name.
    pub scenario: String,
    /// The backend it ran against.
    pub backend: String,
    /// Whether the stall watchdog aborted the run.
    pub stalled: bool,
    /// Node-process lifecycle stats (SIGKILLs delivered for crash
    /// windows, supervisor restarts); `None` for in-process runs.
    pub process_faults: Option<ProcessFaultStats>,
    /// One evidence row per graded expectation (the oracle-backed
    /// expectations contribute several), then the `journal_monotonicity`
    /// row every run carries.
    pub checks: Vec<InvariantCheck>,
    /// The driver report the grades were read from.
    pub report: EvalReport,
}

impl Verdict {
    /// Whether every expectation held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failing checks.
    pub fn violations(&self) -> Vec<&InvariantCheck> {
        self.checks.iter().filter(|c| !c.passed).collect()
    }

    /// Serialises the verdict (checks + the record-free report) as one
    /// JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// The verdict as a JSON value (what [`Verdict::to_json`] serialises;
    /// a sweep embeds it in its results matrix).
    pub fn to_value(&self) -> Value {
        let checks = self.checks.iter().map(InvariantCheck::to_value);
        let mut fields = vec![
            ("scenario", Value::from(self.scenario.as_str())),
            ("backend", Value::from(self.backend.as_str())),
            ("passed", Value::from(self.passed())),
            ("stalled", Value::from(self.stalled)),
        ];
        if let Some(stats) = &self.process_faults {
            fields.push((
                "process_faults",
                Value::object([
                    ("kills", Value::from(stats.kills)),
                    ("restarts", Value::from(stats.restarts)),
                ]),
            ));
        }
        fields.push(("checks", Value::Array(checks.collect())));
        fields.push(("report", self.report.to_value()));
        Value::object(fields)
    }
}

/// The shipped scenario corpus — eight JSON specs under `scenarios/` at
/// the repository root, embedded as data and runnable by name.
pub mod corpus {
    use super::{Scenario, ScenarioError};

    /// Name → embedded JSON spec.
    pub const SPECS: &[(&str, &str)] = &[
        (
            "nft-flash-crowd-mint",
            include_str!("../../../scenarios/nft_flash_crowd_mint.json"),
        ),
        (
            "defi-liquidation-cascade",
            include_str!("../../../scenarios/defi_liquidation_cascade.json"),
        ),
        (
            "partition-then-heal",
            include_str!("../../../scenarios/partition_then_heal.json"),
        ),
        (
            "cross-shard-hotspot",
            include_str!("../../../scenarios/cross_shard_hotspot.json"),
        ),
        (
            "slow-loris-ingress",
            include_str!("../../../scenarios/slow_loris_ingress.json"),
        ),
        (
            "crash-during-drain",
            include_str!("../../../scenarios/crash_during_drain.json"),
        ),
        (
            "ingress-blackhole",
            include_str!("../../../scenarios/ingress_blackhole.json"),
        ),
        (
            "crash-restart",
            include_str!("../../../scenarios/crash_restart.json"),
        ),
    ];

    /// Every corpus scenario name, in ship order.
    pub fn names() -> Vec<&'static str> {
        SPECS.iter().map(|(n, _)| *n).collect()
    }

    /// The raw JSON spec for `name`.
    pub fn spec(name: &str) -> Option<&'static str> {
        SPECS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }

    /// Parses and validates the corpus scenario `name`.
    pub fn load(name: &str) -> Result<Scenario, ScenarioError> {
        let spec = spec(name).ok_or_else(|| {
            ScenarioError::Spec(format!(
                "unknown corpus scenario {name:?} (known: {})",
                names().join(", ")
            ))
        })?;
        Scenario::from_json(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each corpus scenario that scripts faults resolves, on each builtin
    /// backend, to the windows the scenario layer's own resolver compiled
    /// at PR 21 (label, start, end, fault — captured on that commit,
    /// before `FaultPlan::resolve` replaced it): placeholders are
    /// backend-agnostic, `rest` is the whole registered topology, and
    /// `ingress:0` and `sealer:0` — two nodes on most chains, one on a
    /// single-node chain — crashed over one interval are one window there.
    #[test]
    fn corpus_faults_resolve_the_same_on_every_backend() {
        let (from, to) = (Duration::from_secs(3), Duration::from_secs(5));
        let spike = Duration::from_millis(500);
        // (backend, ingress:0, sealer:0, every other endpoint)
        let chains: [(&str, &str, &str, &[&str]); 4] = [
            (
                "ethereum-sim",
                "eth-node-0",
                "eth-node-0",
                &["eth-node-1", "eth-node-2", "eth-node-3", "eth-node-4"],
            ),
            (
                "fabric-sim",
                "fabric-peer-0",
                "fabric-orderer",
                &["fabric-peer-1", "fabric-peer-2", "fabric-peer-3"],
            ),
            (
                "meepo-sim",
                "meepo-s0-node-0",
                "meepo-s0-node-0",
                &[
                    "meepo-s0-node-1",
                    "meepo-s0-node-2",
                    "meepo-s1-node-0",
                    "meepo-s1-node-1",
                    "meepo-s1-node-2",
                ],
            ),
            (
                "neuchain-sim",
                "neuchain-client-proxy",
                "neuchain-epoch-server",
                &[
                    "neuchain-block-server-0",
                    "neuchain-block-server-1",
                    "neuchain-block-server-2",
                ],
            ),
        ];
        let registry = BackendRegistry::builtin();
        assert_eq!(registry.names(), chains.map(|c| c.0));
        for (backend, ingress, sealer, others) in chains {
            // What `rest` is once `sealer:0` is named, in endpoint order.
            let mut rest: Vec<&str> = others.to_vec();
            if ingress != sealer {
                rest.push(ingress);
                rest.sort_unstable();
            }
            let crashes = FaultPlan::new().crash(ingress, from, to);
            let golden = [
                (
                    "crash-restart",
                    if ingress == sealer {
                        crashes
                    } else {
                        crashes.crash(sealer, from, to)
                    },
                ),
                (
                    "ingress-blackhole",
                    FaultPlan::new().blackhole(ingress, from, to),
                ),
                (
                    "partition-then-heal",
                    FaultPlan::new().partition(
                        &[&[sealer], &rest],
                        Duration::from_secs(3),
                        Duration::from_secs(6),
                    ),
                ),
                (
                    "slow-loris-ingress",
                    FaultPlan::new().latency_spike_on(
                        ingress,
                        spike,
                        Duration::from_secs(2),
                        Duration::from_secs(8),
                    ),
                ),
            ];
            let deployment = registry
                .deploy(backend, &BackendOptions::default(), 1000.0)
                .expect("registered backend");
            let targets = ChaosTargets::new(
                deployment.chain().ingress_nodes(),
                deployment.chain().sealer_nodes(),
            );
            for (name, expected) in golden {
                let authored = corpus::load(name).expect("corpus scenario");
                let scenario = authored.retarget(backend, 1000.0, 1.0).expect("retarget");
                let Some(Chaos::Scripted(written)) = &scenario.spec.chaos else {
                    panic!("{name} scripts its faults");
                };
                let plan = written
                    .resolve(&targets, &deployment.net().endpoint_names())
                    .unwrap_or_else(|e| panic!("{name} on {backend}: {e}"));
                assert_eq!(plan, expected, "{name} on {backend}");
                deployment
                    .install_faults(plan)
                    .unwrap_or_else(|e| panic!("{name} on {backend}: {e}"));
            }
        }
    }

    /// The seeded form carries a seed and nothing else: the generator has
    /// no options for a spec to set.
    #[test]
    fn seeded_chaos_spec_is_a_seed() {
        let spec = |chaos: &str| {
            format!(
                r#"{{"name": "seeded", "backend": "neuchain-sim",
                    "control": {{"shape": "constant", "rate": 10, "slices": 2}},
                    "chaos": {chaos}}}"#
            )
        };
        let scenario = Scenario::from_json(&spec(r#"{"seed": 7}"#)).expect("loads");
        assert_eq!(scenario.spec.chaos, Some(Chaos::Seeded(7)));
        for refused in [r#"{"seed": 7, "max_windows": 2}"#, r#"{"seed": -1}"#, "{}"] {
            let err = Scenario::from_json(&spec(refused)).unwrap_err();
            assert!(matches!(err, ScenarioError::Spec(_)), "{refused}: {err:?}");
        }
    }
}
