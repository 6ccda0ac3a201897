//! The evaluation driver: preparation → execution → report (Fig. 3).
//!
//! [`Evaluation::run`] takes a deployed SUT, a workload profile, and a
//! temporal control sequence, and produces an [`EvalReport`]:
//!
//! 1. **Preparation** — seed the account fixtures, then generate the
//!    unsigned transactions and sign them with the configured strategy
//!    ([`SigningStrategy`]). Generation streams: a thread keeps a few
//!    32 Ki-transaction segments ahead of the signers, so with
//!    [`SigningStrategy::Pipelined`] the execution phase starts while
//!    generation and signing are still running (§III-D2).
//! 2. **Execution** — `clients × threads` submission workers drain the
//!    signed-transaction stream under the control sequence's per-slice
//!    budgets, each paying the modelled client-machine cost per
//!    submission. A monitor tracks commitment according to the
//!    [`TestingMode`]:
//!    * [`TestingMode::TaskProcessing`] — Hammer's Algorithm 1: poll for
//!      new blocks, take the *block timestamp* as the end time, and match
//!      via the Bloom-filtered dynamic hash index (O(1) per transaction).
//!    * [`TestingMode::BatchBaseline`] — Blockbench-style batch testing:
//!      same polling, but the end time is the *poll* time (the latency
//!      skew ξ1 of §II-C1) and matching linearly scans the unconfirmed
//!      queue (O(n·m)).
//!    * [`TestingMode::Interactive`] — Caliper-style: subscribe to
//!      per-transaction commit events; every event costs listener CPU on
//!      the client machine (the resource drain the paper blames for
//!      Caliper's lower reported TPS in Fig. 7).
//! 3. **Report** — the [`EvalReport`]'s aggregates are folded straight
//!    from the tracker's records ([`hammer_store::table::summarize`]): the
//!    records *are* the run's Performance table. [`perf_row`] turns one
//!    into a [`hammer_store::PerfRow`]; `examples/performance_table.rs`
//!    rebuilds the table from [`EvalReport::records`] that way and asks it
//!    Table II's two statements.
//!
//! The code is cut along the same lines: one submodule per stage
//! (`prepare`, `submit` — pacer and workers —, `monitor`, `report`), each
//! owning its state, all borrowing one `RunState`, joined by bounded
//! hand-offs that move work in chunks: unsigned segments from generator to
//! signers, a chunked signed stream from signers to workers, a token counter
//! from pacer to workers. `DESIGN.md` §5 has the stage table.

#![warn(clippy::too_many_lines)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hammer_chain::client::ChainError;
use hammer_workload::{ControlSequence, WorkloadConfig};

use crate::checkpoint::{checkpoint_key, RecoveryConfig};
use crate::deploy::Deployment;
use crate::machine::ClientMachine;
use crate::retry::RetryPolicy;
use crate::shard::ShardedTxTable;

mod monitor;
mod prepare;
mod report;
mod submit;
mod tracker;

pub use report::{perf_row, EvalReport, FaultWindowStats};

use monitor::Monitor;
use report::Finished;
use submit::{Submitter, Tokens};
use tracker::{BatchTracker, Tracker};

/// How commitment is observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestingMode {
    /// Hammer's asynchronous task processing (Algorithm 1).
    TaskProcessing,
    /// Blockbench-style batch testing (O(n·m) queue matching, poll-time
    /// end times).
    BatchBaseline,
    /// Caliper-style interactive testing (per-transaction event
    /// listening).
    Interactive,
}

/// How the workload is signed (§III-D, Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningStrategy {
    /// One thread, then execute (Fig. 4a).
    Serial,
    /// Thread pool, wait for all, then execute (Fig. 4b).
    Async,
    /// Thread pool streaming into execution (Fig. 4c).
    Pipelined,
}

/// Driver configuration.
///
/// Construct with [`EvalConfig::builder`], the only way in: the builder
/// validates as it builds, so an invalid combination fails at
/// construction instead of deep inside [`Evaluation::run`]. The fields
/// are crate-private — the deprecation cycle that kept them public for
/// struct-literal construction is over.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Commitment-observation mode.
    pub(crate) mode: TestingMode,
    /// Signing strategy.
    pub(crate) signing: SigningStrategy,
    /// Signer thread-pool size for the async/pipelined strategies.
    pub(crate) signer_threads: usize,
    /// The modelled client machine.
    pub(crate) machine: ClientMachine,
    /// Block-polling interval in simulated time (ξ1: large intervals skew
    /// batch-baseline latency; small intervals burn CPU).
    pub(crate) poll_interval: Duration,
    /// How long (simulated) to keep monitoring after the last submission
    /// before declaring the stragglers timed out.
    pub(crate) drain_timeout: Duration,
    /// Interactive mode: listener CPU cost per commit event.
    pub(crate) listen_cost: Duration,
    /// Interactive mode: how many undelivered commit events the client
    /// SDK buffers before the transport drops them (the paper's "loss of
    /// response information ... under heavy load").
    pub(crate) event_buffer: usize,
    /// Resilient-submission policy: how workers retry transient failures
    /// (crashed/blackholed nodes, mempool backpressure). The default is
    /// [`RetryPolicy::disabled`], which reproduces the pre-fault driver
    /// exactly: one attempt per transaction.
    pub(crate) retry: RetryPolicy,
    /// Stall watchdog: abort the run gracefully when no progress (no
    /// submissions, retries, completions, or sealed blocks) is observed
    /// for this much simulated time while transactions are pending.
    /// `None` (the default) disables the watchdog.
    pub(crate) stall_budget: Option<Duration>,
    /// Shard count for the in-flight tracker (task-processing modes).
    /// `None` (the default) sizes it to the host's available parallelism;
    /// an explicit value is rounded up to a power of two. `1` reproduces
    /// the single-lock tracker exactly.
    pub(crate) tracker_shards: Option<usize>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            mode: TestingMode::TaskProcessing,
            signing: SigningStrategy::Pipelined,
            signer_threads: 4,
            machine: ClientMachine::paper_client(),
            poll_interval: Duration::from_millis(100),
            drain_timeout: Duration::from_secs(60),
            listen_cost: Duration::from_micros(400),
            event_buffer: 1_000,
            retry: RetryPolicy::disabled(),
            stall_budget: None,
            tracker_shards: None,
        }
    }
}

impl EvalConfig {
    /// A validating builder seeded with the defaults.
    pub fn builder() -> EvalConfigBuilder {
        EvalConfigBuilder {
            config: EvalConfig::default(),
        }
    }

    /// Every check that needs nothing but the configuration itself. The
    /// builder runs it at construction and every run runs it again as a
    /// second line of defence.
    fn validate(&self) -> Result<(), EvalError> {
        if self.signer_threads == 0 {
            return invalid("signer_threads must be non-zero");
        }
        if self.poll_interval.is_zero() {
            return invalid("poll_interval must be positive");
        }
        if self.stall_budget.is_some_and(|b| b.is_zero()) {
            return invalid("stall_budget must be positive");
        }
        if self
            .tracker_shards
            .is_some_and(|n| !(1..=4096).contains(&n))
        {
            return invalid("tracker_shards must be in 1..=4096");
        }
        self.machine.validate().map_err(EvalError::InvalidConfig)?;
        self.retry.validate().map_err(EvalError::InvalidConfig)
    }
}

/// Builder for [`EvalConfig`]. Every setter takes and returns `self`;
/// [`EvalConfigBuilder::build`] validates the combination (non-zero signer
/// threads and poll interval, a sane client machine, a coherent retry
/// policy) so an invalid configuration fails at construction instead of
/// deep inside [`Evaluation::run`]. Cross-argument checks that need the
/// control sequence (non-empty budget, retry deadline within the slice
/// length) still happen in `run`, which also repeats the builder's.
#[derive(Clone, Debug)]
pub struct EvalConfigBuilder {
    config: EvalConfig,
}

impl EvalConfigBuilder {
    /// Commitment-observation mode.
    pub fn mode(mut self, mode: TestingMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Signing strategy.
    pub fn signing(mut self, signing: SigningStrategy) -> Self {
        self.config.signing = signing;
        self
    }

    /// Signer thread-pool size (must be non-zero).
    pub fn signer_threads(mut self, threads: usize) -> Self {
        self.config.signer_threads = threads;
        self
    }

    /// The modelled client machine.
    pub fn machine(mut self, machine: ClientMachine) -> Self {
        self.config.machine = machine;
        self
    }

    /// Block-polling interval in simulated time (must be non-zero).
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.config.poll_interval = interval;
        self
    }

    /// Post-submission monitoring window before stragglers time out.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.config.drain_timeout = timeout;
        self
    }

    /// Interactive mode: listener CPU cost per commit event.
    pub fn listen_cost(mut self, cost: Duration) -> Self {
        self.config.listen_cost = cost;
        self
    }

    /// Interactive mode: SDK event-buffer depth.
    pub fn event_buffer(mut self, depth: usize) -> Self {
        self.config.event_buffer = depth;
        self
    }

    /// Resilient-submission retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Enables the stall watchdog: the run aborts gracefully (with a
    /// complete report, `stalled` set) when no progress is observed for
    /// `budget` of simulated time while transactions are pending. Size
    /// the budget comfortably above the chain's block interval and the
    /// longest scripted fault window, or healthy-but-slow runs will be
    /// declared stalled.
    pub fn stall_budget(mut self, budget: Duration) -> Self {
        self.config.stall_budget = Some(budget);
        self
    }

    /// Shard count for the in-flight tracker (must be in `1..=4096`;
    /// rounded up to a power of two). The default sizes the tracker to
    /// the host's available parallelism; `1` pins the single-lock
    /// tracker, which is the baseline arm of the `driver_ceiling` bench.
    pub fn tracker_shards(mut self, shards: usize) -> Self {
        self.config.tracker_shards = Some(shards);
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<EvalConfig, EvalError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Driver failure.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// A configuration did not validate.
    InvalidConfig(String),
    /// The SUT failed.
    Chain(ChainError),
    /// The driver was killed mid-run by [`RecoveryConfig::kill_at`]. The
    /// last periodic checkpoint survives in the recovery store; calling
    /// [`Evaluation::run_recoverable`] again with the same run id resumes
    /// from it.
    Killed,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EvalError::Chain(e) => write!(f, "chain error: {e}"),
            EvalError::Killed => write!(f, "driver killed mid-run (checkpoint retained)"),
        }
    }
}

impl std::error::Error for EvalError {}

fn invalid<T>(complaint: &str) -> Result<T, EvalError> {
    Err(EvalError::InvalidConfig(complaint.to_owned()))
}

/// The one piece of state every execution stage borrows; everything else
/// a stage needs, it owns.
struct RunState {
    tracker: Box<dyn Tracker>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    retried: AtomicU64,
    /// Graceful-abort plumbing: the stall watchdog, the kill switch and a
    /// failed monitor raise `abort`; the pacer and the workers poll it and
    /// wind down, leaving in-flight transactions to be reported as timed
    /// out.
    abort: AtomicBool,
    stalled: AtomicBool,
    killed: AtomicBool,
    /// Set once, when the last worker has exited: submission is done, and
    /// the monitor stops waiting for stragglers at this simulated time.
    drain_deadline: OnceLock<Duration>,
}

impl RunState {
    fn new(config: &EvalConfig, total: usize) -> Self {
        // Auto shard count: one per available core, capped — more shards
        // than threads only shrinks the per-shard index.
        let shards = config.tracker_shards.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(256)
        });
        RunState {
            tracker: match config.mode {
                TestingMode::BatchBaseline => Box::new(BatchTracker::new()),
                _ => Box::new(ShardedTxTable::new(shards, total)),
            },
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            abort: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            drain_deadline: OnceLock::new(),
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }
}

/// What the caller hands a run.
struct Inputs<'a> {
    deployment: &'a Deployment,
    workload: &'a WorkloadConfig,
    control: &'a ControlSequence,
    recovery: Option<&'a RecoveryConfig>,
}

/// The evaluation orchestrator.
#[derive(Clone, Debug)]
pub struct Evaluation {
    config: EvalConfig,
}

impl Evaluation {
    /// Creates an evaluation with the given driver configuration.
    pub fn new(config: EvalConfig) -> Self {
        Evaluation { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Runs the full preparation → execution → report flow.
    pub fn run(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
    ) -> Result<EvalReport, EvalError> {
        self.execute(deployment, workload, control, None)
    }

    /// Runs like [`Evaluation::run`], but periodically snapshots the
    /// driver's state (tracker records, counters, monitor heights) into
    /// `recovery.store`. If a checkpoint for `recovery.run_id` already
    /// exists there, the run *resumes* from it instead of starting over:
    /// checkpointed transactions are filtered out of the signed stream,
    /// the tracker and counters are restored, and the monitor rescans the
    /// chain from the checkpointed block heights — so a driver killed
    /// mid-run picks up where its last snapshot left off and the final
    /// report accounts for every transaction exactly once. The checkpoint
    /// is deleted when the run completes.
    ///
    /// Restricted to [`TestingMode::TaskProcessing`]: the batch baseline's
    /// unconfirmed queue and the interactive mode's event subscription are
    /// not snapshot-able.
    pub fn run_recoverable(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
        recovery: &RecoveryConfig,
    ) -> Result<EvalReport, EvalError> {
        if self.config.mode != TestingMode::TaskProcessing {
            return invalid("recoverable runs require TestingMode::TaskProcessing");
        }
        if recovery.interval.is_zero() {
            return invalid("checkpoint interval must be positive");
        }
        self.execute(deployment, workload, control, Some(recovery))
    }

    /// The one run path: Prepare, then Pacer + Submit workers + Monitor
    /// side by side, then Report.
    fn execute(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
        recovery: Option<&RecoveryConfig>,
    ) -> Result<EvalReport, EvalError> {
        let wall_start = Instant::now();
        let config = &self.config;
        let inputs = Inputs {
            deployment,
            workload,
            control,
            recovery,
        };
        config.validate()?;
        inputs.validate(config)?;
        let chain = deployment.client();
        let clock = deployment.clock().clone();
        let obs = deployment.net().obs();
        let state = RunState::new(config, control.total() as usize);
        let (signed, progress) = prepare::prepare(config, &inputs, &state, &obs)?;

        let workers = (workload.clients * workload.threads_per_client).max(1);
        // Contention is per client machine: each client's threads share
        // that client's vCPUs (the paper's clients are separate 2-vCPU
        // instances). Caliper-style interactive testing runs an event
        // listener in every client process, adding one contender.
        let interactive = config.mode == TestingMode::Interactive;
        let active_threads = workload.threads_per_client + u32::from(interactive);
        let monitor = Monitor::new(&state, config, &inputs, active_threads, progress);
        // Per-slice budget tokens; the pacer may run this far ahead of the
        // workers.
        let tokens = Tokens::new(u64::from(control.peak()) * 2 + 16);
        let submitter = Submitter {
            state: &state,
            chain: Arc::clone(&chain),
            clock: clock.clone(),
            submitted_total: obs.registry().counter("hammer_driver_submitted_total"),
            retried_total: obs.registry().counter("hammer_driver_retried_total"),
            obs,
            tokens: tokens.taker(),
            signed,
            submit_delay: config.machine.submit_delay(active_threads),
            retry: config.retry,
            retry_deadline: config
                .retry
                .deadline
                .unwrap_or_else(|| control.slice_duration()),
        };

        let monitored = std::thread::scope(|scope| {
            scope.spawn(|| submit::pace(control, &clock, &state, &tokens));
            let worker_handles: Vec<_> = (0..workers)
                .map(|_| {
                    let worker = submitter.clone();
                    scope.spawn(move || worker.run())
                })
                .collect();
            // Only the workers hold a token taker and the signed stream from
            // here on.
            drop(submitter);
            let monitor = scope.spawn(move || monitor.run());
            for handle in worker_handles {
                handle.join().expect("submission worker panicked");
            }
            state
                .drain_deadline
                .set(clock.now() + config.drain_timeout)
                .expect("set once, here");
            monitor.join().expect("monitor panicked")
        });

        if state.killed.load(Ordering::Acquire) {
            // Simulated crash: no report. The last periodic checkpoint
            // stays in the store for the next run_recoverable call.
            return Err(EvalError::Killed);
        }
        let shard_commits = monitored.map_err(EvalError::Chain)?;
        let index_stats = state.tracker.index_stats();
        let (records, rejected_ids) = state.tracker.finish();
        let report = report::build(Finished {
            chain: chain.chain_name().to_owned(),
            records,
            rejected_ids,
            index_stats,
            submitted: state.submitted.load(Ordering::Relaxed),
            rejected: state.rejected.load(Ordering::Relaxed),
            retried: state.retried.load(Ordering::Relaxed),
            stalled: state.stalled.load(Ordering::Acquire),
            shard_commits,
            fault_plan: deployment.net().fault_plan(),
            wall_start,
        });
        // A recoverable run that reached its report is finished: a later
        // run under the same id starts fresh.
        if let Some(r) = recovery {
            r.store.del(&checkpoint_key(&r.run_id));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{BackendOptions, BackendRegistry};
    use hammer_chain::client::CommitEvent;
    use hammer_chain::types::{Address, Block, SignedTransaction, TxId};
    use hammer_obs::{Obs, Stage};
    use hammer_workload::WorkloadKind;

    fn small_workload(total: usize) -> WorkloadConfig {
        WorkloadConfig {
            accounts: 50,
            total_txs: total,
            clients: 2,
            threads_per_client: 2,
            ..WorkloadConfig::default()
        }
    }

    fn fast_builder() -> EvalConfigBuilder {
        EvalConfig::builder()
            .poll_interval(Duration::from_millis(20))
            .drain_timeout(Duration::from_secs(30))
    }

    fn fast_config() -> EvalConfig {
        fast_builder().build().expect("fast test config is valid")
    }

    #[test]
    fn evaluates_neuchain_end_to_end() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(100, 3, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(300), &control)
            .unwrap();
        assert_eq!(report.chain, "neuchain-sim");
        assert_eq!(report.submitted, 300);
        assert_eq!(report.committed + report.failed + report.timed_out, 300);
        assert!(report.committed > 250, "committed = {}", report.committed);
        assert!(report.overall_tps > 0.0);
        assert!(report.latency.count > 0);
    }

    #[test]
    fn batch_baseline_also_completes() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(
            fast_builder()
                .mode(TestingMode::BatchBaseline)
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap();
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn interactive_mode_tracks_events() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(
            fast_builder()
                .mode(TestingMode::Interactive)
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap();
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn sharded_chain_evaluated_through_same_driver() {
        let deployment = BackendRegistry::builtin()
            .deploy("meepo-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(60, 3, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(180), &control)
            .unwrap();
        assert_eq!(report.chain, "meepo-sim");
        assert!(report.committed > 100, "committed = {}", report.committed);
        // Shard-aware load report: both shards carried traffic, and the
        // per-shard counts sum to the committed total.
        assert_eq!(
            report.per_shard_committed.len(),
            2,
            "{:?}",
            report.per_shard_committed
        );
        let total: usize = report.per_shard_committed.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.committed);
    }

    #[test]
    fn builder_validates_and_builds() {
        let config = EvalConfig::builder()
            .mode(TestingMode::BatchBaseline)
            .signing(SigningStrategy::Async)
            .signer_threads(2)
            .poll_interval(Duration::from_millis(50))
            .retry(RetryPolicy::standard())
            .build()
            .unwrap();
        assert_eq!(config.mode, TestingMode::BatchBaseline);
        assert_eq!(config.signing, SigningStrategy::Async);
        assert_eq!(config.signer_threads, 2);
        assert_eq!(config.retry, RetryPolicy::standard());

        for bad in [
            EvalConfig::builder().signer_threads(0).build(),
            EvalConfig::builder().poll_interval(Duration::ZERO).build(),
            EvalConfig::builder()
                .retry(RetryPolicy {
                    multiplier: 0.5,
                    ..RetryPolicy::standard()
                })
                .build(),
        ] {
            assert!(matches!(bad, Err(EvalError::InvalidConfig(_))), "{bad:?}");
        }
    }

    #[test]
    fn enabled_retry_is_inert_without_faults() {
        // With no fault plan installed the retry policy must never fire:
        // the report carries zero retried/dropped/expired and no
        // fault-window breakdown.
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(
            fast_builder()
                .retry(RetryPolicy::standard())
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap();
        assert_eq!(report.retried, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.expired, 0);
        assert!(report.fault_windows.is_empty());
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn retry_deadline_longer_than_slice_rejected() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let err = Evaluation::new(
            fast_builder()
                .retry(RetryPolicy {
                    deadline: Some(Duration::from_secs(5)),
                    ..RetryPolicy::standard()
                })
                .build()
                .unwrap(),
        )
        .run(&deployment, &small_workload(100), &control)
        .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn invalid_retry_policy_rejected() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        // The builder is the only public entry and rejects this policy at
        // build time; mutate a built config directly (pub(crate) fields)
        // to prove the run path re-validates as a second line of defense.
        let mut config = fast_config();
        config.retry = RetryPolicy {
            multiplier: 0.0,
            ..RetryPolicy::standard()
        };
        let err = Evaluation::new(config)
            .run(&deployment, &small_workload(100), &control)
            .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn empty_control_sequence_rejected() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::from_budgets(vec![], Duration::from_secs(1));
        let err = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(10), &control)
            .unwrap_err();
        assert!(matches!(err, EvalError::InvalidConfig(_)));
    }

    #[test]
    fn serial_and_pipelined_signing_agree_on_outcomes() {
        for signing in [
            SigningStrategy::Serial,
            SigningStrategy::Async,
            SigningStrategy::Pipelined,
        ] {
            let deployment = BackendRegistry::builtin()
                .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
                .unwrap();
            let control = ControlSequence::constant(40, 2, Duration::from_secs(1));
            let report = Evaluation::new(fast_builder().signing(signing).build().unwrap())
                .run(&deployment, &small_workload(80), &control)
                .unwrap();
            assert!(
                report.committed > 60,
                "{signing:?}: committed = {}",
                report.committed
            );
        }
    }

    #[test]
    fn ycsb_workload_runs() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let workload = WorkloadConfig {
            kind: WorkloadKind::Ycsb,
            accounts: 100,
            read_ratio: 0.5,
            ..small_workload(100)
        };
        let report = Evaluation::new(fast_config())
            .run(&deployment, &workload, &control)
            .unwrap();
        assert!(report.committed > 80, "committed = {}", report.committed);
    }

    #[test]
    fn report_to_json_is_well_formed() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(40, 2, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(80), &control)
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        // Balanced braces/brackets (no strings in the payload contain
        // either, so a flat count suffices).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"chain\":\"neuchain-sim\"",
            &format!("\"submitted\":{}", report.submitted),
            &format!("\"committed\":{}", report.committed),
            "\"latency\":{",
            "\"tps_series\":[",
            "\"per_shard_committed\":[",
            "\"index_stats\":{",
            "\"fault_windows\":[]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
        // The aggregates have one source, the records: no pipeline row count.
        assert!(!json.contains("synced"), "{json}");
    }

    /// Accepts every submission and seals whatever is pooled each time the
    /// monitor asks for the height: every transaction commits, one poll
    /// after it was submitted.
    #[derive(Default)]
    struct StubChain {
        pool: std::sync::Mutex<Vec<TxId>>,
        blocks: std::sync::Mutex<Vec<Block>>,
        /// Announces its blocks but cannot serve them.
        unreadable: bool,
        /// Called at the start of every `submit`.
        on_submit: Option<Box<dyn Fn() + Send + Sync>>,
    }

    impl hammer_chain::client::BlockchainClient for StubChain {
        fn chain_name(&self) -> &str {
            "stub"
        }
        fn architecture(&self) -> hammer_chain::client::Architecture {
            hammer_chain::client::Architecture::NonSharded
        }
        fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
            if let Some(hook) = &self.on_submit {
                hook();
            }
            self.pool.lock().unwrap().push(tx.id);
            Ok(tx.id)
        }
        fn latest_height(&self, _shard: u32) -> Result<u64, ChainError> {
            let ids = std::mem::take(&mut *self.pool.lock().unwrap());
            let mut blocks = self.blocks.lock().unwrap();
            if !ids.is_empty() {
                let height = blocks.len() as u64 + 1;
                let valid = vec![true; ids.len()];
                blocks.push(Block::new(
                    height,
                    [0; 32],
                    Duration::ZERO,
                    "stub",
                    0,
                    ids,
                    valid,
                ));
            }
            Ok(blocks.len() as u64)
        }
        fn block_at(&self, _shard: u32, height: u64) -> Result<Option<Block>, ChainError> {
            if self.unreadable {
                return Err(ChainError::shutdown());
            }
            Ok(self
                .blocks
                .lock()
                .unwrap()
                .get(height as usize - 1)
                .cloned())
        }
        fn pending_txs(&self) -> Result<usize, ChainError> {
            Ok(self.pool.lock().unwrap().len())
        }
        fn subscribe_commits(&self) -> crossbeam::channel::Receiver<CommitEvent> {
            crossbeam::channel::unbounded().1
        }
        fn shutdown(&self) {}
    }

    impl hammer_chain::kernel::SimChain for StubChain {
        fn seed_account(&self, _account: Address, _checking: u64, _savings: u64) {}
        fn account(&self, _account: Address) -> Option<hammer_chain::state::AccountState> {
            None
        }
        fn ingress_nodes(&self) -> Vec<String> {
            Vec::new()
        }
        fn sealer_nodes(&self) -> Vec<String> {
            Vec::new()
        }
        fn verify_ledgers(&self) -> Result<(), hammer_chain::ledger::LedgerError> {
            Ok(())
        }
    }

    fn deploy_stub(chain: StubChain) -> Deployment {
        let clock = hammer_net::SimClock::with_speedup(1000.0);
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        Deployment::from_chain(Arc::new(chain), clock, net)
    }

    #[test]
    fn every_transaction_of_a_ragged_total_is_submitted() {
        // One past a whole number of chunks, released in one slice: the
        // tail is a lone transaction in one worker's hands. A worker that
        // took its token before its transaction would strand that token at
        // the end of the stream and the run would finish one short.
        for workers in [1, 2, 4] {
            let workload = WorkloadConfig {
                clients: 1,
                threads_per_client: workers,
                ..small_workload(0)
            };
            for repetition in 0..50u64 {
                let total = 128 * (1 + repetition % 3) + 1;
                let control = ControlSequence::constant(total as u32, 1, Duration::from_secs(1));
                let report = Evaluation::new(fast_config())
                    .run(&deploy_stub(StubChain::default()), &workload, &control)
                    .unwrap();
                assert_eq!(
                    (report.submitted, report.committed as u64),
                    (total, total),
                    "{workers} workers, repetition {repetition}"
                );
            }
        }
    }

    #[test]
    fn a_resumed_run_with_tokens_to_spare_releases_a_pacer_parked_at_the_bound() {
        use crate::checkpoint::DriverCheckpoint;
        use crate::index::TxRecord;
        use hammer_chain::types::TxStatus;

        // 40 slices of 50: the pacer may run 116 tokens ahead, and parks in
        // the third slice unless workers take them.
        let control = ControlSequence::constant(50, 40, Duration::from_secs(1));
        let workload = small_workload(2000);
        // The checkpoint owns every transaction but the last five.
        let mut generation = workload.clone();
        generation.total_txs = control.total() as usize;
        let ids: Vec<TxId> = hammer_workload::SmallBankGenerator::new(generation)
            .generate_all()
            .iter()
            .map(|tx| tx.id())
            .collect();
        let store = Arc::new(hammer_store::KvStore::new());
        DriverCheckpoint {
            workload_seed: workload.seed,
            total: control.total(),
            retried: 0,
            last_seen: vec![0],
            shard_commits: vec![(0, ids.len() as u64 - 5)],
            rejected_ids: Vec::new(),
            records: ids[..ids.len() - 5]
                .iter()
                .map(|id| TxRecord {
                    tx_id: *id,
                    client_id: 0,
                    server_id: 0,
                    start: Duration::ZERO,
                    end: Some(Duration::from_millis(1)),
                    status: TxStatus::Committed,
                })
                .collect(),
        }
        .save(&store, "resumed");

        // Every submission waits for the tenth slice, so the workers are
        // still alive when the pacer reaches the bound; once the five are
        // in they leave 1995 tokens behind.
        let clock = hammer_net::SimClock::with_speedup(1000.0);
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        let submit_clock = clock.clone();
        let chain = StubChain {
            on_submit: Some(Box::new(move || {
                submit_clock.sleep_until(Duration::from_secs(10));
            })),
            ..StubChain::default()
        };
        let deployment = Deployment::from_chain(Arc::new(chain), clock, net);
        let recovery = RecoveryConfig::new(store, "resumed", Duration::from_secs(5));
        let report = Evaluation::new(fast_config())
            .run_recoverable(&deployment, &workload, &control, &recovery)
            .unwrap();
        assert_eq!(report.submitted, 2000);
        assert_eq!(report.committed, 2000);
        // The pacer was let go; it did not sit out the remaining slices.
        assert!(
            deployment.clock().now() < Duration::from_secs(30),
            "run ended at {:?}",
            deployment.clock().now()
        );
    }

    #[test]
    fn fatal_chain_read_fails_the_run_instead_of_timing_everything_out() {
        let deployment = deploy_stub(StubChain {
            unreadable: true,
            ..StubChain::default()
        });
        deployment.net().install_obs(Obs::new());
        // Half an hour of budget: a run that ignored the dead monitor
        // would keep submitting through all of it.
        let control = ControlSequence::from_budgets(vec![1; 1800], Duration::from_secs(1));
        let err = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(1800), &control)
            .unwrap_err();
        assert_eq!(err, EvalError::Chain(ChainError::shutdown()));
        assert!(
            deployment.clock().now() < Duration::from_secs(600),
            "the abort did not reach the pacer and the workers"
        );
        let journal = deployment.net().obs().journal().clone();
        assert_eq!(journal.count_of(hammer_obs::EventKind::MonitorFailed), 1);
    }

    #[test]
    fn obs_installed_run_emits_spans_metrics_and_journal() {
        use hammer_obs::EventKind;
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        deployment.net().install_obs(Obs::new());
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(100), &control)
            .unwrap();
        let obs = deployment.net().obs();
        let spans = obs.spans();
        assert_eq!(spans.histogram(Stage::Generated).count(), 100);
        assert_eq!(spans.histogram(Stage::Signed).count(), 100);
        assert!(spans.histogram(Stage::Submitted).count() > 0);
        assert!(spans.histogram(Stage::InBlock).count() >= report.committed as u64);
        assert_eq!(
            spans.histogram(Stage::Matched).count(),
            spans.histogram(Stage::InBlock).count()
        );
        assert_eq!(
            obs.registry()
                .counter("hammer_driver_submitted_total")
                .value(),
            report.submitted
        );
        assert!(
            obs.journal().count_of(EventKind::BlockSeal) > 0,
            "sims should journal block seals"
        );
    }

    #[test]
    fn default_run_keeps_obs_disabled() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 1000.0)
            .unwrap();
        let control = ControlSequence::constant(40, 2, Duration::from_secs(1));
        Evaluation::new(fast_config())
            .run(&deployment, &small_workload(80), &control)
            .unwrap();
        let obs = deployment.net().obs();
        assert!(!obs.enabled());
        assert_eq!(obs.spans().histogram(Stage::Signed).count(), 0);
        assert!(obs.journal().is_empty());
    }

    #[test]
    fn control_sequence_paces_submission() {
        // A bursty control sequence should shape the tps series: the
        // burst slice dominates. Run at a modest speed-up so scheduling
        // noise on loaded single-core hosts cannot smear the burst.
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default(), 200.0)
            .unwrap();
        let control = ControlSequence::from_budgets(vec![10, 200, 10], Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(220), &control)
            .unwrap();
        assert!(report.committed > 150);
        let peak = report.tps_series.iter().max().copied().unwrap_or(0);
        let sum: usize = report.tps_series.iter().sum();
        assert!(
            peak * 5 > sum * 2,
            "no burst visible in series {:?}",
            report.tps_series
        );
    }
}
