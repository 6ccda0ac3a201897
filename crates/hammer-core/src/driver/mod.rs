//! The evaluation driver: preparation → execution → report (Fig. 3).
//!
//! [`Evaluation::run`] takes a deployed SUT, a workload profile, and a
//! temporal control sequence, and produces an [`EvalReport`]:
//!
//! 1. **Preparation** — seed the account fixtures, then generate the
//!    unsigned transactions and sign them with the configured strategy
//!    ([`SigningStrategy`]). Generation streams: each signer claims the
//!    next 128 transactions from the generator under one lock and signs
//!    them, so with [`SigningStrategy::Pipelined`] the execution phase
//!    starts while generation and signing are still running (§III-D2).
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
//!    * [`TestingMode::Interactive`] — Caliper-style: the same block
//!      reads, each block expanded into per-transaction commit events in
//!      an SDK buffer; every event handled costs listener CPU on the client
//!      machine, and a listener that falls more than the buffer behind
//!      loses events (the resource drain and the lost responses the paper
//!      blames for Caliper's lower reported TPS in Fig. 7).
//! 3. **Report** — the [`EvalReport`]'s aggregates are folded straight
//!    from the tracker's records ([`hammer_store::table::summarize`]): the
//!    records *are* the run's Performance table. [`perf_row`] turns one
//!    into a [`hammer_store::PerfRow`]; `examples/performance_table.rs`
//!    rebuilds the table from [`EvalReport::records`] that way and asks it
//!    Table II's two statements.
//!
//! The code is cut along the same lines: one submodule per stage
//! (`prepare`, `submit` — pacer and workers —, `monitor`, `report`), each
//! owning its state, all borrowing one `RunState`, joined by hand-offs that
//! move work in chunks: 128-transaction claims from generator to signers,
//! under one lock; a bounded, chunked signed stream from signers to workers.
//! The pacer is no thread but a value the workers share under one lock:
//! a take at a clock reading answers how many tokens the schedule has
//! released by then, or until when to sleep. `DESIGN.md` §5 has the stage
//! table.

#![warn(clippy::too_many_lines)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hammer_chain::client::ChainError;
use hammer_net::thread;
use hammer_workload::{ControlSequence, WorkloadConfig};

use crate::checkpoint::{refused, DriverCheckpoint, RecoveryConfig};
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
use submit::{Pacer, Submitter};
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
/// are private to the `driver` module, so a struct literal anywhere else,
/// in this crate or outside it, does not compile.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Commitment-observation mode.
    mode: TestingMode,
    /// Signing strategy.
    signing: SigningStrategy,
    /// Signer thread-pool size for the async/pipelined strategies.
    signer_threads: usize,
    /// The modelled client machine.
    machine: ClientMachine,
    /// Block-polling interval in simulated time (ξ1: large intervals skew
    /// batch-baseline latency; small intervals burn CPU).
    poll_interval: Duration,
    /// How long (simulated) to keep monitoring after the last submission
    /// before declaring the stragglers timed out.
    drain_timeout: Duration,
    /// Interactive mode: listener CPU cost per commit event.
    listen_cost: Duration,
    /// Interactive mode: how many unhandled commit events may stand behind
    /// the one the listener takes before it is lost (the paper's "loss of
    /// response information ... under heavy load").
    event_buffer: usize,
    /// Resilient-submission policy: how workers retry transient failures
    /// (crashed/blackholed nodes, mempool backpressure). The default is
    /// [`RetryPolicy::disabled`], which reproduces the pre-fault driver
    /// exactly: one attempt per transaction.
    retry: RetryPolicy,
    /// Stall watchdog: abort the run gracefully when no progress (no
    /// submissions, retries, completions, or sealed blocks) is observed
    /// for this much simulated time while transactions are pending.
    /// `None` (the default) disables the watchdog.
    stall_budget: Option<Duration>,
    /// Shard count for the in-flight tracker (task-processing modes),
    /// rounded up to a power of two. The default, `1`, is the single-lock
    /// tracker, whose drain hands its one vector list to the report.
    tracker_shards: usize,
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
            tracker_shards: 1,
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
        if !(1..=4096).contains(&self.tracker_shards) {
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
    /// rounded up to a power of two). The default is `1`: end to end on
    /// a 2-core host, two shards cost more than one lock saves, because
    /// the report's drain copies every shard after the first into one
    /// list (DESIGN.md, "Sharded in-flight tracker"). The chaos harness
    /// and the shard-count tests pin more.
    pub fn tracker_shards(mut self, shards: usize) -> Self {
        self.config.tracker_shards = shards;
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
    /// last periodic checkpoint survives in the run directory; calling
    /// [`Evaluation::run_recoverable`] again with the same directory
    /// resumes from it.
    Killed,
    /// A recoverable run's directory or checkpoint file cannot be created,
    /// read or written, or does not decode. The message names the path.
    Checkpoint(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EvalError::Chain(e) => write!(f, "chain error: {e}"),
            EvalError::Killed => write!(f, "driver killed mid-run (checkpoint retained)"),
            EvalError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
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
    /// failed monitor raise `abort`; the workers check it before each
    /// piece and after each wait for tokens, and wind down, leaving
    /// in-flight transactions to be reported as timed out.
    abort: AtomicBool,
    stalled: AtomicBool,
    killed: AtomicBool,
    /// Set once, when the last worker has exited: submission is done, and
    /// the monitor stops waiting for stragglers at this simulated time.
    drain_deadline: OnceLock<Duration>,
}

impl RunState {
    /// The tracker has `config.tracker_shards` shards, one unless a caller
    /// pins more: the count is not sized to the host, because the one
    /// measured end-to-end reading, on two cores, favoured one shard. The
    /// run's `total` sizes its vector list and Bloom filter; its hash index
    /// grows with what is in flight.
    fn new(config: &EvalConfig, total: usize) -> Self {
        RunState {
            tracker: match config.mode {
                TestingMode::BatchBaseline => Box::new(BatchTracker::new()),
                _ => Box::new(ShardedTxTable::new(config.tracker_shards, total)),
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
    /// `recovery.dir/checkpoint`. If that file already exists, the run
    /// *resumes* from it instead of starting over:
    /// transactions it settled are filtered out of the signed stream, the
    /// tracker and counters are restored, and the monitor rescans the
    /// chain from the checkpointed block heights — so a driver killed
    /// mid-run picks up where its last snapshot left off and the final
    /// report accounts for every transaction exactly once. The checkpoint
    /// file is removed when the run completes. A file that fails to be
    /// written or read, or to decode, is an [`EvalError::Checkpoint`].
    ///
    /// Refused for [`TestingMode::BatchBaseline`], whose unconfirmed queue
    /// is not snapshot-able. An interactive run's checkpoint records per
    /// shard the last block whose events have all left the listener's
    /// buffer, so a resumed run re-reads what the buffer held.
    pub fn run_recoverable(
        &self,
        deployment: &Deployment,
        workload: &WorkloadConfig,
        control: &ControlSequence,
        recovery: &RecoveryConfig,
    ) -> Result<EvalReport, EvalError> {
        if self.config.mode == TestingMode::BatchBaseline {
            return invalid("recoverable runs cannot use TestingMode::BatchBaseline");
        }
        if recovery.interval.is_zero() {
            return invalid("checkpoint interval must be positive");
        }
        std::fs::create_dir_all(&recovery.dir).map_err(|e| refused(&recovery.dir, e))?;
        self.execute(deployment, workload, control, Some(recovery))
    }

    /// The one run path: Prepare, then the Submit workers, pacing
    /// themselves on one shared pacer, and the Monitor side by side, then
    /// Report.
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
        // Per-slice budget tokens, released from now on; the pacer may run
        // this far ahead of the workers.
        let cap = u64::from(control.peak()) * 2 + 16;
        let pacer = parking_lot::Mutex::new(Pacer::new(control, cap, clock.now()));
        let submitter = Submitter {
            state: &state,
            chain: Arc::clone(&chain),
            clock: clock.clone(),
            submitted_total: obs.registry().counter("hammer_driver_submitted_total"),
            retried_total: obs.registry().counter("hammer_driver_retried_total"),
            obs,
            pacer: &pacer,
            signed,
            submit_delay: config.machine.submit_delay(active_threads),
            retry: config.retry,
            retry_deadline: config
                .retry
                .deadline
                .unwrap_or_else(|| control.slice_duration()),
        };

        let monitored = std::thread::scope(|scope| {
            let worker_handles: Vec<_> = (0..workers)
                .map(|_| {
                    let worker = submitter.clone();
                    thread::spawn_scoped(scope, "hammer-submit", move || worker.run())
                        .expect("spawn submission worker")
                })
                .collect();
            // Only the workers hold the signed stream from here on.
            drop(submitter);
            let monitor = thread::spawn_scoped(scope, "hammer-monitor", move || monitor.run())
                .expect("spawn monitor");
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
            // stays in the directory for the next run_recoverable call.
            return Err(EvalError::Killed);
        }
        let shard_commits = monitored?;
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
        // run in the same directory starts fresh.
        if let Some(r) = recovery {
            DriverCheckpoint::remove(&r.dir)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::TestDir;
    use crate::deploy::{BackendOptions, BackendRegistry};
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("meepo-sim", &BackendOptions::default())
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
    fn a_default_config_tracks_in_one_shard() {
        // One shard hands the records back in insertion order; two or more
        // concatenate them shard by shard, whatever the host's core count.
        let ids: Vec<TxId> = (0..64u8).map(|i| TxId([i; 32])).collect();
        let drained = |config: &EvalConfig| {
            let state = RunState::new(config, ids.len());
            for id in &ids {
                state.tracker.insert(*id, 0, 0, Duration::ZERO);
            }
            let (records, _) = state.tracker.finish();
            records.iter().map(|r| r.tx_id).collect::<Vec<_>>()
        };
        assert_eq!(drained(&EvalConfig::default()), ids);
        let two = EvalConfig::builder().tracker_shards(2).build().unwrap();
        assert_ne!(drained(&two), ids, "two shards reorder: the check can fail");
    }

    #[test]
    fn enabled_retry_is_inert_without_faults() {
        // With no fault plan installed the retry policy must never fire:
        // the report carries zero retried/dropped/expired and no
        // fault-window breakdown.
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
            .unwrap();
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        // The builder is the only public entry and rejects this policy at
        // build time; mutate a built config directly (driver-private fields)
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
                .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
        /// Refuses each transaction's first attempt with a transient error.
        fail_first_attempts: bool,
        /// Refuses every attempt with a transient error.
        refuse_all: bool,
        /// Transactions offered so far, for `fail_first_attempts`.
        offered: std::sync::Mutex<std::collections::HashSet<TxId>>,
        /// The length of every `submit_batch` call, in order.
        batches: std::sync::Mutex<Vec<usize>>,
        /// `("submit" | "height", name of the calling thread)` of every
        /// `submit` and `latest_height` call.
        callers: std::sync::Mutex<std::collections::BTreeSet<(&'static str, String)>>,
    }

    impl StubChain {
        fn record_caller(&self, method: &'static str) {
            let thread = std::thread::current();
            let name = thread.name().unwrap_or("<unnamed>").to_owned();
            self.callers.lock().unwrap().insert((method, name));
        }
    }

    impl hammer_chain::client::BlockchainClient for StubChain {
        fn chain_name(&self) -> &str {
            "stub"
        }
        fn architecture(&self) -> hammer_chain::client::Architecture {
            hammer_chain::client::Architecture::NonSharded
        }
        fn submit(&self, tx: SignedTransaction) -> Result<TxId, ChainError> {
            self.record_caller("submit");
            if let Some(hook) = &self.on_submit {
                hook();
            }
            let first = self.offered.lock().unwrap().insert(tx.id);
            if self.refuse_all || (self.fail_first_attempts && first) {
                return Err(ChainError::transport("first attempt refused"));
            }
            self.pool.lock().unwrap().push(tx.id);
            Ok(tx.id)
        }
        fn submit_batch(&self, txs: Vec<SignedTransaction>) -> Vec<Result<TxId, ChainError>> {
            self.batches.lock().unwrap().push(txs.len());
            txs.into_iter().map(|tx| self.submit(tx)).collect()
        }
        fn latest_height(&self, _shard: u32) -> Result<u64, ChainError> {
            self.record_caller("height");
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
    fn the_paper_client_hands_the_chain_one_transaction_per_call() {
        // At a fiftieth of wall speed a 900 µs slot is 45 ms of wall time:
        // only a stall that long between two submissions of a worker could
        // make two slots come due at once.
        let clock = hammer_net::SimClock::with_speedup(0.02);
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        let chain = Arc::new(StubChain::default());
        let deployment = Deployment::from_chain(Arc::clone(&chain) as _, clock, net);
        let config = EvalConfig::builder()
            .machine(ClientMachine::paper_client())
            .poll_interval(Duration::from_millis(1))
            .build()
            .unwrap();
        let control = ControlSequence::constant(40, 1, Duration::from_millis(1));
        let report = Evaluation::new(config)
            .run(&deployment, &small_workload(40), &control)
            .unwrap();
        assert_eq!(report.committed, 40);
        let batches = chain.batches.lock().unwrap().clone();
        assert_eq!(batches, vec![1; 40]);
    }

    #[test]
    fn a_virtual_clock_submits_each_slice_at_its_instant() {
        // One paper-client worker (a 900 µs slot per submission) against
        // budgets of 3, 0, 5 and 2 a second: each slice goes out one
        // transaction a slot from its own instant, and the empty one sends
        // nothing. On a virtual clock every start is the model's.
        let clock = hammer_net::SimClock::virtual_time();
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        let chain = Arc::new(StubChain::default());
        let deployment = Deployment::from_chain(Arc::clone(&chain) as _, clock, net);
        let config = fast_builder()
            .machine(ClientMachine::paper_client())
            .build()
            .unwrap();
        let workload = WorkloadConfig {
            clients: 1,
            threads_per_client: 1,
            ..small_workload(10)
        };
        let control = ControlSequence::from_budgets(vec![3, 0, 5, 2], Duration::from_secs(1));
        let report = Evaluation::new(config)
            .run(&deployment, &workload, &control)
            .unwrap();
        assert_eq!((report.submitted, report.committed), (10, 10));
        let mut starts: Vec<Duration> = report.records.iter().map(|r| r.start).collect();
        starts.sort();
        let us = Duration::from_micros;
        let slot = |second: u64, n: u64| Duration::from_secs(second) + us(900 * n);
        let expect = [
            slot(0, 0),
            slot(0, 1),
            slot(0, 2),
            slot(2, 0),
            slot(2, 1),
            slot(2, 2),
            slot(2, 3),
            slot(2, 4),
            slot(3, 0),
            slot(3, 1),
        ];
        assert_eq!(starts, expect);
        assert_eq!(*chain.batches.lock().unwrap(), vec![1; 10]);
    }

    #[test]
    fn a_failed_first_attempt_of_each_item_is_retried_alone() {
        let chain = StubChain {
            fail_first_attempts: true,
            ..StubChain::default()
        };
        let config = fast_builder()
            .machine(ClientMachine::unconstrained())
            .retry(RetryPolicy::standard())
            .build()
            .unwrap();
        // Every item's deadline counts from its chunk's start: a slice of
        // 10 s (10 ms of wall time) leaves room for a chunk's first call
        // in an unoptimised build.
        let control = ControlSequence::constant(300, 1, Duration::from_secs(10));
        let report = Evaluation::new(config)
            .run(&deploy_stub(chain), &small_workload(300), &control)
            .unwrap();
        assert_eq!(report.committed, 300);
        assert_eq!(report.retried, 300);
        assert_eq!((report.expired, report.dropped, report.rejected), (0, 0, 0));
    }

    #[test]
    fn a_chunks_retries_run_side_by_side_and_expire_within_the_deadline() {
        // One worker, two chunks, a chain that refuses every attempt: each
        // item waits out its own backoffs (10 ms doubling, ±20 %) from its
        // piece's start and expires at the 2 s deadline after about seven
        // retries. Retried one after another, the first item would use the
        // deadline up and the rest of its piece would expire after a retry
        // or two.
        const N: usize = 256;
        let deadline = Duration::from_secs(2);
        let clock = hammer_net::SimClock::with_speedup(10.0);
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        let chain = StubChain {
            refuse_all: true,
            ..StubChain::default()
        };
        let deployment = Deployment::from_chain(Arc::new(chain), clock, net);
        let config = fast_builder()
            .machine(ClientMachine::unconstrained())
            .retry(RetryPolicy {
                deadline: Some(deadline),
                ..RetryPolicy::standard()
            })
            .build()
            .unwrap();
        let workload = WorkloadConfig {
            clients: 1,
            threads_per_client: 1,
            ..small_workload(N)
        };
        let control = ControlSequence::constant(N as u32, 1, deadline);
        let report = Evaluation::new(config)
            .run(&deployment, &workload, &control)
            .unwrap();
        assert_eq!(report.expired, N);
        assert_eq!((report.committed, report.dropped), (0, 0));
        assert_eq!(report.rejected, 0);
        for record in &report.records {
            let end = record.end.expect("an expired record has an end");
            assert!(end - record.start <= deadline, "{record:?}");
        }
        assert!(
            report.retried >= 5 * N as u64,
            "{} retries for {N} transactions",
            report.retried
        );
    }

    #[test]
    fn a_resumed_run_with_tokens_to_spare_ends_with_its_workers() {
        use crate::index::TxRecord;
        use hammer_chain::types::TxStatus;

        // 40 slices of 50: the pacer may run 116 tokens ahead, and holds
        // the third slice back unless workers take them.
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
        let dir = TestDir::new("resumed-pacer");
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
        .save(&dir.0)
        .unwrap();

        // Every submission waits for the tenth slice, so the workers are
        // still alive when the pacer reaches the bound; once the five are
        // in they leave 1995 tokens behind, and nothing waits for them.
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
        deployment.net().install_obs(Obs::new());
        let recovery = RecoveryConfig::new(&dir.0, Duration::from_secs(5));
        let report = Evaluation::new(fast_config())
            .run_recoverable(&deployment, &workload, &control, &recovery)
            .unwrap();
        assert_eq!(report.submitted, 2000);
        assert_eq!(report.committed, 2000);
        // What the checkpoint owns is dropped before it is signed, though
        // it fills every segment but the last.
        let signed = deployment
            .net()
            .obs()
            .spans()
            .histogram(Stage::Signed)
            .count();
        assert_eq!(signed, 5);
        // The run ended with its workers; it did not sit out the remaining
        // slices.
        assert!(
            deployment.clock().now() < Duration::from_secs(30),
            "run ended at {:?}",
            deployment.clock().now()
        );
    }

    #[test]
    fn a_checkpoint_from_a_chain_with_another_shard_count_is_refused() {
        let workload = small_workload(100);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let dir = TestDir::new("shard-count");
        DriverCheckpoint {
            workload_seed: workload.seed,
            total: control.total(),
            retried: 0,
            last_seen: vec![0, 0],
            shard_commits: Vec::new(),
            rejected_ids: Vec::new(),
            records: Vec::new(),
        }
        .save(&dir.0)
        .unwrap();
        let recovery = RecoveryConfig::new(&dir.0, Duration::from_secs(1));
        let err = Evaluation::new(fast_config())
            .run_recoverable(
                &deploy_stub(StubChain::default()),
                &workload,
                &control,
                &recovery,
            )
            .unwrap_err();
        assert!(
            matches!(&err, EvalError::InvalidConfig(msg) if msg.contains("different shard count")),
            "{err:?}"
        );
    }

    #[test]
    fn a_run_directory_that_cannot_be_created_fails_before_the_run_starts() {
        let parent = TestDir::new("not-a-directory");
        let file = parent.0.join("file");
        std::fs::write(&file, b"").unwrap();
        let dir = file.join("run");
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let chain = Arc::new(StubChain::default());
        let clock = hammer_net::SimClock::with_speedup(1000.0);
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        let deployment = Deployment::from_chain(Arc::clone(&chain) as _, clock, net);
        let err = Evaluation::new(fast_config())
            .run_recoverable(
                &deployment,
                &small_workload(100),
                &control,
                &RecoveryConfig::new(&dir, Duration::from_secs(1)),
            )
            .unwrap_err();
        let path = dir.display().to_string();
        assert!(
            matches!(&err, EvalError::Checkpoint(msg) if msg.starts_with(&path)),
            "{err:?}"
        );
        assert!(chain.callers.lock().unwrap().is_empty(), "the run started");
    }

    #[test]
    fn a_snapshot_that_cannot_be_written_fails_the_run() {
        // The first submission takes the run directory away, so the next
        // periodic snapshot has nowhere to go.
        let dir = TestDir::new("vanishing");
        let path = dir.0.clone();
        let deployment = deploy_stub(StubChain {
            on_submit: Some(Box::new(move || {
                let _ = std::fs::remove_dir_all(&path);
            })),
            ..StubChain::default()
        });
        let control = ControlSequence::constant(50, 20, Duration::from_secs(1));
        let recovery = RecoveryConfig::new(&dir.0, Duration::from_millis(100));
        let err = Evaluation::new(fast_config())
            .run_recoverable(&deployment, &small_workload(1000), &control, &recovery)
            .unwrap_err();
        let path = dir.0.display().to_string();
        assert!(
            matches!(&err, EvalError::Checkpoint(msg) if msg.starts_with(&path)),
            "{err:?}"
        );
        // The abort reached the workers.
        assert!(deployment.clock().now() < Duration::from_secs(20));
    }

    #[test]
    fn driver_threads_carry_their_role_names() {
        let chain = Arc::new(StubChain::default());
        let clock = hammer_net::SimClock::with_speedup(1000.0);
        let net = hammer_net::SimNetwork::new(clock.clone(), hammer_net::LinkConfig::lan());
        let deployment = Deployment::from_chain(Arc::clone(&chain) as _, clock, net);
        let control = ControlSequence::constant(50, 2, Duration::from_secs(1));
        let report = Evaluation::new(fast_config())
            .run(&deployment, &small_workload(100), &control)
            .unwrap();
        assert_eq!(report.committed, 100);
        let callers = chain.callers.lock().unwrap().clone();
        // The caller's thread reads the start heights, once, before any
        // worker exists.
        let caller = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_owned();
        let expect = [
            ("height", caller),
            ("height", "hammer-monitor".to_owned()),
            ("submit", "hammer-submit".to_owned()),
        ];
        assert_eq!(callers, expect.into_iter().collect(), "{callers:?}");
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
            "the abort did not reach the workers"
        );
        let journal = deployment.net().obs().journal().clone();
        assert_eq!(journal.count_of(hammer_obs::EventKind::MonitorFailed), 1);
    }

    #[test]
    fn obs_installed_run_emits_spans_metrics_and_journal() {
        use hammer_obs::EventKind;
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default())
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
            .deploy("neuchain-sim", &BackendOptions::default())
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
        // burst slice dominates.
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default())
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
