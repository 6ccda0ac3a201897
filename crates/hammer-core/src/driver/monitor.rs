//! The **Monitor/Match** stage (Fig. 3, step 6): observes commitment by
//! polling blocks or by listening to commit events. Both variants share
//! the per-record `on_matched` step and the per-cycle `end_cycle` tail, and
//! both tick on `poll_interval` of *simulated* time (the poller sleeps it,
//! the listener waits at most that long for an event), so the watchdog and
//! the kill switch run at one cadence in every mode and at every speed-up.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use hammer_chain::client::{BlockchainClient, ChainError, CommitEvent};
use hammer_chain::kernel::SimChain;
use hammer_chain::types::TxStatus;
use hammer_net::{FaultObserver, SimClock};
use hammer_obs::{Obs, Stage};
use hammer_store::KvStore;

use super::{EvalConfig, Inputs, RunState, TestingMode};
use crate::checkpoint::{checkpoint_key, DriverCheckpoint};
use crate::index::TxRecord;

/// How far the monitor has got: what a checkpoint records of it and a
/// resumed run starts from.
pub(super) struct Progress {
    /// Per-shard height of the last block scanned.
    pub last_seen: Vec<u64>,
    /// Per-shard committed counts.
    pub shard_commits: BTreeMap<u32, usize>,
}

/// The stall watchdog, consulted once per monitor cycle. A run is stalled
/// when its activity signature — submissions, retries, pending count, and
/// the chain's sealed-block progress mark — has not changed for the
/// configured budget of simulated time while work is still pending. On
/// detection it journals a [`hammer_obs::EventKind::Stalled`] event and
/// raises the abort flag so the whole run winds down with a complete
/// report instead of hanging until the drain deadline.
struct StallWatchdog {
    budget: Duration,
    probe: Arc<dyn SimChain>,
    last_sig: (u64, u64, u64, u64),
    last_change: Duration,
}

impl StallWatchdog {
    /// Returns `true` when the run is stalled and the monitor must exit.
    fn check(&mut self, state: &RunState, now: Duration, journal: &hammer_obs::Journal) -> bool {
        // `pending()` sums across shards; the activity signature only
        // needs the aggregate to detect a freeze.
        let pending = state.tracker.pending() as u64;
        let sig = (
            state.submitted.load(Ordering::Relaxed),
            state.retried.load(Ordering::Relaxed),
            pending,
            self.probe.progress_mark(),
        );
        if sig != self.last_sig || pending == 0 {
            self.last_sig = sig;
            self.last_change = now;
            return false;
        }
        if now.saturating_sub(self.last_change) < self.budget {
            return false;
        }
        journal.stalled(now, "driver", self.budget, pending);
        state.stalled.store(true, Ordering::Release);
        state.abort.store(true, Ordering::Release);
        true
    }
}

/// Periodic checkpointing plus the cooperative kill switch of a
/// recoverable run.
struct Checkpointer {
    store: Arc<KvStore>,
    key: String,
    interval: Duration,
    next_at: Duration,
    kill_at: Option<Duration>,
    workload_seed: u64,
    total: u64,
}

impl Checkpointer {
    /// Writes the periodic snapshot when one is due, then consults the kill
    /// switch. Returns `true` when it fired: the monitor must exit
    /// *without* writing a further checkpoint — everything after the last
    /// periodic snapshot is lost, exactly as in a real crash. A snapshot
    /// already due is never lost to a kill seen in the same cycle, and the
    /// first cycle's is due at once, so a killed run always leaves a
    /// checkpoint however long the host took to schedule the monitor.
    fn observe(&mut self, state: &RunState, now: Duration, progress: &Progress) -> bool {
        if now >= self.next_at {
            while self.next_at <= now {
                self.next_at += self.interval;
            }
            self.snapshot(state, progress);
        }
        let killed = self.kill_at.is_some_and(|kill_at| now >= kill_at);
        if killed {
            state.killed.store(true, Ordering::Release);
            state.abort.store(true, Ordering::Release);
        }
        killed
    }

    fn snapshot(&self, state: &RunState, progress: &Progress) {
        // One call snapshots records *and* rejected ids: the tracker
        // updates both under the same shard lock on rejection and holds
        // every shard lock while copying, so the pair is consistent —
        // a rejection visible in the records always has its id here.
        let (records, rejected_ids) = state.tracker.snapshot();
        let checkpoint = DriverCheckpoint {
            workload_seed: self.workload_seed,
            total: self.total,
            retried: state.retried.load(Ordering::Relaxed),
            last_seen: progress.last_seen.clone(),
            shard_commits: progress
                .shard_commits
                .iter()
                .map(|(shard, n)| (*shard, *n as u64))
                .collect(),
            rejected_ids,
            records,
        };
        self.store.set(&self.key, checkpoint.to_bytes());
    }
}

/// What the per-cycle tail decided.
enum Next {
    Continue,
    /// Submission is done and the drain deadline has passed.
    Deadline,
    Exit,
}

/// The Monitor stage. Owns everything only the monitor thread touches:
/// its scan progress, the fault-transition journaling, the watchdog and
/// the checkpointer.
pub(super) struct Monitor<'a> {
    state: &'a RunState,
    config: &'a EvalConfig,
    chain: Arc<dyn BlockchainClient>,
    clock: SimClock,
    obs: Obs,
    /// The `hammer_driver_pending` gauge, refreshed once per cycle.
    pending: hammer_obs::Gauge,
    /// Interactive mode: the commit-event subscription, and the listener
    /// CPU each event costs (the listener time-shares the client machine
    /// with the submitters).
    events: Option<(Receiver<CommitEvent>, Duration)>,
    /// Journals fault-plan enter/exit edges, polled once per cycle.
    fault_observer: Option<FaultObserver>,
    watchdog: Option<StallWatchdog>,
    checkpointer: Option<Checkpointer>,
    progress: Progress,
}

impl<'a> Monitor<'a> {
    /// Built on the caller's thread before any worker exists, so an
    /// interactive run's subscription precedes every commit.
    pub(super) fn new(
        state: &'a RunState,
        config: &'a EvalConfig,
        inputs: &Inputs<'_>,
        active_threads: u32,
        progress: Progress,
    ) -> Self {
        let deployment = inputs.deployment;
        let (chain, clock) = (deployment.client(), deployment.clock().clone());
        let obs = deployment.net().obs();
        let interactive = config.mode == TestingMode::Interactive;
        Monitor {
            state,
            config,
            events: interactive.then(|| {
                let share = active_threads as f64 / config.machine.vcpus.max(1) as f64;
                let per_event = config.listen_cost.mul_f64(share.max(1.0));
                (chain.subscribe_commits(), per_event)
            }),
            fault_observer: obs.enabled().then(|| FaultObserver::new(deployment.net())),
            watchdog: config.stall_budget.map(|budget| StallWatchdog {
                budget,
                probe: Arc::clone(deployment.chain()),
                last_sig: (0, 0, 0, 0),
                last_change: clock.now(),
            }),
            checkpointer: inputs.recovery.map(|r| Checkpointer {
                store: Arc::clone(&r.store),
                key: checkpoint_key(&r.run_id),
                interval: r.interval,
                next_at: clock.now(),
                kill_at: r.kill_at,
                workload_seed: inputs.workload.seed,
                total: inputs.control.total(),
            }),
            progress,
            pending: obs.registry().gauge("hammer_driver_pending"),
            chain,
            clock,
            obs,
        }
    }

    /// Runs until everything submitted is accounted for, the drain
    /// deadline passes, or the run aborts; returns the per-shard commit
    /// counts. A chain read that fails is fatal (transient outages are
    /// absorbed below the client interface): it is journaled, the run is
    /// aborted, and the error is returned instead of letting every
    /// in-flight transaction silently time out.
    pub(super) fn run(mut self) -> Result<BTreeMap<u32, usize>, ChainError> {
        let outcome = match self.events.take() {
            Some((events, per_event)) => {
                self.listen(&events, per_event);
                Ok(())
            }
            None => self.poll_blocks(),
        };
        if let Err(e) = &outcome {
            let now = self.clock.now();
            self.obs
                .journal()
                .monitor_failed(now, "driver", &e.to_string());
            self.state.abort.store(true, Ordering::Release);
        }
        outcome.map(|()| self.progress.shard_commits)
    }

    /// Batch testing, shared by Hammer task processing and the Blockbench
    /// baseline. The difference is the end-time source: Algorithm 1
    /// records the *block* time; the baseline only knows the *poll* time
    /// (the ξ1 skew).
    fn poll_blocks(&mut self) -> Result<(), ChainError> {
        let chain = Arc::clone(&self.chain);
        let end_is_block_time = self.config.mode == TestingMode::TaskProcessing;
        // Set once the drain deadline has passed: one last full scan runs
        // so blocks committed during the final poll window still match
        // before the stragglers are declared timed out.
        let mut final_pass = false;
        loop {
            for shard in 0..self.progress.last_seen.len() {
                let height = chain.latest_height(shard as u32)?;
                let seen = self.progress.last_seen[shard];
                if seen >= height {
                    continue;
                }
                // One read for every new height; a height the chain cannot
                // serve (a block lost with a restarted node) is passed over.
                let blocks = chain.blocks(shard as u32, seen + 1..=height)?;
                self.progress.last_seen[shard] = height;
                for block in blocks {
                    let end = if end_is_block_time {
                        block.header.timestamp
                    } else {
                        self.clock.now()
                    };
                    // Batched fan-out: the tracker reads the block's two
                    // columns where they lie, groups them by shard, takes
                    // each shard lock once per block, and shows every
                    // completed record where it lies, under that lock
                    // (`on_matched` takes no lock of its own).
                    let mut committed = 0usize;
                    let tracker = &self.state.tracker;
                    tracker.complete_block_with(&block.tx_ids, &block.valid, end, &mut |record| {
                        committed += usize::from(record.status == TxStatus::Committed);
                        self.on_matched(record, end);
                    });
                    if committed > 0 {
                        *self.progress.shard_commits.entry(shard as u32).or_insert(0) += committed;
                    }
                }
            }
            match self.end_cycle() {
                Next::Exit => return Ok(()),
                Next::Deadline if final_pass => return Ok(()),
                Next::Deadline => final_pass = true,
                Next::Continue => self.clock.sleep(self.config.poll_interval),
            }
        }
    }

    /// Caliper-style per-event listener.
    fn listen(&mut self, events: &Receiver<CommitEvent>, per_event: Duration) {
        // An idle listener still runs the per-cycle tail once per interval.
        let idle_tick = self.clock.to_wall(self.config.poll_interval);
        loop {
            match events.recv_timeout(idle_tick) {
                // A listener that has fallen behind by more than the SDK
                // buffer loses responses — transactions that actually
                // committed never get counted, which is exactly why
                // interactive frameworks under-report under heavy load
                // (paper §V-A).
                Ok(_) if events.len() > self.config.event_buffer => continue,
                Ok(event) => {
                    // Parsing/handling the response costs client CPU —
                    // the resource wastage the paper attributes to
                    // interactive testing under heavy load.
                    self.clock.sleep(per_event);
                    let end = event.committed_at;
                    let record = self
                        .state
                        .tracker
                        .complete(&event.tx_id, end, event.success);
                    if let Some(record) = record {
                        if event.success {
                            *self.progress.shard_commits.entry(event.shard).or_insert(0) += 1;
                        }
                        self.on_matched(&record, end);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            if !matches!(self.end_cycle(), Next::Continue) {
                return;
            }
        }
    }

    /// Per-record post-processing of a completed match: the lifecycle
    /// spans. One predictable branch when observability is off.
    #[inline]
    fn on_matched(&self, record: &TxRecord, end: Duration) {
        if self.obs.enabled() {
            let spans = self.obs.spans();
            spans.record(Stage::InBlock, end.saturating_sub(record.start));
            spans.record(Stage::Matched, self.clock.now().saturating_sub(end));
        }
    }

    /// The per-cycle tail shared by both variants.
    fn end_cycle(&mut self) -> Next {
        if let Some(observer) = self.fault_observer.as_mut() {
            observer.poll();
        }
        if self.obs.enabled() {
            self.pending.set(self.state.tracker.pending() as u64);
        }
        let now = self.clock.now();
        if let Some(checkpointer) = self.checkpointer.as_mut() {
            if checkpointer.observe(self.state, now, &self.progress) {
                return Next::Exit; // killed: exit without a further snapshot
            }
        }
        if let Some(dog) = self.watchdog.as_mut() {
            if dog.check(self.state, now, self.obs.journal()) {
                return Next::Exit; // stalled: the abort flag winds the run down
            }
        }
        match self.state.drain_deadline.get() {
            None => Next::Continue,
            Some(_) if self.state.tracker.pending() == 0 => Next::Exit,
            Some(deadline) if self.clock.now() >= *deadline => Next::Deadline,
            Some(_) => Next::Continue,
        }
    }
}
