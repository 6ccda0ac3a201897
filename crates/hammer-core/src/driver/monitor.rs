//! The **Monitor/Match** stage (Fig. 3, step 6): observes commitment by
//! reading sealed blocks, in every testing mode. One scan loop reads each
//! shard's new heights through `latest_height` and `blocks`; only the step
//! applied to a block differs. Task processing and the batch baseline match
//! it at once; the interactive (Caliper-style) listener expands it into
//! [`CommitEvent`]s in its SDK buffer and handles them one at a time. Every
//! mode shares the per-record `on_matched` step and the per-cycle
//! `end_cycle` tail, and an idle monitor sleeps `poll_interval` of
//! *simulated* time, so the watchdog and the kill switch run at one cadence
//! in every mode and at every speed-up.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hammer_chain::client::{BlockchainClient, ChainError, CommitEvent};
use hammer_chain::kernel::SimChain;
use hammer_chain::types::{Block, TxStatus};
use hammer_net::{FaultObserver, SimClock};
use hammer_obs::{Obs, Stage};

use super::{EvalConfig, EvalError, Inputs, RunState, TestingMode};
use crate::checkpoint::DriverCheckpoint;
use crate::index::TxRecord;

/// How far the monitor has got: what a checkpoint records of it and a
/// resumed run starts from.
pub(super) struct Progress {
    /// Per-shard height of the last block read.
    pub last_seen: Vec<u64>,
    /// Per-shard committed counts.
    pub shard_commits: BTreeMap<u32, usize>,
}

impl Progress {
    /// The heights a resumed run reads on from: per shard, the last block
    /// read, or, while the listener still holds some of its events, the
    /// block before the first of them. So a resumed run re-reads what sat
    /// in the SDK buffer at the kill.
    fn resume_heights(&self, buffered: &VecDeque<CommitEvent>) -> Vec<u64> {
        let mut heights = self.last_seen.clone();
        for event in buffered {
            let height = &mut heights[event.shard as usize];
            *height = (*height).min(event.block_height.saturating_sub(1));
        }
        heights
    }
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
    dir: PathBuf,
    interval: Duration,
    next_at: Duration,
    kill_at: Option<Duration>,
    workload_seed: u64,
    total: u64,
}

impl Checkpointer {
    /// Writes the periodic snapshot when one is due, then consults the kill
    /// switch. Returns `Ok(true)` when it fired: the monitor must exit
    /// *without* writing a further checkpoint — everything after the last
    /// periodic snapshot is lost, exactly as in a real crash. A snapshot
    /// already due is never lost to a kill seen in the same cycle, and the
    /// first cycle's is due at once, so a killed run always leaves a
    /// checkpoint however long the host took to schedule the monitor. A
    /// snapshot that cannot be written is the run's error.
    fn observe(
        &mut self,
        state: &RunState,
        now: Duration,
        progress: &Progress,
        buffered: &VecDeque<CommitEvent>,
    ) -> Result<bool, EvalError> {
        if now >= self.next_at {
            while self.next_at <= now {
                self.next_at += self.interval;
            }
            // One call snapshots records *and* rejected ids: the tracker
            // updates both under the same shard lock on rejection and holds
            // every shard lock while copying, so the pair is consistent —
            // a rejection visible in the records always has its id here.
            let (records, rejected_ids) = state.tracker.snapshot();
            let shard_commits = progress.shard_commits.iter();
            DriverCheckpoint {
                workload_seed: self.workload_seed,
                total: self.total,
                retried: state.retried.load(Ordering::Relaxed),
                last_seen: progress.resume_heights(buffered),
                shard_commits: shard_commits.map(|(s, n)| (*s, *n as u64)).collect(),
                rejected_ids,
                records,
            }
            .save(&self.dir)?;
        }
        let killed = self.kill_at.is_some_and(|kill_at| now >= kill_at);
        if killed {
            state.killed.store(true, Ordering::Release);
            state.abort.store(true, Ordering::Release);
        }
        Ok(killed)
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
    /// Interactive mode's Caliper-style listener: its SDK buffer of the
    /// events of the blocks read, the client CPU handling one costs (the
    /// listener time-shares the client machine with the submitters), and
    /// when the buffer is next topped up even if it has not emptied.
    events: VecDeque<CommitEvent>,
    per_event: Duration,
    top_up_at: Duration,
    /// Journals fault-plan enter/exit edges, polled once per cycle.
    fault_observer: Option<FaultObserver>,
    watchdog: Option<StallWatchdog>,
    checkpointer: Option<Checkpointer>,
    progress: Progress,
}

impl<'a> Monitor<'a> {
    /// Reads on from `progress.last_seen`: the chain's heights when the run
    /// started, or a checkpoint's.
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
        let share = active_threads as f64 / config.machine.vcpus.max(1) as f64;
        Monitor {
            state,
            config,
            events: VecDeque::new(),
            per_event: config.listen_cost.mul_f64(share.max(1.0)),
            top_up_at: Duration::ZERO,
            fault_observer: obs.enabled().then(|| FaultObserver::new(deployment.net())),
            watchdog: config.stall_budget.map(|budget| StallWatchdog {
                budget,
                probe: Arc::clone(deployment.chain()),
                last_sig: (0, 0, 0, 0),
                last_change: clock.now(),
            }),
            checkpointer: inputs.recovery.map(|r| Checkpointer {
                dir: r.dir.clone(),
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
    /// absorbed below the client interface), and so is a snapshot that
    /// cannot be written: it is journaled, the run is aborted, and the
    /// error is returned instead of letting every in-flight transaction
    /// silently time out.
    pub(super) fn run(mut self) -> Result<BTreeMap<u32, usize>, EvalError> {
        let outcome = self.scan();
        if let Err(e) = &outcome {
            let now = self.clock.now();
            self.obs
                .journal()
                .monitor_failed(now, "driver", &e.to_string());
            self.state.abort.store(true, Ordering::Release);
        }
        outcome.map(|()| self.progress.shard_commits)
    }

    /// The one scan loop. A cycle is one step, then the per-cycle tail; a
    /// cycle with nothing to do ends in a `poll_interval` sleep.
    fn scan(&mut self) -> Result<(), EvalError> {
        // Set once the drain deadline has passed: one last step runs so
        // blocks committed during the final poll window still match before
        // the stragglers are declared timed out.
        let mut final_pass = false;
        loop {
            let busy = match self.config.mode {
                TestingMode::Interactive => self.listen().map_err(EvalError::Chain)?,
                _ => {
                    for (shard, block) in self.read().map_err(EvalError::Chain)? {
                        self.match_block(shard, &block);
                    }
                    false
                }
            };
            match self.end_cycle()? {
                Next::Exit => return Ok(()),
                Next::Deadline if final_pass => return Ok(()),
                Next::Deadline => final_pass = true,
                Next::Continue if busy => {}
                Next::Continue => self.clock.sleep(self.config.poll_interval),
            }
        }
    }

    /// Every block sealed on each shard since the last read, with its
    /// shard, in height order per shard: one `blocks` call per shard with
    /// new heights. A height the chain cannot serve (a block lost with a
    /// restarted node) is passed over.
    fn read(&mut self) -> Result<Vec<(u32, Arc<Block>)>, ChainError> {
        let mut read = Vec::new();
        for (shard, seen) in (0u32..).zip(self.progress.last_seen.iter_mut()) {
            let height = self.chain.latest_height(shard)?;
            if *seen < height {
                let blocks = self.chain.blocks(shard, *seen + 1..=height)?;
                read.extend(blocks.into_iter().map(|block| (shard, block)));
                *seen = height;
            }
        }
        Ok(read)
    }

    /// Batch testing's step, shared by Hammer task processing and the
    /// Blockbench baseline. The difference is the end-time source:
    /// Algorithm 1 records the *block* time; the baseline only knows the
    /// *poll* time (the ξ1 skew).
    fn match_block(&mut self, shard: u32, block: &Block) {
        let end = match self.config.mode {
            TestingMode::TaskProcessing => block.header.timestamp,
            _ => self.clock.now(),
        };
        // Batched fan-out: the tracker reads the block's two columns where
        // they lie, walks them once per shard, takes each shard lock once per
        // block, and shows every completed record where it lies, under
        // that lock (`on_matched` takes no lock of its own).
        let mut committed = 0usize;
        let tracker = &self.state.tracker;
        tracker.complete_block_with(&block.tx_ids, &block.valid, end, &mut |record| {
            committed += usize::from(record.status == TxStatus::Committed);
            self.on_matched(record, end);
        });
        if committed > 0 {
            *self.progress.shard_commits.entry(shard).or_insert(0) += committed;
        }
    }

    /// Interactive testing's step: tops the SDK buffer up with the events
    /// of the blocks sealed since the last read when it is empty or a poll
    /// interval of listener time has passed, then handles one event.
    /// Returns whether there was one.
    fn listen(&mut self) -> Result<bool, ChainError> {
        let now = self.clock.now();
        if self.events.is_empty() || now >= self.top_up_at {
            self.top_up_at = now + self.config.poll_interval;
            for (shard, block) in self.read()? {
                let (block_height, committed_at) = (block.header.height, block.header.timestamp);
                let events = block.entries().map(|(tx_id, success)| CommitEvent {
                    tx_id,
                    success,
                    block_height,
                    shard,
                    committed_at,
                });
                self.events.extend(events);
            }
        }
        // A listener that has fallen behind by more than the SDK buffer
        // loses responses: an event taken while more than `event_buffer`
        // stand behind it is dropped unhandled, and the transaction that
        // actually committed is never counted, which is exactly why
        // interactive frameworks under-report under heavy load (paper §V-A).
        let depth = self.config.event_buffer;
        let lost = self.events.len().saturating_sub(depth + 1);
        self.events.drain(..lost);
        let Some(event) = self.events.pop_front() else {
            return Ok(false);
        };
        // Parsing/handling the response costs client CPU — the resource
        // wastage the paper attributes to interactive testing under heavy
        // load.
        self.clock.sleep(self.per_event);
        let end = event.committed_at;
        let tracker = &self.state.tracker;
        if let Some(record) = tracker.complete(&event.tx_id, end, event.success) {
            if event.success {
                *self.progress.shard_commits.entry(event.shard).or_insert(0) += 1;
            }
            self.on_matched(&record, end);
        }
        Ok(true)
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

    /// The per-cycle tail shared by every mode.
    fn end_cycle(&mut self) -> Result<Next, EvalError> {
        if let Some(observer) = self.fault_observer.as_mut() {
            observer.poll();
        }
        if self.obs.enabled() {
            self.pending.set(self.state.tracker.pending() as u64);
        }
        let now = self.clock.now();
        if let Some(checkpointer) = self.checkpointer.as_mut() {
            if checkpointer.observe(self.state, now, &self.progress, &self.events)? {
                return Ok(Next::Exit); // killed: exit without a further snapshot
            }
        }
        if let Some(dog) = self.watchdog.as_mut() {
            if dog.check(self.state, now, self.obs.journal()) {
                return Ok(Next::Exit); // stalled: the abort flag winds the run down
            }
        }
        Ok(match self.state.drain_deadline.get() {
            None => Next::Continue,
            Some(_) if self.state.tracker.pending() == 0 => Next::Exit,
            Some(deadline) if self.clock.now() >= *deadline => Next::Deadline,
            Some(_) => Next::Continue,
        })
    }
}
