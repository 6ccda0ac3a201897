//! The **Pacer** and **Submit** stages (Fig. 3, steps 4-5): the pacer
//! releases each control slice's budget as tokens; each worker pairs a
//! token with a signed transaction and hands it to the chain.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use hammer_chain::client::{BlockchainClient, ErrorKind};
use hammer_chain::types::{SignedTransaction, TxStatus};
use hammer_net::SimClock;
use hammer_obs::{Obs, Stage};
use hammer_store::table::RowOutcome;
use hammer_workload::ControlSequence;

use super::report::outcome_of;
use super::RunState;
use crate::retry::{RetryDecision, RetryPolicy};

/// Pacer: releases each slice's budget on the simulated clock. Returning
/// drops the sender, which ends the token stream and wakes any worker
/// blocked on it — at the end of the control sequence, or early on abort.
pub(super) fn pace(
    control: &ControlSequence,
    clock: &SimClock,
    state: &RunState,
    tokens: Sender<()>,
) {
    for i in 0..control.len() {
        if state.aborted() {
            return;
        }
        for _ in 0..control.budget(i) {
            if tokens.send(()).is_err() {
                return;
            }
        }
        clock.sleep(control.slice_duration());
    }
}

/// One submission worker. Every worker owns a clone, so the token and
/// signed-transaction streams disconnect — releasing the pacer and the
/// signer pool — as soon as the last worker exits.
#[derive(Clone)]
pub(super) struct Submitter<'a> {
    pub state: &'a RunState,
    pub chain: Arc<dyn BlockchainClient>,
    pub clock: SimClock,
    /// Metric handles are resolved once per run; with a disabled registry
    /// they are detached no-ops, so the hot path pays one predictable
    /// branch per event.
    pub obs: Obs,
    pub submitted_total: hammer_obs::Counter,
    pub retried_total: hammer_obs::Counter,
    pub tokens: Receiver<()>,
    pub signed: Receiver<SignedTransaction>,
    /// Client-machine cost of preparing one submission.
    pub submit_delay: Duration,
    pub retry: RetryPolicy,
    /// How long after its first attempt a transaction may keep retrying.
    pub retry_deadline: Duration,
}

impl Submitter<'_> {
    /// Runs until the control sequence or the workload is exhausted, or
    /// the run aborts (stall watchdog, kill switch, failed monitor).
    pub(super) fn run(self) {
        // Pace by absolute schedule: each worker may submit at most once
        // per submit_delay of simulated time. An absolute deadline
        // self-corrects when the host deschedules the thread
        // (single-core hosts).
        let mut next_allowed = self.clock.now();
        while !self.state.aborted() {
            if self.tokens.recv().is_err() {
                return; // control sequence exhausted
            }
            let Ok(tx) = self.signed.recv() else {
                return; // workload exhausted
            };
            self.clock.sleep_until(next_allowed);
            next_allowed = self.clock.now().max(next_allowed) + self.submit_delay;
            let start = self.clock.now();
            // Register before submitting so a fast commit can never race
            // past the tracker.
            self.state
                .tracker
                .insert(tx.id, tx.tx.client_id, tx.tx.server_id, start);
            self.state.submitted.fetch_add(1, Ordering::Relaxed);
            self.submitted_total.inc();
            if !self.submit(tx, start) {
                return;
            }
        }
    }

    /// The attempt loop: submits `tx` until the chain accepts it, refuses
    /// it terminally, or the retry policy gives up. With retrying disabled
    /// that is exactly one attempt, which consumes the transaction without
    /// cloning it and rejects on any error. All decisions go through the
    /// error taxonomy (`is_retryable`/`kind`), never variants. Returns
    /// `false` when the run aborted mid-retry: the record stays pending
    /// and reports as timed out.
    fn submit(&self, tx: SignedTransaction, start: Duration) -> bool {
        let (id, client_id) = (tx.id, tx.tx.client_id);
        let give_up_at = start + self.retry_deadline;
        let mut held = Some(tx);
        let mut attempt = 0u32;
        loop {
            // Only a policy that may retry keeps a copy; with retrying off
            // the transaction moves into its one attempt.
            let sending = if self.retry.enabled() {
                held.clone()
            } else {
                held.take()
            };
            let err = match self
                .chain
                .submit(sending.expect("a disabled retry policy never loops"))
            {
                Ok(_) => {
                    if self.obs.enabled() {
                        let took = self.clock.now().saturating_sub(start);
                        self.obs.spans().record(Stage::Submitted, took);
                    }
                    return true;
                }
                Err(e) => e,
            };
            if !(self.retry.enabled() && err.is_retryable()) {
                // The single terminal-rejection site. `Tracker::reject`
                // completes the record as a failed row and retires the id
                // in one shard-lock acquisition — exactly what `outcome_of`
                // prescribes today. Extend the tracker before extending
                // the mapping.
                debug_assert!(
                    matches!(outcome_of(&err), RowOutcome::Failed),
                    "Tracker::reject records Failed; outcome_of now maps {:?} elsewhere",
                    err.kind()
                );
                self.state.rejected.fetch_add(1, Ordering::Relaxed);
                self.state.tracker.reject(&id, start);
                return true;
            }
            let now = self.clock.now();
            let journal = self.obs.journal();
            if self.obs.enabled() && attempt == 0 && err.kind() == ErrorKind::Backpressure {
                // Journal each backpressure episode once (at its first
                // attempt), not once per retry.
                journal.backpressure(now, &format!("client-{client_id}"), &err.to_string());
            }
            // All retry arithmetic goes through the policy's pure decision
            // function, so tests can replay the exact worker behaviour
            // without a chain.
            let decision = self
                .retry
                .decide(attempt, id.fingerprint(), now, give_up_at);
            let (status, outcome) = match decision {
                RetryDecision::Retry(pause) => {
                    self.clock.sleep(pause);
                    attempt += 1;
                    self.state.retried.fetch_add(1, Ordering::Relaxed);
                    self.retried_total.inc();
                    if self.obs.enabled() {
                        self.obs.spans().record(Stage::Retried, pause);
                    }
                    if self.state.aborted() {
                        return false;
                    }
                    continue;
                }
                RetryDecision::Drop => (TxStatus::Dropped, "dropped"),
                RetryDecision::Expire => (TxStatus::Expired, "expired"),
            };
            let _ = self.state.tracker.abandon(&id, now, status);
            journal.retry_exhausted(now, &format!("client-{client_id}"), outcome, attempt.into());
            return true;
        }
    }
}
