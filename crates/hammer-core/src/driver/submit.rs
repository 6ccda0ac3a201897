//! The **Pacer** and **Submit** stages (Fig. 3, steps 4-5): the pacer
//! releases each control slice's budget into a token counter; each worker
//! pairs a signed transaction with a token and hands it to the chain.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use hammer_chain::client::{BlockchainClient, ErrorKind};
use hammer_chain::types::{SignedTransaction, TxStatus};
use hammer_net::SimClock;
use hammer_obs::{Obs, Stage};
use hammer_workload::ControlSequence;

use super::RunState;
use crate::retry::{RetryDecision, RetryPolicy};
use crate::signer::SignedStream;

/// The budget tokens between the pacer and the workers, as a counter: the
/// pacer adds a slice's whole budget in one call and a worker takes one
/// with a compare-exchange, so a token costs no lock and no syscall. Either
/// side parks only when it cannot proceed — a worker on an empty counter,
/// the pacer when `cap` tokens sit unclaimed — and, like a channel, each
/// side learns when the other is gone: [`Tokens::close`] sends parked
/// workers home once the counter is empty, and the pacer stops waiting when
/// the last [`Taker`] is dropped.
///
/// All atomics are `SeqCst`: the park/wake handshakes below rely on one
/// total order between a store to one of them and a load of another.
pub(super) struct Tokens {
    /// Released and not yet taken. Only the pacer adds, so a reading can
    /// only be too high by the time it is used: `cap` is never exceeded.
    available: AtomicU64,
    cap: u64,
    /// No further release will come.
    closed: AtomicBool,
    /// Live [`Taker`] handles.
    takers: AtomicUsize,
    /// The pacer is waiting at `cap`; a take must wake it.
    pacer_parked: AtomicBool,
    /// Held around every wait and taken before every notify.
    park: Mutex<()>,
    released: Condvar,
    taken: Condvar,
}

impl Tokens {
    pub(super) fn new(cap: u64) -> Self {
        Tokens {
            available: AtomicU64::new(0),
            cap,
            closed: AtomicBool::new(false),
            takers: AtomicUsize::new(0),
            pacer_parked: AtomicBool::new(false),
            park: Mutex::new(()),
            released: Condvar::new(),
            taken: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ()> {
        // The mutex guards no data, so a poisoned one is as good as new.
        self.park.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A worker's handle; clones and drops are counted.
    pub(super) fn taker(&self) -> Taker<'_> {
        self.takers.fetch_add(1, Ordering::SeqCst);
        Taker(self)
    }

    /// Pacer side: adds `budget` tokens, waiting whenever `cap` are
    /// unclaimed. Returns `false` once every taker has left.
    pub(super) fn release(&self, mut budget: u64) -> bool {
        loop {
            if self.takers.load(Ordering::SeqCst) == 0 {
                return false;
            }
            let room = self
                .cap
                .saturating_sub(self.available.load(Ordering::SeqCst));
            let grant = room.min(budget);
            if grant > 0 {
                self.available.fetch_add(grant, Ordering::SeqCst);
                budget -= grant;
                self.wake_takers();
            }
            if budget == 0 {
                return true;
            }
            let mut guard = self.lock();
            self.pacer_parked.store(true, Ordering::SeqCst);
            while self.available.load(Ordering::SeqCst) >= self.cap
                && self.takers.load(Ordering::SeqCst) > 0
            {
                guard = self.taken.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            self.pacer_parked.store(false, Ordering::SeqCst);
        }
    }

    /// Pacer side: nothing more will be released. Workers drain what is
    /// left and then [`Taker::take`] returns `false`.
    pub(super) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake_takers();
    }

    fn try_take(&self) -> bool {
        self.available
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Parks until a token could be taken (`true`) or the counter is closed
    /// and empty (`false`).
    fn take_parked(&self) -> bool {
        let mut guard = self.lock();
        loop {
            // `closed` first: read as set, every release is already
            // counted, so a failed take after it means empty for good.
            let closed = self.closed.load(Ordering::SeqCst);
            if self.try_take() {
                return true;
            }
            if closed {
                return false;
            }
            guard = self.released.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Both wakes pass through the lock first: a waiter that checked its
    /// condition before the change is inside its wait by the time the lock
    /// is granted, so the signal cannot fall between its check and its wait.
    fn wake_takers(&self) {
        drop(self.lock());
        self.released.notify_all();
    }

    fn wake_pacer(&self) {
        drop(self.lock());
        self.taken.notify_one();
    }
}

/// A worker's end of [`Tokens`].
pub(super) struct Taker<'a>(&'a Tokens);

impl Taker<'_> {
    /// Takes one token, parking while none is available. `false` when the
    /// control sequence is exhausted (or the pacer aborted).
    pub(super) fn take(&self) -> bool {
        let tokens = self.0;
        let took = tokens.try_take() || tokens.take_parked();
        if took && tokens.pacer_parked.load(Ordering::SeqCst) {
            tokens.wake_pacer();
        }
        took
    }
}

impl Clone for Taker<'_> {
    fn clone(&self) -> Self {
        self.0.taker()
    }
}

impl Drop for Taker<'_> {
    fn drop(&mut self) {
        if self.0.takers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.wake_pacer();
        }
    }
}

/// When the pacer releases the next slice: one slice after the last, so
/// the time a release took and a small oversleep are absorbed by the next
/// sleep instead of stretching the schedule. After a stall longer than a
/// slice the schedule restarts from `now` — the slices that fell into the
/// stall are not released in a catch-up burst.
fn next_release(previous: Duration, slice: Duration, now: Duration) -> Duration {
    (previous + slice).max(now)
}

/// Pacer: releases each slice's budget on the simulated clock. Returning
/// closes the token counter, which wakes any worker parked on it — at the
/// end of the control sequence, or early on abort.
pub(super) fn pace(control: &ControlSequence, clock: &SimClock, state: &RunState, tokens: &Tokens) {
    let mut next = clock.now();
    for i in 0..control.len() {
        if state.aborted() || !tokens.release(control.budget(i).into()) {
            break;
        }
        next = next_release(next, control.slice_duration(), clock.now());
        clock.sleep_until(next);
    }
    tokens.close();
}

/// One submission worker. Every worker owns a clone, so the pacer and the
/// signer pool are released — the token counter loses its last taker, the
/// signed stream its last consumer — as soon as the last worker exits.
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
    pub tokens: Taker<'a>,
    pub signed: SignedStream,
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
            // Transaction first, token second. Transactions arrive in
            // chunks a worker keeps to itself; a worker that took its token
            // first could sit on it waiting for a chunk while the last
            // transactions are in another worker's chunk with no token left
            // to submit them.
            let Ok(tx) = self.signed.recv() else {
                return; // workload exhausted
            };
            if !self.tokens.take() {
                return; // control sequence exhausted
            }
            // One clock reading per transaction: the one that ended the
            // pacing wait is the submission time and the next wait's base.
            let start = self.clock.sleep_until(next_allowed);
            next_allowed = start + self.submit_delay;
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
                // completes the record as failed and retires the id under
                // one shard lock.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_until(condition: impl Fn() -> bool) {
        while !condition() {
            std::thread::yield_now();
        }
    }

    fn parked_at_cap(tokens: &Tokens) -> bool {
        tokens.pacer_parked.load(Ordering::SeqCst)
            && tokens.available.load(Ordering::SeqCst) == tokens.cap
    }

    #[test]
    fn four_takers_take_exactly_what_uneven_budgets_release() {
        let budgets = [0u64, 1, 1000, 3, 0, 517, 64, 65, 2, 4096];
        let tokens = Tokens::new(64);
        let first = tokens.taker();
        let taken: u64 = std::thread::scope(|scope| {
            let takers: Vec<_> = (0..4)
                .map(|_| {
                    let taker = first.clone();
                    scope.spawn(move || {
                        let mut n = 0u64;
                        while taker.take() {
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            drop(first);
            for budget in budgets {
                assert!(tokens.release(budget));
                assert!(tokens.available.load(Ordering::SeqCst) <= tokens.cap);
            }
            tokens.close();
            takers.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(taken, budgets.iter().sum::<u64>());
        assert_eq!(tokens.available.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn close_sends_takers_home_once_the_counter_is_empty() {
        let tokens = Tokens::new(8);
        let first = tokens.taker();
        std::thread::scope(|scope| {
            let takers: Vec<_> = (0..4)
                .map(|_| {
                    let taker = first.clone();
                    scope.spawn(move || std::iter::from_fn(|| taker.take().then_some(())).count())
                })
                .collect();
            assert!(tokens.release(3));
            spin_until(|| tokens.available.load(Ordering::SeqCst) == 0);
            // Gives the takers time to park; the assertions hold whether
            // close finds them parked or still on their way there.
            std::thread::sleep(Duration::from_millis(20));
            tokens.close();
            let taken: usize = takers.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(taken, 3);
        });
        assert!(!first.take(), "a closed, empty counter gives nothing");
    }

    #[test]
    fn the_pacer_parks_at_the_bound_and_resumes_after_takes() {
        let tokens = Tokens::new(10);
        let taker = tokens.taker();
        std::thread::scope(|scope| {
            let pacer = scope.spawn(|| tokens.release(25));
            let mut taken = 0;
            // 25 released through a bound of 10: the pacer parks with the
            // counter full, and every take lets exactly one more in.
            while taken < 15 {
                spin_until(|| parked_at_cap(&tokens));
                assert!(!pacer.is_finished());
                assert!(taker.take());
                taken += 1;
            }
            assert!(pacer.join().unwrap(), "the whole budget was released");
            assert_eq!(tokens.available.load(Ordering::SeqCst), 10);
        });
    }

    #[test]
    fn a_pacer_parked_at_the_bound_returns_when_the_last_taker_leaves() {
        let tokens = Tokens::new(4);
        let taker = tokens.taker();
        let other = taker.clone();
        std::thread::scope(|scope| {
            let pacer = scope.spawn(|| tokens.release(10));
            spin_until(|| parked_at_cap(&tokens));
            drop(other);
            // One taker is left: still parked.
            std::thread::sleep(Duration::from_millis(10));
            assert!(!pacer.is_finished());
            drop(taker);
            assert!(!pacer.join().unwrap(), "nobody is left to take the rest");
        });
        assert!(!tokens.release(1), "and no later release is attempted");
    }

    #[test]
    fn release_times_do_not_drift() {
        // 1 000 slices of 100 ms; every wake-up is late by a jitter of up
        // to 3 ms (a release that took time, an oversleep). Sleeping a full
        // slice after each release would end 1.5 s late.
        let slice = Duration::from_millis(100);
        let mut next = Duration::ZERO;
        for i in 0..1000u64 {
            let now = next + Duration::from_micros((i * 7919) % 3000);
            next = next_release(next, slice, now);
        }
        assert_eq!(next, slice * 1000);
    }

    #[test]
    fn a_stall_restarts_the_schedule_instead_of_bursting() {
        let slice = Duration::from_millis(100);
        let stalled_until = Duration::from_millis(1234);
        let next = next_release(Duration::from_millis(300), slice, stalled_until);
        assert_eq!(
            next, stalled_until,
            "slices lost to the stall are not replayed"
        );
        assert_eq!(next_release(next, slice, next), next + slice);
    }
}
