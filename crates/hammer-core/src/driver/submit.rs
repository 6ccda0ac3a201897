//! The **Pacer** and **Submit** stages (Fig. 3, steps 4-5): the pacer
//! releases each control slice's budget into a token counter; each worker
//! pairs the signed transactions of the chunk it holds with tokens and
//! hands the chain as many as have come due, in one call.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use hammer_chain::client::{BlockchainClient, ChainError, ErrorKind};
use hammer_chain::mempool::MempoolError;
use hammer_chain::types::{SignedTransaction, TxId, TxStatus};
use hammer_net::SimClock;
use hammer_obs::{Obs, Stage};
use hammer_workload::ControlSequence;

use super::RunState;
use crate::retry::{RetryDecision, RetryPolicy};
use crate::signer::SignedStream;

/// The budget tokens between the pacer and the workers, as a counter: the
/// pacer adds a slice's whole budget in one call and a worker takes what
/// its piece needs with one compare-exchange, so tokens cost no lock and
/// no syscall. Either side parks only when it cannot proceed — a worker on
/// an empty counter, the pacer when `cap` tokens sit unclaimed — and, like
/// a channel, each side learns when the other is gone: [`Tokens::close`]
/// sends parked workers home once the counter is empty, and the pacer stops
/// waiting when the last [`Taker`] is dropped.
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
    /// left and then [`Taker::take_up_to`] takes none.
    pub(super) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake_takers();
    }

    /// Takes `min(n, available)` tokens if any are available.
    fn try_take_up_to(&self, n: u64) -> u64 {
        self.available
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |available| {
                (available > 0).then(|| available - available.min(n))
            })
            .map_or(0, |available| available.min(n))
    }

    /// Parks until tokens could be taken (how many) or the counter is
    /// closed and empty (0).
    fn take_parked(&self, n: u64) -> u64 {
        let mut guard = self.lock();
        loop {
            // `closed` first: read as set, every release is already
            // counted, so a failed take after it means empty for good.
            let closed = self.closed.load(Ordering::SeqCst);
            let took = self.try_take_up_to(n);
            if took > 0 || closed {
                return took;
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
    /// Takes up to `n` tokens, as many as are available, parking while
    /// none is. Answers how many it took — 0 once the control sequence is
    /// exhausted (or the pacer aborted) — and whether it had to park.
    pub(super) fn take_up_to(&self, n: u64) -> (u64, bool) {
        debug_assert!(n > 0, "a take asks for at least one token");
        let tokens = self.0;
        let (took, parked) = match tokens.try_take_up_to(n) {
            0 => (tokens.take_parked(n), true),
            took => (took, false),
        };
        if took > 0 && tokens.pacer_parked.load(Ordering::SeqCst) {
            tokens.wake_pacer();
        }
        (took, parked)
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

/// How many of the `held` transactions a worker may hand the chain at the
/// reading `now`: one per whole `delay` elapsed since its previous
/// submission at `previous` — the client-machine slots that have come due —
/// at least one and at most `held`. The worker sleeps until one slot has
/// passed before it reads the clock, so a slow client (`delay` far above a
/// submission's own cost) gets one transaction per call and only a fast one
/// gets its whole chunk. A first submission, with no previous one, is one
/// transaction.
fn due_slots(previous: Option<Duration>, delay: Duration, now: Duration, held: usize) -> usize {
    let Some(previous) = previous else {
        return 1;
    };
    let elapsed = now.saturating_sub(previous).as_nanos();
    let slots = elapsed.checked_div(delay.as_nanos()).unwrap_or(u128::MAX);
    usize::try_from(slots)
        .unwrap_or(usize::MAX)
        .clamp(1, held.max(1))
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
    /// the run aborts (stall watchdog, kill switch, failed monitor). At an
    /// abort the untaken rest of the chunk is neither submitted nor
    /// tracked.
    pub(super) fn run(self) {
        let mut held = VecDeque::new();
        // The ids of the piece in the chain's hands, kept to name a failed
        // one: one buffer for the worker's whole run, so a submission
        // allocates nothing.
        let mut ids = Vec::new();
        // The start of this worker's previous submission: each worker may
        // submit once per submit_delay of simulated time, so the slots that
        // have come due since then bound the next piece of its chunk.
        // Sleeping to an absolute deadline self-corrects when the host
        // deschedules the thread (single-core hosts).
        let mut previous: Option<Duration> = None;
        while !self.state.aborted() {
            // Transactions first, tokens second. Transactions arrive in
            // chunks a worker keeps to itself; a worker that took tokens
            // first could sit on them waiting for a chunk while the last
            // transactions are in another worker's chunk with no token left
            // to submit them.
            if held.is_empty() {
                let Ok(chunk) = self.signed.recv_chunk() else {
                    return; // workload exhausted
                };
                held = VecDeque::from(chunk);
            }
            let next_slot = previous.map_or(Duration::ZERO, |p| p + self.submit_delay);
            let now = self.clock.sleep_until(next_slot);
            let due = due_slots(previous, self.submit_delay, now, held.len());
            let (taken, parked) = self.tokens.take_up_to(due as u64);
            if taken == 0 {
                return; // control sequence exhausted
            }
            // One clock reading per piece: the one that ended the pacing
            // wait is every member's submission time and the next wait's
            // base, unless the tokens came later.
            let start = if parked { self.clock.now() } else { now };
            previous = Some(start);
            let piece: Vec<_> = if taken as usize == held.len() {
                std::mem::take(&mut held).into()
            } else {
                held.drain(..taken as usize).collect()
            };
            // Register before submitting so a fast commit can never race
            // past the tracker.
            self.state.tracker.insert_chunk(&piece, start);
            self.state.submitted.fetch_add(taken, Ordering::Relaxed);
            self.submitted_total.add(taken);
            ids.clear();
            ids.extend(piece.iter().map(|tx| tx.id));
            if !self.send(piece, &ids, start) {
                return;
            }
        }
    }

    /// Hands `piece`, whose ids are `ids`, to the chain in one call and
    /// settles each answer as that transaction's first attempt. Only a
    /// policy that may retry keeps a copy of the piece; with retrying off
    /// it moves into its one call. Returns `false` when the run aborted
    /// mid-retry.
    fn send(&self, piece: Vec<SignedTransaction>, ids: &[TxId], start: Duration) -> bool {
        let mut kept = self
            .retry
            .enabled()
            .then(|| piece.clone())
            .into_iter()
            .flatten();
        let answers = self.chain.submit_batch(piece);
        assert_eq!(
            answers.len(),
            ids.len(),
            "submit_batch answers each transaction once"
        );
        // One clock reading for the piece's Submitted spans.
        let took = self.took(start);
        let mut waiting = Vec::new();
        for (&id, answer) in ids.iter().zip(answers) {
            waiting.extend(self.settle(id, kept.next(), answer, start, 0, took));
        }
        self.retry_all(waiting, start)
    }

    /// How long after `start` the chain answered, when spans are recorded.
    fn took(&self, start: Duration) -> Option<Duration> {
        self.obs
            .enabled()
            .then(|| self.clock.now().saturating_sub(start))
    }

    /// The one place an answer is settled, for attempt `attempt` (0 is the
    /// piece's call) of a transaction submitted at `start`, answered `took`
    /// after it. Accepted, or a `Duplicate` (pooled already: a resume's
    /// re-offer), it is in flight. Any other error rejects it, abandons it
    /// when the retry policy gives up, or answers when to try it next.
    /// `copy` is `None` exactly when retrying is disabled, and then any
    /// error rejects. All decisions go through the error taxonomy
    /// (`is_retryable`/`kind`), never variants.
    fn settle(
        &self,
        id: TxId,
        copy: Option<SignedTransaction>,
        answer: Result<TxId, ChainError>,
        start: Duration,
        attempt: u32,
        took: Option<Duration>,
    ) -> Option<Retry> {
        let err = match answer {
            Ok(_) => {
                if let Some(took) = took {
                    self.obs.spans().record(Stage::Submitted, took);
                }
                return None;
            }
            Err(e) if e.rejection() == Some(MempoolError::Duplicate) => return None,
            Err(e) => e,
        };
        let Some(tx) = copy.filter(|_| err.is_retryable()) else {
            // The single terminal-rejection site. `Tracker::reject`
            // completes the record as failed and retires the id under one
            // shard lock.
            self.state.rejected.fetch_add(1, Ordering::Relaxed);
            self.state.tracker.reject(&id, start);
            return None;
        };
        let client_id = tx.tx.client_id;
        let now = self.clock.now();
        let journal = self.obs.journal();
        if self.obs.enabled() && attempt == 0 && err.kind() == ErrorKind::Backpressure {
            // Journal each backpressure episode once (at its first
            // attempt), not once per retry.
            journal.backpressure(now, &format!("client-{client_id}"), &err.to_string());
        }
        // All retry arithmetic goes through the policy's pure decision
        // function, so tests can replay the exact worker behaviour without
        // a chain.
        let give_up_at = start + self.retry_deadline;
        let (status, outcome) = match self
            .retry
            .decide(attempt, id.fingerprint(), now, give_up_at)
        {
            RetryDecision::Retry(pause) => {
                self.state.retried.fetch_add(1, Ordering::Relaxed);
                self.retried_total.inc();
                if self.obs.enabled() {
                    self.obs.spans().record(Stage::Retried, pause);
                }
                return Some(Retry {
                    at: now + pause,
                    attempt: attempt + 1,
                    tx,
                });
            }
            RetryDecision::Drop => (TxStatus::Dropped, "dropped"),
            RetryDecision::Expire => (TxStatus::Expired, "expired"),
        };
        let _ = self.state.tracker.abandon(&id, now, status);
        journal.retry_exhausted(now, &format!("client-{client_id}"), outcome, attempt.into());
        None
    }

    /// Resubmits each waiting transaction alone at its own time, earliest
    /// first, until each is accepted, refused or given up on: the items of
    /// one piece wait out their backoffs side by side, not one after
    /// another, so all of them are settled within the retry deadline of the
    /// piece's start. Returns `false` when the run aborted: what still
    /// waits stays pending and reports as timed out.
    fn retry_all(&self, mut waiting: Vec<Retry>, start: Duration) -> bool {
        while let Some(next) = (0..waiting.len()).min_by_key(|&i| waiting[i].at) {
            let Retry { at, attempt, tx } = waiting.swap_remove(next);
            self.clock.sleep_until(at);
            if self.state.aborted() {
                return false;
            }
            let id = tx.id;
            let answer = self.chain.submit_batch(vec![tx.clone()]).pop();
            let answer = answer.expect("submit_batch answers each transaction once");
            let took = self.took(start);
            waiting.extend(self.settle(id, Some(tx), answer, start, attempt, took));
        }
        true
    }
}

/// A transaction whose last attempt failed, waiting for its next one.
struct Retry {
    at: Duration,
    attempt: u32,
    tx: SignedTransaction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_net::thread;

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
            // Each taker asks for another amount each time.
            let takers: Vec<_> = [1u64, 3, 64, 128]
                .into_iter()
                .map(|ask| {
                    let taker = first.clone();
                    let take_all = move || {
                        let mut n = 0u64;
                        loop {
                            match taker.take_up_to(ask) {
                                (0, _) => return n,
                                (took, _) => {
                                    assert!(took <= ask);
                                    n += took;
                                }
                            }
                        }
                    };
                    thread::spawn_scoped(scope, "submit-test-taker", take_all).unwrap()
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
                    let take_all = move || {
                        std::iter::from_fn(|| Some(taker.take_up_to(2).0).filter(|&n| n > 0))
                            .sum::<u64>()
                    };
                    thread::spawn_scoped(scope, "submit-test-taker", take_all).unwrap()
                })
                .collect();
            assert!(tokens.release(3));
            spin_until(|| tokens.available.load(Ordering::SeqCst) == 0);
            // Gives the takers time to park; the assertions hold whether
            // close finds them parked or still on their way there.
            std::thread::sleep(Duration::from_millis(20));
            tokens.close();
            let taken: u64 = takers.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(taken, 3);
        });
        let nothing = first.take_up_to(1);
        assert_eq!(nothing.0, 0, "a closed, empty counter gives nothing");
    }

    #[test]
    fn the_pacer_parks_at_the_bound_and_resumes_after_takes() {
        let tokens = Tokens::new(10);
        let taker = tokens.taker();
        std::thread::scope(|scope| {
            let pacer = thread::spawn_scoped(scope, "submit-test-pacer", || tokens.release(25));
            let pacer = pacer.unwrap();
            let mut taken = 0;
            // 25 released through a bound of 10: the pacer parks with the
            // counter full, and every take lets exactly as many more in.
            for ask in [1, 2, 3, 4, 5] {
                spin_until(|| parked_at_cap(&tokens));
                assert!(!pacer.is_finished());
                assert_eq!(taker.take_up_to(ask), (ask, false));
                taken += ask;
            }
            assert_eq!(taken, 15);
            assert!(pacer.join().unwrap(), "the whole budget was released");
            assert_eq!(tokens.available.load(Ordering::SeqCst), 10);
        });
    }

    #[test]
    fn a_take_gets_what_is_there_and_parks_only_on_an_empty_counter() {
        let tokens = Tokens::new(64);
        let taker = tokens.taker();
        assert!(tokens.release(5));
        assert_eq!(taker.take_up_to(3), (3, false));
        assert_eq!(taker.take_up_to(3), (2, false), "the two that were left");
        std::thread::scope(|scope| {
            let waiting = thread::spawn_scoped(scope, "submit-test-taker", || taker.take_up_to(3));
            let waiting = waiting.unwrap();
            // Released while the taker is parked or still on its way there.
            assert!(tokens.release(1));
            assert_eq!(waiting.join().unwrap().0, 1);
        });
        tokens.close();
        // An empty counter is always a wait, even one that ends at once.
        assert_eq!(taker.take_up_to(3), (0, true), "closed and empty");
    }

    #[test]
    fn a_pacer_parked_at_the_bound_returns_when_the_last_taker_leaves() {
        let tokens = Tokens::new(4);
        let taker = tokens.taker();
        let other = taker.clone();
        std::thread::scope(|scope| {
            let pacer = thread::spawn_scoped(scope, "submit-test-pacer", || tokens.release(10));
            let pacer = pacer.unwrap();
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
    fn due_slots_count_the_whole_delays_since_the_previous_submission() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        let ns = Duration::from_nanos;
        // (previous, delay, now, held) -> due
        let table = [
            // A first submission is one transaction, however long the wait.
            ((None, ns(1), ms(5), 128), 1),
            ((None, ms(12), ms(5), 128), 1),
            // The paper client reads its clock just after its slot: one.
            ((Some(ms(10)), us(900), ms(10) + us(900), 128), 1),
            ((Some(ms(10)), us(900), ms(10) + us(1_799), 128), 1),
            // Fig. 10's 12 ms client, read 3 µs late: one.
            ((Some(ms(0)), ms(12), ms(12) + us(3), 128), 1),
            // A call that took two and a half slots: two came due.
            ((Some(ms(10)), us(900), ms(10) + us(2_250), 128), 2),
            // A 1 ns client a microsecond later: the whole chunk, no more.
            ((Some(ms(10)), ns(1), ms(10) + us(1), 128), 128),
            ((Some(ms(10)), ns(1), ms(10) + ns(77), 128), 77),
            ((Some(ms(10)), ns(1), ms(10) + us(1), 5), 5),
            // A reading that is not past the slot still submits one.
            ((Some(ms(10)), ms(1), ms(10), 128), 1),
            // A zero delay puts no bound on the piece but the chunk.
            ((Some(ms(10)), Duration::ZERO, ms(10), 128), 128),
        ];
        for ((previous, delay, now, held), due) in table {
            assert_eq!(
                due_slots(previous, delay, now, held),
                due,
                "previous {previous:?}, delay {delay:?}, now {now:?}, held {held}"
            );
        }
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
