//! The **Pacer** and **Submit** stages (Fig. 3, steps 4-5): the pacer is a
//! value that answers, at a worker's clock reading, how many of the
//! control slices' budget tokens have been released; each worker pairs the
//! signed transactions of the chunk it holds with tokens and hands the
//! chain as many as have come due, in one call. A worker with no token to
//! take sleeps on the clock until the next release.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hammer_chain::client::{BlockchainClient, ChainError, ErrorKind};
use hammer_chain::mempool::MempoolError;
use hammer_chain::types::{SignedTransaction, TxId, TxStatus};
use hammer_net::SimClock;
use hammer_obs::{Obs, Stage};
use hammer_workload::ControlSequence;
use parking_lot::Mutex;

use super::RunState;
use crate::retry::{RetryDecision, RetryPolicy};
use crate::signer::SignedStream;

/// The Pacer stage as a value: the control sequence's budgets, released on
/// the clock. Nothing runs it; each take first releases what the schedule
/// has released by its reading. Every slice is released at its own
/// instant whether or not a worker asks, and unclaimed tokens pile up to
/// `cap`. A release that would pass `cap` is held back and finishes at the
/// take that makes room for its last token. The workers share one pacer
/// behind a lock that no wait is made under.
pub(super) struct Pacer<'a> {
    control: &'a ControlSequence,
    cap: u64,
    /// The next slice to release.
    next: usize,
    /// What a release held back at `cap` has still to add.
    held: u64,
    /// Released and not yet taken; never above `cap`.
    available: u64,
    /// When slice `next` is released; while a release is held back, when
    /// that one was. Once every slice is out, when the pacer closes.
    at: Duration,
}

/// What a take from the [`Pacer`] answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Take {
    /// This many tokens, at least one and at most the ask.
    Took(u64),
    /// None is available before this instant: ask again then.
    Until(Duration),
    /// The last slice is out and a full slice has passed since: no token
    /// will come.
    Closed,
}

impl<'a> Pacer<'a> {
    /// A pacer that releases `control`'s first slice at `start` and holds
    /// at most `cap` tokens unclaimed.
    pub(super) fn new(control: &'a ControlSequence, cap: u64, start: Duration) -> Self {
        Pacer {
            control,
            cap,
            next: 0,
            held: 0,
            available: 0,
            at: start,
        }
    }

    /// Takes up to `n` tokens at the reading `now`, as many as have been
    /// released and not taken.
    pub(super) fn take_up_to(&mut self, n: u64, now: Duration) -> Take {
        debug_assert!(n > 0, "a take asks for at least one token");
        self.release(now);
        if self.available == 0 {
            // Nothing is held back either: a held release keeps `cap` out.
            if self.next == self.control.len() && now >= self.at {
                return Take::Closed;
            }
            return Take::Until(self.at);
        }
        let took = self.available.min(n);
        self.available -= took;
        // The room this take made goes to a release held back at the cap.
        self.release(now);
        Take::Took(took)
    }

    /// Releases every slice due by `now`, as far as `cap` lets it.
    fn release(&mut self, now: Duration) {
        loop {
            // The reading the release finishes at: a held-back one at this
            // take's, one that fits at its own instant.
            let reading = if self.held > 0 {
                now
            } else if self.next < self.control.len() && self.at <= now {
                self.held = self.control.budget(self.next).into();
                self.next += 1;
                self.at
            } else {
                return;
            };
            let grant = self.held.min(self.cap - self.available);
            self.available += grant;
            self.held -= grant;
            if self.held > 0 {
                return;
            }
            self.at = next_release(self.at, self.control.slice_duration(), reading);
        }
    }
}

/// When the pacer releases the next slice: one slice after the last,
/// read at `now`. After a stall longer than a slice — a release held back
/// at the cap until a take made room — the schedule restarts from `now`:
/// the slices that fell into the stall are not released in a catch-up
/// burst.
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

/// One submission worker. Every worker owns a clone, so the signer pool is
/// released — the signed stream loses its last consumer — as soon as the
/// last worker exits.
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
    pub pacer: &'a Mutex<Pacer<'a>>,
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
            // One clock reading per piece: the one that ended the last wait
            // is every member's submission time and the next wait's base.
            let Some((taken, start)) = self.take(due as u64, now) else {
                return; // control sequence exhausted, or the run aborted
            };
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

    /// Takes up to `n` tokens at the reading `now`, sleeping on the clock
    /// to the next release while none is there. Answers how many it took
    /// and the reading they came at; `None` once the pacer has closed, or
    /// when the run aborted during a wait.
    fn take(&self, n: u64, mut now: Duration) -> Option<(u64, Duration)> {
        loop {
            let take = self.pacer.lock().take_up_to(n, now);
            match take {
                Take::Took(took) => return Some((took, now)),
                Take::Closed => return None,
                Take::Until(at) => now = self.clock.sleep_until(at),
            }
            if self.state.aborted() {
                return None;
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

    const SLICE: Duration = Duration::from_secs(1);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Asks `pacer` each `(ask, now)` in turn and checks each answer.
    fn check(pacer: &mut Pacer<'_>, table: &[((u64, Duration), Take)]) {
        for (row, &((ask, now), answer)) in table.iter().enumerate() {
            assert_eq!(
                pacer.take_up_to(ask, now),
                answer,
                "row {row}: ask {ask} at {now:?}"
            );
            assert!(pacer.available <= pacer.cap, "row {row}");
        }
    }

    #[test]
    fn four_askers_take_exactly_what_uneven_budgets_release() {
        // Four askers, each with its own amount, take in turn at one reading
        // until it has nothing left, then wait for the next release: each
        // slice's whole budget goes out at its own instant, through a cap
        // of 64, and the pacer closes a slice after the last one.
        let budgets = [0u32, 1, 1000, 3, 0, 517, 64, 65, 2, 4096];
        let control = ControlSequence::from_budgets(budgets.to_vec(), SLICE);
        let mut pacer = Pacer::new(&control, 64, Duration::ZERO);
        let asks = [1u64, 3, 64, 128];
        let (mut now, mut turn) = (Duration::ZERO, 0);
        let mut taken_at = vec![0u64; budgets.len() + 1];
        let mut waits = Vec::new();
        loop {
            let ask = asks[turn % asks.len()];
            turn += 1;
            match pacer.take_up_to(ask, now) {
                Take::Took(took) => {
                    assert!((1..=ask).contains(&took), "took {took} of {ask}");
                    taken_at[now.as_secs() as usize] += took;
                }
                Take::Until(at) => {
                    waits.push(at);
                    now = at;
                }
                Take::Closed => break,
            }
            assert!(pacer.available <= pacer.cap);
        }
        let released: Vec<u64> = budgets.iter().map(|&b| b.into()).chain([0]).collect();
        assert_eq!(taken_at, released);
        let instants: Vec<Duration> = (1..=10).map(|s| SLICE * s).collect();
        assert_eq!(waits, instants);
        assert_eq!(now, SLICE * 10, "closed a slice after the last release");
    }

    #[test]
    fn a_release_held_back_at_the_cap_stretches_the_schedule() {
        // 25 through a cap of 10: the first slice is held back until the
        // take at 3.5 s makes room for its last token, so the second is
        // released then, not at 1 s, and is itself held back until 4 s.
        let control = ControlSequence::from_budgets(vec![25, 5], SLICE);
        let mut pacer = Pacer::new(&control, 10, Duration::ZERO);
        check(
            &mut pacer,
            &[
                ((4, ms(500)), Take::Took(4)),
                ((10, ms(3_000)), Take::Took(10)),
                ((1, ms(3_500)), Take::Took(1)),
                ((10, ms(4_000)), Take::Took(10)),
                ((10, ms(4_000)), Take::Took(5)),
                ((10, ms(4_200)), Take::Until(ms(4_500))),
                ((10, ms(4_500)), Take::Closed),
            ],
        );
        assert_eq!((pacer.held, pacer.available), (0, 0));
    }

    #[test]
    fn tokens_pile_up_while_nobody_asks() {
        // Nobody asks for 3.5 s: the four slices released meanwhile wait
        // for the first take, up to the cap.
        let control = ControlSequence::constant(10, 5, SLICE);
        let mut pacer = Pacer::new(&control, 64, Duration::ZERO);
        check(
            &mut pacer,
            &[
                ((100, ms(3_500)), Take::Took(40)),
                ((100, ms(3_500)), Take::Until(ms(4_000))),
                ((100, ms(4_000)), Take::Took(10)),
                ((100, ms(4_000)), Take::Until(ms(5_000))),
            ],
        );
        // At the cap, the slice that does not fit is held back, and the
        // take that makes room for it finishes it at its own reading.
        let mut pacer = Pacer::new(&control, 36, Duration::ZERO);
        check(
            &mut pacer,
            &[
                ((100, ms(3_500)), Take::Took(36)),
                ((100, ms(3_500)), Take::Took(4)),
                ((100, ms(3_500)), Take::Until(ms(4_000))),
            ],
        );
    }

    #[test]
    fn a_zero_budget_slice_releases_nothing_and_keeps_its_slice() {
        let control = ControlSequence::from_budgets(vec![0, 0, 5, 0], SLICE);
        let mut pacer = Pacer::new(&control, 64, Duration::ZERO);
        check(
            &mut pacer,
            &[
                ((3, ms(0)), Take::Until(ms(1_000))),
                ((3, ms(1_000)), Take::Until(ms(2_000))),
                ((3, ms(2_000)), Take::Took(3)),
                ((3, ms(2_000)), Take::Took(2)),
                ((3, ms(2_000)), Take::Until(ms(3_000))),
                ((3, ms(3_000)), Take::Until(ms(4_000))),
                ((3, ms(4_000)), Take::Closed),
            ],
        );
    }

    #[test]
    fn the_pacer_closes_one_slice_after_its_last_release() {
        let control = ControlSequence::constant(5, 2, SLICE);
        let start = ms(250);
        let just_before_close = ms(2_250) - Duration::from_nanos(1);
        let mut pacer = Pacer::new(&control, 64, start);
        check(
            &mut pacer,
            &[
                ((1, ms(0)), Take::Until(start)),
                ((5, start), Take::Took(5)),
                ((5, start), Take::Until(ms(1_250))),
                ((5, ms(1_250)), Take::Took(5)),
                ((5, ms(1_250)), Take::Until(ms(2_250))),
                ((5, just_before_close), Take::Until(ms(2_250))),
                ((5, ms(2_250)), Take::Closed),
                ((5, ms(9_000)), Take::Closed),
            ],
        );
        // An asker that comes late gets every released token before the
        // pacer closes.
        let mut late = Pacer::new(&control, 64, start);
        check(
            &mut late,
            &[
                ((64, ms(9_000)), Take::Took(10)),
                ((64, ms(9_000)), Take::Closed),
            ],
        );
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
