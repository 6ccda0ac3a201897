//! The scheduler behind [`SimClock::virtual_time`](crate::SimClock::virtual_time)
//! (DESIGN.md §6): it owns a virtual clock's time and runs the clock's
//! participants one at a time. The runner holds the baton until it waits —
//! on the clock or a `StopSignal`, on a vendored channel or in a join — and
//! hands it to the next ready participant in registration order; when every
//! one waits, time jumps to the earliest deadline and the first participant
//! waiting for it runs. A wait that no peer can end fails every participant
//! with one report that names each of them and its wait.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Duration;

use hammer_rpc::channel_sched;

/// The scheduler of one virtual clock.
#[derive(Debug)]
pub(crate) struct Sched(Mutex<State>);

#[derive(Debug)]
struct State {
    now: Duration,
    /// Every participant registered, in registration order; the index is
    /// its id.
    parts: Vec<Part>,
    /// The participant holding the baton; `None` once all have exited.
    running: Option<usize>,
    /// Why the run failed; once set, every wait panics with it.
    failed: Option<String>,
    /// The clock's last handle is gone: no thread can read or wait on its
    /// time, and each participant leaves at its next hooked step.
    orphaned: bool,
}

#[derive(Debug)]
struct Part {
    name: String,
    /// Set once the participant's thread runs; unparked to hand it the
    /// baton.
    thread: Option<Thread>,
    wait: Wait,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// Running, or ready to run.
    Ready,
    /// Until the deadline (none at `Duration::MAX`) or a notify of the key,
    /// the address of a `StopSignal`.
    Until(Duration, Option<usize>),
    /// On a channel, until a peer notifies the key.
    Channel(usize, &'static str),
    /// Until the participant with this id exits.
    Join(usize),
    /// For a lock that a parked participant holds.
    Lock(usize),
    Exited,
}

impl Sched {
    /// A scheduler whose one participant, running, is the calling thread.
    pub(crate) fn start() -> Arc<Self> {
        let sched = Arc::new(Sched(Mutex::new(State {
            now: Duration::ZERO,
            parts: Vec::new(),
            running: Some(0),
            failed: None,
            orphaned: false,
        })));
        let me = std::thread::current();
        let id = sched.register(me.name().unwrap_or("unnamed"), Some(me.clone()));
        enter(Arc::clone(&sched), id);
        sched
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, name: &str, thread: Option<Thread>) -> usize {
        let mut state = self.lock();
        state.parts.push(Part {
            name: name.to_owned(),
            thread,
            wait: Wait::Ready,
        });
        state.parts.len() - 1
    }

    pub(crate) fn now(&self) -> Duration {
        self.lock().now
    }

    /// Parks the calling participant until virtual time reaches `due` or a
    /// peer notifies `key`, and returns the reading then.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is not a participant of this clock.
    pub(crate) fn sleep_until(self: &Arc<Self>, due: Duration, key: Option<usize>) -> Duration {
        let me = member_of(self).expect(
            "a thread that is not a participant waits on a virtual clock: \
             start it through hammer_net::thread from a participant",
        );
        if due > self.now() {
            self.park(me, Wait::Until(due, key));
        }
        self.now()
    }

    /// The clock's last handle was dropped.
    pub(crate) fn orphan(&self) {
        self.lock().orphaned = true;
    }

    /// How many participants have not exited.
    pub(crate) fn live(&self) -> usize {
        let parts = &self.lock().parts;
        parts.iter().filter(|p| p.wait != Wait::Exited).count()
    }

    /// Parks `me`, the runner, in `wait`, hands the baton on, and returns
    /// once `me` holds it again.
    fn park(&self, me: usize, wait: Wait) {
        let mut state = self.lock();
        if state.failed.is_none() {
            state.parts[me].wait = wait;
            if let Some(next) = hand_on(&mut state, me) {
                drop(state);
                next.unpark();
                state = self.lock();
            }
        }
        self.await_baton(state, me);
    }

    /// Blocks in the OS until `me` holds the baton, or panics with the
    /// report once the run has failed.
    fn await_baton<'a>(&'a self, mut state: MutexGuard<'a, State>, me: usize) {
        while state.running != Some(me) || state.failed.is_some() {
            if let Some(report) = state.failed.clone() {
                drop(state);
                panic!("{report}");
            }
            drop(state);
            std::thread::park();
            state = self.lock();
        }
    }

    /// Makes the first participant parked on `key` (a channel's, or a
    /// signal's), or every one, ready; the caller keeps the baton.
    fn notify(&self, key: usize, all: bool) {
        let mut state = self.lock();
        let parked = |part: &&mut Part| match part.wait {
            Wait::Channel(k, _) | Wait::Until(_, Some(k)) => k == key,
            _ => false,
        };
        let woken = state.parts.iter_mut().filter(parked);
        for part in woken.take(if all { usize::MAX } else { 1 }) {
            part.wait = Wait::Ready;
        }
    }

    /// `me` asked for the lock at `lock`, and it is held. With no other
    /// live participant, a thread outside the clock holds it, and `me`
    /// returns to block in the OS as such a thread would. Otherwise the run
    /// fails: a parked participant holds it, and no turn of `me` can change
    /// that.
    fn contended(&self, me: usize, lock: usize) {
        let mut state = self.lock();
        if state.failed.is_none() {
            let mut parts = state.parts.iter().enumerate();
            if parts.all(|(id, part)| id == me || part.wait == Wait::Exited) {
                return;
            }
            state.parts[me].wait = Wait::Lock(lock);
            fail(&mut state, "a lock is held by a parked participant");
        }
        let report = state.failed.clone().unwrap_or_default();
        drop(state);
        panic!("{report}");
    }

    /// `me` has left: its joiners are ready, and the baton, if `me` held
    /// it, goes on. Never panics (it runs on drop).
    fn exit(&self, me: usize) {
        let mut state = self.lock();
        (state.parts[me].thread, state.parts[me].wait) = (None, Wait::Exited);
        for part in &mut state.parts {
            if part.wait == Wait::Join(me) {
                part.wait = Wait::Ready;
            }
        }
        if state.failed.is_none() && state.running == Some(me) {
            if let Some(next) = hand_on(&mut state, me) {
                drop(state);
                next.unpark();
            }
        }
    }
}

/// Gives the baton, which `me` holds and has just parked or exited with, to
/// the next ready participant in registration order after `me`, or else to
/// the first that waits for the earliest deadline, with time moved to it.
/// Returns the thread to unpark, if not `me`'s. With neither, every
/// participant left waits for a peer: the run fails.
fn hand_on(state: &mut State, me: usize) -> Option<Thread> {
    let n = state.parts.len();
    let ready = (me + 1..=me + n)
        .map(|i| i % n)
        .find(|&i| state.parts[i].wait == Wait::Ready);
    let next = ready.or_else(|| {
        let (due, first) = (state.parts.iter().enumerate())
            .filter_map(|(id, part)| match part.wait {
                Wait::Until(due, _) if due < Duration::MAX => Some((due, id)),
                _ => None,
            })
            .min()?;
        state.now = due;
        state.parts[first].wait = Wait::Ready;
        Some(first)
    });
    state.running = next;
    match next {
        Some(next) if next != me => state.parts[next].thread.clone(),
        Some(_) => None,
        None => {
            if state.parts.iter().any(|part| part.wait != Wait::Exited) {
                fail(state, "every participant waits and none until a deadline");
            }
            None
        }
    }
}

/// Records why the run failed, with every participant left and its wait,
/// and wakes every one of them to panic with it.
fn fail(state: &mut State, why: &str) {
    let label = |id: usize| format!("{}#{id}", state.parts[id].name);
    let waits: Vec<String> = (0..state.parts.len())
        .filter_map(|id| {
            let wait = match state.parts[id].wait {
                Wait::Ready => "ready".to_owned(),
                Wait::Until(due, None) => format!("until {due:?}"),
                Wait::Until(_, Some(key)) => format!("signal {key:#x}"),
                Wait::Channel(key, what) => format!("{what} on channel {key:#x}"),
                Wait::Join(child) => format!("join {}", label(child)),
                Wait::Lock(lock) => format!("lock {lock:#x}"),
                Wait::Exited => return None,
            };
            Some(format!("{} ({wait})", label(id)))
        })
        .collect();
    state.failed = Some(format!("virtual time: {why}: {}", waits.join(", ")));
    for thread in state.parts.iter().filter_map(|part| part.thread.as_ref()) {
        thread.unpark();
    }
}

/// The calling thread as a participant, shared by its three hooks; the
/// last of them to let go exits it.
struct Member {
    sched: Arc<Sched>,
    id: usize,
}

impl Member {
    /// Whether the clock's last handle is gone; the thread then leaves it,
    /// and waits in the OS from here on, as a thread outside any clock.
    fn left_orphan(&self) -> bool {
        let orphaned = self.sched.lock().orphaned;
        if orphaned {
            leave();
        }
        orphaned
    }
}

impl channel_sched::Hook for Member {
    fn park(&self, key: usize, what: &'static str) {
        // Left, the thread's channel wait loops back to the OS's.
        if !self.left_orphan() {
            self.sched.park(self.id, Wait::Channel(key, what));
        }
    }

    fn notify(&self, key: usize, all: bool) {
        self.sched.notify(key, all);
    }
}

impl parking_lot::sched::Hook for Member {
    fn contended(&self, lock: usize) {
        if !self.left_orphan() {
            self.sched.contended(self.id, lock);
        }
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        self.sched.exit(self.id);
    }
}

thread_local! {
    static MEMBER: RefCell<Option<Rc<Member>>> = const { RefCell::new(None) };
}

/// Makes the calling thread participant `id` of `sched`, leaving any
/// scheduler it took part in before.
fn enter(sched: Arc<Sched>, id: usize) {
    leave();
    let member = Rc::new(Member { sched, id });
    channel_sched::install(Some(member.clone()));
    parking_lot::sched::install(Some(member.clone()));
    MEMBER.with(|slot| *slot.borrow_mut() = Some(member));
}

/// Ends the calling thread's participation, if it has one.
fn leave() {
    channel_sched::install(None);
    parking_lot::sched::install(None);
    drop(MEMBER.try_with(|slot| slot.borrow_mut().take()));
}

/// The calling thread's membership, if it takes part in a clock that
/// still has a handle.
fn membership() -> Option<Rc<Member>> {
    let member = MEMBER.try_with(|slot| slot.borrow().clone()).ok().flatten();
    member.filter(|member| !member.left_orphan())
}

/// Whether the calling thread takes part in a virtual clock
/// ([`crate::SimClock::virtual_time`]) that still has a handle: a wait of
/// its that the clock's scheduler does not see (an OS read, a timed
/// receive) holds the baton, and no peer runs until it ends.
pub fn in_virtual_time() -> bool {
    membership().is_some()
}

/// A signal at `key` was set: its waiters in the calling participant's
/// scheduler, if the thread is one, are ready.
pub(crate) fn notify_signal(key: usize) {
    if let Some(member) = membership() {
        member.sched.notify(key, true);
    }
}

/// The calling thread's id in `sched`, if it is one of its participants.
fn member_of(sched: &Arc<Sched>) -> Option<usize> {
    let member = membership()?;
    Arc::ptr_eq(&member.sched, sched).then_some(member.id)
}

/// A participant that a participant started, as its starter sees it.
#[derive(Clone, Debug)]
pub(crate) struct Child {
    sched: Arc<Sched>,
    id: usize,
}

/// Leaves on drop: a child participant exits when its closure returns or
/// unwinds.
struct Leave;

impl Drop for Leave {
    fn drop(&mut self) {
        leave();
    }
}

impl Child {
    /// Registers the thread about to start as `name`, ready to run, if the
    /// calling thread is a participant.
    pub(crate) fn register(name: &str) -> Option<Child> {
        let sched = Arc::clone(&membership()?.sched);
        let id = sched.register(name, None);
        Some(Child { sched, id })
    }

    /// Runs `f` on the started thread, as the participant `child` once it
    /// holds the baton.
    pub(crate) fn run<T>(child: Option<Child>, f: impl FnOnce() -> T) -> T {
        let Some(Child { sched, id }) = child else {
            return f();
        };
        enter(Arc::clone(&sched), id);
        let _leave = Leave;
        let mut state = sched.lock();
        state.parts[id].thread = Some(std::thread::current());
        sched.await_baton(state, id);
        f()
    }

    /// The thread never started: the participant is gone.
    pub(crate) fn abandon(&self) {
        self.sched.exit(self.id);
    }

    /// Before a join: a participant of the same clock parks until the child
    /// has exited, so the OS join that follows does not hold the baton.
    pub(crate) fn await_exit(&self) {
        let Some(me) = member_of(&self.sched) else {
            return;
        };
        if self.sched.lock().parts[self.id].wait != Wait::Exited {
            self.sched.park(me, Wait::Join(self.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::Duration;

    use crate::{thread, SimClock, StopSignal};

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        (payload.downcast_ref::<String>().cloned())
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    #[test]
    fn time_jumps_to_each_deadline_and_ties_go_in_registration_order() {
        let clock = SimClock::virtual_time();
        let log = Mutex::new(Vec::new());
        let ms = Duration::from_millis;
        let sleepers = [("a", 3), ("b", 2), ("c", 3), ("d", 3), ("e", 3)];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (sleepers.iter())
                .map(|&(name, wait)| {
                    let (clock, log) = (&clock, &log);
                    let run = move || {
                        let woke = clock.sleep_until(ms(wait));
                        log.lock().unwrap().push((name, woke));
                    };
                    thread::spawn_scoped(scope, format!("sched-test-{name}"), run).unwrap()
                })
                .collect();
            assert_eq!(clock.sleep_until(ms(1)), ms(1));
            for handle in handles {
                handle.join().unwrap();
            }
        });
        let order =
            ["b", "a", "c", "d", "e"].map(|name| (name, ms(if name == "b" { 2 } else { 3 })));
        assert_eq!(*log.lock().unwrap(), order);
        // Nothing else waits: the clock moves for the one participant left.
        clock.sleep(ms(5));
        assert_eq!(clock.now(), ms(8));
    }

    #[test]
    fn a_participant_that_joins_a_sleeper_wakes_at_its_exit() {
        let clock = SimClock::virtual_time();
        let sleeper = clock.clone();
        let child = thread::spawn("sched-test-sleeper", move || {
            sleeper.sleep(Duration::from_secs(7));
        })
        .unwrap();
        child.join().unwrap();
        assert_eq!(clock.now(), Duration::from_secs(7));
    }

    #[test]
    fn a_lock_held_by_a_parked_participant_is_reported_not_waited_for() {
        let clock = SimClock::virtual_time();
        let lock = parking_lot::Mutex::new(());
        let report = panic_of(|| {
            std::thread::scope(|scope| {
                let held = lock.lock();
                let take = || drop(lock.lock());
                let taker = thread::spawn_scoped(scope, "sched-test-taker", take).unwrap();
                clock.sleep(Duration::from_millis(1));
                drop(held);
                let _ = taker.join();
            });
        });
        assert!(
            report.contains("a lock is held by a parked participant"),
            "{report}"
        );
        assert!(report.contains("sched-test-taker#1 (lock "), "{report}");
        assert!(report.contains("#0 (until 1ms)"), "{report}");
    }

    #[test]
    fn a_participant_left_alone_waits_in_the_os_for_a_lock_held_outside() {
        let clock = SimClock::virtual_time();
        let child = thread::spawn("sched-test-child", || {}).unwrap();
        child.join().unwrap();
        assert_eq!(clock.participants(), 1);
        let lock = parking_lot::Mutex::new(0);
        let held = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            #[allow(clippy::disallowed_methods)] // a thread the scheduler must not know
            scope.spawn(|| {
                let mut guard = lock.lock();
                held.wait();
                std::thread::sleep(Duration::from_millis(50));
                *guard = 1;
            });
            held.wait();
            assert_eq!(
                *lock.lock(),
                1,
                "the lock was taken after its holder let go"
            );
        });
    }

    #[test]
    fn a_dropped_clock_lets_its_builder_go_at_its_next_spawn() {
        // The child of a thread whose clock is gone runs outside any clock,
        // so a wait no hook sees (here an mpsc channel's) still ends.
        drop(SimClock::virtual_time());
        let (tx, rx) = std::sync::mpsc::channel();
        let child = thread::spawn("sched-test-child", move || tx.send(7)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
        child.join().unwrap().unwrap();
    }

    #[test]
    fn a_thread_outside_the_clock_may_not_wait_on_it() {
        let clock = SimClock::virtual_time();
        let outside = std::thread::scope(|scope| {
            #[allow(clippy::disallowed_methods)] // a thread the scheduler must not know
            let handle = scope.spawn(|| panic_of(|| clock.sleep(Duration::from_millis(1))));
            handle.join().unwrap()
        });
        assert!(outside.contains("not a participant"), "{outside}");
    }

    #[test]
    fn a_raise_ends_an_hour_wait_exactly_at_its_instant() {
        let clock = SimClock::virtual_time();
        let stop = StopSignal::default();
        let seven = Duration::from_secs(7);
        std::thread::scope(|scope| {
            let wait = || clock.sleep_until_signalled(Duration::from_secs(3600), &stop);
            let waiter = thread::spawn_scoped(scope, "sched-test-waiter", wait).unwrap();
            clock.sleep(seven);
            stop.raise();
            assert_eq!(waiter.join().unwrap(), seven);
        });
        assert_eq!(clock.now(), seven);
    }

    #[test]
    fn a_ring_ends_one_wait_and_is_taken_once() {
        let clock = SimClock::virtual_time();
        let signal = StopSignal::default();
        let ms = Duration::from_millis;
        std::thread::scope(|scope| {
            let wait = || clock.sleep_until_signalled(Duration::MAX, &signal);
            let waiter = thread::spawn_scoped(scope, "sched-test-waiter", wait).unwrap();
            clock.sleep(ms(3));
            signal.ring();
            assert_eq!(waiter.join().unwrap(), ms(3));
        });
        assert!(!signal.is_raised(), "a ring is not a stop");
        assert!(signal.take_ring());
        assert!(!signal.take_ring(), "taken once");
        // Taken, it no longer ends a wait: this one is served out.
        assert_eq!(clock.sleep_until_signalled(ms(5), &signal), ms(5));
    }

    #[test]
    fn a_signal_set_before_the_wait_ends_it_with_no_time_passing() {
        let clock = SimClock::virtual_time();
        let two = Duration::from_millis(2);
        clock.sleep(two);
        let (raised, rung) = (StopSignal::default(), StopSignal::default());
        raised.raise();
        rung.ring();
        for signal in [&raised, &rung] {
            let hour = Duration::from_secs(3600);
            assert_eq!(clock.sleep_until_signalled(hour, signal), two);
            assert_eq!(clock.sleep_until_signalled(Duration::MAX, signal), two);
        }
        assert_eq!(clock.now(), two);
    }

    #[test]
    fn a_lone_wait_on_a_signal_alone_is_reported_not_jumped_to() {
        let clock = SimClock::virtual_time();
        let signal = StopSignal::default();
        let report = panic_of(|| {
            clock.sleep_until_signalled(Duration::MAX, &signal);
        });
        let why = "every participant waits and none until a deadline";
        assert!(report.contains(why), "{report}");
        assert!(report.contains("#0 (signal 0x"), "{report}");
        assert_eq!(clock.now(), Duration::ZERO);
    }
}
