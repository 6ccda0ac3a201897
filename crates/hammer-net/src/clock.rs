//! The simulation clock, and the one place the simulation waits.
//!
//! All chain simulators express their timing (block intervals, consensus
//! rounds, network RTTs) in *simulated* durations, and every timed wait of
//! simulated code ends in one private function, `SimClock::wait_until`
//! (DESIGN.md §6). A [`SimClock`] has one of three modes:
//!
//! * *Wall mode* ([`SimClock::realtime`], or a speed-up ≤ 1): simulated time
//!   is wall time, scaled down at most. A wait is one block in the OS to its
//!   deadline, so an idle instrument burns no CPU.
//! * *Scaled mode* (a speed-up > 1): simulated time is wall time multiplied,
//!   so the same configuration runs 1000× accelerated with every ratio
//!   between the systems under test preserved. A wait wakes early and yields
//!   through the tail, because an OS wake-up's lateness is multiplied into
//!   simulated time.
//! * *Virtual mode* ([`SimClock::virtual_time`]): a scheduler owns the time.
//!   It runs the clock's participants one at a time, and when every one of
//!   them waits, time jumps to the earliest deadline; real CPU costs no
//!   simulated time, and a wait touches no OS timer. Two runs of the same
//!   inputs read the same times.
//!
//! The mode of a scaled or wall clock follows from its speed-up alone.
//! [`StopSignal`] is how teardown, or news of an earlier deadline, ends a
//! wait by a wake, in every mode: on a virtual clock, the participant that
//! raises or rings it makes the waiter ready at that instant.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::sched::{self, Sched};

/// The one pair of wait thresholds, in wall time: a wait blocks in the OS
/// only while more than `OS_WAIT_ABOVE` remains, and in scaled mode wakes
/// `YIELD_TAIL` before its deadline to yield through the rest.
const OS_WAIT_ABOVE: Duration = Duration::from_micros(500);
const YIELD_TAIL: Duration = Duration::from_micros(200);
const YEAR: Duration = Duration::from_secs(365 * 24 * 3600);

/// How long the next step of a wait blocks in the OS, or `None` to yield —
/// the whole decision of `SimClock::wait_until`: yield at or under
/// `OS_WAIT_ABOVE` (a modelled sub-500 µs cost stays exact); above it block
/// to the deadline at speed-up ≤ 1 and `YIELD_TAIL` short of it above 1.
fn os_wait(remaining_wall: Duration, speedup: f64) -> Option<Duration> {
    if remaining_wall <= OS_WAIT_ABOVE {
        None
    } else if speedup > 1.0 {
        Some(remaining_wall - YIELD_TAIL)
    } else {
        Some(remaining_wall)
    }
}

/// A shared, cloneable simulation clock.
///
/// Cloning is cheap; all clones share the same epoch and speed-up.
#[derive(Clone, Debug)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

#[derive(Debug)]
struct ClockInner {
    epoch: Instant,
    /// How many simulated seconds elapse per wall-clock second.
    speedup: f64,
    /// Simulated time already elapsed before this clock was created.
    ///
    /// Zero for ordinary clocks. A restarted node process passes the
    /// driver's current simulated time here so its clock resumes where
    /// the run is, instead of restarting from zero.
    base: Duration,
    /// The scheduler that owns a virtual clock's time; `None` in wall and
    /// scaled mode.
    sched: Option<Arc<Sched>>,
}

impl Drop for ClockInner {
    fn drop(&mut self) {
        if let Some(sched) = &self.sched {
            sched.orphan();
        }
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::realtime()
    }
}

impl SimClock {
    /// A clock where simulated time equals wall time.
    pub fn realtime() -> Self {
        Self::with_speedup(1.0)
    }

    /// A clock running `speedup` times faster than wall time.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not finite and positive.
    pub fn with_speedup(speedup: f64) -> Self {
        Self::with_speedup_from(speedup, Duration::ZERO)
    }

    /// A clock running `speedup` times faster than wall time whose
    /// simulated time starts at `base` instead of zero.
    ///
    /// This exists for process restart: when a supervisor respawns a
    /// node-host mid-run it passes the run's current simulated time, so
    /// the new process's block timestamps and fault-window checks stay
    /// continuous with the driver's clock instead of rewinding to the
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not finite and positive.
    pub fn with_speedup_from(speedup: f64, base: Duration) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be finite and positive, got {speedup}"
        );
        SimClock {
            inner: Arc::new(ClockInner {
                epoch: Instant::now(),
                speedup,
                base,
                sched: None,
            }),
        }
    }

    /// A clock whose time a scheduler owns, starting at zero: virtual mode.
    ///
    /// The calling thread is its first participant, and so is every thread
    /// that a participant starts through [`crate::thread`]. One participant
    /// runs at a time; it hands on when it waits — on this clock, on a
    /// vendored channel or in a join — and when all of them wait, time
    /// jumps to the earliest deadline. A wait that no peer can end fails
    /// every participant with a panic that names each one and its wait.
    /// A thread takes part in one virtual clock at a time: building a second
    /// leaves the first. Once the clock's last handle is dropped, each
    /// participant leaves at its next spawn, join, channel wait or contended
    /// lock, and from there on waits as a thread outside any clock does.
    pub fn virtual_time() -> Self {
        SimClock {
            inner: Arc::new(ClockInner {
                epoch: Instant::now(),
                speedup: f64::INFINITY,
                base: Duration::ZERO,
                sched: Some(Sched::start()),
            }),
        }
    }

    /// The configured speed-up factor; infinite for a virtual clock, to
    /// which no wall time maps.
    pub fn speedup(&self) -> f64 {
        self.inner.speedup
    }

    /// How many threads take part in a virtual clock and have not left; 0
    /// for a wall or scaled clock.
    pub fn participants(&self) -> usize {
        self.inner.sched.as_ref().map_or(0, |sched| sched.live())
    }

    /// Simulated time elapsed since the clock's epoch (plus any restart
    /// base set by [`SimClock::with_speedup_from`]).
    pub fn now(&self) -> Duration {
        if let Some(sched) = &self.inner.sched {
            return sched.now();
        }
        let wall = self.inner.epoch.elapsed();
        self.inner.base + wall.mul_f64(self.inner.speedup)
    }

    /// Blocks the current thread for `sim_duration` of simulated time
    /// (i.e. `sim_duration / speedup` of wall time). The deadline is fixed
    /// at entry.
    pub fn sleep(&self, sim_duration: Duration) {
        self.wait_until(self.now() + sim_duration, None);
    }

    /// Blocks until the simulated clock reaches `sim_deadline` (absolute)
    /// and returns the reading that satisfied it, so a pacing loop needs no
    /// second look at the clock.
    ///
    /// Unlike [`SimClock::sleep`], lateness does not accumulate: a thread
    /// that was descheduled past its deadline returns immediately, which
    /// keeps rate-pacing loops accurate on oversubscribed hosts.
    pub fn sleep_until(&self, sim_deadline: Duration) -> Duration {
        self.wait_until(sim_deadline, None)
    }

    /// [`SimClock::sleep_until`], ended as soon as `signal` is raised or
    /// rung (at once if it already is); returns the reading that ended it.
    /// On a virtual clock a deadline of `Duration::MAX` is no deadline: only
    /// the signal ends that wait.
    pub fn sleep_until_signalled(&self, sim_deadline: Duration, signal: &StopSignal) -> Duration {
        self.wait_until(sim_deadline, Some(signal))
    }

    /// The one wait, in steps chosen by `os_wait`. An OS wait overshoots
    /// by ~50–150 µs, which would grossly distort fine-grained cost models
    /// under high speed-ups, so in scaled mode the tail is yielded through
    /// — yielded, not spun: on a small host a spin loop starves every other
    /// simulation thread for its whole quantum. Wall mode accepts the
    /// overshoot (~0.1 ms of simulated time there): on an idle host the
    /// tail is a busy loop with nobody to yield to.
    /// Returns the reading that ended the wait: at or past `sim_deadline`,
    /// or earlier if `stop` was raised or rung. A virtual clock's scheduler
    /// serves the wait instead, keyed on the signal.
    fn wait_until(&self, sim_deadline: Duration, stop: Option<&StopSignal>) -> Duration {
        if let Some(sched) = &self.inner.sched {
            // A signal already set ends the wait with no time passing.
            let due = match stop {
                Some(stop) if stop.is_signalled() => Duration::ZERO,
                _ => sim_deadline,
            };
            return sched.sleep_until(due, stop.map(StopSignal::key));
        }
        loop {
            let now = self.now();
            if now >= sim_deadline || stop.is_some_and(StopSignal::is_signalled) {
                return now;
            }
            // A far deadline is waited for a year at a time: below a
            // speed-up of 1 its wall remainder overflows a `Duration`.
            let remaining_wall = self.to_wall((sim_deadline - now).min(YEAR));
            match (os_wait(remaining_wall, self.inner.speedup), stop) {
                (None, _) => std::thread::yield_now(),
                (Some(wall), Some(stop)) => stop.wait(wall),
                (Some(wall), None) => std::thread::sleep(wall),
            }
        }
    }

    /// Converts a simulated duration to the wall duration it occupies.
    pub fn to_wall(&self, sim_duration: Duration) -> Duration {
        sim_duration.div_f64(self.inner.speedup)
    }

    /// Converts a wall duration to the simulated duration it represents.
    pub fn to_sim(&self, wall_duration: Duration) -> Duration {
        wall_duration.mul_f64(self.inner.speedup)
    }
}

/// A one-way stop flag and a re-armable ring that threads can block on:
/// reading either is one atomic load, and setting either wakes every
/// thread in [`SimClock::sleep_until_signalled`] — on a virtual clock,
/// through the setter's scheduler. Teardown raises it before it joins; a
/// producer rings it when it moved the waiter's deadline.
#[derive(Debug, Default)]
pub struct StopSignal {
    /// Publishes nothing but itself: `raise` stores with `Release`,
    /// `is_raised` loads with `Acquire`.
    raised: AtomicBool,
    /// Set by `ring`, cleared by `take_ring`.
    rung: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl StopSignal {
    /// Whether the signal has been raised.
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }

    /// Raises the signal and wakes every waiter. Idempotent.
    pub fn raise(&self) {
        self.set(&self.raised);
    }

    /// Rings the signal: the wait in progress, or the next one, ends at
    /// once. The ring stays set until [`StopSignal::take_ring`].
    pub fn ring(&self) {
        self.set(&self.rung);
    }

    /// Whether the signal was rung since the last take, clearing it.
    pub fn take_ring(&self) -> bool {
        self.rung.swap(false, Ordering::AcqRel)
    }

    fn is_signalled(&self) -> bool {
        self.is_raised() || self.rung.load(Ordering::Acquire)
    }

    fn set(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::Release);
        // Through the lock, a waiter that saw the flags down either sees
        // one up now or is parked by the time the notify is sent.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
        sched::notify_signal(self.key());
    }

    /// The key a virtual clock's waiter parks on: the signal's address.
    fn key(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Blocks for `wall` of wall-clock time or until the signal is raised
    /// or rung: the OS wait of [`SimClock::sleep_until_signalled`].
    fn wait(&self, wall: Duration) {
        // The lock guards no data, so a poisoned one is as good as new.
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        drop(
            self.wake
                .wait_timeout_while(guard, wall, |()| !self.is_signalled()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_now_advances() {
        let clock = SimClock::realtime();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.now() > t0);
    }

    #[test]
    fn speedup_scales_now() {
        let clock = SimClock::with_speedup(1000.0);
        std::thread::sleep(Duration::from_millis(5));
        // 5ms wall = 5s simulated under 1000x.
        let sim = clock.now();
        assert!(sim >= Duration::from_secs(4), "sim = {sim:?}");
    }

    #[test]
    fn sleep_is_scaled_down() {
        let clock = SimClock::with_speedup(1000.0);
        let start = Instant::now();
        clock.sleep(Duration::from_secs(1)); // should take ~1ms wall
        let wall = start.elapsed();
        assert!(wall < Duration::from_millis(200), "wall = {wall:?}");
    }

    #[test]
    fn conversions_roundtrip() {
        let clock = SimClock::with_speedup(250.0);
        let sim = Duration::from_millis(500);
        let wall = clock.to_wall(sim);
        let back = clock.to_sim(wall);
        let diff = back.abs_diff(sim);
        assert!(diff < Duration::from_micros(10), "diff = {diff:?}");
    }

    #[test]
    fn clones_share_epoch() {
        let a = SimClock::with_speedup(10.0);
        let b = a.clone();
        let ta = a.now();
        let tb = b.now();
        let diff = tb.abs_diff(ta);
        assert!(diff < Duration::from_millis(50));
    }

    #[test]
    fn restart_base_offsets_now() {
        let clock = SimClock::with_speedup_from(1000.0, Duration::from_secs(90));
        let now = clock.now();
        assert!(now >= Duration::from_secs(90), "now = {now:?}");
        // The base participates in absolute waits too.
        clock.sleep_until(Duration::from_secs(91)); // ~1ms wall
        assert!(clock.now() >= Duration::from_secs(91));
    }

    #[test]
    #[should_panic(expected = "speedup must be finite and positive")]
    fn rejects_zero_speedup() {
        let _ = SimClock::with_speedup(0.0);
    }

    #[test]
    #[should_panic(expected = "speedup must be finite and positive")]
    fn rejects_nan_speedup() {
        let _ = SimClock::with_speedup(f64::NAN);
    }
}

#[cfg(test)]
mod spin_tests {
    use super::*;

    #[test]
    fn sleep_until_is_absolute() {
        let clock = SimClock::with_speedup(1000.0);
        let target = clock.now() + Duration::from_millis(500); // 0.5 ms wall
        clock.sleep_until(target);
        assert!(clock.now() >= target);
        // Already-passed deadlines return immediately.
        let start = Instant::now();
        clock.sleep_until(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn sleep_until_returns_the_reading_that_satisfied_it() {
        let clock = SimClock::with_speedup(1000.0);
        for ahead in [Duration::ZERO, Duration::from_millis(300)] {
            let before = clock.now();
            let woke = clock.sleep_until(before + ahead);
            assert!(woke >= before + ahead, "{woke:?} < {before:?} + {ahead:?}");
            assert!(woke <= clock.now());
        }
        // A deadline already behind: the reading is a current one.
        let before = clock.now();
        assert!(clock.sleep_until(Duration::ZERO) >= before);
    }

    #[test]
    fn short_sleeps_are_accurate() {
        // 50 µs wall sleeps must land within ~60 µs, not the ~1 ms an OS
        // sleep would give — through each of the three entries, which
        // share one loop and one pair of thresholds.
        let clock = SimClock::with_speedup(1000.0);
        let step = Duration::from_millis(50); // 50 µs wall each
        let never = StopSignal::default();
        let entries: [(&str, &dyn Fn()); 3] = [
            ("sleep", &|| clock.sleep(step)),
            ("sleep_until", &|| {
                clock.sleep_until(clock.now() + step);
            }),
            ("sleep_until_signalled", &|| {
                let deadline = clock.now() + step;
                assert!(clock.sleep_until_signalled(deadline, &never) >= deadline);
            }),
        ];
        for (entry, wait) in entries {
            let start = Instant::now();
            for _ in 0..20 {
                wait();
            }
            let elapsed = start.elapsed();
            assert!(elapsed >= Duration::from_millis(1), "{entry}: {elapsed:?}");
            assert!(elapsed < Duration::from_millis(5), "{entry}: {elapsed:?}");
        }
    }

    #[test]
    fn a_wait_blocks_to_its_deadline_in_wall_mode_and_short_of_it_when_scaled() {
        let us = Duration::from_micros;
        let table = [
            (us(2000), 1.0, Some(us(2000))),
            (us(2000), 0.5, Some(us(2000))),
            (us(2000), 1000.0, Some(us(1800))),
            (us(501), 1000.0, Some(us(301))),
            (us(501), 1.0, Some(us(501))),
            (us(500), 1.0, None),
            (us(500), 1000.0, None),
            (us(50), 0.5, None),
            (us(50), 1000.0, None),
        ];
        for (remaining, speedup, step) in table {
            assert_eq!(
                os_wait(remaining, speedup),
                step,
                "{remaining:?} at {speedup}×"
            );
        }
    }

    #[test]
    fn wall_mode_waits_reach_their_deadline_and_are_cut_short_by_a_wake() {
        // No wall-clock bound: what a whole-remainder block must still give
        // is a reading at or past the deadline, and an end at the raise.
        let clock = SimClock::realtime();
        for _ in 0..20 {
            let deadline = clock.now() + Duration::from_millis(2);
            let woke = clock.sleep_until(deadline);
            assert!(woke >= deadline, "{woke:?} < {deadline:?}");
        }
        let stop = StopSignal::default();
        let hour = clock.now() + Duration::from_secs(3600);
        std::thread::scope(|scope| {
            let wait = || clock.sleep_until_signalled(hour, &stop) < hour;
            let waiter = crate::thread::spawn_scoped(scope, "clock-test-waiter", wait).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            stop.raise();
            assert!(waiter.join().unwrap(), "the raise should end the hour");
        });
    }

    #[test]
    fn a_raised_signal_ends_the_wait_by_a_wake() {
        let clock = SimClock::with_speedup(1000.0);
        let stop = StopSignal::default();
        // An hour of simulated time is 3.6 s of wall time at 1000×.
        let hour = Duration::from_secs(3600);
        let deadline = clock.now() + hour;
        std::thread::scope(|scope| {
            let wait = || (clock.sleep_until_signalled(deadline, &stop), Instant::now());
            let waiter = crate::thread::spawn_scoped(scope, "clock-test-waiter", wait).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            let raised_at = Instant::now();
            stop.raise();
            let (woke, woke_at) = waiter.join().unwrap();
            assert!(woke < deadline, "the wait should have been cut short");
            let lag = woke_at.saturating_duration_since(raised_at);
            assert!(
                lag < Duration::from_millis(20),
                "woke {lag:?} after the raise"
            );
        });
        // Already raised: both waits return at once, even a never-ending one.
        let start = Instant::now();
        clock.sleep_until_signalled(Duration::MAX, &stop);
        stop.wait(hour);
        assert!(start.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn a_ring_ends_one_wait_and_is_taken_once() {
        let clock = SimClock::with_speedup(1000.0);
        let signal = StopSignal::default();
        std::thread::scope(|scope| {
            let wait = || clock.sleep_until_signalled(Duration::MAX, &signal);
            let waiter = crate::thread::spawn_scoped(scope, "clock-test-waiter", wait).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            signal.ring();
            waiter.join().unwrap();
        });
        assert!(!signal.is_raised(), "a ring is not a stop");
        assert!(signal.take_ring());
        assert!(!signal.take_ring(), "taken once");
        // Taken, it no longer ends a wait: this one is served out.
        let deadline = clock.now() + Duration::from_millis(300);
        assert!(clock.sleep_until_signalled(deadline, &signal) >= deadline);
        // Rung before the wait: the wait ends at once, far deadline or not.
        signal.ring();
        let start = Instant::now();
        clock.sleep_until_signalled(Duration::MAX, &signal);
        assert!(start.elapsed() < Duration::from_millis(20));
    }
}
