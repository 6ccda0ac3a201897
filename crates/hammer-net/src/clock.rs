//! A scalable simulation clock, and the one place the simulation waits.
//!
//! All chain simulators express their timing (block intervals, consensus
//! rounds, network RTTs) in *simulated* durations. The [`SimClock`] maps a
//! simulated duration onto wall time divided by a speed-up factor, so the
//! same configuration can run in real time (speed-up 1) for demos or 1000×
//! accelerated for tests and benchmarks while preserving every ratio between
//! the systems under test.
//!
//! Every timed wait of simulated code ends in one private function,
//! `SimClock::wait_until` (DESIGN.md §6); a scheduler that owns simulated
//! time replaces that one function. Its mode follows from the speed-up
//! alone: in *wall mode* (≤ 1) a wait is one block in the OS to its
//! deadline, so an idle instrument burns no CPU; in *scaled mode* (> 1) it
//! wakes early and yields through the tail, because there an OS wake-up's
//! lateness is multiplied into simulated time. [`StopSignal`] is how
//! teardown ends a wait by a wake instead of a poll.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The one pair of wait thresholds, in wall time: a wait blocks in the OS
/// only while more than `OS_WAIT_ABOVE` remains, and in scaled mode wakes
/// `YIELD_TAIL` before its deadline to yield through the rest.
const OS_WAIT_ABOVE: Duration = Duration::from_micros(500);
const YIELD_TAIL: Duration = Duration::from_micros(200);

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
            }),
        }
    }

    /// The configured speed-up factor.
    pub fn speedup(&self) -> f64 {
        self.inner.speedup
    }

    /// Simulated time elapsed since the clock's epoch (plus any restart
    /// base set by [`SimClock::with_speedup_from`]).
    pub fn now(&self) -> Duration {
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

    /// [`SimClock::sleep`], cut short by `stop`: `false` as soon as the
    /// signal is raised (at once if it already is), `true` when served out.
    pub fn sleep_unless(&self, sim_duration: Duration, stop: &StopSignal) -> bool {
        self.wait_until(self.now() + sim_duration, Some(stop));
        !stop.is_raised()
    }

    /// The one wait, in steps chosen by `os_wait`. An OS wait overshoots
    /// by ~50–150 µs, which would grossly distort fine-grained cost models
    /// under high speed-ups, so in scaled mode the tail is yielded through
    /// — yielded, not spun: on a small host a spin loop starves every other
    /// simulation thread for its whole quantum. Wall mode accepts the
    /// overshoot (~0.1 ms of simulated time there): on an idle host the
    /// tail is a busy loop with nobody to yield to.
    /// Returns the reading that ended the wait: at or past `sim_deadline`,
    /// or earlier if `stop` was raised.
    fn wait_until(&self, sim_deadline: Duration, stop: Option<&StopSignal>) -> Duration {
        loop {
            let now = self.now();
            if now >= sim_deadline || stop.is_some_and(StopSignal::is_raised) {
                return now;
            }
            let remaining_wall = self.to_wall(sim_deadline - now);
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

/// A one-way stop flag that threads can block on: reading it is one atomic
/// load, raising it wakes every thread in [`SimClock::sleep_unless`]. Teardown paths raise it before they join,
/// so a thread parked on a long interval is released by the wake itself.
#[derive(Debug, Default)]
pub struct StopSignal {
    /// Publishes nothing but itself: `raise` stores with `Release`,
    /// `is_raised` loads with `Acquire`.
    raised: AtomicBool,
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
        self.raised.store(true, Ordering::Release);
        // Through the lock, a waiter that saw the flag down either sees it
        // up now or is parked by the time the notify is sent.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
    }

    /// Blocks for `wall` of wall-clock time or until the signal is raised:
    /// the OS wait of [`SimClock::sleep_unless`].
    fn wait(&self, wall: Duration) {
        // The lock guards no data, so a poisoned one is as good as new.
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        drop(
            self.wake
                .wait_timeout_while(guard, wall, |()| !self.is_raised()),
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
            (
                "sleep_unless",
                &|| assert!(clock.sleep_unless(step, &never)),
            ),
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
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| clock.sleep_unless(Duration::from_secs(3600), &stop));
            std::thread::sleep(Duration::from_millis(30));
            stop.raise();
            assert!(!waiter.join().unwrap(), "the raise should end the hour");
        });
    }

    #[test]
    fn a_raised_signal_ends_the_wait_by_a_wake() {
        let clock = SimClock::with_speedup(1000.0);
        let stop = StopSignal::default();
        // An hour of simulated time is 3.6 s of wall time at 1000×.
        let hour = Duration::from_secs(3600);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| (clock.sleep_unless(hour, &stop), Instant::now()));
            std::thread::sleep(Duration::from_millis(30));
            let raised_at = Instant::now();
            stop.raise();
            let (served, woke_at) = waiter.join().unwrap();
            assert!(!served, "the wait should have been cut short");
            let lag = woke_at.saturating_duration_since(raised_at);
            assert!(
                lag < Duration::from_millis(20),
                "woke {lag:?} after the raise"
            );
        });
        // Already raised: both waits return at once.
        let start = Instant::now();
        assert!(!clock.sleep_unless(hour, &stop));
        stop.wait(hour);
        assert!(start.elapsed() < Duration::from_millis(20));
    }
}
