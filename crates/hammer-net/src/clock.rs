//! A scalable simulation clock.
//!
//! All chain simulators express their timing (block intervals, consensus
//! rounds, network RTTs) in *simulated* durations. The [`SimClock`] maps a
//! simulated duration onto wall time divided by a speed-up factor, so the
//! same configuration can run in real time (speed-up 1) for demos or 1000×
//! accelerated for tests and benchmarks while preserving every ratio between
//! the systems under test.

use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// (i.e. `sim_duration / speedup` of wall time).
    ///
    /// OS sleep has a ~50 µs+ floor, which would grossly distort
    /// fine-grained cost models under high speed-ups, so short waits spin:
    /// waits under 1 ms sleep for all but the last ~200 µs and busy-wait
    /// the remainder against a deadline.
    pub fn sleep(&self, sim_duration: Duration) {
        let wall = self.to_wall(sim_duration);
        if wall.is_zero() {
            return;
        }
        let deadline = Instant::now() + wall;
        const SPIN_THRESHOLD: Duration = Duration::from_micros(200);
        if wall > SPIN_THRESHOLD {
            std::thread::sleep(wall - SPIN_THRESHOLD);
        }
        // Yield rather than spin for the tail: on a single-core host a
        // pure spin loop starves every other simulation thread for its
        // whole quantum.
        while Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Blocks until the simulated clock reaches `sim_deadline` (absolute)
    /// and returns the reading that satisfied it, so a pacing loop needs no
    /// second look at the clock.
    ///
    /// Unlike [`SimClock::sleep`], lateness does not accumulate: a thread
    /// that was descheduled past its deadline returns immediately, which
    /// keeps rate-pacing loops accurate on oversubscribed hosts.
    pub fn sleep_until(&self, sim_deadline: Duration) -> Duration {
        loop {
            let now = self.now();
            if now >= sim_deadline {
                return now;
            }
            let remaining_wall = self.to_wall(sim_deadline - now);
            if remaining_wall > Duration::from_micros(500) {
                std::thread::sleep(remaining_wall - Duration::from_micros(200));
            } else {
                std::thread::yield_now();
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
        // sleep would give.
        let clock = SimClock::with_speedup(1000.0);
        let start = Instant::now();
        for _ in 0..20 {
            clock.sleep(Duration::from_millis(50)); // 50 µs wall each
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(1), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(5), "{elapsed:?}");
    }
}
