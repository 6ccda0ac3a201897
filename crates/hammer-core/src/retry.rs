//! Resilient-submission retry policy.
//!
//! Under fault injection ([`hammer_net::FaultPlan`]) a submission can fail
//! transiently — the target node is crashed, blackholed, or its mempool is
//! full (backpressure). The submission workers consult a [`RetryPolicy`]
//! to decide whether to re-attempt: exponential backoff with deterministic
//! jitter, a per-transaction attempt budget, and a per-slice deadline.
//! Every decision is driven by [`hammer_chain::ChainError::kind`] /
//! `is_retryable()`, never by matching error variants directly.
//!
//! The default policy is [`RetryPolicy::disabled`]: with no retry budget
//! the driver behaves exactly as it did before fault injection existed
//! (every submission is attempted once), so fault-free runs are
//! bit-identical with or without this module.

use std::time::Duration;

use crate::bloom::splitmix64;

/// Outcome of one retry-policy consultation after a transient failure.
/// [`RetryPolicy::decide`] is the single decision point the submission
/// workers use, so its semantics can be property-tested without a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Pause for the contained duration, then attempt again.
    Retry(Duration),
    /// The attempt budget is exhausted: abandon as `Dropped`.
    Drop,
    /// The next pause would cross the per-slice deadline: abandon as
    /// `Expired`.
    Expire,
}

/// When and how the submission workers retry transient failures.
///
/// Backoff for attempt `n` (0-based) is
/// `min(base_backoff · multiplier^n, max_backoff)`, scaled by a
/// deterministic jitter factor in `[1 - jitter, 1 + jitter]` derived from
/// the transaction id — two runs over the same workload retry on the same
/// schedule (simulated time), keeping fault runs reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-attempts after the first submission (0 = disabled).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Exponential growth factor per attempt (≥ 1.0).
    pub multiplier: f64,
    /// Upper clamp on a single backoff pause.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1)`: each pause is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Give up retrying once this much simulated time has passed since the
    /// first attempt. `None` defaults to the control sequence's slice
    /// length (a transaction may not steal budget from the next slice).
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

impl RetryPolicy {
    /// No retries: submissions are attempted exactly once (the pre-fault
    /// driver behaviour, and the default).
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
            deadline: None,
        }
    }

    /// A sensible enabled policy: 8 attempts, 10 ms → 1.28 s exponential
    /// backoff with 20% jitter, deadline defaulting to the slice length.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(2),
            jitter: 0.2,
            deadline: None,
        }
    }

    /// Whether any retrying happens at all.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// Checks internal consistency. Returns a human-readable complaint for
    /// the driver/builder to wrap into their own error types.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        if self.base_backoff.is_zero() {
            return Err("retry base_backoff must be positive".to_owned());
        }
        if self.multiplier < 1.0 || !self.multiplier.is_finite() {
            return Err(format!(
                "retry multiplier must be a finite value >= 1.0, got {}",
                self.multiplier
            ));
        }
        if self.max_backoff < self.base_backoff {
            return Err("retry max_backoff must be >= base_backoff".to_owned());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(format!(
                "retry jitter must be in [0, 1), got {}",
                self.jitter
            ));
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return Err("retry deadline must be positive when set".to_owned());
        }
        Ok(())
    }

    /// The pause before retry number `attempt` (0-based), jittered
    /// deterministically by `seed` (the transaction id fingerprint): the
    /// same transaction backs off identically across runs.
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self.multiplier.powi(attempt.min(63) as i32);
        let raw = self
            .base_backoff
            .mul_f64(exp)
            .min(self.max_backoff)
            .max(self.base_backoff.min(self.max_backoff));
        if self.jitter == 0.0 {
            return raw;
        }
        // splitmix64 of (seed, attempt) → uniform fraction in [0, 1).
        let mixed = splitmix64(seed ^ ((attempt as u64) << 32));
        let unit = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        raw.mul_f64(factor)
    }

    /// The worker-loop decision after transient failure number `attempt`
    /// (0-based): retry after a jittered pause, drop (budget exhausted),
    /// or expire (the pause would cross `give_up_at`). `now` is the
    /// current simulated time and `seed` the transaction fingerprint —
    /// both the driver's retry loop and property tests route through
    /// here, so what is tested is what runs.
    pub fn decide(
        &self,
        attempt: u32,
        seed: u64,
        now: Duration,
        give_up_at: Duration,
    ) -> RetryDecision {
        if attempt >= self.max_retries {
            return RetryDecision::Drop;
        }
        let pause = self.backoff(attempt, seed);
        if now + pause >= give_up_at {
            return RetryDecision::Expire;
        }
        RetryDecision::Retry(pause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_policy_validates_and_never_retries() {
        let p = RetryPolicy::disabled();
        assert!(!p.enabled());
        assert!(p.validate().is_ok());
        // Even nonsense fields validate when disabled: they are unused.
        let p = RetryPolicy {
            multiplier: -1.0,
            ..RetryPolicy::disabled()
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn backoff_schedule_is_exponential_and_clamped() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        assert_eq!(p.backoff(0, 7), Duration::from_millis(10));
        assert_eq!(p.backoff(1, 7), Duration::from_millis(20));
        assert_eq!(p.backoff(2, 7), Duration::from_millis(40));
        assert_eq!(p.backoff(5, 7), Duration::from_millis(320));
        // 10ms * 2^10 = 10.24s clamps to max_backoff.
        assert_eq!(p.backoff(10, 7), Duration::from_secs(2));
        // Huge attempt numbers neither overflow nor panic.
        assert_eq!(p.backoff(u32::MAX, 7), Duration::from_secs(2));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter: 0.2,
            ..RetryPolicy::standard()
        };
        for attempt in 0..6 {
            for seed in [0u64, 1, 42, u64::MAX] {
                let a = p.backoff(attempt, seed);
                let b = p.backoff(attempt, seed);
                assert_eq!(a, b, "same inputs must give the same pause");
                let nominal = RetryPolicy { jitter: 0.0, ..p }.backoff(attempt, seed);
                let lo = nominal.mul_f64(1.0 - p.jitter - 1e-9);
                let hi = nominal.mul_f64(1.0 + p.jitter + 1e-9);
                assert!(a >= lo && a <= hi, "pause {a:?} outside [{lo:?}, {hi:?}]");
            }
        }
        // Different seeds should not all collapse to one pause.
        let distinct: std::collections::HashSet<Duration> =
            (0..32u64).map(|s| p.backoff(3, s)).collect();
        assert!(distinct.len() > 8, "jitter too coarse: {distinct:?}");
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let base = RetryPolicy::standard();
        for (bad, needle) in [
            (
                RetryPolicy {
                    base_backoff: Duration::ZERO,
                    ..base
                },
                "base_backoff",
            ),
            (
                RetryPolicy {
                    multiplier: 0.5,
                    ..base
                },
                "multiplier",
            ),
            (
                RetryPolicy {
                    multiplier: f64::NAN,
                    ..base
                },
                "multiplier",
            ),
            (
                RetryPolicy {
                    max_backoff: Duration::from_millis(1),
                    ..base
                },
                "max_backoff",
            ),
            (
                RetryPolicy {
                    jitter: 1.0,
                    ..base
                },
                "jitter",
            ),
            (
                RetryPolicy {
                    jitter: -0.1,
                    ..base
                },
                "jitter",
            ),
            (
                RetryPolicy {
                    deadline: Some(Duration::ZERO),
                    ..base
                },
                "deadline",
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        }
    }

    #[test]
    fn zero_jitter_is_exact() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        assert_eq!(p.backoff(4, 1), p.backoff(4, 2), "no jitter → seed-free");
    }

    #[test]
    fn decide_mirrors_the_worker_loop() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        let far = Duration::from_secs(3600);
        assert_eq!(
            p.decide(0, 7, Duration::ZERO, far),
            RetryDecision::Retry(Duration::from_millis(10))
        );
        assert_eq!(
            p.decide(p.max_retries, 7, Duration::ZERO, far),
            RetryDecision::Drop
        );
        // A pause that would land exactly on the deadline expires
        // (half-open, like fault windows).
        assert_eq!(
            p.decide(0, 7, Duration::ZERO, Duration::from_millis(10)),
            RetryDecision::Expire
        );
    }

    /// Drives [`RetryPolicy::decide`] the way a worker does: accumulate
    /// pauses from `start` until the policy says stop. Returns the
    /// terminal decision and the pause sequence taken.
    fn walk(
        policy: &RetryPolicy,
        seed: u64,
        start: Duration,
        give_up_at: Duration,
    ) -> (RetryDecision, Vec<Duration>) {
        let mut now = start;
        let mut pauses = Vec::new();
        for attempt in 0.. {
            match policy.decide(attempt, seed, now, give_up_at) {
                RetryDecision::Retry(pause) => {
                    now += pause;
                    pauses.push(pause);
                }
                terminal => return (terminal, pauses),
            }
        }
        unreachable!("decide terminates within max_retries + 1 attempts")
    }

    proptest! {
        /// Same seed + same transaction fingerprint ⇒ the identical
        /// jitter sequence, across independently constructed policies.
        #[test]
        fn prop_jitter_sequence_is_deterministic(
            seed in any::<u64>(),
            max_retries in 1u32..16,
            base_ms in 1u64..50,
            multiplier in 1.0f64..4.0,
            jitter in 0.0f64..0.9,
        ) {
            let build = || RetryPolicy {
                max_retries,
                base_backoff: Duration::from_millis(base_ms),
                multiplier,
                max_backoff: Duration::from_secs(2),
                jitter,
                deadline: None,
            };
            let (a, b) = (build(), build());
            prop_assert_eq!(a.validate(), Ok(()));
            let far = Duration::from_secs(1_000_000);
            let (end_a, pauses_a) = walk(&a, seed, Duration::ZERO, far);
            let (end_b, pauses_b) = walk(&b, seed, Duration::ZERO, far);
            prop_assert_eq!(end_a, end_b);
            prop_assert_eq!(&pauses_a, &pauses_b);
            // And per-attempt: the pause is a pure function of
            // (policy, attempt, seed).
            for (attempt, pause) in pauses_a.iter().enumerate() {
                prop_assert_eq!(a.backoff(attempt as u32, seed), *pause);
            }
        }

        /// With an unreachable deadline, exhausting the attempt budget
        /// always terminates in `Drop`, after exactly `max_retries`
        /// retries.
        #[test]
        fn prop_budget_exhaustion_always_drops(
            seed in any::<u64>(),
            max_retries in 1u32..16,
            base_ms in 1u64..50,
            multiplier in 1.0f64..4.0,
            jitter in 0.0f64..0.9,
        ) {
            let policy = RetryPolicy {
                max_retries,
                base_backoff: Duration::from_millis(base_ms),
                multiplier,
                max_backoff: Duration::from_secs(2),
                jitter,
                deadline: None,
            };
            // 2 s max pause × ≤16 attempts ≪ 1 000 000 s: the deadline
            // can never fire, so the budget must.
            let far = Duration::from_secs(1_000_000);
            let (end, pauses) = walk(&policy, seed, Duration::ZERO, far);
            prop_assert_eq!(end, RetryDecision::Drop);
            prop_assert_eq!(pauses.len() as u32, max_retries);
        }

        /// With a finite deadline, the walk still terminates, never
        /// retries past the deadline, and ends in `Drop` or `Expire` —
        /// the two abandonment statuses the accounting identity counts.
        #[test]
        fn prop_finite_deadline_terminates_in_drop_or_expire(
            seed in any::<u64>(),
            max_retries in 1u32..16,
            deadline_ms in 1u64..2_000,
        ) {
            let policy = RetryPolicy {
                max_retries,
                ..RetryPolicy::standard()
            };
            let give_up_at = Duration::from_millis(deadline_ms);
            let (end, pauses) = walk(&policy, seed, Duration::ZERO, give_up_at);
            prop_assert!(matches!(end, RetryDecision::Drop | RetryDecision::Expire));
            prop_assert!(pauses.len() as u32 <= max_retries);
            let elapsed: Duration = pauses.iter().sum();
            prop_assert!(elapsed < give_up_at, "retried past the deadline");
        }
    }
}
