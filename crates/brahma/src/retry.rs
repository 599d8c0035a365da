//! Shared retry policy: bounded exponential backoff with seeded jitter.
//!
//! Every retry loop in the reorganization stack — the IRA driver's batch
//! loop, the two-lock variant's per-parent repoint, PQR's insistent parent
//! locking, the relaxed-2PL settle wait, and the workload walkers — used to
//! carry its own hardcoded sleep. They now share one [`RetryPolicy`], so
//! backoff behaviour is configurable, test-tunable, and deterministic for a
//! given seed; and one pair of store-wide counters (`retry.attempts`,
//! `retry.giveups`) makes convergence observable in
//! [`crate::Database::obs_snapshot`].
//!
//! Jitter is derived from a splitmix64 hash of `(seed, attempt)` rather
//! than a shared RNG stream, so concurrent retriers never contend and a
//! replay with the same seed produces the same delays.

use crate::lockdep;
use crate::sched::{self, splitmix64};
use obs::Counter;
use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before the caller gives up (0 means "never retry").
    pub max_attempts: usize,
    /// Delay before the first retry; doubles each attempt.
    pub base: Duration,
    /// Ceiling on the exponential delay (before jitter).
    pub cap: Duration,
    /// Seed for the jitter hash. Two policies differing only in seed retry
    /// the same number of times with different phase.
    pub seed: u64,
    /// Jitter fraction numerator out of 100: each delay is perturbed by up
    /// to ±`jitter_pct`% of itself. 0 disables jitter (fixed slices).
    pub jitter_pct: u8,
}

impl RetryPolicy {
    pub const fn new(max_attempts: usize, base: Duration, cap: Duration, seed: u64) -> Self {
        RetryPolicy {
            max_attempts,
            base,
            cap,
            seed,
            jitter_pct: 50,
        }
    }

    /// Fixed-slice policy: every delay is exactly `slice` (no growth, no
    /// jitter). Used where the wait is a poll interval, not contention
    /// avoidance — e.g. the relaxed-2PL settle loop.
    pub const fn fixed(max_attempts: usize, slice: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            base: slice,
            cap: slice,
            seed: 0,
            jitter_pct: 0,
        }
    }

    /// The delay before retry number `attempt` (1-based): `base * 2^(a-1)`
    /// capped at `cap`, then jittered by up to ±`jitter_pct`%.
    pub(crate) fn delay(&self, attempt: usize) -> Duration {
        let shift = attempt.saturating_sub(1).min(32) as u32;
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX))
            .min(self.cap);
        if self.jitter_pct == 0 || exp.is_zero() {
            return exp;
        }
        let span = exp.as_nanos() as u64 / 100 * u64::from(self.jitter_pct);
        if span == 0 {
            return exp;
        }
        // Deterministic jitter in [-span, +span) from (seed, attempt).
        let h = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let offset = (h % (2 * span)) as i64 - span as i64;
        let nanos = (exp.as_nanos() as i64).saturating_add(offset).max(0);
        Duration::from_nanos(nanos as u64)
    }

    /// Begin a retry sequence governed by this policy.
    pub fn start(&self) -> RetryState<'_> {
        RetryState {
            policy: self,
            attempt: 0,
        }
    }
}

impl Default for RetryPolicy {
    /// The store-wide default: up to 10 000 attempts, 1 ms doubling to a
    /// 64 ms cap, ±50 % jitter. Matches the paper's "abort and retry"
    /// deadlock discipline with enough headroom that transient injected
    /// faults never exhaust it.
    fn default() -> Self {
        RetryPolicy::new(
            10_000,
            Duration::from_millis(1),
            Duration::from_millis(64),
            0x5EED,
        )
    }
}

/// Progress through one retry sequence.
#[derive(Debug)]
pub struct RetryState<'p> {
    policy: &'p RetryPolicy,
    /// Retries consumed so far.
    pub attempt: usize,
}

impl RetryState<'_> {
    /// Account one failure. Returns the delay to sleep before the next
    /// attempt, or `None` when the policy is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.max_attempts {
            return None;
        }
        self.attempt += 1;
        Some(self.policy.delay(self.attempt))
    }
}

/// Store-wide retry accounting, exported as `retry.*` in
/// [`crate::Database::obs_snapshot`].
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Retries performed (each sleep-then-retry cycle counts once).
    pub attempts: Counter,
    /// Retry sequences that exhausted their policy and gave up.
    pub giveups: Counter,
}

impl RetryStats {
    pub(crate) fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("retry.attempts", self.attempts.get());
        snap.set("retry.giveups", self.giveups.get());
    }
}

impl crate::db::Database {
    /// Account and perform one backoff step of `state` against this
    /// database's `retry.*` counters. Returns `false` (after counting a
    /// giveup) when the policy is exhausted; otherwise sleeps the policy
    /// delay and returns `true`.
    pub fn retry_backoff(&self, state: &mut RetryState<'_>) -> bool {
        match state.next_delay() {
            Some(delay) => {
                self.retry_stats.attempts.inc();
                sched::point("retry.backoff");
                if !delay.is_zero() {
                    lockdep::might_block("retry.backoff");
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "RetryPolicy's backoff: a product wait that sleeps by design"
                    )]
                    std::thread::sleep(delay);
                }
                true
            }
            None => {
                self.retry_stats.giveups.inc();
                sched::point("retry.giveup");
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy {
            jitter_pct: 0,
            ..RetryPolicy::new(10, Duration::from_millis(1), Duration::from_millis(8), 1)
        };
        assert_eq!(p.delay(1), Duration::from_millis(1));
        assert_eq!(p.delay(2), Duration::from_millis(2));
        assert_eq!(p.delay(3), Duration::from_millis(4));
        assert_eq!(p.delay(4), Duration::from_millis(8));
        assert_eq!(p.delay(5), Duration::from_millis(8), "capped");
        assert_eq!(p.delay(64), Duration::from_millis(8), "shift clamps");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::new(10, Duration::from_millis(4), Duration::from_secs(1), 42);
        for attempt in 1..=10 {
            let d1 = p.delay(attempt);
            let d2 = p.delay(attempt);
            assert_eq!(d1, d2, "same (seed, attempt) gives the same delay");
            let exp = Duration::from_millis(4).saturating_mul(1 << (attempt - 1) as u32);
            let exp = exp.min(Duration::from_secs(1));
            assert!(
                d1 >= exp / 2 && d1 <= exp * 3 / 2,
                "±50% of {exp:?}: {d1:?}"
            );
        }
        let q = RetryPolicy::new(10, Duration::from_millis(4), Duration::from_secs(1), 43);
        assert!(
            (1..=10).any(|a| q.delay(a) != p.delay(a)),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn state_exhausts_after_max_attempts() {
        let p = RetryPolicy {
            jitter_pct: 0,
            ..RetryPolicy::new(3, Duration::ZERO, Duration::ZERO, 0)
        };
        let mut s = p.start();
        assert!(s.next_delay().is_some());
        assert!(s.next_delay().is_some());
        assert!(s.next_delay().is_some());
        assert!(s.next_delay().is_none());
        assert_eq!(s.attempt, 3);
    }

    #[test]
    fn fixed_policy_has_constant_slices() {
        let p = RetryPolicy::fixed(5, Duration::from_millis(100));
        assert_eq!(p.delay(1), Duration::from_millis(100));
        assert_eq!(p.delay(5), Duration::from_millis(100));
    }

    #[test]
    fn database_backoff_counts_attempts_and_giveups() {
        let db = crate::Database::new(crate::StoreConfig::default());
        let p = RetryPolicy {
            jitter_pct: 0,
            ..RetryPolicy::new(2, Duration::ZERO, Duration::ZERO, 0)
        };
        let mut s = p.start();
        assert!(db.retry_backoff(&mut s));
        assert!(db.retry_backoff(&mut s));
        assert!(!db.retry_backoff(&mut s));
        assert_eq!(db.retry_stats.attempts.get(), 2);
        assert_eq!(db.retry_stats.giveups.get(), 1);
        let snap = db.obs_snapshot();
        assert_eq!(snap.get("retry.attempts"), 2);
        assert_eq!(snap.get("retry.giveups"), 1);
    }
}
