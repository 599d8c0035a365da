//! Transaction metrics: throughput, response times, abort counts.
//!
//! The paper evaluates the algorithms on throughput (tps) and average
//! response time, and Table 2 additionally reports the maximum and standard
//! deviation of response times — the variance is where PQR loses by orders
//! of magnitude. Response time is measured from a logical transaction's
//! first attempt to its commit, *including* timeout-abort retries: a
//! transaction blocked by the reorganizer keeps retrying and its response
//! time grows, exactly as in the paper's 100-second PQR maximum.

use std::time::Duration;

/// Per-walker outcome counts, one entry per workload thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkerCounts {
    pub walker: usize,
    pub committed: u64,
    pub aborted_attempts: u64,
    /// Non-retryable errors (at most 1: the walker shuts down on the first).
    pub errors: u64,
}

/// Raw measurements from one or more workload threads.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Response time per committed logical transaction, in microseconds.
    pub response_us: Vec<u64>,
    /// Timeout-abort attempts (each retried).
    pub aborted_attempts: u64,
    /// Non-retryable errors. A walker that hits one records it here and
    /// shuts down cleanly instead of panicking; the rest of the workload
    /// keeps running.
    pub errors: u64,
    /// Display text of the first non-retryable error observed (diagnostics).
    pub first_error: Option<String>,
    /// Per-walker breakdown (one entry per thread after a merge).
    pub per_walker: Vec<WalkerCounts>,
    /// Wall-clock measurement window.
    pub window: Duration,
}

impl Metrics {
    /// Merge measurements from another thread.
    pub fn merge(&mut self, other: Metrics) {
        self.response_us.extend(other.response_us);
        self.aborted_attempts += other.aborted_attempts;
        self.errors += other.errors;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.per_walker.extend(other.per_walker);
        self.window = self.window.max(other.window);
    }

    /// Record one committed transaction.
    pub fn record_commit(&mut self, response: Duration) {
        self.response_us.push(response.as_micros() as u64);
    }

    /// Record one timed-out attempt.
    pub fn record_abort(&mut self) {
        self.aborted_attempts += 1;
    }

    /// Record a non-retryable error (the walker stops after this).
    pub fn record_error(&mut self, error: impl std::fmt::Display) {
        self.errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(error.to_string());
        }
    }

    /// Export aggregate counts into `snap` under `workload.*` keys.
    pub fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("workload.committed", self.response_us.len() as u64);
        snap.set("workload.aborted_attempts", self.aborted_attempts);
        snap.set("workload.errors", self.errors);
        snap.set("workload.walkers", self.per_walker.len() as u64);
    }

    /// Summarize into the paper's reporting metrics.
    pub fn summarize(&self) -> Summary {
        let n = self.response_us.len();
        let window_s = self.window.as_secs_f64();
        let throughput = if window_s > 0.0 { n as f64 / window_s } else { 0.0 };
        let mean_us = if n > 0 {
            self.response_us.iter().sum::<u64>() as f64 / n as f64
        } else {
            0.0
        };
        let var_us2 = if n > 1 {
            self.response_us
                .iter()
                .map(|&x| {
                    let d = x as f64 - mean_us;
                    d * d
                })
                .sum::<f64>()
                / n as f64
        } else {
            0.0
        };
        let mut sorted = self.response_us.clone();
        sorted.sort_unstable();
        let pct = |p: f64| -> f64 {
            if sorted.is_empty() {
                0.0
            } else {
                let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
                sorted[idx] as f64 / 1000.0
            }
        };
        Summary {
            committed: n as u64,
            aborted_attempts: self.aborted_attempts,
            errors: self.errors,
            throughput_tps: throughput,
            avg_ms: mean_us / 1000.0,
            max_ms: sorted.last().copied().unwrap_or(0) as f64 / 1000.0,
            stddev_ms: var_us2.sqrt() / 1000.0,
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            window_s,
        }
    }
}

/// The paper's reporting metrics for one experiment cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub committed: u64,
    pub aborted_attempts: u64,
    /// Non-retryable walker errors (0 in a healthy run).
    pub errors: u64,
    /// Throughput in transactions per second (Figures 6, 8, 10).
    pub throughput_tps: f64,
    /// Average response time in milliseconds (Figures 7, 9, 11).
    pub avg_ms: f64,
    /// Maximum response time (Table 2).
    pub max_ms: f64,
    /// Standard deviation of response times (Table 2).
    pub stddev_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub window_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_metrics() {
        let s = Metrics::default().summarize();
        assert_eq!(s.committed, 0);
        assert_eq!(s.throughput_tps, 0.0);
        assert_eq!(s.avg_ms, 0.0);
        assert_eq!(s.max_ms, 0.0);
    }

    #[test]
    fn summary_statistics() {
        let mut m = Metrics {
            window: Duration::from_secs(2),
            ..Metrics::default()
        };
        for ms in [10u64, 20, 30, 40] {
            m.record_commit(Duration::from_millis(ms));
        }
        m.record_abort();
        let s = m.summarize();
        assert_eq!(s.committed, 4);
        assert_eq!(s.aborted_attempts, 1);
        assert!((s.throughput_tps - 2.0).abs() < 1e-9);
        assert!((s.avg_ms - 25.0).abs() < 1e-9);
        assert!((s.max_ms - 40.0).abs() < 1e-9);
        // Population stddev of {10,20,30,40} = sqrt(125) ~ 11.18.
        assert!((s.stddev_ms - 125f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut m = Metrics {
            window: Duration::from_secs(1),
            ..Metrics::default()
        };
        for ms in 1..=100u64 {
            m.record_commit(Duration::from_millis(ms));
        }
        let s = m.summarize();
        assert!(s.avg_ms <= s.p95_ms);
        assert!(s.p95_ms <= s.p99_ms);
        assert!(s.p99_ms <= s.max_ms);
        assert!((s.p95_ms - 95.0).abs() <= 1.5);
        assert!((s.max_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn errors_are_counted_and_first_is_kept() {
        let mut m = Metrics::default();
        m.record_error("first failure");
        m.record_error("second failure");
        assert_eq!(m.errors, 2);
        assert_eq!(m.first_error.as_deref(), Some("first failure"));
        let s = m.summarize();
        assert_eq!(s.errors, 2);
        // No commits and a zero window must not divide by zero.
        assert_eq!(s.throughput_tps, 0.0);
        assert_eq!(s.avg_ms, 0.0);
        assert_eq!(s.stddev_ms, 0.0);
    }

    #[test]
    fn export_emits_workload_keys() {
        let mut m = Metrics {
            window: Duration::from_secs(1),
            ..Metrics::default()
        };
        m.record_commit(Duration::from_millis(5));
        m.record_abort();
        m.per_walker.push(WalkerCounts {
            walker: 0,
            committed: 1,
            aborted_attempts: 1,
            errors: 0,
        });
        let mut snap = obs::Snapshot::new();
        m.export(&mut snap);
        assert_eq!(snap.get("workload.committed"), 1);
        assert_eq!(snap.get("workload.aborted_attempts"), 1);
        assert_eq!(snap.get("workload.errors"), 0);
        assert_eq!(snap.get("workload.walkers"), 1);
    }

    #[test]
    fn merge_combines_threads() {
        let mut a = Metrics {
            window: Duration::from_secs(1),
            ..Metrics::default()
        };
        a.record_commit(Duration::from_millis(5));
        let mut b = Metrics {
            window: Duration::from_secs(3),
            ..Metrics::default()
        };
        b.record_commit(Duration::from_millis(15));
        b.record_abort();
        a.merge(b);
        assert_eq!(a.response_us.len(), 2);
        assert_eq!(a.aborted_attempts, 1);
        assert_eq!(a.window, Duration::from_secs(3));
    }
}
