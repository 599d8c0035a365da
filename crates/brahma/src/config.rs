//! Store-wide configuration.

use std::time::Duration;

/// Page size in bytes. Objects never span pages; the largest creatable
/// object is `PAGE_SIZE` bytes including its header.
pub const PAGE_SIZE: usize = 16 * 1024;

/// Configuration for a [`crate::db::Database`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Lock wait timeout used to break deadlocks. The paper's experiments
    /// used one second.
    pub lock_timeout: Duration,
    /// Simulated latency of forcing the log tail to stable storage at commit.
    /// The paper's throughput peaks at MPL ≈ 5 because commit-time log
    /// flushes overlap with other transactions' CPU work; a non-zero value
    /// here reproduces that CPU/I-O parallelism on an otherwise
    /// memory-resident database.
    pub commit_flush_latency: Duration,
    /// Whether the WAL retains all records in memory (needed for restart
    /// recovery). Long benchmark runs may disable retention to bound
    /// memory; recovery then requires a fresh run.
    pub wal_retain: bool,
    /// Apply the Section 4.5 TRT space optimization: under strict 2PL,
    /// pointer-delete tuples are purged when the deleting transaction
    /// completes, and a commit of a delete also purges a matching insert
    /// tuple.
    pub trt_purge: bool,
    /// Whether workload transactions follow strict 2PL (all locks held to
    /// transaction end). When `false`, transactions may release locks early
    /// and the lock manager records which active transactions *ever* held a
    /// lock on each object so the reorganizer can wait for them
    /// (Section 4.1). The TRT purge optimization is disabled in this mode
    /// regardless of `trt_purge` (Section 4.5, last paragraph).
    pub strict_2pl: bool,
    /// Directory for the file backend's WAL segments and checkpoint files.
    /// `None` (the default) keeps the store purely in-memory; set it and
    /// open the store through [`crate::storage::open`] for real
    /// durability (DESIGN.md §14).
    pub data_dir: Option<std::path::PathBuf>,
    /// Target size of one WAL segment file; the active segment rotates at
    /// the first append that finds it past this many bytes.
    pub wal_segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            lock_timeout: Duration::from_secs(1),
            commit_flush_latency: Duration::ZERO,
            wal_retain: true,
            trt_purge: true,
            strict_2pl: true,
            data_dir: None,
            wal_segment_bytes: 1 << 20,
        }
    }
}

impl StoreConfig {
    /// Configuration tuned for the paper's performance experiments: 1 s lock
    /// timeout and a small commit flush latency so the throughput-vs-MPL
    /// curve peaks above MPL 1, as in Section 5.3.1.
    pub fn paper_experiment() -> Self {
        StoreConfig {
            commit_flush_latency: Duration::from_micros(150),
            wal_retain: false,
            ..StoreConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_lock_timeout() {
        assert_eq!(StoreConfig::default().lock_timeout, Duration::from_secs(1));
    }

    #[test]
    fn experiment_profile_disables_retention() {
        let c = StoreConfig::paper_experiment();
        assert!(!c.wal_retain);
        assert!(c.commit_flush_latency > Duration::ZERO);
    }
}
