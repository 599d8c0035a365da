//! The MPL driver (Section 5.2): `MPL` threads, each submitting the next
//! transaction as soon as the previous one completes, threads uniformly
//! assigned home partitions.

use crate::graph::GraphInfo;
use crate::metrics::{Metrics, WalkerCounts};
use crate::params::WorkloadParams;
use crate::stats::EdgeObserver;
use crate::walker::{walk_once_observed, WalkAttempt};
use brahma::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A running workload: MPL threads submitting walk transactions until
/// stopped.
pub struct WorkloadHandle {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Metrics>>,
}

/// Start `params.mpl` workload threads against `db`.
pub fn start_workload(
    db: Arc<Database>,
    info: Arc<GraphInfo>,
    params: &WorkloadParams,
) -> WorkloadHandle {
    start_workload_observed(db, info, params, None)
}

/// [`start_workload`], with every walker reporting traversed edges to
/// `observer` (the "observe" stage of the clustering loop).
pub fn start_workload_observed(
    db: Arc<Database>,
    info: Arc<GraphInfo>,
    params: &WorkloadParams,
    observer: Option<Arc<dyn EdgeObserver + Send + Sync>>,
) -> WorkloadHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let threads = (0..params.mpl)
        .map(|t| {
            let db = Arc::clone(&db);
            let info = Arc::clone(&info);
            let stop = Arc::clone(&stop);
            let observer = observer.clone();
            let params = params.clone();
            std::thread::Builder::new()
                .name(format!("walker-{t}"))
                .spawn(move || {
                    // Threads are uniformly assigned to home partitions.
                    let home = t % info.data_partitions.len();
                    // Per-thread RNG stream off the SeedTree: decorrelated
                    // across threads, identical for a given (seed, t) at any
                    // MPL (the old `seed ^ t<<17` xor left low bits shared).
                    let tree = brahma::SeedTree::new(params.seed)
                        .child("workload.walker")
                        .child_idx(t as u64);
                    let mut rng = StdRng::seed_from_u64(tree.seed());
                    // Each walker's retry jitter gets its own stream too —
                    // one shared policy seed would synchronize the backoff
                    // of every thread that fails together.
                    let retry = brahma::RetryPolicy {
                        seed: tree.child("retry").seed(),
                        ..params.retry.clone()
                    };
                    let mut metrics = Metrics::default();
                    let run_start = Instant::now();
                    'run: while !stop.load(Ordering::Relaxed) {
                        // One logical transaction: retry attempts under
                        // `params.retry` until it commits; response time
                        // spans all attempts.
                        let txn_start = Instant::now();
                        let mut backoff = retry.start();
                        loop {
                            match walk_once_observed(
                                &db,
                                &info,
                                home,
                                &params,
                                &mut rng,
                                observer.as_deref().map(|o| o as &dyn EdgeObserver),
                            ) {
                                Ok(WalkAttempt::Committed) => {
                                    metrics.record_commit(txn_start.elapsed());
                                    break;
                                }
                                Ok(WalkAttempt::TimedOut) => {
                                    metrics.record_abort();
                                    if stop.load(Ordering::Relaxed) {
                                        break;
                                    }
                                    if !db.retry_backoff(&mut backoff) {
                                        metrics.record_error(format!(
                                            "walker {t}: retry policy exhausted"
                                        ));
                                        break 'run;
                                    }
                                }
                                Err(e) => {
                                    // Non-retryable: record it and shut this
                                    // walker down cleanly; the rest of the
                                    // workload keeps running and the error
                                    // surfaces in the merged metrics.
                                    metrics.record_error(format!("walker {t}: {e}"));
                                    break 'run;
                                }
                            }
                        }
                    }
                    metrics.window = run_start.elapsed();
                    metrics.per_walker.push(WalkerCounts {
                        walker: t,
                        committed: metrics.response_us.len() as u64,
                        aborted_attempts: metrics.aborted_attempts,
                        errors: metrics.errors,
                    });
                    metrics
                })
                .expect("spawn walker thread")
        })
        .collect();
    WorkloadHandle { stop, threads }
}

impl WorkloadHandle {
    /// Signal all threads to stop and collect their merged metrics.
    pub fn stop_and_join(self) -> Metrics {
        self.stop.store(true, Ordering::SeqCst);
        let mut merged = Metrics::default();
        for t in self.threads {
            match t.join() {
                Ok(m) => merged.merge(m),
                // A panicked walker loses its per-thread numbers but must
                // not take the whole measurement down with it.
                Err(_) => merged.record_error("walker thread panicked"),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use brahma::StoreConfig;
    use std::time::Duration;

    #[test]
    fn workload_runs_and_stops() {
        let db = Arc::new(Database::new(StoreConfig::default()));
        let params = WorkloadParams {
            num_partitions: 2,
            objs_per_partition: 170,
            mpl: 4,
            ..WorkloadParams::default()
        };
        let info = Arc::new(build_graph(&db, &params).unwrap());
        let handle = start_workload(Arc::clone(&db), info, &params);
        std::thread::sleep(Duration::from_millis(200));
        let metrics = handle.stop_and_join();
        let summary = metrics.summarize();
        assert!(summary.committed > 10, "got {summary:?}");
        assert!(summary.throughput_tps > 0.0);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn workload_with_concurrent_reorganization_is_consistent() {
        let db = Arc::new(Database::new(StoreConfig::default()));
        let params = WorkloadParams {
            num_partitions: 3,
            objs_per_partition: 170,
            mpl: 6,
            ref_update_prob: 0.2,
            ..WorkloadParams::default()
        };
        let info = Arc::new(build_graph(&db, &params).unwrap());
        let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);

        // Reorganize a data partition while the walkers hammer it.
        let outcome = ira::Reorg::on(&db, info.data_partitions[0])
            .run()
            .expect("IRA completes under load");
        assert_eq!(outcome.migrated(), 170);

        let metrics = handle.stop_and_join();
        assert!(metrics.summarize().committed > 0);
        brahma::sweep::assert_database_consistent(&db);
        ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
    }
}
