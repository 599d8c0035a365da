//! Random-walk transactions (Section 5.2, "Transaction Access Pattern").
//!
//! A transaction performs a random walk through the object graph. Each
//! thread has a *home* partition; the walk starts at a random persistent
//! root (cluster root) of that partition, reached through the partition's
//! root object. At each of the `OPSPERTRANS` steps the transaction locks
//! the current object — exclusively with probability `UPDATEPROB`, shared
//! otherwise — reads its references, and moves to a random one. Update
//! accesses overwrite the payload; with `ref_update_prob` they additionally
//! rewire the object's extra edge to a node the transaction has already
//! visited (a pointer delete + insert, the traffic the TRT exists for).
//!
//! Retryable conflicts — lock timeouts, upgrade conflicts, injected
//! transient faults — abort the attempt; the logical transaction retries
//! under [`WorkloadParams::retry`], and its response time spans all
//! attempts.

use crate::graph::GraphInfo;
use crate::params::WorkloadParams;
use crate::stats::EdgeObserver;
use brahma::{Database, Error, LockMode, PhysAddr};
use rand::rngs::StdRng;
use rand::Rng;

/// Outcome of one *attempt* at a walk transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkAttempt {
    Committed,
    /// Retryable conflict (lock timeout, upgrade conflict, injected
    /// transient fault): aborted, should be retried.
    TimedOut,
}

/// Run one attempt of a walk transaction from a random cluster root of
/// `home`.
pub fn walk_once(
    db: &Database,
    info: &GraphInfo,
    home_index: usize,
    params: &WorkloadParams,
    rng: &mut StdRng,
) -> Result<WalkAttempt, Error> {
    walk_once_observed(db, info, home_index, params, rng, None)
}

/// [`walk_once`], reporting every traversed edge to `observer`.
///
/// An edge is reported when its *child* end is successfully locked and
/// read — both endpoints were co-accessed by this transaction, which is
/// the signal the clustering policy wants. The entry hop (partition root →
/// cluster root) is reported too; [`ira::StatsGreedy`] discards
/// cross-partition edges on its own.
pub fn walk_once_observed(
    db: &Database,
    info: &GraphInfo,
    home_index: usize,
    params: &WorkloadParams,
    rng: &mut StdRng,
    observer: Option<&dyn EdgeObserver>,
) -> Result<WalkAttempt, Error> {
    let mut txn = db.begin();
    let strict = db.config.strict_2pl;

    // Enter through the partition's root object (an external parent in the
    // root partition). Its address is re-read every transaction because the
    // reorganizer may migrate it.
    let roots = db.roots();
    let Some(&root_obj) = roots.get(info.root_index[home_index]) else {
        txn.abort();
        return Ok(WalkAttempt::TimedOut);
    };
    match txn.lock(root_obj, LockMode::Shared) {
        Ok(()) => {}
        Err(e) if e.is_retryable_conflict() => {
            txn.abort();
            return Ok(WalkAttempt::TimedOut);
        }
        Err(e) => return Err(e),
    }
    let cluster_roots = match txn.read_refs(root_obj) {
        Ok(r) => r,
        Err(Error::NoSuchObject(_)) => {
            txn.abort();
            return Ok(WalkAttempt::TimedOut);
        }
        Err(e) => return Err(e),
    };
    if cluster_roots.is_empty() {
        txn.abort();
        return Ok(WalkAttempt::TimedOut);
    }
    let mut current = cluster_roots[rng.gen_range(0..cluster_roots.len())];
    // The previous hop of the walk; the first traversed edge is
    // root object → cluster root.
    let mut last = root_obj;
    if !strict {
        let _ = txn.early_unlock(root_obj);
    }

    let mut visited: Vec<PhysAddr> = Vec::with_capacity(params.ops_per_trans);
    let mut prev: Option<(PhysAddr, LockMode)> = None;
    for _ in 0..params.ops_per_trans {
        let exclusive = rng.gen_bool(params.update_prob.clamp(0.0, 1.0));
        let mode = if exclusive {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        match txn.lock(current, mode) {
            Ok(()) => {}
            Err(e) if e.is_retryable_conflict() => {
                txn.abort();
                return Ok(WalkAttempt::TimedOut);
            }
            Err(e) => return Err(e),
        }
        let refs = match txn.read_refs(current) {
            Ok(r) => r,
            Err(Error::NoSuchObject(_)) => {
                // Stale address (the object migrated between our copy and
                // our lock, possible only outside strict 2PL): retry.
                txn.abort();
                return Ok(WalkAttempt::TimedOut);
            }
            Err(e) => return Err(e),
        };
        if let Some(obs) = observer {
            obs.record_edge(last, current);
        }
        last = current;
        if exclusive {
            let mut payload = vec![0u8; params.payload_size];
            rng.fill(&mut payload[..]);
            match txn.set_payload(current, &payload) {
                Ok(()) => {}
                Err(e) if e.is_retryable_conflict() => {
                    txn.abort();
                    return Ok(WalkAttempt::TimedOut);
                }
                Err(e) => return Err(e),
            }
            // Optional reference churn: repoint the extra edge (the last
            // reference) at a node already in local memory.
            if !visited.is_empty()
                && !refs.is_empty()
                && rng.gen_bool(params.ref_update_prob.clamp(0.0, 1.0))
            {
                let target = visited[rng.gen_range(0..visited.len())];
                match txn.set_ref(current, refs.len() - 1, target) {
                    Ok(_) => {}
                    Err(e) if e.is_retryable_conflict() => {
                        txn.abort();
                        return Ok(WalkAttempt::TimedOut);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        visited.push(current);
        // Release the previous hop early when not under strict 2PL (read
        // locks only; write locks are commit-duration for rollback safety).
        if !strict {
            if let Some((addr, LockMode::Shared)) = prev {
                let _ = txn.early_unlock(addr);
            }
        }
        prev = Some((current, mode));
        if refs.is_empty() {
            break;
        }
        current = refs[rng.gen_range(0..refs.len())];
    }
    // A retryable fault injected at commit (e.g. on the WAL flush) aborts
    // the attempt like any conflict; ARIES rolls the attempt back.
    match txn.commit() {
        Ok(()) => Ok(WalkAttempt::Committed),
        Err(e) if e.is_retryable_conflict() => Ok(WalkAttempt::TimedOut),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use brahma::StoreConfig;
    use rand::SeedableRng;

    fn setup(strict: bool) -> (Database, GraphInfo, WorkloadParams) {
        let config = StoreConfig {
            strict_2pl: strict,
            ..StoreConfig::default()
        };
        let db = Database::new(config);
        let params = WorkloadParams {
            num_partitions: 2,
            objs_per_partition: 170,
            ..WorkloadParams::default()
        };
        let info = build_graph(&db, &params).unwrap();
        (db, info, params)
    }

    #[test]
    fn walks_commit_on_idle_database() {
        let (db, info, params) = setup(true);
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..50 {
            let out = walk_once(&db, &info, i % 2, &params, &mut rng).unwrap();
            assert_eq!(out, WalkAttempt::Committed);
        }
        assert!(db.stats.commits.get() >= 50);
    }

    #[test]
    fn update_walks_write_payloads() {
        let (db, info, params) = setup(true);
        let params = WorkloadParams {
            update_prob: 1.0,
            ..params
        };
        let mut rng = StdRng::seed_from_u64(1);
        walk_once(&db, &info, 0, &params, &mut rng).unwrap();
        assert!(db.stats.payload_writes.get() > 0);
    }

    #[test]
    fn ref_churn_keeps_database_consistent() {
        let (db, info, params) = setup(true);
        let params = WorkloadParams {
            update_prob: 1.0,
            ref_update_prob: 0.5,
            ..params
        };
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..100 {
            walk_once(&db, &info, i % 2, &params, &mut rng).unwrap();
        }
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn relaxed_mode_releases_read_locks_early() {
        let (db, info, params) = setup(false);
        let params = WorkloadParams {
            update_prob: 0.0,
            ..params
        };
        let mut rng = StdRng::seed_from_u64(3);
        let out = walk_once(&db, &info, 0, &params, &mut rng).unwrap();
        assert_eq!(out, WalkAttempt::Committed);
    }
}
