//! PQR — Partition Quiesce Reorganization (Section 5.1), the baseline the
//! paper compares IRA against.
//!
//! PQR quiesces the partition before reorganizing: it locks every object
//! *outside* the partition that holds a reference into it (the ERT
//! parents), plus every parent the TRT reveals while the locking is in
//! progress. With strict 2PL, any transaction inside the partition entered
//! through one of those external parents and still holds its lock on it, so
//! once PQR owns them all, no transaction can be touching the partition —
//! and none can get in. Reorganization then proceeds as in the quiescent
//! algorithm of Section 3.1, all locks held until the end.
//!
//! This is deliberately heavyweight: the experiments of Section 5 show PQR
//! blocking essentially every thread (the partition's persistent-root
//! parents are locked for the whole reorganization) — exactly the behaviour
//! this baseline reproduces.

use crate::offline::reorganize_quiescent;
use crate::plan::RelocationPlan;
use brahma::{AddrMap, Database, Error as StoreError, LockMode, PartitionId, PhysAddr, RetryPolicy};
use std::time::{Duration, Instant};

/// The insist policy: effectively "keep asking" — each lock request
/// already waits a full lock timeout, so the policy adds no delay of its
/// own (zero base), only a very high bound against pathologies.
const INSIST_POLICY: RetryPolicy = RetryPolicy::fixed(10_000, Duration::ZERO);

/// Outcome of a PQR run.
#[derive(Debug)]
pub struct PqrReport {
    pub partition: PartitionId,
    pub mapping: AddrMap<PhysAddr>,
    /// External parents locked to quiesce the partition.
    pub quiesce_locks: usize,
    pub duration: Duration,
}

impl PqrReport {
    /// Export the report into `snap` under `pqr.*` keys (durations in µs).
    pub fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("pqr.quiesce_locks", self.quiesce_locks as u64);
        snap.set(
            "pqr.duration_us",
            self.duration.as_micros().min(u64::MAX as u128) as u64,
        );
    }
}

/// Crate-internal entry point behind [`crate::Reorg`]'s
/// [`crate::Strategy::PartitionQuiesce`] (the only public way to run PQR).
pub(crate) fn run_pqr(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
) -> Result<PqrReport, StoreError> {
    let started = Instant::now();
    db.start_reorg(partition)?;
    crate::driver::withhold_free_space(db, partition, plan)?;
    // As for IRA: transactions active at the start must complete before the
    // TRT can be trusted.
    let active = db.txns.active_snapshot();
    db.txns.wait_for_all(&active, Duration::from_secs(300));

    let mut txn = db.begin_reorg(partition);
    let result = (|| {
        let part = db.partition(partition)?;
        // Lock all ERT parents; loop until the set is stable (transactions
        // may add cross-partition references while we lock).
        loop {
            let parents: Vec<PhysAddr> = part
                .ert
                .snapshot()
                .edges
                .into_iter()
                .map(|(_, parent)| parent)
                .filter(|p| txn.lock_mode(*p).is_none())
                .collect();
            if parents.is_empty() {
                break;
            }
            for p in parents {
                lock_insist(db, &mut txn, p)?;
            }
        }
        // Lock every parent the TRT mentions and is not locked yet.
        while let Some(trt) = db.trt(partition) {
            let unlocked: Vec<PhysAddr> = trt
                .dump()
                .into_iter()
                .map(|t| t.parent)
                .filter(|p| p.partition() != partition && txn.lock_mode(*p).is_none())
                .collect();
            if unlocked.is_empty() {
                break;
            }
            for p in unlocked {
                lock_insist(db, &mut txn, p)?;
            }
        }
        let quiesce_locks = txn.held_locks().len();
        // The partition is quiescent: reorganize it in place.
        let mapping = reorganize_quiescent(db, partition, plan, &mut txn)?;
        Ok((mapping, quiesce_locks))
    })();

    match result {
        Ok((mapping, quiesce_locks)) => {
            txn.commit()?;
            db.end_reorg(partition);
            crate::driver::release_target_space(db, partition, plan);
            Ok(PqrReport {
                partition,
                mapping,
                quiesce_locks,
                duration: started.elapsed(),
            })
        }
        Err(e) => {
            txn.abort();
            db.end_reorg(partition);
            crate::driver::release_target_space(db, partition, plan);
            Err(e)
        }
    }
}

/// Keep requesting the lock until granted. Workload transactions caught in
/// a deadlock with PQR time out and abort, releasing their locks, so
/// insisting is safe; [`INSIST_POLICY`] bounds the spin against pathologies
/// and counts every re-request in the store's `retry.*` counters.
fn lock_insist(
    db: &Database,
    txn: &mut brahma::Txn<'_>,
    addr: PhysAddr,
) -> Result<(), StoreError> {
    let mut backoff = INSIST_POLICY.start();
    loop {
        match txn.lock(addr, LockMode::Exclusive) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_retryable_conflict() => {
                if !db.retry_backoff(&mut backoff) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{NewObject, StoreConfig};

    fn mk(db: &Database, p: PartitionId, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 4,
                    payload: b"pqr".to_vec(),
                    payload_cap: 8,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    #[test]
    fn pqr_reorganizes_and_stays_consistent() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let leaf = mk(&db, p1, vec![]);
        let mid = mk(&db, p1, vec![leaf]);
        let e1 = mk(&db, p0, vec![mid]);
        let e2 = mk(&db, p0, vec![leaf]);

        let report = run_pqr(&db, p1, RelocationPlan::CompactInPlace).unwrap();
        assert_eq!(report.mapping.len(), 2);
        assert_eq!(report.quiesce_locks, 2, "two external parents were locked");
        assert_eq!(db.raw_read(e1).unwrap().refs, vec![report.mapping[&mid]]);
        assert_eq!(db.raw_read(e2).unwrap().refs, vec![report.mapping[&leaf]]);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn pqr_blocks_concurrent_access_until_done() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let db = Arc::new(Database::new(StoreConfig::default()));
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);

        let quiesced = Arc::new(AtomicBool::new(false));
        let db2 = Arc::clone(&db);
        let q2 = Arc::clone(&quiesced);
        // A walker repeatedly trying to read through the external parent
        // while PQR runs; once PQR holds the quiesce lock the walker times
        // out until PQR finishes.
        let walker = std::thread::spawn(move || {
            let mut blocked_once = false;
            for _ in 0..100 {
                let mut t = db2.begin();
                match t.lock(ext, LockMode::Shared) {
                    Ok(()) => {
                        let _ = t.read_refs(ext);
                        t.commit().unwrap();
                    }
                    Err(_) => {
                        if q2.load(Ordering::SeqCst) {
                            blocked_once = true;
                        }
                        t.abort();
                    }
                }
                if blocked_once {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            blocked_once
        });

        // Give the walker a head start, then run PQR with an artificial
        // hold: reorganize, and only then signal.
        std::thread::sleep(Duration::from_millis(20));
        quiesced.store(true, Ordering::SeqCst);
        let report = run_pqr(&db, p1, RelocationPlan::CompactInPlace).unwrap();
        assert_eq!(report.mapping.len(), 1);
        // The walker may or may not have observed the block (timing), but
        // the database must be consistent and the walker must terminate.
        let _ = walker.join().unwrap();
        brahma::sweep::assert_database_consistent(&db);
    }
}
