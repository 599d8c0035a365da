//! The two-lock extension (Section 4.2).
//!
//! Rather than locking all parents of an object simultaneously, the
//! reorganizer locks the object being migrated — in both its old and new
//! locations — and then locks parents **one at a time**, releasing each
//! parent's lock (by committing its update transaction) before taking the
//! next. At most two distinct objects are therefore locked by the
//! reorganizer at any point in time.
//!
//! The guard locks on `O_old`/`O_new` are held by a dedicated *guard
//! transaction* across the per-parent update transactions, modelling the
//! paper's process-level locks. Transactions can still copy references to
//! either location into other objects while migration runs; new references
//! to `O_new` are already correct, and new references to `O_old` surface as
//! TRT tuples, which the parent loop keeps draining until none remain — at
//! that point no live reference to `O_old` can exist (the strict-2PL /
//! ever-held-wait argument of Lemma 3.2 applies per parent) and the old
//! copy is freed.
//!
//! The paper notes two costs, which this implementation inherits: after a
//! crash, both locations must be locked and the reorganization restarted
//! (some parents may point at `O_old` and others at `O_new`); and reference
//! *comparisons* by transactions must either lock the referenced objects or
//! consult the migration mapping (see [`crate::driver::IraReport::mapping`]).

use crate::migrate::CopySource;
use crate::plan::RelocationPlan;
use crate::relaxed::{lock_and_settle, settle};
use crate::traversal::TraversalState;
use brahma::{AddrSet, Database, Error, LockMode, PhysAddr, Result, RetryPolicy};

/// Migrate one object with the two-lock discipline.
///
/// On success the migration is committed (the guard transaction commits
/// inside) and counted in `db.migrations`; the caller records the returned
/// new address in its migration map.
pub(crate) fn migrate_two_lock(
    db: &Database,
    oold: PhysAddr,
    plan: RelocationPlan,
    transform: Option<fn(brahma::ObjectView) -> brahma::ObjectView>,
    state: &mut TraversalState,
    retry: &RetryPolicy,
) -> Result<PhysAddr> {
    let partition = oold.partition();

    // Section 4.2's defining claim, checked at runtime: within this region
    // the reorganizer never holds locks on more than two distinct objects
    // (O_old/O_new alias to one once the copy exists).
    let _two_lock = brahma::lockdep::two_lock_region();

    // Guard transaction: holds O_old (and soon O_new) for the whole
    // migration.
    let mut guard = db.begin_reorg(partition);
    guard.lock(oold, LockMode::Exclusive)?;
    settle(db, guard.id(), oold)?;
    let mut source = CopySource::new(guard.read(oold)?, oold, transform);

    // Create the copy in its own transaction, then hand its lock to the
    // guard. Nothing references O_new yet, so the hand-over window is
    // unreachable by other transactions.
    let mut creator = db.begin_reorg(partition);
    let onew = source.create_copy(&mut creator, plan)?;
    creator.commit()?;
    brahma::lockdep::two_lock_alias(oold.to_raw(), onew.to_raw());
    guard.lock(onew, LockMode::Exclusive)?;

    // Repoint parents one at a time. The approximate list seeds the work;
    // the TRT supplies parents that appear (or reappear) concurrently. A
    // parent already processed can legitimately come back via the TRT if a
    // transaction inserted a fresh reference to O_old into it.
    let mut pending: Vec<PhysAddr> = state.parents_of(oold);
    let mut processed = AddrSet::default();
    loop {
        while let Some(parent) = pending.pop() {
            if parent == oold || parent == onew || processed.contains(&parent) {
                continue;
            }
            repoint_parent(db, parent, oold, onew, retry)?;
            processed.insert(parent);
        }
        let Some(trt) = db.trt(partition) else { break };
        let Some(tuple) = trt.peek_for(oold) else {
            break;
        };
        // Per-parent transaction, exactly as above; the tuple is deleted
        // after its parent is locked (Figure 4's ordering).
        if tuple.parent != oold && tuple.parent != onew {
            repoint_parent(db, tuple.parent, oold, onew, retry)?;
        }
        trt.remove_tuple(&tuple);
    }

    // Nothing reverts a two-lock migration (each step committed on its own),
    // so the rewrite list is dropped.
    crate::migrate::repoint_children(&source.image.refs, oold, onew, state, &mut Vec::new());
    guard.log_migration(oold, onew)?;
    guard.delete_object(oold)?;
    guard.commit()?;

    db.stats.migrations.inc();
    Ok(onew)
}

/// Lock one parent in its own transaction, rewrite its references to
/// `oold`, commit (releasing it). Retryable conflicts — lock timeouts,
/// upgrade conflicts, injected transient faults, including at commit —
/// retry locally under `retry`, so a deadlock against a walker (who
/// may be waiting on the guarded `oold`) resolves without abandoning the
/// migration.
fn repoint_parent(
    db: &Database,
    parent: PhysAddr,
    oold: PhysAddr,
    onew: PhysAddr,
    retry: &RetryPolicy,
) -> Result<()> {
    let mut backoff = retry.start();
    loop {
        let mut txn = db.begin_reorg(oold.partition());
        let outcome = lock_and_settle(db, &mut txn, parent)
            .and_then(|()| match txn.repoint_refs(parent, oold, onew) {
                // A stale parent (freed garbage) has nothing to fix.
                Ok(_) | Err(Error::NoSuchObject(_)) => Ok(()),
                Err(e) => Err(e),
            })
            .and_then(|()| txn.commit());
        match outcome {
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
    use crate::approx::find_objects_and_approx_parents;
    use brahma::{NewObject, PartitionId, StoreConfig};

    fn mk(db: &Database, p: PartitionId, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag: 3,
                    refs,
                    ref_cap: 8,
                    payload: b"two-lock".to_vec(),
                    payload_cap: 16,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    fn migrate(db: &Database, o: PhysAddr, state: &mut TraversalState) -> PhysAddr {
        let plan = RelocationPlan::CompactInPlace;
        migrate_two_lock(db, o, plan, None, state, &RetryPolicy::default()).unwrap()
    }

    #[test]
    fn migrates_and_repoints_with_at_most_two_reorg_locks() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let e1 = mk(&db, p0, vec![o]);
        let e2 = mk(&db, p0, vec![o]);

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let onew = migrate(&db, o, &mut state);
        db.end_reorg(p1);

        assert_eq!(db.raw_read(e1).unwrap().refs, vec![onew]);
        assert_eq!(db.raw_read(e2).unwrap().refs, vec![onew]);
        assert!(db.raw_read(o).is_err());
        brahma::sweep::assert_database_consistent(&db);
    }

    /// Integration-level footprint check: a real migration stays within the
    /// two-lock budget, and a seeded third distinct lock inside the region
    /// trips lockdep. (The unit-level variant lives in `brahma::lockdep`.)
    #[test]
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    fn migration_is_clean_and_seeded_third_lock_trips() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let e1 = mk(&db, p0, vec![o]);

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let (onew, raised) = brahma::lockdep::tolerate(|| migrate(&db, o, &mut state));
        db.end_reorg(p1);
        assert_eq!(raised, 0, "a real two-lock migration must not trip lockdep");
        assert_eq!(db.raw_read(e1).unwrap().refs, vec![onew]);

        // Seeded violation: three distinct objects locked inside the region.
        let a = mk(&db, p0, vec![]);
        let b = mk(&db, p0, vec![]);
        let c = mk(&db, p0, vec![]);
        let ((), raised) = brahma::lockdep::tolerate(|| {
            let region = brahma::lockdep::two_lock_region();
            let mut t = db.begin();
            t.lock(a, LockMode::Exclusive).unwrap();
            t.lock(b, LockMode::Exclusive).unwrap();
            t.lock(c, LockMode::Exclusive).unwrap();
            drop(region);
            t.commit().unwrap();
        });
        assert!(
            raised >= 1,
            "a third distinct lock inside a two-lock region must trip lockdep"
        );
    }

    #[test]
    fn trt_tuples_created_mid_migration_are_drained() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let e1 = mk(&db, p0, vec![o]);
        let late = mk(&db, p0, vec![]);

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        // Simulate a transaction inserting a new reference to o after the
        // traversal but before migration (it will be in the TRT).
        let mut t = db.begin();
        t.lock(late, brahma::LockMode::Exclusive).unwrap();
        t.insert_ref(late, o).unwrap();
        t.commit().unwrap();

        let onew = migrate(&db, o, &mut state);
        db.end_reorg(p1);
        assert_eq!(db.raw_read(late).unwrap().refs, vec![onew]);
        assert_eq!(db.raw_read(e1).unwrap().refs, vec![onew]);
        brahma::sweep::assert_database_consistent(&db);
    }
}
