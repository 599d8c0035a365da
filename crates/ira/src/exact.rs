//! `Find_Exact_Parents` (Figure 4 of the paper).
//!
//! Step two, part one: make an object's approximate parent set exact and
//! leave every true parent exclusively locked by the migration transaction.
//!
//! * **S1** — lock all approximate parents (in address order, to keep the
//!   reorganizer deadlock-free against itself); re-verify each under the
//!   lock; unlock and drop the ones that no longer reference the object.
//! * **S2** — while the TRT holds a tuple naming the object: lock the
//!   tuple's parent, delete the tuple, and add the parent to the list iff it
//!   (still) references the object.
//!
//! Lemmas 3.2/3.3 then guarantee every live object referencing `O_old` is
//! locked and no active transaction holds a reference to it in local memory,
//! so the object can be moved safely — without ever locking `O_old` itself.
//!
//! Deadlocks with workload transactions surface as lock timeouts; the caller
//! aborts the migration transaction and re-invokes (Section 4.4). Confirmed
//! parents recorded in the [`TraversalState`] survive the retry.

use crate::relaxed::lock_and_settle;
use crate::traversal::TraversalState;
use brahma::{AddrSet, Database, PhysAddr, Result, Trt, Txn};

/// The buffers [`find_exact_parents`] fills: the caller keeps them from
/// object to object, so the search allocates nothing once they have grown.
#[derive(Debug, Default)]
pub(crate) struct ParentBufs {
    /// Scratch: the approximate parents, copied out of the traversal state
    /// that the search edits as it goes.
    approx: Vec<PhysAddr>,
    /// The exact parents, sorted and exclusively locked.
    pub exact: Vec<PhysAddr>,
}

/// Lock the exact parents of `oold` and leave them, sorted, in
/// `bufs.exact`. `trt` is the partition's, as `start_reorg` returned it.
///
/// `keep_locked` holds addresses the enclosing (batched) transaction must
/// not release even if they turn out not to be parents of *this* object —
/// they are confirmed parents of an earlier migration in the same
/// transaction (Section 4.3 grouping).
pub(crate) fn find_exact_parents(
    db: &Database,
    trt: &Trt,
    txn: &mut Txn<'_>,
    oold: PhysAddr,
    state: &mut TraversalState,
    keep_locked: &AddrSet,
    bufs: &mut ParentBufs,
) -> Result<()> {
    let ParentBufs {
        approx,
        exact: confirmed,
    } = bufs;
    confirmed.clear();
    state.copy_parents(oold, approx);

    // ---- S1: lock the approximate parents, verify each ----
    for &parent in approx.iter() {
        lock_and_settle(db, txn, parent)?;
        if still_references(txn, parent, oold) {
            confirmed.push(parent);
        } else {
            // No longer a parent: forget it and release the lock unless the
            // enclosing transaction needs it for an earlier migration.
            state.remove_parent(oold, parent);
            if !keep_locked.contains(&parent) && !confirmed.contains(&parent) {
                let _ = txn.early_unlock(parent);
            }
        }
    }

    // ---- S2: drain TRT tuples about oold ----
    while let Some(tuple) = trt.peek_for(oold) {
        // Lock the tuple's parent first (blocking: must not hold the
        // TRT latch), then delete the tuple, then decide parenthood
        // under the lock — exactly the order of Figure 4.
        lock_and_settle(db, txn, tuple.parent)?;
        trt.remove_tuple(&tuple);
        if still_references(txn, tuple.parent, oold) {
            if !confirmed.contains(&tuple.parent) {
                confirmed.push(tuple.parent);
                state.add_parent(oold, tuple.parent);
            }
        } else {
            state.remove_parent(oold, tuple.parent);
            if !keep_locked.contains(&tuple.parent) && !confirmed.contains(&tuple.parent) {
                let _ = txn.early_unlock(tuple.parent);
            }
        }
    }

    confirmed.sort_unstable();
    Ok(())
}

/// Whether `parent` (locked by `txn`) currently holds a reference to
/// `child`. A freed/stale parent address counts as "no".
fn still_references(txn: &Txn<'_>, parent: PhysAddr, child: PhysAddr) -> bool {
    txn.with_refs(parent, |mut refs| refs.any(|r| r == child))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::find_objects_and_approx_parents;
    use brahma::{LockMode, NewObject, PartitionId, StoreConfig};

    fn mk(db: &Database, p: PartitionId, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 8,
                    payload: vec![0; 8],
                    payload_cap: 8,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    /// The exact parents of `o`, through fresh buffers.
    fn exact(
        db: &Database,
        trt: &Trt,
        txn: &mut Txn<'_>,
        o: PhysAddr,
        state: &mut TraversalState,
        keep: &AddrSet,
    ) -> Vec<PhysAddr> {
        let mut bufs = ParentBufs::default();
        find_exact_parents(db, trt, txn, o, state, keep, &mut bufs).unwrap();
        bufs.exact
    }

    fn setup() -> (Database, PartitionId, PartitionId) {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        (db, p0, p1)
    }

    #[test]
    fn confirms_stable_parents_and_locks_them() {
        let (db, p0, p1) = setup();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);
        let local = mk(&db, p1, vec![o]);
        let _anchor = mk(&db, p0, vec![local]);

        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let mut txn = db.begin_reorg(p1);
        let parents = exact(&db, &trt, &mut txn, o, &mut state, &AddrSet::default());
        let mut expect = vec![ext, local];
        expect.sort_unstable();
        assert_eq!(parents, expect);
        for p in &parents {
            assert_eq!(txn.lock_mode(*p), Some(LockMode::Exclusive));
        }
        txn.commit().unwrap();
        db.end_reorg(p1);
    }

    #[test]
    fn drops_parents_whose_reference_was_deleted() {
        let (db, p0, p1) = setup();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);
        let ext2 = mk(&db, p0, vec![o]);

        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        // ext2's reference is deleted after the traversal (committed).
        let mut t = db.begin();
        t.lock(ext2, LockMode::Exclusive).unwrap();
        t.delete_ref(ext2, o).unwrap();
        t.commit().unwrap();

        let mut txn = db.begin_reorg(p1);
        let parents = exact(&db, &trt, &mut txn, o, &mut state, &AddrSet::default());
        assert_eq!(parents, vec![ext]);
        assert_eq!(txn.lock_mode(ext2), None, "non-parent was unlocked");
        txn.commit().unwrap();
        db.end_reorg(p1);
    }

    #[test]
    fn discovers_new_parents_via_trt() {
        let (db, p0, p1) = setup();
        let o = mk(&db, p1, vec![]);
        let _ext = mk(&db, p0, vec![o]);
        let latecomer = mk(&db, p0, vec![]);

        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        // After the traversal, a transaction inserts a new reference to o.
        let mut t = db.begin();
        t.lock(latecomer, LockMode::Exclusive).unwrap();
        t.insert_ref(latecomer, o).unwrap();
        t.commit().unwrap();

        let mut txn = db.begin_reorg(p1);
        let parents = exact(&db, &trt, &mut txn, o, &mut state, &AddrSet::default());
        assert!(
            parents.contains(&latecomer),
            "TRT loop must find the new parent"
        );
        assert_eq!(txn.lock_mode(latecomer), Some(LockMode::Exclusive));
        txn.commit().unwrap();
        db.end_reorg(p1);
    }

    /// A same-value rewrite removes the reference and puts it back in one
    /// transaction; a traversal (or ERT merge) that ran in between missed
    /// the parent. The re-insert's TRT tuple must survive the commit-time
    /// purges, or the object migrates with its parent still pointing at
    /// the old copy.
    #[test]
    fn rewritten_reference_is_found_via_trt() {
        let (db, p0, p1) = setup();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);
        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        state.remove_parent(o, ext); // what the racing merge saw
        let mut t = db.begin();
        t.lock(ext, LockMode::Exclusive).unwrap();
        t.set_ref(ext, 0, o).unwrap();
        t.commit().unwrap();

        let mut txn = db.begin_reorg(p1);
        let parents = exact(&db, &trt, &mut txn, o, &mut state, &AddrSet::default());
        assert_eq!(parents, vec![ext]);
        txn.commit().unwrap();
        db.end_reorg(p1);
    }

    #[test]
    fn trt_is_drained_for_the_object() {
        let (db, p0, p1) = setup();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);
        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        // Generate churn: delete and reinsert the reference repeatedly with
        // purge disabled tuples... (purge is on by default, so use two
        // transactions that stay uncommitted to leave tuples behind).
        let mut t = db.begin();
        t.lock(ext, LockMode::Exclusive).unwrap();
        t.delete_ref(ext, o).unwrap();
        t.insert_ref(ext, o).unwrap();
        t.commit().unwrap(); // purges its own tuples

        let extra = mk(&db, p0, vec![]);
        let mut t = db.begin();
        t.lock(extra, LockMode::Exclusive).unwrap();
        t.insert_ref(extra, o).unwrap();
        t.commit().unwrap();

        assert!(trt.has_tuples_for(o));
        let mut txn = db.begin_reorg(p1);
        let parents = exact(&db, &trt, &mut txn, o, &mut state, &AddrSet::default());
        assert!(!trt.has_tuples_for(o), "all tuples about o consumed");
        assert!(parents.contains(&ext) && parents.contains(&extra));
        txn.commit().unwrap();
        db.end_reorg(p1);
    }

    #[test]
    fn keep_locked_parents_stay_locked() {
        let (db, p0, p1) = setup();
        let o = mk(&db, p1, vec![]);
        let shared_parent = mk(&db, p0, vec![o]);
        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        // Delete the ref so shared_parent is a non-parent at verification.
        let mut t = db.begin();
        t.lock(shared_parent, LockMode::Exclusive).unwrap();
        t.delete_ref(shared_parent, o).unwrap();
        t.commit().unwrap();

        let mut txn = db.begin_reorg(p1);
        let mut keep = AddrSet::default();
        keep.insert(shared_parent);
        // Pre-lock it, as an earlier migration in the same batch would have.
        txn.lock(shared_parent, LockMode::Exclusive).unwrap();
        let parents = exact(&db, &trt, &mut txn, o, &mut state, &keep);
        assert!(parents.is_empty());
        assert_eq!(
            txn.lock_mode(shared_parent),
            Some(LockMode::Exclusive),
            "keep_locked parents must not be released"
        );
        txn.commit().unwrap();
        db.end_reorg(p1);
    }
}
