//! `Move_Object_And_Update_Refs` (Figure 5 of the paper).
//!
//! With every live parent of `O_old` exclusively locked (and Lemma 3.3
//! guaranteeing no active transaction holds its reference in local memory),
//! the object is migrated inside the migration transaction:
//!
//! 1. move `O_old` to its new location `O_new` (the relocation plan picks
//!    the target partition; allocation order gives clustering) and delete
//!    `O_old` — one `Move` record, which also carries a root naming `O_old`
//!    over (the copy's references to itself are repointed with it). Its
//!    address is not handed out again while the reorganization
//!    runs: the pass allocates only above its page floor, and drops the
//!    page once nothing on it is live;
//! 2. change the reference in every parent to point to `O_new` — the ERTs of
//!    the old and new partitions are updated by the store's maintenance
//!    hooks as those references change;
//! 3. for every not-yet-migrated child in the partition, replace `O_old` by
//!    `O_new` in its parent list; the ERTs of out-of-partition children are
//!    updated by the move's maintenance.
//!
//! A migration that rewrites the object (a `transform`) cannot copy it
//! verbatim: it creates the rewritten copy and logs the root's move and the
//! old copy's free as records of their own.
//!
//! `O_new` becomes visible to other transactions when the migration
//! transaction commits and the parents' locks are released.

use crate::exact::ParentBufs;
use crate::plan::RelocationPlan;
use crate::traversal::TraversalState;
use brahma::{
    AddrSet, Error as StoreError, LockMode, NewObject, ObjectView, PhysAddr, Result, Txn,
};

/// Side effects of migrations inside one (possibly batched) transaction,
/// recorded so they can be reverted if the transaction later aborts. Kept
/// by the migrator from batch to batch, so its tables are allocated once.
#[derive(Debug, Default)]
pub(crate) struct BatchEffects {
    /// Every address the batch transaction must keep locked: the confirmed
    /// parents of the objects migrated so far, and their old and new copies.
    pub keep: AddrSet,
    /// (old, new) pairs, in migration order.
    pub migrations: Vec<(PhysAddr, PhysAddr)>,
    /// (child, old_parent, new_parent) parent-list rewrites applied to the
    /// traversal state.
    pub parent_rewrites: Vec<(PhysAddr, PhysAddr, PhysAddr)>,
    /// The parents of the object at hand: `parents.exact` is what
    /// [`move_object_and_update_refs`] repoints.
    pub parents: ParentBufs,
}

impl BatchEffects {
    /// Forget the previous batch.
    pub(crate) fn clear(&mut self) {
        self.keep.clear();
        self.migrations.clear();
        self.parent_rewrites.clear();
    }

    /// Revert all recorded side effects (the transaction aborted; the
    /// storage-level changes, root rewrites included, roll back through the
    /// transaction's own undo).
    pub(crate) fn revert(&self, state: &mut TraversalState) {
        for &(child, old_parent, new_parent) in self.parent_rewrites.iter().rev() {
            state.replace_parent(child, new_parent, old_parent);
        }
    }
}

/// What a copying migration copies: `oold`'s image after the optional
/// transform.
pub(crate) struct CopySource {
    oold: PhysAddr,
    pub image: ObjectView,
}

impl CopySource {
    /// Apply `transform` to `image`.
    pub(crate) fn new(
        image: ObjectView,
        oold: PhysAddr,
        transform: Option<fn(ObjectView) -> ObjectView>,
    ) -> Self {
        let image = match transform {
            Some(f) => {
                let transformed = f(image.clone());
                debug_assert_eq!(
                    transformed.refs, image.refs,
                    "migration transforms must preserve the reference list"
                );
                transformed
            }
            None => image,
        };
        CopySource { oold, image }
    }

    /// Create the copy where the plan puts it; self-references point at
    /// the new copy. The payload moves into the copy's `Create` record; the
    /// reference list stays for the bookkeeping that follows.
    pub(crate) fn create_copy(
        &mut self,
        txn: &mut Txn<'_>,
        plan: RelocationPlan,
    ) -> Result<PhysAddr> {
        let onew = txn.create_object(
            plan.target_partition(self.oold),
            NewObject {
                tag: self.image.tag,
                refs: self.image.refs.clone(),
                ref_cap: self.image.ref_cap,
                payload: std::mem::take(&mut self.image.payload),
                payload_cap: self.image.payload_cap,
            },
        )?;
        for (i, r) in self.image.refs.iter().enumerate() {
            if *r == self.oold {
                txn.set_ref(onew, i, onew)?;
            }
        }
        Ok(onew)
    }
}

/// Parent-list bookkeeping for the children that still await migration:
/// replace `oold` by `onew` in the parent list of each of `refs` (what
/// `oold` referenced) in its partition. A child that already migrated was
/// repointed in `oold` when it did, so the reference names its new address,
/// which never migrates again. Every rewrite is pushed onto `rewrites` as
/// (child, old_parent, new_parent) so the caller can revert it.
pub(crate) fn repoint_children(
    refs: &[PhysAddr],
    oold: PhysAddr,
    onew: PhysAddr,
    state: &mut TraversalState,
    rewrites: &mut Vec<(PhysAddr, PhysAddr, PhysAddr)>,
) {
    for &child in refs {
        if child.partition() == oold.partition() && child != oold {
            state.replace_parent(child, oold, onew);
            rewrites.push((child, oold, onew));
        }
    }
}

/// Migrate `oold` to its new location, updating the references of the
/// parents in `effects.parents.exact` (which the caller has locked:
/// exactly, via `find_exact_parents`, on-line; every parent of the
/// quiescent sweep in [`crate::pqr`]).
///
/// Returns the new address. `state` and `effects` are updated in place; the
/// caller records `effects.migrations` in the migration map (and counts them
/// in `db.migrations`) after the batch transaction commits, and on error
/// aborts the transaction and calls [`BatchEffects::revert`].
pub(crate) fn move_object_and_update_refs(
    txn: &mut Txn<'_>,
    oold: PhysAddr,
    plan: RelocationPlan,
    transform: Option<fn(ObjectView) -> ObjectView>,
    state: &mut TraversalState,
    effects: &mut BatchEffects,
) -> Result<PhysAddr> {
    // With all parents locked, no transaction can hold or obtain a lock on
    // oold (Lemma 3.3), so this lock is granted immediately; holding it also
    // satisfies the store's update discipline for the move.
    txn.lock(oold, LockMode::Exclusive)?;

    // 1. Move the object, which deletes the old copy, and 3. bookkeeping
    // for the children that still await migration.
    let rewrites = &mut effects.parent_rewrites;
    let onew = match transform {
        None => {
            let onew = txn.move_object(oold, plan.target_partition(oold))?;
            repoint_children(txn.moved_refs(), oold, onew, state, rewrites);
            onew
        }
        Some(_) => {
            let mut source = CopySource::new(txn.read(oold)?, oold, transform);
            let onew = source.create_copy(txn, plan)?;
            txn.log_migration(oold, onew)?;
            txn.delete_object(oold)?;
            repoint_children(&source.image.refs, oold, onew, state, rewrites);
            onew
        }
    };

    // 2. Repoint every parent. A parent may hold several references to the
    // object; all of them move.
    for &parent in &effects.parents.exact {
        if parent == oold {
            continue; // a self-reference, repointed by the move
        }
        // A stale parent (freed garbage) cannot be read and has nothing to fix.
        match txn.repoint_refs(parent, oold, onew) {
            Ok(_) | Err(StoreError::NoSuchObject(_)) => {}
            Err(e) => return Err(e),
        }
    }

    effects.migrations.push((oold, onew));
    Ok(onew)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::find_objects_and_approx_parents;
    use crate::exact::find_exact_parents;
    use brahma::{Database, PartitionId, StoreConfig};

    fn mk(db: &Database, p: PartitionId, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag: 7,
                    refs,
                    ref_cap: 8,
                    payload: b"payload".to_vec(),
                    payload_cap: 16,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    fn migrate_one(
        db: &Database,
        oold: PhysAddr,
        plan: RelocationPlan,
        state: &mut TraversalState,
    ) -> PhysAddr {
        let trt = db.trt(oold.partition()).unwrap();
        let mut txn = db.begin_reorg(oold.partition());
        let mut effects = BatchEffects::default();
        let keep = AddrSet::default();
        find_exact_parents(db, &trt, &mut txn, oold, state, &keep, &mut effects.parents).unwrap();
        let onew =
            move_object_and_update_refs(&mut txn, oold, plan, None, state, &mut effects).unwrap();
        txn.commit().unwrap();
        assert_eq!(effects.migrations, vec![(oold, onew)]);
        onew
    }

    #[test]
    fn migrates_object_and_repoints_parents() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);
        let local = mk(&db, p1, vec![o]);
        let _anchor = mk(&db, p0, vec![local]);

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let onew = migrate_one(&db, o, RelocationPlan::CompactInPlace, &mut state);
        db.end_reorg(p1);

        assert_ne!(onew, o);
        assert_eq!(onew.partition(), p1);
        // Old copy gone, new copy identical.
        assert!(db.raw_read(o).is_err());
        let v = db.raw_read(onew).unwrap();
        assert_eq!(v.payload, b"payload".to_vec());
        // Parents repointed.
        assert_eq!(db.raw_read(ext).unwrap().refs, vec![onew]);
        assert_eq!(db.raw_read(local).unwrap().refs, vec![onew]);
        // ERT rekeyed: external parent now references onew.
        let ert = &db.partition(p1).unwrap().ert;
        assert!(ert.contains(onew, ext));
        assert!(!ert.contains(o, ext));
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn evacuation_moves_to_target_partition_and_updates_child_erts() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let p2 = db.create_partition();
        let child_elsewhere = mk(&db, p0, vec![]);
        let anchor_for_child = mk(&db, p2, vec![child_elsewhere]);
        let o = mk(&db, p1, vec![child_elsewhere]);
        let ext = mk(&db, p0, vec![o]);
        let _ = anchor_for_child;

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let onew = migrate_one(&db, o, RelocationPlan::EvacuateTo(p2), &mut state);
        db.end_reorg(p1);

        assert_eq!(onew.partition(), p2);
        assert_eq!(db.raw_read(ext).unwrap().refs, vec![onew]);
        // The child in p0 sees its parent's ERT entry move from o to onew.
        let ert0 = &db.partition(p0).unwrap().ert;
        assert!(ert0.contains(child_elsewhere, onew));
        assert!(!ert0.contains(child_elsewhere, o));
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn multiple_references_from_one_parent_all_move() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let parent = mk(&db, p0, vec![o, o]);

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let onew = migrate_one(&db, o, RelocationPlan::CompactInPlace, &mut state);
        db.end_reorg(p1);

        assert_eq!(db.raw_read(parent).unwrap().refs, vec![onew, onew]);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn self_reference_points_to_new_copy() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        {
            let mut t = db.begin();
            t.lock(o, LockMode::Exclusive).unwrap();
            t.insert_ref(o, o).unwrap();
            t.commit().unwrap();
        }
        let _ext = mk(&db, p0, vec![o]);

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let onew = migrate_one(&db, o, RelocationPlan::CompactInPlace, &mut state);
        db.end_reorg(p1);

        assert_eq!(db.raw_read(onew).unwrap().refs, vec![onew]);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn aborted_migration_leaves_no_trace() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let o = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![o]);
        db.add_root(o);

        let trt = db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let mut txn = db.begin_reorg(p1);
        let mut effects = BatchEffects::default();
        let keep = AddrSet::default();
        find_exact_parents(
            &db,
            &trt,
            &mut txn,
            o,
            &mut state,
            &keep,
            &mut effects.parents,
        )
        .unwrap();
        let plan = RelocationPlan::CompactInPlace;
        move_object_and_update_refs(&mut txn, o, plan, None, &mut state, &mut effects).unwrap();
        txn.abort();
        effects.revert(&mut state);
        db.end_reorg(p1);

        assert_eq!(db.raw_read(ext).unwrap().refs, vec![o]);
        assert_eq!(db.raw_read(o).unwrap().payload, b"payload".to_vec());
        assert_eq!(db.roots(), vec![o], "undo moved the root back");
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn root_registry_follows_migration() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let root = mk(&db, p0, vec![]);
        db.add_root(root);
        db.start_reorg(p0).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p0);
        let new_root = migrate_one(&db, root, RelocationPlan::CompactInPlace, &mut state);
        db.end_reorg(p0);
        assert_eq!(db.roots(), vec![new_root]);
    }

    use brahma::LockMode;
}
