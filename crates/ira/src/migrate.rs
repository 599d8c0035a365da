//! `Move_Object_And_Update_Refs` (Figure 5 of the paper).
//!
//! With every live parent of `O_old` exclusively locked (and Lemma 3.3
//! guaranteeing no active transaction holds its reference in local memory),
//! the object is migrated inside the migration transaction:
//!
//! 1. copy `O_old` to its new location `O_new` (the relocation plan picks
//!    the target partition; allocation order gives clustering);
//! 2. change the reference in every parent to point to `O_new` — the ERTs of
//!    the old and new partitions are updated by the store's maintenance
//!    hooks as those references change;
//! 3. for every not-yet-migrated child in the partition, replace `O_old` by
//!    `O_new` in its parent list; the ERTs of out-of-partition children are
//!    updated by the create/free maintenance;
//! 4. delete `O_old` (its space is deferred from reuse until the
//!    reorganization ends).
//!
//! `O_new` becomes visible to other transactions when the migration
//! transaction commits and the parents' locks are released.

use crate::plan::RelocationPlan;
use crate::traversal::TraversalState;
use brahma::{AddrSet, Database, LockMode, LogPayload, NewObject, ObjectView, PhysAddr, Result, Txn};

/// Side effects of migrations inside one (possibly batched) transaction,
/// recorded so they can be reverted if the transaction later aborts. Kept
/// by the migrator from batch to batch, so its tables are allocated once.
#[derive(Debug, Default)]
pub struct BatchEffects {
    /// Every address the batch transaction must keep locked: the confirmed
    /// parents of the objects migrated so far, and their old and new copies.
    pub keep: AddrSet,
    /// (old, new) pairs, in migration order.
    pub migrations: Vec<(PhysAddr, PhysAddr)>,
    /// (child, old_parent, new_parent) parent-list rewrites applied to the
    /// traversal state.
    pub parent_rewrites: Vec<(PhysAddr, PhysAddr, PhysAddr)>,
    /// (old, new) root-registry rewrites.
    pub root_rewrites: Vec<(PhysAddr, PhysAddr)>,
    /// Scratch: the slots of the parent at hand that hold the moving object.
    slots: Vec<usize>,
}

impl BatchEffects {
    /// Forget the previous batch.
    pub fn clear(&mut self) {
        self.keep.clear();
        self.migrations.clear();
        self.parent_rewrites.clear();
        self.root_rewrites.clear();
    }

    /// Revert all recorded side effects (the transaction aborted; the
    /// storage-level changes roll back through the transaction's own undo).
    pub fn revert(&self, db: &Database, state: &mut TraversalState) {
        for &(old, new) in self.root_rewrites.iter().rev() {
            db.replace_root(new, old);
        }
        for &(child, old_parent, new_parent) in self.parent_rewrites.iter().rev() {
            state.replace_parent(child, new_parent, old_parent);
        }
    }
}

/// What both migration procedures copy: `oold`'s image after the optional
/// transform.
pub(crate) struct CopySource {
    oold: PhysAddr,
    image: ObjectView,
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

    /// Parent-list bookkeeping for the children that still await
    /// migration: replace `oold` by `onew` in each one's parent list. (A
    /// child that already migrated was repointed in `oold` when it did, so
    /// the reference names its new address, which never migrates again.)
    /// Every rewrite is pushed onto `rewrites` as (child, old_parent,
    /// new_parent) so the caller can revert it.
    pub(crate) fn repoint_children(
        &self,
        onew: PhysAddr,
        state: &mut TraversalState,
        rewrites: &mut Vec<(PhysAddr, PhysAddr, PhysAddr)>,
    ) {
        let oold = self.oold;
        for &child in &self.image.refs {
            if child.partition() == oold.partition() && child != oold {
                state.replace_parent(child, oold, onew);
                rewrites.push((child, oold, onew));
            }
        }
    }
}

/// Migrate `oold` to its new location, updating the `parents`' references
/// (which the caller has locked: exactly, via `find_exact_parents`, on-line;
/// every parent of the quiescent sweep in [`crate::offline`]).
///
/// Returns the new address. `state` and `effects` are updated in place; the
/// caller records `effects.migrations` in the migration map (and counts them
/// in `db.migrations`) after the batch transaction commits, and on error
/// aborts the transaction and calls [`BatchEffects::revert`].
#[allow(clippy::too_many_arguments)] // mirrors the paper's procedure signature
pub fn move_object_and_update_refs(
    db: &Database,
    txn: &mut Txn<'_>,
    oold: PhysAddr,
    parents: &[PhysAddr],
    plan: RelocationPlan,
    transform: Option<fn(ObjectView) -> ObjectView>,
    state: &mut TraversalState,
    effects: &mut BatchEffects,
) -> Result<PhysAddr> {
    // With all parents locked, no transaction can hold or obtain a lock on
    // oold (Lemma 3.3), so this lock is granted immediately; holding it also
    // satisfies the store's update discipline for the final free.
    txn.lock(oold, LockMode::Exclusive)?;
    let mut source = CopySource::new(txn.read(oold)?, oold, transform);

    // 1. Copy to the new location.
    let onew = source.create_copy(txn, plan)?;

    // 2. Repoint every parent. A parent may hold several references to the
    // object; all of them move. The list is scanned under the page latch.
    let slots = &mut effects.slots;
    for &parent in parents {
        if parent == oold {
            continue; // self-reference, handled above
        }
        slots.clear();
        // A stale parent (freed garbage) cannot be read and has nothing to fix.
        let _ = txn.with_refs(parent, |refs| {
            slots.extend(refs.enumerate().filter(|&(_, r)| r == oold).map(|(i, _)| i))
        });
        for &i in slots.iter() {
            txn.set_ref(parent, i, onew)?;
        }
    }

    db.wal
        .append(txn.id(), LogPayload::Migrate { old: oold, new: onew });

    // 3. Parent-list bookkeeping for children that still await migration.
    source.repoint_children(onew, state, &mut effects.parent_rewrites);

    // Root registry.
    if db.is_root(oold) {
        db.replace_root(oold, onew);
        effects.root_rewrites.push((oold, onew));
    }

    // 4. Delete the old copy (space deferred until the reorganization ends).
    txn.delete_object(oold)?;

    effects.migrations.push((oold, onew));
    Ok(onew)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::find_objects_and_approx_parents;
    use crate::exact::find_exact_parents;
    use brahma::{PartitionId, StoreConfig};

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
        let mut txn = db.begin_reorg(oold.partition());
        let parents = find_exact_parents(db, &mut txn, oold, state, &AddrSet::default()).unwrap();
        let mut effects = BatchEffects::default();
        let onew = move_object_and_update_refs(
            db, &mut txn, oold, &parents, plan, None, state, &mut effects,
        )
        .unwrap();
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

        db.start_reorg(p1).unwrap();
        let mut state = find_objects_and_approx_parents(&db, p1);
        let mut txn = db.begin_reorg(p1);
        let parents = find_exact_parents(&db, &mut txn, o, &mut state, &AddrSet::default()).unwrap();
        let mut effects = BatchEffects::default();
        move_object_and_update_refs(
            &db,
            &mut txn,
            o,
            &parents,
            RelocationPlan::CompactInPlace,
            None,
            &mut state,
            &mut effects,
        )
        .unwrap();
        txn.abort();
        effects.revert(&db, &mut state);
        db.end_reorg(p1);

        assert_eq!(db.raw_read(ext).unwrap().refs, vec![o]);
        assert_eq!(db.raw_read(o).unwrap().payload, b"payload".to_vec());
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
        assert!(db.is_root(new_root));
        assert!(!db.is_root(root));
    }

    use brahma::LockMode;
}
