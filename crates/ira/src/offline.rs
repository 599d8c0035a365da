//! Reorganizing a quiescent partition (Section 3.1).
//!
//! When no transaction can touch the partition — either because the whole
//! database is idle, or because PQR has quiesced the partition by locking
//! every external parent — reorganization is straightforward: one sweep
//! builds exact parent lists, then each object goes through the same
//! `Move_Object_And_Update_Refs` (Figure 5) as on-line IRA: copied, its
//! parents' references rewritten, its children's parent lists updated, and
//! the old copy freed.

use crate::migrate::{move_object_and_update_refs, BatchEffects};
use crate::plan::RelocationPlan;
use crate::traversal::TraversalState;
use brahma::{AddrMap, Database, LockMode, PartitionId, PhysAddr, Result, Txn};

/// Migrate every allocated object of the (quiescent) `partition` according
/// to `plan`, inside `txn`. The caller guarantees quiescence (see
/// [`crate::pqr`]); `txn` must be a reorganizer transaction.
///
/// Returns the old-to-new address mapping.
pub fn reorganize_quiescent(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
    txn: &mut Txn<'_>,
) -> Result<AddrMap<PhysAddr>> {
    let part = db.partition(partition)?;
    let objects = part.live_objects();

    // One sweep builds the exact parent lists: intra-partition parents from
    // the objects, external parents from the ERT. Each migration rewrites
    // its children's lists to name the new copy, so a parent that already
    // moved is found at its new address.
    let mut state = TraversalState::default();
    for &obj in &objects {
        for child in db.raw_read(obj)?.refs {
            if child.partition() == partition {
                state.add_parent(child, obj);
            }
        }
        for ext in part.ert.parents_of(obj) {
            state.add_parent(obj, ext);
        }
    }

    let mut effects = BatchEffects::default();
    for &oold in &objects {
        let parents = state.parents_of(oold);
        for &parent in &parents {
            txn.lock(parent, LockMode::Exclusive)?;
        }
        move_object_and_update_refs(db, txn, oold, &parents, plan, None, &mut state, &mut effects)?;
        db.stats.migrations.inc();
    }
    Ok(effects.migrations.into_iter().collect())
}

/// Crate-internal entry point behind [`crate::Reorg`]'s
/// [`crate::Strategy::Offline`] (the only public way to run it).
pub(crate) fn run_offline(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
) -> Result<AddrMap<PhysAddr>> {
    let mut txn = db.begin_reorg(partition);
    let mapping = match reorganize_quiescent(db, partition, plan, &mut txn) {
        Ok(m) => m,
        Err(e) => {
            txn.abort();
            return Err(e);
        }
    };
    txn.commit()?;
    db.partition(partition)?.flush_deferred_frees();
    if let RelocationPlan::EvacuateTo(target) = plan {
        db.partition(target)?.flush_deferred_frees();
    }
    Ok(mapping)
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
                    payload: b"off".to_vec(),
                    payload_cap: 8,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    #[test]
    fn offline_compaction_preserves_graph() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let leaf = mk(&db, p1, vec![]);
        let mid = mk(&db, p1, vec![leaf]);
        let ext = mk(&db, p0, vec![mid]);

        let mapping = run_offline(&db, p1, RelocationPlan::CompactInPlace).unwrap();
        assert_eq!(mapping.len(), 2);
        let mid_new = mapping[&mid];
        let leaf_new = mapping[&leaf];
        assert_eq!(db.raw_read(ext).unwrap().refs, vec![mid_new]);
        assert_eq!(db.raw_read(mid_new).unwrap().refs, vec![leaf_new]);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn offline_evacuation_empties_partition() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let p2 = db.create_partition();
        let a = mk(&db, p1, vec![]);
        let b = mk(&db, p1, vec![a]);
        let _ext = mk(&db, p0, vec![b]);

        let mapping = run_offline(&db, p1, RelocationPlan::EvacuateTo(p2)).unwrap();
        assert_eq!(db.partition(p1).unwrap().object_count(), 0);
        assert_eq!(db.partition(p2).unwrap().object_count(), 2);
        assert!(mapping.values().all(|a| a.partition() == p2));
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn migrates_even_unreachable_objects() {
        // The offline algorithm works from allocation information, so
        // garbage is migrated rather than collected (compaction semantics).
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let _ = p0;
        let p1 = db.create_partition();
        let orphan = mk(&db, p1, vec![]);
        let mapping = run_offline(&db, p1, RelocationPlan::CompactInPlace).unwrap();
        assert!(mapping.contains_key(&orphan));
        assert_eq!(db.partition(p1).unwrap().object_count(), 1);
    }
}
