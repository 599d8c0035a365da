//! Garbage collection through reorganization (Section 4.6).
//!
//! Because IRA's traversal discovers exactly the live objects of a
//! partition, the reorganizer doubles as a **partitioned copying collector
//! over physical references** — the capability the paper claims no earlier
//! algorithm had (Yong et al.'s copying collector assumed logical
//! references; mark-and-sweep collectors handle physical references but
//! never move anything):
//!
//! * `Reorg::on(db, p).plan(RelocationPlan::EvacuateTo(db.create_partition()))`
//!   is the collector: it evacuates every live object of `p` into the fresh
//!   partition (reclustering them in traversal order) and reclaims
//!   everything left behind, reported as [`crate::IraReport::garbage`];
//! * [`find_garbage`] is the non-destructive detector used by tests and the
//!   example.

use brahma::{Database, PartitionId, PhysAddr};

/// Detect (without reclaiming) the garbage of `partition`: allocated
/// objects unreachable from the partition's ERT and the registered roots.
/// Intended for quiescent points (tests, reporting).
pub fn find_garbage(db: &Database, partition: PartitionId) -> Vec<PhysAddr> {
    let reachable = brahma::sweep::reachable_in_partition(db, partition);
    let Ok(part) = db.partition(partition) else {
        return Vec::new();
    };
    part.live_objects()
        .into_iter()
        .filter(|a| !reachable.contains(a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RelocationPlan, Reorg, ReorgOutcome};
    use brahma::{LockMode, NewObject, StoreConfig};

    /// Evacuate `p` into a fresh partition; returns the outcome and the
    /// number of garbage objects reclaimed.
    fn collect(db: &Database, p: PartitionId) -> (ReorgOutcome, usize) {
        let target = db.create_partition();
        let outcome = Reorg::on(db, p)
            .plan(RelocationPlan::EvacuateTo(target))
            .run()
            .unwrap();
        let garbage = outcome.ira().unwrap().garbage.len();
        (outcome, garbage)
    }

    fn mk(db: &Database, p: PartitionId, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 4,
                    payload: b"gc".to_vec(),
                    payload_cap: 8,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    #[test]
    fn collects_unreachable_and_moves_live() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let live1 = mk(&db, p1, vec![]);
        let live2 = mk(&db, p1, vec![live1]);
        let ext = mk(&db, p0, vec![live2]);
        let _garbage1 = mk(&db, p1, vec![]);
        let garbage2 = mk(&db, p1, vec![live1]); // garbage referencing a live object

        assert_eq!(find_garbage(&db, p1).len(), 2);

        let (outcome, garbage) = collect(&db, p1);
        assert_eq!(outcome.migrated(), 2);
        assert_eq!(garbage, 2);
        // Source partition fully reclaimed.
        assert_eq!(db.partition(p1).unwrap().object_count(), 0);
        let target = outcome.mapping[&live1].partition();
        assert_eq!(db.partition(target).unwrap().object_count(), 2);
        // Live graph intact through the external parent.
        let live2_new = db.raw_read(ext).unwrap().refs[0];
        assert_eq!(live2_new.partition(), target);
        let live1_new = db.raw_read(live2_new).unwrap().refs[0];
        assert_eq!(db.raw_read(live1_new).unwrap().payload, b"gc".to_vec());
        let _ = garbage2;
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn garbage_cycle_is_reclaimed() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let live = mk(&db, p1, vec![]);
        let _ext = mk(&db, p0, vec![live]);
        // A 2-cycle of garbage (mark-and-sweep-hostile, trivial here).
        let a = mk(&db, p1, vec![]);
        let b = mk(&db, p1, vec![a]);
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.insert_ref(a, b).unwrap();
        t.commit().unwrap();

        let (outcome, garbage) = collect(&db, p1);
        assert_eq!(outcome.migrated(), 1);
        assert_eq!(garbage, 2);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn objects_held_live_by_transactions_are_not_collected() {
        // Lemma 3.1's subtle case: an object whose only reference is cut by
        // a still-active transaction is NOT garbage (the transaction can
        // reinsert it) and must be migrated, not collected.
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let island = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![island]);

        db.start_reorg(p1).unwrap();
        let mut t = db.begin();
        t.lock(ext, LockMode::Exclusive).unwrap();
        t.delete_ref(ext, island).unwrap();

        // The traversal (with the TRT loop) must still see the island.
        let state = crate::approx::find_objects_and_approx_parents(&db, p1);
        assert!(state.order.contains(&island));
        t.abort(); // reference restored
        db.end_reorg(p1);
    }
}
