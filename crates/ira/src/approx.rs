//! `Find_Objects_And_Approx_Parents` (Figure 3 of the paper).
//!
//! Step one of IRA: identify all live objects of the partition and an
//! approximate parent set for each, with a fuzzy traversal that starts from
//! the ERT's referenced objects (line L1) and is repeated from every TRT
//! referenced object not yet visited (line L2). The L2 loop is what
//! guarantees Lemma 3.1 — an object whose only incoming reference was cut
//! mid-traversal (and might be re-inserted later from a transaction's local
//! memory) is still discovered, because the cut was logged in the TRT.
//!
//! In addition to parents discovered by traversing intra-partition edges,
//! each object's external parents are merged in from the ERT (as in the
//! offline algorithm of Section 3.1); parents that appear later are caught
//! by `Find_Exact_Parents`' TRT loop.

use crate::traversal::{fuzzy_traversal, TraversalState};
use brahma::{Database, PartitionId};

/// Run step one of IRA for `partition`, returning the traversal state:
/// live objects in discovery order plus approximate parent lists.
pub fn find_objects_and_approx_parents(db: &Database, partition: PartitionId) -> TraversalState {
    let mut state = TraversalState::default();
    let part = db.partition(partition).expect("invariant: reorg partition exists (validated by start_reorg)");

    // L1: traverse from the ERT's referenced objects, plus any persistent
    // roots that live in this partition (the paper keeps roots in their own
    // partition; we support reorganizing that partition too).
    let seeds: Vec<_> = part
        .ert
        .referenced_objects()
        .into_iter()
        .chain(db.roots().into_iter().filter(|r| r.partition() == partition))
        .collect();
    fuzzy_traversal(db, partition, seeds, &mut state);

    trt_unvisited_loop(db, partition, &mut state);
    merge_ert_parents(db, partition, &mut state, 0);
    state
}

/// Line L2 of Figure 3: while some TRT referenced object has not been
/// visited, traverse from it. Also used when resuming an interrupted
/// reorganization from a checkpoint (Section 4.4).
pub fn trt_unvisited_loop(db: &Database, partition: PartitionId, state: &mut TraversalState) {
    while let Some(trt) = db.trt(partition) {
        let unvisited: Vec<_> = trt
            .referenced_objects()
            .into_iter()
            .filter(|o| !state.visited.contains(o))
            .collect();
        if unvisited.is_empty() {
            break;
        }
        for seed in unvisited {
            fuzzy_traversal(db, partition, [seed], state);
        }
    }
}

/// Merge external parents from the ERT into the parent lists of the objects
/// discovered at `state.order[from..]`.
pub fn merge_ert_parents(
    db: &Database,
    partition: PartitionId,
    state: &mut TraversalState,
    from: usize,
) {
    let part = db.partition(partition).expect("invariant: reorg partition exists (validated by start_reorg)");
    for i in from..state.order.len() {
        let obj = state.order[i];
        for parent in part.ert.parents_of(obj) {
            state.add_parent(obj, parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{Database, LockMode, NewObject, PhysAddr, StoreConfig};

    fn mk(db: &Database, p: PartitionId, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 4,
                    payload: vec![0; 8],
                    payload_cap: 8,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    /// Two partitions: an external parent in p0 referencing a chain in p1.
    #[test]
    fn finds_objects_reachable_from_ert() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let leaf = mk(&db, p1, vec![]);
        let mid = mk(&db, p1, vec![leaf]);
        let ext = mk(&db, p0, vec![mid]);

        db.start_reorg(p1).unwrap();
        let st = find_objects_and_approx_parents(&db, p1);
        db.end_reorg(p1);

        assert_eq!(st.order.len(), 2);
        assert!(st.visited.contains(&mid) && st.visited.contains(&leaf));
        // External parent merged from the ERT.
        assert_eq!(st.parents_of(mid), vec![ext]);
        assert_eq!(st.parents_of(leaf), vec![mid]);
    }

    /// The Figure-2 scenario: the only reference to an object is cut while
    /// the reorganizer runs; the TRT-driven L2 loop still finds the object.
    #[test]
    fn trt_loop_recovers_objects_with_cut_references() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let island = mk(&db, p1, vec![]);
        let ext = mk(&db, p0, vec![island]);

        db.start_reorg(p1).unwrap();
        // A transaction cuts the only reference to `island` (and holds its
        // lock; it may re-insert later). The ERT no longer mentions island.
        let mut t = db.begin();
        t.lock(ext, LockMode::Exclusive).unwrap();
        t.delete_ref(ext, island).unwrap();

        let st = find_objects_and_approx_parents(&db, p1);
        assert!(
            st.visited.contains(&island),
            "L2 loop must traverse from TRT referenced objects"
        );
        assert!(st.order.contains(&island));
        t.abort(); // the abort re-inserts the reference
        db.end_reorg(p1);
    }

    #[test]
    fn garbage_is_not_traversed() {
        let db = Database::new(StoreConfig::default());
        let _p0 = db.create_partition();
        let p1 = db.create_partition();
        let garbage = mk(&db, p1, vec![]);
        let live = mk(&db, p1, vec![]);
        let _ext = mk(&db, PartitionId(0), vec![live]);

        db.start_reorg(p1).unwrap();
        let st = find_objects_and_approx_parents(&db, p1);
        db.end_reorg(p1);
        assert!(st.visited.contains(&live));
        assert!(!st.visited.contains(&garbage), "unreachable object is garbage");
    }

    #[test]
    fn roots_in_partition_seed_the_traversal() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let child = mk(&db, p0, vec![]);
        let root = mk(&db, p0, vec![child]);
        db.add_root(root);
        db.start_reorg(p0).unwrap();
        let st = find_objects_and_approx_parents(&db, p0);
        db.end_reorg(p0);
        assert!(st.visited.contains(&root) && st.visited.contains(&child));
    }
}
