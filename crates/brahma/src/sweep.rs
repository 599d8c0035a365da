//! Whole-database sweeps: integrity verification and ERT reconstruction.
//!
//! The paper notes (Section 4.4) that if ERT updates are not logged, "we
//! would then have to reconstruct the ERT at restart recovery, which
//! requires a complete scan of the database". [`rebuild_erts_by_sweep`] is
//! that scan. The verification functions are the test suite's ground truth:
//! they are run at quiescent points and check the invariants listed in
//! DESIGN.md (referential integrity, ERT exactness, reachability).

use crate::addr::{AddrSet, PartitionId, PhysAddr};
use crate::db::Database;
use crate::object::ObjectView;
use std::collections::VecDeque;

/// Enumerate every live object of `partition` with its contents, via the
/// allocation directory.
pub fn sweep_objects(db: &Database, partition: PartitionId) -> Vec<(PhysAddr, ObjectView)> {
    let Ok(part) = db.partition(partition) else {
        return Vec::new();
    };
    part.live_objects()
        .into_iter()
        .filter_map(|addr| db.raw_read(addr).ok().map(|v| (addr, v)))
        .collect()
}

/// Recompute every partition's ERT from the objects themselves and replace
/// the stored tables. Returns the number of edges installed.
pub fn rebuild_erts_by_sweep(db: &Database) -> usize {
    for pid in db.partition_ids() {
        #[expect(
            clippy::expect_used,
            reason = "invariant: partitions are never dropped, so every id partition_ids() lists resolves"
        )]
        db.partition(pid).expect("invariant: partition_ids lists live partitions").ert.clear();
    }
    let mut edges = 0;
    for pid in db.partition_ids() {
        for (addr, view) in sweep_objects(db, pid) {
            for child in view.refs {
                if child.partition() != addr.partition() {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: an offline sweep; a reference into a missing partition is the failure it exists to report"
                    )]
                    db.partition(child.partition())
                        .expect("invariant: references point at live partitions")
                        .ert
                        .insert(child, addr);
                    edges += 1;
                }
            }
        }
    }
    edges
}

/// Check that every stored reference in every object names a live object.
/// Returns the list of violations as human-readable strings (empty = pass).
pub fn check_ref_integrity(db: &Database) -> Vec<String> {
    let mut problems = Vec::new();
    for pid in db.partition_ids() {
        for (addr, view) in sweep_objects(db, pid) {
            for child in view.refs {
                let live = db
                    .partition(child.partition())
                    .ok()
                    .is_some_and(|p| p.contains_object(child));
                if !live {
                    problems.push(format!("{addr} holds a dangling reference to {child}"));
                }
            }
        }
    }
    // Roots must also be live.
    for root in db.roots() {
        let live = db
            .partition(root.partition())
            .ok()
            .is_some_and(|p| p.contains_object(root));
        if !live {
            problems.push(format!("registered root {root} is not a live object"));
        }
    }
    problems
}

/// Check that every partition's stored ERT equals the edge set recomputed
/// from the objects. Returns violations (empty = pass).
pub fn check_ert_exact(db: &Database) -> Vec<String> {
    let mut problems = Vec::new();
    for pid in db.partition_ids() {
        let Ok(part) = db.partition(pid) else { continue };
        let stored = part.ert.snapshot();
        // Recompute incoming cross-partition edges for this partition.
        let mut expected: Vec<(PhysAddr, PhysAddr)> = Vec::new();
        for src in db.partition_ids() {
            if src == pid {
                continue;
            }
            for (addr, view) in sweep_objects(db, src) {
                for child in view.refs {
                    if child.partition() == pid {
                        expected.push((child, addr));
                    }
                }
            }
        }
        expected.sort_unstable();
        if stored.edges != expected {
            problems.push(format!(
                "ERT of {pid} diverges: stored {} edges, expected {}",
                stored.edges.len(),
                expected.len()
            ));
        }
    }
    problems
}

/// Objects of `partition` reachable from the partition's ERT referenced
/// objects plus the registered roots that lie in the partition, following
/// only intra-partition edges — the live set the reorganizer's traversal
/// must find (Lemma 3.1).
pub fn reachable_in_partition(db: &Database, partition: PartitionId) -> AddrSet {
    let Ok(part) = db.partition(partition) else {
        return AddrSet::default();
    };
    let mut queue: VecDeque<PhysAddr> = part
        .ert
        .referenced_objects()
        .into_iter()
        .chain(db.roots().into_iter().filter(|r| r.partition() == partition))
        .collect();
    let mut seen = AddrSet::default();
    while let Some(addr) = queue.pop_front() {
        if addr.partition() != partition || !seen.insert(addr) {
            continue;
        }
        if let Ok(view) = db.raw_read(addr) {
            for child in view.refs {
                if child.partition() == partition && !seen.contains(&child) {
                    queue.push_back(child);
                }
            }
        }
    }
    seen
}

/// Run the full invariant suite, panicking with a report on failure.
/// Intended for tests and examples at quiescent points.
pub fn assert_database_consistent(db: &Database) {
    let mut problems = check_ref_integrity(db);
    problems.extend(check_ert_exact(db));
    assert!(
        problems.is_empty(),
        "database inconsistent:\n{}",
        problems.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StoreConfig;
    use crate::handle::NewObject;
    use crate::lock::LockMode;

    fn db2() -> Database {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        db.create_partition();
        db
    }

    fn mk(db: &Database, p: u16, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(PartitionId(p), NewObject::exact(1, refs, vec![1, 2, 3]))
            .unwrap();
        t.commit().unwrap();
        a
    }

    #[test]
    fn consistent_database_passes() {
        let db = db2();
        let c = mk(&db, 1, vec![]);
        let _p = mk(&db, 0, vec![c]);
        assert_database_consistent(&db);
    }

    #[test]
    fn dangling_ref_is_detected() {
        let db = db2();
        let c = mk(&db, 1, vec![]);
        let _p = mk(&db, 0, vec![c]);
        // Free the child behind the store's back (simulating a bug).
        let mut t = db.begin();
        t.lock(c, LockMode::Exclusive).unwrap();
        t.delete_object(c).unwrap();
        t.commit().unwrap();
        let problems = check_ref_integrity(&db);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("dangling"));
    }

    #[test]
    fn ert_divergence_is_detected_and_repaired() {
        let db = db2();
        let c = mk(&db, 1, vec![]);
        let p = mk(&db, 0, vec![c]);
        // Corrupt the ERT.
        db.partition(PartitionId(1)).unwrap().ert.remove(c, p);
        assert_eq!(check_ert_exact(&db).len(), 1);
        rebuild_erts_by_sweep(&db);
        assert!(check_ert_exact(&db).is_empty());
    }

    #[test]
    fn reachability_follows_ert_and_roots() {
        let db = db2();
        let leaf = mk(&db, 1, vec![]);
        let mid = mk(&db, 1, vec![leaf]);
        let _ext = mk(&db, 0, vec![mid]);
        let orphan = mk(&db, 1, vec![]);
        let reach = reachable_in_partition(&db, PartitionId(1));
        assert!(reach.contains(&mid) && reach.contains(&leaf));
        assert!(!reach.contains(&orphan), "orphan is garbage");
        db.add_root(orphan);
        let reach = reachable_in_partition(&db, PartitionId(1));
        assert!(reach.contains(&orphan), "roots anchor reachability");
    }
}
