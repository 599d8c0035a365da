//! Post-reorganization verification, used by tests, examples, and the
//! benchmark harness's self-checks.

use crate::driver::IraReport;
use brahma::sweep;
use brahma::{AddrMap, Database, PhysAddr};

/// Canonical fingerprint of the live graph reachable from `anchors`:
/// a deterministic DFS assigns visit numbers, then each object is described
/// by tag, payload, and the visit numbers of its edge list. Two databases
/// yield equal fingerprints exactly when their live graphs are isomorphic
/// under relocation — the property every reorganization must preserve, and
/// how the tests compare a reorganized database against the original.
///
/// A *dangling* reference (to a freed or never-allocated address) renders
/// as a `dead` edge rather than panicking, so a corrupted database
/// fingerprints *differently* from a healthy one instead of killing the
/// verifier — the failure shows up as a comparison diff with the broken
/// edge in it.
pub fn logical_fingerprint(db: &Database, anchors: &[PhysAddr]) -> Vec<String> {
    let mut ids: AddrMap<usize> = AddrMap::default();
    let mut views: Vec<brahma::ObjectView> = Vec::new();
    let mut stack: Vec<PhysAddr> = anchors.to_vec();
    // Reverse so anchors are visited (and numbered) in argument order.
    stack.reverse();
    while let Some(a) = stack.pop() {
        if ids.contains_key(&a) {
            continue;
        }
        let Ok(v) = db.raw_read(a) else {
            // Dangling target: no visit number. Edges pointing here render
            // as `dead(raw)` below; a dangling *anchor* simply contributes
            // no object line.
            continue;
        };
        ids.insert(a, ids.len());
        for &c in v.refs.iter().rev() {
            stack.push(c);
        }
        views.push(v);
    }
    // Second pass over the captured views: stable description per object in
    // visit order (the views vec is already in visit order).
    views
        .iter()
        .map(|v| {
            let edge_ids: Vec<String> = v
                .refs
                .iter()
                .map(|c| match ids.get(c) {
                    Some(id) => id.to_string(),
                    None => format!("dead({})", c.to_raw()),
                })
                .collect();
            format!(
                "tag={} payload={:?} edges=[{}]",
                v.tag,
                v.payload,
                edge_ids.join(", ")
            )
        })
        .collect()
}

/// Check a completed reorganization against the database:
/// every old address must be dead, every new address live, and the global
/// invariants (referential integrity, exact ERTs) must hold.
///
/// Returns human-readable violations; empty means the reorganization is
/// verifiably clean.
pub fn verify_reorganization(db: &Database, report: &IraReport) -> Vec<String> {
    let mut problems = Vec::new();
    for (old, new) in &report.mapping {
        if db.raw_read(*old).is_ok() {
            problems.push(format!("old copy {old} still live after migration"));
        }
        if db.raw_read(*new).is_err() {
            problems.push(format!("new copy {new} (of {old}) is not readable"));
        }
    }
    problems.extend(sweep::check_ref_integrity(db));
    problems.extend(sweep::check_ert_exact(db));
    problems
}

/// Panic with a report when the reorganization left the database
/// inconsistent.
pub fn assert_reorganization_clean(db: &Database, report: &IraReport) {
    let problems = verify_reorganization(db, report);
    assert!(
        problems.is_empty(),
        "reorganization left inconsistencies:\n{}",
        problems.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{NewObject, StoreConfig};

    fn mk(db: &Database, p: brahma::PartitionId, refs: Vec<PhysAddr>, tag: u8) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                p,
                NewObject {
                    tag,
                    refs,
                    ref_cap: 4,
                    payload: vec![tag; 4],
                    payload_cap: 8,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    #[test]
    fn empty_anchor_set_fingerprints_empty() {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        assert!(logical_fingerprint(&db, &[]).is_empty());
    }

    #[test]
    fn self_referential_object_terminates_with_self_edge() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let a = mk(&db, p, vec![], 3);
        let mut t = db.begin();
        t.lock(a, brahma::LockMode::Exclusive).unwrap();
        t.insert_ref(a, a).unwrap();
        t.commit().unwrap();
        let fp = logical_fingerprint(&db, &[a]);
        assert_eq!(fp.len(), 1);
        assert!(fp[0].contains("edges=[0]"), "self-edge uses own id: {}", fp[0]);
    }

    #[test]
    fn isomorphic_graphs_with_different_layouts_fingerprint_equal() {
        // Same logical diamond (anchor -> {l, r} -> leaf), but db2 allocates
        // padding objects first so every physical address differs.
        let build = |padding: usize| {
            let db = Database::new(StoreConfig::default());
            let p = db.create_partition();
            for i in 0..padding {
                mk(&db, p, vec![], 100 + i as u8);
            }
            let leaf = mk(&db, p, vec![], 1);
            let l = mk(&db, p, vec![leaf], 2);
            let r = mk(&db, p, vec![leaf], 3);
            let anchor = mk(&db, p, vec![l, r], 4);
            (db, anchor)
        };
        let (db1, a1) = build(0);
        let (db2, a2) = build(5);
        assert_ne!(a1, a2, "layouts must actually differ");
        assert_eq!(
            logical_fingerprint(&db1, &[a1]),
            logical_fingerprint(&db2, &[a2])
        );
    }

    #[test]
    fn dangling_reference_is_a_detectable_difference_not_a_panic() {
        let build = || {
            let db = Database::new(StoreConfig::default());
            let p = db.create_partition();
            let child = mk(&db, p, vec![], 1);
            let anchor = mk(&db, p, vec![child], 2);
            (db, child, anchor)
        };
        let (healthy, _, ha) = build();
        let (broken, child, ba) = build();
        // Free the child out from under the anchor's stored reference.
        let mut t = broken.begin();
        t.lock(child, brahma::LockMode::Exclusive).unwrap();
        t.delete_object(child).unwrap();
        t.commit().unwrap();
        let good = logical_fingerprint(&healthy, &[ha]);
        let bad = logical_fingerprint(&broken, &[ba]);
        assert_ne!(good, bad, "the dangling edge must change the fingerprint");
        assert!(
            bad.iter().any(|l| l.contains("dead(")),
            "the broken edge is named: {bad:?}"
        );
        // A dangling anchor contributes nothing (and doesn't panic either).
        assert!(logical_fingerprint(&broken, &[child]).is_empty());
    }
}
