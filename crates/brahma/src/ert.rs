//! External Reference Table (ERT).
//!
//! Each partition `P` owns an ERT storing every reference `R -> O` where `O`
//! belongs to `P` and `R` does not (Section 2): back pointers for references
//! that come into `P` from other partitions. The ERT gives the reorganizer
//! its traversal starting points and the external parents of every migrated
//! object, so the whole database never needs to be traversed.
//!
//! The table is a multiset of `(child, parent)` edges — an external parent
//! may legitimately hold *two* references to the same object, and deleting
//! one of them must leave the other edge in the table.

use crate::addr::{AddrMap, PartitionId, PhysAddr};
use crate::lockdep::{LockClass, Mutex};
use obs::Counter;

/// A persistent-table snapshot of an ERT, used by checkpointing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErtSnapshot {
    pub edges: Vec<(PhysAddr, PhysAddr)>,
}

/// Counters for one ERT's lifetime. The ERT is the structure whose size
/// bounds PQR's quiesce cost (it locks every external parent), so its churn
/// is worth observing alongside the lock manager's counters.
#[derive(Debug, Default)]
pub struct ErtStats {
    /// Edges inserted.
    pub inserts: Counter,
    /// Edges removed (one occurrence each).
    pub removes: Counter,
    /// Child-side rekeys performed by migration.
    pub rekeys: Counter,
}

/// The External Reference Table of one partition.
#[derive(Debug)]
pub struct Ert {
    partition: PartitionId,
    /// child -> multiset of external parents.
    inner: Mutex<AddrMap<Vec<PhysAddr>>>,
    /// Lifetime counters.
    pub stats: ErtStats,
}

impl Ert {
    /// Create the (empty) ERT for `partition`.
    pub fn new(partition: PartitionId) -> Self {
        Ert {
            partition,
            inner: Mutex::new(LockClass::ErtInner, partition.0 as u64, AddrMap::default()),
            stats: ErtStats::default(),
        }
    }

    /// The partition this table belongs to.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Record an incoming external reference `parent -> child`.
    ///
    /// Duplicate edges accumulate (multiset semantics).
    pub fn insert(&self, child: PhysAddr, parent: PhysAddr) {
        debug_assert_eq!(child.partition(), self.partition);
        debug_assert_ne!(parent.partition(), self.partition);
        self.stats.inserts.inc();
        let mut t = self.inner.lock();
        t.entry(child).or_default().push(parent);
    }

    /// Remove one occurrence of the edge `parent -> child`. Returns whether
    /// an occurrence existed.
    pub fn remove(&self, child: PhysAddr, parent: PhysAddr) -> bool {
        let mut t = self.inner.lock();
        let Some(parents) = t.get_mut(&child) else {
            return false;
        };
        let Some(pos) = parents.iter().position(|&p| p == parent) else {
            return false;
        };
        parents.swap_remove(pos);
        if parents.is_empty() {
            t.remove(&child);
        }
        self.stats.removes.inc();
        true
    }

    /// All external parents of `child` (with multiplicity).
    pub fn parents_of(&self, child: PhysAddr) -> Vec<PhysAddr> {
        self.inner.lock().get(&child).cloned().unwrap_or_default()
    }

    /// The *referenced objects* of the ERT (Section 2): the objects of this
    /// partition that some external object points to. These are the fuzzy
    /// traversal's starting points.
    pub fn referenced_objects(&self) -> Vec<PhysAddr> {
        self.inner.lock().keys().copied().collect()
    }

    /// Move every edge keyed by `old_child` to `new_child`, returning the
    /// parents. Called when the child object migrates.
    pub fn rekey_child(&self, old_child: PhysAddr, new_child: PhysAddr) -> Vec<PhysAddr> {
        debug_assert_eq!(new_child.partition(), self.partition);
        self.stats.rekeys.inc();
        let mut t = self.inner.lock();
        let Some(parents) = t.remove(&old_child) else {
            return Vec::new();
        };
        t.entry(new_child).or_default().extend(&parents);
        parents
    }

    /// Rewrite one occurrence of `old_parent` as `new_parent` in the edge set
    /// of `child`. Called when a *parent* object migrates. Returns whether an
    /// occurrence was rewritten.
    pub fn replace_parent(
        &self,
        child: PhysAddr,
        old_parent: PhysAddr,
        new_parent: PhysAddr,
    ) -> bool {
        let mut t = self.inner.lock();
        let Some(parents) = t.get_mut(&child) else {
            return false;
        };
        match parents.iter_mut().find(|p| **p == old_parent) {
            Some(slot) => {
                *slot = new_parent;
                true
            }
            None => false,
        }
    }

    /// Total number of edges (with multiplicity).
    pub fn edge_count(&self) -> usize {
        self.inner.lock().values().map(Vec::len).sum()
    }

    /// Whether the table holds the exact edge `parent -> child`.
    pub fn contains(&self, child: PhysAddr, parent: PhysAddr) -> bool {
        self.inner
            .lock()
            .get(&child)
            .is_some_and(|ps| ps.contains(&parent))
    }

    /// Snapshot all edges (checkpointing, verification).
    pub fn snapshot(&self) -> ErtSnapshot {
        let t = self.inner.lock();
        let mut edges: Vec<(PhysAddr, PhysAddr)> = t
            .iter()
            .flat_map(|(c, ps)| ps.iter().map(move |p| (*c, *p)))
            .collect();
        edges.sort_unstable();
        ErtSnapshot { edges }
    }

    /// Replace the table contents from a snapshot (restart recovery).
    pub fn restore(&self, snap: &ErtSnapshot) {
        let mut t = self.inner.lock();
        t.clear();
        for &(c, p) in &snap.edges {
            t.entry(c).or_default().push(p);
        }
    }

    /// Drop every edge (used when a partition is reclaimed by the copying
    /// collector).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(p: u16, page: u32, off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(p), page, off)
    }

    #[test]
    fn insert_and_query() {
        let ert = Ert::new(PartitionId(1));
        let child = a(1, 0, 0);
        let parent = a(2, 0, 0);
        ert.insert(child, parent);
        assert_eq!(ert.parents_of(child), vec![parent]);
        assert_eq!(ert.referenced_objects(), vec![child]);
        assert!(ert.contains(child, parent));
        assert_eq!(ert.edge_count(), 1);
    }

    #[test]
    fn multiset_semantics() {
        let ert = Ert::new(PartitionId(1));
        let child = a(1, 0, 0);
        let parent = a(2, 0, 0);
        ert.insert(child, parent);
        ert.insert(child, parent);
        assert_eq!(ert.edge_count(), 2);
        assert!(ert.remove(child, parent));
        assert!(ert.contains(child, parent), "one edge must remain");
        assert!(ert.remove(child, parent));
        assert!(!ert.remove(child, parent));
        assert_eq!(ert.edge_count(), 0);
        assert!(ert.referenced_objects().is_empty());
    }

    #[test]
    fn rekey_child_moves_parents() {
        let ert = Ert::new(PartitionId(1));
        let old = a(1, 0, 0);
        let new = a(1, 5, 64);
        let p1 = a(2, 0, 0);
        let p2 = a(3, 1, 8);
        ert.insert(old, p1);
        ert.insert(old, p2);
        let mut parents = ert.rekey_child(old, new);
        parents.sort_unstable();
        let mut expect = vec![p1, p2];
        expect.sort_unstable();
        assert_eq!(parents, expect);
        assert!(ert.parents_of(old).is_empty());
        assert_eq!(ert.parents_of(new).len(), 2);
    }

    #[test]
    fn rekey_merges_with_existing_edges() {
        let ert = Ert::new(PartitionId(1));
        let old = a(1, 0, 0);
        let new = a(1, 5, 64);
        ert.insert(old, a(2, 0, 0));
        ert.insert(new, a(3, 0, 0));
        ert.rekey_child(old, new);
        assert_eq!(ert.parents_of(new).len(), 2);
    }

    #[test]
    fn replace_parent_rewrites_one_occurrence() {
        let ert = Ert::new(PartitionId(1));
        let child = a(1, 0, 0);
        let old_p = a(2, 0, 0);
        let new_p = a(2, 9, 32);
        ert.insert(child, old_p);
        ert.insert(child, old_p);
        assert!(ert.replace_parent(child, old_p, new_p));
        let ps = ert.parents_of(child);
        assert!(ps.contains(&old_p) && ps.contains(&new_p));
        assert!(!ert.replace_parent(a(1, 9, 9), old_p, new_p));
    }

    /// Same-seed runs must stay identical, and `referenced_objects` are the
    /// fuzzy traversal's starting points in table order: two tables fed
    /// the same sequence must iterate alike (a randomly seeded hasher
    /// would not).
    #[test]
    fn same_sequence_same_iteration_order() {
        let feed = |ert: &Ert| {
            for i in 0..200u32 {
                ert.insert(a(1, i, 0), a(2, i % 13, 0));
            }
            for i in (0..200u32).step_by(3) {
                assert!(ert.remove(a(1, i, 0), a(2, i % 13, 0)));
            }
            for i in 0..40u32 {
                ert.rekey_child(a(1, i * 3 + 1, 0), a(1, 500 + i, 0));
            }
            (ert.referenced_objects(), ert.snapshot())
        };
        let (order, snap) = feed(&Ert::new(PartitionId(1)));
        assert!(order.len() > 100);
        assert_eq!((order, snap), feed(&Ert::new(PartitionId(1))));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let ert = Ert::new(PartitionId(1));
        for i in 0..20u32 {
            ert.insert(a(1, i, 0), a(2, i, 0));
        }
        let snap = ert.snapshot();
        let ert2 = Ert::new(PartitionId(1));
        ert2.restore(&snap);
        assert_eq!(ert2.snapshot(), snap);
        assert_eq!(ert2.edge_count(), 20);
    }
}
