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

/// The edges of an ERT, sorted: what verification compares against the
/// references on the pages. Restart rebuilds the table from those.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErtSnapshot {
    pub edges: Vec<(PhysAddr, PhysAddr)>,
}

/// Counters for one ERT's lifetime. The ERT is the structure whose size
/// bounds PQR's quiesce cost (it locks every external parent), so its churn
/// is worth observing alongside the lock manager's counters.
#[derive(Debug, Default)]
pub(crate) struct ErtStats {
    /// Edges inserted.
    pub inserts: Counter,
    /// Edges removed (one occurrence each).
    pub removes: Counter,
}

/// The External Reference Table of one partition.
#[derive(Debug)]
pub struct Ert {
    partition: PartitionId,
    /// child -> multiset of external parents.
    inner: Mutex<AddrMap<Vec<PhysAddr>>>,
    /// Lifetime counters.
    pub(crate) stats: ErtStats,
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

    /// Snapshot all edges, sorted (verification).
    pub fn snapshot(&self) -> ErtSnapshot {
        let t = self.inner.lock();
        let mut edges: Vec<(PhysAddr, PhysAddr)> = t
            .iter()
            .flat_map(|(c, ps)| ps.iter().map(move |p| (*c, *p)))
            .collect();
        edges.sort_unstable();
        ErtSnapshot { edges }
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
    fn same_sequence_same_iteration_order() {
        let feed = |ert: &Ert| {
            for i in 0..200u32 {
                ert.insert(a(1, i, 0), a(2, i % 13, 0));
            }
            for i in (0..200u32).step_by(3) {
                assert!(ert.remove(a(1, i, 0), a(2, i % 13, 0)));
            }
            for i in 0..40u32 {
                let (old, new) = (a(1, i * 3 + 1, 0), a(1, 500 + i, 0));
                for p in ert.parents_of(old) {
                    assert!(ert.remove(old, p));
                    ert.insert(new, p);
                }
            }
            (ert.referenced_objects(), ert.snapshot())
        };
        let (order, snap) = feed(&Ert::new(PartitionId(1)));
        assert!(order.len() > 100);
        assert_eq!((order, snap), feed(&Ert::new(PartitionId(1))));
    }
}
