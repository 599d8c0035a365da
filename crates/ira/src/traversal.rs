//! The fuzzy traversal (Section 3.4).
//!
//! The traversal visits the objects of one partition, starting from a seed
//! set, following only intra-partition edges, and reading each object under
//! nothing but a short page latch — no locks. Because concurrent
//! transactions keep mutating the graph, the result is only *approximate*:
//! parents may be missing (added after the object was visited) or spurious
//! (deleted after). `Find_Exact_Parents` later makes each object's parent
//! set exact with the help of the TRT.
//!
//! The traversal state is accumulated across calls: the driver first
//! traverses from the ERT's referenced objects, then repeatedly from TRT
//! referenced objects that have not been visited yet (line L2 of Figure 3),
//! so no live object is missed (Lemma 3.1).

use brahma::{AddrMap, AddrSet, Database, PartitionId, PhysAddr};

/// Accumulated traversal state: visited objects (in discovery order) and the
/// approximate parent list of each.
#[derive(Debug, Default)]
pub struct TraversalState {
    /// Objects visited, in discovery order (also the default migration
    /// order: traversal order clusters related objects together). After the
    /// driver applies `order::order_queue` in place, this doubles
    /// as *the* migration queue.
    pub(crate) order: Vec<PhysAddr>,
    /// Every address a traversal was attempted from (including stale seeds
    /// that turned out not to be live objects); guarantees the L2 loop
    /// terminates.
    pub(crate) visited: AddrSet,
    /// Approximate parents per visited object, each listed once. A list is
    /// a few addresses long, so a `Vec` scan beats a hash set and the list
    /// costs one allocation.
    pub(crate) parents: AddrMap<Vec<PhysAddr>>,
}

/// Remove `parent` from a parent list (no-op when absent).
fn remove_from(ps: &mut Vec<PhysAddr>, parent: PhysAddr) {
    if let Some(i) = ps.iter().position(|&p| p == parent) {
        ps.swap_remove(i);
    }
}

/// Add `parent` to a parent list unless it is there already.
fn add_to(ps: &mut Vec<PhysAddr>, parent: PhysAddr) {
    if !ps.contains(&parent) {
        ps.push(parent);
    }
}

impl TraversalState {
    /// An empty state with room for `objects` objects.
    pub(crate) fn with_capacity(objects: usize) -> Self {
        TraversalState {
            order: Vec::with_capacity(objects),
            visited: AddrSet::with_capacity_and_hasher(objects, Default::default()),
            parents: AddrMap::with_capacity_and_hasher(objects, Default::default()),
        }
    }

    /// Record that `parent` references `child`.
    pub(crate) fn add_parent(&mut self, child: PhysAddr, parent: PhysAddr) {
        add_to(self.parents.entry(child).or_default(), parent);
    }

    /// Remove `parent` from `child`'s parent list (no-op when absent).
    pub(crate) fn remove_parent(&mut self, child: PhysAddr, parent: PhysAddr) {
        if let Some(ps) = self.parents.get_mut(&child) {
            remove_from(ps, parent);
        }
    }

    /// Rewrite `old_parent` to `new_parent` in `child`'s parent list — the
    /// bookkeeping step of `Move_Object_And_Update_Refs` for not-yet-migrated
    /// children of a migrated object.
    ///
    /// The new parent is registered even when the old one was never in the
    /// list: the edge `old_parent -> child` may have been *created after*
    /// the fuzzy traversal (its TRT tuple then names the parent's old,
    /// now-freed address, which `Find_Exact_Parents` will discard as stale)
    /// — the migrated copy physically holds the reference, so it must be a
    /// recorded parent of the child.
    pub(crate) fn replace_parent(
        &mut self,
        child: PhysAddr,
        old_parent: PhysAddr,
        new_parent: PhysAddr,
    ) {
        let ps = self.parents.entry(child).or_default();
        remove_from(ps, old_parent);
        add_to(ps, new_parent);
    }

    /// The approximate parents of `child`, sorted (empty if none recorded).
    pub(crate) fn parents_of(&self, child: PhysAddr) -> Vec<PhysAddr> {
        let mut v = Vec::new();
        self.copy_parents(child, &mut v);
        v
    }

    /// [`TraversalState::parents_of`] into a buffer the caller keeps.
    pub(crate) fn copy_parents(&self, child: PhysAddr, out: &mut Vec<PhysAddr>) {
        out.clear();
        if let Some(ps) = self.parents.get(&child) {
            out.extend_from_slice(ps);
        }
        // Deterministic lock order reduces reorganizer-side deadlock.
        out.sort_unstable();
    }
}

/// Fuzzily traverse `partition` from `seeds`, extending `state`. Only
/// intra-partition edges are followed; each object's references are read
/// where they lie, under its page latch ([`Database::fuzzy_with_refs`]),
/// and it is never locked.
pub(crate) fn fuzzy_traversal(
    db: &Database,
    partition: PartitionId,
    seeds: impl IntoIterator<Item = PhysAddr>,
    state: &mut TraversalState,
) {
    // Section 3.4's core invariant: the traversal synchronizes through page
    // latches only. The region guard makes any lock-manager acquisition on
    // this thread a lockdep violation until the traversal returns.
    let _fuzzy = brahma::lockdep::fuzzy_region();
    let mut stack: Vec<PhysAddr> = seeds
        .into_iter()
        .filter(|a| a.partition() == partition && !state.visited.contains(a))
        .collect();
    while let Some(addr) = stack.pop() {
        if !state.visited.insert(addr) {
            continue;
        }
        // Under the latch: note each intra-partition child's parent and
        // stack the unvisited ones.
        let live = db.fuzzy_with_refs(addr, |refs| {
            for child in refs.filter(|c| c.partition() == partition) {
                state.add_parent(child, addr);
                if !state.visited.contains(&child) {
                    stack.push(child);
                }
            }
        });
        // A stale or not-yet-initialized address is skipped, but it stays
        // in `visited` so the TRT loop terminates.
        if live.is_some() {
            state.order.push(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{Database, NewObject, StoreConfig};

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

    #[test]
    fn traverses_reachable_subgraph_and_records_parents() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let leaf = mk(&db, p, vec![]);
        let mid = mk(&db, p, vec![leaf]);
        let root = mk(&db, p, vec![mid, leaf]);
        let orphan = mk(&db, p, vec![]);

        let mut st = TraversalState::default();
        fuzzy_traversal(&db, p, [root], &mut st);
        assert_eq!(st.order.len(), 3);
        assert!(!st.visited.contains(&orphan));
        assert_eq!(st.parents_of(mid), vec![root]);
        let mut leaf_parents = st.parents_of(leaf);
        leaf_parents.sort_unstable();
        let mut expect = vec![mid, root];
        expect.sort_unstable();
        assert_eq!(leaf_parents, expect);
    }

    #[test]
    fn stays_within_partition() {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let other = mk(&db, p1, vec![]);
        let here = mk(&db, p0, vec![other]);
        let mut st = TraversalState::default();
        fuzzy_traversal(&db, p0, [here], &mut st);
        assert_eq!(st.order, vec![here]);
        assert!(!st.visited.contains(&other));
        assert!(
            st.parents_of(other).is_empty(),
            "cross-partition edge not recorded"
        );
    }

    #[test]
    fn handles_cycles() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let a = mk(&db, p, vec![]);
        let b = mk(&db, p, vec![a]);
        // Close the cycle a -> b.
        let mut t = db.begin();
        t.lock(a, brahma::LockMode::Exclusive).unwrap();
        t.insert_ref(a, b).unwrap();
        t.commit().unwrap();

        let mut st = TraversalState::default();
        fuzzy_traversal(&db, p, [a], &mut st);
        assert_eq!(st.order.len(), 2);
        assert_eq!(st.parents_of(a), vec![b]);
        assert_eq!(st.parents_of(b), vec![a]);
    }

    #[test]
    fn stale_seed_is_marked_visited_but_not_ordered() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let part = db.partition(p).unwrap();
        let hole = part.allocate(64).unwrap(); // never initialized
        let mut st = TraversalState::default();
        fuzzy_traversal(&db, p, [hole], &mut st);
        assert!(st.visited.contains(&hole));
        assert!(st.order.is_empty());
    }

    #[test]
    fn accumulates_across_calls() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let a = mk(&db, p, vec![]);
        let b = mk(&db, p, vec![]);
        let mut st = TraversalState::default();
        fuzzy_traversal(&db, p, [a], &mut st);
        fuzzy_traversal(&db, p, [b], &mut st);
        fuzzy_traversal(&db, p, [a], &mut st); // revisits are no-ops
        assert_eq!(st.order, vec![a, b]);
    }

    #[test]
    fn self_reference_records_self_as_parent() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let a = mk(&db, p, vec![]);
        let mut t = db.begin();
        t.lock(a, brahma::LockMode::Exclusive).unwrap();
        t.insert_ref(a, a).unwrap();
        t.commit().unwrap();
        let mut st = TraversalState::default();
        fuzzy_traversal(&db, p, [a], &mut st);
        assert_eq!(st.parents_of(a), vec![a]);
    }
}
