//! Migration-order optimization (the paper's Section 7 future work).
//!
//! "An object external to the partition being reorganized may have to be
//! fetched multiple times as it may be the parent of multiple objects in
//! the partition. A natural question that arises is in what order do we
//! migrate objects so that the number of I/O's required is minimized. In a
//! main memory database, the same order could be relevant since it may
//! minimize the number of times locks have to be obtained on an external
//! object."
//!
//! [`MigrationOrder::GroupByExternalParent`] reorders the migration queue
//! so objects sharing an external parent are adjacent; combined with
//! migration batching (Section 4.3), one batched transaction then locks the
//! shared parent **once** for all of its children instead of once per
//! child. The trade-off: traversal order is what gives evacuation its
//! clustering quality, so the default remains [`MigrationOrder::Traversal`].

use crate::traversal::TraversalState;
use brahma::{AddrMap, PartitionId, PhysAddr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The order in which a partition's objects are migrated.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MigrationOrder {
    /// Fuzzy-traversal discovery order (clusters related objects at the
    /// target).
    #[default]
    Traversal,
    /// Group objects by a shared external parent, so batched migrations
    /// lock each external parent once (Section 7).
    GroupByExternalParent,
    /// Migrate the listed objects first, in list order; everything else
    /// follows in traversal order. Emitted by plan policies
    /// ([`crate::policy::StatsGreedy`]): free space is withheld during a
    /// reorganization, so objects adjacent in this list pack onto the same
    /// fresh pages — the list *is* the clustering decision.
    Priority(Vec<PhysAddr>),
}

/// Apply the order to a migration queue, in place.
pub fn order_queue(
    order: &MigrationOrder,
    queue: &mut Vec<PhysAddr>,
    state: &TraversalState,
    partition: PartitionId,
) {
    match order {
        MigrationOrder::Traversal => {}
        MigrationOrder::GroupByExternalParent => {
            // Group by the (deterministic) smallest external parent; objects
            // with no external parent keep their relative order at the end.
            let mut groups: BTreeMap<PhysAddr, Vec<PhysAddr>> = BTreeMap::new();
            let mut rest = Vec::new();
            for obj in queue.drain(..) {
                let ext = state
                    .parents_of(obj)
                    .into_iter()
                    .filter(|p| p.partition() != partition)
                    .min();
                match ext {
                    Some(e) => groups.entry(e).or_default().push(obj),
                    None => rest.push(obj),
                }
            }
            queue.extend(groups.into_values().flatten().chain(rest));
        }
        MigrationOrder::Priority(listed) => {
            let rank: AddrMap<usize> = listed
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, i))
                .collect();
            // Listed objects first, by list position; the rest keep their
            // traversal order. Listed objects missing from the queue (dead
            // or migrated since the stats were observed) are simply absent.
            let mut prioritized: Vec<(usize, PhysAddr)> = Vec::new();
            let mut rest = Vec::new();
            for obj in queue.drain(..) {
                match rank.get(&obj) {
                    Some(&i) => prioritized.push((i, obj)),
                    None => rest.push(obj),
                }
            }
            prioritized.sort_by_key(|&(i, _)| i);
            queue.extend(prioritized.into_iter().map(|(_, o)| o).chain(rest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::PartitionId;

    fn a(p: u16, off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(p), 0, off)
    }

    #[test]
    fn traversal_order_is_identity() {
        let q = vec![a(1, 0), a(1, 64), a(1, 128)];
        let state = TraversalState::default();
        let mut ordered = q.clone();
        order_queue(&MigrationOrder::Traversal, &mut ordered, &state, PartitionId(1));
        assert_eq!(ordered, q);
    }

    #[test]
    fn grouping_clusters_shared_external_parents() {
        let p = PartitionId(1);
        let ext1 = a(0, 0);
        let ext2 = a(0, 64);
        let (o1, o2, o3, o4, o5) = (a(1, 0), a(1, 64), a(1, 128), a(1, 192), a(1, 256));
        let mut state = TraversalState::default();
        state.add_parent(o1, ext1);
        state.add_parent(o2, ext2);
        state.add_parent(o3, ext1);
        state.add_parent(o4, a(1, 300)); // intra-partition parent only
        // o5 has no recorded parents.
        let mut ordered = vec![o1, o2, o3, o4, o5];
        order_queue(&MigrationOrder::GroupByExternalParent, &mut ordered, &state, p);
        // ext1's children are adjacent; parentless objects go last in
        // original relative order.
        let i1 = ordered.iter().position(|&x| x == o1).unwrap();
        let i3 = ordered.iter().position(|&x| x == o3).unwrap();
        assert_eq!(i1.abs_diff(i3), 1, "o1 and o3 share ext1 and must be adjacent");
        assert_eq!(&ordered[3..], &[o4, o5]);
        assert_eq!(ordered.len(), 5);
    }

    #[test]
    fn priority_lists_first_rest_keeps_traversal_order() {
        let (o1, o2, o3, o4, o5) = (a(1, 0), a(1, 64), a(1, 128), a(1, 192), a(1, 256));
        let state = TraversalState::default();
        let mut ordered = vec![o1, o2, o3, o4, o5];
        // o9 is listed but not in the queue: it must simply be absent.
        let listed = MigrationOrder::Priority(vec![o4, a(1, 999), o2]);
        order_queue(&listed, &mut ordered, &state, PartitionId(1));
        assert_eq!(ordered, vec![o4, o2, o1, o3, o5]);
    }

    #[test]
    fn grouping_ignores_intra_partition_parents() {
        let p = PartitionId(1);
        let (o1, o2) = (a(1, 0), a(1, 64));
        let mut state = TraversalState::default();
        state.add_parent(o1, o2);
        state.add_parent(o2, o1);
        let mut ordered = vec![o1, o2];
        order_queue(&MigrationOrder::GroupByExternalParent, &mut ordered, &state, p);
        assert_eq!(ordered, vec![o1, o2]);
    }
}
