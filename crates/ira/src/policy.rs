//! Migration orders from observed traffic, not just hand-written lists.
//!
//! The paper reorganizes a *fixed* plan chosen by the administrator. The
//! dynamic-clustering literature (Darmont et al.'s DSTC line of work)
//! clusters from live access statistics instead. [`StatsGreedy`] is a
//! DSTC-style greedy policy over observed parent→child co-access counts:
//! rank hot edges, chain them, and emit the list of objects to migrate
//! first for [`crate::Reorg::order`]. A pass allocates only on fresh pages
//! above its page floor, so migrated copies land there *in migration
//! order*: the order is the clustering lever.
//!
//! The statistics themselves are collected in `crates/workload` (which
//! depends on this crate, not the other way around) and handed over as a
//! plain [`EdgeCount`] list.

use brahma::{AddrMap, AddrSet, Database, PartitionId, PhysAddr};

/// One observed parent→child co-access, with its traversal count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCount {
    pub parent: PhysAddr,
    pub child: PhysAddr,
    pub count: u64,
}

/// DSTC-style greedy clustering from observed traversal statistics.
///
/// [`StatsGreedy::plan`] ranks the partition's intra-partition edges by
/// count and greedily links them into chains (each object at most one
/// predecessor and one successor, no cycles — the classic greedy path
/// heuristic), then lists the chains hottest-first as the objects to
/// migrate first. Because a pass allocates only on fresh pages above its
/// page floor, consecutive objects in the migration order pack onto the
/// same pages, so a chain becomes a page-contiguous run — exactly what the
/// walks that made it hot want.
pub struct StatsGreedy {
    edges: Vec<EdgeCount>,
}

impl StatsGreedy {
    /// Plan from the observed `edges` (any order; zero counts are ignored).
    pub fn new(edges: &[EdgeCount]) -> Self {
        StatsGreedy {
            edges: edges.to_vec(),
        }
    }

    /// Greedily chain the hot intra-partition edges: process edges by
    /// descending count, link parent→child when neither end is already
    /// linked on that side and the link closes no cycle. Returns the
    /// chains, hottest total first.
    fn chains(edges: &[EdgeCount], live: &AddrSet) -> Vec<Vec<PhysAddr>> {
        let mut ranked: Vec<&EdgeCount> = edges
            .iter()
            .filter(|e| live.contains(&e.parent) && live.contains(&e.child) && e.count > 0)
            .collect();
        // Descending count; ties broken by address for determinism.
        ranked.sort_by_key(|e| {
            (
                std::cmp::Reverse(e.count),
                e.parent.to_raw(),
                e.child.to_raw(),
            )
        });
        let mut succ: AddrMap<PhysAddr> = AddrMap::default();
        let mut pred: AddrMap<PhysAddr> = AddrMap::default();
        let mut weight: AddrMap<u64> = AddrMap::default();
        for e in ranked {
            if e.parent == e.child || succ.contains_key(&e.parent) || pred.contains_key(&e.child) {
                continue;
            }
            // Following successors from the child must not reach the
            // parent, or the link would close a cycle.
            let mut cursor = e.child;
            let mut cycle = false;
            while let Some(&next) = succ.get(&cursor) {
                if next == e.parent {
                    cycle = true;
                    break;
                }
                cursor = next;
            }
            if cycle {
                continue;
            }
            succ.insert(e.parent, e.child);
            pred.insert(e.child, e.parent);
            *weight.entry(e.parent).or_default() += e.count;
        }
        // Chains start at linked objects with no predecessor.
        let mut heads: Vec<PhysAddr> = succ
            .keys()
            .filter(|a| !pred.contains_key(*a))
            .copied()
            .collect();
        // Hottest chain first (sum of its link weights), ties by address.
        let chain_of = |head: PhysAddr| {
            let mut chain = vec![head];
            let mut cursor = head;
            while let Some(&next) = succ.get(&cursor) {
                chain.push(next);
                cursor = next;
            }
            chain
        };
        heads.sort_by_key(|&h| {
            let w: u64 = chain_of(h)
                .iter()
                .map(|a| weight.get(a).copied().unwrap_or(0))
                .sum();
            (std::cmp::Reverse(w), h.to_raw())
        });
        heads.into_iter().map(chain_of).collect()
    }

    /// The clustering order for compacting `partition` of `db` in place,
    /// for [`crate::Reorg::order`]. With no hot edge observed inside the
    /// partition the list is empty, i.e. plain traversal order.
    pub fn plan(&self, db: &Database, partition: PartitionId) -> Vec<PhysAddr> {
        let live: AddrSet = db
            .partition(partition)
            .map(|p| p.live_objects())
            .unwrap_or_default()
            .into_iter()
            .collect();
        Self::chains(&self.edges, &live)
            .into_iter()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(p: u16, page: u32, off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(p), page, off)
    }

    fn edge(parent: PhysAddr, child: PhysAddr, count: u64) -> EdgeCount {
        EdgeCount {
            parent,
            child,
            count,
        }
    }

    #[test]
    fn greedy_chains_follow_descending_heat() {
        let (a, b, c, d) = (addr(1, 0, 0), addr(1, 1, 0), addr(1, 2, 0), addr(1, 3, 0));
        let live: AddrSet = [a, b, c, d].into_iter().collect();
        let edges = [
            edge(a, b, 100),
            edge(b, c, 50),
            edge(a, c, 40), // loses: a already has a successor
            edge(c, d, 10),
        ];
        let chains = StatsGreedy::chains(&edges, &live);
        assert_eq!(chains, vec![vec![a, b, c, d]]);
    }

    #[test]
    fn greedy_rejects_cycles() {
        let (a, b) = (addr(1, 0, 0), addr(1, 1, 0));
        let live: AddrSet = [a, b].into_iter().collect();
        let edges = [edge(a, b, 10), edge(b, a, 9)];
        let chains = StatsGreedy::chains(&edges, &live);
        assert_eq!(
            chains,
            vec![vec![a, b]],
            "the b->a backlink must be dropped"
        );
    }

    #[test]
    fn nothing_observed_plans_traversal_order_at_zero_cost() {
        let db = Database::new(brahma::StoreConfig::default());
        let p = db.create_partition();
        assert!(StatsGreedy::new(&[]).plan(&db, p).is_empty());
    }
}
