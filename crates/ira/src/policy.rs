//! Migration orders from observed traffic, not just hand-written lists.
//!
//! The paper reorganizes a *fixed* plan chosen by the administrator. The
//! dynamic-clustering literature (Darmont et al.'s DSTC line of work)
//! shows that even a simple greedy policy driven by live access statistics
//! beats static placement:
//!
//! * [`StatsGreedy`] — a DSTC-style greedy policy over observed
//!   parent→child co-access counts: rank hot edges, chain them, and emit a
//!   [`MigrationOrder::Priority`] for [`crate::Reorg::order`] that packs
//!   hot chains onto the same pages (free space is withheld during a
//!   reorganization, so migrated copies land in fresh pages *in migration
//!   order* — the order is the clustering lever);
//! * [`CostModel`] — the placement cost model the greedy scores against
//!   (re-exported as `workload::cost` for the bench side): the weighted
//!   sum over observed edges of a page-crossing penalty.
//!
//! The statistics themselves are collected in `crates/workload` (which
//! depends on this crate, not the other way around) and handed over as a
//! plain [`EdgeCount`] list.

use crate::order::MigrationOrder;
use brahma::{AddrMap, AddrSet, Database, PartitionId, PhysAddr, PAGE_SIZE};

/// One observed parent→child co-access, with its traversal count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCount {
    pub parent: PhysAddr,
    pub child: PhysAddr,
    pub count: u64,
}

// ---------------------------------------------------------------------------
// Placement cost model
// ---------------------------------------------------------------------------

/// The placement cost model: how expensive a set of observed traversal
/// edges is under a given object→page placement.
///
/// Each traversal of an edge whose endpoints share a page is free; one
/// that crosses pages inside a partition costs [`CostModel::cross_page`];
/// one that crosses partitions costs [`CostModel::cross_partition`]. The
/// unit is "page fetches per traversal", matching the paged CPU model the
/// bench runs under (a same-page hop hits the cache line the parent's
/// access just pulled in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of a hop that crosses pages within one partition.
    pub cross_page: f64,
    /// Cost of a hop that crosses partitions (a different working set
    /// entirely; in the paper's setting, likely a different disk region).
    pub cross_partition: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cross_page: 1.0,
            cross_partition: 4.0,
        }
    }
}

impl CostModel {
    /// Total cost of `edges` when `locate` maps each object to its
    /// (partition, page) frame.
    pub fn placement_cost<F>(&self, edges: &[EdgeCount], locate: F) -> f64
    where
        F: Fn(PhysAddr) -> (PartitionId, u32),
    {
        let mut total = 0.0;
        for e in edges {
            let (pp, ppage) = locate(e.parent);
            let (cp, cpage) = locate(e.child);
            let unit = if pp != cp {
                self.cross_partition
            } else if ppage != cpage {
                self.cross_page
            } else {
                0.0
            };
            total += unit * e.count as f64;
        }
        total
    }

    /// Cost of `edges` under the placement the addresses already encode.
    pub fn identity_cost(&self, edges: &[EdgeCount]) -> f64 {
        self.placement_cost(edges, |a| (a.partition(), a.page()))
    }
}

/// Predicted cost of a planned order vs leaving every object where it is,
/// in [`CostModel`] units over the observed edge set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanScore {
    /// Cost of the observed edges under the current placement.
    pub identity_cost: f64,
    /// Predicted cost after migrating in the planned order (simulated
    /// packing of the priority list into fresh pages).
    pub planned_cost: f64,
}

impl PlanScore {
    /// Predicted relative improvement, in [0, 1] when the plan helps.
    pub fn improvement(&self) -> f64 {
        if self.identity_cost <= 0.0 {
            0.0
        } else {
            1.0 - self.planned_cost / self.identity_cost
        }
    }
}

// ---------------------------------------------------------------------------
// StatsGreedy
// ---------------------------------------------------------------------------

/// DSTC-style greedy clustering from observed traversal statistics.
///
/// [`StatsGreedy::plan`] ranks the partition's intra-partition edges by
/// count and greedily links them into chains (each object at most one
/// predecessor and one successor, no cycles — the classic greedy path
/// heuristic), then lists the chains hottest-first as a
/// [`MigrationOrder::Priority`]. Because reorganization withholds free
/// space, consecutive objects in the migration order pack onto the same
/// fresh pages, so a chain becomes a page-contiguous run — exactly what the
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
            if e.parent == e.child || succ.contains_key(&e.parent) || pred.contains_key(&e.child)
            {
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
            let w: u64 = chain_of(h).iter().map(|a| weight.get(a).copied().unwrap_or(0)).sum();
            (std::cmp::Reverse(w), h.to_raw())
        });
        heads.into_iter().map(chain_of).collect()
    }

    /// Objects per fresh page at the partition's dominant size class: the
    /// simulated packing the score is computed against.
    fn slots_per_page(db: &Database, partition: PartitionId, live: &[PhysAddr]) -> usize {
        let Ok(part) = db.partition(partition) else {
            return 1;
        };
        // The workload's objects are homogeneous; sample a few to find the
        // dominant size class rather than scanning the whole partition.
        let size = live
            .iter()
            .take(8)
            .filter_map(|&a| part.object_size(a))
            .max()
            .unwrap_or(128)
            .max(32) as usize;
        (PAGE_SIZE / size.next_power_of_two()).max(1)
    }

    /// The clustering order for compacting `partition` of `db` in place,
    /// for [`crate::Reorg::order`], and what it is predicted to buy. With
    /// no hot edge observed inside the partition the priority list is
    /// empty, i.e. plain traversal order, and both costs are zero.
    pub fn plan(&self, db: &Database, partition: PartitionId) -> (MigrationOrder, PlanScore) {
        let live_list = db
            .partition(partition)
            .map(|p| p.live_objects())
            .unwrap_or_default();
        let live: AddrSet = live_list.iter().copied().collect();
        let priority: Vec<PhysAddr> = Self::chains(&self.edges, &live).into_iter().flatten().collect();

        // Score the order against the cost model: simulate packing the
        // priority list (then every remaining live object) into fresh
        // pages, and compare the observed intra-partition edges under that
        // placement vs where they sit today.
        let scored: Vec<EdgeCount> = self
            .edges
            .iter()
            .filter(|e| live.contains(&e.parent) && live.contains(&e.child))
            .copied()
            .collect();
        let per_page = Self::slots_per_page(db, partition, &live_list);
        let prioritized: AddrSet = priority.iter().copied().collect();
        let mut planned_page: AddrMap<u32> = AddrMap::default();
        for (i, &addr) in priority
            .iter()
            .chain(live_list.iter().filter(|a| {
                // Remaining objects keep their relative traversal order
                // after the prioritized chains.
                !prioritized.contains(a)
            }))
            .enumerate()
        {
            planned_page.insert(addr, (i / per_page) as u32);
        }
        let model = CostModel::default();
        let score = PlanScore {
            identity_cost: model.identity_cost(&scored),
            planned_cost: model.placement_cost(&scored, |a| match planned_page.get(&a) {
                Some(&page) => (partition, page),
                None => (a.partition(), a.page()),
            }),
        };
        (MigrationOrder::Priority(priority), score)
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
    fn cost_model_weighs_page_and_partition_crossings() {
        let m = CostModel::default();
        let same = addr(1, 0, 0);
        let same_page = addr(1, 0, 64);
        let other_page = addr(1, 7, 0);
        let other_part = addr(2, 0, 0);
        let edges = [
            edge(same, same_page, 10),  // free
            edge(same, other_page, 3),  // 3 * cross_page
            edge(same, other_part, 2),  // 2 * cross_partition
        ];
        assert_eq!(m.identity_cost(&edges), 3.0 + 8.0);
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
        assert_eq!(chains, vec![vec![a, b]], "the b->a backlink must be dropped");
    }

    #[test]
    fn nothing_observed_plans_traversal_order_at_zero_cost() {
        let db = Database::new(brahma::StoreConfig::default());
        let p = db.create_partition();
        let (order, score) = StatsGreedy::new(&[]).plan(&db, p);
        assert_eq!(order, MigrationOrder::Priority(vec![]));
        assert_eq!((score.identity_cost, score.planned_cost), (0.0, 0.0));
    }
}
