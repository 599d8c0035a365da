//! Conflict-aware wave planning for the parallel executor.
//!
//! A batch migrating object `O` exclusively locks `O` and its exact
//! parents. Two objects whose *approximate* lock sets overlap would make
//! their workers serialize on (or deadlock against) each other, so the
//! planner partitions the migration queue into **independent components**
//! by union-find over each object's lock set — the object itself plus its
//! same-partition approximate parents from the [`TraversalState`].
//!
//! Cross-partition parents are deliberately *not* unioned: most workloads
//! anchor every cluster from a handful of external roots, and folding
//! those in would collapse the whole queue into one component. The price
//! is that two workers can still collide on a shared external parent at
//! runtime; that residue surfaces as a lock timeout or a
//! [`brahma::Error::ReorgCollision`], which the executor resolves by
//! retrying and, past the retry budget, deferring the object to a serial
//! tail pass.
//!
//! The plan is deterministic: components are ordered by their first
//! object's position in the queue, and objects within a component keep
//! queue order — so a serial run (one worker draining components in
//! order) migrates in exactly the original queue order.

use crate::traversal::TraversalState;
use brahma::lockdep::{LockClass, Mutex};
use brahma::{PartitionId, PhysAddr};
use std::collections::{HashMap, VecDeque};

/// The planned waves: disjoint groups of queue objects, safe to migrate
/// concurrently (one worker per component at a time).
#[derive(Debug, Default)]
pub struct WavePlan {
    /// Independent components, ordered by first queue appearance; objects
    /// within a component are in queue order.
    pub components: Vec<Vec<PhysAddr>>,
    /// Scheduling groups: each entry is a set of component indices drained
    /// by a single worker, in ascending index order. [`plan_waves`] emits
    /// one singleton group per component; [`plan_waves_grouped`] merges
    /// anchor-bound components that share an external parent so one worker
    /// batches across them and the anchor is locked once per batch.
    pub groups: Vec<Vec<usize>>,
    /// Number of groups holding more than one component — i.e. how many
    /// shared external anchors the grouped planner actually coalesced.
    pub parent_groups: usize,
}

impl WavePlan {
    /// Total number of objects across all components.
    pub fn objects(&self) -> usize {
        self.components.iter().map(Vec::len).sum()
    }
}

/// Work-stealing claim queue for the parallel executor: one deque per
/// worker, component indices dealt round-robin so each worker starts on
/// its own run of the plan. A worker drains its own deque from the front;
/// when empty it steals from the *back* of the first non-empty victim, so
/// a worker stuck on a huge component no longer idles the rest of the
/// pool (the shared atomic cursor this replaces had exactly that
/// pathology). With one worker there is one deque and claim order is
/// exactly component order — the serial guarantee the module docs
/// describe. Deque locks never nest: each is released before the next is
/// probed.
pub struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Deal `components` component indices round-robin across `workers`
    /// deques (clamped to at least one).
    pub fn new(components: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        StealQueue {
            deques: (0..workers)
                .map(|w| {
                    let q: VecDeque<usize> = (w..components).step_by(workers).collect();
                    Mutex::new(LockClass::WaveDeque, w as u64, q)
                })
                .collect(),
        }
    }

    /// Claim the next component for `worker`: own front, else a victim's
    /// back. Returns the component index and whether it was stolen.
    pub fn claim(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(c) = self.deques[worker].lock().pop_front() {
            return Some((c, false));
        }
        let n = self.deques.len();
        for i in 1..n {
            let v = (worker + i) % n;
            if let Some(c) = self.deques[v].lock().pop_back() {
                return Some((c, true));
            }
        }
        None
    }
}

struct UnionFind {
    parent: Vec<usize>,
    /// Nodes under each root (only meaningful at root indices).
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        self.union_capped(a, b, usize::MAX);
    }

    /// Union `a` and `b` unless the merged component would exceed `cap`
    /// nodes; returns whether the sets are joined afterwards.
    fn union_capped(&mut self, a: usize, b: usize, cap: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        if self.size[ra].saturating_add(self.size[rb]) > cap {
            return false;
        }
        // Attach the larger root index under the smaller so roots stay
        // deterministic regardless of union order.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
        self.size[lo] += self.size[hi];
        true
    }
}

/// Partition `queue` into independent migration components (see module
/// docs). `queue` is the (already ordered) migration queue slice that
/// remains to be executed.
pub fn plan_waves(
    queue: &[PhysAddr],
    state: &TraversalState,
    partition: PartitionId,
) -> WavePlan {
    // Index every address that participates in a lock set: queue objects
    // and their same-partition parents (a shared parent connects two queue
    // objects even when the parent itself is not queued).
    let mut index: HashMap<PhysAddr, usize> = HashMap::new();
    let mut idx_of = |addr: PhysAddr, uf_len: &mut usize| -> usize {
        *index.entry(addr).or_insert_with(|| {
            let i = *uf_len;
            *uf_len += 1;
            i
        })
    };
    let mut n = 0usize;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut obj_idx: Vec<usize> = Vec::with_capacity(queue.len());
    for &obj in queue {
        let oi = idx_of(obj, &mut n);
        obj_idx.push(oi);
        for parent in state.parents_of(obj) {
            if parent.partition() == partition && parent != obj {
                let pi = idx_of(parent, &mut n);
                edges.push((oi, pi));
            }
        }
    }
    let mut uf = UnionFind::new(n);
    for (a, b) in edges {
        uf.union(a, b);
    }

    // Components ordered by first queue appearance, objects in queue order.
    let mut root_to_component: HashMap<usize, usize> = HashMap::new();
    let mut components: Vec<Vec<PhysAddr>> = Vec::new();
    for (pos, &obj) in queue.iter().enumerate() {
        let root = uf.find(obj_idx[pos]);
        let c = *root_to_component.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[c].push(obj);
    }
    let groups = (0..components.len()).map(|c| vec![c]).collect();
    WavePlan {
        components,
        groups,
        parent_groups: 0,
    }
}

/// Parent-group-aware planning ([`crate::order::MigrationOrder::ParentGroup`]).
///
/// Two refinements over [`plan_waves`], both aimed at the shared-anchor
/// workloads where the plain planner degenerates:
///
/// 1. **Size-capped union.** Same-partition parent edges are unioned in
///    ascending queue-distance order (unqueued hubs count as distance 0),
///    and a union that would push a component past `cap = max(32,
///    queue_len / (2 × workers))` is refused. Locality edges are short —
///    a traversal cluster is queue-contiguous — so real clusters
///    assemble first and stay whole, while the long random cross-cluster
///    "glue" references that otherwise chain the entire queue into one
///    component (four workers, one component, nothing to steal) arrive
///    late, find both sides already cap-sized, and are refused. A
///    refused edge becomes a runtime-resolved conflict —
///    exactly the retry / defer machinery that already handles external
///    parents — and the cap guarantees at least ~2×`workers` components
///    for the pool to balance over.
/// 2. **Anchor grouping.** Components where at least half the objects have
///    a cross-partition parent are *anchor-bound*: their migration cost is
///    dominated by locking the external anchor. Anchor-bound components
///    sharing an anchor merge into one scheduling group, drained by a
///    single worker whose batches span component boundaries — the anchor
///    is locked once per batch instead of fought over by every worker.
///    Components not anchor-bound stay singleton groups.
///
/// Determinism: edges sort by (distance, discovery order), groups are
/// ordered by their smallest component index, and components within a
/// group stay in index (= first queue appearance) order, so with one
/// worker execution remains in queue order.
pub fn plan_waves_grouped(
    queue: &[PhysAddr],
    state: &TraversalState,
    partition: PartitionId,
    workers: usize,
) -> WavePlan {
    let workers = workers.max(1);
    let cap = (queue.len() / (2 * workers)).max(32);
    let mut pos_of: HashMap<PhysAddr, usize> = HashMap::with_capacity(queue.len());
    for (pos, &obj) in queue.iter().enumerate() {
        pos_of.insert(obj, pos);
    }

    let mut index: HashMap<PhysAddr, usize> = HashMap::new();
    let mut idx_of = |addr: PhysAddr, uf_len: &mut usize| -> usize {
        *index.entry(addr).or_insert_with(|| {
            let i = *uf_len;
            *uf_len += 1;
            i
        })
    };
    let mut n = 0usize;
    let mut edges: Vec<(usize, usize, usize)> = Vec::new();
    let mut obj_idx: Vec<usize> = Vec::with_capacity(queue.len());
    for (pos, &obj) in queue.iter().enumerate() {
        let oi = idx_of(obj, &mut n);
        obj_idx.push(oi);
        for parent in state.parents_of(obj) {
            if parent.partition() == partition && parent != obj {
                // Queue distance ranks the edge: cluster-internal edges
                // are short, cross-cluster glue is long. Unqueued hubs
                // have no position and rank first (their children share a
                // definite lock-set overlap).
                let dist = match pos_of.get(&parent) {
                    Some(&ppos) => pos.abs_diff(ppos),
                    None => 0,
                };
                let pi = idx_of(parent, &mut n);
                edges.push((dist, oi, pi));
            }
        }
    }
    // Stable by distance: ties keep discovery (queue) order, so the plan
    // is a pure function of the queue and the parent map.
    edges.sort_by_key(|&(dist, _, _)| dist);
    let mut uf = UnionFind::new(n);
    for (_, a, b) in edges {
        uf.union_capped(a, b, cap);
    }

    let mut root_to_component: HashMap<usize, usize> = HashMap::new();
    let mut components: Vec<Vec<PhysAddr>> = Vec::new();
    for (pos, &obj) in queue.iter().enumerate() {
        let root = uf.find(obj_idx[pos]);
        let c = *root_to_component.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[c].push(obj);
    }

    // Anchor grouping: union-find over component indices, joined through
    // shared external anchors of anchor-bound components.
    let mut cuf = UnionFind::new(components.len());
    let mut anchor_owner: HashMap<PhysAddr, usize> = HashMap::new();
    for (c, comp) in components.iter().enumerate() {
        let mut anchors: Vec<PhysAddr> = Vec::new();
        let mut ext_children = 0usize;
        for &obj in comp {
            let mut any = false;
            for parent in state.parents_of(obj) {
                if parent.partition() != partition {
                    any = true;
                    anchors.push(parent);
                }
            }
            if any {
                ext_children += 1;
            }
        }
        if ext_children * 2 < comp.len() {
            continue; // not anchor-bound: locking cost is internal
        }
        anchors.sort_unstable();
        anchors.dedup();
        for anchor in anchors {
            match anchor_owner.get(&anchor) {
                Some(&owner) => cuf.union(owner, c),
                None => {
                    anchor_owner.insert(anchor, c);
                }
            }
        }
    }
    let mut root_to_group: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for c in 0..components.len() {
        let root = cuf.find(c);
        let g = *root_to_group.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(c);
    }
    let parent_groups = groups.iter().filter(|g| g.len() > 1).count();
    WavePlan {
        components,
        groups,
        parent_groups,
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
    fn disjoint_chains_form_separate_components() {
        let p = PartitionId(1);
        let (a1, a2, b1, b2) = (a(1, 0), a(1, 64), a(1, 128), a(1, 192));
        let state = TraversalState::default();
        state.add_parent(a2, a1);
        state.add_parent(b2, b1);
        let plan = plan_waves(&[a1, a2, b1, b2], &state, p);
        assert_eq!(plan.components, vec![vec![a1, a2], vec![b1, b2]]);
        assert_eq!(plan.objects(), 4);
    }

    #[test]
    fn shared_unqueued_parent_connects_components() {
        let p = PartitionId(1);
        let hub = a(1, 0); // same-partition parent, not in the queue
        let (x, y) = (a(1, 64), a(1, 128));
        let state = TraversalState::default();
        state.add_parent(x, hub);
        state.add_parent(y, hub);
        let plan = plan_waves(&[x, y], &state, p);
        assert_eq!(plan.components, vec![vec![x, y]]);
    }

    #[test]
    fn external_parents_do_not_merge_components() {
        let p = PartitionId(1);
        let root = a(0, 0); // cross-partition anchor shared by everything
        let (x, y) = (a(1, 0), a(1, 64));
        let state = TraversalState::default();
        state.add_parent(x, root);
        state.add_parent(y, root);
        let plan = plan_waves(&[x, y], &state, p);
        assert_eq!(plan.components.len(), 2, "external parents are runtime-resolved");
    }

    #[test]
    fn component_order_follows_first_queue_appearance() {
        let p = PartitionId(1);
        let (a1, b1, a2) = (a(1, 0), a(1, 64), a(1, 128));
        let state = TraversalState::default();
        state.add_parent(a2, a1);
        let plan = plan_waves(&[b1, a1, a2], &state, p);
        assert_eq!(plan.components, vec![vec![b1], vec![a1, a2]]);
    }

    #[test]
    fn empty_queue_plans_no_waves() {
        let state = TraversalState::default();
        let plan = plan_waves(&[], &state, PartitionId(1));
        assert!(plan.components.is_empty());
        assert_eq!(plan.objects(), 0);
        assert!(plan.groups.is_empty());
    }

    #[test]
    fn plain_plan_groups_are_singletons() {
        let p = PartitionId(1);
        let (a1, a2, b1, b2) = (a(1, 0), a(1, 64), a(1, 128), a(1, 192));
        let state = TraversalState::default();
        state.add_parent(a2, a1);
        state.add_parent(b2, b1);
        let plan = plan_waves(&[a1, a2, b1, b2], &state, p);
        assert_eq!(plan.groups, vec![vec![0], vec![1]]);
        assert_eq!(plan.parent_groups, 0);
    }

    #[test]
    fn shared_anchor_singletons_form_one_parent_group() {
        let p = PartitionId(1);
        let root = a(0, 0); // cross-partition anchor shared by everything
        let state = TraversalState::default();
        let queue: Vec<PhysAddr> = (0..8u16).map(|i| a(1, i * 64)).collect();
        for &obj in &queue {
            state.add_parent(obj, root);
        }
        let plan = plan_waves_grouped(&queue, &state, p, 4);
        assert_eq!(plan.components.len(), 8, "no same-partition edges");
        assert_eq!(plan.groups.len(), 1, "all components share the anchor");
        assert_eq!(plan.groups[0], (0..8).collect::<Vec<_>>());
        assert_eq!(plan.parent_groups, 1);
    }

    #[test]
    fn glue_edges_do_not_merge_cap_sized_clusters() {
        let p = PartitionId(1);
        let state = TraversalState::default();
        // Two queue-contiguous "clusters" of 100 chained objects each,
        // joined by one glue reference. cap = 200 / (2 × 1) = 100: each
        // chain's short edges assemble a full cluster first, then the
        // long glue edge finds 100 + 100 > 100 and is refused.
        let queue: Vec<PhysAddr> = (0..200u16).map(|i| a(1, i)).collect();
        for i in 1..100 {
            state.add_parent(queue[i], queue[i - 1]);
            state.add_parent(queue[100 + i], queue[100 + i - 1]);
        }
        state.add_parent(queue[199], queue[0]); // glue edge, distance 199
        let plan = plan_waves_grouped(&queue, &state, p, 1);
        assert_eq!(
            plan.components.len(),
            2,
            "the glue edge must stay a runtime conflict, not a union"
        );
        // Neither cluster is anchor-bound, so both stay singleton groups.
        assert_eq!(plan.groups, vec![vec![0], vec![1]]);
        assert_eq!(plan.parent_groups, 0);
    }

    #[test]
    fn cap_splits_oversized_chains_for_the_pool() {
        let p = PartitionId(1);
        let state = TraversalState::default();
        // One 128-object chain, 2 workers: cap = max(32, 128 / 4) = 32,
        // so the chain splits into four 32-object runs — enough
        // components for the pool to balance, conflicts at the three cut
        // points left to the runtime defer machinery.
        let queue: Vec<PhysAddr> = (0..128u16).map(|i| a(1, i)).collect();
        for i in 1..128 {
            state.add_parent(queue[i], queue[i - 1]);
        }
        let plan = plan_waves_grouped(&queue, &state, p, 2);
        assert_eq!(plan.components.len(), 4);
        assert!(plan.components.iter().all(|c| c.len() == 32));
        // Concatenating components in order reproduces the queue.
        let flat: Vec<PhysAddr> = plan.components.iter().flatten().copied().collect();
        assert_eq!(flat, queue);
    }

    #[test]
    fn near_edges_still_union_under_grouped_planner() {
        let p = PartitionId(1);
        let (a1, a2) = (a(1, 0), a(1, 64));
        let state = TraversalState::default();
        state.add_parent(a2, a1);
        let plan = plan_waves_grouped(&[a1, a2], &state, p, 4);
        assert_eq!(plan.components, vec![vec![a1, a2]]);
        assert_eq!(plan.groups, vec![vec![0]]);
    }

    #[test]
    fn anchor_bound_threshold_spares_big_clusters() {
        let p = PartitionId(1);
        let root = a(0, 0);
        let state = TraversalState::default();
        // One 8-object chain whose head alone hangs off the anchor (1/8
        // external children: not anchor-bound) plus two anchor-bound
        // singletons — only the singletons group.
        let chain: Vec<PhysAddr> = (0..8u16).map(|i| a(1, i * 64)).collect();
        for i in 1..8 {
            state.add_parent(chain[i], chain[i - 1]);
        }
        state.add_parent(chain[0], root);
        let (s1, s2) = (a(1, 1000), a(1, 1064));
        state.add_parent(s1, root);
        state.add_parent(s2, root);
        let queue: Vec<PhysAddr> = chain.iter().copied().chain([s1, s2]).collect();
        let plan = plan_waves_grouped(&queue, &state, p, 2);
        assert_eq!(plan.components.len(), 3);
        assert_eq!(plan.groups, vec![vec![0], vec![1, 2]]);
        assert_eq!(plan.parent_groups, 1);
    }
}
