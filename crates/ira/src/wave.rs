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
//!
//! How much there is to run in parallel is a property of the graph, not
//! of the planner: on the paper's Table-1 graph every node's extra edge
//! chains the clusters into **one** component, so the pool clamps to one
//! migrator ([`crate::IraReport::workers`] says so) and the throughput
//! lever is the paper's own, batching (Section 4.3, `Reorg::batch`).
//! DESIGN.md §10.1 has the numbers.

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
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
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
        let (ra, rb) = (self.find(a), self.find(b));
        // Attach the larger root index under the smaller so roots stay
        // deterministic regardless of union order.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
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
    WavePlan { components }
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
    }
}
