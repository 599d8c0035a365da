//! Property tests for the wave planner and the work-stealing claim queue.
//!
//! `plan_waves` promises three things the parallel executor relies on:
//! components are pairwise lock-set-disjoint within the reorganized
//! partition (so workers never serialize or deadlock on planned locks),
//! every queue object lands in exactly one component, and the plan is a
//! stable reordering of the queue (queue order within a component,
//! components by first appearance). The `StealQueue` adds the executor
//! half: with a single worker, claims come out in exact plan order, so a
//! conflict-free queue replays in exact queue order; with any worker
//! count, every component is claimed exactly once.

use brahma::{PartitionId, PhysAddr};
use ira::wave::{plan_waves, StealQueue};
use ira::TraversalState;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const P: PartitionId = PartitionId(1);

/// Queue objects live on page 0 of the reorganized partition.
fn obj(i: usize) -> PhysAddr {
    PhysAddr::new(P, 0, (i as u16) * 64)
}

/// Same-partition parents that are *not* queued (hubs) live on page 1.
fn hub(i: usize) -> PhysAddr {
    PhysAddr::new(P, 1, (i as u16) * 64)
}

/// Cross-partition anchors, which the planner must ignore.
fn external(i: usize) -> PhysAddr {
    PhysAddr::new(PartitionId(0), 0, (i as u16) * 64)
}

#[derive(Debug, Clone)]
struct WaveSpec {
    n: usize,
    /// Transposition list applied to the identity to shuffle the queue
    /// (swaps generate every permutation of 0..n).
    swaps: Vec<(usize, usize)>,
    /// (child index, parent code): codes 0..n are queued objects,
    /// n..n+8 are unqueued same-partition hubs, n+8..n+16 externals.
    edges: Vec<(usize, usize)>,
}

fn permute(n: usize, swaps: &[(usize, usize)]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for &(a, b) in swaps {
        perm.swap(a % n, b % n);
    }
    perm
}

fn wave_strategy() -> impl Strategy<Value = WaveSpec> {
    (1usize..24).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..n * 2),
            proptest::collection::vec((0..n, 0..n + 16), 0..n * 3),
        )
            .prop_map(|(n, swaps, edges)| WaveSpec { n, swaps, edges })
    })
}

fn build(spec: &WaveSpec) -> (Vec<PhysAddr>, TraversalState) {
    let state = TraversalState::default();
    for &(c, p) in &spec.edges {
        let child = obj(c);
        let parent = if p < spec.n {
            obj(p)
        } else if p < spec.n + 8 {
            hub(p - spec.n)
        } else {
            external(p - spec.n - 8)
        };
        if parent != child {
            state.add_parent(child, parent);
        }
    }
    let queue: Vec<PhysAddr> = permute(spec.n, &spec.swaps)
        .into_iter()
        .map(obj)
        .collect();
    (queue, state)
}

/// The planned lock set of one object: itself plus its same-partition
/// approximate parents (mirrors what a migration batch locks up front).
fn lock_set(state: &TraversalState, o: PhysAddr) -> HashSet<PhysAddr> {
    let mut s: HashSet<PhysAddr> = state
        .parents_of(o)
        .into_iter()
        .filter(|p| p.partition() == P)
        .collect();
    s.insert(o);
    s
}

/// Drain a `StealQueue` as the single worker of a one-worker pool,
/// asserting nothing is ever "stolen" (there is no victim).
fn drain_single(ncomponents: usize) -> Vec<usize> {
    let sq = StealQueue::new(ncomponents, 1);
    let mut order = Vec::new();
    while let Some((c, stolen)) = sq.claim(0) {
        assert!(!stolen, "a lone worker cannot steal from itself");
        order.push(c);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn planned_components_are_disjoint_and_cover_the_queue(spec in wave_strategy()) {
        let (queue, state) = build(&spec);
        let plan = plan_waves(&queue, &state, P);

        // Every queue object appears exactly once across all components.
        let flat: Vec<PhysAddr> = plan.components.iter().flatten().copied().collect();
        prop_assert_eq!(flat.len(), queue.len());
        let flat_set: HashSet<PhysAddr> = flat.iter().copied().collect();
        let queue_set: HashSet<PhysAddr> = queue.iter().copied().collect();
        prop_assert_eq!(flat.len(), flat_set.len(), "an object was planned twice");
        prop_assert_eq!(&flat_set, &queue_set);

        // Components are pairwise lock-set-disjoint within the partition —
        // including unqueued hub parents, which is exactly how two queue
        // objects that never reference each other can still conflict.
        let comp_sets: Vec<HashSet<PhysAddr>> = plan
            .components
            .iter()
            .map(|c| c.iter().flat_map(|&o| lock_set(&state, o)).collect())
            .collect();
        for i in 0..comp_sets.len() {
            for j in i + 1..comp_sets.len() {
                prop_assert!(
                    comp_sets[i].is_disjoint(&comp_sets[j]),
                    "components {} and {} share a planned lock: {:?}",
                    i,
                    j,
                    comp_sets[i].intersection(&comp_sets[j]).collect::<Vec<_>>()
                );
            }
        }

        // The plan is a stable reordering: objects within a component keep
        // queue order, components are ordered by first queue appearance.
        let pos: HashMap<PhysAddr, usize> =
            queue.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        for c in &plan.components {
            prop_assert!(c.windows(2).all(|w| pos[&w[0]] < pos[&w[1]]));
        }
        let firsts: Vec<usize> = plan.components.iter().map(|c| pos[&c[0]]).collect();
        prop_assert!(firsts.windows(2).all(|w| w[0] < w[1]));

        // A single worker claims components in exact plan order, so the
        // executed order is the concatenation of components in order.
        let claims = drain_single(plan.components.len());
        prop_assert_eq!(claims, (0..plan.components.len()).collect::<Vec<usize>>());
    }

    #[test]
    fn conflict_free_queue_replays_in_exact_queue_order(
        swaps in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
        anchors in proptest::collection::vec((0usize..20, 0usize..4), 0..40),
    ) {
        // Only cross-partition parents: every object is its own component,
        // so the single-worker executor's claim order concatenates to the
        // queue itself — the serial guarantee in the wave module docs.
        let state = TraversalState::default();
        for &(c, p) in &anchors {
            state.add_parent(obj(c), external(p));
        }
        let queue: Vec<PhysAddr> = permute(20, &swaps).into_iter().map(obj).collect();
        let plan = plan_waves(&queue, &state, P);
        prop_assert_eq!(plan.components.len(), queue.len());

        let executed: Vec<PhysAddr> = drain_single(plan.components.len())
            .into_iter()
            .flat_map(|c| plan.components[c].iter().copied())
            .collect();
        prop_assert_eq!(executed, queue);
    }

    #[test]
    fn steal_queue_claims_every_component_exactly_once(
        ncomponents in 0usize..40,
        nworkers in 1usize..6,
        picks in proptest::collection::vec(0usize..6, 0..80),
    ) {
        // Interleave claims from random workers, then drain the rest: no
        // component is lost or double-claimed regardless of schedule.
        let sq = StealQueue::new(ncomponents, nworkers);
        let mut claimed = Vec::new();
        for &p in &picks {
            if let Some((c, _)) = sq.claim(p % nworkers) {
                claimed.push(c);
            }
        }
        for w in 0..nworkers {
            while let Some((c, _)) = sq.claim(w) {
                claimed.push(c);
            }
        }
        let mut sorted = claimed.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..ncomponents).collect::<Vec<usize>>());
    }
}

#[test]
fn steal_queue_deals_round_robin_and_steals_from_the_back() {
    let sq = StealQueue::new(5, 2);
    // Worker 0 owns [0, 2, 4], worker 1 owns [1, 3]; both drain their own
    // deque front-first. Once worker 0 runs dry it takes the *back* of
    // worker 1's deque, leaving the victim its front (better locality for
    // the owner, colder work for the thief).
    assert_eq!(sq.claim(0), Some((0, false)));
    assert_eq!(sq.claim(1), Some((1, false)));
    assert_eq!(sq.claim(0), Some((2, false)));
    assert_eq!(sq.claim(0), Some((4, false)));
    assert_eq!(sq.claim(0), Some((3, true)), "thief takes the victim's back");
    assert_eq!(sq.claim(0), None);
    assert_eq!(sq.claim(1), None);
}
