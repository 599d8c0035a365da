//! Property tests for the partition allocator: arbitrary interleavings of
//! `allocate`, `free`, object moves and reorganization passes
//! (`begin_pass`/`end_pass`) never hand out overlapping space, never lose
//! bytes, keep the object directory exact, never allocate below a running
//! pass's floor, and drop every page below the floor once the pass has
//! moved everything off it.

use brahma::{PartitionId, PhysAddr, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

use brahma::Partition;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object of `16 + size % 2000` bytes.
    Alloc(usize),
    /// Free the i-th live object (modulo count).
    Free(usize),
    /// Move the i-th live object as a migration does: allocate a copy of
    /// the same size, then free the original.
    Move(usize),
    /// Open a pass (no-op inside one).
    BeginPass,
    /// Close the running pass (no-op outside one).
    EndPass,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..4000).prop_map(Op::Alloc),
        2 => any::<usize>().prop_map(Op::Free),
        2 => any::<usize>().prop_map(Op::Move),
        1 => Just(Op::BeginPass),
        1 => Just(Op::EndPass),
    ]
}

/// Allocate `size` bytes, checking the address against the live objects
/// and, inside a pass, against its floor.
fn alloc(
    part: &Partition,
    size: usize,
    live: &HashMap<PhysAddr, usize>,
    floor: Option<u32>,
) -> PhysAddr {
    let addr = part.allocate(size).unwrap();
    for (&other, &osz) in live {
        if other.page() == addr.page() {
            let (a0, a1) = (addr.offset() as usize, addr.offset() as usize + size);
            let (b0, b1) = (other.offset() as usize, other.offset() as usize + osz);
            prop_assert!(
                a1 <= b0 || b1 <= a0,
                "overlap: {addr}+{size} vs {other}+{osz}"
            );
        }
    }
    if let Some(floor) = floor {
        prop_assert!(
            addr.page() >= floor,
            "{addr} allocated below the pass floor {floor}"
        );
    }
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn allocator_never_overlaps_and_never_loses_space(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let part = Partition::new(PartitionId(3));
        // Model: live object -> size.
        let mut live: HashMap<PhysAddr, usize> = HashMap::new();
        let mut order: Vec<PhysAddr> = Vec::new();
        // The running pass: its floor and the objects live when it began
        // that it has not moved or freed yet.
        let mut pass: Option<(u32, HashSet<PhysAddr>)> = None;

        for op in ops {
            let floor = pass.as_ref().map(|(f, _)| *f);
            match op {
                Op::Alloc(sz) => {
                    let size = 16 + sz % 2000;
                    let addr = alloc(&part, size, &live, floor);
                    live.insert(addr, size);
                    order.push(addr);
                }
                Op::Free(i) if !order.is_empty() => {
                    let addr = order.remove(i % order.len());
                    let size = live.remove(&addr).unwrap();
                    let freed = part.free(addr).unwrap();
                    prop_assert_eq!(freed as usize, size, "free returns the exact size");
                    if let Some((_, unmoved)) = &mut pass {
                        unmoved.remove(&addr);
                    }
                }
                Op::Move(i) if !order.is_empty() => {
                    let at = i % order.len();
                    let old = order[at];
                    let size = live[&old];
                    let copy = alloc(&part, size, &live, floor);
                    part.free(old).unwrap();
                    live.remove(&old);
                    live.insert(copy, size);
                    order[at] = copy;
                    if let Some((_, unmoved)) = &mut pass {
                        unmoved.remove(&old);
                    }
                }
                Op::BeginPass if pass.is_none() => {
                    let floor = part.begin_pass();
                    prop_assert_eq!(floor, part.page_base() + part.page_count());
                    pass = Some((floor, live.keys().copied().collect()));
                }
                Op::BeginPass => {
                    // A pass already open keeps its floor, as a restart does.
                    let open = pass.as_ref().map(|(floor, _)| *floor);
                    prop_assert_eq!(Some(part.begin_pass()), open);
                }
                Op::EndPass => {
                    if let Some((floor, unmoved)) = pass.take() {
                        let base = part.end_pass();
                        prop_assert_eq!(base, part.page_base());
                        prop_assert!(live.keys().all(|a| a.page() >= base));
                        if unmoved.is_empty() {
                            prop_assert_eq!(
                                base,
                                floor,
                                "a pass that moved everything left a page below its floor"
                            );
                        }
                    }
                }
                _ => {}
            }
            prop_assert_eq!(part.allocator_problems(), Vec::<String>::new());
            // Directory always matches the model.
            let mut dir = part.live_objects();
            dir.sort_unstable();
            let mut model: Vec<PhysAddr> = live.keys().copied().collect();
            model.sort_unstable();
            prop_assert_eq!(dir, model);
        }

        // Space accounting: live bytes match, and used + free space never
        // exceeds the held pages' capacity.
        let stats = part.space_stats();
        prop_assert_eq!(stats.live_objects, live.len());
        prop_assert_eq!(stats.used_bytes, live.values().map(|&s| s as u64).sum::<u64>());
        prop_assert!(stats.used_bytes + stats.free_extent_bytes
            <= stats.pages as u64 * PAGE_SIZE as u64);
    }

    /// Freeing everything coalesces each page back to at most a handful of
    /// extents (bump tails can keep pages from being a single run, but
    /// fragmentation must not persist).
    #[test]
    fn full_free_coalesces(ops in proptest::collection::vec(0usize..2000, 1..80)) {
        let part = Partition::new(PartitionId(0));
        let addrs: Vec<PhysAddr> = ops.iter().map(|&s| part.allocate(16 + s).unwrap()).collect();
        for a in addrs {
            part.free(a).unwrap();
        }
        let stats = part.space_stats();
        prop_assert_eq!(stats.live_objects, 0);
        prop_assert!(
            stats.free_extents as u32 <= stats.pages,
            "after freeing everything each page holds one extent: {stats:?}"
        );
    }
}
