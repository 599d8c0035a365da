//! Property tests for the partition allocator: arbitrary interleavings of
//! `allocate`, `free`, `free_deferred`/`flush_deferred_frees`, and
//! `alloc_at` never hand out overlapping space, never lose bytes, keep the
//! object directory exact, and give every page a flush leaves empty back to
//! all size classes.

use brahma::{PartitionId, PhysAddr, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;

use brahma::Partition;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object of `16 + size % 2000` bytes.
    Alloc(usize),
    /// Free the i-th live object (modulo count).
    Free(usize),
    /// Defer-free the i-th live object.
    FreeDeferred(usize),
    /// Release all deferred space.
    Flush,
    /// Withhold all free space.
    DeferAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..4000).prop_map(Op::Alloc),
        2 => any::<usize>().prop_map(Op::Free),
        1 => any::<usize>().prop_map(Op::FreeDeferred),
        1 => Just(Op::Flush),
        1 => Just(Op::DeferAll),
    ]
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

        for op in ops {
            let flushed = matches!(op, Op::Flush);
            match op {
                Op::Alloc(sz) => {
                    let size = 16 + sz % 2000;
                    let addr = part.allocate(size).unwrap();
                    // No overlap with any live object.
                    for (&other, &osz) in &live {
                        if other.page() == addr.page() {
                            let (a0, a1) = (addr.offset() as usize, addr.offset() as usize + size);
                            let (b0, b1) = (other.offset() as usize, other.offset() as usize + osz);
                            prop_assert!(a1 <= b0 || b1 <= a0,
                                "overlap: {addr}+{size} vs {other}+{osz}");
                        }
                    }
                    live.insert(addr, size);
                    order.push(addr);
                }
                Op::Free(i) if !order.is_empty() => {
                    let addr = order.remove(i % order.len());
                    let size = live.remove(&addr).unwrap();
                    let freed = part.free(addr).unwrap();
                    prop_assert_eq!(freed as usize, size, "free returns the exact size");
                }
                Op::FreeDeferred(i) if !order.is_empty() => {
                    let addr = order.remove(i % order.len());
                    live.remove(&addr).unwrap();
                    part.free_deferred(addr).unwrap();
                    prop_assert!(!part.contains_object(addr));
                }
                Op::Flush => {
                    part.flush_deferred_frees();
                    // Mixed-class reuse: a page the flush left holding
                    // nothing takes an object of any class — here one that
                    // needs a page to itself — without the partition
                    // growing.
                    let pages = part.page_count();
                    if (0..pages).any(|pg| live.keys().all(|a| a.page() != pg)) {
                        let addr = part.allocate(PAGE_SIZE).unwrap();
                        prop_assert_eq!(part.page_count(), pages, "an empty page was not reused");
                        prop_assert!(live.keys().all(|a| a.page() != addr.page()));
                        live.insert(addr, PAGE_SIZE);
                        order.push(addr);
                    }
                }
                Op::DeferAll => part.defer_all_free_space(),
                _ => {}
            }
            // After a flush no classed page is wholly empty; at all times
            // no free-list entry names a spare.
            prop_assert_eq!(part.allocator_problems(flushed), Vec::<String>::new());
            // Directory always matches the model.
            let mut dir = part.live_objects();
            dir.sort_unstable();
            let mut model: Vec<PhysAddr> = live.keys().copied().collect();
            model.sort_unstable();
            prop_assert_eq!(dir, model);
        }

        // Space accounting: live bytes match; after a flush, used + free
        // accounts for all opened pages' space that was ever touched.
        let stats = part.space_stats();
        prop_assert_eq!(stats.live_objects, live.len());
        prop_assert_eq!(stats.used_bytes, live.values().map(|&s| s as u64).sum::<u64>());
        part.flush_deferred_frees();
        let stats = part.space_stats();
        // Used + free extents never exceed the opened pages' capacity.
        prop_assert!(stats.used_bytes + stats.free_extent_bytes
            <= stats.pages as u64 * PAGE_SIZE as u64);
    }

    /// Freeing everything and flushing coalesces each page back to at most
    /// a handful of extents (bump tails can keep pages from being a single
    /// run, but fragmentation must not persist).
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
