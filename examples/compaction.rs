//! Compaction: the paper's first motivating utility (Section 1).
//!
//! "Continuous allocation and deallocation of space for variable length
//! objects can result in fragmentation. Compaction gets rid of
//! fragmentation by migrating objects to a different location and packing
//! them closely."
//!
//! This example fragments a partition — keeper objects interleaved with
//! variable-length fillers that are later freed, leaving hundreds of holes
//! the allocator cannot coalesce — then runs IRA's in-place compaction
//! *while a workload keeps running*, and prints the space statistics
//! before and after.
//!
//! Run with: `cargo run --release --example compaction`

use brahma::{Database, LockMode, NewObject, StoreConfig};
use ira::Reorg;
use std::sync::Arc;
use workload::{build_graph, start_workload, WorkloadParams};

fn main() {
    let db = Arc::new(Database::new(StoreConfig::default()));
    let params = WorkloadParams {
        num_partitions: 4,
        objs_per_partition: 1020,
        mpl: 8,
        ..WorkloadParams::default()
    };
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let target = info.data_partitions[0];

    // Fragment the partition: alternate live "keeper" objects with fillers
    // of the same size class, then free every filler. Under the BiBOP
    // allocator every hole is an isolated one-slot gap pinned between two
    // keeper slots on the same page — reusable only by same-class
    // allocations, never mergeable while the keepers stay put.
    let mut keepers = Vec::new();
    let mut fillers = Vec::new();
    let mut txn = db.begin();
    for round in 0..400usize {
        keepers.push(
            txn.create_object(target, NewObject::exact(7, vec![], vec![0xAA; 40]))
                .unwrap(),
        );
        let size = 20 + (round % 3) * 10;
        fillers.push(
            txn.create_object(target, NewObject::exact(99, vec![], vec![0xEE; size]))
                .unwrap(),
        );
    }
    // Keepers are live: anchor them from the root partition.
    txn.create_object(
        info.root_partition,
        NewObject::exact(0, keepers.clone(), vec![]),
    )
    .unwrap();
    txn.commit().unwrap();
    for f in fillers {
        let mut txn = db.begin();
        txn.lock(f, LockMode::Exclusive).unwrap();
        txn.delete_object(f).unwrap();
        txn.commit().unwrap();
    }

    let before = db.partition(target).unwrap().space_stats();
    println!(
        "before compaction: {} live objects, {} pages, {} free extents ({} free bytes)",
        before.live_objects, before.pages, before.free_extents, before.free_extent_bytes
    );

    // Compact on-line: the workload keeps running the whole time.
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    let outcome = Reorg::on(&db, target)
        .batch(8)
        .run()
        .expect("compaction completes under load");
    let metrics = handle.stop_and_join().summarize();

    let after = db.partition(target).unwrap().space_stats();
    println!(
        "after compaction:  {} live objects, {} pages, {} free extents ({} free bytes)",
        after.live_objects, after.pages, after.free_extents, after.free_extent_bytes
    );
    let report = outcome.ira().unwrap();
    println!(
        "  {} objects migrated in {:.2?}; \
         workload committed {} transactions meanwhile (avg response {:.1} ms)",
        outcome.migrated(),
        outcome.duration,
        metrics.committed,
        metrics.avg_ms
    );
    assert_eq!(after.live_objects, before.live_objects);
    assert!(
        after.free_extents * 4 <= before.free_extents,
        "compaction must coalesce the holes ({} -> {})",
        before.free_extents,
        after.free_extents
    );
    ira::verify::assert_reorganization_clean(&db, report);
    println!("verification passed.");
}
