//! Quickstart: create a small object database with physical references,
//! reorganize one partition on-line with IRA, and watch every parent's
//! reference get rewritten.
//!
//! Run with: `cargo run --example quickstart`

use brahma::{Database, LockMode, NewObject, StoreConfig};
use ira::Reorg;

fn main() {
    // A database with two partitions: external parents live in p0, the
    // objects we will migrate live in p1.
    let db = Database::new(StoreConfig::default());
    let p0 = db.create_partition();
    let p1 = db.create_partition();

    // Build a little graph. References are *physical*: the u64 stored in a
    // parent is the child's actual (partition, page, offset).
    let mut txn = db.begin();
    let leaf = txn
        .create_object(p1, NewObject::exact(0, vec![], b"leaf".to_vec()))
        .unwrap();
    let mid = txn
        .create_object(p1, NewObject::exact(0, vec![leaf], b"mid".to_vec()))
        .unwrap();
    let parent = txn
        .create_object(p0, NewObject::exact(0, vec![mid], b"parent".to_vec()))
        .unwrap();
    txn.commit().unwrap();

    println!("before reorganization:");
    println!("  leaf   @ {leaf}");
    println!("  mid    @ {mid}   (references {leaf})");
    println!("  parent @ {parent}   (references {mid}, cross-partition)");
    println!(
        "  p1's External Reference Table knows the incoming edge: {:?}",
        db.partition(p1).unwrap().ert.parents_of(mid)
    );

    // Reorganize p1 on-line: every live object moves; parents (wherever
    // they are) get their references rewritten; at most the parents of one
    // object are locked at a time. `Reorg::on` defaults to incremental
    // (basic IRA), compacting in place, one object per batch.
    let outcome = Reorg::on(&db, p1).run().unwrap();

    println!("\nafter IRA ({} objects migrated):", outcome.migrated());
    for (old, new) in &outcome.mapping {
        println!("  {old} -> {new}");
    }

    // The parent in p0 now points at mid's new address — transparently.
    let mut txn = db.begin();
    txn.lock(parent, LockMode::Shared).unwrap();
    let refs = txn.read_refs(parent).unwrap();
    txn.commit().unwrap();
    println!("  parent now references {}", refs[0]);
    assert_eq!(refs[0], outcome.mapping[&mid]);

    // Full verification: no dangling references anywhere, ERTs exact.
    ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
    println!("\nverification passed: no dangling references, ERTs exact.");
}
