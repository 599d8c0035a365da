//! Copying garbage collection over physical references (Section 4.6).
//!
//! "Our algorithm can perform both garbage collection and reorganization
//! and yet allow references to be physical, an ability that to the best of
//! our knowledge, no previous algorithm in the literature possesses."
//!
//! This example builds a partition, cuts some subtrees loose (creating
//! garbage, including a cycle that defeats reference counting), then runs
//! the partitioned copying collector: live objects are evacuated and
//! reclustered, everything left behind is reclaimed.
//!
//! Run with: `cargo run --example garbage_collection`

use brahma::{Database, LockMode, NewObject, StoreConfig};
use ira::{find_garbage, RelocationPlan, Reorg};

fn main() {
    let db = Database::new(StoreConfig::default());
    let p0 = db.create_partition();
    let p1 = db.create_partition();

    // A live chain anchored from p0, plus two subtrees we will cut loose.
    let mut txn = db.begin();
    let live_leaf = txn
        .create_object(p1, NewObject::exact(1, vec![], b"live".to_vec()))
        .unwrap();
    let live_mid = txn
        .create_object(p1, NewObject::exact(1, vec![live_leaf], vec![]))
        .unwrap();
    // One spare reference slot for the back-reference below.
    let doomed_leaf = txn
        .create_object(
            p1,
            NewObject {
                tag: 1,
                refs: vec![],
                ref_cap: 1,
                payload: b"doom".to_vec(),
                payload_cap: 0,
            },
        )
        .unwrap();
    let doomed_mid = txn
        .create_object(
            p1,
            NewObject {
                tag: 1,
                refs: vec![doomed_leaf],
                ref_cap: 2,
                payload: vec![],
                payload_cap: 0,
            },
        )
        .unwrap();
    // A garbage cycle: doomed_leaf -> doomed_mid -> doomed_leaf.
    let anchor = txn
        .create_object(p0, NewObject::exact(0, vec![live_mid, doomed_mid], vec![]))
        .unwrap();
    txn.commit().unwrap();
    let mut txn = db.begin();
    txn.lock(doomed_leaf, LockMode::Exclusive).unwrap();
    // doomed_leaf gets a back-reference, closing the cycle.
    txn.insert_ref(doomed_leaf, doomed_mid).unwrap();
    txn.commit().unwrap();

    // Cut the doomed subtree loose.
    let mut txn = db.begin();
    txn.lock(anchor, LockMode::Exclusive).unwrap();
    txn.delete_ref(anchor, doomed_mid).unwrap();
    txn.commit().unwrap();

    let garbage = find_garbage(&db, p1);
    println!(
        "partition {p1} holds {} objects, {} of them garbage: {garbage:?}",
        db.partition(p1).unwrap().object_count(),
        garbage.len()
    );

    // Collect: live objects are evacuated to a fresh partition, garbage is
    // reclaimed, and the source partition ends up empty.
    let target = db.create_partition();
    let outcome = Reorg::on(&db, p1)
        .plan(RelocationPlan::EvacuateTo(target))
        .run()
        .unwrap();
    let reclaimed = outcome.ira().unwrap().garbage.len();
    println!(
        "copying collector: {} live objects moved to {target}, {reclaimed} garbage objects reclaimed in {:.2?}",
        outcome.migrated(),
        outcome.duration
    );
    assert_eq!(outcome.migrated(), 2);
    assert_eq!(reclaimed, 2);
    assert_eq!(db.partition(p1).unwrap().object_count(), 0);

    // The live chain survived, reachable through the anchor.
    let live_mid_new = db.raw_read(anchor).unwrap().refs[0];
    let live_leaf_new = db.raw_read(live_mid_new).unwrap().refs[0];
    assert_eq!(db.raw_read(live_leaf_new).unwrap().payload, b"live".to_vec());
    brahma::sweep::assert_database_consistent(&db);
    println!("verification passed: live graph intact, source partition empty.");
}
