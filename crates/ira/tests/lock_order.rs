//! The substrate's observed lock order, pinned (DESIGN.md §11.1). A real
//! workload runs under lockdep and every held-before edge it recorded must be
//! in `LOCK_ORDER`: a new nesting fails here until its author adds a line.
//! The `-> FaultState` rows are the classes a fault site may be evaluated under.
#![cfg(any(debug_assertions, feature = "lockdep"))]

use brahma::lockdep::{self, LockClass, LockClass::*};
use brahma::{Database, NewObject, PhysAddr, StoreConfig};
use harness::{run_cell, CrashCell};
use ira::Reorg;

const LOCK_ORDER: &[(LockClass, LockClass)] = &[
    (WalInner, FaultState),
    (WalInner, FileBackend),
    (PartitionAlloc, ErtInner),
    (PartitionAlloc, PartitionPages),
    (PartitionPages, PageLatch),
    (DbReorgTables, WalInner),
    (DbReorgTables, WalPins),
    (DbReorgTables, TrtInner),
    (DbReorgTables, DbReorgPins),
    (DbReorgTables, FaultState),
    (DbReorgTables, FileBackend),
    (DbReorgPins, WalPins),
    (FileBackend, FaultState),
];

/// A chain in one partition anchored from another, reorganized in batches of 3.
fn build_and_reorganize() {
    let db = Database::new(StoreConfig::default());
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let mut chain: Vec<PhysAddr> = Vec::new();
    for i in 0..12u8 {
        let mut t = db.begin();
        let refs = chain.last().map(|&p| vec![p]).unwrap_or_default();
        let object = NewObject::exact(i, refs, vec![i]);
        chain.push(t.create_object(p1, object).expect("chain"));
        t.commit().expect("chain");
    }
    let mut t = db.begin();
    let anchor = NewObject::exact(200, vec![chain[11], chain[6]], vec![1]);
    t.create_object(p0, anchor).expect("anchor");
    t.commit().expect("anchor");
    let outcome = Reorg::on(&db, p1).batch(3).run();
    assert!(outcome.expect("reorg").migrated() > 0);
}

#[test]
fn observed_lock_order_is_the_pinned_list() {
    // In release + `lockdep` a violation counts instead of panicking.
    let violations_before = lockdep::violations();
    build_and_reorganize();
    for (site, nth_hit) in [
        (ira::site::MIGRATE_COMMIT, 3),
        (brahma::fault::site::FILE_FSYNC, 12),
    ] {
        run_cell(&CrashCell {
            site,
            nth_hit,
            seed: 7,
        });
    }

    let observed = lockdep::dump_edges();
    for (from, to, chain) in &observed {
        assert!(
            LOCK_ORDER.contains(&(*from, *to)),
            "new lock nesting {from:?} -> {to:?} (chain: {chain}): \
             add it to LOCK_ORDER if it is intended"
        );
    }
    let seen = |a, b| observed.iter().any(|(f, t, _)| (*f, *t) == (a, b));
    // The checker is armed and the workload is real.
    assert!(seen(PartitionAlloc, PartitionPages));
    assert!(seen(WalInner, FileBackend));
    let violations = lockdep::violations() - violations_before;
    assert_eq!(violations, 0, "the workload must run clean under lockdep");
}
