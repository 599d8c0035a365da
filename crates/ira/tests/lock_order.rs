//! A real workload — a batched IRA pass, then crash cells on the migration
//! commit and a file fsync — runs with zero lockdep violations: every
//! nesting it takes is in the declared order (DESIGN.md §11.1). In
//! `--release --features lockdep` a violation counts instead of panicking,
//! so the counter itself is asserted.
#![cfg(any(debug_assertions, feature = "lockdep"))]

use brahma::lockdep;
use brahma::{Database, NewObject, PhysAddr, StoreConfig};
use harness::{run_cell, CrashCell};
use ira::Reorg;

/// A chain in one partition anchored from another, reorganized in batches of
/// 3.
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
fn a_real_workload_keeps_the_declared_order() {
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
    let violations = lockdep::violations() - violations_before;
    assert_eq!(violations, 0, "the workload must run clean under lockdep");
}
