//! Failure handling (Section 4.4): crash in the middle of a
//! reorganization, recover, restart.
//!
//! Each object migration runs in a transaction, so a crash never leaves a
//! half-migrated object: committed migrations survive restart recovery, the
//! in-flight one rolls back. Recovery reopens the interrupted pass at its
//! page floor. The committed copies lie at or above it, and what still has
//! to move lies below it, so the restarted reorganization keeps the copies
//! and moves only the rest.
//!
//! The store lives in a scratch directory under the system temp dir;
//! dropping it is the crash and `brahma::storage::open` the restart.
//!
//! Run with: `cargo run --example crash_recovery`

use brahma::{FaultAction, FaultPlan, FaultRule, NewObject, StoreConfig};
use ira::{IraError, Reorg};

fn main() {
    let dir = std::env::temp_dir().join(format!("crash-recovery-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        data_dir: Some(dir.clone()),
        ..StoreConfig::default()
    };
    let db = brahma::storage::open(config.clone())
        .expect("fresh open")
        .db;
    let p0 = db.create_partition();
    let p1 = db.create_partition();

    // Thirty chained objects anchored from p0.
    let mut txn = db.begin();
    let mut prev = None;
    for i in 0..30u8 {
        let refs = prev.map(|p| vec![p]).unwrap_or_default();
        prev = Some(
            txn.create_object(p1, NewObject::exact(1, refs, vec![i; 24]))
                .unwrap(),
        );
    }
    let anchor = txn
        .create_object(p0, NewObject::exact(0, vec![prev.unwrap()], vec![]))
        .unwrap();
    txn.commit().unwrap();

    // A storage-level checkpoint (pages + allocator + ERTs) at a quiescent
    // point; everything after it will be replayed from the log.
    db.checkpoint_durable(1).expect("durable checkpoint");

    // Run IRA with fault injection: "crash" at the 12th batch boundary,
    // i.e. after 12 migrations.
    db.fault
        .arm(FaultPlan::new(12).with(FaultRule::nth(ira::site::BATCH, 12, FaultAction::Crash)));
    let err = Reorg::on(&db, p1).run().expect_err("fault injection fires");
    assert!(matches!(err, IraError::SimulatedCrash));
    println!("crashed at the 12th batch boundary, after 12 of 30 migrations");

    // The process dies: all volatile state is gone. What survives is the
    // checkpoint file and the log segments.
    drop(db);

    // Restart recovery: redo committed work from the checkpoint, roll back
    // losers, and report the interrupted reorganization, its pass open
    // again at the floor it logged.
    let outcome = brahma::storage::open(config).expect("recovery succeeds");
    println!(
        "recovery: {} loser transaction(s) rolled back; interrupted reorganizations: {:?}",
        outcome.losers.len(),
        outcome.interrupted_reorgs
    );
    assert_eq!(outcome.interrupted_reorgs, vec![p1]);
    let db = &outcome.db;
    let part = db.partition(p1).unwrap();
    let floor = part.pass_floor().expect("the interrupted pass is open");
    let kept = part
        .live_objects()
        .into_iter()
        .filter(|a| a.page() >= floor)
        .count();

    // Restart: the same call as a fresh run. It keeps the copies above the
    // floor and moves the objects below it.
    let restarted = Reorg::on(db, p1).run().expect("restart completes");
    println!(
        "restart kept {kept} objects the crashed run had placed and migrated the other {}",
        restarted.migrated()
    );
    assert_eq!(kept, 12);
    assert_eq!(restarted.migrated(), 30 - kept);

    // The whole chain is reachable and intact.
    let mut cur = db.raw_read(anchor).unwrap().refs[0];
    let mut count = 0;
    loop {
        let v = db.raw_read(cur).unwrap();
        count += 1;
        match v.refs.first() {
            Some(&next) => cur = next,
            None => break,
        }
    }
    assert_eq!(count, 30);
    ira::verify::assert_reorganization_clean(db, restarted.ira().unwrap());
    println!("verification passed: chain of 30 intact after crash + restart.");
    drop(outcome);
    let _ = std::fs::remove_dir_all(&dir);
}
