//! Failure handling (Section 4.4): crash in the middle of a
//! reorganization, recover, resume.
//!
//! Each object migration runs in a transaction, so a crash never leaves a
//! half-migrated object: committed migrations survive restart recovery, the
//! in-flight one rolls back. The reorganizer checkpoints its traversal
//! state; after recovery the TRT is rebuilt from the log and the
//! reorganization continues with the objects not yet migrated.
//!
//! Run with: `cargo run --example crash_recovery`

use brahma::{recover, Database, FaultAction, FaultPlan, FaultRule, NewObject, StoreConfig};
use ira::{IraCheckpoint, IraError, Reorg};

fn main() {
    let db = Database::new(StoreConfig::default());
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
    let store_ckpt = db.checkpoint(1);

    // Run IRA with fault injection: "crash" at the 12th batch boundary,
    // i.e. after 12 migrations.
    db.fault.arm(FaultPlan::new(12).with(FaultRule::nth(
        ira::site::BATCH,
        12,
        FaultAction::Crash,
    )));
    let err = Reorg::on(&db, p1).run().expect_err("fault injection fires");
    let IraError::SimulatedCrash(ira_ckpt) = err else {
        panic!("expected a simulated crash");
    };
    println!(
        "crashed after {} of 30 migrations; reorganizer checkpoint captured \
         {} traversed objects",
        ira_ckpt.mapping.len(),
        ira_ckpt.state.order.len()
    );

    // The machine dies: all volatile state is gone. What survives is the
    // checkpoint, the flushed log, and the reorganizer's durable
    // checkpoint blob (written through the store at every batch boundary).
    drop(ira_ckpt);
    let image = db.crash(store_ckpt, false);
    let pre_crash_log = image.log.clone();
    drop(db);

    // Restart recovery: redo committed work from the checkpoint, roll back
    // losers, report the interrupted reorganization and hand back its
    // durable checkpoint.
    let outcome = recover(image, StoreConfig::default()).expect("recovery succeeds");
    println!(
        "recovery: {} loser transaction(s) rolled back; interrupted reorganizations: {:?}",
        outcome.losers.len(),
        outcome.interrupted_reorgs
    );
    assert_eq!(outcome.interrupted_reorgs, vec![p1]);
    let (_, blob) = outcome
        .reorg_checkpoints
        .iter()
        .find(|(p, _)| *p == p1)
        .expect("recovery surfaces the pending reorg checkpoint");
    let recovered_ckpt = IraCheckpoint::decode(blob).expect("checkpoint blob decodes");
    let db = outcome.db;

    // Resume: the TRT is rebuilt from the log, traversal state comes from
    // the decoded reorganizer checkpoint, and the remaining objects
    // migrate.
    let outcome = Reorg::on(&db, p1)
        .resume_from(recovered_ckpt, &pre_crash_log)
        .run()
        .expect("resume completes");
    println!(
        "resume migrated the remaining objects; total mapping now covers {} objects",
        outcome.migrated()
    );
    assert_eq!(outcome.migrated(), 30);

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
    ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
    println!("verification passed: chain of 30 intact after crash + resume.");
}
