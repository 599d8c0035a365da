//! Migrator tests: at any batch size and variant a run must leave a
//! database isomorphic to the original with every live object migrated
//! exactly once, checkpoint the exact queue position it reached, and
//! crash/resume correctly mid-queue.

use brahma::{
    recover, Database, FaultAction, FaultPlan, FaultRule, NewObject, PartitionId, PhysAddr,
    StoreConfig,
};
use harness::with_repro_banner;
use ira::verify::logical_fingerprint;
use ira::{IraCheckpoint, IraError, IraVariant, RelocationPlan, Reorg};

/// A deterministic forest of anchored chains in `p1`. One garbage object
/// rides along for the collection phase.
struct Forest {
    p1: PartitionId,
    anchors: Vec<PhysAddr>,
    live: usize,
}

fn build_forest(db: &Database, chains: usize, chain_len: usize) -> Forest {
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let mut anchors = Vec::new();
    for c in 0..chains {
        let mut prev: Option<PhysAddr> = None;
        let mut mid: Option<PhysAddr> = None;
        for i in 0..chain_len {
            let mut t = db.begin();
            let refs = prev.map(|p| vec![p]).unwrap_or_default();
            let a = t
                .create_object(
                    p1,
                    NewObject {
                        tag: (c % 250) as u8,
                        refs,
                        ref_cap: 4,
                        payload: vec![c as u8, i as u8, (c * 31 + i) as u8],
                        payload_cap: 8,
                    },
                )
                .expect("forest build");
            t.commit().expect("forest build");
            if i == chain_len / 2 {
                mid = Some(a);
            }
            prev = Some(a);
        }
        // Anchor sees the head and the middle of its chain: two entry
        // points, one diamond per chain.
        let mut t = db.begin();
        let anchor = t
            .create_object(
                p0,
                NewObject {
                    tag: 200,
                    refs: vec![prev.unwrap(), mid.unwrap()],
                    ref_cap: 4,
                    payload: vec![c as u8],
                    payload_cap: 8,
                },
            )
            .expect("forest build");
        t.commit().expect("forest build");
        anchors.push(anchor);
    }
    let mut t = db.begin();
    t.create_object(p1, NewObject::exact(9, vec![], b"junk".to_vec()))
        .expect("forest build");
    t.commit().expect("forest build");
    Forest {
        p1,
        anchors,
        live: chains * chain_len,
    }
}

/// The defining property of the migrator: for any batch size and variant,
/// the post-reorganization live graph is isomorphic to the original, and
/// every live object migrated exactly once.
#[test]
fn reorganized_graph_is_isomorphic_to_original() {
    let (chains, chain_len) = (8, 12);
    for variant in [IraVariant::Basic, IraVariant::TwoLock] {
        for batch in [1, 8] {
            let cell = format!("batch:{batch},variant:{variant:?}");
            with_repro_banner(
                &format!("SEED=none CELL={cell},chains:{chains},chain_len:{chain_len}"),
                || {
                    let db = Database::new(StoreConfig::default());
                    let forest = build_forest(&db, chains, chain_len);
                    let reference = logical_fingerprint(&db, &forest.anchors);
                    let outcome = Reorg::on(&db, forest.p1)
                        .variant(variant)
                        .batch(batch)
                        .run()
                        .unwrap();
                    assert_eq!(outcome.migrated(), forest.live, "{cell}");
                    assert_eq!(
                        logical_fingerprint(&db, &forest.anchors),
                        reference,
                        "{cell}: reorganization must preserve the graph"
                    );
                    ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
                    brahma::sweep::assert_database_consistent(&db);
                },
            );
        }
    }
}

/// Deterministic mid-queue crash: the checkpoint carries the exact queue
/// position — the batch boundary the crash fired at — and the resume
/// completes from there to a graph isomorphic to the original.
#[test]
fn crash_mid_queue_checkpoints_exact_position_and_resumes() {
    let (chains, chain_len) = (6, 8);
    for batch in [2, 4] {
        with_repro_banner(
            &format!("SEED=none CELL=crash_mid_queue,chains:{chains},chain_len:{chain_len},batch:{batch}"),
            || crash_mid_queue_body(chains, chain_len, batch),
        );
    }
}

fn crash_mid_queue_body(chains: usize, chain_len: usize, batch: usize) {
    let db = Database::new(StoreConfig::default());
    let forest = build_forest(&db, chains, chain_len);
    let reference = logical_fingerprint(&db, &forest.anchors);
    let store_ckpt = db.checkpoint(0xAF_u64);

    // The first batch boundary at or past half the queue.
    let crash_batch = (chains * chain_len / 2 - 1).div_ceil(batch);
    db.fault.arm(FaultPlan::new(0xAF).with(FaultRule::nth(
        ira::site::BATCH,
        crash_batch as u64,
        FaultAction::Crash,
    )));
    let err = Reorg::on(&db, forest.p1).batch(batch).run().unwrap_err();
    let ckpt = match err {
        IraError::SimulatedCrash(c) => c,
        other => panic!("expected a simulated crash, got {other}"),
    };
    assert!(
        !ckpt.mapping.is_empty() && ckpt.mapping.len() < forest.live,
        "the crash must land mid-run ({} of {} migrated)",
        ckpt.mapping.len(),
        forest.live
    );
    assert_eq!(ckpt.pos, crash_batch * batch);
    assert_eq!(ckpt.mapping.len(), ckpt.pos, "every queued object was live");

    let image = db.crash(store_ckpt, true);
    let blob = image
        .reorg_checkpoints
        .iter()
        .find(|(p, _)| *p == forest.p1)
        .map(|(_, b)| b.clone())
        .expect("crash image carries the durable reorg checkpoint");
    let pre_crash_log = image.log.clone();
    drop(db);

    let out = recover(image, StoreConfig::default()).expect("recovery");
    assert_eq!(out.interrupted_reorgs, vec![forest.p1]);
    let recovered = IraCheckpoint::decode(&blob).expect("checkpoint decode");
    let db = out.db;

    let outcome = Reorg::on(&db, forest.p1)
        .resume_from(recovered, &pre_crash_log)
        .run()
        .expect("resume after mid-queue crash");
    assert_eq!(outcome.migrated(), forest.live);
    assert_eq!(
        logical_fingerprint(&db, &forest.anchors),
        reference,
        "resumed run must reproduce the original graph"
    );
    ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
    brahma::sweep::assert_database_consistent(&db);
}

/// `checkpoint_every(n)` saves one reorganizer checkpoint at every `n`-th
/// batch boundary.
#[test]
fn checkpoint_every_saves_at_every_nth_batch() {
    let batch = 2;
    for every in [1, 2] {
        let db = Database::new(StoreConfig::default());
        let forest = build_forest(&db, 3, 4);
        // An empty plan fires nothing; arming is what makes sites count hits.
        db.fault.arm(brahma::FaultPlan::new(0));
        let outcome = Reorg::on(&db, forest.p1)
            .batch(batch)
            .checkpoint_every(every)
            .run()
            .unwrap();
        assert_eq!(outcome.migrated(), forest.live);
        assert_eq!(
            db.fault.hits(ira::site::CHECKPOINT),
            (forest.live.div_ceil(batch) / every) as u64,
            "every={every}"
        );
    }
}

/// `external_parent_locks` counts out-of-partition *parents*: six objects
/// of `p1` with eight external parent edges from four parents in `p0`, no
/// edges among themselves. One batch per object locks 8 parents in all,
/// one batch for everything locks the 4 distinct ones — under either plan:
/// that `EvacuateTo` also puts the copies outside `p1` adds nothing.
#[test]
fn evacuation_counts_external_parents_not_copies() {
    for evacuate in [false, true] {
        for (batch, expect) in [(1, 8), (6, 4)] {
            let db = Database::new(StoreConfig::default());
            let p0 = db.create_partition();
            let p1 = db.create_partition();
            let p2 = db.create_partition();
            let mut t = db.begin();
            let objs: Vec<PhysAddr> = (0..6u8)
                .map(|i| t.create_object(p1, NewObject::exact(1, vec![], vec![i])).unwrap())
                .collect();
            for j in 0..3 {
                let refs = vec![objs[j], objs[j + 3]];
                t.create_object(p0, NewObject::exact(2, refs, vec![])).unwrap();
            }
            let refs = vec![objs[0], objs[1]];
            t.create_object(p0, NewObject::exact(2, refs, vec![])).unwrap();
            t.commit().unwrap();

            let plan = if evacuate {
                RelocationPlan::EvacuateTo(p2)
            } else {
                RelocationPlan::CompactInPlace
            };
            let outcome = Reorg::on(&db, p1).plan(plan).batch(batch).run().unwrap();
            assert_eq!(outcome.migrated(), 6);
            assert_eq!(
                outcome.ira().unwrap().external_parent_locks,
                expect,
                "evacuate:{evacuate},batch:{batch}"
            );
            brahma::sweep::assert_database_consistent(&db);
        }
    }
}
