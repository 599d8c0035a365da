//! Migrator tests: at any batch size and variant a run must leave a
//! database isomorphic to the original with every live object migrated
//! exactly once, and a pass crashed mid-queue must restart from its floor,
//! moving only what the crashed run had not placed.

use brahma::{
    Database, FaultAction, FaultPlan, FaultRule, NewObject, PartitionId, PhysAddr, StoreConfig,
};
use harness::with_repro_banner;
use ira::verify::logical_fingerprint;
use ira::{IraError, IraVariant, RelocationPlan, Reorg};

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

/// A file-backed store in its own scratch directory, and the config that
/// reopens it.
fn durable_store(tag: &str) -> (Database, StoreConfig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ira-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        data_dir: Some(dir.clone()),
        ..StoreConfig::default()
    };
    let db = brahma::storage::open(config.clone())
        .expect("fresh open")
        .db;
    (db, config, dir)
}

/// Live objects of `p` below the floor of its open pass, and at or above
/// it: what a restart has still to move, and what the crashed run placed.
fn split_at_floor(db: &Database, p: PartitionId) -> (usize, usize) {
    let part = db.partition(p).expect("partition");
    let floor = part.pass_floor().expect("an interrupted pass is open");
    let live = part.live_objects();
    let below = live.iter().filter(|a| a.page() < floor).count();
    (below, live.len() - below)
}

/// Deterministic mid-queue crash: the first batch boundary at or past half
/// the queue kills the run, and the reopened store restarts the pass from
/// its floor. The restart moves exactly the reachable objects still below
/// the floor, collects the one garbage object, and leaves a graph
/// isomorphic to the original.
#[test]
fn a_pass_crashed_at_half_restarts_from_its_floor() {
    let (chains, chain_len) = (6, 8);
    for variant in [IraVariant::Basic, IraVariant::TwoLock] {
        for evacuate in [false, true] {
            let cell = format!("variant:{variant:?},evacuate:{evacuate},chains:{chains}");
            with_repro_banner(
                &format!("SEED=none CELL=crash_at_half,{cell},chain_len:{chain_len}"),
                || crash_at_half_body(chains, chain_len, variant, evacuate),
            );
        }
    }
}

fn crash_at_half_body(chains: usize, chain_len: usize, variant: IraVariant, evacuate: bool) {
    let batch = 2;
    let tag = format!("crash-at-half-{variant:?}-{evacuate}");
    let (db, config, dir) = durable_store(&tag);
    let forest = build_forest(&db, chains, chain_len);
    let target = db.create_partition();
    let plan = if evacuate {
        RelocationPlan::EvacuateTo(target)
    } else {
        RelocationPlan::CompactInPlace
    };
    let reference = logical_fingerprint(&db, &forest.anchors);
    db.checkpoint_durable(0xAF_u64).expect("durable checkpoint");

    let crash_batch = (forest.live / 2 - 1).div_ceil(batch);
    db.fault.arm(FaultPlan::new(0xAF).with(FaultRule::nth(
        ira::site::BATCH,
        crash_batch as u64,
        FaultAction::Crash,
    )));
    let crashed = Reorg::on(&db, forest.p1)
        .variant(variant)
        .plan(plan)
        .batch(batch)
        .run();
    assert!(matches!(crashed, Err(IraError::SimulatedCrash)));
    drop(db); // the crash

    let out = brahma::storage::open(config).expect("recovery");
    assert_eq!(out.interrupted_reorgs, vec![forest.p1]);
    let db = &out.db;
    let (below, at_or_above) = split_at_floor(db, forest.p1);
    let placed = if evacuate {
        assert_eq!(at_or_above, 0, "evacuation copies nothing into the source");
        db.partition(target).expect("target").object_count()
    } else {
        at_or_above
    };
    assert_eq!(placed, crash_batch * batch, "every batch before the crash");

    let outcome = Reorg::on(db, forest.p1)
        .variant(variant)
        .plan(plan)
        .batch(batch)
        .run()
        .expect("restart after mid-queue crash");
    let report = outcome.ira().expect("IRA report");
    assert_eq!(report.garbage.len(), 1, "the junk object");
    assert_eq!(
        outcome.migrated(),
        below - 1,
        "the restart moves what lay below the floor, the junk aside"
    );
    assert_eq!(outcome.migrated() + placed, forest.live);
    assert_eq!(
        logical_fingerprint(db, &forest.anchors),
        reference,
        "restarted run must reproduce the original graph"
    );
    ira::verify::assert_reorganization_clean(db, report);
    brahma::sweep::assert_database_consistent(db);
    drop(out);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A restart killed again before it ends comes back, after the second
/// reopen, at the same floor, and the third run completes it: what the
/// first two runs placed above the floor stays, and every object moves
/// once.
#[test]
fn a_restart_killed_again_restarts_at_the_same_floor_and_completes() {
    let (batch, chains, chain_len) = (2, 6, 8);
    let (db, config, dir) = durable_store("second-crash");
    let forest = build_forest(&db, chains, chain_len);
    let reference = logical_fingerprint(&db, &forest.anchors);

    // First incarnation: a crash at the sixth batch boundary.
    db.fault
        .arm(FaultPlan::new(1).with(FaultRule::nth(ira::site::BATCH, 6, FaultAction::Crash)));
    let first = Reorg::on(&db, forest.p1).batch(batch).run();
    assert!(matches!(first, Err(IraError::SimulatedCrash)));
    drop(db);

    // Second incarnation: restart, and die at a log write some batches in,
    // long before the run ends.
    let out = brahma::storage::open(config.clone()).expect("first restart");
    let floor = out.db.partition(forest.p1).expect("p1").pass_floor();
    let (_, placed_first) = split_at_floor(&out.db, forest.p1);
    assert_eq!(placed_first, 6 * batch);
    out.db.fault.arm(FaultPlan::new(2).with(FaultRule::nth(
        brahma::fault::site::FILE_PWRITE,
        40,
        FaultAction::Crash,
    )));
    let second = Reorg::on(&out.db, forest.p1).batch(batch).run();
    assert!(
        matches!(second, Err(IraError::SimulatedCrash)),
        "the killed restart must stop at its next batch boundary"
    );
    drop(out);

    // Third incarnation: the pass comes back at the same floor with what
    // both runs placed, and the restart completes it.
    let out = brahma::storage::open(config).expect("second restart");
    assert_eq!(out.interrupted_reorgs, vec![forest.p1]);
    let db = &out.db;
    assert_eq!(db.partition(forest.p1).expect("p1").pass_floor(), floor);
    let (_, placed) = split_at_floor(db, forest.p1);
    assert!(placed > placed_first, "the killed restart made progress");
    let outcome = Reorg::on(db, forest.p1)
        .batch(batch)
        .run()
        .expect("restart after the second crash");
    assert_eq!(outcome.migrated() + placed, forest.live);
    assert_eq!(logical_fingerprint(db, &forest.anchors), reference);
    ira::verify::assert_reorganization_clean(db, outcome.ira().unwrap());
    brahma::sweep::assert_database_consistent(db);
    drop(out);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A store with one root object in `p1`, checkpointed durably: after
/// this, only the log knows where a reorganization moves the root.
fn durable_root(tag: &str) -> (Database, StoreConfig, std::path::PathBuf, PhysAddr) {
    let (db, config, dir) = durable_store(tag);
    db.create_partition();
    let p1 = db.create_partition();
    let mut t = db.begin();
    let root = t
        .create_object(p1, NewObject::exact(1, vec![], b"root".to_vec()))
        .expect("root");
    t.commit().expect("root");
    db.add_root(root);
    db.checkpoint_durable(1).expect("durable checkpoint");
    (db, config, dir, root)
}

/// A committed migration of a root survives a crash: the reopened store's
/// root names the new copy, not the freed old one.
#[test]
fn a_migrated_root_survives_a_crash() {
    let (db, config, dir, root) = durable_root("migrated-root");
    let outcome = Reorg::on(&db, root.partition()).run().expect("reorg");
    assert_eq!(outcome.migrated(), 1);
    let moved = db.roots();
    assert_ne!(moved, vec![root]);
    drop(db); // the crash

    let out = brahma::storage::open(config).expect("reopen");
    assert_eq!(out.db.roots(), moved);
    assert_eq!(
        brahma::sweep::check_ref_integrity(&out.db),
        Vec::<String>::new()
    );
    drop(out);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A migration of a root killed before its `Commit` reaches the file is a
/// loser: recovery undoes its `Move`, and the root names the old copy
/// again.
#[test]
fn a_loser_migration_of_a_root_leaves_the_root_in_place() {
    use brahma::wal::LogPayload;
    let (db, config, dir, root) = durable_root("loser-root");
    // The pass logs ReorgStart, then its batch Begin, Move and Commit: the
    // kill lands on the fourth write, the `Commit`.
    let kill = FaultRule::nth(brahma::fault::site::FILE_PWRITE, 4, FaultAction::Crash);
    db.fault.arm(FaultPlan::new(6).with(kill));
    let crashed = Reorg::on(&db, root.partition()).run();
    assert!(matches!(crashed, Err(IraError::SimulatedCrash)));
    assert_ne!(db.roots(), vec![root], "the live store moved the root");
    drop(db);

    let mut log = Vec::new();
    for entry in std::fs::read_dir(dir.join("wal")).expect("wal dir") {
        let path = entry.expect("segment").path();
        log.extend(
            brahma::storage::scan_segment_file(&path, false)
                .expect("scan")
                .0,
        );
    }
    let mover = log
        .iter()
        .find(|r| matches!(r.payload, LogPayload::Move { old, .. } if old == root))
        .expect("the Move reached the file")
        .tid;
    assert!(!log
        .iter()
        .any(|r| r.tid == mover && r.payload == LogPayload::Commit));
    let mover_log: Vec<&LogPayload> = log
        .iter()
        .filter(|r| r.tid == mover)
        .map(|r| &r.payload)
        .collect();
    assert!(
        matches!(mover_log[..], [LogPayload::Begin, LogPayload::Move { .. }]),
        "the kill lands on the Commit: {mover_log:?}"
    );

    let out = brahma::storage::open(config).expect("reopen");
    assert_eq!(out.losers, vec![mover]);
    assert_eq!(out.db.roots(), vec![root]);
    assert_eq!(
        brahma::sweep::check_ref_integrity(&out.db),
        Vec::<String>::new()
    );
    drop(out);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
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
                .map(|i| {
                    t.create_object(p1, NewObject::exact(1, vec![], vec![i]))
                        .unwrap()
                })
                .collect();
            for j in 0..3 {
                let refs = vec![objs[j], objs[j + 3]];
                t.create_object(p0, NewObject::exact(2, refs, vec![]))
                    .unwrap();
            }
            let refs = vec![objs[0], objs[1]];
            t.create_object(p0, NewObject::exact(2, refs, vec![]))
                .unwrap();
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
