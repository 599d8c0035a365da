//! Migration-executor tests: at any worker count the run must produce a
//! database isomorphic to the one-worker result, report its wave/worker
//! counts faithfully, and crash/resume correctly mid-queue and mid-wave.
//!
//! `PAR_QUICK=1` shrinks the matrix (the ci.sh smoke configuration).

use brahma::{recover, Database, NewObject, PartitionId, PhysAddr, StoreConfig};
use ira::chaos::with_repro_banner;
use ira::verify::logical_fingerprint;
use ira::{IraCheckpoint, IraError, IraVariant, Reorg};

fn quick() -> bool {
    brahma::env_cfg::par_quick()
}

/// A deterministic forest of anchored chains in `p1`: each chain is one
/// conflict component (its objects share parents only within the chain),
/// so the wave scheduler has real parallelism to exploit. One garbage
/// object rides along for the collection phase.
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
        // points per component, one diamond per chain.
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

/// The defining property of the executor: for any worker count, batch size
/// and variant, the post-reorganization live graph is isomorphic to the
/// one-worker result (and to the original), and every live object migrated
/// exactly once. One worker plans no waves and spawns no pool.
#[test]
fn parallel_run_is_isomorphic_to_serial() {
    let chains = if quick() { 4 } else { 8 };
    let chain_len = if quick() { 6 } else { 12 };

    let reference = with_repro_banner(
        &format!("SEED=none CELL=serial,chains:{chains},chain_len:{chain_len}"),
        || {
            let serial_db = Database::new(StoreConfig::default());
            let serial = build_forest(&serial_db, chains, chain_len);
            let reference = logical_fingerprint(&serial_db, &serial.anchors);
            let outcome = Reorg::on(&serial_db, serial.p1).run().unwrap();
            assert_eq!(outcome.migrated(), serial.live);
            assert_eq!(
                logical_fingerprint(&serial_db, &serial.anchors),
                reference,
                "serial reorganization must preserve the graph"
            );
            reference
        },
    );

    for variant in [IraVariant::Basic, IraVariant::TwoLock] {
        for batch in [1, 8] {
            for workers in [1, 2, 4] {
                let cell = format!("workers:{workers},batch:{batch},variant:{variant:?}");
                with_repro_banner(
                    &format!("SEED=none CELL={cell},chains:{chains},chain_len:{chain_len}"),
                    || {
                        let db = Database::new(StoreConfig::default());
                        let forest = build_forest(&db, chains, chain_len);
                        let outcome = Reorg::on(&db, forest.p1)
                            .variant(variant)
                            .workers(workers)
                            .batch(batch)
                            .run()
                            .unwrap();
                        assert_eq!(outcome.migrated(), forest.live, "{cell}");
                        let report = outcome.ira().unwrap();
                        assert_eq!(report.workers, workers, "{cell}");
                        assert_eq!(
                            report.waves == 0,
                            workers == 1,
                            "{cell}: waves are planned iff there is a pool to feed"
                        );
                        assert_eq!(
                            db.obs_snapshot().get("db.reorg_workers") == 0,
                            workers == 1,
                            "{cell}: one worker runs on the calling thread"
                        );
                        assert_eq!(
                            logical_fingerprint(&db, &forest.anchors),
                            reference,
                            "{cell}: result must be isomorphic to the one-worker run"
                        );
                        ira::verify::assert_reorganization_clean(&db, report);
                        brahma::sweep::assert_database_consistent(&db);
                    },
                );
            }
        }
    }
}

/// Deferral must not scramble a priority placement: a parallel run whose
/// every chunk is forced onto the deferred tail lands each object at the
/// same new address as the conflict-free serial run, because the tail
/// re-packs deferrals by original queue position (not defer-discovery
/// order, which is a race between workers).
#[test]
fn forced_deferral_preserves_priority_placement() {
    let chains = 4;
    let chain_len = 6;

    // Nontrivial queue order: every chain's mid-object first (the anchors'
    // second reference), then the traversal remainder.
    let priority_of = |db: &Database, forest: &Forest| {
        forest
            .anchors
            .iter()
            .map(|&a| db.raw_read(a).unwrap().refs[1])
            .collect::<Vec<_>>()
    };

    let serial_db = Database::new(StoreConfig::default());
    let serial = build_forest(&serial_db, chains, chain_len);
    let outcome = Reorg::on(&serial_db, serial.p1)
        .order(ira::MigrationOrder::Priority(priority_of(&serial_db, &serial)))
        .run()
        .unwrap();
    assert_eq!(outcome.migrated(), serial.live);
    let placement = |mapping: &std::collections::HashMap<PhysAddr, PhysAddr>| {
        let mut v: Vec<(PhysAddr, PhysAddr)> =
            mapping.iter().map(|(&old, &new)| (new, old)).collect();
        v.sort();
        v
    };
    let reference = placement(&outcome.mapping);
    let all_old: Vec<PhysAddr> = outcome.mapping.keys().copied().collect();

    let db = Database::new(StoreConfig::default());
    let forest = build_forest(&db, chains, chain_len);
    let outcome = Reorg::on(&db, forest.p1)
        .order(ira::MigrationOrder::Priority(priority_of(&db, &forest)))
        .workers(2)
        .batch(2)
        .force_defer(all_old)
        .run()
        .unwrap();
    assert_eq!(outcome.migrated(), forest.live);
    let report = outcome.ira().unwrap();
    assert_eq!(
        report.deferred, forest.live,
        "every chunk was forced onto the tail"
    );
    assert_eq!(
        placement(&outcome.mapping),
        reference,
        "deferred-tail placement must match the conflict-free serial run"
    );
    ira::verify::assert_reorganization_clean(&db, report);
}

/// `.workers(0)` clamps to one worker and takes the serial path; the
/// report says so.
#[test]
fn zero_workers_clamps_to_serial() {
    let db = Database::new(StoreConfig::default());
    let forest = build_forest(&db, 2, 3);
    let outcome = Reorg::on(&db, forest.p1).workers(0).run().unwrap();
    assert_eq!(outcome.migrated(), forest.live);
    assert_eq!(outcome.ira().unwrap().workers, 1);
}

/// Deterministic mid-wave crash with two workers: the durable checkpoint
/// restarts the queue from position 0 (workers leave no single frontier)
/// and must resume — still on the parallel executor — to a graph isomorphic
/// to the original.
#[test]
fn crash_mid_wave_resumes_with_parallel_executor() {
    let chains = if quick() { 3 } else { 6 };
    let chain_len = if quick() { 4 } else { 8 };
    with_repro_banner(
        &format!("SEED=none CELL=crash_mid_wave,chains:{chains},chain_len:{chain_len},workers:2"),
        || crash_mid_wave_body(chains, chain_len, 2, 2),
    );
}

/// The same crash with one worker draining the queue: the checkpoint
/// carries the exact queue position — the crash threshold rounded up to
/// the batch boundary it tripped at — and the resume completes from there.
#[test]
fn crash_mid_wave_one_worker_checkpoints_exact_position() {
    let chains = if quick() { 3 } else { 6 };
    let chain_len = if quick() { 4 } else { 8 };
    with_repro_banner(
        &format!("SEED=none CELL=crash_mid_wave,chains:{chains},chain_len:{chain_len},workers:1"),
        || crash_mid_wave_body(chains, chain_len, 1, 4),
    );
}

fn crash_mid_wave_body(chains: usize, chain_len: usize, workers: usize, batch: usize) {
    let db = Database::new(StoreConfig::default());
    let forest = build_forest(&db, chains, chain_len);
    let reference = logical_fingerprint(&db, &forest.anchors);
    let store_ckpt = db.checkpoint(0xAF_u64);

    // Odd, so never on a batch boundary: the one-worker position is
    // visibly rounded up.
    let crash_after = chains * chain_len / 2 - 1;
    let err = Reorg::on(&db, forest.p1)
        .workers(workers)
        .batch(batch)
        .crash_after_migrations(crash_after)
        .run()
        .unwrap_err();
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
    let expected_pos = if workers == 1 {
        crash_after.div_ceil(batch) * batch
    } else {
        0
    };
    assert_eq!(ckpt.pos, expected_pos, "workers={workers}");

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
        .workers(workers)
        .resume_from(recovered, &pre_crash_log)
        .run()
        .expect("resume after mid-wave crash");
    assert_eq!(outcome.migrated(), forest.live);
    assert_eq!(
        logical_fingerprint(&db, &forest.anchors),
        reference,
        "resumed run must reproduce the original graph"
    );
    ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
    brahma::sweep::assert_database_consistent(&db);
}

/// `checkpoint_every(1)` saves one reorganizer checkpoint per batch when one
/// worker drains the queue, and none under a worker pool (which has no
/// exact queue position to save).
#[test]
fn checkpoint_every_saves_per_batch_with_one_worker_only() {
    let batch = 2;
    for workers in [1, 2] {
        let db = Database::new(StoreConfig::default());
        let forest = build_forest(&db, 3, 4);
        // An empty plan fires nothing; arming is what makes sites count hits.
        db.fault.arm(brahma::FaultPlan::new(0));
        let outcome = Reorg::on(&db, forest.p1)
            .workers(workers)
            .batch(batch)
            .checkpoint_every(1)
            .run()
            .unwrap();
        assert_eq!(outcome.migrated(), forest.live);
        let expected = if workers == 1 {
            forest.live.div_ceil(batch) as u64
        } else {
            0
        };
        assert_eq!(
            db.fault.hits(ira::chaos::site::CHECKPOINT),
            expected,
            "workers={workers}"
        );
    }
}
