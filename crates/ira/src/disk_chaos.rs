//! Disk-crash chaos harness for the file backend (DESIGN.md §14).
//!
//! The in-memory chaos cells ([`crate::chaos`]) simulate a crash by
//! snapshotting the live store into a [`brahma::CrashImage`]. These cells
//! are harder: the store runs on a real [`brahma::storage::FileBackend`],
//! the armed fault site (`file.pwrite`, `file.fsync`, `file.torn_write`,
//! `ckpt.rename`) kills the *process* — the backend latches dead, writes
//! after the kill land nowhere, a torn write leaves half a record — and
//! recovery happens **cold**: drop everything in memory, reopen the
//! directory, scan the segments, truncate the torn tail, REDO from the
//! checkpoint, and resume the interrupted reorganization from its durable
//! progress record.
//!
//! Every cell also attempts a **double crash**: the second open re-arms the
//! cell's site so the kill fires again during recovery's own writes (the
//! reorg-checkpoint re-save and the shadow checkpoint rename), and a third,
//! clean open must still produce a consistent store.

use crate::builder::Reorg;
use crate::chaos::{assert_trt_reconstruction_covers, build_graph, primer, spawn_walkers, CHAIN_LEN};
use crate::checkpoint::IraCheckpoint;
use crate::driver::IraError;
use crate::plan::RelocationPlan;
use brahma::fault::site as bsite;
use brahma::storage::{open, open_with_faults, OpenOutcome};
use brahma::{
    Database, FaultAction, FaultPlan, FaultRule, LogPayload, PartitionId, PhysAddr, StoreConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One coordinate of the disk-chaos matrix.
#[derive(Debug, Clone)]
pub struct DiskChaosCell {
    /// A `brahma::fault::site::FILE_ALL` site.
    pub site: &'static str,
    /// 1-based hit of the kill site at which the process dies.
    pub nth_hit: u64,
    pub seed: u64,
}

/// What one disk cell did (coverage for the sweep's assertions; the
/// correctness assertions all live inside [`run_disk_cell`]).
#[derive(Debug)]
pub struct DiskCellOutcome {
    /// Kill-site fires during phase one.
    pub fired: u64,
    /// The phase-one process was killed (backend died or the reorganizer
    /// surfaced the crash).
    pub killed: bool,
    /// Recovery found the reorganization interrupted.
    pub interrupted: bool,
    /// The interrupted reorganization resumed from a durable checkpoint
    /// blob (as opposed to restarting from scratch).
    pub resumed_from_checkpoint: bool,
    /// The re-armed site killed the second open mid-recovery, forcing a
    /// third, clean open.
    pub double_crashed: bool,
    /// Torn segment tails truncated across the cell's recovery opens.
    pub torn_truncations: u64,
}

fn cell_dir(cell: &DiskChaosCell) -> PathBuf {
    std::env::temp_dir().join(format!(
        "brahma-disk-chaos-{}-{}-{}",
        std::process::id(),
        cell.site.replace('.', "_"),
        cell.nth_hit
    ))
}

fn cell_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        lock_timeout: Duration::from_millis(25),
        // Tiny segments so every cell crosses rotation boundaries.
        wal_segment_bytes: 4096,
        data_dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    }
}

/// Walk the anchor's chain, checking shape as we go: each link is a tag-1
/// object whose payload byte steps down by one toward zero. The chain is
/// built as `chain[i] → chain[i-1]` with `chain[i].payload == [i; 8]`, so
/// an anchor entering at `chain[k]` sees payload bytes `k, k-1, …, 0` —
/// which chain links those are (the walkers never rewrite them) is read
/// off the first link. Returns the walk length, `k + 1`.
fn chain_depth(db: &Database, anchor: PhysAddr) -> usize {
    let head = db
        .raw_read(anchor)
        .expect("anchor must survive recovery")
        .refs
        .first()
        .copied();
    let mut cur = head;
    let mut depth = 0usize;
    let mut expect: Option<u8> = None;
    while let Some(a) = cur {
        let v = db.raw_read(a).expect("chain link must be readable");
        assert_eq!(v.tag, 1, "chain link {a} has wrong tag");
        let byte = expect.unwrap_or_else(|| {
            assert!(!v.payload.is_empty(), "chain link {a} payload empty");
            v.payload[0]
        });
        assert_eq!(v.payload, vec![byte; 8], "chain link {a} payload diverged");
        expect = Some(byte.wrapping_sub(1));
        depth += 1;
        assert!(depth <= CHAIN_LEN, "chain walk cycled");
        cur = v.refs.first().copied();
    }
    if let Some(next) = expect {
        assert_eq!(
            next,
            u8::MAX,
            "chain ended early: walk stopped above payload byte 0"
        );
    }
    depth
}

/// Assert the recovered store carries the cell graph isomorphically: the
/// full chain hangs off anchor 0, anchor 1 enters at the midpoint (seeing
/// `chain[CHAIN_LEN/2] … chain[0]`), and the store-wide invariant sweep
/// passes.
fn assert_graph_shape(db: &Database, anchors: &[PhysAddr]) {
    assert_eq!(chain_depth(db, anchors[0]), CHAIN_LEN);
    assert_eq!(chain_depth(db, anchors[1]), CHAIN_LEN / 2 + 1);
    brahma::sweep::assert_database_consistent(db);
}

/// Run one disk-chaos cell end to end, panicking on any invariant
/// violation. See the module docs for the protocol.
pub fn run_disk_cell(cell: &DiskChaosCell) -> DiskCellOutcome {
    brahma::sched::arm();
    brahma::sched::set_thread_label("disk-cell-driver");
    let dir = cell_dir(cell);
    let _ = std::fs::remove_dir_all(&dir);
    let config = cell_config(&dir);

    // ---- Phase one: file-backed store, reorganization under walkers ----
    let fresh = open(config.clone()).expect("fresh open");
    assert!(!fresh.recovered);
    let db = Arc::new(fresh.db);
    let graph = build_graph(&db);
    let (p1, anchors) = (graph.p1, graph.anchors.clone());
    // Durable baseline: graph on disk, segments behind it archived.
    db.checkpoint_durable(cell.seed).expect("baseline checkpoint");

    let stop = Arc::new(AtomicBool::new(false));
    let walkers = spawn_walkers(&db, &graph, &stop);

    // `ckpt.rename` only executes while a checkpoint file is being
    // replaced, which phase one never does after the baseline — those
    // cells kill phase one through the pwrite path and save the rename
    // kill for the recovery double-crash below.
    let kill_site = if cell.site == bsite::CKPT_RENAME {
        bsite::FILE_PWRITE
    } else {
        cell.site
    };
    db.fault.arm(FaultPlan::new(cell.seed).with(FaultRule::nth(
        kill_site,
        cell.nth_hit,
        FaultAction::Crash,
    )));
    primer(&db, graph.p0, anchors[0]);

    let result = Reorg::on(&db, p1)
        .plan(RelocationPlan::CompactInPlace)
        .batch(2)
        .checkpoint_every(1)
        .quiesce_wait(Duration::from_secs(10))
        .run();

    // ordering: SeqCst stop flag; shutdown visibility without pairing analysis
    stop.store(true, Ordering::SeqCst);
    for w in walkers {
        let _ = w.join();
    }
    let fired = db.fault.fired(kill_site);
    let backend_died = db
        .backend()
        .map(|b| !b.healthy())
        .unwrap_or(false);
    let killed = backend_died || matches!(result, Err(IraError::SimulatedCrash(_)));
    match &result {
        Ok(_) | Err(IraError::SimulatedCrash(_)) => {}
        Err(e) => panic!("cell {cell:?}: reorganization failed: {e}"),
    }
    // Process kill: everything in memory — including the checkpoint the
    // reorganizer hands back with `SimulatedCrash` — is discarded. Only
    // the files speak from here on.
    drop(result);
    drop(db);

    // ---- Phase two: cold reopen, double-crash during recovery ----
    let plan2 = FaultPlan::new(cell.seed ^ 1).with(FaultRule::nth(
        cell.site,
        1,
        FaultAction::Crash,
    ));
    let second = open_with_faults(config.clone(), Some(plan2)).expect("recovery open");
    let double_crashed = second
        .db
        .backend()
        .map(|b| !b.healthy())
        .unwrap_or(false);
    let mut torn_truncations = second.torn_tail_truncations;
    let fin: OpenOutcome = if double_crashed {
        drop(second);
        let third = open(config.clone()).expect("open after double crash");
        torn_truncations += third.torn_tail_truncations;
        third
    } else {
        second.db.fault.disarm();
        second
    };
    assert!(fin.recovered, "cell {cell:?}: reopen must take the recovery path");
    if cell.site == bsite::FILE_TORN_WRITE && fired > 0 {
        assert!(
            torn_truncations >= 1,
            "cell {cell:?}: a torn-write kill must leave a truncatable tail"
        );
    }

    // ---- Phase three: resume or finish the reorganization ----
    let db = fin.db;
    let interrupted = !fin.interrupted_reorgs.is_empty();
    let mut resumed_from_checkpoint = false;
    let mut reorg_complete = fin
        .pre_crash_log
        .iter()
        .any(|r| matches!(&r.payload, LogPayload::ReorgEnd { partition } if *partition == p1));
    if interrupted {
        assert_eq!(fin.interrupted_reorgs, vec![p1], "cell {cell:?}");
        assert!(!reorg_complete, "cell {cell:?}: interrupted yet ended");
        let blob = fin
            .reorg_checkpoints
            .iter()
            .find(|(p, _)| *p == p1)
            .map(|(_, b)| b.clone());
        match blob {
            Some(bytes) => {
                let ckpt = IraCheckpoint::decode(&bytes)
                    .expect("recovered checkpoint blob must decode");
                assert_trt_reconstruction_covers(
                    &fin.pre_crash_log,
                    &ckpt,
                    db.trt_purge_enabled(),
                );
                Reorg::on(&db, p1)
                    .resume_from(ckpt, &fin.pre_crash_log)
                    .run()
                    .expect("resume after disk crash");
                resumed_from_checkpoint = true;
            }
            None => {
                // The kill beat the first durable progress record: the
                // paper's simple option — restart from scratch.
                Reorg::on(&db, p1).run().expect("restart from scratch");
            }
        }
        reorg_complete = true;
    }

    // ---- Verify: the recovered graph is the built graph ----
    assert_graph_shape(&db, &anchors);
    let expected = if reorg_complete {
        CHAIN_LEN // a completed reorganization garbage-collected the junk object
    } else {
        CHAIN_LEN + 1
    };
    assert_eq!(
        db.partition(p1).expect("p1 survives recovery").object_count(),
        expected,
        "cell {cell:?}: unexpected object count"
    );

    // A final durable checkpoint must succeed on the recovered store, and
    // one more cold open must see the same graph (recovery idempotence).
    db.checkpoint_durable(cell.seed + 1).expect("post-recovery checkpoint");
    drop(db);
    let again = open(config).expect("idempotent reopen");
    assert!(again.interrupted_reorgs.is_empty(), "cell {cell:?}");
    assert_graph_shape(&again.db, &anchors);
    drop(again);

    let _ = std::fs::remove_dir_all(&dir);
    brahma::sched::disarm();
    DiskCellOutcome {
        fired,
        killed,
        interrupted,
        resumed_from_checkpoint,
        double_crashed,
        torn_truncations,
    }
}

/// Deterministic multi-partition kill/resume: two reorganizations in
/// flight, a hard kill, one cold recovery that reports both interrupted,
/// and both resumed from their durable checkpoints.
pub fn run_multi_partition_kill(seed: u64) -> (usize, usize) {
    let dir = std::env::temp_dir().join(format!(
        "brahma-disk-multi-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = cell_config(&dir);
    let fresh = open(config.clone()).expect("fresh open");
    let db = fresh.db;
    let p0 = db.create_partition();
    let build_chain = |len: usize| -> (PartitionId, PhysAddr) {
        let p = db.create_partition();
        let mut prev: Option<PhysAddr> = None;
        for i in 0..len {
            let mut t = db.begin();
            let refs = prev.map(|x| vec![x]).unwrap_or_default();
            let a = t
                .create_object(
                    p,
                    brahma::NewObject {
                        tag: 1,
                        refs,
                        ref_cap: 4,
                        payload: vec![i as u8; 8],
                        payload_cap: 16,
                    },
                )
                .expect("build");
            t.commit().expect("build");
            prev = Some(a);
        }
        let mut t = db.begin();
        let anchor = t
            .create_object(p0, brahma::NewObject::exact(0, vec![prev.expect("len > 0")], vec![]))
            .expect("build");
        t.commit().expect("build");
        (p, anchor)
    };
    let (pa, anchor_a) = build_chain(6);
    let (pb, anchor_b) = build_chain(5);
    db.checkpoint_durable(seed).expect("baseline checkpoint");

    // Interrupt both reorganizations at their second batch boundary; each
    // crash saves a durable progress record, and neither run ends.
    for p in [pa, pb] {
        db.fault.arm(FaultPlan::new(seed).with(FaultRule::nth(
            crate::chaos::site::BATCH,
            2,
            FaultAction::Crash,
        )));
        let err = Reorg::on(&db, p)
            .plan(RelocationPlan::CompactInPlace)
            .checkpoint_every(1)
            .run()
            .unwrap_err();
        assert!(matches!(err, IraError::SimulatedCrash(_)));
        db.fault.disarm();
    }
    drop(db); // hard kill with two reorganizations in flight

    let out = open(config.clone()).expect("recovery open");
    assert!(out.recovered);
    assert_eq!(out.interrupted_reorgs, vec![pa, pb]);
    let db = out.db;
    let mut resumed = 0usize;
    for p in [pa, pb] {
        let bytes = out
            .reorg_checkpoints
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, b)| b.clone())
            .expect("both reorganizations checkpointed durably");
        let ckpt = IraCheckpoint::decode(&bytes).expect("decode");
        let outcome = Reorg::on(&db, p)
            .resume_from(ckpt, &out.pre_crash_log)
            .run()
            .expect("resume");
        resumed += outcome.migrated();
    }
    // Both chains intact after both resumed reorganizations.
    let depth = |anchor: PhysAddr| -> usize {
        let mut cur = db.raw_read(anchor).expect("anchor").refs.first().copied();
        let mut d = 0;
        while let Some(a) = cur {
            d += 1;
            cur = db.raw_read(a).expect("link").refs.first().copied();
        }
        d
    };
    assert_eq!(depth(anchor_a), 6);
    assert_eq!(depth(anchor_b), 5);
    brahma::sweep::assert_database_consistent(&db);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (resumed, 11)
}
