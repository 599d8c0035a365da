//! The crash-cell runner (DESIGN.md §9.2).
//!
//! One cell is one (site, Nth-hit) coordinate of the chaos matrix. The
//! store runs on a real [`brahma::storage::FileBackend`]; IRA reorganizes a
//! small chain under two walker threads with a `Crash` rule armed at the
//! coordinate. An in-memory site latches a crash request the reorganizer
//! surfaces at its next batch boundary, after saving a durable checkpoint;
//! a file site (`file.pwrite`, `file.fsync`, `file.torn_write`,
//! `ckpt.rename`) kills the backend, so later writes land nowhere and a
//! torn write leaves half a frame. Either way the process then dies: only
//! the files survive, and recovery runs **cold** — scan the segments,
//! truncate a torn tail, REDO from the checkpoint — with the cell's site
//! re-armed, so a kill can fire again during recovery's own writes (the
//! double crash; a third open must then succeed). The interrupted
//! reorganization resumes from its durable blob, or restarts when the kill
//! beat the first one, and one more cold open checks recovery is
//! idempotent. Every completed run must migrate the whole chain and pass
//! [`ira::verify::assert_reorganization_clean`].

use crate::assert_trt_reconstruction_covers;
use brahma::fault::site as bsite;
use brahma::storage::{open, open_with_faults};
use brahma::{
    Database, FaultAction, FaultPlan, FaultRule, LockMode, LogPayload, NewObject, PartitionId,
    PhysAddr, StoreConfig,
};
use ira::{IraCheckpoint, IraError, RelocationPlan, Reorg, ReorgOutcome};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One coordinate of the chaos matrix.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// A site of `brahma::fault::site::{ALL, FILE_ALL}` or `ira::site::ALL`.
    pub site: &'static str,
    /// The 1-based hit of `site` at which the crash fires.
    pub nth_hit: u64,
    /// Seeds the fault plan and names the cell's checkpoints.
    pub seed: u64,
}

/// What one cell did, for the sweep's coverage checks; the correctness
/// assertions all live inside [`run_cell`].
#[derive(Debug)]
pub struct CellReport {
    /// Rules fired at the cell's site, in the first process and in the
    /// re-armed recovery open.
    pub fired: u64,
    /// The first process crashed: the reorganizer surfaced a crash, or the
    /// backend died.
    pub killed: bool,
    /// Recovery found the reorganization interrupted.
    pub interrupted: bool,
    /// The interrupted reorganization resumed from a durable blob rather
    /// than restarting.
    pub resumed: bool,
    /// The re-armed site killed the recovery open, forcing a third open.
    pub double_crashed: bool,
    /// Torn segment tails truncated across the cell's recovery opens.
    pub torn_truncations: u64,
}

/// Objects of the cell database: a chain in the partition under
/// reorganization, anchored from outside, plus one garbage object.
struct CellGraph {
    p0: PartitionId,
    p1: PartitionId,
    anchors: Vec<PhysAddr>,
}

const CHAIN_LEN: usize = 8;

/// Create a chain of `len` tag-1 objects in `p`, `chain[i] → chain[i-1]`
/// with `chain[i].payload == [i; 8]`; returns it in creation order.
fn build_chain(db: &Database, p: PartitionId, len: usize) -> Vec<PhysAddr> {
    let mut chain: Vec<PhysAddr> = Vec::with_capacity(len);
    for i in 0..len {
        let mut t = db.begin();
        let object = NewObject {
            tag: 1,
            refs: chain.last().map(|&prev| vec![prev]).unwrap_or_default(),
            ref_cap: 4,
            payload: vec![i as u8; 8],
            payload_cap: 16,
        };
        chain.push(t.create_object(p, object).expect("cell graph build"));
        t.commit().expect("cell graph build");
    }
    chain
}

fn build_graph(db: &Database) -> CellGraph {
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let chain = build_chain(db, p1, CHAIN_LEN);
    // Unreachable object for the garbage-collection phase.
    let mut t = db.begin();
    t.create_object(p1, NewObject::exact(9, vec![], b"junk".to_vec()))
        .expect("cell graph build");
    t.commit().expect("cell graph build");
    // Two anchors so walkers contend on distinct entry points.
    let mut t = db.begin();
    let anchors = [CHAIN_LEN - 1, CHAIN_LEN / 2]
        .map(|i| {
            let anchor = NewObject {
                tag: 0,
                refs: vec![chain[i]],
                ref_cap: 4,
                payload: vec![0; 8],
                payload_cap: 16,
            };
            t.create_object(p0, anchor).expect("cell graph build")
        })
        .to_vec();
    t.commit().expect("cell graph build");
    CellGraph { p0, p1, anchors }
}

/// Workload threads churning through the anchors while the cell runs:
/// shared read passes, periodic S→X upgrades with payload and reference
/// rewrites, and short-lived temporary objects referencing the partition
/// under reorganization — enough traffic that every substrate fault site
/// takes hits from non-reorganizer threads too. Walkers tolerate every
/// error by aborting and retrying; they assert nothing.
fn spawn_walkers(
    db: &Arc<Database>,
    graph: &CellGraph,
    stop: &Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    (0..2)
        .map(|w| {
            let db = Arc::clone(db);
            let stop = Arc::clone(stop);
            let anchors = graph.anchors.clone();
            let p0 = graph.p0;
            std::thread::spawn(move || {
                brahma::sched::set_thread_label(&format!("walker-{w}"));
                let mut round = 0usize;
                // ordering: SeqCst stop flag; shutdown visibility without pairing analysis
                while !stop.load(Ordering::SeqCst) {
                    round += 1;
                    let anchor = anchors[(w + round) % anchors.len()];
                    walk_once(&db, p0, anchor, round);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "walker pacing inside a crash cell keeps the interleaving window open deterministically"
                    )]
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        })
        .collect()
}

/// One walker transaction; it commits when nothing failed.
fn walk_once(db: &Database, p0: PartitionId, anchor: PhysAddr, round: usize) {
    let mut txn = db.begin();
    let attempt = (|| -> brahma::Result<()> {
        txn.lock(anchor, LockMode::Shared)?;
        let refs = txn.read_refs(anchor)?;
        for &child in &refs {
            txn.lock(child, LockMode::Shared)?;
            txn.read(child)?;
        }
        if round.is_multiple_of(2) {
            // Upgrade and rewrite: payload write plus a same-value
            // reference rewrite (a pointer update in the log and the
            // reference tables, with no net graph change).
            txn.lock(anchor, LockMode::Exclusive)?;
            txn.set_payload(anchor, &[round as u8; 8])?;
            if let Some(&child) = refs.first() {
                txn.set_ref(anchor, 0, child)?;
            }
        }
        if round % 4 == 1 {
            // Temporary object referencing into the reorganized partition:
            // exercises the allocator both ways and feeds TRT/ERT churn.
            if let Some(&child) = refs.first() {
                let tmp = txn.create_object(p0, temporary(child))?;
                txn.delete_object(tmp)?;
            }
        }
        Ok(())
    })();
    match attempt {
        Ok(()) => {
            let _ = txn.commit();
        }
        Err(_) => txn.abort(),
    }
}

fn temporary(child: PhysAddr) -> NewObject {
    NewObject {
        tag: 7,
        refs: vec![child],
        ref_cap: 2,
        payload: vec![],
        payload_cap: 8,
    }
}

/// One deterministic transaction touching every substrate fault site —
/// shared lock, S→X upgrade, payload write, same-value reference rewrite,
/// temporary create + delete — so each cell records hits at its site even
/// if walker scheduling never gets there.
fn primer(db: &Database, p0: PartitionId, anchor: PhysAddr) {
    let mut txn = db.begin();
    let _ = (|| -> brahma::Result<()> {
        txn.lock(anchor, LockMode::Shared)?;
        let refs = txn.read_refs(anchor)?;
        txn.lock(anchor, LockMode::Exclusive)?;
        txn.set_payload(anchor, b"primer")?;
        if let Some(&child) = refs.first() {
            txn.set_ref(anchor, 0, child)?;
            let tmp = txn.create_object(p0, temporary(child))?;
            txn.delete_object(tmp)?;
        }
        Ok(())
    })();
    let _ = txn.commit();
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
/// object whose payload byte steps down by one toward zero. A chain from
/// [`build_chain`] entered at `chain[k]` reads payload bytes `k, k-1, …,
/// 0`; which links those are (the walkers never rewrite them) is read off
/// the first link. Returns the walk length, `k + 1`.
fn chain_depth(db: &Database, anchor: PhysAddr) -> usize {
    let mut cur = db
        .raw_read(anchor)
        .expect("anchor must survive recovery")
        .refs
        .first()
        .copied();
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

/// A reorganization of the cell partition ran to its end: it migrated the
/// whole chain, and every reorganization invariant holds.
fn assert_complete(db: &Database, outcome: &ReorgOutcome, cell: &CrashCell) {
    assert_eq!(
        outcome.migrated(),
        CHAIN_LEN,
        "cell {cell:?}: a completed run must migrate the whole chain"
    );
    let report = outcome.ira().expect("incremental run reports IRA");
    ira::verify::assert_reorganization_clean(db, report);
}

/// Run one cell end to end, panicking on any invariant violation. See the
/// module docs for the protocol.
pub fn run_cell(cell: &CrashCell) -> CellReport {
    // Capture the cell's schedule: a failing assertion anywhere below
    // leaves the event ring behind for `SCHED_DUMP` (the ring is cleared on
    // arm, so a dump covers exactly this cell). Not disarmed on panic.
    brahma::sched::arm();
    brahma::sched::set_thread_label("cell-driver");
    let dir = std::env::temp_dir().join(format!(
        "harness-cell-{}-{}-{}",
        std::process::id(),
        cell.site.replace('.', "_"),
        cell.nth_hit
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = cell_config(&dir);

    // ---- Phase one: file-backed store, reorganization under walkers ----
    let fresh = open(config.clone()).expect("fresh open");
    assert!(!fresh.recovered);
    let db = Arc::new(fresh.db);
    let graph = build_graph(&db);
    let (p1, anchors) = (graph.p1, graph.anchors.clone());
    // Durable baseline: graph on disk, segments behind it archived.
    db.checkpoint_durable(cell.seed)
        .expect("baseline checkpoint");

    let stop = Arc::new(AtomicBool::new(false));
    let walkers = spawn_walkers(&db, &graph, &stop);

    // `ckpt.rename` only executes while a checkpoint file is being
    // replaced, which phase one never does after the baseline — those
    // cells kill phase one through the pwrite path and save the rename
    // kill for the recovery double crash below.
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
    let mut fired = db.fault.fired(cell.site);
    let healthy = db.backend().is_none_or(|b| b.healthy());
    let driver_ckpt = match result {
        Ok(outcome) => {
            assert_complete(&db, &outcome, cell);
            None
        }
        Err(IraError::SimulatedCrash(ckpt)) => Some(ckpt),
        Err(e) => panic!("cell {cell:?}: reorganization failed: {e}"),
    };
    let killed = !healthy || driver_ckpt.is_some();
    assert!(
        !killed || db.fault.fired(kill_site) >= 1,
        "cell {cell:?}: crashed without its rule firing"
    );
    // A crash the reorganizer surfaced on a healthy backend saved its
    // checkpoint durably; recovery must hand back exactly that blob.
    let expected_blob = driver_ckpt.filter(|_| healthy).map(|c| c.encode());
    // Process kill: everything in memory is discarded. Only the files
    // speak from here on.
    drop(db);

    // ---- Phase two: cold reopen, double crash during recovery ----
    let plan2 =
        FaultPlan::new(cell.seed ^ 1).with(FaultRule::nth(cell.site, 1, FaultAction::Crash));
    let second = open_with_faults(config.clone(), Some(plan2)).expect("recovery open");
    fired += second.db.fault.fired(cell.site);
    let double_crashed = second.db.backend().is_some_and(|b| !b.healthy());
    let mut torn_truncations = second.torn_tail_truncations;
    let fin = if double_crashed {
        drop(second);
        let third = open(config.clone()).expect("open after double crash");
        torn_truncations += third.torn_tail_truncations;
        third
    } else {
        second.db.fault.disarm();
        second
    };
    assert!(
        fin.recovered,
        "cell {cell:?}: reopen must take the recovery path"
    );
    if cell.site == bsite::FILE_TORN_WRITE && fired > 0 {
        assert!(
            torn_truncations >= 1,
            "cell {cell:?}: a torn-write kill must leave a truncatable tail"
        );
    }

    // ---- Phase three: resume or restart the reorganization ----
    let db = fin.db;
    let interrupted = !fin.interrupted_reorgs.is_empty();
    let blob = fin
        .reorg_checkpoints
        .iter()
        .find(|(p, _)| *p == p1)
        .map(|(_, b)| b.clone());
    if let Some(expected) = &expected_blob {
        assert_eq!(
            blob.as_ref(),
            Some(expected),
            "cell {cell:?}: the recovered blob must be the checkpoint the driver returned"
        );
    }
    let ended = fin
        .pre_crash_log
        .iter()
        .any(|r| matches!(&r.payload, LogPayload::ReorgEnd { partition } if *partition == p1));
    let resumed = interrupted && blob.is_some();
    if interrupted {
        assert_eq!(fin.interrupted_reorgs, vec![p1], "cell {cell:?}");
        assert!(!ended, "cell {cell:?}: interrupted yet ended");
        let outcome = match blob {
            Some(bytes) => {
                let ckpt =
                    IraCheckpoint::decode(&bytes).expect("recovered checkpoint blob must decode");
                assert_trt_reconstruction_covers(&fin.pre_crash_log, &ckpt, db.trt_purge_enabled());
                Reorg::on(&db, p1)
                    .resume_from(ckpt, &fin.pre_crash_log)
                    .run()
                    .expect("resume after crash")
            }
            // The kill beat the first durable progress record: the
            // paper's simple option — restart from scratch.
            None => Reorg::on(&db, p1).run().expect("restart from scratch"),
        };
        assert_complete(&db, &outcome, cell);
    }

    // ---- Verify: the recovered graph is the built graph ----
    assert_graph_shape(&db, &anchors);
    // A completed reorganization garbage-collected the junk object.
    let expected = if interrupted || ended {
        CHAIN_LEN
    } else {
        CHAIN_LEN + 1
    };
    assert_eq!(
        db.partition(p1)
            .expect("p1 survives recovery")
            .object_count(),
        expected,
        "cell {cell:?}: unexpected object count"
    );

    // A final durable checkpoint must succeed on the recovered store, and
    // one more cold open must see the same graph (recovery idempotence).
    db.checkpoint_durable(cell.seed + 1)
        .expect("post-recovery checkpoint");
    drop(db);
    let again = open(config).expect("idempotent reopen");
    assert!(again.interrupted_reorgs.is_empty(), "cell {cell:?}");
    assert_graph_shape(&again.db, &anchors);
    drop(again);

    let _ = std::fs::remove_dir_all(&dir);
    brahma::sched::disarm();
    CellReport {
        fired,
        killed,
        interrupted,
        resumed,
        double_crashed,
        torn_truncations,
    }
}

/// Deterministic multi-partition kill/resume: two reorganizations in
/// flight, a hard kill, one cold recovery that reports both interrupted,
/// and both resumed from their durable checkpoints. Returns the objects
/// the resumed runs migrated and the live objects they had to.
pub fn run_multi_partition_kill(seed: u64) -> (usize, usize) {
    let dir = std::env::temp_dir().join(format!("harness-multi-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = cell_config(&dir);
    let db = open(config.clone()).expect("fresh open").db;
    let p0 = db.create_partition();
    let lens = [6, 5];
    let chains = lens.map(|len| {
        let p = db.create_partition();
        let chain = build_chain(&db, p, len);
        let mut t = db.begin();
        let anchor = t
            .create_object(p0, NewObject::exact(0, vec![chain[len - 1]], vec![]))
            .expect("build");
        t.commit().expect("build");
        (p, anchor)
    });
    let parts = chains.map(|(p, _)| p);
    db.checkpoint_durable(seed).expect("baseline checkpoint");

    // Interrupt both reorganizations at their second batch boundary; each
    // crash saves a durable progress record, and neither run ends.
    for p in parts {
        db.fault.arm(FaultPlan::new(seed).with(FaultRule::nth(
            ira::site::BATCH,
            2,
            FaultAction::Crash,
        )));
        let result = Reorg::on(&db, p)
            .plan(RelocationPlan::CompactInPlace)
            .checkpoint_every(1)
            .run();
        assert!(matches!(result, Err(IraError::SimulatedCrash(_))));
        db.fault.disarm();
    }
    drop(db); // hard kill with two reorganizations in flight

    let out = open(config).expect("recovery open");
    assert!(out.recovered);
    assert_eq!(out.interrupted_reorgs, parts.to_vec());
    let db = out.db;
    let mut resumed = 0usize;
    for p in parts {
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
    for ((_, anchor), len) in chains.into_iter().zip(lens) {
        assert_eq!(chain_depth(&db, anchor), len);
    }
    brahma::sweep::assert_database_consistent(&db);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (resumed, lens.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cell_completes_when_site_never_fires() {
        // Hit number far beyond what the run generates: the rule never
        // fires, the cell must complete and verify.
        let out = run_cell(&CrashCell {
            site: ira::site::TRAVERSAL,
            nth_hit: 1_000_000,
            seed: 1,
        });
        assert!(!out.killed && !out.interrupted);
        assert_eq!(out.fired, 0);
    }

    #[test]
    fn crash_cell_recovers_and_resumes() {
        let out = run_cell(&CrashCell {
            site: ira::site::BATCH,
            nth_hit: 2,
            seed: 2,
        });
        assert!(out.killed && out.interrupted && out.resumed);
        assert_eq!(out.fired, 1);
    }
}
