//! Chaos crash-point harness (DESIGN.md §9).
//!
//! The substrate registers fault sites on its own hot paths
//! ([`brahma::fault::site`]); this module adds one site per IRA phase
//! boundary and a reusable *crash cell*: build a small database, run IRA
//! under concurrent walker threads with a `Crash` rule armed on one (site,
//! Nth-hit) coordinate, crash at the batch boundary where the request
//! surfaces, recover, resume from the durable [`IraCheckpoint`], and verify
//! every reorganization invariant plus the conservativeness of the seeded
//! TRT reconstruction. The sweep in `tests/chaos_sweep.rs` runs one cell
//! per coordinate.
#![expect(
    clippy::expect_used,
    reason = "test infrastructure kept in src so integration tests can reuse it: a chaos cell panics on any setup or invariant failure by design"
)]

use crate::builder::Reorg;
use crate::checkpoint::IraCheckpoint;
use crate::driver::IraError;
use crate::plan::RelocationPlan;
use brahma::wal::analyzer::{rebuild_trt, rebuild_trt_seeded};
use brahma::{
    recover, Database, FaultAction, FaultPlan, FaultRule, LockMode, LogPayload, LogRecord,
    NewObject, PartitionId, PhysAddr, RefAction, StoreConfig, TrtTuple, TxnId,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fault sites at the IRA phase boundaries, extending
/// [`brahma::fault::site`].
pub mod site {
    /// Step one (fuzzy traversal + ERT merge) just completed.
    pub const TRAVERSAL: &str = "ira.traversal";
    /// `Find_Exact_Parents` is about to run for one object.
    pub const EXACT_PARENTS: &str = "ira.exact_parents";
    /// A migration batch transaction is about to commit.
    pub const MIGRATE_COMMIT: &str = "ira.migrate_commit";
    /// A migration batch just committed (batch boundary).
    pub const BATCH: &str = "ira.batch";
    /// A resumable checkpoint is being written.
    pub const CHECKPOINT: &str = "ira.checkpoint";

    /// Every IRA-level site, for sweep construction.
    pub const ALL: &[&str] = &[TRAVERSAL, EXACT_PARENTS, MIGRATE_COMMIT, BATCH, CHECKPOINT];
}

/// Every registered fault site — substrate plus IRA phases — in sweep order.
pub fn all_sites() -> Vec<&'static str> {
    brahma::fault::site::ALL
        .iter()
        .chain(site::ALL.iter())
        .copied()
        .collect()
}

/// One coordinate of the chaos matrix.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    pub site: &'static str,
    /// The 1-based hit of `site` at which the crash fires.
    pub nth_hit: u64,
    /// Seeds the fault plan (reporting / reproducibility).
    pub seed: u64,
}

/// What one cell did. The cell's assertions all live inside
/// [`run_crash_cell`]; this reports coverage so the sweep can check that
/// sites actually fired.
#[derive(Debug)]
pub struct CellOutcome {
    /// Crash rules fired at the cell's site (0 = `nth_hit` never reached).
    pub fired: u64,
    /// Whether the run crashed and went through recover + resume (a cell
    /// whose site never reached `nth_hit` completes clean instead — still
    /// verified).
    pub crashed: bool,
    /// Migrations committed before the crash (0 when `crashed` is false).
    pub premigrated: usize,
    /// Total objects migrated once the (possibly resumed) run finished.
    pub migrated: usize,
}

/// Objects of the cell database: a chain in the partition under
/// reorganization, anchored from outside, plus one garbage object.
pub(crate) struct CellGraph {
    pub(crate) p0: PartitionId,
    pub(crate) p1: PartitionId,
    pub(crate) anchors: Vec<PhysAddr>,
    pub(crate) chain_len: usize,
}

pub(crate) const CHAIN_LEN: usize = 8;

pub(crate) fn build_graph(db: &Database) -> CellGraph {
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let mut chain = Vec::new();
    let mut prev: Option<PhysAddr> = None;
    for i in 0..CHAIN_LEN {
        let mut t = db.begin();
        let refs = prev.map(|p| vec![p]).unwrap_or_default();
        let a = t
            .create_object(
                p1,
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 4,
                    payload: vec![i as u8; 8],
                    payload_cap: 16,
                },
            )
            .expect("cell graph build");
        t.commit().expect("cell graph build");
        chain.push(a);
        prev = Some(a);
    }
    // Unreachable object for the garbage-collection phase.
    let mut t = db.begin();
    t.create_object(p1, NewObject::exact(9, vec![], b"junk".to_vec()))
        .expect("cell graph build");
    t.commit().expect("cell graph build");
    // Two anchors so walkers contend on distinct entry points.
    let mut t = db.begin();
    let a1 = t
        .create_object(
            p0,
            NewObject {
                tag: 0,
                refs: vec![chain[CHAIN_LEN - 1]],
                ref_cap: 4,
                payload: vec![0; 8],
                payload_cap: 16,
            },
        )
        .expect("cell graph build");
    let a2 = t
        .create_object(
            p0,
            NewObject {
                tag: 0,
                refs: vec![chain[CHAIN_LEN / 2]],
                ref_cap: 4,
                payload: vec![0; 8],
                payload_cap: 16,
            },
        )
        .expect("cell graph build");
    t.commit().expect("cell graph build");
    CellGraph {
        p0,
        p1,
        anchors: vec![a1, a2],
        chain_len: CHAIN_LEN,
    }
}

/// Workload threads churning through the anchors while the cell runs:
/// shared read passes, periodic S→X upgrades with payload and reference
/// rewrites, and short-lived temporary objects referencing the partition
/// under reorganization — enough traffic that every substrate fault site
/// takes hits from non-reorganizer threads too. Walkers tolerate every
/// error by aborting and retrying; they assert nothing.
pub(crate) fn spawn_walkers(
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
                    let ok = walk_once(&db, p0, anchor, round);
                    let _ = ok;
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

/// One walker transaction; returns whether it committed.
fn walk_once(db: &Database, p0: PartitionId, anchor: PhysAddr, round: usize) -> bool {
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
                let tmp = txn.create_object(
                    p0,
                    NewObject {
                        tag: 7,
                        refs: vec![child],
                        ref_cap: 2,
                        payload: vec![],
                        payload_cap: 8,
                    },
                )?;
                txn.delete_object(tmp)?;
            }
        }
        Ok(())
    })();
    match attempt {
        Ok(()) => txn.commit().is_ok(),
        Err(_) => {
            txn.abort();
            false
        }
    }
}

/// One deterministic transaction touching every substrate fault site —
/// shared lock, S→X upgrade, payload write, same-value reference rewrite,
/// temporary create + delete — so each cell records hits at its site even
/// if walker scheduling never gets there.
pub(crate) fn primer(db: &Database, p0: PartitionId, anchor: PhysAddr) {
    let mut txn = db.begin();
    let _ = (|| -> brahma::Result<()> {
        txn.lock(anchor, LockMode::Shared)?;
        let refs = txn.read_refs(anchor)?;
        txn.lock(anchor, LockMode::Exclusive)?;
        txn.set_payload(anchor, b"primer")?;
        if let Some(&child) = refs.first() {
            txn.set_ref(anchor, 0, child)?;
            let tmp = txn.create_object(
                p0,
                NewObject {
                    tag: 7,
                    refs: vec![child],
                    ref_cap: 2,
                    payload: vec![],
                    payload_cap: 8,
                },
            )?;
            txn.delete_object(tmp)?;
        }
        Ok(())
    })();
    let _ = txn.commit();
}

/// Run one cell of the chaos matrix end to end, panicking on any invariant
/// violation. See the module docs for the protocol.
pub fn run_crash_cell(cell: &ChaosCell) -> CellOutcome {
    // Capture the cell's schedule: a failing assertion anywhere below
    // leaves the event ring behind for `SCHED_DUMP` (the ring is cleared on
    // arm, so a dump covers exactly this cell). Not disarmed on panic.
    brahma::sched::arm();
    brahma::sched::set_thread_label("cell-driver");
    let store = StoreConfig {
        lock_timeout: Duration::from_millis(25),
        ..StoreConfig::default()
    };
    let db = Arc::new(Database::new(store));
    let graph = build_graph(&db);
    let (p1, chain_len) = (graph.p1, graph.chain_len);

    // Durable state the crash falls back to: everything built so far.
    let store_ckpt = db.checkpoint(cell.seed);

    let stop = Arc::new(AtomicBool::new(false));
    let walkers = spawn_walkers(&db, &graph, &stop);

    db.fault.arm(FaultPlan::new(cell.seed).with(FaultRule::nth(
        cell.site,
        cell.nth_hit,
        FaultAction::Crash,
    )));
    primer(&db, graph.p0, graph.anchors[0]);

    let mut reorg = Reorg::on(&db, p1)
        .plan(RelocationPlan::CompactInPlace)
        .batch(2)
        .quiesce_wait(Duration::from_secs(10));
    // `ira.checkpoint` only executes when a checkpoint is written, so its
    // cells write one at every batch boundary.
    if cell.site == site::CHECKPOINT {
        reorg = reorg.checkpoint_every(1);
    }
    let result = reorg.run();

    // ordering: SeqCst stop flag; shutdown visibility without pairing analysis
    stop.store(true, Ordering::SeqCst);
    for w in walkers {
        let _ = w.join();
    }
    let fired = db.fault.fired(cell.site);
    db.fault.disarm();

    match result {
        Ok(outcome) => {
            assert_eq!(
                outcome.migrated(),
                chain_len,
                "cell {cell:?}: clean run must migrate the whole chain"
            );
            let report = outcome.ira().expect("incremental run reports IRA");
            crate::verify::assert_reorganization_clean(&db, report);
            brahma::sweep::assert_database_consistent(&db);
            brahma::sched::disarm();
            CellOutcome {
                fired,
                crashed: false,
                premigrated: 0,
                migrated: outcome.migrated(),
            }
        }
        Err(IraError::SimulatedCrash(ckpt)) => {
            let premigrated = ckpt.mapping.len();
            let image = db.crash(store_ckpt, true);
            let blob = image
                .reorg_checkpoints
                .iter()
                .find(|(p, _)| *p == p1)
                .map(|(_, b)| b.clone())
                .expect("crash image must carry the durable reorg checkpoint");
            let pre_crash_log = image.log.clone();
            drop(db);

            let out = recover(image, StoreConfig::default()).expect("recovery");
            assert_eq!(out.interrupted_reorgs, vec![p1], "cell {cell:?}");
            let recovered = IraCheckpoint::decode(&blob).expect("checkpoint decode");
            assert_eq!(recovered.mapping.len(), premigrated, "cell {cell:?}");
            assert_trt_reconstruction_covers(
                &pre_crash_log,
                &recovered,
                out.db.trt_purge_enabled(),
            );

            let db = out.db;
            let outcome = Reorg::on(&db, p1)
                .resume_from(recovered, &pre_crash_log)
                .run()
                .expect("resume after crash");
            assert_eq!(
                outcome.migrated(),
                chain_len,
                "cell {cell:?}: resume must finish migrating the chain"
            );
            let report = outcome.ira().expect("resume reports IRA");
            crate::verify::assert_reorganization_clean(&db, report);
            brahma::sweep::assert_database_consistent(&db);
            brahma::sched::disarm();
            CellOutcome {
                fired,
                crashed: true,
                premigrated,
                migrated: outcome.migrated(),
            }
        }
        Err(e) => panic!("cell {cell:?}: reorganization failed: {e}"),
    }
}

/// Run `f`, and if it panics print a one-line `REPRO: {banner}` to stderr
/// (plus a schedule dump when `SCHED_DUMP=path` is set) before resuming the
/// unwind. Every chaos/property test wraps its assertion-bearing
/// body in this so a flake always leaves its seed and cell coordinates
/// behind — the banner is the re-run command's arguments.
pub fn with_repro_banner<T>(banner: &str, f: impl FnOnce() -> T) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            eprintln!("REPRO: {banner}");
            brahma::sched::dump_on_failure(banner);
            std::panic::resume_unwind(payload)
        }
    }
}

/// Assert the seeded TRT reconstruction (checkpoint snapshot + the log at
/// or after `trt_lsn`) is a conservative superset of the from-scratch
/// reconstruction over the whole reorganization window — the equivalence
/// the checkpoint-resume path relies on: duplicates are allowed (the exact
/// parent check discards stale tuples under locks), losses are not.
/// Left out: tuples about objects before the checkpoint's queue position,
/// which `Find_Exact_Parents` consumed, and tuples of transactions begun
/// before the reorganization that ended before its first batch began. Those
/// may have noted before the table existed, and Section 4.5's wait ends
/// them before the traversal; one still running then is checked.
pub fn assert_trt_reconstruction_covers(
    pre_crash_log: &[LogRecord],
    ckpt: &IraCheckpoint,
    purge: bool,
) {
    let start = pre_crash_log
        .iter()
        .position(|r| {
            matches!(&r.payload,
                     LogPayload::ReorgStart { partition } if *partition == ckpt.partition)
        })
        .expect("the surviving log must contain the reorganization start");
    let full = rebuild_trt(&pre_crash_log[start..], ckpt.partition, purge);
    let window: Vec<LogRecord> = pre_crash_log
        .iter()
        .filter(|r| r.lsn >= ckpt.trt_lsn)
        .cloned()
        .collect();
    let seeded = rebuild_trt_seeded(&window, ckpt.partition, purge, &ckpt.trt_snapshot);
    let key = |t: &TrtTuple| {
        (
            t.child.to_raw(),
            t.parent.to_raw(),
            t.tid.0,
            t.action == RefAction::Insert,
        )
    };
    let seeded_keys: HashSet<_> = seeded.dump().iter().map(key).collect();
    let since_start = &pre_crash_log[start..];
    let first_batch = since_start.iter()
        .position(|r| r.payload == LogPayload::Begin { reorg: Some(ckpt.partition) })
        .unwrap_or(since_start.len());
    let begun_after: HashSet<TxnId> = since_start.iter()
        .filter(|r| matches!(r.payload, LogPayload::Begin { .. })).map(|r| r.tid).collect();
    let quiesced: HashSet<TxnId> = since_start[..first_batch].iter()
        .filter(|r| matches!(r.payload, LogPayload::Commit | LogPayload::Abort) && !begun_after.contains(&r.tid))
        .map(|r| r.tid).collect();
    let done = &ckpt.state.order[..ckpt.pos];
    for t in full.dump().into_iter().filter(|t| !quiesced.contains(&t.tid) && !done.contains(&t.child)) {
        assert!(
            seeded_keys.contains(&key(&t)),
            "seeded TRT reconstruction lost tuple {t:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_covers_substrate_and_ira() {
        let sites = all_sites();
        assert_eq!(
            sites.len(),
            brahma::fault::site::ALL.len() + site::ALL.len()
        );
        assert!(sites.contains(&brahma::fault::site::WAL_COMMIT_FLUSH));
        assert!(sites.contains(&site::MIGRATE_COMMIT));
    }

    #[test]
    fn clean_cell_completes_when_site_never_fires() {
        // Hit number far beyond what the run generates: the rule never
        // fires, the cell must complete and verify.
        let out = run_crash_cell(&ChaosCell {
            site: site::TRAVERSAL,
            nth_hit: 1_000_000,
            seed: 1,
        });
        assert!(!out.crashed);
        assert_eq!(out.fired, 0);
        assert_eq!(out.migrated, CHAIN_LEN);
    }

    #[test]
    fn crash_cell_recovers_and_resumes() {
        let out = run_crash_cell(&ChaosCell {
            site: site::BATCH,
            nth_hit: 2,
            seed: 2,
        });
        assert!(out.crashed);
        assert_eq!(out.fired, 1);
        assert_eq!(out.migrated, CHAIN_LEN);
    }

    /// A transaction begun before the reorganization whose note raced
    /// `start_reorg` (logged after `ReorgStart`, so absent from the live
    /// table and the checkpoint's snapshot) is excused only if it ended
    /// before the reorganizer's first batch began.
    #[test]
    fn pre_start_transaction_is_excused_only_if_it_ended_before_the_first_batch() {
        let p = PartitionId(1);
        let rec = |lsn, tid, payload| LogRecord { lsn, tid: TxnId(tid), payload };
        let log = |commit_lsn, batch_lsn| {
            let mut log = vec![
                rec(0, 5, LogPayload::Begin { reorg: None }),
                rec(1, 0, LogPayload::ReorgStart { partition: p }),
                rec(2, 5, LogPayload::InsertRef {
                    parent: PhysAddr::new(PartitionId(2), 0, 0),
                    child: PhysAddr::new(p, 0, 0),
                    index: 0,
                }),
                rec(commit_lsn, 5, LogPayload::Commit),
                rec(batch_lsn, 9, LogPayload::Begin { reorg: Some(p) }),
            ];
            log.sort_by_key(|r| r.lsn);
            log
        };
        let ckpt = IraCheckpoint {
            partition: p,
            plan: RelocationPlan::CompactInPlace,
            state: Default::default(),
            mapping: Vec::new(),
            pos: 0,
            trt_snapshot: Vec::new(),
            trt_lsn: 5,
        };
        assert_trt_reconstruction_covers(&log(3, 4), &ckpt, true);
        let still_running = log(4, 3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_trt_reconstruction_covers(&still_running, &ckpt, true)
        }));
        assert!(caught.is_err(), "a transaction still running at the first batch is checked");
    }
}
