//! Checkpointing and restart recovery.
//!
//! The paper's Section 4.4 discusses how failures interact with the ERT and
//! the two steps of IRA. The substrate side of that story lives here:
//!
//! * [`Database::checkpoint`] captures a transaction-consistent snapshot of
//!   every partition (pages, allocator directory, ERT) plus the roots;
//!   [`Database::checkpoint_durable`] writes it to `checkpoint.img`.
//! * [`recover`] performs ARIES-style restart recovery over a
//!   [`CrashImage`] — the checkpoint plus the log that reached the segment
//!   files, which [`crate::storage::open`] reads back after a crash: analysis
//!   over the surviving log, redo of *all* surviving updates from the
//!   checkpoint ("repeating history"), then undo of loser transactions. The
//!   undo is applied, not logged: `open` checkpoints right after recovery,
//!   and a crash before that checkpoint re-runs it. ERT maintenance replays
//!   along with the updates, so the recovered ERTs are exact. REDO repeats the pass boundaries too,
//!   so a reorganization that was in progress comes back as a pass still
//!   open at its floor, and is reported as interrupted so the caller can
//!   restart IRA from that floor (its migrations are transactional —
//!   completed migrations survive above the floor, the in-flight one rolls
//!   back).

use crate::addr::{PartitionId, PhysAddr};
use crate::config::StoreConfig;
use crate::db::Database;
use crate::error::{Error, Result};
use crate::partition::{Partition, PartitionSnapshot};
use crate::txn::TxnId;
use crate::wal::{LogPayload, LogRecord, Lsn};
use std::collections::HashMap;

/// A transaction-consistent snapshot of the whole database.
pub struct Checkpoint {
    pub id: u64,
    /// Replay starts at this LSN.
    pub lsn: Lsn,
    pub partitions: Vec<PartitionSnapshot>,
    pub roots: Vec<PhysAddr>,
}

/// What survives a crash: the last checkpoint and the durable log from its
/// LSN on.
pub(crate) struct CrashImage {
    pub checkpoint: Checkpoint,
    pub log: Vec<LogRecord>,
}

/// The result of restart recovery.
pub(crate) struct RecoveryOutcome {
    pub db: Database,
    /// Transactions that were rolled back as losers.
    pub losers: Vec<TxnId>,
    /// Partitions whose pass is still open after REDO: the crash
    /// interrupted their reorganization, which restarts from the pass's
    /// floor (Section 4.4).
    pub interrupted_reorgs: Vec<PartitionId>,
}

impl Database {
    /// Take a checkpoint. Must be called at a quiescent point (no active
    /// transactions); the paper's checkpoints of reorganization state are
    /// likewise taken between migrations.
    pub(crate) fn checkpoint(&self, id: u64) -> Checkpoint {
        debug_assert_eq!(
            self.txns.active_count(),
            0,
            "checkpoints are taken at quiescent points"
        );
        let lsn = self.wal.append(TxnId(0), LogPayload::Checkpoint { id });
        #[expect(
            clippy::expect_used,
            reason = "invariant: partitions are never dropped, so every listed id resolves"
        )]
        let partitions = self
            .partition_ids()
            .into_iter()
            .map(|p| {
                self.partition(p)
                    .expect("invariant: partition_ids lists live partitions")
                    .snapshot()
            })
            .collect();
        Checkpoint {
            id,
            lsn,
            partitions,
            roots: self.roots(),
        }
    }
}

/// Restart recovery from a crash image.
pub(crate) fn recover(image: CrashImage, config: StoreConfig) -> Result<RecoveryOutcome> {
    let db = Database::new(config);
    // Continue the pre-crash LSN space: every record the new incarnation
    // appends gets an LSN above anything that survived, so logs from
    // different incarnations merge by LSN.
    let max_lsn = image
        .log
        .iter()
        .map(|r| r.lsn)
        .max()
        .unwrap_or(0)
        .max(image.checkpoint.lsn);
    db.wal.advance_to(max_lsn + 1);
    // Rebuild partitions and roots from the checkpoint.
    for snap in &image.checkpoint.partitions {
        db.install_partition(Partition::from_snapshot(snap));
    }
    for root in &image.checkpoint.roots {
        db.add_root(*root);
    }

    // ---- Analysis ----
    let mut active: HashMap<TxnId, Option<PartitionId>> = HashMap::new(); // tid -> reorg partition
    let mut txn_updates: HashMap<TxnId, Vec<LogPayload>> = HashMap::new();
    for rec in &image.log {
        match &rec.payload {
            LogPayload::Begin { reorg } => {
                active.insert(rec.tid, *reorg);
                txn_updates.insert(rec.tid, Vec::new());
            }
            LogPayload::Commit | LogPayload::Abort => {
                active.remove(&rec.tid);
                txn_updates.remove(&rec.tid);
            }
            LogPayload::Create { .. }
            | LogPayload::Free { .. }
            | LogPayload::SetPayload { .. }
            | LogPayload::InsertRef { .. }
            | LogPayload::DeleteRef { .. }
            | LogPayload::SetRef { .. } => {
                txn_updates
                    .entry(rec.tid)
                    .or_default()
                    .push(rec.payload.clone());
            }
            LogPayload::ReorgStart { .. }
            | LogPayload::ReorgEnd { .. }
            | LogPayload::Migrate { .. }
            | LogPayload::Checkpoint { .. }
            | LogPayload::CreatePartition { .. } => {}
        }
    }

    // ---- Redo: repeat history ----
    for rec in &image.log {
        redo_record(&db, &rec.payload)?;
    }

    // ---- Undo losers ----
    let mut losers: Vec<TxnId> = active.keys().copied().collect();
    losers.sort_unstable();
    for &tid in &losers {
        let updates = txn_updates.remove(&tid).unwrap_or_default();
        // Analysis kept only update records, each of which has an inverse:
        // perform it like any other update.
        for compensation in updates.into_iter().rev().filter_map(LogPayload::inverse) {
            redo_record(&db, &compensation)?;
        }
    }

    // A pass is open in the checkpoint's snapshot or after REDO of its
    // `ReorgStart`, and closed by REDO of its `ReorgEnd`.
    let interrupted = db
        .partition_ids()
        .into_iter()
        .filter(|&p| {
            db.partition_ref(p)
                .is_ok_and(|part| part.pass_floor().is_some())
        })
        .collect();
    Ok(RecoveryOutcome {
        db,
        losers,
        interrupted_reorgs: interrupted,
    })
}

/// Re-apply one logged record against the recovering database: the
/// update's physical effect plus the ERT maintenance that rode along with
/// it (no reorganization is live during recovery, so there is no TRT).
fn redo_record(db: &Database, payload: &LogPayload) -> Result<()> {
    if let LogPayload::CreatePartition { id } = payload {
        if (id.0 as usize) >= db.partition_count() {
            let created = db.create_partition();
            if created != *id {
                return Err(Error::RecoveryCorrupt(format!(
                    "partition id mismatch during redo: {created} vs {id}"
                )));
            }
        }
        return Ok(());
    }
    match payload {
        // Repeat the pass boundaries: the floor the allocator bumps above,
        // and the pages `end_reorg` dropped.
        LogPayload::ReorgStart { partition, floor } => {
            db.partition_ref(*partition)?.redo_begin_pass(*floor);
            return Ok(());
        }
        LogPayload::ReorgEnd { partition, base } => {
            return db.partition_ref(*partition)?.redo_end_pass(*base);
        }
        _ => {}
    }
    db.apply_update(payload, false)?;
    let mut ert = Ok(());
    payload.for_each_ref_change(|action, parent, child| {
        if ert.is_ok() {
            ert = db.ert_note(action, parent, child);
        }
    });
    ert
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{site, FaultAction, FaultPlan, FaultRule};
    use crate::handle::NewObject;
    use crate::lock::LockMode;
    use crate::storage::{
        open,
        tests::{file_config, tmpdir},
    };
    use std::path::PathBuf;

    /// A fresh two-partition store on disk; drop it to crash it.
    fn fresh_db(tag: &str) -> (Database, StoreConfig, PathBuf) {
        let dir = tmpdir(tag);
        let config = file_config(&dir);
        let db = open(config.clone()).unwrap().db;
        db.create_partition();
        db.create_partition();
        (db, config, dir)
    }

    fn mk(db: &Database, p: u16, refs: Vec<PhysAddr>, payload: &[u8]) -> PhysAddr {
        let mut t = db.begin();
        let a = t
            .create_object(
                PartitionId(p),
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 4,
                    payload: payload.to_vec(),
                    payload_cap: 32,
                },
            )
            .unwrap();
        t.commit().unwrap();
        a
    }

    #[test]
    fn committed_work_survives_a_crash() {
        let (db, config, dir) = fresh_db("committed");
        let a = mk(&db, 0, vec![], b"before-ckpt");
        db.checkpoint_durable(1).unwrap();
        let b = mk(&db, 1, vec![], b"after-ckpt");
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.insert_ref(a, b).unwrap();
        t.commit().unwrap();
        drop(db);

        let out = open(config).unwrap();
        assert!(out.losers.is_empty());
        assert_eq!(out.db.raw_read(a).unwrap().refs, vec![b]);
        assert_eq!(out.db.raw_read(b).unwrap().payload, b"after-ckpt".to_vec());
        // Cross-partition edge restored in the ERT.
        assert!(out.db.partition(PartitionId(1)).unwrap().ert.contains(b, a));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_work_is_rolled_back() {
        let (db, config, dir) = fresh_db("loser");
        let a = mk(&db, 0, vec![], b"stable");
        // A transaction that never commits before the crash. Its records
        // reach the segment file and must be undone.
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.set_payload(a, b"dirty").unwrap();
        std::mem::forget(t); // the crash preempts the transaction
        drop(db);
        let out = open(config).unwrap();
        assert_eq!(out.losers.len(), 1);
        assert_eq!(out.db.raw_read(a).unwrap().payload, b"stable".to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_tail_is_simply_lost() {
        let (db, config, dir) = fresh_db("unwritten");
        let a = mk(&db, 0, vec![], b"stable");
        // The process dies at the transaction's first append: nothing of it
        // reaches the file, so there is nothing to undo.
        let kill = FaultRule::nth(site::FILE_PWRITE, 1, FaultAction::Crash);
        db.fault.arm(FaultPlan::new(0).with(kill));
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.set_payload(a, b"dirty").unwrap();
        std::mem::forget(t);
        drop(db);
        let out = open(config).unwrap();
        assert!(out.losers.is_empty());
        assert_eq!(out.db.raw_read(a).unwrap().payload, b"stable".to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loser_object_creation_is_undone() {
        let (db, config, dir) = fresh_db("loser-create");
        let mut t = db.begin();
        let a = t
            .create_object(PartitionId(0), NewObject::exact(1, vec![], b"tmp".to_vec()))
            .unwrap();
        std::mem::forget(t);
        drop(db);
        let out = open(config).unwrap();
        assert!(out.db.raw_read(a).is_err());
        assert_eq!(out.db.partition(PartitionId(0)).unwrap().object_count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_reorg_is_reported() {
        let (db, config, dir) = fresh_db("interrupted");
        db.start_reorg(PartitionId(1)).unwrap();
        drop(db);
        let out = open(config).unwrap();
        assert_eq!(out.interrupted_reorgs, vec![PartitionId(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
        // A completed reorg is not reported.
        let (db, config, dir) = fresh_db("completed");
        db.start_reorg(PartitionId(1)).unwrap();
        db.end_reorg(PartitionId(1));
        drop(db);
        let out = open(config).unwrap();
        assert!(out.interrupted_reorgs.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn redo_detects_log_corruption() {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        let a = mk(&db, 0, vec![], b"x");
        let b = mk(&db, 0, vec![], b"y");
        // The checkpoint holds the state; forge a DeleteRef that does not
        // match it.
        let image = CrashImage {
            checkpoint: db.checkpoint(1),
            log: vec![LogRecord {
                lsn: 999,
                tid: TxnId(42),
                payload: LogPayload::DeleteRef {
                    parent: a,
                    child: b,
                    index: 0,
                },
            }],
        };
        assert!(recover(image, StoreConfig::default()).is_err());
    }

    /// For one applicable record of each update type, REDO of `[p]` changes
    /// the pages and REDO of `[p, p.inverse()]` restores every page of every
    /// partition byte for byte.
    #[test]
    fn update_then_inverse_restores_page_images() {
        let spec = |refs: Vec<PhysAddr>| NewObject {
            tag: 7,
            refs,
            ref_cap: 4,
            payload: vec![0xC3; 5],
            payload_cap: 16,
        };
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let c: Vec<PhysAddr> = (0..3)
            .map(|_| t.create_object(p1, spec(vec![])).unwrap())
            .collect();
        let a = t.create_object(p0, spec(vec![c[0], c[1]])).unwrap();
        // A freed slot: a valid, currently unused address for `Create`.
        let hole = t.create_object(p0, spec(vec![c[2]])).unwrap();
        let hole_image = t.read(hole).unwrap();
        t.delete_object(hole).unwrap();
        t.lock(a, LockMode::Shared).unwrap();
        let a_image = t.read(a).unwrap();
        t.commit().unwrap();

        let updates = vec![
            LogPayload::Create {
                addr: hole,
                image: hole_image,
            },
            LogPayload::Free {
                addr: a,
                image: a_image.clone(),
            },
            LogPayload::SetPayload {
                addr: a,
                old: a_image.payload,
                new: vec![9; 3],
            },
            LogPayload::InsertRef {
                parent: a,
                child: c[2],
                index: 1,
            },
            LogPayload::DeleteRef {
                parent: a,
                child: c[0],
                index: 0,
            },
            LogPayload::SetRef {
                parent: a,
                index: 1,
                old_child: c[1],
                new_child: c[2],
            },
        ];
        // Page images per partition: at the checkpoint, and after REDO of
        // one committed transaction holding `updates`.
        type Pages = Vec<Vec<Vec<u8>>>;
        let pages_after = |updates: Vec<LogPayload>| -> (Pages, Pages) {
            let checkpoint = db.checkpoint(0);
            let before = checkpoint
                .partitions
                .iter()
                .map(|p| p.pages.clone())
                .collect();
            let log = [LogPayload::Begin { reorg: None }]
                .into_iter()
                .chain(updates)
                .chain([LogPayload::Commit])
                .enumerate()
                .map(|(i, payload)| LogRecord {
                    lsn: checkpoint.lsn + 1 + i as u64,
                    tid: TxnId(9_000),
                    payload,
                })
                .collect();
            let out = recover(CrashImage { checkpoint, log }, StoreConfig::default()).unwrap();
            assert!(out.losers.is_empty());
            let after = [p0, p1]
                .iter()
                .map(|p| out.db.partition(*p).unwrap().snapshot().pages)
                .collect();
            (before, after)
        };
        for p in updates {
            let inv = p.clone().inverse().unwrap();
            let (before, after) = pages_after(vec![p.clone()]);
            assert_ne!(before, after, "{p:?} must change a page");
            let (before, after) = pages_after(vec![p.clone(), inv]);
            assert_eq!(
                before, after,
                "{p:?} then its inverse must restore every page"
            );
        }
    }
}
