//! Checkpointing and restart recovery.
//!
//! The paper's Section 4.4 discusses how failures interact with the ERT and
//! the two steps of IRA. The substrate side of that story lives here:
//!
//! * [`Database::checkpoint`] captures a transaction-consistent snapshot of
//!   every partition (its page images, their size classes and an open
//!   pass's floor) plus the roots; [`Database::checkpoint_durable`] writes
//!   it to `checkpoint.img`.
//! * [`recover`] performs ARIES-style restart recovery over a
//!   [`CrashImage`] — the checkpoint plus the log that reached the segment
//!   files, which [`crate::storage::open`] reads back after a crash: analysis
//!   over the surviving log, redo of *all* surviving updates from the
//!   checkpoint ("repeating history"), then undo of loser transactions. The
//!   undo is applied, not logged: `open` checkpoints right after a recovery
//!   that replayed anything, and a crash before that checkpoint re-runs it.
//!   What the pages already say is not stored: each partition's allocator
//!   directory is read off its page images, and once undo is done one sweep
//!   over the live objects' cross-partition references rebuilds the ERTs.
//!   REDO repeats the pass boundaries too, so a reorganization that was in
//!   progress comes back as a pass still open at its floor, and is reported
//!   as interrupted so the caller can restart IRA from that floor (its
//!   migrations are transactional — completed migrations survive above the
//!   floor, the in-flight one rolls back).

use crate::addr::{PartitionId, PhysAddr};
use crate::config::StoreConfig;
use crate::db::Database;
use crate::error::{Error, Result};
use crate::object;
use crate::partition::{Partition, PartitionSnapshot};
use crate::txn::TxnId;
use crate::wal::{LogPayload, LogRecord, Lsn};
use std::collections::HashMap;

/// A transaction-consistent snapshot of the whole database. The default
/// is the empty database's: id 0, LSN 0, no partitions, no roots.
#[derive(Default)]
pub struct Checkpoint {
    pub id: u64,
    /// The first LSN the snapshot does not cover: replay starts here.
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
        let lsn = self.wal.next_lsn();
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
    let next = image.log.iter().map(|r| r.lsn + 1).max().unwrap_or(0);
    db.wal.advance_to(next.max(image.checkpoint.lsn));
    // Rebuild partitions and roots from the checkpoint.
    for snap in &image.checkpoint.partitions {
        db.install_partition(Partition::from_snapshot(snap)?);
    }
    for root in &image.checkpoint.roots {
        db.add_root(*root);
    }

    // ---- Analysis: each transaction still open at the end of the log,
    // with its updates ----
    let mut open: HashMap<TxnId, Vec<LogPayload>> = HashMap::new();
    for rec in &image.log {
        match &rec.payload {
            LogPayload::Begin => {
                open.insert(rec.tid, Vec::new());
            }
            LogPayload::Commit | LogPayload::Abort => {
                open.remove(&rec.tid);
            }
            LogPayload::Create { .. }
            | LogPayload::Free { .. }
            | LogPayload::SetPayload { .. }
            | LogPayload::InsertRef { .. }
            | LogPayload::DeleteRef { .. }
            | LogPayload::SetRef { .. }
            | LogPayload::Migrate { .. }
            | LogPayload::Move { .. } => {
                if let Some(updates) = open.get_mut(&rec.tid) {
                    updates.push(rec.payload.clone());
                }
            }
            LogPayload::ReorgStart { .. }
            | LogPayload::ReorgEnd { .. }
            | LogPayload::CreatePartition { .. } => {}
        }
    }

    // ---- Redo: repeat history ----
    for rec in &image.log {
        redo_record(&db, &rec.payload)?;
    }

    // ---- Undo losers ----
    let mut losers: Vec<TxnId> = open.keys().copied().collect();
    losers.sort_unstable();
    for tid in &losers {
        let updates = open.remove(tid).unwrap_or_default();
        // Analysis kept only update records, each of which has an inverse:
        // perform it like any other update.
        for compensation in updates.into_iter().rev().filter_map(LogPayload::inverse) {
            redo_record(&db, &compensation)?;
        }
    }
    rebuild_erts(&db)?;

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

/// Re-apply one logged record against the recovering database (no
/// reorganization is live during recovery, so there is no TRT).
fn redo_record(db: &Database, payload: &LogPayload) -> Result<()> {
    match payload {
        LogPayload::CreatePartition { id } => {
            if (id.0 as usize) >= db.partition_count() {
                let created = db.create_partition();
                if created != *id {
                    return Err(Error::RecoveryCorrupt(format!(
                        "partition id mismatch during redo: {created} vs {id}"
                    )));
                }
            }
            Ok(())
        }
        // Repeat the pass boundaries: the floor the allocator bumps above,
        // and the pages `end_reorg` dropped.
        LogPayload::ReorgStart { partition, floor } => {
            db.partition_ref(*partition)?.redo_begin_pass(*floor);
            Ok(())
        }
        LogPayload::ReorgEnd { partition, base } => {
            db.partition_ref(*partition)?.redo_end_pass(*base)
        }
        update => db.apply_update(update, false),
    }
}

/// Fill every partition's ERT from the recovered pages: one sweep over the
/// live objects' references that cross a partition. A reference into a
/// partition that does not exist has no ERT to enter, as in the live store.
fn rebuild_erts(db: &Database) -> Result<()> {
    let mut external = Vec::new();
    for p in db.partition_ids() {
        for parent in db.partition_ref(p)?.live_objects() {
            external.clear();
            db.with_page_read(parent, |buf| {
                object::refs(buf, parent)
                    .map(|refs| external.extend(refs.filter(|c| c.partition() != p)))
            })??;
            for &child in &external {
                if let Ok(part) = db.partition_ref(child.partition()) {
                    part.ert.insert(child, parent);
                }
            }
        }
    }
    Ok(())
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
    /// partition byte for byte: the `Move` of `a` into the freed slot and
    /// back included.
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
            LogPayload::Move { old: a, new: hole },
        ];
        // Page images per partition: at the checkpoint, and after REDO of
        // one committed transaction holding `updates`.
        type Pages = Vec<Vec<(Option<u8>, Vec<u8>)>>;
        let pages_after = |updates: Vec<LogPayload>| -> (Pages, Pages) {
            let checkpoint = db.checkpoint(0);
            let before = checkpoint
                .partitions
                .iter()
                .map(|p| p.pages.clone())
                .collect();
            let log = [LogPayload::Begin]
                .into_iter()
                .chain(updates)
                .chain([LogPayload::Commit])
                .enumerate()
                .map(|(i, payload)| LogRecord {
                    lsn: checkpoint.lsn + i as u64,
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
