//! Checkpointing, crash simulation, and restart recovery.
//!
//! The paper's Section 4.4 discusses how failures interact with the ERT and
//! the two steps of IRA. The substrate side of that story lives here:
//!
//! * [`Database::checkpoint`] captures a transaction-consistent snapshot of
//!   every partition (pages, allocator directory, ERT) plus the roots.
//! * [`Database::crash`] models a failure of the memory-resident database:
//!   what survives is the checkpoint and the *flushed* prefix of the log
//!   (commit forces the log, so every committed transaction's records
//!   survive; an in-flight transaction's tail may be lost).
//! * [`recover`] performs ARIES-style restart recovery: analysis over the
//!   surviving log, redo of *all* surviving updates from the checkpoint
//!   ("repeating history"), then undo of loser transactions with
//!   compensation records. ERT maintenance replays along with the updates,
//!   so the recovered ERTs are exact; a reorganization that was in progress
//!   is reported as interrupted so the caller can restart IRA (whose
//!   migrations are transactional — completed migrations survive, the
//!   in-flight one rolls back).

use crate::addr::{PartitionId, PhysAddr};
use crate::config::StoreConfig;
use crate::db::Database;
use crate::error::{Error, Result};
use crate::partition::{Partition, PartitionSnapshot};
use crate::txn::TxnId;
use crate::wal::{LogPayload, LogRecord, Lsn};
use std::collections::{HashMap, HashSet};

/// A transaction-consistent snapshot of the whole database.
pub struct Checkpoint {
    pub id: u64,
    /// Replay starts at this LSN.
    pub lsn: Lsn,
    pub partitions: Vec<PartitionSnapshot>,
    pub roots: Vec<PhysAddr>,
    /// Partitions whose reorganization was in progress when the checkpoint
    /// was taken. A checkpoint taken *after* a `ReorgStart` record makes
    /// that record invisible to replay (it is below the checkpoint LSN);
    /// this field carries the open reorganizations across, so recovery
    /// still reports them interrupted. Empty for the common
    /// checkpoint-before-reorg case.
    pub active_reorgs: Vec<PartitionId>,
}

/// What survives a crash: the last checkpoint and the durable log prefix.
pub struct CrashImage {
    pub checkpoint: Checkpoint,
    pub log: Vec<LogRecord>,
    /// Durable reorganizer checkpoints (see
    /// [`Database::save_reorg_checkpoint`]): the utility's serialized
    /// progress record per partition under reorganization.
    pub reorg_checkpoints: Vec<(PartitionId, Vec<u8>)>,
}

/// The result of restart recovery.
pub struct RecoveryOutcome {
    pub db: Database,
    /// Transactions that were rolled back as losers.
    pub losers: Vec<TxnId>,
    /// Partitions whose reorganization was interrupted by the crash; the
    /// reorganizer must be restarted on them (Section 4.4).
    pub interrupted_reorgs: Vec<PartitionId>,
    /// The surviving reorganizer checkpoint for each interrupted partition
    /// that had saved one — hand these back to the reorganization utility
    /// so it resumes from its last checkpoint instead of from scratch.
    pub reorg_checkpoints: Vec<(PartitionId, Vec<u8>)>,
}

impl Database {
    /// Take a checkpoint. Must be called at a quiescent point (no active
    /// transactions); the paper's checkpoints of reorganization state are
    /// likewise taken between migrations.
    pub fn checkpoint(&self, id: u64) -> Checkpoint {
        debug_assert_eq!(
            self.txns.active_count(),
            0,
            "checkpoints are taken at quiescent points"
        );
        let lsn = self.wal.append(TxnId(0), LogPayload::Checkpoint { id });
        #[expect(
            clippy::expect_used,
            reason = "invariant: partitions are never dropped, so every id partition_ids() lists resolves"
        )]
        let partitions = self
            .partition_ids()
            .into_iter()
            .map(|p| self.partition(p).expect("invariant: partition_ids lists live partitions").snapshot())
            .collect();
        Checkpoint {
            id,
            lsn,
            partitions,
            roots: self.roots(),
            active_reorgs: self.active_reorg_ids(),
        }
    }

    /// Model a crash: volatile state is discarded; the checkpoint and the
    /// flushed log prefix survive. (Pass `force_tail = true` to model a
    /// device that had flushed everything — useful for deterministic
    /// crash-injection tests.)
    pub fn crash(&self, checkpoint: Checkpoint, force_tail: bool) -> CrashImage {
        let horizon = if force_tail {
            u64::MAX
        } else {
            self.wal.flushed_lsn()
        };
        let log = self
            .wal
            .records_from(checkpoint.lsn)
            .into_iter()
            .filter(|r| r.lsn <= horizon)
            .collect();
        CrashImage {
            checkpoint,
            log,
            reorg_checkpoints: self.reorg_checkpoint_snapshot(),
        }
    }
}

/// Restart recovery from a crash image.
pub fn recover(image: CrashImage, config: StoreConfig) -> Result<RecoveryOutcome> {
    let db = Database::new(config);
    // Continue the pre-crash LSN space: every record the new incarnation
    // appends (recovery compensations included) gets an LSN above anything
    // that survived, so logs from different incarnations merge by LSN.
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
    let mut reorgs: HashSet<PartitionId> =
        image.checkpoint.active_reorgs.iter().copied().collect();
    let mut logged_blobs: HashMap<PartitionId, Vec<u8>> = HashMap::new();
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
            LogPayload::ReorgStart { partition } => {
                reorgs.insert(*partition);
            }
            LogPayload::ReorgEnd { partition } => {
                reorgs.remove(partition);
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
            LogPayload::ReorgCheckpoint { partition, blob } => {
                // Keep the latest logged reorganizer checkpoint per
                // partition; it supersedes the (older, or equal) blob a
                // durable checkpoint file carried across.
                logged_blobs.insert(*partition, blob.clone());
            }
            LogPayload::Migrate { .. }
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
        // log it as the compensation record, then perform it like any other.
        let compensations = updates.into_iter().rev().filter_map(LogPayload::inverse);
        for compensation in compensations {
            db.wal.append(tid, compensation.clone());
            redo_record(&db, &compensation)?;
        }
        db.wal.append(tid, LogPayload::Abort);
    }

    let mut interrupted: Vec<PartitionId> = reorgs.into_iter().collect();
    interrupted.sort_unstable();
    let mut blobs: HashMap<PartitionId, Vec<u8>> =
        image.reorg_checkpoints.into_iter().collect();
    blobs.extend(logged_blobs);
    let mut reorg_checkpoints: Vec<(PartitionId, Vec<u8>)> = blobs
        .into_iter()
        .filter(|(p, _)| interrupted.contains(p))
        .collect();
    reorg_checkpoints.sort_by_key(|(p, _)| *p);
    Ok(RecoveryOutcome {
        db,
        losers,
        interrupted_reorgs: interrupted,
        reorg_checkpoints,
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
    if let LogPayload::ReorgEnd { partition } = payload {
        // Repeat `end_reorg`'s flush: a checkpoint taken mid-reorganization
        // recorded the slots freed until then as withheld.
        db.partition_ref(*partition)?.flush_deferred_frees();
        return Ok(());
    }
    db.apply_update(payload, None, false)?;
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
    use crate::handle::NewObject;
    use crate::lock::LockMode;

    fn fresh_db() -> Database {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        db.create_partition();
        db
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
        let db = fresh_db();
        let a = mk(&db, 0, vec![], b"before-ckpt");
        let ckpt = db.checkpoint(1);
        let b = mk(&db, 1, vec![], b"after-ckpt");
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.insert_ref(a, b).unwrap();
        t.commit().unwrap();
        // No backend, no latency: the commits above forced the log with
        // the in-memory force, whose horizon the crash keeps.
        assert!(db.config.commit_flush_latency.is_zero() && db.backend().is_none());
        assert_eq!(db.wal.flushed_lsn(), db.wal.next_lsn() - 1);

        let image = db.crash(ckpt, false);
        let out = recover(image, StoreConfig::default()).unwrap();
        assert!(out.losers.is_empty());
        assert_eq!(out.db.raw_read(a).unwrap().refs, vec![b]);
        assert_eq!(out.db.raw_read(b).unwrap().payload, b"after-ckpt".to_vec());
        // Cross-partition edge restored in the ERT.
        assert!(out.db.partition(PartitionId(1)).unwrap().ert.contains(b, a));
    }

    #[test]
    fn uncommitted_work_is_rolled_back() {
        let db = fresh_db();
        let a = mk(&db, 0, vec![], b"stable");
        let ckpt = db.checkpoint(1);
        // A transaction that never commits before the crash.
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.set_payload(a, b"dirty").unwrap();
        // Crash with the tail durable: the loser's records survive and must
        // be undone.
        let image = db.crash(ckpt, true);
        std::mem::forget(t); // the crash preempts the transaction
        let out = recover(image, StoreConfig::default()).unwrap();
        assert_eq!(out.losers.len(), 1);
        assert_eq!(out.db.raw_read(a).unwrap().payload, b"stable".to_vec());
    }

    #[test]
    fn unflushed_tail_is_simply_lost() {
        let db = fresh_db();
        let a = mk(&db, 0, vec![], b"stable");
        let ckpt = db.checkpoint(1);
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.set_payload(a, b"dirty").unwrap();
        // No commit, no flush: nothing of the transaction survives.
        let image = db.crash(ckpt, false);
        std::mem::forget(t);
        let out = recover(image, StoreConfig::default()).unwrap();
        assert_eq!(out.db.raw_read(a).unwrap().payload, b"stable".to_vec());
    }

    #[test]
    fn loser_object_creation_is_undone() {
        let db = fresh_db();
        let ckpt = db.checkpoint(1);
        let mut t = db.begin();
        let a = t
            .create_object(PartitionId(0), NewObject::exact(1, vec![], b"tmp".to_vec()))
            .unwrap();
        let image = db.crash(ckpt, true);
        std::mem::forget(t);
        let out = recover(image, StoreConfig::default()).unwrap();
        assert!(out.db.raw_read(a).is_err());
        assert_eq!(
            out.db.partition(PartitionId(0)).unwrap().object_count(),
            0
        );
    }

    #[test]
    fn interrupted_reorg_is_reported() {
        let db = fresh_db();
        let ckpt = db.checkpoint(1);
        db.start_reorg(PartitionId(1)).unwrap();
        let image = db.crash(ckpt, true);
        let out = recover(image, StoreConfig::default()).unwrap();
        assert_eq!(out.interrupted_reorgs, vec![PartitionId(1)]);
        // A completed reorg is not reported.
        let db = fresh_db();
        let ckpt = db.checkpoint(1);
        db.start_reorg(PartitionId(1)).unwrap();
        db.end_reorg(PartitionId(1));
        let image = db.crash(ckpt, true);
        let out = recover(image, StoreConfig::default()).unwrap();
        assert!(out.interrupted_reorgs.is_empty());
    }

    #[test]
    fn redo_detects_log_corruption() {
        let db = fresh_db();
        let a = mk(&db, 0, vec![], b"x");
        let b = mk(&db, 0, vec![], b"y");
        let ckpt = db.checkpoint(1);
        let mut image = db.crash(ckpt, true);
        // Forge a DeleteRef that does not match the page state.
        image.log.push(LogRecord {
            lsn: 999,
            tid: TxnId(42),
            payload: LogPayload::DeleteRef {
                parent: a,
                child: b,
                index: 0,
            },
        });
        assert!(recover(image, StoreConfig::default()).is_err());
    }
}
