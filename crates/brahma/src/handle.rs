//! Transaction handles.
//!
//! A [`Txn`] is the paper's Section 2 transaction: it can lock an object and
//! then (i) copy any reference out of it, (ii) delete a reference out of it,
//! and (iii) insert a reference into it from local memory — without holding
//! a lock on the referenced object. All updates follow WAL (undo logged
//! before the update, redo before lock release) and keep the TRT/ERT
//! maintained through [`Database`]'s hooks.
//!
//! Lock discipline: reads require any lock, updates require an exclusive
//! lock. Under strict 2PL every lock is held to completion. With
//! `strict_2pl = false`, [`Txn::early_unlock`] releases *read* locks before
//! completion (Section 4.1); exclusive locks on updated objects are always
//! held to completion so rollback stays safe — the standard recoverable
//! relaxation, and the one the reorganizer's ever-held wait is designed for.

use crate::addr::{AddrMap, PartitionId, PhysAddr};
use crate::db::Database;
use crate::error::{Error, Result};
use crate::fault::site;
use crate::lock::LockMode;
use crate::object::{self, ObjectView};
use crate::trt::RefAction;
use crate::txn::TxnId;
use crate::wal::LogPayload;
use std::cell::Cell;
use std::mem::take;

/// Parameters for creating an object.
#[derive(Debug, Clone)]
pub struct NewObject {
    pub tag: u8,
    pub refs: Vec<PhysAddr>,
    /// Reference slots to reserve (>= `refs.len()`); 0 means exactly
    /// `refs.len()`.
    pub ref_cap: u16,
    pub payload: Vec<u8>,
    /// Payload bytes to reserve (>= `payload.len()`); 0 means exactly
    /// `payload.len()`.
    pub payload_cap: u16,
}

impl NewObject {
    /// An object with the given refs and payload and no growth slack.
    pub fn exact(tag: u8, refs: Vec<PhysAddr>, payload: Vec<u8>) -> Self {
        NewObject {
            tag,
            refs,
            ref_cap: 0,
            payload,
            payload_cap: 0,
        }
    }

    fn into_view(self, addr: PhysAddr) -> Result<ObjectView> {
        let ref_cap = if self.ref_cap == 0 {
            self.refs.len() as u16
        } else {
            self.ref_cap
        };
        let payload_cap = if self.payload_cap == 0 {
            self.payload.len() as u16
        } else {
            self.payload_cap
        };
        if self.refs.len() > ref_cap as usize {
            return Err(Error::RefCapacityExceeded(addr));
        }
        if self.payload.len() > payload_cap as usize {
            return Err(Error::PayloadCapacityExceeded(addr));
        }
        Ok(ObjectView {
            tag: self.tag,
            refs: self.refs,
            ref_cap,
            payload: self.payload,
            payload_cap,
        })
    }
}

/// A transaction's `held`, `undo` and `deleted_pairs` vectors.
type TxnVecs = (Vec<(PhysAddr, LockMode)>, Vec<LogPayload>, Vec<(PhysAddr, PhysAddr)>);

thread_local! {
    /// The vectors of the transaction that last finished on this thread,
    /// emptied: a thread running one transaction after another grows them
    /// once. A transaction begun while another is open on the thread finds
    /// empty ones here, as it would have without the slot.
    static SPARE_VECS: Cell<TxnVecs> = const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Longest held-lock list that is searched by scanning it. A walker
/// transaction holds 9 locks and a migration batch a few dozen; past this
/// the handle keeps an index beside the list, so that a transaction locking
/// thousands of objects (PQR's parents, the graph builder's edge pass)
/// does not pay a quadratic duplicate check.
const HELD_SCAN_MAX: usize = 64;

/// An active transaction. Dropping an uncommitted transaction aborts it.
pub struct Txn<'db> {
    db: &'db Database,
    id: TxnId,
    reorg_for: Option<PartitionId>,
    done: bool,
    /// Every lock this transaction holds, with its mode, in acquisition
    /// order. The handle is the authority on its own locks: this module is
    /// the only caller of the lock manager's `lock`/`try_lock`/`unlock`
    /// for `id`, so the list and the lock table cannot disagree, and the
    /// lock checks of reads and updates answer from here without touching
    /// the (shared) table.
    held: Vec<(PhysAddr, LockMode)>,
    /// Position in `held` of every address there, maintained only while
    /// `held` is longer than [`HELD_SCAN_MAX`] (stale and unused below).
    held_at: AddrMap<usize>,
    ever_locked: Vec<PhysAddr>,
    undo: Vec<LogPayload>,
    deleted_pairs: Vec<(PhysAddr, PhysAddr)>,
}

impl Database {
    /// Begin an ordinary (workload) transaction.
    pub fn begin(&self) -> Txn<'_> {
        self.begin_internal(None)
    }

    /// Begin a transaction on behalf of the utility reorganizing
    /// `partition`. Its pointer rewrites *concerning that partition* are
    /// excluded from the partition's TRT (the reorganizer knows its own
    /// writes), it may create objects there, and objects it frees there are
    /// deferred from reuse until the reorganization ends. Rewrites touching
    /// other partitions are ordinary pointer updates — which is what makes
    /// concurrent reorganizations of different partitions sound.
    pub fn begin_reorg(&self, partition: PartitionId) -> Txn<'_> {
        self.begin_internal(Some(partition))
    }

    fn begin_internal(&self, reorg: Option<PartitionId>) -> Txn<'_> {
        let id = self.txns.begin();
        self.wal.append(id, LogPayload::Begin { reorg });
        let (held, undo, deleted_pairs) = SPARE_VECS.take();
        Txn {
            db: self,
            id,
            reorg_for: reorg,
            done: false,
            held,
            held_at: AddrMap::default(),
            ever_locked: Vec::new(),
            undo,
            deleted_pairs,
        }
    }
}

impl<'db> Txn<'db> {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The partition this transaction reorganizes, if it belongs to a
    /// reorganization utility.
    pub fn reorg_for(&self) -> Option<PartitionId> {
        self.reorg_for
    }

    // ------------------------------------------------------------------
    // Locking
    // ------------------------------------------------------------------

    /// Acquire `mode` on `addr`, waiting up to the configured timeout.
    pub fn lock(&mut self, addr: PhysAddr, mode: LockMode) -> Result<()> {
        if self.db.fault.armed() {
            let upgrading = mode == LockMode::Exclusive
                && self.db.locks.holds(self.id, addr) == Some(LockMode::Shared);
            self.db.fault.hit(if upgrading {
                site::LOCK_UPGRADE
            } else {
                site::LOCK_ACQUIRE
            })?;
        }
        self.db.locks.lock(self.id, addr, mode)?;
        self.record_lock(addr, mode);
        Ok(())
    }

    /// Acquire without waiting; returns whether the lock was granted.
    pub fn try_lock(&mut self, addr: PhysAddr, mode: LockMode) -> bool {
        if self.db.locks.try_lock(self.id, addr, mode) {
            self.record_lock(addr, mode);
            true
        } else {
            false
        }
    }

    /// Record a grant of `mode` on `addr`. A re-grant keeps the stronger
    /// mode, exactly as the lock table's own holder entry does.
    fn record_lock(&mut self, addr: PhysAddr, mode: LockMode) {
        match self.held_pos(addr) {
            Some(i) => {
                if mode == LockMode::Exclusive {
                    self.held[i].1 = LockMode::Exclusive;
                }
            }
            None => {
                self.held.push((addr, mode));
                let n = self.held.len();
                if n == HELD_SCAN_MAX + 1 {
                    self.index_held();
                } else if n > HELD_SCAN_MAX {
                    self.held_at.insert(addr, n - 1);
                }
            }
        }
        if self.db.locks.history_tracking() && !self.ever_locked.contains(&addr) {
            self.ever_locked.push(addr);
        }
    }

    /// Release a lock before completion.
    ///
    /// Only safe for objects this transaction has not updated; the handle
    /// refuses to release a lock on an object named by any of its undo
    /// records, preserving rollback safety (see module docs).
    pub fn early_unlock(&mut self, addr: PhysAddr) -> Result<()> {
        if self.wrote(addr) {
            return Err(Error::LockNotHeld { addr, by: self.id });
        }
        if let Some(i) = self.held_pos(addr) {
            self.held.remove(i);
            if self.held.len() > HELD_SCAN_MAX {
                // Every later position shifted.
                self.index_held();
            }
        }
        self.db.locks.unlock(self.id, addr);
        Ok(())
    }

    /// Where `addr` sits in `held`, if this transaction holds a lock on
    /// it. A short list is scanned newest first: the usual question is
    /// about the object locked a moment ago.
    fn held_pos(&self, addr: PhysAddr) -> Option<usize> {
        if self.held.len() > HELD_SCAN_MAX {
            self.held_at.get(&addr).copied()
        } else {
            self.held.iter().rposition(|(a, _)| *a == addr)
        }
    }

    /// Rebuild `held_at` from `held`: the list just outgrew the scan, or
    /// an early unlock shifted positions.
    fn index_held(&mut self) {
        self.held_at.clear();
        self.held_at
            .extend(self.held.iter().enumerate().map(|(i, &(a, _))| (a, i)));
    }

    /// Release a lock the reorganizer took speculatively (it locks
    /// approximate parents exclusively and releases those that turn out not
    /// to be parents). Identical to [`Txn::early_unlock`] but named for its
    /// role in `Find_Exact_Parents`.
    pub fn unlock_nonparent(&mut self, addr: PhysAddr) -> Result<()> {
        self.early_unlock(addr)
    }

    fn wrote(&self, addr: PhysAddr) -> bool {
        self.undo.iter().any(|u| match u {
            LogPayload::Create { addr: a, .. } | LogPayload::Free { addr: a, .. } => *a == addr,
            LogPayload::SetPayload { addr: a, .. } => *a == addr,
            LogPayload::InsertRef { parent, .. }
            | LogPayload::DeleteRef { parent, .. }
            | LogPayload::SetRef { parent, .. } => *parent == addr,
            _ => false,
        })
    }

    /// The mode this transaction holds on `addr`, if any.
    pub fn lock_mode(&self, addr: PhysAddr) -> Option<LockMode> {
        self.held_pos(addr).map(|i| self.held[i].1)
    }

    /// The locks this transaction currently holds, in acquisition order.
    pub fn held_locks(&self) -> &[(PhysAddr, LockMode)] {
        &self.held
    }

    fn require(&self, addr: PhysAddr, mode: LockMode) -> Result<()> {
        match (self.lock_mode(addr), mode) {
            (Some(LockMode::Exclusive), _) => Ok(()),
            (Some(LockMode::Shared), LockMode::Shared) => Ok(()),
            _ => Err(Error::LockNotHeld { addr, by: self.id }),
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read the whole object (requires any lock on it).
    pub fn read(&self, addr: PhysAddr) -> Result<ObjectView> {
        self.require(addr, LockMode::Shared)?;
        self.db.charge_access_at(addr);
        self.db
            .with_page_read(addr, |buf| object::read_view(buf, addr))?
    }

    /// Read the object's outgoing references (requires any lock).
    pub fn read_refs(&self, addr: PhysAddr) -> Result<Vec<PhysAddr>> {
        self.with_refs(addr, |refs| refs.collect())
    }

    /// [`Txn::read_refs`] without the copy: run `f` over the references
    /// where they lie, under the page latch. `f` must not re-enter the store.
    pub fn with_refs<R>(&self, addr: PhysAddr, f: impl FnOnce(object::Refs<'_>) -> R) -> Result<R> {
        self.require(addr, LockMode::Shared)?;
        self.db.charge_access_at(addr);
        self.db
            .with_page_read(addr, |buf| object::refs(buf, addr).map(f))?
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// The one write path: note → append → apply. Every forward mutator
    /// reaches it through [`Txn::update`]; rollback runs it on the inverse
    /// of each undo entry.
    ///
    /// INVARIANT (fuzzy checkpoint, DESIGN.md §12): every TRT/ERT note a
    /// mutation produces must happen *before* its WAL append. The
    /// checkpoint reads `next_lsn` and then dumps the TRT; note-after-append
    /// admits a schedule where the dump misses the tuple while the record's
    /// LSN is already below the replay window, so seeded reconstruction
    /// loses it (fatal if this txn aborts — aborts purge only delete
    /// tuples). Note-before-append makes that a contradiction: the worst
    /// case is the tuple landing in both snapshot and window, which
    /// reconstruction tolerates as a conservative duplicate. The X lock
    /// held on the updated object keeps early insert-notes invisible to
    /// Find_Exact_Parents until this txn resolves. Noting first also puts
    /// every pointer delete in the TRT before the pointer is removed
    /// (Section 3.3), and the append before the apply is the WAL rule.
    fn log_and_apply(&mut self, update: &LogPayload, slot_claimed: bool) -> Result<()> {
        let (db, id, reorg_for) = (self.db, self.id, self.reorg_for);
        update.for_each_ref_change(|action, parent, child| {
            db.note_ref_change(id, reorg_for, action, parent, child);
            if action == RefAction::Delete {
                self.deleted_pairs.push((child, parent));
            }
        });
        db.wal.append(id, update);
        db.apply_update(update, reorg_for, slot_claimed)
    }

    /// Perform one validated forward update and remember it for rollback.
    /// A record must never describe an operation that did not happen, so
    /// callers check capacity and bounds *before* building the payload.
    fn update(&mut self, payload: LogPayload, slot_claimed: bool) -> Result<()> {
        self.log_and_apply(&payload, slot_claimed)?;
        self.undo.push(payload);
        Ok(())
    }

    /// Create an object in `partition`. The new object is created
    /// exclusively locked by this transaction.
    ///
    /// Creation in a partition under reorganization is rejected for workload
    /// transactions (the paper's Section 2 assumption); reorganizer
    /// transactions are exempt (they create the migrated copies).
    pub fn create_object(&mut self, partition: PartitionId, spec: NewObject) -> Result<PhysAddr> {
        if self.reorg_for != Some(partition) && self.db.reorg_active(partition) {
            return Err(Error::PartitionUnderReorg(partition.0));
        }
        // Fault sites are checked before any mutation so an injected failure
        // leaves nothing to undo.
        self.db.fault.hit(site::ALLOC)?;
        self.db.fault.hit(site::WAL_APPEND)?;
        self.db.charge_access();
        let part = self.db.partition_ref(partition)?;
        // Capacity validation needs an address for error reporting; compute
        // the view first against a placeholder, then allocate for real.
        let probe = PhysAddr::new(partition, 0, 0);
        let view = spec.into_view(probe)?;
        let addr = part.allocate(view.size())?;
        // Mid-allocation site: the slot is claimed in the directory but
        // nothing is logged or initialized yet. On an error action the
        // slot is returned before unwinding (nothing to undo); a crash
        // action latches and leaves the claim in flight for recovery.
        if let Err(e) = self.db.fault.hit(site::ALLOC_INFLIGHT) {
            let _ = part.free(addr);
            return Err(e);
        }
        self.db.locks.lock(self.id, addr, LockMode::Exclusive)?;
        self.record_lock(addr, LockMode::Exclusive);
        self.update(LogPayload::Create { addr, image: view }, true)?;
        self.db.stats.creates.inc();
        Ok(addr)
    }

    /// Delete an object (requires an exclusive lock). Its outgoing
    /// references are reference deletions for TRT/ERT purposes. The final
    /// image becomes the `Free` record's undo value.
    pub fn delete_object(&mut self, addr: PhysAddr) -> Result<()> {
        self.require(addr, LockMode::Exclusive)?;
        self.db.fault.hit(site::ALLOC_FREE)?;
        self.db.fault.hit(site::WAL_APPEND)?;
        self.db.fault.hit(site::TRT_NOTE)?;
        self.db.fault.hit(site::ERT_NOTE)?;
        self.db.charge_access_at(addr);
        let image = self
            .db
            .with_page_read(addr, |buf| object::read_view(buf, addr))??;
        self.update(LogPayload::Free { addr, image }, false)?;
        self.db.stats.frees.inc();
        Ok(())
    }

    /// Append a reference `parent -> child` (requires X on `parent`),
    /// returning its index.
    pub fn insert_ref(&mut self, parent: PhysAddr, child: PhysAddr) -> Result<usize> {
        self.require(parent, LockMode::Exclusive)?;
        self.db.fault.hit(site::WAL_APPEND)?;
        self.db.fault.hit(site::TRT_NOTE)?;
        self.db.fault.hit(site::ERT_NOTE)?;
        self.db.charge_access_at(parent);
        let header = self
            .db
            .with_page_read(parent, |buf| object::header(buf, parent))??;
        if header.nrefs >= header.ref_cap {
            return Err(Error::RefCapacityExceeded(parent));
        }
        // The X lock keeps the index stable until the update lands.
        let index = header.nrefs as usize;
        self.update(
            LogPayload::InsertRef {
                parent,
                child,
                index,
            },
            false,
        )?;
        Ok(index)
    }

    /// Delete the first reference `parent -> child` (requires X on
    /// `parent`), returning its former index.
    pub fn delete_ref(&mut self, parent: PhysAddr, child: PhysAddr) -> Result<usize> {
        self.require(parent, LockMode::Exclusive)?;
        let index = self
            .db
            .with_page_read(parent, |buf| object::find_ref(buf, parent, child))??
            .ok_or(Error::NoSuchRef { parent, child })?;
        self.delete_ref_at_inner(parent, index, child)?;
        Ok(index)
    }

    /// Delete the reference at `index` of `parent`, returning the child it
    /// pointed to.
    pub fn delete_ref_at(&mut self, parent: PhysAddr, index: usize) -> Result<PhysAddr> {
        self.require(parent, LockMode::Exclusive)?;
        let child = self
            .db
            .with_page_read(parent, |buf| object::ref_at(buf, parent, index))??;
        self.delete_ref_at_inner(parent, index, child)?;
        Ok(child)
    }

    fn delete_ref_at_inner(
        &mut self,
        parent: PhysAddr,
        index: usize,
        child: PhysAddr,
    ) -> Result<()> {
        self.db.fault.hit(site::WAL_APPEND)?;
        self.db.fault.hit(site::TRT_NOTE)?;
        self.db.fault.hit(site::ERT_NOTE)?;
        self.db.charge_access_at(parent);
        self.update(
            LogPayload::DeleteRef {
                parent,
                child,
                index,
            },
            false,
        )
    }

    /// Overwrite the reference at `index` of `parent` (requires X),
    /// returning the old child. Semantically a delete of the old reference
    /// plus an insert of the new one.
    pub fn set_ref(
        &mut self,
        parent: PhysAddr,
        index: usize,
        new_child: PhysAddr,
    ) -> Result<PhysAddr> {
        self.require(parent, LockMode::Exclusive)?;
        self.db.fault.hit(site::WAL_APPEND)?;
        self.db.fault.hit(site::TRT_NOTE)?;
        self.db.fault.hit(site::ERT_NOTE)?;
        self.db.charge_access_at(parent);
        let old_child = self
            .db
            .with_page_read(parent, |buf| object::ref_at(buf, parent, index))??;
        self.update(
            LogPayload::SetRef {
                parent,
                index,
                old_child,
                new_child,
            },
            false,
        )?;
        Ok(old_child)
    }

    /// Replace the payload of `addr` (requires X).
    pub fn set_payload(&mut self, addr: PhysAddr, payload: &[u8]) -> Result<()> {
        self.require(addr, LockMode::Exclusive)?;
        self.db.fault.hit(site::WAL_APPEND)?;
        self.db.charge_access_at(addr);
        let old = self.db.with_page_read(addr, |buf| {
            if payload.len() > object::header(buf, addr)?.payload_cap as usize {
                return Err(Error::PayloadCapacityExceeded(addr));
            }
            object::payload(buf, addr).map(<[u8]>::to_vec)
        })??;
        self.update(
            LogPayload::SetPayload {
                addr,
                old,
                new: payload.to_vec(),
            },
            false,
        )?;
        self.db.stats.payload_writes.inc();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Commit: force the log, apply the Section 4.5 TRT purges, release all
    /// locks.
    ///
    /// An injected `wal.commit_flush` fault fails the commit *before* the
    /// commit record is appended; the handle is then dropped, which rolls
    /// the transaction back — a failed commit is an abort, as in ARIES.
    pub fn commit(mut self) -> Result<()> {
        self.db.fault.hit(site::WAL_COMMIT_FLUSH)?;
        let lsn = self.db.wal.append(self.id, LogPayload::Commit);
        self.db.wal.flush(lsn);
        self.db
            .purge_trt_for_txn(self.id, true, &self.deleted_pairs);
        self.finish();
        self.db.stats.commits.inc();
        Ok(())
    }

    /// Abort: roll back through the undo chain (logging compensation
    /// records), then release all locks.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        if self.done {
            return;
        }
        while let Some(op) = self.undo.pop() {
            #[expect(
                clippy::expect_used,
                reason = "invariant: only update records are pushed on the undo chain"
            )]
            let compensation = op
                .inverse()
                .expect("invariant: the undo chain holds only update records");
            // Rollback of operations on objects we hold X locks on cannot
            // fail; failures here indicate storage corruption.
            #[expect(
                clippy::expect_used,
                reason = "invariant: undo runs under the txn's own X locks; a failure is storage corruption and must not be swallowed into an abort path"
            )]
            self.log_and_apply(&compensation, false)
                .expect("invariant: rollback under held X locks cannot fail");
        }
        self.db.wal.append(self.id, LogPayload::Abort);
        self.db
            .purge_trt_for_txn(self.id, false, &self.deleted_pairs);
        self.finish();
        self.db.stats.aborts.inc();
    }

    fn finish(&mut self) {
        for &(addr, _) in &self.held {
            self.db.locks.unlock(self.id, addr);
        }
        if !self.ever_locked.is_empty() {
            self.db.locks.drop_history(self.id, &self.ever_locked);
        }
        self.db.txns.finish(self.id);
        self.done = true;
        let (mut held, mut undo, mut deleted_pairs) =
            (take(&mut self.held), take(&mut self.undo), take(&mut self.deleted_pairs));
        held.clear();
        undo.clear();
        deleted_pairs.clear();
        SPARE_VECS.set((held, undo, deleted_pairs));
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StoreConfig;
    use crate::trt::RefAction;

    fn db() -> Database {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        db.create_partition();
        db
    }

    fn mk(db: &Database, p: u16, refs: Vec<PhysAddr>) -> PhysAddr {
        let mut t = db.begin();
        let addr = t
            .create_object(
                PartitionId(p),
                NewObject {
                    tag: 1,
                    refs,
                    ref_cap: 8,
                    payload: vec![0xAB; 32],
                    payload_cap: 64,
                },
            )
            .unwrap();
        t.commit().unwrap();
        addr
    }

    #[test]
    fn create_read_commit() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let mut t = db.begin();
        t.lock(a, LockMode::Shared).unwrap();
        let v = t.read(a).unwrap();
        assert_eq!(v.payload, vec![0xAB; 32]);
        t.commit().unwrap();
    }

    #[test]
    fn reads_require_locks() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let t = db.begin();
        assert!(matches!(t.read(a), Err(Error::LockNotHeld { .. })));
    }

    #[test]
    fn updates_require_exclusive() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let mut t = db.begin();
        t.lock(a, LockMode::Shared).unwrap();
        assert_eq!(t.lock_mode(a), Some(LockMode::Shared));
        assert!(matches!(
            t.set_payload(a, b"xx"),
            Err(Error::LockNotHeld { .. })
        ));
        t.lock(a, LockMode::Exclusive).unwrap();
        assert_eq!(t.lock_mode(a), Some(LockMode::Exclusive));
        assert_eq!(
            t.held_locks(),
            &[(a, LockMode::Exclusive)],
            "an upgrade is not a second lock"
        );
        // A weaker re-request does not downgrade.
        t.lock(a, LockMode::Shared).unwrap();
        assert_eq!(t.lock_mode(a), Some(LockMode::Exclusive));
        t.set_payload(a, b"xx").unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn failed_upgrade_leaves_the_shared_lock() {
        let db = Database::new(StoreConfig {
            lock_timeout: std::time::Duration::from_millis(20),
            ..StoreConfig::default()
        });
        db.create_partition();
        let a = mk(&db, 0, vec![]);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.lock(a, LockMode::Shared).unwrap();
        t2.lock(a, LockMode::Shared).unwrap();
        // t2 still shares the object, so t1's upgrade times out...
        assert!(matches!(
            t1.lock(a, LockMode::Exclusive),
            Err(Error::LockTimeout { .. })
        ));
        assert!(!t1.try_lock(a, LockMode::Exclusive));
        // ...and the handle agrees with the table: still Shared, reads
        // allowed, updates refused.
        assert_eq!(t1.lock_mode(a), Some(LockMode::Shared));
        assert_eq!(db.locks.holds(t1.id(), a), Some(LockMode::Shared));
        t1.read_refs(a).unwrap();
        assert!(matches!(
            t1.set_payload(a, b"xx"),
            Err(Error::LockNotHeld { .. })
        ));
        t2.commit().unwrap();
        t1.lock(a, LockMode::Exclusive).unwrap();
        t1.set_payload(a, b"xx").unwrap();
        t1.commit().unwrap();
    }

    #[test]
    fn early_unlock_revokes_read_access() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let mut t = db.begin();
        t.lock(a, LockMode::Shared).unwrap();
        t.read_refs(a).unwrap();
        t.early_unlock(a).unwrap();
        assert_eq!(t.lock_mode(a), None);
        assert!(t.held_locks().is_empty());
        assert!(matches!(t.read_refs(a), Err(Error::LockNotHeld { .. })));
        assert!(db.locks.holders(a).is_empty());
    }

    #[test]
    fn a_long_lock_list_answers_like_a_short_one() {
        let db = db();
        // Enough objects to cross HELD_SCAN_MAX twice over.
        let objs: Vec<PhysAddr> = (0..3 * HELD_SCAN_MAX).map(|_| mk(&db, 0, vec![])).collect();
        let mut t = db.begin();
        for &a in &objs {
            t.lock(a, LockMode::Shared).unwrap();
        }
        // Re-locking is not a second entry, on either side of the switch.
        for &a in &objs {
            t.lock(a, LockMode::Shared).unwrap();
        }
        assert_eq!(t.held_locks().len(), objs.len());
        // Upgrade an old, a middle and the newest entry.
        for &a in [&objs[0], &objs[HELD_SCAN_MAX], objs.last().unwrap()] {
            t.lock(a, LockMode::Exclusive).unwrap();
            assert_eq!(t.lock_mode(a), Some(LockMode::Exclusive));
            t.set_payload(a, b"xx").unwrap();
        }
        assert_eq!(t.lock_mode(objs[1]), Some(LockMode::Shared));
        // Early unlocks shift positions; every answer must follow, down
        // through the switch back to scanning and up again.
        let (released, kept) = objs[1..].split_at(2 * HELD_SCAN_MAX + 10);
        for &a in released {
            if t.wrote(a) {
                continue; // objs[HELD_SCAN_MAX]: a written object keeps its lock
            }
            t.early_unlock(a).unwrap();
            assert_eq!(t.lock_mode(a), None);
            assert!(matches!(t.read_refs(a), Err(Error::LockNotHeld { .. })));
        }
        for &a in kept {
            assert!(t.lock_mode(a).is_some(), "an untouched lock went missing");
            t.read_refs(a).unwrap();
        }
        assert_eq!(t.lock_mode(objs[0]), Some(LockMode::Exclusive));
        assert!(t.held_locks().len() <= HELD_SCAN_MAX);
        for &a in released {
            t.lock(a, LockMode::Shared).unwrap();
        }
        assert_eq!(t.held_locks().len(), objs.len());
        for &(a, mode) in t.held_locks() {
            assert_eq!(t.lock_mode(a), Some(mode));
            assert_eq!(db.locks.holds(t.id(), a), Some(mode));
        }
        t.commit().unwrap();
        assert_eq!(db.locks.table_size(), 0);
        assert!(objs.iter().all(|&a| db.locks.holders(a).is_empty()));
    }

    #[test]
    fn created_object_is_exclusively_locked_by_its_creator() {
        let db = db();
        let mut t = db.begin();
        let a = t
            .create_object(
                PartitionId(0),
                NewObject {
                    tag: 1,
                    refs: vec![],
                    ref_cap: 2,
                    payload: vec![1],
                    payload_cap: 8,
                },
            )
            .unwrap();
        assert_eq!(t.lock_mode(a), Some(LockMode::Exclusive));
        assert_eq!(t.read(a).unwrap().payload, vec![1]);
        t.set_payload(a, b"new").unwrap();
        t.insert_ref(a, a).unwrap();
        t.commit().unwrap();
        assert_eq!(db.raw_read(a).unwrap().payload, b"new");
    }

    #[test]
    fn completion_releases_every_lock_in_the_table() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let b = mk(&db, 1, vec![]);
        for commit in [true, false] {
            let mut t = db.begin();
            // A sharer beside us forces `a` out of the fast slot's
            // one-holder shape; `b` goes S then X.
            let mut other = db.begin();
            other.lock(a, LockMode::Shared).unwrap();
            t.lock(a, LockMode::Shared).unwrap();
            t.lock(b, LockMode::Shared).unwrap();
            t.lock(b, LockMode::Exclusive).unwrap();
            t.set_payload(b, b"w").unwrap();
            assert_eq!(t.held_locks().len(), 2);
            other.commit().unwrap();
            if commit {
                t.commit().unwrap();
            } else {
                t.abort();
            }
            assert!(db.locks.holders(a).is_empty(), "commit={commit}");
            assert!(db.locks.holders(b).is_empty(), "commit={commit}");
            assert_eq!(db.locks.table_size(), 0, "commit={commit}");
        }
    }

    #[test]
    fn abort_rolls_back_payload() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.set_payload(a, b"dirty").unwrap();
        t.abort();
        assert_eq!(db.raw_read(a).unwrap().payload, vec![0xAB; 32]);
    }

    #[test]
    fn drop_aborts() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        {
            let mut t = db.begin();
            t.lock(a, LockMode::Exclusive).unwrap();
            t.set_payload(a, b"dirty").unwrap();
            // dropped without commit
        }
        assert_eq!(db.raw_read(a).unwrap().payload, vec![0xAB; 32]);
        assert_eq!(db.stats.aborts.get(), 1);
    }

    #[test]
    fn abort_restores_deleted_object_at_same_address() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let mut t = db.begin();
        t.lock(a, LockMode::Exclusive).unwrap();
        t.delete_object(a).unwrap();
        assert!(db.raw_read(a).is_err());
        t.abort();
        let v = db.raw_read(a).unwrap();
        assert_eq!(v.payload, vec![0xAB; 32]);
        assert!(db.partition(PartitionId(0)).unwrap().contains_object(a));
    }

    #[test]
    fn ref_insert_delete_roundtrip_with_ert() {
        let db = db();
        let child = mk(&db, 1, vec![]);
        let parent = mk(&db, 0, vec![]);
        let ert = &db.partition(PartitionId(1)).unwrap().ert;
        let mut t = db.begin();
        t.lock(parent, LockMode::Exclusive).unwrap();
        t.insert_ref(parent, child).unwrap();
        assert!(ert.contains(child, parent), "cross-partition edge in ERT");
        t.commit().unwrap();

        let mut t = db.begin();
        t.lock(parent, LockMode::Exclusive).unwrap();
        t.delete_ref(parent, child).unwrap();
        assert!(!ert.contains(child, parent));
        t.abort();
        // Abort reinstates the reference and the ERT edge.
        assert!(ert.contains(child, parent));
        assert_eq!(db.raw_read(parent).unwrap().refs, vec![child]);
    }

    #[test]
    fn create_with_refs_populates_ert() {
        let db = db();
        let child = mk(&db, 1, vec![]);
        let parent = mk(&db, 0, vec![child]);
        assert!(db
            .partition(PartitionId(1))
            .unwrap()
            .ert
            .contains(child, parent));
        // Same-partition references do not go to the ERT.
        let sibling = mk(&db, 1, vec![child]);
        assert!(!db
            .partition(PartitionId(1))
            .unwrap()
            .ert
            .contains(child, sibling));
    }

    #[test]
    fn trt_records_deletes_before_and_inserts_after() {
        let db = db();
        let child = mk(&db, 1, vec![]);
        let parent = mk(&db, 0, vec![child]);
        let trt = db.start_reorg(PartitionId(1)).unwrap();
        let mut t = db.begin();
        t.lock(parent, LockMode::Exclusive).unwrap();
        t.delete_ref(parent, child).unwrap();
        assert_eq!(trt.tuples_for(child).len(), 1);
        assert_eq!(trt.tuples_for(child)[0].action, RefAction::Delete);
        t.insert_ref(parent, child).unwrap();
        assert_eq!(trt.tuples_for(child).len(), 2);
        // Commit purges the delete tuple. The re-insert stays: a traversal
        // that read `parent` while the reference was gone missed it.
        let tid = t.id();
        t.commit().unwrap();
        let left = trt.tuples_for(child);
        assert_eq!(left.len(), 1, "{left:?}");
        assert_eq!((left[0].tid, left[0].action), (tid, RefAction::Insert));
        // A later transaction's delete of the same reference pair-purges it.
        let mut t = db.begin();
        t.lock(parent, LockMode::Exclusive).unwrap();
        t.delete_ref(parent, child).unwrap();
        t.commit().unwrap();
        assert!(trt.is_empty(), "Section 4.5 purges leave nothing behind");
        db.end_reorg(PartitionId(1));
    }

    #[test]
    fn creation_in_reorg_partition_is_rejected() {
        let db = db();
        db.start_reorg(PartitionId(1)).unwrap();
        let mut t = db.begin();
        assert!(matches!(
            t.create_object(PartitionId(1), NewObject::exact(0, vec![], vec![])),
            Err(Error::PartitionUnderReorg(1))
        ));
        // Reorg transactions are exempt.
        let mut rt = db.begin_reorg(PartitionId(1));
        rt.create_object(PartitionId(1), NewObject::exact(0, vec![], vec![]))
            .unwrap();
        rt.commit().unwrap();
        db.end_reorg(PartitionId(1));
    }

    #[test]
    fn early_unlock_refuses_written_objects() {
        let db = db();
        let a = mk(&db, 0, vec![]);
        let b = mk(&db, 0, vec![]);
        let mut t = db.begin();
        t.lock(a, LockMode::Shared).unwrap();
        t.lock(b, LockMode::Exclusive).unwrap();
        t.set_payload(b, b"z").unwrap();
        t.early_unlock(a).unwrap();
        assert!(t.early_unlock(b).is_err());
        t.commit().unwrap();
    }

    #[test]
    fn set_ref_swaps_and_rolls_back() {
        let db = db();
        let c1 = mk(&db, 1, vec![]);
        let c2 = mk(&db, 1, vec![]);
        let parent = mk(&db, 0, vec![c1]);
        let ert = &db.partition(PartitionId(1)).unwrap().ert;
        let mut t = db.begin();
        t.lock(parent, LockMode::Exclusive).unwrap();
        assert_eq!(t.set_ref(parent, 0, c2).unwrap(), c1);
        assert!(ert.contains(c2, parent) && !ert.contains(c1, parent));
        t.abort();
        assert!(ert.contains(c1, parent) && !ert.contains(c2, parent));
        assert_eq!(db.raw_read(parent).unwrap().refs, vec![c1]);
    }

    #[test]
    fn reorg_txn_updates_skip_trt() {
        let db = db();
        let child = mk(&db, 1, vec![]);
        let parent = mk(&db, 0, vec![child]);
        let trt = db.start_reorg(PartitionId(1)).unwrap();
        let mut rt = db.begin_reorg(PartitionId(1));
        rt.lock(parent, LockMode::Exclusive).unwrap();
        rt.delete_ref(parent, child).unwrap();
        rt.insert_ref(parent, child).unwrap();
        rt.commit().unwrap();
        assert!(trt.is_empty());
        db.end_reorg(PartitionId(1));
    }
}
