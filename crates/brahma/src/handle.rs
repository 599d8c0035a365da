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
use crate::fault::site::{self, ALLOC, ALLOC_FREE, ERT_NOTE, TRT_NOTE, WAL_APPEND};
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
        let cap = |cap: u16, len: usize| if cap == 0 { len as u16 } else { cap };
        let ref_cap = cap(self.ref_cap, self.refs.len());
        let payload_cap = cap(self.payload_cap, self.payload.len());
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

/// The vectors a transaction fills, handed from one transaction to the
/// next on a thread.
#[derive(Default)]
struct TxnVecs {
    /// Every lock this transaction holds, with its mode, in acquisition
    /// order. The handle is the authority on its own locks: this module is
    /// the only caller of the lock manager's `lock`/`try_lock`/`unlock`
    /// for `id`, so the list and the lock table cannot disagree, and the
    /// lock checks of reads and updates answer from here without touching
    /// the (shared) table.
    held: Vec<(PhysAddr, LockMode)>,
    undo: Vec<LogPayload>,
    deleted_pairs: Vec<(PhysAddr, PhysAddr)>,
    /// The references of the object the last `Move` moved, read off its
    /// page for the move's ERT/TRT notes ([`Txn::moved_refs`]).
    moved_refs: Vec<PhysAddr>,
    /// Scratch: the references [`Txn::repoint_refs`] scans.
    scanned: Vec<PhysAddr>,
    /// The slots this transaction's `Free`s and `Move`s freed outside a
    /// pass, held from every allocation until it commits
    /// ([`Partition::free_held`](crate::partition::Partition::free_held)).
    holds: Vec<PhysAddr>,
}

thread_local! {
    /// The vectors of the transaction that last finished on this thread,
    /// emptied: a thread running one transaction after another grows them
    /// once. A transaction begun while another is open on the thread finds
    /// empty ones here, as it would have without the slot.
    static SPARE_VECS: Cell<TxnVecs> = Cell::default();
}

/// The kind of record a forward mutator logs, which names the fault sites
/// (DESIGN.md §9.1) it hits.
#[derive(Clone, Copy)]
enum Kind {
    Create,
    Free,
    /// `InsertRef`, `DeleteRef` or `SetRef`.
    Ref,
    SetPayload,
    Move,
}

impl Kind {
    /// The sites, in the order [`Txn::hit`] hits them: a `Move` is both a
    /// create and a free.
    fn sites(self) -> &'static [&'static str] {
        const MOVE: &[&str] = &[ALLOC, ALLOC_FREE, WAL_APPEND, TRT_NOTE, ERT_NOTE];
        match self {
            Kind::Create => &[ALLOC, WAL_APPEND],
            Kind::Free => &MOVE[1..],
            Kind::Ref => &MOVE[2..],
            Kind::SetPayload => &MOVE[2..3],
            Kind::Move => MOVE,
        }
    }
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
    /// Position in `vecs.held` of every address there, maintained only
    /// while the list is longer than [`HELD_SCAN_MAX`] (stale below).
    held_at: AddrMap<usize>,
    ever_locked: Vec<PhysAddr>,
    vecs: TxnVecs,
}

impl Database {
    /// Begin an ordinary (workload) transaction.
    pub fn begin(&self) -> Txn<'_> {
        self.begin_internal(None)
    }

    /// Begin a transaction on behalf of the utility reorganizing
    /// `partition`. Its pointer rewrites *concerning that partition* are
    /// excluded from the partition's TRT (the reorganizer knows its own
    /// writes), and it may create and delete objects there. Rewrites touching
    /// other partitions are ordinary pointer updates — which is what makes
    /// concurrent reorganizations of different partitions sound.
    pub fn begin_reorg(&self, partition: PartitionId) -> Txn<'_> {
        self.begin_internal(Some(partition))
    }

    fn begin_internal(&self, reorg: Option<PartitionId>) -> Txn<'_> {
        let id = self.txns.begin();
        self.wal.append(id, LogPayload::Begin);
        Txn {
            db: self,
            id,
            reorg_for: reorg,
            done: false,
            held_at: AddrMap::default(),
            ever_locked: Vec::new(),
            vecs: SPARE_VECS.take(),
        }
    }
}

impl<'db> Txn<'db> {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Acquire `mode` on `addr`, waiting up to the configured timeout.
    pub fn lock(&mut self, addr: PhysAddr, mode: LockMode) -> Result<()> {
        if self.db.fault.armed() {
            let upgrading =
                mode == LockMode::Exclusive && self.lock_mode(addr) == Some(LockMode::Shared);
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
        let granted = self.db.locks.try_lock(self.id, addr, mode);
        if granted {
            self.record_lock(addr, mode);
        }
        granted
    }

    /// Record a grant of `mode` on `addr`. A re-grant keeps the stronger
    /// mode, exactly as the lock table's own holder entry does.
    fn record_lock(&mut self, addr: PhysAddr, mode: LockMode) {
        match self.held_pos(addr) {
            Some(i) => {
                if mode == LockMode::Exclusive {
                    self.vecs.held[i].1 = LockMode::Exclusive;
                }
            }
            None => {
                self.vecs.held.push((addr, mode));
                let n = self.vecs.held.len();
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
    /// records, preserving rollback safety (see module docs). The
    /// reorganizer's `Find_Exact_Parents` releases this way the approximate
    /// parents that turn out not to be parents.
    pub fn early_unlock(&mut self, addr: PhysAddr) -> Result<()> {
        if self.wrote(addr) {
            return Err(Error::LockNotHeld { addr, by: self.id });
        }
        if let Some(i) = self.held_pos(addr) {
            self.vecs.held.remove(i);
            if self.vecs.held.len() > HELD_SCAN_MAX {
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
        if self.vecs.held.len() > HELD_SCAN_MAX {
            self.held_at.get(&addr).copied()
        } else {
            self.vecs.held.iter().rposition(|(a, _)| *a == addr)
        }
    }

    /// Rebuild `held_at` from `held`: the list just outgrew the scan, or
    /// an early unlock shifted positions.
    fn index_held(&mut self) {
        self.held_at.clear();
        self.held_at
            .extend(self.vecs.held.iter().enumerate().map(|(i, &(a, _))| (a, i)));
    }

    fn wrote(&self, addr: PhysAddr) -> bool {
        self.vecs.undo.iter().any(|u| match u {
            LogPayload::Create { addr: a, .. } | LogPayload::Free { addr: a, .. } => *a == addr,
            LogPayload::SetPayload { addr: a, .. } => *a == addr,
            LogPayload::Move { old, new } => *old == addr || *new == addr,
            LogPayload::InsertRef { parent, .. }
            | LogPayload::DeleteRef { parent, .. }
            | LogPayload::SetRef { parent, .. } => *parent == addr,
            _ => false,
        })
    }

    /// The mode this transaction holds on `addr`, if any.
    pub fn lock_mode(&self, addr: PhysAddr) -> Option<LockMode> {
        self.held_pos(addr).map(|i| self.vecs.held[i].1)
    }

    /// The locks this transaction currently holds, in acquisition order.
    pub fn held_locks(&self) -> &[(PhysAddr, LockMode)] {
        &self.vecs.held
    }

    fn require(&self, addr: PhysAddr, mode: LockMode) -> Result<()> {
        match (self.lock_mode(addr), mode) {
            (Some(LockMode::Exclusive), _) => Ok(()),
            (Some(LockMode::Shared), LockMode::Shared) => Ok(()),
            _ => Err(Error::LockNotHeld { addr, by: self.id }),
        }
    }

    /// Read the whole object (requires any lock on it).
    pub fn read(&self, addr: PhysAddr) -> Result<ObjectView> {
        self.access(addr, LockMode::Shared, |buf| object::read_view(buf, addr))
    }

    /// Read the object's outgoing references (requires any lock).
    pub fn read_refs(&self, addr: PhysAddr) -> Result<Vec<PhysAddr>> {
        self.with_refs(addr, |refs| refs.collect())
    }

    /// [`Txn::read_refs`] without the copy: run `f` over the references
    /// where they lie, under the page latch. `f` must not re-enter the store.
    pub fn with_refs<R>(&self, addr: PhysAddr, f: impl FnOnce(object::Refs<'_>) -> R) -> Result<R> {
        self.access(addr, LockMode::Shared, |buf| object::refs(buf, addr).map(f))
    }

    /// Charge the CPU model one access to the object at `addr`, which this
    /// transaction must hold locked in `mode`. A slot just claimed, with
    /// nothing on it to read yet, is charged here alone.
    fn charge(&self, addr: PhysAddr, mode: LockMode) -> Result<()> {
        self.require(addr, mode)?;
        self.db.charge_access_at(addr);
        Ok(())
    }

    /// The one charged page access of every read and update: [`Txn::charge`],
    /// then `read` over the page bytes of `addr` under its read latch.
    fn access<R>(
        &self,
        addr: PhysAddr,
        mode: LockMode,
        read: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        self.charge(addr, mode)?;
        self.db.with_page_read(addr, read)?
    }

    /// Note → append → apply a forward update, kept for rollback, or a
    /// compensation (`forward` false). A record must never describe an
    /// operation that did not happen, so callers check capacity and bounds
    /// *before* building it. Noting first puts every pointer
    /// delete in the TRT before the pointer goes (Section 3.3); the X lock
    /// keeps early insert-notes from Find_Exact_Parents until this txn
    /// resolves. The append before the apply is the WAL rule. A `Move`'s
    /// notes are `moved_refs` ([`Txn::read_moved`]): the copy gains each,
    /// then `old` loses each, as a `Create` and a `Free` would note.
    fn apply(&mut self, update: LogPayload, forward: bool) -> Result<()> {
        let (db, id, reorg_for) = (self.db, self.id, self.reorg_for);
        let deleted_pairs = &mut self.vecs.deleted_pairs;
        let mut note = |action, parent, child| {
            db.note_ref_change(id, reorg_for, action, parent, child);
            if action == RefAction::Delete {
                deleted_pairs.push((child, parent));
            }
        };
        if let LogPayload::Move { old, new } = update {
            let refs = &self.vecs.moved_refs;
            refs.iter().for_each(|&c| note(RefAction::Insert, new, c));
            refs.iter().for_each(|&c| note(RefAction::Delete, old, c));
        } else {
            update.for_each_ref_change(note);
        }
        db.wal.append(id, &update);
        db.apply_update(&update, forward.then_some(&mut self.vecs.holds))?;
        if forward {
            self.vecs.undo.push(update);
        }
        Ok(())
    }

    /// Hit the fault sites of `kind`'s record, before any mutation, so an
    /// injected failure leaves nothing to undo.
    fn hit(&self, kind: Kind) -> Result<()> {
        for &site in kind.sites() {
            self.db.fault.hit(site)?;
        }
        Ok(())
    }

    /// The forward path of an update to the object at `addr` (X-locked):
    /// `kind`'s fault sites, then `build` makes the record, and the
    /// mutator's answer, in one charged page access; the record is applied.
    fn write<T>(
        &mut self,
        kind: Kind,
        addr: PhysAddr,
        build: impl FnOnce(&[u8]) -> Result<(LogPayload, T)>,
    ) -> Result<T> {
        self.require(addr, LockMode::Exclusive)?;
        self.hit(kind)?;
        let (record, answer) = self.access(addr, LockMode::Exclusive, build)?;
        self.apply(record, true)?;
        Ok(answer)
    }

    /// Refuse a workload transaction's allocation or free in a partition
    /// under reorganization (the paper's Section 2 assumption); the
    /// partition's own reorganizer is exempt.
    fn check_reorg(&self, partition: PartitionId) -> Result<()> {
        if self.reorg_for != Some(partition) && self.db.reorg_active(partition) {
            return Err(Error::PartitionUnderReorg(partition.0));
        }
        Ok(())
    }

    /// Claim a slot of `size` bytes in `partition` for a new object, and
    /// lock it X. The slot goes back on an error before its record is
    /// logged: at `alloc.inflight`, or when the lock is refused (a reader
    /// may lock the address of an object freed before). A crash there
    /// leaves the claim in flight for recovery.
    fn claim(&mut self, partition: PartitionId, size: usize) -> Result<PhysAddr> {
        let part = self.db.partition_ref(partition)?;
        let addr = part.allocate(size)?;
        let (db, id) = (self.db, self.id);
        let locked = db.fault.hit(site::ALLOC_INFLIGHT);
        if let Err(e) = locked.and_then(|()| db.locks.lock(id, addr, LockMode::Exclusive)) {
            let _ = part.free(addr);
            return Err(e);
        }
        self.record_lock(addr, LockMode::Exclusive);
        Ok(addr)
    }

    /// Repoint every slot of `parent` (X-locked) that `refs`, its references
    /// as read under that lock, says names `old` at `new`: one `SetRef`
    /// each, without a second read. Returns how many there were.
    fn repoint(
        &mut self,
        parent: PhysAddr,
        old: PhysAddr,
        new: PhysAddr,
        refs: &[PhysAddr],
    ) -> Result<usize> {
        let slots = refs.iter().enumerate().filter(|&(_, &r)| r == old);
        for (index, _) in slots.clone() {
            let update = LogPayload::SetRef {
                parent,
                index,
                old_child: old,
                new_child: new,
            };
            self.apply(update, true)?;
        }
        Ok(slots.count())
    }

    /// Create an object in `partition`. The new object is created
    /// exclusively locked by this transaction.
    ///
    /// Creation in a partition under reorganization is rejected for workload
    /// transactions (the paper's Section 2 assumption); reorganizer
    /// transactions are exempt (they create the migrated copies).
    pub fn create_object(&mut self, partition: PartitionId, spec: NewObject) -> Result<PhysAddr> {
        self.check_reorg(partition)?;
        self.hit(Kind::Create)?;
        // Capacity errors name the partition's first address: the object
        // has none until its slot is claimed.
        let image = spec.into_view(PhysAddr::new(partition, 0, 0))?;
        let addr = self.claim(partition, image.size())?;
        self.charge(addr, LockMode::Exclusive)?;
        self.apply(LogPayload::Create { addr, image }, true)?;
        self.db.stats.creates.inc();
        Ok(addr)
    }

    /// Delete an object (requires an exclusive lock). Its outgoing
    /// references are reference deletions for TRT/ERT purposes, and its
    /// final image is the `Free` record's undo value. Its slot is reused
    /// only once this transaction commits. Rejected like a creation in a
    /// partition under reorganization: the pass drops the pages it empties,
    /// so a delete it never saw could not be rolled back after that.
    pub fn delete_object(&mut self, addr: PhysAddr) -> Result<()> {
        self.check_reorg(addr.partition())?;
        self.write(Kind::Free, addr, |buf| {
            let image = object::read_view(buf, addr)?;
            Ok((LogPayload::Free { addr, image }, ()))
        })?;
        self.db.stats.frees.inc();
        Ok(())
    }

    /// Append a reference `parent -> child` (requires X on `parent`),
    /// returning its index.
    pub fn insert_ref(&mut self, parent: PhysAddr, child: PhysAddr) -> Result<usize> {
        self.write(Kind::Ref, parent, |buf| {
            let header = object::header(buf, parent)?;
            if header.nrefs >= header.ref_cap {
                return Err(Error::RefCapacityExceeded(parent));
            }
            // The X lock keeps the index stable until the update lands.
            let index = header.nrefs as usize;
            let update = LogPayload::InsertRef {
                parent,
                child,
                index,
            };
            Ok((update, index))
        })
    }

    /// Delete the first reference `parent -> child` (requires X on
    /// `parent`), returning its former index.
    pub fn delete_ref(&mut self, parent: PhysAddr, child: PhysAddr) -> Result<usize> {
        self.write(Kind::Ref, parent, |buf| {
            let index =
                object::find_ref(buf, parent, child)?.ok_or(Error::NoSuchRef { parent, child })?;
            let update = LogPayload::DeleteRef {
                parent,
                child,
                index,
            };
            Ok((update, index))
        })
    }

    /// Overwrite the reference at `index` of `parent` (requires X),
    /// returning the old child. Semantically a delete of the old reference
    /// plus an insert of the new one.
    pub fn set_ref(&mut self, parent: PhysAddr, index: usize, child: PhysAddr) -> Result<PhysAddr> {
        self.write(Kind::Ref, parent, |buf| {
            let old_child = object::ref_at(buf, parent, index)?;
            let update = LogPayload::SetRef {
                parent,
                index,
                old_child,
                new_child: child,
            };
            Ok((update, old_child))
        })
    }

    /// Repoint every reference of `parent` (requires X) to `old` at `new`,
    /// returning how many there were: one scan under the page latch finds
    /// the slots, and each becomes a `SetRef` without a second read — the
    /// X lock keeps them as scanned until the updates land. With none to
    /// repoint, no fault site is hit.
    pub fn repoint_refs(
        &mut self,
        parent: PhysAddr,
        old: PhysAddr,
        new: PhysAddr,
    ) -> Result<usize> {
        let mut refs = take(&mut self.vecs.scanned);
        refs.clear();
        let repointed = self
            .access(parent, LockMode::Exclusive, |buf| {
                refs.extend(object::refs(buf, parent)?);
                Ok(())
            })
            .and_then(|()| match refs.contains(&old) {
                true => self.hit(Kind::Ref),
                false => Ok(()),
            })
            .and_then(|()| self.repoint(parent, old, new, &refs));
        self.vecs.scanned = refs;
        repointed
    }

    /// Replace the payload of `addr` (requires X).
    pub fn set_payload(&mut self, addr: PhysAddr, payload: &[u8]) -> Result<()> {
        let new = payload.to_vec();
        self.write(Kind::SetPayload, addr, |buf| {
            if new.len() > object::header(buf, addr)?.payload_cap as usize {
                return Err(Error::PayloadCapacityExceeded(addr));
            }
            let old = object::payload(buf, addr)?.to_vec();
            Ok((LogPayload::SetPayload { addr, old, new }, ()))
        })?;
        self.db.stats.payload_writes.inc();
        Ok(())
    }

    /// Log that the object at `old` now lives at `new`, once the migrator
    /// has copied it: a root naming `old` names `new` from here on, and
    /// `old` again if this transaction rolls back.
    pub fn log_migration(&mut self, old: PhysAddr, new: PhysAddr) -> Result<()> {
        self.apply(LogPayload::Migrate { old, new }, true)
    }

    /// Read the object at `old` (X-locked) for a `Move`: its references
    /// into `moved_refs`, and its on-page size, returned.
    fn read_moved(&mut self, old: PhysAddr) -> Result<usize> {
        let mut refs = take(&mut self.vecs.moved_refs);
        refs.clear();
        let size = self.access(old, LockMode::Exclusive, |buf| {
            refs.extend(object::refs(buf, old)?);
            Ok(object::header(buf, old)?.size())
        });
        self.vecs.moved_refs = refs;
        size
    }

    /// Move the object at `old` (requires X) to a fresh slot in
    /// `partition`, returning its new address, exclusively locked: one
    /// `Move` record copies the bytes, frees `old` and carries a root
    /// naming `old` over to the copy, whose references to itself are then
    /// repointed. Other objects' references to `old` are the caller's to
    /// repoint ([`Txn::moved_refs`]). Subject to the rules of both halves:
    /// outside its reorganizer, neither partition may be under one.
    pub fn move_object(&mut self, old: PhysAddr, partition: PartitionId) -> Result<PhysAddr> {
        self.require(old, LockMode::Exclusive)?;
        self.check_reorg(old.partition())?;
        self.check_reorg(partition)?;
        self.hit(Kind::Move)?;
        // Two accesses: the read of `old` and the write of the copy.
        let size = self.read_moved(old)?;
        let new = self.claim(partition, size)?;
        self.charge(new, LockMode::Exclusive)?;
        self.apply(LogPayload::Move { old, new }, true)?;
        self.db.stats.creates.inc();
        self.db.stats.frees.inc();
        // The bytes were copied as they are, so a self-reference still
        // names `old`.
        let refs = take(&mut self.vecs.moved_refs);
        let repointed = self.repoint(new, old, new, &refs);
        self.vecs.moved_refs = refs;
        repointed.map(|_| new)
    }

    /// The references of the object this transaction's last
    /// [`Txn::move_object`] moved, in slot order as the move read them: a
    /// reference to itself names its old address here.
    pub fn moved_refs(&self) -> &[PhysAddr] {
        &self.vecs.moved_refs
    }

    /// Commit: log `Commit`, force the log if this transaction updated
    /// anything, apply the Section 4.5 TRT purges, hand the slots it freed
    /// to the allocator, release all locks. A transaction that updated
    /// nothing has nothing to make durable, and under strict 2PL whatever
    /// it read was forced by its writer's commit.
    ///
    /// An injected `wal.commit_flush` fault fails the commit *before* the
    /// commit record is appended; the handle is then dropped, which rolls
    /// the transaction back — a failed commit is an abort, as in ARIES.
    pub fn commit(mut self) -> Result<()> {
        self.db.fault.hit(site::WAL_COMMIT_FLUSH)?;
        let lsn = self.db.wal.append(self.id, LogPayload::Commit);
        if !self.vecs.undo.is_empty() {
            self.db.wal.flush(lsn);
        }
        self.db
            .purge_trt_for_txn(self.id, true, &self.vecs.deleted_pairs);
        self.db.release_slots(&self.vecs.holds);
        self.finish();
        self.db.stats.commits.inc();
        Ok(())
    }

    /// Abort: roll back through the undo chain (logging compensation
    /// records), then release all locks.
    pub fn abort(mut self) {
        self.rollback();
    }

    /// Undo every update, newest first. The slots this transaction freed
    /// are still held for it, so each compensating `Create` or `Move`
    /// finds its slot free.
    #[expect(
        clippy::expect_used,
        reason = "invariant: undo runs under the txn's X locks; a failure is corruption"
    )]
    fn rollback(&mut self) {
        if self.done {
            return;
        }
        while let Some(op) = self.vecs.undo.pop() {
            let compensation = op
                .inverse()
                .expect("invariant: the undo chain holds only update records");
            if let LogPayload::Move { old, .. } = compensation {
                self.read_moved(old)
                    .expect("invariant: a moved object is live at its new address");
            }
            self.apply(compensation, false)
                .expect("invariant: rollback under held X locks cannot fail");
        }
        self.db.wal.append(self.id, LogPayload::Abort);
        self.db
            .purge_trt_for_txn(self.id, false, &self.vecs.deleted_pairs);
        self.finish();
        self.db.stats.aborts.inc();
    }

    fn finish(&mut self) {
        for &(addr, _) in &self.vecs.held {
            self.db.locks.unlock(self.id, addr);
        }
        if !self.ever_locked.is_empty() {
            self.db.locks.drop_history(self.id, &self.ever_locked);
        }
        self.db.txns.finish(self.id);
        self.done = true;
        let mut spare = take(&mut self.vecs);
        spare.held.clear();
        spare.undo.clear();
        spare.deleted_pairs.clear();
        spare.holds.clear();
        SPARE_VECS.set(spare);
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
    use crate::trt::{RefAction, Trt, TrtTuple};

    /// The tuples naming `child`, from the sorted dump.
    fn tuples_for(trt: &Trt, child: PhysAddr) -> Vec<TrtTuple> {
        trt.dump()
            .into_iter()
            .filter(|t| t.child == child)
            .collect()
    }

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
        assert_eq!(db.locks.holds(t.id(), a), None);
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
        let tid = t.id();
        t.commit().unwrap();
        assert_eq!(db.locks.table_size(), 0);
        assert!(objs.iter().all(|&a| db.locks.holds(tid, a).is_none()));
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
            let (tid, other_tid) = (t.id(), other.id());
            other.commit().unwrap();
            if commit {
                t.commit().unwrap();
            } else {
                t.abort();
            }
            for (holder, obj) in [(tid, a), (other_tid, a), (tid, b)] {
                assert_eq!(db.locks.holds(holder, obj), None, "commit={commit}");
            }
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
        assert_eq!(tuples_for(&trt, child).len(), 1);
        assert_eq!(tuples_for(&trt, child)[0].action, RefAction::Delete);
        t.insert_ref(parent, child).unwrap();
        assert_eq!(tuples_for(&trt, child).len(), 2);
        // Commit purges the delete tuple. The re-insert stays: a traversal
        // that read `parent` while the reference was gone missed it.
        let tid = t.id();
        t.commit().unwrap();
        let left = tuples_for(&trt, child);
        assert_eq!(left.len(), 1, "{left:?}");
        assert_eq!((left[0].tid, left[0].action), (tid, RefAction::Insert));
        // A later transaction's delete of the same reference pair-purges it.
        let mut t = db.begin();
        t.lock(parent, LockMode::Exclusive).unwrap();
        t.delete_ref(parent, child).unwrap();
        t.commit().unwrap();
        assert_eq!(trt.len(), 0, "Section 4.5 purges leave nothing behind");
        db.end_reorg(PartitionId(1));
    }

    #[test]
    fn creation_and_deletion_in_reorg_partition_are_rejected() {
        let db = db();
        let mut t = db.begin();
        let old = t
            .create_object(PartitionId(1), NewObject::exact(0, vec![], vec![]))
            .unwrap();
        t.commit().unwrap();
        db.start_reorg(PartitionId(1)).unwrap();
        let mut t = db.begin();
        assert!(matches!(
            t.create_object(PartitionId(1), NewObject::exact(0, vec![], vec![])),
            Err(Error::PartitionUnderReorg(1))
        ));
        t.lock(old, LockMode::Exclusive).unwrap();
        assert!(matches!(
            t.delete_object(old),
            Err(Error::PartitionUnderReorg(1))
        ));
        t.abort();
        // Reorg transactions are exempt.
        let mut rt = db.begin_reorg(PartitionId(1));
        rt.create_object(PartitionId(1), NewObject::exact(0, vec![], vec![]))
            .unwrap();
        rt.lock(old, LockMode::Exclusive).unwrap();
        rt.delete_object(old).unwrap();
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
        assert_eq!(trt.len(), 0);
        db.end_reorg(PartitionId(1));
    }

    /// A store whose lock waits end in 50 ms, with two partitions.
    fn impatient_db() -> Database {
        let db = Database::new(StoreConfig {
            lock_timeout: std::time::Duration::from_millis(50),
            ..StoreConfig::default()
        });
        db.create_partition();
        db.create_partition();
        db
    }

    /// An object of `mk`'s size class.
    fn spec() -> NewObject {
        NewObject {
            tag: 2,
            refs: vec![],
            ref_cap: 8,
            payload: vec![0xCD; 32],
            payload_cap: 64,
        }
    }

    #[test]
    fn an_aborted_delete_finds_its_slot_unclaimed() {
        let db = impatient_db();
        let a = mk(&db, 0, vec![]);
        let mut t1 = db.begin();
        t1.lock(a, LockMode::Exclusive).unwrap();
        t1.delete_object(a).unwrap();
        // The freed slot is t1's until it commits: a create of the same
        // size class is handed another one, and does not wait on t1.
        let mut t2 = db.begin();
        let b = t2.create_object(PartitionId(0), spec());
        t1.abort();
        assert_ne!(b.unwrap(), a);
        t2.commit().unwrap();
        assert_eq!(db.raw_read(a).unwrap().payload, vec![0xAB; 32]);
        crate::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn a_create_whose_lock_fails_gives_its_slot_back() {
        let db = impatient_db();
        let part = db.partition(PartitionId(0)).unwrap();
        // Every object the directory lists reads back: no slot is left
        // claimed without an object on it.
        let all_read = || {
            part.live_objects()
                .into_iter()
                .try_for_each(|o| db.raw_read(o).map(drop))
        };
        let a = mk(&db, 0, vec![]);
        let mut t1 = db.begin();
        t1.lock(a, LockMode::Exclusive).unwrap();
        t1.delete_object(a).unwrap();
        let mut t2 = db.begin();
        let b = t2.create_object(PartitionId(0), spec());
        t1.commit().unwrap();
        all_read().unwrap();
        assert_ne!(b.unwrap(), a, "a slot is held until its freer commits");
        t2.commit().unwrap();
        // Committed, `a`'s slot heads its free list. A reader that still
        // locks the stale address makes the next create's X lock time out,
        // and the create must give the slot back.
        let mut reader = db.begin();
        reader.lock(a, LockMode::Shared).unwrap();
        let mut t3 = db.begin();
        assert!(matches!(
            t3.create_object(PartitionId(0), spec()),
            Err(Error::LockTimeout { .. })
        ));
        t3.commit().unwrap();
        reader.commit().unwrap();
        all_read().unwrap();
        assert_eq!(part.object_count(), 1);
        let mut t4 = db.begin();
        assert_eq!(t4.create_object(PartitionId(0), spec()).unwrap(), a);
        t4.commit().unwrap();
        crate::sweep::assert_database_consistent(&db);
    }

    /// Each forward mutator hits every fault site of its record's kind
    /// (DESIGN.md §9.1) before it changes anything: a permanent fault at
    /// the site's first hit fails the call, leaves the store as it was, and
    /// the transaction still commits.
    #[test]
    fn a_fault_at_any_site_of_a_mutator_changes_nothing() {
        use crate::fault::{FaultAction, FaultPlan, FaultRule};
        type Call = fn(&mut Txn<'_>, [PhysAddr; 3]) -> Result<()>;
        const REF: &[&str] = &[WAL_APPEND, TRT_NOTE, ERT_NOTE];
        let free: &[&str] = &[ALLOC_FREE, WAL_APPEND, TRT_NOTE, ERT_NOTE];
        let moves: &[&str] = &[ALLOC, ALLOC_FREE, WAL_APPEND, TRT_NOTE, ERT_NOTE];
        let cases: [(&str, &[&str], Call); 8] = [
            ("create_object", &[ALLOC, WAL_APPEND], |t, _| {
                t.create_object(PartitionId(0), spec()).map(drop)
            }),
            ("delete_object", free, |t, [a, ..]| t.delete_object(a)),
            ("insert_ref", REF, |t, [a, _, c]| {
                t.insert_ref(a, c).map(drop)
            }),
            ("delete_ref", REF, |t, [a, b, _]| {
                t.delete_ref(a, b).map(drop)
            }),
            ("set_ref", REF, |t, [a, _, c]| t.set_ref(a, 0, c).map(drop)),
            ("repoint_refs", REF, |t, [a, b, c]| {
                t.repoint_refs(a, b, c).map(drop)
            }),
            ("set_payload", &[WAL_APPEND], |t, [a, ..]| {
                t.set_payload(a, b"new")
            }),
            ("move_object", moves, |t, [a, ..]| {
                t.move_object(a, PartitionId(0)).map(drop)
            }),
        ];
        let state = |db: &Database| {
            let parts = [0, 1].map(|p| {
                let part = db.partition(PartitionId(p)).unwrap();
                let objects = crate::sweep::sweep_objects(db, PartitionId(p));
                let ert = part.ert.snapshot();
                (part.object_count(), part.space_stats(), objects, ert)
            });
            (parts, db.wal.stats.records.get())
        };
        for (name, sites, call) in cases {
            for &site in sites {
                let db = db();
                let (b, c) = (mk(&db, 1, vec![]), mk(&db, 1, vec![]));
                let a = mk(&db, 0, vec![b]);
                let mut t = db.begin();
                t.lock(a, LockMode::Exclusive).unwrap();
                let before = state(&db);
                let rule = FaultRule::nth(site, 1, FaultAction::Permanent);
                db.fault.arm(FaultPlan::new(0).with(rule));
                let failed = call(&mut t, [a, b, c]);
                db.fault.disarm();
                assert!(
                    matches!(failed, Err(Error::Injected { site: s, .. }) if s == site),
                    "{name} at {site}: {failed:?}"
                );
                assert!(state(&db) == before, "{name} at {site} changed the store");
                t.commit().unwrap();
            }
        }
    }
}
