//! Write-ahead logging.
//!
//! Transactions follow the WAL protocol of Section 2: the undo value is
//! logged before an update is performed, and the redo value is logged before
//! the lock on the updated object is released. Every log record carries both,
//! so restart recovery replays committed work forward from a checkpoint and
//! rolls losers back (see [`crate::recovery`]).
//!
//! The log is in-memory (the paper's experiments run a memory-resident
//! database) and holds encoded frames, not record trees (DESIGN.md §10.3);
//! forcing the tail at commit is simulated with a configurable latency so
//! the CPU/I-O overlap the paper observes at commit time exists here too.
//! With a [`crate::storage::FileBackend`] attached, every append also hands
//! its encoded body to the segment file — inside the log mutex, so the
//! file is in LSN order — and the force is a real `fsync`.
//!
//! Undo of an aborting transaction logs compensation records through the
//! same record types ([`LogPayload::inverse`]), so a *linear* scan of the log
//! reproduces every state transition — which is what lets [`analyzer`]
//! rebuild a TRT at restart (Section 4.4) without special cases.

pub mod analyzer;

use crate::addr::{PartitionId, PhysAddr};
use crate::lockdep::{self, Condvar, LockClass, Mutex};
use crate::object::ObjectView;
use crate::storage::{codec, FileBackend};
use crate::trt::RefAction;
use crate::txn::TxnId;
use obs::{Counter, Histogram};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Log sequence number. Strictly increasing, never reused.
pub type Lsn = u64;

/// The operation a log record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction start. `reorg` names the partition a reorganization
    /// utility transaction works for: its pointer rewrites concerning *that
    /// partition* are not workload updates and are excluded from the
    /// partition's TRT — but its rewrites touching other partitions under
    /// reorganization are ordinary pointer updates for *their* TRTs
    /// (concurrent reorganizations of different partitions are supported).
    Begin { reorg: Option<PartitionId> },
    /// Transaction commit (forces the log).
    Commit,
    /// Transaction abort (logged after its undo compensation records).
    Abort,
    /// Object created at `addr` with the given image.
    Create { addr: PhysAddr, image: ObjectView },
    /// Object at `addr` freed; `image` is the undo value.
    Free { addr: PhysAddr, image: ObjectView },
    /// Payload overwritten.
    SetPayload {
        addr: PhysAddr,
        old: Vec<u8>,
        new: Vec<u8>,
    },
    /// Reference to `child` appended to `parent` at `index`.
    InsertRef {
        parent: PhysAddr,
        child: PhysAddr,
        index: usize,
    },
    /// Reference to `child` removed from `parent` at `index`.
    DeleteRef {
        parent: PhysAddr,
        child: PhysAddr,
        index: usize,
    },
    /// Reference slot `index` of `parent` overwritten (used by the
    /// reorganizer when repointing parents at a migrated object).
    SetRef {
        parent: PhysAddr,
        index: usize,
        old_child: PhysAddr,
        new_child: PhysAddr,
    },
    /// A reorganization of `partition` started; its TRT window (and the
    /// restart rebuild of it) begins at this record.
    ReorgStart { partition: PartitionId },
    /// The reorganization of `partition` finished.
    ReorgEnd { partition: PartitionId },
    /// Informational marker: the object at `old` now lives at `new`.
    Migrate { old: PhysAddr, new: PhysAddr },
    /// A checkpoint with the given id was taken at this LSN.
    Checkpoint { id: u64 },
    /// A new (empty) partition was created. Logged so restart recovery can
    /// re-create partitions added after the last checkpoint (the copying
    /// collector evacuates into fresh partitions mid-run).
    CreatePartition { id: PartitionId },
    /// A reorganization utility saved its serialized progress checkpoint
    /// for `partition`. Logged (in addition to the in-memory side table)
    /// so a file backend can recover the blob from the log alone: restart
    /// takes the *latest* such record per partition, letting a mid-reorg
    /// process kill resume from the on-disk checkpoint + log.
    ReorgCheckpoint { partition: PartitionId, blob: Vec<u8> },
}

impl LogPayload {
    /// Approximate serialized footprint in bytes: a fixed header plus the
    /// variable parts (images, payload copies). Feeds the `wal.bytes`
    /// counter so log volume per experiment is visible without a real wire
    /// format.
    pub fn approx_size(&self) -> u64 {
        const HEADER: u64 = 24; // lsn + tid + discriminant
        let body = match self {
            LogPayload::Begin { .. }
            | LogPayload::Commit
            | LogPayload::Abort
            | LogPayload::ReorgStart { .. }
            | LogPayload::ReorgEnd { .. }
            | LogPayload::Checkpoint { .. }
            | LogPayload::CreatePartition { .. } => 8,
            LogPayload::Create { image, .. } | LogPayload::Free { image, .. } => {
                8 + (image.refs.len() * 8 + image.payload.len()) as u64
            }
            LogPayload::SetPayload { old, new, .. } => 8 + (old.len() + new.len()) as u64,
            LogPayload::ReorgCheckpoint { blob, .. } => 8 + blob.len() as u64,
            LogPayload::InsertRef { .. } | LogPayload::DeleteRef { .. } => 24,
            LogPayload::SetRef { .. } => 32,
            LogPayload::Migrate { .. } => 16,
        };
        HEADER + body
    }

    /// The update that undoes this one, logged as its compensation record:
    /// `Create`↔`Free`, `InsertRef`↔`DeleteRef`, `SetRef`/`SetPayload` with
    /// old and new swapped. `None` for records that are not updates.
    pub fn inverse(self) -> Option<LogPayload> {
        Some(match self {
            LogPayload::Create { addr, image } => LogPayload::Free { addr, image },
            LogPayload::Free { addr, image } => LogPayload::Create { addr, image },
            LogPayload::SetPayload { addr, old, new } => LogPayload::SetPayload {
                addr,
                old: new,
                new: old,
            },
            LogPayload::InsertRef {
                parent,
                child,
                index,
            } => LogPayload::DeleteRef {
                parent,
                child,
                index,
            },
            LogPayload::DeleteRef {
                parent,
                child,
                index,
            } => LogPayload::InsertRef {
                parent,
                child,
                index,
            },
            LogPayload::SetRef {
                parent,
                index,
                old_child,
                new_child,
            } => LogPayload::SetRef {
                parent,
                index,
                old_child: new_child,
                new_child: old_child,
            },
            _ => return None,
        })
    }

    /// Call `f(action, parent, child)` for every reference this update
    /// inserts or deletes, in the order the TRT must learn of them: an
    /// overwrite is the delete of the old reference, then the insert of the
    /// new one; an object's creation inserts (its freeing deletes) each
    /// stored reference. A re-inserted reference — the compensation of a
    /// delete — is an insert like any other (Section 4.5).
    pub fn for_each_ref_change(&self, mut f: impl FnMut(RefAction, PhysAddr, PhysAddr)) {
        match self {
            LogPayload::Create { addr, image } => {
                image.refs.iter().for_each(|&c| f(RefAction::Insert, *addr, c))
            }
            LogPayload::Free { addr, image } => {
                image.refs.iter().for_each(|&c| f(RefAction::Delete, *addr, c))
            }
            LogPayload::InsertRef { parent, child, .. } => f(RefAction::Insert, *parent, *child),
            LogPayload::DeleteRef { parent, child, .. } => f(RefAction::Delete, *parent, *child),
            LogPayload::SetRef {
                parent,
                old_child,
                new_child,
                ..
            } => {
                f(RefAction::Delete, *parent, *old_child);
                f(RefAction::Insert, *parent, *new_child);
            }
            _ => {}
        }
    }
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    pub lsn: Lsn,
    pub tid: TxnId,
    pub payload: LogPayload,
}

/// Counters on the logging path. Lock-free; `append` adds two relaxed
/// atomic increments on top of the existing log mutex.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: Counter,
    /// Approximate bytes appended (see [`LogPayload::approx_size`]).
    pub bytes: Counter,
    /// Flush calls that actually forced the log (not already-durable
    /// no-ops). Commits force the log, so this tracks commit flushes.
    pub flushes: Counter,
    /// Flush requests absorbed by another caller's force: the caller waited
    /// on an in-flight group leader instead of paying its own device sleep.
    pub group_commits: Counter,
    /// Latency of each forcing flush, microseconds.
    pub flush_us: Histogram,
    /// Records discarded by self-truncation.
    pub truncated: Counter,
}

impl WalStats {
    /// Dump every counter into `snap` under `wal.`.
    pub fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("wal.records", self.records.get());
        snap.set("wal.bytes", self.bytes.get());
        snap.set("wal.flushes", self.flushes.get());
        snap.set("wal.group_commits", self.group_commits.get());
        snap.set("wal.flush_us_sum", self.flush_us.sum_us());
        snap.set("wal.flush_us_max", self.flush_us.max_us());
        snap.set("wal.truncated", self.truncated.get());
    }
}

/// The retained log: the last `count` records appended — LSNs
/// `next_lsn - count` and up — each as one `[len: u32 LE][body]` frame
/// ([`codec::put_bytes`] of a [`codec::put_record_body`]). No per-record
/// offset table: it would push `next_lsn` off [`Wal`]'s first cache line, and
/// only cold paths need record boundaries — they hop the length prefixes.
#[derive(Debug, Default)]
struct WalInner {
    frames: Vec<u8>,
    /// Records in `frames`.
    count: usize,
}

impl WalInner {
    /// Byte offset in `frames` of the frame `skip` records in.
    fn offset_of(&self, skip: usize) -> usize {
        let mut at = 0;
        let f = &self.frames;
        for _ in 0..skip.min(self.count) {
            let len = u32::from_le_bytes([f[at], f[at + 1], f[at + 2], f[at + 3]]);
            at += 4 + len as usize;
        }
        at
    }
}

thread_local! {
    /// The body this thread's append is encoding: a record is encoded
    /// before the log mutex is taken, into a buffer no other thread sees.
    static BODY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The write-ahead log.
///
/// `repr(C)`: declared order is layout order, so the log mutex (offset 0),
/// the 32-byte [`WalInner`] it guards (offset 8) and `next_lsn` (offset 40;
/// 56 with lockdep's tag in the mutex) — everything an append writes — stay
/// on the struct's first cache line (`stats` aligns it to one; asserted
/// below). Left to the compiler, a size change of any field can move
/// `next_lsn` onto a second line both appenders then contend for
/// (`walk_update` −7 %; a 64-byte `WalInner` cost `walk_read` 3–6 %).
#[repr(C)]
pub struct Wal {
    inner: Mutex<WalInner>,
    /// Next LSN to assign. Written only under `inner`, as the last step of
    /// the critical section that logged the record before it; an atomic so
    /// [`Wal::next_lsn`] — the group-commit leader's force target, the
    /// fuzzy checkpoint's window start — reads it without the log mutex.
    next_lsn: AtomicU64,
    retain: bool,
    flush_latency: Duration,
    flushed_lsn: AtomicU64,
    /// Named truncation pins: records at or above the *minimum* pinned LSN
    /// may not be discarded. Each active reorganization's TRT window pins
    /// independently.
    pins: Mutex<std::collections::HashMap<u64, Lsn>>,
    next_pin: AtomicU64,
    /// Effective minimum over `pins` (u64::MAX when none), kept as an
    /// atomic so the append path never takes the pins mutex.
    pinned_lsn: AtomicU64,
    /// Truncation threshold when retention is off.
    truncate_watermark: usize,
    /// Group-commit election: true while a leader is inside the simulated
    /// device sleep. Followers wait on `flush_cv` instead of sleeping.
    flush_leader: Mutex<bool>,
    flush_cv: Condvar,
    /// Durability mirror (DESIGN.md §14). When set, every append is also
    /// handed to the backend — under the log mutex, before `next_lsn` is
    /// published, so every LSN below `next_lsn` is in the segment file —
    /// and the leader's force becomes a real fsync. `None` for the default
    /// in-memory simulator: the mirror costs nothing unless a file backend
    /// is attached.
    sink: std::sync::OnceLock<std::sync::Arc<FileBackend>>,
    /// Logging-path counters.
    pub stats: WalStats,
}

const _: () = assert!(std::mem::align_of::<Wal>() >= 64);
const _: () = assert!(std::mem::offset_of!(Wal, next_lsn) < 64);

/// Handle to a truncation pin; see [`Wal::pin_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinId(u64);

impl Wal {
    /// Create a log. With `retain == false` the log self-truncates once it
    /// exceeds an internal watermark (long benchmark runs).
    pub fn new(retain: bool, flush_latency: Duration) -> Self {
        Wal {
            inner: Mutex::new(LockClass::WalInner, 0, WalInner::default()),
            next_lsn: AtomicU64::new(0),
            retain,
            flush_latency,
            flushed_lsn: AtomicU64::new(0),
            pins: Mutex::new(LockClass::WalPins, 0, std::collections::HashMap::new()),
            next_pin: AtomicU64::new(1),
            pinned_lsn: AtomicU64::new(u64::MAX),
            truncate_watermark: 1 << 16,
            flush_leader: Mutex::new(LockClass::WalFlushLeader, 0, false),
            flush_cv: Condvar::new(),
            sink: std::sync::OnceLock::new(),
            stats: WalStats::default(),
        }
    }

    /// Attach a durability mirror. Set once, before the log is shared with
    /// writers (records appended earlier — e.g. recovery compensations —
    /// are deliberately not mirrored: they are re-derived by re-running
    /// recovery, and only become durable via the post-recovery checkpoint).
    pub fn set_sink(&self, sink: std::sync::Arc<FileBackend>) {
        let _ = self.sink.set(sink);
    }

    /// Advance the LSN space of an *empty* log so it continues where a
    /// pre-crash log left off. Restart recovery calls this before appending
    /// anything, keeping LSNs globally unique across process lifetimes —
    /// which is what lets logs from different incarnations be merged by LSN
    /// during TRT reconstruction.
    pub fn advance_to(&self, lsn: Lsn) {
        let inner = self.inner.lock();
        assert!(
            inner.count == 0,
            "advance_to is only valid on an empty log"
        );
        if lsn > self.next_lsn() {
            // ordering: Release pairs with the Acquire load in next_lsn
            self.next_lsn.store(lsn, Ordering::Release);
        }
    }

    /// Append a record, returning its LSN. The payload is only read: the
    /// undo chain lends its copy, any other caller's is dropped on return.
    pub fn append(&self, tid: TxnId, payload: impl Borrow<LogPayload>) -> Lsn {
        let payload = payload.borrow();
        self.stats.records.inc();
        self.stats.bytes.add(payload.approx_size());
        BODY.with_borrow_mut(|body| {
            body.clear();
            // The LSN, the body's first eight bytes, is patched in under the mutex.
            codec::put_record_body(body, 0, tid, payload);
            self.append_body(tid, body)
        })
    }

    /// The critical section of an append: give the encoded `body` its LSN,
    /// mirror and retain it, truncate, publish.
    fn append_body(&self, tid: TxnId, body: &mut [u8]) -> Lsn {
        // Schedule capture: appends order the log against TRT notes and the
        // fuzzy checkpoint's next_lsn read; gate *before* taking WalInner.
        crate::sched::point("wal.append.rec", tid.0);
        let mut inner = self.inner.lock();
        // ordering: Relaxed; every store is made under the log mutex held here
        let lsn = self.next_lsn.load(Ordering::Relaxed);
        body[..8].copy_from_slice(&lsn.to_le_bytes());
        if let Some(sink) = self.sink.get() {
            sink.wal_append(lsn, body);
        }
        codec::put_bytes(&mut inner.frames, body);
        inner.count += 1;
        if !self.retain && inner.count > self.truncate_watermark {
            // ordering: pairs with the Release store in recompute_pin; truncation sees pins
            let pinned = self.pinned_lsn.load(Ordering::Acquire);
            let base_lsn = lsn + 1 - inner.count as Lsn;
            let drop_count = pinned.min(lsn + 1).saturating_sub(base_lsn) as usize;
            if drop_count > 0 {
                // One move of the surviving bytes, nothing freed per record.
                let all = drop_count == inner.count;
                let cut = if all { inner.frames.len() } else { inner.offset_of(drop_count) };
                inner.frames.drain(..cut);
                inner.count -= drop_count;
                self.stats.truncated.add(drop_count as u64);
            }
        }
        // Published last: whoever reads `lsn + 1` finds this record in the
        // log (and its frame in the sink's segment file), and sees
        // everything its appender did before appending it.
        // ordering: Release pairs with the Acquire load in next_lsn
        self.next_lsn.store(lsn + 1, Ordering::Release);
        lsn
    }

    /// Force the log up to `lsn`, simulating the device latency.
    ///
    /// Group commit: concurrent callers elect one *leader* that pays a
    /// single device sleep covering everything appended up to the moment
    /// the force starts; the others wait on a condvar and return once the
    /// leader's force makes their LSN durable (`group_commits` counts such
    /// absorbed requests). This also fixes the historical double-sleep:
    /// two threads racing on overlapping LSNs used to both sleep the full
    /// latency. Any caller sleeps at most ~2 latencies (a force already in
    /// flight when it arrives, plus the force it may then lead).
    ///
    /// With no sink and no latency there is no device force to share: one
    /// `fetch_max`, counted in `wal.flushes` but not timed.
    pub fn flush(&self, lsn: Lsn) {
        // ordering: pairs with the AcqRel fetch_max below; a flushed reader skips the lock
        if self.flushed_lsn.load(Ordering::Acquire) >= lsn {
            return;
        }
        if self.flush_latency.is_zero() && self.sink.get().is_none() {
            // ordering: publishes the flushed prefix; pairs with the Acquire fast-path loads
            self.flushed_lsn.fetch_max(lsn, Ordering::AcqRel);
            self.stats.flushes.inc();
            return;
        }
        let started = Instant::now();
        let mut absorbed = false;
        let mut leader_active = self.flush_leader.lock();
        loop {
            // ordering: pairs with the AcqRel fetch_max below; re-check under the leader lock
            if self.flushed_lsn.load(Ordering::Acquire) >= lsn {
                if absorbed {
                    self.stats.group_commits.inc();
                }
                return;
            }
            if *leader_active {
                absorbed = true;
                self.flush_cv.wait(&mut leader_active);
                continue;
            }
            // Become the leader. Capture the force target *before* the
            // sleep: appends racing with the sleep wait for the next force.
            *leader_active = true;
            drop(leader_active);
            let target = self.next_lsn().saturating_sub(1).max(lsn);
            if let Some(sink) = self.sink.get() {
                // Real durability: the leader's force is an fsync of the
                // active segment, on behalf of every absorbed follower.
                // Every frame up to the target is already in the file.
                sink.sync();
            }
            if !self.flush_latency.is_zero() {
                // Model the device: the flush costs latency outside any latch.
                lockdep::might_block("wal.flush");
                #[expect(
                    clippy::disallowed_methods,
                    reason = "simulated WAL device latency on the leader's force path (DESIGN.md §2 substitution for a real disk)"
                )]
                std::thread::sleep(self.flush_latency);
            }
            // ordering: publishes the flushed prefix; pairs with the Acquire fast-path loads
            self.flushed_lsn.fetch_max(target, Ordering::AcqRel);
            self.stats.flushes.inc();
            self.stats.flush_us.record(started.elapsed());
            leader_active = self.flush_leader.lock();
            *leader_active = false;
            self.flush_cv.notify_all();
            // `target >= lsn`, so the next iteration returns.
        }
    }

    /// Highest LSN known durable.
    pub fn flushed_lsn(&self) -> Lsn {
        // ordering: pairs with the AcqRel fetch_max in flush; reader sees durable prefix
        self.flushed_lsn.load(Ordering::Acquire)
    }

    /// Next LSN that will be assigned.
    pub fn next_lsn(&self) -> Lsn {
        // ordering: Acquire pairs with the Release stores made under the log mutex
        self.next_lsn.load(Ordering::Acquire)
    }

    /// Lowest LSN still retained.
    pub fn base_lsn(&self) -> Lsn {
        let inner = self.inner.lock();
        self.next_lsn() - inner.count as Lsn
    }

    /// All retained records with `lsn >= from`: their frames are copied out
    /// under the log mutex and decoded after it.
    pub fn records_from(&self, from: Lsn) -> Vec<LogRecord> {
        let bytes = {
            let inner = self.inner.lock();
            let wanted = self.next_lsn().saturating_sub(from) as usize;
            inner.frames[inner.offset_of(inner.count.saturating_sub(wanted))..].to_vec()
        };
        let mut records = Vec::new();
        let mut r = codec::Reader::new(&bytes, 0);
        while r.remaining() > 0 {
            let body = r.u32().and_then(|len| r.take(len as usize));
            match body.and_then(|body| codec::decode_record_body(body, 0)) {
                Ok(record) => records.push(record),
                Err(e) => unreachable!("the log holds a frame it cannot decode: {e}"),
            }
        }
        records
    }

    /// Create a named pin at `lsn`: records at or above the minimum of all
    /// pins will not be truncated. Used by each active reorganization
    /// (which may need to rebuild its TRT from the log after a failure).
    pub fn pin_at(&self, lsn: Lsn) -> PinId {
        // ordering: pin-id allocator; uniqueness only, the pins lock orders the table
        let id = PinId(self.next_pin.fetch_add(1, Ordering::Relaxed));
        let mut pins = self.pins.lock();
        pins.insert(id.0, lsn);
        self.recompute_pin(&pins);
        id
    }

    /// Remove a pin.
    pub fn unpin(&self, id: PinId) {
        let mut pins = self.pins.lock();
        pins.remove(&id.0);
        self.recompute_pin(&pins);
    }

    fn recompute_pin(&self, pins: &std::collections::HashMap<u64, Lsn>) {
        let min = pins.values().copied().min().unwrap_or(u64::MAX);
        // ordering: pairs with the Acquire load in append's truncation check
        self.pinned_lsn.store(min, Ordering::Release);
    }

    /// Records retained and the bytes of their frames.
    pub fn retained(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.count, inner.frames.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PartitionId;

    fn rec() -> LogPayload {
        LogPayload::Migrate {
            old: PhysAddr::new(PartitionId(0), 0, 0),
            new: PhysAddr::new(PartitionId(0), 0, 64),
        }
    }

    #[test]
    fn lsns_are_sequential() {
        let wal = Wal::new(true, Duration::ZERO);
        assert_eq!(wal.append(TxnId(1), LogPayload::Begin { reorg: None }), 0);
        assert_eq!(wal.append(TxnId(1), rec()), 1);
        assert_eq!(wal.append(TxnId(1), LogPayload::Commit), 2);
        assert_eq!(wal.next_lsn(), 3);
    }

    #[test]
    fn records_from_respects_offset() {
        let wal = Wal::new(true, Duration::ZERO);
        for _ in 0..5 {
            wal.append(TxnId(1), rec());
        }
        assert_eq!(wal.records_from(3).len(), 2);
        assert_eq!(wal.records_from(0).len(), 5);
        assert_eq!(wal.records_from(99).len(), 0);
    }

    #[test]
    fn flush_advances_watermark() {
        let wal = Wal::new(true, Duration::ZERO);
        let lsn = wal.append(TxnId(1), LogPayload::Commit);
        assert_eq!(wal.flushed_lsn(), 0);
        wal.flush(lsn);
        assert_eq!(wal.flushed_lsn(), lsn);
    }

    /// No sink, no latency: each force is one atomic, counted once, and a
    /// force of an already durable LSN counts nothing.
    #[test]
    fn in_memory_force_is_counted_not_timed() {
        let wal = Wal::new(true, Duration::ZERO);
        for round in 1..=3 {
            wal.append(TxnId(1), LogPayload::Begin { reorg: None });
            let lsn = wal.append(TxnId(1), LogPayload::Commit);
            wal.flush(lsn);
            assert!(wal.flushed_lsn() >= lsn);
            assert_eq!(wal.stats.flushes.get(), round);
            wal.flush(lsn);
            wal.flush(lsn.saturating_sub(1));
            assert_eq!(wal.stats.flushes.get(), round, "already durable");
        }
        assert_eq!(wal.stats.flush_us.max_us(), 0, "nothing timed");
        assert_eq!(wal.stats.group_commits.get(), 0);
    }

    /// A self-truncating log with a watermark small enough to cross.
    fn truncating_wal() -> Wal {
        Wal {
            truncate_watermark: 10,
            ..Wal::new(false, Duration::ZERO)
        }
    }

    /// One payload of every variant, of different encoded lengths.
    fn every_variant() -> Vec<LogPayload> {
        let a = |off| PhysAddr::new(PartitionId(1), 2, off);
        let image = ObjectView {
            tag: 7,
            refs: vec![a(0), a(64)],
            ref_cap: 4,
            payload: b"image".to_vec(),
            payload_cap: 16,
        };
        let partition = PartitionId(3);
        vec![
            LogPayload::Begin { reorg: None },
            LogPayload::Begin { reorg: Some(partition) },
            LogPayload::Commit,
            LogPayload::Abort,
            LogPayload::Create { addr: a(0), image: image.clone() },
            LogPayload::Free { addr: a(0), image },
            LogPayload::SetPayload { addr: a(8), old: vec![], new: vec![0xEE; 300] },
            LogPayload::InsertRef { parent: a(8), child: a(16), index: 1 },
            LogPayload::DeleteRef { parent: a(8), child: a(16), index: 1 },
            LogPayload::SetRef { parent: a(8), index: 0, old_child: a(16), new_child: a(24) },
            LogPayload::ReorgStart { partition },
            LogPayload::ReorgEnd { partition },
            rec(),
            LogPayload::Checkpoint { id: 9 },
            LogPayload::CreatePartition { id: partition },
            LogPayload::ReorgCheckpoint { partition, blob: vec![1, 2, 3] },
        ]
    }

    /// Append every variant, owned and borrowed by turns, extending the
    /// model `logged` with what `records_from` must return for each.
    fn append_every_variant(wal: &Wal, logged: &mut Vec<LogRecord>) {
        for (i, payload) in every_variant().into_iter().enumerate() {
            let tid = TxnId(i as u64);
            let lsn = if i % 2 == 0 {
                wal.append(tid, payload.clone())
            } else {
                wal.append(tid, &payload)
            };
            assert_eq!(lsn, logged.len() as Lsn, "LSNs are consecutive");
            logged.push(LogRecord { lsn, tid, payload });
        }
    }

    #[test]
    fn every_variant_round_trips_through_the_frames() {
        let wal = Wal::new(true, Duration::ZERO);
        let mut logged = Vec::new();
        append_every_variant(&wal, &mut logged);
        assert_eq!(wal.records_from(0), logged);
        assert_eq!(wal.records_from(7), logged[7..]);
        assert_eq!(wal.retained().0, logged.len());
    }

    #[test]
    fn truncation_respects_pin() {
        let wal = truncating_wal();
        let per_round = every_variant().len() as Lsn;
        let early = wal.pin_at(5);
        let late = wal.pin_at(per_round + 2);
        let mut logged = Vec::new();
        append_every_variant(&wal, &mut logged);
        assert_eq!(wal.base_lsn(), 5, "truncation stops at the earliest pin");
        assert_eq!(wal.records_from(0), logged[5..], "the cut falls on a frame boundary");
        assert_eq!(wal.records_from(9), logged[9..]);
        wal.unpin(early);
        append_every_variant(&wal, &mut logged);
        assert_eq!(wal.base_lsn(), per_round + 2, "the later pin takes over");
        assert_eq!(wal.records_from(0), logged[per_round as usize + 2..]);
        assert_eq!(wal.stats.truncated.get(), per_round + 2, "counted in records");
        // Nothing pinned: the next append drops everything, itself included.
        wal.unpin(late);
        let lsn = wal.append(TxnId(1), rec());
        assert_eq!(wal.retained(), (0, 0));
        assert_eq!(wal.base_lsn(), lsn + 1);
        assert_eq!(wal.stats.truncated.get(), lsn + 1);
        assert!(wal.records_from(0).is_empty());
        // And the log carries on from there.
        let lsn = wal.append(TxnId(1), rec());
        let tail = wal.records_from(0);
        assert_eq!(tail.len(), 1);
        assert_eq!((tail[0].lsn, &tail[0].payload), (lsn, &rec()));
    }

    /// The in-memory half of
    /// `storage::tests::concurrent_appends_reach_the_segments_in_lsn_order`.
    #[test]
    fn concurrent_appends_decode_gap_free() {
        let wal = Wal::new(true, Duration::ZERO);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (wal, start) = (&wal, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500usize {
                        // Frames of many lengths, so a misplaced boundary shows.
                        let new = vec![t as u8; i % 97];
                        wal.append(TxnId(t), LogPayload::Checkpoint { id: i as u64 });
                        wal.append(TxnId(t), &LogPayload::SetPayload { addr: PhysAddr::from_raw(t), old: vec![], new });
                    }
                });
            }
        });
        let logged = wal.records_from(0);
        assert_eq!(logged.len(), 4 * 500 * 2);
        assert!(logged.iter().enumerate().all(|(i, r)| r.lsn == i as Lsn));
        for t in 0..4u64 {
            // Each thread's records, in the order it appended them.
            let mut own = logged.iter().filter(|r| r.tid == TxnId(t));
            for i in 0..500usize {
                let id = i as u64;
                assert_eq!(own.next().map(|r| &r.payload), Some(&LogPayload::Checkpoint { id }));
                assert!(matches!(
                    own.next().map(|r| &r.payload),
                    Some(LogPayload::SetPayload { new, .. }) if new.len() == i % 97
                ));
            }
            assert!(own.next().is_none());
        }
    }

    #[test]
    fn stats_track_appends_and_flushes() {
        let wal = Wal::new(true, Duration::from_millis(2));
        wal.append(TxnId(1), LogPayload::Begin { reorg: None });
        let lsn = wal.append(TxnId(1), LogPayload::Commit);
        assert_eq!(wal.stats.records.get(), 2);
        assert!(wal.stats.bytes.get() >= 2 * 24);
        wal.flush(lsn);
        wal.flush(lsn); // already durable: must not count again
        assert_eq!(wal.stats.flushes.get(), 1);
        assert!(
            wal.stats.flush_us.max_us() >= 1_000,
            "simulated device latency shows up in the flush histogram"
        );
    }

    #[test]
    fn concurrent_flushers_share_one_device_force() {
        use std::sync::Arc;
        let wal = Arc::new(Wal::new(true, Duration::from_millis(20)));
        let lsns: Vec<Lsn> = (0..8)
            .map(|_| wal.append(TxnId(1), LogPayload::Commit))
            .collect();
        let started = Instant::now();
        let handles: Vec<_> = lsns
            .iter()
            .map(|&lsn| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || wal.flush(lsn))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(wal.flushed_lsn() >= *lsns.last().unwrap());
        // All LSNs were appended before any flush started, so the first
        // leader's force covers every request: at most one straggler that
        // raced past the fast path leads a second (empty) force.
        assert!(
            wal.stats.flushes.get() <= 2,
            "{} device forces for one group of 8 flushers",
            wal.stats.flushes.get()
        );
        assert!(
            wal.stats.group_commits.get() >= 1,
            "waiting followers must be absorbed into the leader's force"
        );
        assert!(
            started.elapsed() < Duration::from_millis(8 * 20),
            "followers must not serialize their sleeps"
        );
    }

    #[test]
    fn retained_log_never_truncates() {
        let wal = Wal::new(true, Duration::ZERO);
        for _ in 0..100 {
            wal.append(TxnId(1), rec());
        }
        assert_eq!(wal.base_lsn(), 0);
        assert_eq!(wal.retained().0, 100);
    }
}
