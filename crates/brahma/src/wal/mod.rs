//! Write-ahead logging.
//!
//! Transactions follow the WAL protocol of Section 2: the undo value is
//! logged before an update is performed, and the redo value is logged before
//! the lock on the updated object is released. Every log record carries both,
//! so restart recovery replays committed work forward from a checkpoint and
//! rolls losers back (see `recovery`).
//!
//! The log is in-memory (the paper's experiments run a memory-resident
//! database) and holds encoded frames, not record trees (DESIGN.md §10.3);
//! forcing the tail at commit is simulated with a configurable latency so
//! the CPU/I-O overlap the paper observes at commit time exists here too.
//! Each thread appends to its own lane ([`LANES`]); readers merge the
//! lanes by LSN. With a [`crate::storage::FileBackend`] attached, every
//! append takes lane 0 and also hands its encoded body to the segment file
//! inside that lane's mutex, so the file is in LSN order, and the force is
//! a real `fsync`.
//!
//! Undo of an aborting transaction logs compensation records through the
//! same record types ([`LogPayload::inverse`]), so a *linear* scan of the log
//! reproduces every state transition without special cases.

use crate::addr::{PartitionId, PhysAddr};
use crate::lockdep::{self, Condvar, LockClass, Mutex, MutexGuard};
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
    /// A reorganization of `partition` started, or restarted at the floor
    /// of its interrupted pass. Until the pass ends the partition allocates
    /// only on pages numbered `floor` and up.
    ReorgStart { partition: PartitionId, floor: u32 },
    /// The reorganization of `partition` finished, dropping its pages
    /// below `base`.
    ReorgEnd { partition: PartitionId, base: u32 },
    /// Informational marker: the object at `old` now lives at `new`.
    Migrate { old: PhysAddr, new: PhysAddr },
    /// A checkpoint with the given id was taken at this LSN.
    Checkpoint { id: u64 },
    /// A new (empty) partition was created. Logged so restart recovery can
    /// re-create partitions added after the last checkpoint (the copying
    /// collector evacuates into fresh partitions mid-run).
    CreatePartition { id: PartitionId },
}

impl LogPayload {
    /// Approximate serialized footprint in bytes: a fixed header plus the
    /// variable parts (images, payload copies). Feeds the `wal.bytes`
    /// counter so log volume per experiment is visible without a real wire
    /// format.
    pub(crate) fn approx_size(&self) -> u64 {
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
    pub(crate) fn for_each_ref_change(&self, mut f: impl FnMut(RefAction, PhysAddr, PhysAddr)) {
        match self {
            LogPayload::Create { addr, image } => image
                .refs
                .iter()
                .for_each(|&c| f(RefAction::Insert, *addr, c)),
            LogPayload::Free { addr, image } => image
                .refs
                .iter()
                .for_each(|&c| f(RefAction::Delete, *addr, c)),
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
/// atomic increments on top of its lane's mutex.
#[derive(Debug, Default)]
pub(crate) struct WalStats {
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
    pub(crate) fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("wal.records", self.records.get());
        snap.set("wal.bytes", self.bytes.get());
        snap.set("wal.flushes", self.flushes.get());
        snap.set("wal.group_commits", self.group_commits.get());
        snap.set("wal.flush_us_sum", self.flush_us.sum_us());
        snap.set("wal.flush_us_max", self.flush_us.max_us());
        snap.set("wal.truncated", self.truncated.get());
    }
}

/// Lanes of the log, one per thread slot ([`crate::txn::thread_slot`]).
pub const LANES: usize = crate::txn::SLOTS;

/// One lane: the records its threads appended, in LSN order but not
/// consecutive (the other lanes hold the LSNs between), each as one
/// `[len: u32 LE][body]` frame ([`codec::put_bytes`] of a
/// [`codec::put_record_body`]). No per-record offset table: only cold paths
/// need record boundaries, and they hop the length prefixes.
#[derive(Debug)]
struct WalInner {
    frames: Vec<u8>,
    /// Records in `frames`.
    count: usize,
    /// The `count` at which an append checks for truncation; `usize::MAX`
    /// on a retained log.
    check_at: usize,
}

impl WalInner {
    /// The records below `lsn` — a prefix, the lane being in LSN order —
    /// and the bytes of their frames.
    fn prefix_below(&self, lsn: Lsn) -> (usize, usize) {
        // A little-endian word of `n` bytes at `at`.
        let word = |at: usize, n: usize| {
            self.frames[at..at + n]
                .iter()
                .rev()
                .fold(0, |w, &b| w << 8 | u64::from(b))
        };
        let mut at = 0;
        for n in 0..self.count {
            if word(at + 4, 8) >= lsn {
                return (n, at);
            }
            at += 4 + word(at, 4) as usize;
        }
        (self.count, at)
    }
}

/// A lane on cache lines of its own: an append writes its lane's mutex and
/// frame vector, which an appender on another lane must not share.
#[repr(align(128))]
struct Lane(Mutex<WalInner>);

const _: () = assert!(std::mem::size_of::<Lane>() == 128);

thread_local! {
    /// The body this thread's append is encoding: a record is encoded
    /// before a lane mutex is taken, into a buffer no other thread sees.
    static BODY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The write-ahead log.
///
/// A thread appends to the lane of its thread slot, under that lane's
/// mutex: it reserves its LSN from `next_lsn` and copies its frame in. So
/// the one word two appenders on different lanes both write is `next_lsn`
/// (DESIGN.md §10.3). `repr(C)`: declared order is layout order, which
/// keeps `next_lsn`, `flushed_lsn` and the read-mostly fields an append or
/// a commit reads on the struct's first cache line (asserted below).
#[repr(C)]
pub struct Wal {
    /// Next LSN to reserve. An append reserves under its lane's mutex, so a
    /// reader holding every lane (a [`Wal::cut`]) finds each LSN below it in
    /// some lane; without the cut a reserved LSN's record may still be on
    /// its way in.
    next_lsn: AtomicU64,
    flushed_lsn: AtomicU64,
    /// Durability mirror (DESIGN.md §14). When set, every append takes lane
    /// 0 and hands the record to the backend under that lane's mutex, so
    /// the segment file is in LSN order and every LSN below `next_lsn` is in
    /// it once the cut is taken; the leader's force becomes a real fsync.
    /// `None` for the default in-memory simulator.
    sink: std::sync::OnceLock<std::sync::Arc<FileBackend>>,
    flush_latency: Duration,
    /// Lowest LSN retained: every LSN from here to `next_lsn` is in a lane.
    /// A lane's truncation raises it past the records it dropped; the frames
    /// other lanes still hold below it are skipped by every reader.
    base: AtomicU64,
    /// Records a lane holds before it truncates: the truncation watermark
    /// over [`LANES`].
    lane_share: usize,
    lanes: [Lane; LANES],
    /// Group-commit election: true while a leader is inside the simulated
    /// device sleep. Followers wait on `flush_cv` instead of sleeping.
    flush_leader: Mutex<bool>,
    flush_cv: Condvar,
    /// Logging-path counters.
    pub(crate) stats: WalStats,
}

const _: () = assert!(std::mem::offset_of!(Wal, base) + 8 <= 64);

impl Wal {
    /// Create a log. With `retain == false` the log self-truncates: a lane
    /// holding more than its share of 65,536 records drops them all (long
    /// benchmark runs).
    pub fn new(retain: bool, flush_latency: Duration) -> Self {
        Self::with_watermark(retain, flush_latency, 1 << 16)
    }

    fn with_watermark(retain: bool, flush_latency: Duration, watermark: usize) -> Self {
        let lane_share = (watermark / LANES).max(1);
        let check_at = if retain { usize::MAX } else { lane_share + 1 };
        Wal {
            next_lsn: AtomicU64::new(0),
            flushed_lsn: AtomicU64::new(0),
            sink: std::sync::OnceLock::new(),
            flush_latency,
            base: AtomicU64::new(0),
            lane_share,
            // The lane index is the lockdep order key: a cut takes the lanes
            // in ascending index.
            lanes: std::array::from_fn(|i| {
                let inner = WalInner {
                    frames: Vec::new(),
                    count: 0,
                    check_at,
                };
                Lane(Mutex::new(LockClass::WalInner, i as u64, inner))
            }),
            flush_leader: Mutex::new(LockClass::WalFlushLeader, 0, false),
            flush_cv: Condvar::new(),
            stats: WalStats::default(),
        }
    }

    /// Attach a durability mirror. Set once, before the log is shared with
    /// writers (records appended earlier — e.g. recovery compensations —
    /// are deliberately not mirrored: they are re-derived by re-running
    /// recovery, and only become durable via the post-recovery checkpoint).
    pub(crate) fn set_sink(&self, sink: std::sync::Arc<FileBackend>) {
        let _ = self.sink.set(sink);
    }

    /// Every lane's mutex, taken in ascending index: while the guards live
    /// no append is in flight, so each LSN from `base` to `next_lsn` is in
    /// exactly one lane.
    fn cut(&self) -> [MutexGuard<'_, WalInner>; LANES] {
        std::array::from_fn(|i| self.lanes[i].0.lock())
    }

    /// Advance the LSN space of an *empty* log so it continues where a
    /// pre-crash log left off. Restart recovery calls this before appending
    /// anything, keeping LSNs globally unique across process lifetimes, so
    /// a segment a later incarnation writes sorts after every earlier one.
    pub(crate) fn advance_to(&self, lsn: Lsn) {
        let _cut = self.cut();
        // ordering: Relaxed; `base` is written under a lane mutex, held here
        let base = self.base.load(Ordering::Relaxed);
        assert!(
            self.next_lsn() == base,
            "advance_to is only valid on an empty log"
        );
        if lsn > base {
            // ordering: Release pairs with the Acquire load in next_lsn
            self.next_lsn.store(lsn, Ordering::Release);
            // ordering: Relaxed; read only under a cut
            self.base.store(lsn, Ordering::Relaxed);
        }
    }

    /// Append a record, returning its LSN. The payload is only read: the
    /// undo chain lends its copy, any other caller's is dropped on return.
    pub fn append(&self, tid: TxnId, payload: impl Borrow<LogPayload>) -> Lsn {
        // The one lane while a backend is attached keeps the segment file in
        // LSN order.
        let lane = if self.sink.get().is_some() {
            0
        } else {
            crate::txn::thread_slot()
        };
        self.append_in(lane, tid, payload.borrow())
    }

    fn append_in(&self, lane: usize, tid: TxnId, payload: &LogPayload) -> Lsn {
        self.stats.records.inc();
        self.stats.bytes.add(payload.approx_size());
        BODY.with_borrow_mut(|body| {
            body.clear();
            // The LSN, the body's first eight bytes, is patched in under the mutex.
            codec::put_record_body(body, 0, tid, payload);
            self.append_body(lane, body)
        })
    }

    /// The critical section of an append: reserve the encoded `body`'s LSN,
    /// mirror and retain it, truncate past the lane's share.
    fn append_body(&self, lane: usize, body: &mut [u8]) -> Lsn {
        // Schedule hook: appends order the log against TRT notes; gate
        // *before* taking the lane.
        crate::sched::point("wal.append.rec");
        let mut inner = self.lanes[lane].0.lock();
        // ordering: AcqRel keeps every reservation in the release sequence next_lsn()'s Acquire reads
        let lsn = self.next_lsn.fetch_add(1, Ordering::AcqRel);
        body[..8].copy_from_slice(&lsn.to_le_bytes());
        if let Some(sink) = self.sink.get() {
            sink.wal_append(lsn, body);
        }
        codec::put_bytes(&mut inner.frames, body);
        inner.count += 1;
        if inner.count >= inner.check_at {
            self.truncate(&mut inner, lsn);
        }
        lsn
    }

    /// Drop every record of the lane, `lsn` (its latest) included, and
    /// raise `base` past them: nothing freed per record. The next check
    /// waits for another share of appends.
    #[cold]
    fn truncate(&self, inner: &mut WalInner, lsn: Lsn) {
        inner.frames.clear();
        self.stats.truncated.add(inner.count as u64);
        inner.count = 0;
        // ordering: Relaxed; read only under a cut, which holds this lane
        self.base.fetch_max(lsn + 1, Ordering::Relaxed);
        inner.check_at = self.lane_share + 1;
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
                leader_active = self.flush_cv.wait(leader_active);
                continue;
            }
            // Become the leader. Capture the force target under a cut,
            // before the sleep: every LSN below it is then in the log (and
            // in the segment file), and appends racing with the sleep wait
            // for the next force.
            *leader_active = true;
            drop(leader_active);
            let target = {
                let _cut = self.cut();
                self.next_lsn().saturating_sub(1).max(lsn)
            };
            if let Some(sink) = self.sink.get() {
                // Real durability: the leader's force is an fsync of the
                // active segment, on behalf of every absorbed follower.
                sink.sync();
            }
            if !self.flush_latency.is_zero() {
                // Model the device: the flush costs latency outside any latch.
                lockdep::might_block("wal.flush");
                #[expect(
                    clippy::disallowed_methods,
                    reason = "simulated device latency on the leader's force (DESIGN.md §2)"
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

    /// Next LSN that will be reserved. Every LSN below it is reserved, not
    /// necessarily in the log yet: an appender on another lane may still be
    /// copying its record in. A reader that needs the records takes them
    /// from [`Wal::records_from`], which waits for those appends.
    pub fn next_lsn(&self) -> Lsn {
        // ordering: Acquire pairs with the AcqRel reservations and advance_to's store
        self.next_lsn.load(Ordering::Acquire)
    }

    /// All retained records with `lsn >= from`, gap-free and in LSN order:
    /// each lane's frames are copied out under a cut, then decoded and
    /// merged by LSN after it.
    pub fn records_from(&self, from: Lsn) -> Vec<LogRecord> {
        let mut bytes = Vec::new();
        {
            let cut = self.cut();
            // ordering: Relaxed; `base` is written under a lane mutex, held here
            let from = from.max(self.base.load(Ordering::Relaxed));
            for inner in &cut {
                bytes.extend_from_slice(&inner.frames[inner.prefix_below(from).1..]);
            }
        }
        let mut records = Vec::new();
        let mut r = codec::Reader::new(&bytes, 0);
        while r.remaining() > 0 {
            let body = r.u32().and_then(|len| r.take(len as usize));
            match body.and_then(|body| codec::decode_record_body(body, 0)) {
                Ok(record) => records.push(record),
                Err(e) => unreachable!("the log holds a frame it cannot decode: {e}"),
            }
        }
        // A stable sort finds the lanes' sorted runs and merges them.
        records.sort_by_key(|r| r.lsn);
        records
    }

    /// Records retained and the bytes of their frames (frames a lane holds
    /// below `base` are not counted).
    pub(crate) fn retained(&self) -> (usize, usize) {
        let cut = self.cut();
        // ordering: Relaxed; `base` is written under a lane mutex, held here
        let base = self.base.load(Ordering::Relaxed);
        let bytes = cut
            .iter()
            .map(|inner| inner.frames.len() - inner.prefix_below(base).1)
            .sum();
        ((self.next_lsn() - base) as usize, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PartitionId;

    /// Highest LSN known durable.
    fn flushed(wal: &Wal) -> Lsn {
        wal.flushed_lsn.load(Ordering::Acquire)
    }

    /// Lowest LSN still retained: `retained` counts every LSN from it up to
    /// `next_lsn`.
    fn base_lsn(wal: &Wal) -> Lsn {
        wal.next_lsn() - wal.retained().0 as Lsn
    }

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
        assert_eq!(flushed(&wal), 0);
        wal.flush(lsn);
        assert_eq!(flushed(&wal), lsn);
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
            assert!(flushed(&wal) >= lsn);
            assert_eq!(wal.stats.flushes.get(), round);
            wal.flush(lsn);
            wal.flush(lsn.saturating_sub(1));
            assert_eq!(wal.stats.flushes.get(), round, "already durable");
        }
        assert_eq!(wal.stats.flush_us.max_us(), 0, "nothing timed");
        assert_eq!(wal.stats.group_commits.get(), 0);
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
            LogPayload::Begin {
                reorg: Some(partition),
            },
            LogPayload::Commit,
            LogPayload::Abort,
            LogPayload::Create {
                addr: a(0),
                image: image.clone(),
            },
            LogPayload::Free { addr: a(0), image },
            LogPayload::SetPayload {
                addr: a(8),
                old: vec![],
                new: vec![0xEE; 300],
            },
            LogPayload::InsertRef {
                parent: a(8),
                child: a(16),
                index: 1,
            },
            LogPayload::DeleteRef {
                parent: a(8),
                child: a(16),
                index: 1,
            },
            LogPayload::SetRef {
                parent: a(8),
                index: 0,
                old_child: a(16),
                new_child: a(24),
            },
            LogPayload::ReorgStart {
                partition,
                floor: 7,
            },
            LogPayload::ReorgEnd { partition, base: 5 },
            rec(),
            LogPayload::Checkpoint { id: 9 },
            LogPayload::CreatePartition { id: partition },
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

    /// A lane past its share drops every record it holds, the latest
    /// included, and the base moves past them.
    #[test]
    fn truncation_drops_the_lane_and_raises_the_base() {
        let wal = Wal::with_watermark(false, Duration::ZERO, 3 * LANES);
        let mut logged = Vec::new();
        for _ in 0..3 {
            let lsn = wal.append_in(0, TxnId(1), &rec());
            logged.push(LogRecord {
                lsn,
                tid: TxnId(1),
                payload: rec(),
            });
        }
        assert_eq!(wal.records_from(0), logged, "under the share nothing goes");
        let lsn = wal.append_in(0, TxnId(1), &rec());
        assert_eq!(wal.retained(), (0, 0));
        assert_eq!(base_lsn(&wal), lsn + 1);
        assert_eq!(wal.stats.truncated.get(), lsn + 1, "counted in records");
        assert!(wal.records_from(0).is_empty());
        // And the log carries on from there.
        let lsn = wal.append_in(0, TxnId(1), &rec());
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
                        wal.append(
                            TxnId(t),
                            &LogPayload::SetPayload {
                                addr: PhysAddr::from_raw(t),
                                old: vec![],
                                new,
                            },
                        );
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
                assert_eq!(
                    own.next().map(|r| &r.payload),
                    Some(&LogPayload::Checkpoint { id })
                );
                assert!(matches!(
                    own.next().map(|r| &r.payload),
                    Some(LogPayload::SetPayload { new, .. }) if new.len() == i % 97
                ));
            }
            assert!(own.next().is_none());
        }
    }

    /// Four appenders on four lanes and a reader cutting the log while
    /// they run: every read is in LSN order and gap-free from the base, and
    /// holds each thread's records in the order it appended them.
    #[test]
    fn a_cut_is_gap_free_while_four_lanes_append() {
        let wal = Wal::new(true, Duration::ZERO);
        let running = std::sync::atomic::AtomicUsize::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (wal, running) = (&wal, &running);
                s.spawn(move || {
                    for i in 0..2000 {
                        wal.append_in(t as usize, TxnId(t), &LogPayload::Checkpoint { id: i });
                    }
                    running.fetch_sub(1, Ordering::Relaxed);
                });
            }
            let mut reads = 0;
            while running.load(Ordering::Relaxed) > 0 || reads == 0 {
                let logged = wal.records_from(0);
                assert!(
                    logged.iter().enumerate().all(|(i, r)| r.lsn == i as Lsn),
                    "gap-free from base 0"
                );
                for t in 0..4 {
                    let ids = logged
                        .iter()
                        .filter(|r| r.tid == TxnId(t))
                        .map(|r| &r.payload);
                    assert!(ids
                        .enumerate()
                        .all(|(i, p)| *p == LogPayload::Checkpoint { id: i as u64 }));
                }
                reads += 1;
            }
        });
        assert_eq!(wal.records_from(0).len(), 4 * 2000);
        assert_eq!(wal.retained().0, 4 * 2000);
    }

    /// Two lanes under a watermark of two records each: whichever lane
    /// truncates, `retained` counts exactly the LSNs from the base up, and
    /// what is left is gap-free from there.
    #[test]
    fn lane_local_truncation_keeps_the_log_gap_free() {
        let wal = Wal::with_watermark(false, Duration::ZERO, 2 * LANES);
        let agree = |wal: &Wal| {
            let logged = wal.records_from(0);
            let base = base_lsn(wal);
            assert!(
                logged.iter().zip(base..).all(|(r, lsn)| r.lsn == lsn),
                "gap-free from {base}"
            );
            assert_eq!(base + logged.len() as Lsn, wal.next_lsn());
            let bytes = logged.iter().map(|r| {
                let mut body = Vec::new();
                codec::put_record_body(&mut body, r.lsn, r.tid, &r.payload);
                4 + body.len()
            });
            assert_eq!(wal.retained(), (logged.len(), bytes.sum()));
            base
        };
        // Interleaved on one thread: lane 1's truncation raises the base
        // past lane 0's frames, which readers then skip.
        for i in 0..3 {
            wal.append_in(i % 2, TxnId(i as u64), &rec());
        }
        assert_eq!(agree(&wal), 0);
        wal.append_in(1, TxnId(1), &rec());
        wal.append_in(1, TxnId(1), &rec());
        assert_eq!(agree(&wal), 5, "lane 1 dropped all, itself included");
        // Concurrent: two lanes truncate past their share over and over,
        // and the base only moves up.
        std::thread::scope(|s| {
            for lane in 0..2 {
                let wal = &wal;
                s.spawn(move || {
                    for i in 0..500 {
                        wal.append_in(lane, TxnId(lane as u64), &LogPayload::Checkpoint { id: i });
                    }
                });
            }
        });
        assert!(agree(&wal) >= 5);
        assert!(wal.stats.truncated.get() >= 500, "both lanes truncated");
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
        assert!(flushed(&wal) >= *lsns.last().unwrap());
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
        assert_eq!(base_lsn(&wal), 0);
        assert_eq!(wal.retained().0, 100);
    }
}
