//! Write-ahead logging.
//!
//! Transactions follow the WAL protocol of Section 2: the undo value is
//! logged before an update is performed, and the redo value is logged before
//! the lock on the updated object is released. Every log record carries both,
//! so restart recovery replays committed work forward from a checkpoint and
//! rolls losers back (see `recovery`).
//!
//! The log is its segment files (DESIGN.md §10.3): in memory an append
//! reserves an LSN and counts the record, and forcing the tail at commit is
//! simulated with a configurable latency so the CPU/I-O overlap the paper
//! observes at commit time exists here too. With a
//! [`crate::storage::FileBackend`] attached, every append is encoded and
//! written to the active segment under the backend's mutex, so the file is
//! in LSN order, and the force is a real `fsync`.
//!
//! Undo of an aborting transaction logs compensation records through the
//! same record types ([`LogPayload::inverse`]), so a *linear* scan of the log
//! reproduces every state transition without special cases.

use crate::addr::{PartitionId, PhysAddr};
use crate::lockdep::{self, Condvar, LockClass, Mutex};
use crate::object::ObjectView;
use crate::storage::FileBackend;
use crate::trt::RefAction;
use crate::txn::TxnId;
use obs::{Counter, Histogram};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Log sequence number. Strictly increasing, never reused.
pub type Lsn = u64;

/// The operation a log record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction start.
    Begin,
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
    /// The object at `old` now lives at `new`: a root that named `old`
    /// names `new`.
    Migrate { old: PhysAddr, new: PhysAddr },
    /// A new (empty) partition was created. Logged so restart recovery can
    /// re-create partitions added after the last checkpoint (the copying
    /// collector evacuates into fresh partitions mid-run).
    CreatePartition { id: PartitionId },
    /// The whole move of one object: `old`'s bytes are copied to the slot
    /// at `new`, `old` is freed, and a root that named `old` names `new`.
    /// The record holds no image: REDO finds `old`'s bytes on its page at
    /// this LSN (repeating history), and no slot is reused before the
    /// transaction that freed it commits, so UNDO finds `old`'s slot free.
    Move { old: PhysAddr, new: PhysAddr },
}

impl LogPayload {
    /// Approximate serialized footprint in bytes: a fixed header plus the
    /// variable parts (images, payload copies). Feeds the `wal.bytes`
    /// counter so log volume per experiment is visible without a real wire
    /// format.
    pub(crate) fn approx_size(&self) -> u64 {
        const HEADER: u64 = 24; // lsn + tid + discriminant
        let body = match self {
            LogPayload::Begin
            | LogPayload::Commit
            | LogPayload::Abort
            | LogPayload::ReorgStart { .. }
            | LogPayload::ReorgEnd { .. }
            | LogPayload::CreatePartition { .. } => 8,
            LogPayload::Create { image, .. } | LogPayload::Free { image, .. } => {
                8 + (image.refs.len() * 8 + image.payload.len()) as u64
            }
            LogPayload::SetPayload { old, new, .. } => 8 + (old.len() + new.len()) as u64,
            LogPayload::InsertRef { .. } | LogPayload::DeleteRef { .. } => 24,
            LogPayload::SetRef { .. } => 32,
            LogPayload::Migrate { .. } | LogPayload::Move { .. } => 16,
        };
        HEADER + body
    }

    /// The update that undoes this one, logged as its compensation record:
    /// `Create`↔`Free`, `InsertRef`↔`DeleteRef`, `SetRef`/`SetPayload`/
    /// `Migrate`/`Move` with old and new swapped. `None` for records that
    /// are not updates.
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
            LogPayload::Migrate { old, new } => LogPayload::Migrate { old: new, new: old },
            LogPayload::Move { old, new } => LogPayload::Move { old: new, new: old },
            _ => return None,
        })
    }

    /// Call `f(action, parent, child)` for every reference this update
    /// inserts or deletes, in the order the TRT must learn of them: an
    /// overwrite is the delete of the old reference, then the insert of the
    /// new one; an object's creation inserts (its freeing deletes) each
    /// stored reference. A re-inserted reference — the compensation of a
    /// delete — is an insert like any other (Section 4.5). A `Move` names
    /// no reference: its changes are `old`'s references, which only the
    /// page holds (`Txn::apply` reads them there).
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

/// Counters on the logging path. Lock-free: an in-memory append is two
/// relaxed counter increments and its LSN's `fetch_add`.
#[derive(Debug, Default)]
pub(crate) struct WalStats {
    /// Records appended.
    pub records: Counter,
    /// Approximate bytes appended (see [`LogPayload::approx_size`]).
    pub bytes: Counter,
    /// Flush calls that actually forced the log (not already-durable
    /// no-ops). Commits that updated something force the log, so this
    /// tracks their flushes.
    pub flushes: Counter,
    /// Flush requests absorbed by another caller's force: the caller waited
    /// on an in-flight group leader instead of paying its own device sleep.
    pub group_commits: Counter,
    /// Latency of each forcing flush, microseconds.
    pub flush_us: Histogram,
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
    }
}

/// The write-ahead log: an LSN counter, its statistics and the group-commit
/// force. It holds no record: with a [`FileBackend`] attached every record
/// is written to a segment file, and without one it goes nowhere.
///
/// `next_lsn` is the one word two in-memory appenders both write (DESIGN.md
/// §10.3).
/// `repr(C)`: declared order is layout order, which keeps `next_lsn`,
/// `flushed_lsn` and the read-mostly fields an append or a commit reads on
/// the struct's first cache line (asserted below).
#[repr(C)]
pub struct Wal {
    /// Next LSN to reserve. With a backend attached it is reserved under the
    /// backend's segment-writer mutex, so every LSN below it is in the file.
    next_lsn: AtomicU64,
    flushed_lsn: AtomicU64,
    /// The segment files (DESIGN.md §14). When set, an append writes its
    /// record there and the leader's force is a real fsync. `None` for the
    /// default in-memory simulator.
    sink: std::sync::OnceLock<std::sync::Arc<FileBackend>>,
    flush_latency: Duration,
    /// Group-commit election: true while a leader is inside the simulated
    /// device sleep. Followers wait on `flush_cv` instead of sleeping.
    flush_leader: Mutex<bool>,
    flush_cv: Condvar,
    /// Logging-path counters.
    pub(crate) stats: WalStats,
}

const _: () = assert!(std::mem::offset_of!(Wal, flush_latency) + 16 <= 64);

impl Wal {
    /// Create a log. `_retain` is accepted and ignored: the log keeps no
    /// record to retain. The flag survives only because `benchmark/` passes
    /// it; ROADMAP item 1 removes it.
    pub fn new(_retain: bool, flush_latency: Duration) -> Self {
        Wal {
            next_lsn: AtomicU64::new(0),
            flushed_lsn: AtomicU64::new(0),
            sink: std::sync::OnceLock::new(),
            flush_latency,
            flush_leader: Mutex::new(LockClass::WalFlushLeader, 0, false),
            flush_cv: Condvar::new(),
            stats: WalStats::default(),
        }
    }

    /// Attach the segment files. Set once, when the store is opened, before
    /// the log is shared with writers: every later append is written there.
    pub(crate) fn set_sink(&self, sink: std::sync::Arc<FileBackend>) {
        let _ = self.sink.set(sink);
    }

    /// Advance the LSN space of a fresh log so it continues where a
    /// pre-crash log left off. Restart recovery calls this before anything
    /// is appended, keeping LSNs globally unique across process lifetimes,
    /// so a segment a later incarnation writes sorts after every earlier one.
    pub(crate) fn advance_to(&self, lsn: Lsn) {
        assert_eq!(
            self.next_lsn(),
            0,
            "advance_to is only valid on a fresh log"
        );
        // ordering: Release pairs with the Acquire load in next_lsn
        self.next_lsn.store(lsn, Ordering::Release);
    }

    /// Append a record, returning its LSN. The payload is only read: the
    /// undo chain lends its copy, any other caller's is dropped on return.
    /// In memory the record is counted and its LSN reserved, nothing more;
    /// with a backend attached it is also encoded and written to the active
    /// segment, in LSN order (`FileBackend::wal_append`).
    pub fn append(&self, tid: TxnId, payload: impl Borrow<LogPayload>) -> Lsn {
        let payload = payload.borrow();
        self.stats.records.inc();
        self.stats.bytes.add(payload.approx_size());
        // Schedule hook: appends order the log against TRT notes.
        crate::sched::point("wal.append.rec");
        match self.sink.get() {
            Some(sink) => sink.wal_append(&self.next_lsn, tid, payload),
            // ordering: AcqRel keeps every reservation in the release sequence next_lsn()'s Acquire reads
            None => self.next_lsn.fetch_add(1, Ordering::AcqRel),
        }
    }

    /// Force the log up to `lsn`, simulating the device latency.
    ///
    /// Group commit: concurrent callers elect one *leader* that pays a
    /// single device sleep covering everything appended up to the moment
    /// the force starts; the others wait on a condvar and return once the
    /// leader's force makes their LSN durable (`group_commits` counts such
    /// absorbed requests). Any caller sleeps at most ~2 latencies (a force
    /// already in flight when it arrives, plus the force it may then lead).
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
            // Become the leader. The force target is fixed before the
            // sleep; appends racing with the sleep wait for the next force.
            *leader_active = true;
            drop(leader_active);
            let target = match self.sink.get() {
                // Real durability: an fsync of the active segment, on behalf
                // of every absorbed follower, up to the last LSN it holds.
                Some(sink) => sink.sync(&self.next_lsn),
                None => self.next_lsn().saturating_sub(1),
            }
            .max(lsn);
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

    /// Next LSN that will be reserved.
    pub fn next_lsn(&self) -> Lsn {
        // ordering: Acquire pairs with the AcqRel reservations and advance_to's store
        self.next_lsn.load(Ordering::Acquire)
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

    fn rec() -> LogPayload {
        LogPayload::Migrate {
            old: PhysAddr::new(PartitionId(0), 0, 0),
            new: PhysAddr::new(PartitionId(0), 0, 64),
        }
    }

    #[test]
    fn lsns_are_sequential() {
        let wal = Wal::new(true, Duration::ZERO);
        assert_eq!(wal.append(TxnId(1), LogPayload::Begin), 0);
        assert_eq!(wal.append(TxnId(1), rec()), 1);
        assert_eq!(wal.append(TxnId(1), LogPayload::Commit), 2);
        assert_eq!(wal.next_lsn(), 3);
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
            wal.append(TxnId(1), LogPayload::Begin);
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

    /// Four threads appending at once reserve every LSN exactly once.
    #[test]
    fn concurrent_appends_reserve_every_lsn_once() {
        let wal = Wal::new(true, Duration::ZERO);
        let mut lsns: Vec<Lsn> = std::thread::scope(|s| {
            let appenders: Vec<_> = (0..4u64)
                .map(|t| {
                    let wal = &wal;
                    s.spawn(move || {
                        (0..500)
                            .map(|_| wal.append(TxnId(t), rec()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            appenders
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        lsns.sort_unstable();
        assert!(lsns.iter().copied().eq(0..2000));
        assert_eq!(wal.next_lsn(), 2000);
        assert_eq!(wal.stats.records.get(), 2000);
    }

    #[test]
    fn stats_track_appends_and_flushes() {
        let wal = Wal::new(true, Duration::from_millis(2));
        wal.append(TxnId(1), LogPayload::Begin);
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
}
