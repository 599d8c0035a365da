//! Error types for the storage manager.

use crate::addr::PhysAddr;
use crate::txn::TxnId;
use std::fmt;

/// Errors surfaced by the storage manager.
///
/// The storage manager follows the paper's Brahma in resolving deadlocks with
/// a lock timeout (one second in the paper's experiments): a transaction whose
/// lock request times out receives [`Error::LockTimeout`] and is expected to
/// abort (workload transactions) or release and retry (the reorganizer's
/// `Find_Exact_Parents`, per Section 4.4 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A lock request waited longer than the configured timeout.
    LockTimeout { addr: PhysAddr, by: TxnId },
    /// Two shared holders both requested an upgrade to exclusive: neither
    /// can ever be granted (each waits for the other to release), so the
    /// later requester fails immediately instead of stalling until the
    /// lock timeout. Retryable exactly like [`Error::LockTimeout`]: abort
    /// or release and re-request.
    UpgradeConflict {
        addr: PhysAddr,
        by: TxnId,
        with: TxnId,
    },
    /// The address does not name a live object (freed, never allocated, or
    /// pointing into the middle of an object).
    NoSuchObject(PhysAddr),
    /// The partition id does not name an existing partition.
    NoSuchPartition(u16),
    /// The object's inline reference array is at capacity; the object must be
    /// re-created (migrated) with more slack to accept another reference.
    RefCapacityExceeded(PhysAddr),
    /// The payload does not fit the object's reserved payload capacity.
    PayloadCapacityExceeded(PhysAddr),
    /// The requested reference is not present in the object.
    NoSuchRef { parent: PhysAddr, child: PhysAddr },
    /// A reference index was out of bounds.
    RefIndexOutOfBounds { addr: PhysAddr, index: usize },
    /// The object would not fit in a page even when empty.
    ObjectTooLarge { bytes: usize },
    /// The partition has no free space and cannot grow further.
    PartitionFull(u16),
    /// The operation requires a lock that the transaction does not hold.
    LockNotHeld { addr: PhysAddr, by: TxnId },
    /// The transaction has already committed or aborted.
    TxnNotActive(TxnId),
    /// A workload transaction tried to create or delete an object in a
    /// partition that is being reorganized.
    ///
    /// The paper assumes (Section 2) that objects are not created in the
    /// partition under reorganization once the reorganizer starts; the store
    /// enforces the assumption so the algorithms' preconditions hold, and
    /// extends it to deletion so that the reorganizer is the partition's
    /// only allocator while it runs.
    PartitionUnderReorg(u16),
    /// Restart recovery found the log inconsistent with the checkpoint.
    RecoveryCorrupt(String),
    /// On-disk bytes failed validation while being decoded: a CRC mismatch,
    /// an impossible length prefix, a bad magic/version, or a field that
    /// decodes to a structurally invalid value. `offset` is the byte offset
    /// within the file or buffer being decoded. Never retryable — the bytes
    /// will not get better — and never a panic: recovery degrades to this
    /// error and leaves the store closed.
    Corrupt { offset: u64, reason: String },
    /// A fault-injection rule fired at the named site (testing only; never
    /// produced by a disarmed [`crate::fault::FaultInjector`]). Retryable
    /// injected faults are handled exactly like [`Error::LockTimeout`].
    Injected {
        site: &'static str,
        kind: crate::fault::InjectedKind,
    },
}

impl Error {
    /// Whether this error is a transient conflict the caller should resolve
    /// by releasing its locks, backing off, and retrying: a lock timeout,
    /// an upgrade conflict, or a retryable injected fault.
    pub fn is_retryable_conflict(&self) -> bool {
        matches!(
            self,
            Error::LockTimeout { .. }
                | Error::UpgradeConflict { .. }
                | Error::Injected {
                    kind: crate::fault::InjectedKind::Retryable,
                    ..
                }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LockTimeout { addr, by } => {
                write!(f, "lock request on {addr} by {by} timed out")
            }
            Error::UpgradeConflict { addr, by, with } => {
                write!(
                    f,
                    "upgrade of {addr} by {by} conflicts with pending upgrade by {with}"
                )
            }
            Error::NoSuchObject(a) => write!(f, "no live object at {a}"),
            Error::NoSuchPartition(p) => write!(f, "no such partition {p}"),
            Error::RefCapacityExceeded(a) => {
                write!(f, "reference capacity exceeded in object {a}")
            }
            Error::PayloadCapacityExceeded(a) => {
                write!(f, "payload capacity exceeded in object {a}")
            }
            Error::NoSuchRef { parent, child } => {
                write!(f, "object {parent} holds no reference to {child}")
            }
            Error::RefIndexOutOfBounds { addr, index } => {
                write!(f, "reference index {index} out of bounds in {addr}")
            }
            Error::ObjectTooLarge { bytes } => {
                write!(f, "object of {bytes} bytes does not fit in a page")
            }
            Error::PartitionFull(p) => write!(f, "partition {p} is full"),
            Error::LockNotHeld { addr, by } => {
                write!(f, "transaction {by} does not hold a lock on {addr}")
            }
            Error::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            Error::PartitionUnderReorg(p) => {
                write!(
                    f,
                    "partition {p} is being reorganized; creation and deletion disallowed"
                )
            }
            Error::RecoveryCorrupt(msg) => write!(f, "recovery failed: {msg}"),
            Error::Corrupt { offset, reason } => {
                write!(f, "corrupt bytes at offset {offset}: {reason}")
            }
            Error::Injected { site, kind } => {
                write!(f, "injected {kind:?} fault at site {site}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
