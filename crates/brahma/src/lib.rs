//! # Brahma-style object storage manager
//!
//! A from-scratch, in-memory object storage manager modelled on *Brahmā*,
//! the storage manager on which the SIGMOD 2000 paper "On-line
//! Reorganization in Object Databases" (Lakhamraju, Rastogi, Seshadri,
//! Sudarshan) implemented and evaluated the IRA algorithm. It provides the
//! complete Section 2 system model:
//!
//! * a partitioned object store with **physical references** — a stored
//!   reference is the referenced object's actual location
//!   ([`addr::PhysAddr`]), so migrating an object requires every parent's
//!   reference to be rewritten;
//! * per-page **latches** for physical consistency (the fuzzy traversal's
//!   only synchronization) and a strict-2PL **lock manager** with S/X modes,
//!   upgrades, timeout-based deadlock resolution, and ever-held tracking for
//!   the paper's relaxed-2PL extension;
//! * **WAL** with undo-before-update, commit-time log force, and ARIES-style
//!   restart recovery that reopens an interrupted reorganization's pass at
//!   its page floor;
//! * the per-partition **External Reference Table** ([`Ert`]) and the
//!   per-reorganization **Temporary Reference Table** ([`Trt`]), both hash
//!   maps keyed by physical address.
//!
//! The reorganization algorithms themselves (IRA and the baselines) live in
//! the companion `ira` crate; this crate is the substrate.
//!
//! ## Quick tour
//!
//! ```
//! use brahma::{Database, StoreConfig, NewObject, LockMode, PartitionId};
//!
//! let db = Database::new(StoreConfig::default());
//! let p0 = db.create_partition();
//! let p1 = db.create_partition();
//!
//! // Create a child in partition 1 and a parent in partition 0.
//! let mut txn = db.begin();
//! let child = txn.create_object(p1, NewObject::exact(0, vec![], b"leaf".to_vec())).unwrap();
//! let parent = txn.create_object(p0, NewObject::exact(0, vec![child], vec![])).unwrap();
//! txn.commit().unwrap();
//!
//! // The cross-partition reference is tracked in partition 1's ERT.
//! assert!(db.partition(p1).unwrap().ert.contains(child, parent));
//!
//! // Reads require a lock; physical page access happens under latches.
//! let mut txn = db.begin();
//! txn.lock(parent, LockMode::Shared).unwrap();
//! assert_eq!(txn.read_refs(parent).unwrap(), vec![child]);
//! txn.commit().unwrap();
//! ```

mod addr;
mod config;
mod db;
mod error;
mod ert;
pub mod fault;
mod handle;
mod lock;
pub mod lockdep;
pub mod object;
mod page;
mod partition;
mod recovery;
mod retry;
pub mod sched;
pub mod storage;
pub mod sweep;
mod trt;
pub mod txn;
pub mod wal;

pub use addr::{AddrMap, AddrSet, PartitionId, PhysAddr};
pub use config::{StoreConfig, PAGE_SIZE};
pub use db::{CpuCharge, Database, DbStats};
pub use error::{Error, Result};
pub use ert::Ert;
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultRule, InjectedKind};
pub use handle::{NewObject, Txn};
pub use lock::{LockManager, LockMode};
pub use object::ObjectView;
pub use partition::{Partition, SpaceStats};
pub use recovery::Checkpoint;
pub use retry::{RetryPolicy, RetryState, RetryStats};
pub use sched::SeedTree;
pub use storage::{open, open_with_faults, FileBackend, OpenOutcome};
pub use trt::{RefAction, Trt, TrtTuple};
pub use txn::{TxnId, TxnManager};
pub use wal::{LogPayload, LogRecord, Lsn, Wal};
