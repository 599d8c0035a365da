//! # IRA — the Incremental Reorganization Algorithm
//!
//! This crate implements the contribution of *On-line Reorganization in
//! Object Databases* (Lakhamraju, Rastogi, Seshadri, Sudarshan; SIGMOD
//! 2000) on the `brahma` storage substrate:
//!
//! * [`Reorg`] — the unified entry point. Its default strategy is the IRA
//!   of Section 3: a fuzzy, latch-only traversal finds the partition's
//!   live objects and their approximate parents; then, object by object,
//!   the parent set is made exact (with the Temporary Reference Table
//!   catching concurrent pointer inserts and deletes) and the object is
//!   migrated inside a transaction holding locks only on its parents.
//! * Extensions: relaxed strict-2PL (Section 4.1, `relaxed`), the
//!   two-lock variant holding at most two locks at any time (Section 4.2,
//!   `two_lock`), migration batching (Section 4.3, [`Reorg::batch`]),
//!   restart from the page floor after a failure (Section 4.4: a crashed
//!   pass stays open, and the next [`Reorg::run`] moves only what still
//!   lies below its floor), copying garbage collection as a side effect of evacuating into a fresh
//!   partition (Section 4.6, `gc`), and clustering by a migration order
//!   derived from observed traffic ([`StatsGreedy`]).
//! * The baseline: **PQR**, the Partition Quiesce Reorganization of the
//!   paper's performance study (Section 5.1, `pqr`), reachable through
//!   [`Reorg::strategy`]. It locks the partition's external parents, then
//!   runs the quiescent reorganizer of Section 3.1; on an idle store the
//!   locks are uncontended.
//!
//! ## Quick tour
//!
//! ```
//! use brahma::{Database, NewObject, StoreConfig};
//! use ira::{RelocationPlan, Reorg};
//!
//! let db = Database::new(StoreConfig::default());
//! let p0 = db.create_partition();
//! let p1 = db.create_partition();
//! let mut txn = db.begin();
//! let child = txn.create_object(p1, NewObject::exact(0, vec![], b"c".to_vec())).unwrap();
//! let parent = txn.create_object(p0, NewObject::exact(0, vec![child], vec![])).unwrap();
//! txn.commit().unwrap();
//!
//! // Migrate every live object of p1, on-line.
//! let outcome = Reorg::on(&db, p1)
//!     .plan(RelocationPlan::CompactInPlace)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.migrated(), 1);
//! let new_child = outcome.mapping[&child];
//! // The parent's physical reference was rewritten.
//! assert_eq!(db.raw_read(parent).unwrap().refs, vec![new_child]);
//! ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
//! ```
//!
//! Everything is a knob on the same builder: `.variant(IraVariant::TwoLock)`
//! for the two-lock extension, `.batch(32)` for Section 4.3's batching,
//! `.plan(RelocationPlan::EvacuateTo(db.create_partition()))` to collect
//! garbage, `.order(StatsGreedy::new(&edges).plan(&db, p))` to cluster,
//! `.strategy(Strategy::PartitionQuiesce)` for the PQR baseline. After a
//! crash, the same `Reorg::on(&db, p).run()` restarts an interrupted pass.

pub mod approx;
mod builder;
pub mod driver;
mod exact;
mod gc;
mod migrate;
mod order;
mod plan;
mod policy;
mod pqr;
mod relaxed;
pub mod site;
mod traversal;
mod two_lock;
pub mod verify;

pub use builder::{Reorg, ReorgOutcome, ReorgReport, Strategy};
pub use driver::{IraError, IraReport, IraVariant};
pub use gc::find_garbage;
pub use order::MigrationOrder;
pub use plan::RelocationPlan;
pub use policy::{EdgeCount, StatsGreedy};
pub use pqr::PqrReport;
pub use traversal::TraversalState;
