//! Fault sites at the IRA phase boundaries, extending
//! [`brahma::fault::site`] (DESIGN.md §9.1).

/// Step one (fuzzy traversal + ERT merge) just completed.
pub const TRAVERSAL: &str = "ira.traversal";
/// `Find_Exact_Parents` is about to run for one object.
pub const EXACT_PARENTS: &str = "ira.exact_parents";
/// A migration batch transaction is about to commit.
pub const MIGRATE_COMMIT: &str = "ira.migrate_commit";
/// A migration batch just committed (batch boundary).
pub const BATCH: &str = "ira.batch";
/// A resumable checkpoint is being written.
pub const CHECKPOINT: &str = "ira.checkpoint";

/// Every IRA-level site, for sweep construction.
pub const ALL: &[&str] = &[TRAVERSAL, EXACT_PARENTS, MIGRATE_COMMIT, BATCH, CHECKPOINT];
