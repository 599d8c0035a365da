//! The unified reorganization entry point: one fluent builder over every
//! algorithm the crate implements.
//!
//! The paper describes a family of reorganizers — quiescent (Section 3.1),
//! PQR (Section 5.1), IRA basic (Section 3.5), IRA two-lock (Section 4.2),
//! and checkpoint-resume (Section 4.4). Historically each had its own free
//! function with its own config struct; [`Reorg`] folds them behind one
//! surface:
//!
//! ```text
//! Reorg::on(&db, partition)
//!     .plan(RelocationPlan::EvacuateTo(target))
//!     .variant(IraVariant::TwoLock)
//!     .batch(8)
//!     .run()?
//! ```
//!
//! [`Reorg::run`] is the one dispatch point: a `match` on the resume
//! checkpoint and the [`Strategy`] calls the crate-internal entry point of
//! the chosen algorithm.

use crate::checkpoint::IraCheckpoint;
use crate::driver::{IraConfig, IraError, IraReport, IraVariant};
use crate::order::MigrationOrder;
use crate::plan::RelocationPlan;
use crate::pqr::PqrReport;
use brahma::{AddrMap, Database, LogRecord, PartitionId, PhysAddr, RetryPolicy};
use std::time::{Duration, Instant};

/// Which algorithm family a [`Reorg`] run uses. The IRA variant (basic vs
/// two-lock) is a separate axis, set with [`Reorg::variant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// On-line IRA (the paper's contribution): fuzzy traversal, exact
    /// parents per object, migration transactions concurrent with the
    /// workload.
    #[default]
    Incremental,
    /// The PQR baseline: lock every external parent to quiesce the
    /// partition, then reorganize it in one transaction.
    PartitionQuiesce,
    /// The quiescent algorithm run in a single transaction; the caller
    /// guarantees the database is otherwise idle.
    Offline,
}

/// The algorithm-specific report of a finished reorganization: one enum
/// instead of two optional fields, so callers match a single value (or use
/// the [`ReorgOutcome::ira`] / [`ReorgOutcome::pqr`] accessors).
#[derive(Debug)]
pub enum ReorgReport {
    /// An incremental (or resumed) run's full report.
    Ira(IraReport),
    /// The partition-quiesce baseline's report.
    Pqr(PqrReport),
}

impl ReorgReport {
    /// Export the report's counters into `snap` (`ira.*` or `pqr.*` keys).
    pub fn export(&self, snap: &mut obs::Snapshot) {
        match self {
            ReorgReport::Ira(r) => r.export(snap),
            ReorgReport::Pqr(r) => r.export(snap),
        }
    }
}

/// What a reorganization produced, regardless of algorithm.
#[derive(Debug)]
pub struct ReorgOutcome {
    pub partition: PartitionId,
    /// Old address -> new address for every migrated object.
    pub mapping: AddrMap<PhysAddr>,
    pub duration: Duration,
    /// The algorithm-specific report, when the algorithm produces one
    /// (the offline reorganizer reports nothing beyond the mapping).
    pub report: Option<ReorgReport>,
}

impl ReorgOutcome {
    pub fn migrated(&self) -> usize {
        self.mapping.len()
    }

    /// The IRA report, when an incremental (or resumed) run produced one.
    pub fn ira(&self) -> Option<&IraReport> {
        match &self.report {
            Some(ReorgReport::Ira(r)) => Some(r),
            _ => None,
        }
    }

    /// The PQR report, when the partition-quiesce baseline ran.
    pub fn pqr(&self) -> Option<&PqrReport> {
        match &self.report {
            Some(ReorgReport::Pqr(r)) => Some(r),
            _ => None,
        }
    }
}

/// Fluent builder over every reorganization algorithm in the crate.
///
/// ```
/// use brahma::{Database, NewObject, StoreConfig};
/// use ira::{RelocationPlan, Reorg};
///
/// let db = Database::new(StoreConfig::default());
/// let p0 = db.create_partition();
/// let p1 = db.create_partition();
/// let mut txn = db.begin();
/// let child = txn.create_object(p1, NewObject::exact(0, vec![], b"c".to_vec())).unwrap();
/// let parent = txn.create_object(p0, NewObject::exact(0, vec![child], vec![])).unwrap();
/// txn.commit().unwrap();
///
/// let outcome = Reorg::on(&db, p1)
///     .plan(RelocationPlan::CompactInPlace)
///     .run()
///     .unwrap();
/// assert_eq!(outcome.migrated(), 1);
/// assert_eq!(db.raw_read(parent).unwrap().refs, vec![outcome.mapping[&child]]);
/// ```
pub struct Reorg<'a> {
    db: &'a Database,
    partition: PartitionId,
    plan: RelocationPlan,
    strategy: Strategy,
    config: IraConfig,
    resume: Option<(IraCheckpoint, Vec<LogRecord>)>,
}

impl<'a> Reorg<'a> {
    /// Start describing a reorganization of `partition`. The default run is
    /// incremental (basic IRA), compacting in place, one object per batch.
    pub fn on(db: &'a Database, partition: PartitionId) -> Self {
        Reorg {
            db,
            partition,
            plan: RelocationPlan::CompactInPlace,
            strategy: Strategy::default(),
            config: IraConfig::default(),
            resume: None,
        }
    }

    /// [`Reorg::on`] with every IRA knob taken from `config` at once — for
    /// callers that carry a whole [`IraConfig`] (a bench cell).
    pub fn with_config(db: &'a Database, partition: PartitionId, config: IraConfig) -> Self {
        Reorg {
            config,
            ..Reorg::on(db, partition)
        }
    }

    /// Where migrated objects go: compact in place, or evacuate to another
    /// partition — into a fresh one, that is the copying collector of
    /// Section 4.6 ([`crate::gc`]).
    pub fn plan(mut self, plan: RelocationPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Which algorithm family runs (incremental IRA, the PQR baseline, or
    /// the offline quiescent reorganizer).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Basic vs two-lock IRA (only meaningful for
    /// [`Strategy::Incremental`]).
    pub fn variant(mut self, variant: IraVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Accepted and ignored: every run is one migrator on the calling
    /// thread ([`Reorg::batch`] is the throughput knob). The method
    /// survives only because `benchmark/` calls it; ROADMAP item 1 removes
    /// it.
    pub fn workers(self, _: usize) -> Self {
        self
    }

    /// Migrations grouped into one transaction (Section 4.3).
    pub fn batch(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size.max(1);
        self
    }

    /// Backoff for retryable conflicts (Section 4.4's release-and-retry).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Migration order (Section 7 future work), e.g. the clustering order
    /// [`crate::StatsGreedy::plan`] derives from observed traffic.
    pub fn order(mut self, order: MigrationOrder) -> Self {
        self.config.order = order;
        self
    }

    /// Rewrite each object as it migrates (the schema-evolution use case).
    pub fn transform(mut self, f: fn(brahma::ObjectView) -> brahma::ObjectView) -> Self {
        self.config.transform = Some(f);
        self
    }

    /// Save a resumable reorganizer checkpoint every `n` batches (Section
    /// 4.4). With a file backend attached the save is durable, bounding how
    /// far a hard kill sets the reorganization back. Defaults to off
    /// (checkpoint only at crash).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.config.checkpoint_every = Some(n);
        self
    }

    /// How long to wait for transactions active when the run starts.
    pub fn quiesce_wait(mut self, wait: Duration) -> Self {
        self.config.quiesce_wait = wait;
        self
    }

    /// Continue a crashed run from its recovered checkpoint instead of
    /// starting fresh. The checkpoint's partition and plan override the
    /// builder's; IRA knobs (`batch`, `retry`, ...) still apply
    /// to the resumed portion.
    pub fn resume_from(mut self, ckpt: IraCheckpoint, pre_crash_log: &[LogRecord]) -> Self {
        self.partition = ckpt.partition;
        self.plan = ckpt.plan;
        self.resume = Some((ckpt, pre_crash_log.to_vec()));
        self
    }

    /// Run the configured reorganization to completion.
    pub fn run(self) -> Result<ReorgOutcome, IraError> {
        let (db, partition, plan, config) = (self.db, self.partition, self.plan, &self.config);
        let ira = |r: IraReport| (r.mapping.clone(), r.duration, Some(ReorgReport::Ira(r)));
        let (mapping, duration, report) = match (self.resume, self.strategy) {
            // A resume continues an IRA run whatever the strategy says; the
            // checkpoint carries its own partition and plan (`resume_from`
            // pinned the builder's to them).
            (Some((ckpt, pre_crash_log)), _) => ira(crate::checkpoint::run_resume(
                db,
                ckpt,
                &pre_crash_log,
                config,
            )?),
            (None, Strategy::Incremental) => {
                ira(crate::driver::run_incremental(db, partition, plan, config)?)
            }
            (None, Strategy::PartitionQuiesce) => {
                let r = crate::pqr::run_pqr(db, partition, plan).map_err(IraError::Store)?;
                (r.mapping.clone(), r.duration, Some(ReorgReport::Pqr(r)))
            }
            (None, Strategy::Offline) => {
                let started = Instant::now();
                let mapping =
                    crate::offline::run_offline(db, partition, plan).map_err(IraError::Store)?;
                (mapping, started.elapsed(), None)
            }
        };
        Ok(ReorgOutcome {
            partition,
            mapping,
            duration,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{NewObject, StoreConfig};

    fn seed(db: &Database) -> (PartitionId, PhysAddr, PhysAddr) {
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let child = t
            .create_object(p1, NewObject::exact(0, vec![], b"c".to_vec()))
            .unwrap();
        let parent = t
            .create_object(p0, NewObject::exact(0, vec![child], vec![]))
            .unwrap();
        t.commit().unwrap();
        (p1, child, parent)
    }

    #[test]
    fn default_builder_runs_basic_ira() {
        let db = Database::new(StoreConfig::default());
        let (p1, child, parent) = seed(&db);
        let outcome = Reorg::on(&db, p1).run().unwrap();
        assert_eq!(outcome.migrated(), 1);
        let report = outcome.ira().expect("incremental runs report IRA");
        // The phases run one after another on the calling thread.
        let p = &report.phases;
        assert!(p.quiesce + p.traversal + p.exact_parents + p.migrate + p.gc <= report.duration);
        assert!(outcome.pqr().is_none());
        assert_eq!(
            db.raw_read(parent).unwrap().refs,
            vec![outcome.mapping[&child]]
        );
    }

    #[test]
    fn pqr_strategy_reports_pqr() {
        let db = Database::new(StoreConfig::default());
        let (p1, _, _) = seed(&db);
        let outcome = Reorg::on(&db, p1)
            .strategy(Strategy::PartitionQuiesce)
            .run()
            .unwrap();
        assert_eq!(outcome.migrated(), 1);
        assert!(outcome.ira().is_none());
        assert_eq!(outcome.pqr().unwrap().quiesce_locks, 1);
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn offline_strategy_migrates_without_reports() {
        let db = Database::new(StoreConfig::default());
        let (p1, _, _) = seed(&db);
        let outcome = Reorg::on(&db, p1).strategy(Strategy::Offline).run().unwrap();
        assert_eq!(outcome.migrated(), 1);
        assert!(outcome.report.is_none());
        brahma::sweep::assert_database_consistent(&db);
    }

    #[test]
    fn knobs_reach_the_driver() {
        let db = Database::new(StoreConfig::default());
        let (p1, _, _) = seed(&db);
        db.fault.arm(brahma::FaultPlan::new(0));
        let outcome = Reorg::on(&db, p1)
            .variant(IraVariant::TwoLock)
            .batch(4)
            .checkpoint_every(1)
            .run()
            .unwrap();
        assert_eq!(outcome.migrated(), 1);
        // Basic IRA evaluates the exact-parents site once per object; the
        // two-lock variant never does. One batch, one periodic checkpoint.
        assert_eq!(db.fault.hits(crate::site::EXACT_PARENTS), 0);
        assert_eq!(db.fault.hits(crate::site::CHECKPOINT), 1);
    }
}
