//! The unified reorganization entry point: one fluent builder over every
//! algorithm the crate implements.
//!
//! The paper describes a family of reorganizers — PQR (Section 5.1), which
//! runs the quiescent one of Section 3.1, IRA basic (Section 3.5) and IRA
//! two-lock (Section 4.2). [`Reorg`] puts them behind one surface:
//!
//! ```text
//! Reorg::on(&db, partition)
//!     .plan(RelocationPlan::EvacuateTo(target))
//!     .variant(IraVariant::TwoLock)
//!     .batch(8)
//!     .run()?
//! ```
//!
//! [`Reorg::run`] is the one dispatch point: a `match` on the [`Strategy`]
//! calls the crate-internal entry point of the chosen algorithm. After a
//! crash the same call restarts an interrupted pass from its page floor.

use crate::driver::{IraConfig, IraError, IraReport, IraVariant};
use crate::plan::RelocationPlan;
use crate::pqr::PqrReport;
use brahma::{AddrMap, Database, PartitionId, PhysAddr};
use std::time::Duration;

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
    /// partition, then reorganize it in one transaction. On an idle store
    /// this is the quiescent reorganizer of Section 3.1.
    PartitionQuiesce,
}

/// The algorithm-specific report of a finished reorganization: one enum
/// instead of two optional fields, so callers match a single value (or use
/// the [`ReorgOutcome::ira`] / [`ReorgOutcome::pqr`] accessors).
#[derive(Debug)]
pub enum ReorgReport {
    /// An incremental run's full report.
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
    /// The algorithm-specific report.
    pub report: ReorgReport,
}

impl ReorgOutcome {
    pub fn migrated(&self) -> usize {
        self.mapping.len()
    }

    /// The IRA report, when an incremental run produced one.
    pub fn ira(&self) -> Option<&IraReport> {
        match &self.report {
            ReorgReport::Ira(r) => Some(r),
            ReorgReport::Pqr(_) => None,
        }
    }

    /// The PQR report, when the partition-quiesce baseline ran.
    pub fn pqr(&self) -> Option<&PqrReport> {
        match &self.report {
            ReorgReport::Pqr(r) => Some(r),
            ReorgReport::Ira(_) => None,
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
        }
    }

    /// Where migrated objects go: compact in place, or evacuate to another
    /// partition — into a fresh one, that is the copying collector of
    /// Section 4.6 (`gc`).
    pub fn plan(mut self, plan: RelocationPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Which algorithm family runs (incremental IRA or the PQR baseline).
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

    /// Migrate the objects in `first` first, in this order; the rest
    /// follow in traversal order, which is the default (an empty list).
    /// [`crate::StatsGreedy::plan`] derives such a list from observed
    /// traffic: a pass packs its copies onto fresh pages in migration
    /// order, so objects adjacent in the list land on the same pages.
    pub fn order(mut self, first: Vec<PhysAddr>) -> Self {
        self.config.order = first;
        self
    }

    /// Rewrite each object as it migrates (the schema-evolution use case).
    pub fn transform(mut self, f: fn(brahma::ObjectView) -> brahma::ObjectView) -> Self {
        self.config.transform = Some(f);
        self
    }

    /// Run the configured reorganization to completion. It first waits for
    /// every transaction active at its start to end (Section 4.5), so the
    /// calling thread must not hold one open. On a partition
    /// whose pass a crash interrupted (`OpenOutcome::interrupted_reorgs`),
    /// an incremental run restarts that pass from its floor: the objects
    /// it already placed stay, and the mapping holds only what moves now.
    pub fn run(self) -> Result<ReorgOutcome, IraError> {
        let (db, partition, plan, config) = (self.db, self.partition, self.plan, &self.config);
        let (mapping, duration, report) = match self.strategy {
            Strategy::Incremental => {
                let r = crate::driver::run_incremental(db, partition, plan, config)?;
                (r.mapping.clone(), r.duration, ReorgReport::Ira(r))
            }
            Strategy::PartitionQuiesce => {
                let r = crate::pqr::run_pqr(db, partition, plan).map_err(IraError::Store)?;
                (r.mapping.clone(), r.duration, ReorgReport::Pqr(r))
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
    fn knobs_reach_the_driver() {
        let db = Database::new(StoreConfig::default());
        let (p1, _, _) = seed(&db);
        db.fault.arm(brahma::FaultPlan::new(0));
        let outcome = Reorg::on(&db, p1)
            .variant(IraVariant::TwoLock)
            .batch(4)
            .run()
            .unwrap();
        assert_eq!(outcome.migrated(), 1);
        // Basic IRA evaluates the exact-parents site once per object; the
        // two-lock variant never does. One batch, one batch boundary.
        assert_eq!(db.fault.hits(crate::site::EXACT_PARENTS), 0);
        assert_eq!(db.fault.hits(crate::site::BATCH), 1);
    }
}
