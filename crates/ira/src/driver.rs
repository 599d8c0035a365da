//! The IRA driver: Figure 1 of the paper, plus the engineering around it —
//! migration batching (Section 4.3), deadlock retry (Section 4.4), garbage
//! collection as a side effect (Section 4.6), restart from the page floor
//! after a crash, and fault injection for the failure-handling tests. Step two
//! is one loop, `ReorgRun::drain`, run by one migrator on the calling
//! thread: batching is the throughput lever, and a caller that wants
//! parallelism runs one `Reorg` per partition.

use crate::approx::find_objects_and_approx_parents;
use crate::exact::find_exact_parents;
use crate::migrate::{move_object_and_update_refs, BatchEffects};
use crate::order::{order_queue, MigrationOrder};
use crate::plan::RelocationPlan;
use crate::site as ira_site;
use crate::traversal::TraversalState;
use brahma::lockdep;
use brahma::{
    AddrMap, Database, Error as StoreError, LockMode, Partition, PartitionId, PhysAddr,
    RetryPolicy, Trt, Txn,
};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which migration strategy the driver uses for step two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IraVariant {
    /// Basic IRA (Section 3.5): all parents of an object locked
    /// simultaneously while it migrates.
    Basic,
    /// The Section 4.2 extension: the object is locked (old and new
    /// locations) and parents are locked **one at a time** — at most two
    /// distinct objects are locked at any point.
    TwoLock,
}

/// Driver configuration, set through the [`crate::Reorg`] builder.
#[derive(Debug, Clone)]
pub(crate) struct IraConfig {
    /// Migrations grouped into one transaction (Section 4.3's logging/IO
    /// trade-off; for the two-lock variant, parent updates per transaction).
    pub batch_size: usize,
    pub variant: IraVariant,
    /// Backoff applied when a batch hits a retryable conflict — a deadlock
    /// timeout, an upgrade conflict, or an injected transient fault
    /// (Section 4.4's release-and-retry discipline).
    pub retry: RetryPolicy,
    /// How long to wait for the transactions active when the reorganization
    /// starts (they must complete before the fuzzy traversal, Section 4.5).
    pub quiesce_wait: Duration,
    /// The order in which objects migrate (Section 7 future work: grouping
    /// by shared external parent minimizes external lock acquisitions when
    /// combined with batching).
    pub order: MigrationOrder,
    /// Rewrite each object as it migrates — the schema-evolution use case
    /// of the paper's introduction (grow a payload, reserve more reference
    /// slots, change the tag). The transform must preserve the reference
    /// list exactly; capacities and payload are free to change.
    pub transform: Option<fn(brahma::ObjectView) -> brahma::ObjectView>,
}

impl Default for IraConfig {
    fn default() -> Self {
        IraConfig {
            batch_size: 1,
            variant: IraVariant::Basic,
            retry: RetryPolicy::default(),
            quiesce_wait: Duration::from_secs(300),
            order: MigrationOrder::Traversal,
            transform: None,
        }
    }
}

/// Errors surfaced by the reorganizer.
#[derive(Debug)]
pub enum IraError {
    /// A storage-manager error other than a retryable lock timeout.
    Store(StoreError),
    /// A batch kept deadlocking past `max_retries`.
    RetriesExhausted { object: PhysAddr, attempts: usize },
    /// Fault injection fired at a batch boundary. The pass stays open, as
    /// a process kill leaves it; the next run restarts it from its floor.
    SimulatedCrash,
}

impl fmt::Display for IraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IraError::Store(e) => write!(f, "storage error during reorganization: {e}"),
            IraError::RetriesExhausted { object, attempts } => {
                write!(f, "migration of {object} failed after {attempts} attempts")
            }
            IraError::SimulatedCrash => write!(f, "simulated crash at a batch boundary"),
        }
    }
}

impl std::error::Error for IraError {}

impl From<StoreError> for IraError {
    fn from(e: StoreError) -> Self {
        IraError::Store(e)
    }
}

/// Wall-clock time spent in each phase of a reorganization run. The phases
/// mirror the paper's structure: quiescing the transactions active at the
/// start (Section 4.5), the fuzzy traversal / `Find_Objects_And_Approx_Parents`
/// (step one), `Find_Exact_Parents` and the migration transactions (step
/// two), and garbage collection (Section 4.6). For the two-lock variant the
/// exact-parents work happens inside the migration loop, so it is charged to
/// `migrate`. The phases run one after another on the calling thread, so
/// they sum to at most [`IraReport::duration`].
#[derive(Debug, Default, Clone)]
pub struct IraPhases {
    pub quiesce: Duration,
    pub traversal: Duration,
    pub exact_parents: Duration,
    pub migrate: Duration,
    pub gc: Duration,
}

/// Outcome of a completed reorganization.
#[derive(Debug)]
pub struct IraReport {
    pub partition: PartitionId,
    /// Old address -> new address for every migrated object.
    pub mapping: AddrMap<PhysAddr>,
    /// Unreachable objects the traversal found and the run deleted
    /// (Section 4.6: the reorganizer doubles as a garbage collector).
    pub garbage: Vec<PhysAddr>,
    /// Deadlock-timeout retries across all batches.
    pub retries: usize,
    /// Total distinct out-of-partition parents locked, summed over
    /// migration transactions — the cost the Section 7 ordering minimizes.
    pub external_parent_locks: usize,
    /// Per-phase wall-clock breakdown.
    pub phases: IraPhases,
    /// TRT tuples noted / purged over the reorganization window (captured
    /// before the TRT is dropped by `end_reorg`).
    pub trt_notes: u64,
    pub trt_purged: u64,
    /// Always 0: nothing is deferred since the worker pool and its tail
    /// pass went. The field survives only because `benchmark/` reads it;
    /// ROADMAP item 1 removes it.
    pub deferred: usize,
    pub duration: Duration,
}

impl IraReport {
    pub fn migrated(&self) -> usize {
        self.mapping.len()
    }

    /// Export the report into `snap` under `ira.*` keys (durations in µs).
    pub fn export(&self, snap: &mut obs::Snapshot) {
        let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        snap.set("ira.migrated", self.mapping.len() as u64);
        snap.set("ira.garbage", self.garbage.len() as u64);
        snap.set("ira.retries", self.retries as u64);
        snap.set(
            "ira.external_parent_locks",
            self.external_parent_locks as u64,
        );
        snap.set("ira.quiesce_us", us(self.phases.quiesce));
        snap.set("ira.traversal_us", us(self.phases.traversal));
        snap.set("ira.exact_parents_us", us(self.phases.exact_parents));
        snap.set("ira.migrate_us", us(self.phases.migrate));
        snap.set("ira.gc_us", us(self.phases.gc));
        snap.set("ira.trt_notes", self.trt_notes);
        snap.set("ira.trt_purged", self.trt_purged);
        snap.set("ira.duration_us", us(self.duration));
    }
}

/// Crate-internal entry point behind the [`crate::Reorg`] builder (the
/// only public way to run IRA).
pub(crate) fn run_incremental(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
    config: &IraConfig,
) -> Result<IraReport, IraError> {
    let start = Instant::now();
    // Opens the partition's pass: copies pack into fresh pages above its
    // floor in migration order (the point of compaction and clustering),
    // and `end_reorg` drops the pages they vacated. A pass a crash
    // interrupted reopens at its own floor: what it copied is in place
    // above it, and only what lies below still moves.
    let trt = db.start_reorg(partition)?;
    // `start_reorg` opened the pass; with no floor, nothing would move.
    let part = db.partition(partition)?;
    let floor = part.pass_floor().unwrap_or(0);

    // Wait for every transaction active at the start to complete, so all
    // relevant pointer updates are in the TRT (Section 4.5).
    let mut phases = IraPhases::default();
    let phase_start = Instant::now();
    let active_at_start = db.txns.active_snapshot();
    db.txns.wait_for_all(&active_at_start, config.quiesce_wait);
    phases.quiesce = phase_start.elapsed();

    // Step one. The ordered traversal output doubles as the migration
    // queue, in place.
    let phase_start = Instant::now();
    let mut state = find_objects_and_approx_parents(db, partition);
    let mut queue = std::mem::take(&mut state.order);
    order_queue(&config.order, &mut queue, &state, partition);
    state.order = queue;
    let queue_len = state.order.len();
    phases.traversal = phase_start.elapsed();
    db.fault.observe(ira_site::TRAVERSAL);

    let run = ReorgRun {
        db,
        partition,
        plan,
        config,
        trt,
        part,
        state,
        floor,
        pos: 0,
        mapping: AddrMap::with_capacity_and_hasher(queue_len, Default::default()),
        tally: Tally::default(),
        phases,
        started: start,
    };
    run.execute()
}

/// Run-wide accumulators behind the [`IraReport`] counters.
#[derive(Debug, Default)]
struct Tally {
    retries: usize,
    ext_locks: usize,
}

/// In-flight reorganization state.
struct ReorgRun<'a> {
    db: &'a Database,
    partition: PartitionId,
    plan: RelocationPlan,
    config: &'a IraConfig,
    /// The partition's TRT, as `start_reorg` returned it.
    trt: Arc<Trt>,
    /// The partition itself.
    part: Arc<Partition>,
    /// Traversal state; `state.order` is the migration queue.
    state: TraversalState,
    /// The pass's page floor: an object at or above it is a copy this pass
    /// (or the crashed run it restarts) already placed.
    floor: u32,
    /// Queue position of the next batch: everything before it has migrated
    /// (or was dead).
    pos: usize,
    /// Old → new address of every committed migration: written only after
    /// a batch commits, and read to skip what a retried batch already moved.
    mapping: AddrMap<PhysAddr>,
    tally: Tally,
    phases: IraPhases,
    started: Instant,
}

/// Why the drain stopped short of the queue's end (before error-path
/// cleanup).
enum LoopEnd {
    /// A latched crash fault.
    Crash,
    /// Retryable conflicts past the retry budget.
    Exhausted { object: PhysAddr, attempts: usize },
    /// A non-retryable storage error.
    Fatal(StoreError),
}

impl ReorgRun<'_> {
    /// Step two, the migration loop (Figure 1): drain the queue from
    /// `self.pos`, one batch of queue positions at a time, until it runs
    /// out or the run has to end early. Returns why it stopped short, if it
    /// did; `self.pos` is then the first position not yet drained.
    fn drain(&mut self) -> Option<LoopEnd> {
        let batch_size = self.config.batch_size.max(1);
        let mut work = BatchEffects::default();
        loop {
            // A Crash fault latched anywhere (a walker's lock site, the WAL,
            // a page latch) surfaces here, at the batch boundary, where no
            // migration transaction is open.
            if self.db.fault.crash_requested() {
                return Some(LoopEnd::Crash);
            }
            let queue_len = self.state.order.len();
            if self.pos == queue_len {
                return None;
            }
            let end = (self.pos + batch_size).min(queue_len);
            if let Err(stop) = self.run_batch(self.pos..end, &mut work) {
                return Some(stop);
            }
            self.pos = end;
            // The batch transaction committed or rolled back: the migrator
            // may not carry lock-manager locks across a batch boundary
            // (crash consistency depends on it).
            lockdep::assert_no_txn_locks("IRA migrator at batch boundary");
            brahma::sched::point("ira.batch");
            self.db.fault.observe(ira_site::BATCH);
        }
    }

    /// Run one batch — the objects at queue positions `batch` — to
    /// completion: retryable conflicts (deadlock timeouts, upgrade
    /// conflicts, injected transients) retry under the configured backoff.
    fn run_batch(&mut self, batch: Range<usize>, work: &mut BatchEffects) -> Result<(), LoopEnd> {
        let config = self.config;
        let mut backoff = config.retry.start();
        loop {
            let result = match config.variant {
                IraVariant::Basic => self.try_batch_basic(batch.clone(), work),
                IraVariant::TwoLock => self.try_batch_two_lock(batch.clone()),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.is_retryable_conflict() => {
                    self.tally.retries += 1;
                    if !self.db.retry_backoff(&mut backoff) {
                        return Err(LoopEnd::Exhausted {
                            object: self.state.order[batch.start],
                            attempts: backoff.attempt,
                        });
                    }
                }
                Err(e) => return Err(LoopEnd::Fatal(e)),
            }
        }
    }

    /// Whether `oold` needs no migration: it migrated already (earlier in
    /// a retried two-lock batch), or it lies at or above the floor, a copy
    /// the pass placed before a crash. The queue holds only objects the
    /// traversal read live, and only this pass frees one: workload
    /// transactions may not create or delete in a partition under
    /// reorganization, and those active at its start ended in the quiesce
    /// wait.
    fn skip(&self, oold: PhysAddr) -> bool {
        oold.page() >= self.floor || self.mapping.contains_key(&oold)
    }

    /// Migrate one batch inside one transaction (basic IRA).
    fn try_batch_basic(
        &mut self,
        batch: Range<usize>,
        work: &mut BatchEffects,
    ) -> Result<(), StoreError> {
        let (db, partition) = (self.db, self.partition);
        work.clear();
        // Begun at the first object that moves: a batch a restart finds
        // already placed commits nothing, so it forces no log write.
        let mut txn = None;
        let mut ext_locks = 0;
        let mut outcome = Ok(());
        for i in batch {
            let oold = self.state.order[i];
            if self.skip(oold) {
                continue;
            }
            let txn = txn.get_or_insert_with(|| db.begin_reorg(partition));
            match self.migrate_in_batch(txn, oold, work) {
                Ok(newly_locked) => ext_locks += newly_locked,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        let Some(txn) = txn else {
            return Ok(());
        };
        let outcome = match outcome {
            Ok(()) => db
                .fault
                .hit(ira_site::MIGRATE_COMMIT)
                .and_then(|()| txn.commit()),
            Err(e) => {
                txn.abort();
                Err(e)
            }
        };
        match outcome {
            Ok(()) => {
                self.mapping.extend(work.migrations.iter().copied());
                // Counted here, not when the move is staged: a rolled-back
                // batch migrated nothing.
                db.stats.migrations.add(work.migrations.len() as u64);
                self.tally.ext_locks += ext_locks;
                Ok(())
            }
            Err(e) => {
                // A failed commit is an abort too (the handle rolled the
                // updates back on drop); the run's in-memory bookkeeping
                // must roll back with it.
                work.revert(&mut self.state);
                Err(e)
            }
        }
    }

    /// One object of a basic-IRA batch: make its parent set exact, check
    /// the lock footprint, move it. Returns how many out-of-partition
    /// parents the batch transaction locked for it that it did not hold
    /// already.
    fn migrate_in_batch(
        &mut self,
        txn: &mut Txn<'_>,
        oold: PhysAddr,
        work: &mut BatchEffects,
    ) -> Result<usize, StoreError> {
        self.db.fault.hit(ira_site::EXACT_PARENTS)?;
        // Three clock reads: the phases meet at `found`.
        let start = Instant::now();
        find_exact_parents(
            self.db,
            &self.trt,
            txn,
            oold,
            &mut self.state,
            &work.keep,
            &mut work.parents,
        )?;
        let found = Instant::now();
        self.phases.exact_parents += found - start;
        // Basic-IRA footprint invariant (Section 3.5): after
        // Find_Exact_Parents the batch transaction holds locks only on
        // confirmed parents — the current object's and the kept set from
        // earlier objects in this batch.
        lockdep::assert_txn_locks_subset(
            |a| {
                let a = PhysAddr::from_raw(a);
                work.keep.contains(&a) || work.parents.exact.contains(&a)
            },
            "basic IRA after Find_Exact_Parents",
        );
        let onew = move_object_and_update_refs(
            txn,
            oold,
            self.plan,
            self.config.transform,
            &mut self.state,
            work,
        )?;
        self.phases.migrate += found.elapsed();
        // Confirmed parents only: under `EvacuateTo` the copy is outside
        // the partition too, and is nobody's parent lock.
        let mut newly_locked = 0;
        for &parent in &work.parents.exact {
            if work.keep.insert(parent) && parent.partition() != self.partition {
                newly_locked += 1;
            }
        }
        work.keep.extend([onew, oold]);
        Ok(newly_locked)
    }

    /// Migrate one batch with the two-lock extension (each object commits
    /// by itself; on a mid-batch error, earlier objects stay migrated and
    /// the retry skips them through the mapping).
    fn try_batch_two_lock(&mut self, batch: Range<usize>) -> Result<(), StoreError> {
        for i in batch {
            let oold = self.state.order[i];
            if self.skip(oold) {
                continue;
            }
            let migrate_start = Instant::now();
            let outcome = crate::two_lock::migrate_two_lock(
                self.db,
                oold,
                self.plan,
                self.config.transform,
                &mut self.state,
                &self.config.retry,
            );
            self.phases.migrate += migrate_start.elapsed();
            self.mapping.insert(oold, outcome?);
        }
        Ok(())
    }

    fn execute(mut self) -> Result<IraReport, IraError> {
        // Step two. A batch that exhausts its retry budget fails the run:
        // nobody is left to hand it to.
        match self.drain() {
            None => {}
            Some(LoopEnd::Crash) => return Err(self.crash_now()),
            Some(LoopEnd::Exhausted { object, attempts }) => {
                return Err(self.fail(IraError::RetriesExhausted { object, attempts }))
            }
            Some(LoopEnd::Fatal(e)) => return Err(self.fail(IraError::Store(e))),
        }

        // Garbage (Section 4.6): every reachable object below the floor has
        // moved, above it or to the evacuation target, so what is still
        // live below it is unreachable. The copies above the floor stay,
        // this run's and those a crashed run placed before the restart.
        let phase_start = Instant::now();
        let garbage: Vec<PhysAddr> = self
            .part
            .live_objects()
            .into_iter()
            .filter(|a| a.page() < self.floor)
            .collect();
        if !garbage.is_empty() {
            let mut backoff = self.config.retry.start();
            loop {
                match self.try_collect_garbage(&garbage) {
                    Ok(()) => break,
                    Err(e) if e.is_retryable_conflict() => {
                        self.tally.retries += 1;
                        if !self.db.retry_backoff(&mut backoff) {
                            return Err(self.fail(IraError::RetriesExhausted {
                                object: garbage[0],
                                attempts: backoff.attempt,
                            }));
                        }
                    }
                    Err(e) => return Err(self.fail(IraError::Store(e))),
                }
            }
        }
        self.phases.gc = phase_start.elapsed();

        // The TRT's lifetime counters, over the whole reorganization window.
        let (trt_notes, trt_purged) = (self.trt.stats.notes.get(), self.trt.stats.purged.get());

        self.db.end_reorg(self.partition);

        Ok(IraReport {
            partition: self.partition,
            mapping: self.mapping,
            garbage,
            retries: self.tally.retries,
            external_parent_locks: self.tally.ext_locks,
            phases: self.phases,
            trt_notes,
            trt_purged,
            deferred: 0,
            duration: self.started.elapsed(),
        })
    }

    /// Terminal failure: release the reorganization so the system keeps
    /// running, then hand the error back.
    fn fail(&self, e: IraError) -> IraError {
        self.db.end_reorg(self.partition);
        e
    }

    /// Convert a latched crash request into a simulated crash that leaves
    /// the reorganization open — exactly what a stop-the-world failure
    /// between two migration transactions looks like (Section 4.4).
    fn crash_now(&self) -> IraError {
        let _ = self.db.fault.take_crash_request();
        IraError::SimulatedCrash
    }

    /// One attempt at the whole garbage-collection transaction; a failure
    /// anywhere aborts it (dropping the handle rolls the deletes back) and
    /// the caller's retry loop starts a fresh one.
    fn try_collect_garbage(&self, garbage: &[PhysAddr]) -> Result<(), StoreError> {
        let mut txn = self.db.begin_reorg(self.partition);
        for &g in garbage {
            txn.lock(g, LockMode::Exclusive)?;
            txn.delete_object(g)?;
        }
        txn.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RelocationPlan;
    use brahma::{Database, LockMode, NewObject, StoreConfig};
    use std::sync::Arc;

    #[test]
    fn config_defaults_are_sane() {
        let c = IraConfig::default();
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.variant, IraVariant::Basic);
        assert!(c.transform.is_none());
        assert_eq!(c.retry, brahma::RetryPolicy::default());
    }

    #[test]
    fn empty_partition_reorganizes_trivially() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let report = run_incremental(
            &db,
            p,
            RelocationPlan::CompactInPlace,
            &IraConfig::default(),
        )
        .unwrap();
        assert_eq!(report.migrated(), 0);
        assert!(report.garbage.is_empty());
        assert!(!db.reorg_active(p));
    }

    #[test]
    fn retries_exhausted_releases_the_reorganization() {
        // A workload transaction parks on the only parent forever; with a
        // tiny lock timeout and a two-attempt retry policy the driver gives
        // up and releases the reorganization.
        let store = StoreConfig {
            lock_timeout: std::time::Duration::from_millis(20),
            ..StoreConfig::default()
        };
        let db = Arc::new(Database::new(store));
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let o = t
            .create_object(p1, NewObject::exact(1, vec![], vec![]))
            .unwrap();
        let parent = t
            .create_object(p0, NewObject::exact(0, vec![o], vec![]))
            .unwrap();
        t.commit().unwrap();

        // Blocker holds the parent and never finishes (until we drop it).
        let mut blocker = db.begin();
        blocker.lock(parent, LockMode::Exclusive).unwrap();

        let config = IraConfig {
            retry: brahma::RetryPolicy::new(
                2,
                std::time::Duration::from_millis(1),
                std::time::Duration::from_millis(1),
                0,
            ),
            quiesce_wait: std::time::Duration::from_millis(50),
            ..IraConfig::default()
        };
        let err = run_incremental(&db, p1, RelocationPlan::CompactInPlace, &config).unwrap_err();
        assert!(matches!(err, IraError::RetriesExhausted { .. }));
        assert!(!db.reorg_active(p1), "reorganization must be released");
        assert!(db.retry_stats.giveups.get() >= 1, "giveup must be counted");
        blocker.abort();
        // A later run succeeds.
        let report = run_incremental(
            &db,
            p1,
            RelocationPlan::CompactInPlace,
            &IraConfig::default(),
        )
        .unwrap();
        assert_eq!(report.migrated(), 1);
    }

    /// A pass killed after its only migration committed restarts at its
    /// floor: the copy stays where the crashed run put it, nothing moves
    /// again, and nothing is collected.
    #[test]
    fn a_restart_keeps_what_the_crashed_pass_placed() {
        use brahma::{FaultAction, FaultPlan, FaultRule};
        let dir = std::env::temp_dir().join(format!("ira-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreConfig {
            data_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let db = brahma::storage::open(store.clone()).unwrap().db;
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let o = t
            .create_object(p1, NewObject::exact(1, vec![], b"x".to_vec()))
            .unwrap();
        let anchor = t
            .create_object(p0, NewObject::exact(0, vec![o], vec![]))
            .unwrap();
        t.commit().unwrap();
        db.checkpoint_durable(1).unwrap();
        let crash = FaultRule::nth(ira_site::BATCH, 1, FaultAction::Crash);
        db.fault.arm(FaultPlan::new(1).with(crash));
        let config = IraConfig::default();
        let plan = RelocationPlan::CompactInPlace;
        let crashed = run_incremental(&db, p1, plan, &config);
        assert!(matches!(crashed, Err(IraError::SimulatedCrash)));
        drop(db);

        let db = brahma::storage::open(store).unwrap().db;
        let copy = db.raw_read(anchor).unwrap().refs[0];
        assert_ne!(copy, o, "the migration committed before the crash");
        let report = run_incremental(&db, p1, plan, &config).unwrap();
        assert_eq!(report.migrated(), 0, "the copy does not move again");
        assert!(report.garbage.is_empty(), "the copy is not garbage");
        assert_eq!(db.raw_read(anchor).unwrap().refs, vec![copy]);
        assert_eq!(db.raw_read(copy).unwrap().payload, b"x");
        brahma::sweep::assert_database_consistent(&db);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transform_applies_during_migration() {
        fn bump_tag(mut v: brahma::ObjectView) -> brahma::ObjectView {
            v.tag = 42;
            v
        }
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut t = db.begin();
        let o = t
            .create_object(p1, NewObject::exact(1, vec![], b"x".to_vec()))
            .unwrap();
        let _anchor = t
            .create_object(p0, NewObject::exact(0, vec![o], vec![]))
            .unwrap();
        t.commit().unwrap();
        let config = IraConfig {
            transform: Some(bump_tag),
            ..IraConfig::default()
        };
        let report = run_incremental(&db, p1, RelocationPlan::CompactInPlace, &config).unwrap();
        assert_eq!(db.raw_read(report.mapping[&o]).unwrap().tag, 42);
    }
}
