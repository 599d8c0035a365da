//! The IRA driver: Figure 1 of the paper, plus the engineering around it —
//! migration batching (Section 4.3), deadlock retry (Section 4.4), garbage
//! collection as a side effect (Section 4.6), checkpointing for crash
//! restart, and fault injection for the failure-handling tests. Step two
//! is one loop, [`WorkerCtx::drain`]: one worker runs it over the whole
//! queue on the calling thread; N workers (clamped to the plan's component
//! count) run it per claimed component of the conflict-disjoint wave plan
//! (see [`crate::wave`]), and the calling thread runs it once more over
//! whatever they deferred.

use crate::approx::find_objects_and_approx_parents;
use crate::chaos::site as ira_site;
use crate::checkpoint::IraCheckpoint;
use crate::exact::find_exact_parents;
use crate::migrate::{move_object_and_update_refs, BatchEffects};
use crate::order::{order_queue, MigrationOrder};
use crate::plan::RelocationPlan;
use crate::shared::{MigrationMap, OwnerId};
use crate::traversal::TraversalState;
use brahma::lockdep::{self, LockClass, Mutex};
use brahma::{Database, Error as StoreError, LockMode, PartitionId, PhysAddr, RetryPolicy};
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::time::{Duration, Instant};

/// Defer all free space of the source (and, for evacuation, target)
/// partition until the reorganization completes.
pub(crate) fn withhold_free_space(
    db: &Database,
    partition: PartitionId,
    plan: RelocationPlan,
) -> Result<(), StoreError> {
    db.partition(partition)?.defer_all_free_space();
    if let RelocationPlan::EvacuateTo(target) = plan {
        if target != partition {
            db.partition(target)?.defer_all_free_space();
        }
    }
    Ok(())
}

/// Release the deferred space of the evacuation target (the source's is
/// released by `Database::end_reorg`).
pub(crate) fn release_target_space(db: &Database, partition: PartitionId, plan: RelocationPlan) {
    if let RelocationPlan::EvacuateTo(target) = plan {
        if target != partition {
            if let Ok(part) = db.partition(target) {
                part.flush_deferred_frees();
            }
        }
    }
}

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

/// Graceful degradation under contention: the driver watches the lock
/// manager's timeout counter between successful batches and pauses
/// migration when workload aborts spike, resuming once the pause elapses.
/// The reorganizer is a background utility (Section 1); when its lock
/// footprint starts costing transactions their deadlock timeouts, backing
/// off is cheaper than finishing sooner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrottleConfig {
    /// Successful batches per observation window.
    pub window: usize,
    /// Lock timeouts observed within one window at or above which the
    /// driver pauses.
    pub timeout_threshold: u64,
    /// How long one pause lasts.
    pub pause: Duration,
    /// Upper bound on pauses per run, so a permanently contended system
    /// still finishes reorganizing.
    pub max_pauses: usize,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            window: 8,
            timeout_threshold: 4,
            pause: Duration::from_millis(50),
            max_pauses: 100,
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct IraConfig {
    /// Migrations grouped into one transaction (Section 4.3's logging/IO
    /// trade-off; for the two-lock variant, parent updates per transaction).
    pub batch_size: usize,
    pub variant: IraVariant,
    /// Backoff applied when a batch hits a retryable conflict — a deadlock
    /// timeout, an upgrade conflict, a cross-worker migration collision, or
    /// an injected transient fault (Section 4.4's release-and-retry
    /// discipline).
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
    /// Contention-adaptive throttling (`None` disables it).
    pub throttle: Option<ThrottleConfig>,
    /// Migrator workers. With `1` (the default) one worker drains the
    /// queue in order on the calling thread. With more, the queue is
    /// partitioned into conflict-disjoint components
    /// ([`crate::wave::plan_waves`]) and at most one worker per component
    /// drains them concurrently, each running its own migration
    /// transactions against the shared mapping and traversal state;
    /// [`IraReport::workers`] reports how many actually ran.
    pub workers: usize,
    /// Save a reorganizer checkpoint (Section 4.4) every this many batches
    /// when one worker drains the queue, in addition to the crash-time
    /// save. With a file backend attached the save is mirrored into the
    /// durable log, so a hard process kill resumes from at most this many
    /// batches back. `None` (the default) checkpoints only at crash.
    pub checkpoint_every: Option<usize>,
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
            throttle: None,
            workers: 1,
            checkpoint_every: None,
        }
    }
}

/// Variant- and test-specific execution knobs, split out of [`IraConfig`]
/// so the public configuration carries only what every run needs. Surfaced
/// through [`crate::builder::Reorg`]'s `crash_after_migrations` /
/// `force_defer` methods.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecOptions {
    /// Fault injection: simulate a crash (return
    /// [`IraError::SimulatedCrash`] with a resumable checkpoint) once this
    /// many objects have migrated.
    pub crash_after_migrations: Option<usize>,
    /// Fault injection for the deferral path: wave-worker chunks containing
    /// any of these objects are pushed straight to the tail pass instead of
    /// migrating, as if their retry budget had been exhausted. Lets tests
    /// exercise the tail's ordering guarantees deterministically.
    pub force_defer: Vec<PhysAddr>,
}

/// Errors surfaced by the reorganizer.
#[derive(Debug)]
pub enum IraError {
    /// A storage-manager error other than a retryable lock timeout.
    Store(StoreError),
    /// A batch kept deadlocking past `max_retries`.
    RetriesExhausted { object: PhysAddr, attempts: usize },
    /// Fault injection fired; the checkpoint resumes the run.
    SimulatedCrash(Box<IraCheckpoint>),
}

impl fmt::Display for IraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IraError::Store(e) => write!(f, "storage error during reorganization: {e}"),
            IraError::RetriesExhausted { object, attempts } => {
                write!(f, "migration of {object} failed after {attempts} attempts")
            }
            IraError::SimulatedCrash(c) => {
                write!(f, "simulated crash after {} migrations", c.mapping.len())
            }
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
/// `migrate`. With multiple workers, `exact_parents` and `migrate` sum the
/// workers' concurrent time and can exceed wall-clock.
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
    pub mapping: HashMap<PhysAddr, PhysAddr>,
    /// Unreachable objects the traversal found and the run deleted
    /// (Section 4.6: the reorganizer doubles as a garbage collector).
    pub garbage: Vec<PhysAddr>,
    /// Deadlock-timeout retries across all batches.
    pub retries: usize,
    /// Times the contention throttle paused migration (see
    /// [`ThrottleConfig`]).
    pub throttle_pauses: usize,
    /// Total distinct out-of-partition parents locked, summed over
    /// migration transactions — the cost the Section 7 ordering minimizes.
    pub external_parent_locks: usize,
    /// Per-phase wall-clock breakdown.
    pub phases: IraPhases,
    /// TRT tuples noted / purged over the reorganization window (captured
    /// before the TRT is dropped by `end_reorg`).
    pub trt_notes: u64,
    pub trt_purged: u64,
    /// Conflict-disjoint components the wave planner produced (0 for a
    /// one-worker run, which needs no plan).
    pub waves: usize,
    /// Migrator threads that ran: the configured count clamped to the
    /// planned components (1 when the calling thread drained the queue).
    pub workers: usize,
    /// Objects that exhausted their worker's retry budget and fell back to
    /// the tail pass.
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
        snap.set("ira.throttle.pauses", self.throttle_pauses as u64);
        snap.set("ira.external_parent_locks", self.external_parent_locks as u64);
        snap.set("ira.quiesce_us", us(self.phases.quiesce));
        snap.set("ira.traversal_us", us(self.phases.traversal));
        snap.set("ira.exact_parents_us", us(self.phases.exact_parents));
        snap.set("ira.migrate_us", us(self.phases.migrate));
        snap.set("ira.gc_us", us(self.phases.gc));
        snap.set("ira.trt_notes", self.trt_notes);
        snap.set("ira.trt_purged", self.trt_purged);
        snap.set("ira.waves", self.waves as u64);
        snap.set("ira.workers", self.workers as u64);
        snap.set("ira.deferred", self.deferred as u64);
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
    exec: &ExecOptions,
) -> Result<IraReport, IraError> {
    let start = Instant::now();
    db.start_reorg(partition)?;
    // Withhold every currently free slot in the partitions the plan
    // touches: migrated copies then pack into fresh space — never-used
    // pages, or spares an earlier reorganization emptied — in migration
    // order (the point of compaction and clustering), and everything freed
    // or withheld is released coalesced when the reorganization ends.
    withhold_free_space(db, partition, plan)?;

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
    phases.traversal = phase_start.elapsed();
    db.fault.observe(ira_site::TRAVERSAL);

    let run = ReorgRun {
        db,
        partition,
        plan,
        config,
        exec,
        state,
        pos: 0,
        mapping: MigrationMap::new(),
        tally: Tally::default(),
        phases,
        started: start,
    };
    run.execute()
}

/// Run-wide accumulators behind the [`IraReport`] counters.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub retries: usize,
    pub ext_locks: usize,
    /// Shared by every migrator: `max_pauses` is a per-run budget.
    pub throttle_pauses: AtomicUsize,
    pub waves: usize,
    /// Migrator threads step two ran with (see [`IraReport::workers`]).
    pub workers: usize,
    pub deferred: usize,
}

/// In-flight reorganization state; also reconstructible from an
/// [`IraCheckpoint`] (see [`crate::checkpoint::run_resume`]).
pub(crate) struct ReorgRun<'a> {
    pub db: &'a Database,
    pub partition: PartitionId,
    pub plan: RelocationPlan,
    pub config: &'a IraConfig,
    pub exec: &'a ExecOptions,
    /// Traversal state; `state.order` is the migration queue.
    pub state: TraversalState,
    pub pos: usize,
    pub mapping: MigrationMap,
    pub tally: Tally,
    pub phases: IraPhases,
    pub started: Instant,
}

/// Per-migrator accumulators handed back to the run when the migrator is
/// done.
#[derive(Debug, Default)]
struct WorkerStats {
    retries: usize,
    ext_locks: usize,
    exact_time: Duration,
    migrate_time: Duration,
    /// Objects of the chunks this migrator deferred, in deferral order.
    deferred: Vec<PhysAddr>,
}

/// Why a drain stopped short of its last object (before error-path
/// cleanup).
enum LoopEnd {
    /// A latched crash fault or a `crash_after_migrations` trip.
    Crash,
    /// Retryable conflicts past the retry budget.
    Exhausted { object: PhysAddr, attempts: usize },
    /// A non-retryable storage error.
    Fatal(StoreError),
}

/// What [`WorkerCtx::drain`] does with a batch that exhausted its retry
/// budget.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnExhausted {
    /// Fail the reorganization: nobody is left to hand the batch to (one
    /// worker draining the queue, or the tail pass).
    Fail,
    /// Set the chunk aside for the tail pass (a wave worker): the residual
    /// cross-component conflict — a shared external parent, walker
    /// interference — is gone once the other workers are.
    Defer,
}

/// One migrator's contention-throttle window (see [`ThrottleConfig`]).
struct ThrottleWindow {
    batches: usize,
    timeouts_mark: u64,
}

/// One migrator: everything a batch attempt needs, plus local stat
/// accumulators, so N of these can run in parallel over one shared
/// [`ReorgRun`].
struct WorkerCtx<'a> {
    run: &'a ReorgRun<'a>,
    owner: OwnerId,
    /// The configured retry policy reseeded per owner through a
    /// [`brahma::SeedTree`] child: the jitter hash is `(seed, attempt)`, so
    /// N workers sharing one policy seed would draw *identical* backoff
    /// streams (synchronized re-collision) — and which worker retries which
    /// batch would depend on claim order, making delays schedule-dependent.
    /// Per-owner seeds are decorrelated and reproducible at any worker
    /// count.
    retry: RetryPolicy,
    /// Raised by the migrator that ends the run early (crash, fatal error);
    /// the others stop at their next batch boundary.
    stop: &'a AtomicBool,
    throttle: ThrottleWindow,
    stats: WorkerStats,
}

impl WorkerCtx<'_> {
    /// The migration loop (Figure 1): drain `objs` in order, one batch at
    /// a time, until they run out, `stop` is raised, or this migrator
    /// has to end the run itself. Returns how many objects were drained and
    /// why the drain stopped short, if it did.
    ///
    /// `tag` labels the batch-boundary schedule point: a deferring wave
    /// worker reports `wave.batch` with `tag` (its component); a failing
    /// drain reports `ira.batch` with `tag` plus the objects drained — the
    /// queue position reached, when `tag` is the queue position of
    /// `objs[0]`.
    fn drain(
        &mut self,
        objs: &[PhysAddr],
        on_exhausted: OnExhausted,
        tag: usize,
    ) -> (usize, Option<LoopEnd>) {
        let run = self.run;
        let batch_size = run.config.batch_size.max(1);
        let defer = on_exhausted == OnExhausted::Defer;
        let mut done = 0usize;
        loop {
            if self.stop.load(AtomicOrd::Relaxed) {
                return (done, None);
            }
            // A Crash fault latched anywhere (a walker's lock site, the WAL,
            // a page latch) surfaces here, at the batch boundary — the only
            // point where the checkpoint is consistent.
            if run.db.fault.crash_requested() {
                return (done, Some(LoopEnd::Crash));
            }
            if done == objs.len() {
                return (done, None);
            }
            let chunk = &objs[done..(done + batch_size).min(objs.len())];
            let forced = defer && chunk.iter().any(|o| run.exec.force_defer.contains(o));
            let outcome = if forced {
                Err(LoopEnd::Exhausted {
                    object: chunk[0],
                    attempts: 0,
                })
            } else {
                self.run_batch(chunk)
            };
            match outcome {
                Ok(_) => {}
                Err(LoopEnd::Exhausted { .. }) if defer => {
                    brahma::sched::point("wave.defer", chunk.len() as u64);
                    self.stats.deferred.extend_from_slice(chunk);
                }
                Err(end) => return (done, Some(end)),
            }
            done += chunk.len();
            // Every batch transaction committed or rolled back: a migrator
            // may not carry lock-manager locks across a batch boundary
            // (crash consistency depends on it).
            lockdep::assert_no_txn_locks("IRA migrator at batch boundary");
            if defer {
                brahma::sched::point("wave.batch", tag as u64);
                run.db.stats.reorg_wave_batches.inc();
            } else {
                brahma::sched::point("ira.batch", (tag + done) as u64);
            }
            run.db.fault.observe(ira_site::BATCH);
            // Periodic checkpoints need the exact queue position, which only
            // the one-worker drain over the queue itself has.
            if let Some(every) = run.config.checkpoint_every {
                if run.config.workers <= 1
                    && every > 0
                    && (tag + done).div_ceil(batch_size).is_multiple_of(every)
                {
                    let ckpt = run.checkpoint_at(tag + done);
                    run.db.save_reorg_checkpoint(run.partition, ckpt.encode());
                }
            }
            self.throttle_check();
            if let Some(n) = run.exec.crash_after_migrations {
                if run.mapping.len() >= n {
                    return (done, Some(LoopEnd::Crash));
                }
            }
        }
    }

    /// Close one batch of the throttle window; at the window's end, pause
    /// if lock timeouts spiked over it.
    fn throttle_check(&mut self) {
        let run = self.run;
        let Some(t) = &run.config.throttle else {
            return;
        };
        self.throttle.batches += 1;
        if self.throttle.batches < t.window.max(1) {
            return;
        }
        let timeouts = &run.db.locks.stats.timeouts;
        let pauses = &run.tally.throttle_pauses;
        if timeouts.get().saturating_sub(self.throttle.timeouts_mark) >= t.timeout_threshold
            && pauses.load(AtomicOrd::Relaxed) < t.max_pauses
        {
            pauses.fetch_add(1, AtomicOrd::Relaxed);
            lockdep::might_block("ira.throttle");
            std::thread::sleep(t.pause);
        }
        self.throttle = ThrottleWindow {
            batches: 0,
            timeouts_mark: timeouts.get(),
        };
    }

    /// Run one batch to completion: retryable conflicts (deadlock timeouts,
    /// upgrade conflicts, cross-worker collisions, injected transients)
    /// retry under the configured backoff; success returns the number of
    /// objects migrated (skipped objects — already migrated or claimed
    /// elsewhere — don't count).
    fn run_batch(&mut self, batch: &[PhysAddr]) -> Result<usize, LoopEnd> {
        // RetryState borrows the policy; clone it so the loop can borrow
        // `self` mutably for the batch attempts.
        let retry = self.retry.clone();
        let mut backoff = retry.start();
        loop {
            let result = match self.run.config.variant {
                IraVariant::Basic => self.try_batch_basic(batch),
                IraVariant::TwoLock => self.try_batch_two_lock(batch),
            };
            match result {
                Ok(n) => return Ok(n),
                Err(e) if e.is_retryable_conflict() => {
                    self.stats.retries += 1;
                    if !self.run.db.retry_backoff(&mut backoff) {
                        return Err(LoopEnd::Exhausted {
                            object: batch[0],
                            attempts: backoff.attempt,
                        });
                    }
                }
                Err(e) => return Err(LoopEnd::Fatal(e)),
            }
        }
    }

    /// Migrate one batch inside one transaction (basic IRA).
    fn try_batch_basic(&mut self, batch: &[PhysAddr]) -> Result<usize, StoreError> {
        let run = self.run;
        let part = run.db.partition(run.partition)?;
        let mut txn = run.db.begin_reorg(run.partition);
        let mut keep: HashSet<PhysAddr> = HashSet::new();
        let mut effects = BatchEffects::default();
        let mut failure = None;
        for &oold in batch {
            // Skip freed addresses and objects already migrated (committed
            // slot) or mid-migration by another worker (their claim).
            if !part.contains_object(oold) || !run.mapping.claim(oold, self.owner) {
                continue;
            }
            effects.claims.push(oold);
            if let Err(e) = run.db.fault.hit(ira_site::EXACT_PARENTS) {
                failure = Some(e);
                break;
            }
            let exact_start = Instant::now();
            let step = find_exact_parents(run.db, &mut txn, oold, &run.state, &keep)
                .and_then(|parents| {
                    self.stats.exact_time += exact_start.elapsed();
                    // Basic-IRA footprint invariant (Section 3.5): after
                    // Find_Exact_Parents the batch transaction holds locks
                    // only on confirmed parents — the current object's and
                    // the kept set from earlier objects in this batch.
                    let allowed: Vec<u64> = keep
                        .iter()
                        .chain(parents.iter())
                        .map(|a| a.to_raw())
                        .collect();
                    lockdep::assert_txn_locks_subset(
                        &allowed,
                        "basic IRA after Find_Exact_Parents",
                    );
                    let migrate_start = Instant::now();
                    let onew = move_object_and_update_refs(
                        run.db,
                        &mut txn,
                        oold,
                        &parents,
                        run.plan,
                        run.config.transform,
                        &run.state,
                        &run.mapping,
                        self.owner,
                        &mut effects,
                    )?;
                    self.stats.migrate_time += migrate_start.elapsed();
                    keep.extend(parents);
                    keep.insert(onew);
                    keep.insert(oold);
                    Ok(())
                });
            if let Err(e) = step {
                failure = Some(e);
                break;
            }
        }
        match failure {
            None => {
                let commit = run
                    .db
                    .fault
                    .hit(ira_site::MIGRATE_COMMIT)
                    .and_then(|()| txn.commit());
                match commit {
                    Ok(()) => {
                        let migrated = effects.migrations.len();
                        for &(old, _) in &effects.migrations {
                            run.mapping.commit(old);
                        }
                        // Counted here, not when the move is staged: a
                        // rolled-back batch migrated nothing.
                        run.db.stats.migrations.add(migrated as u64);
                        // Claims that produced no migration reopen; release
                        // spares the just-committed slots.
                        for &claimed in &effects.claims {
                            run.mapping.release(claimed);
                        }
                        self.stats.ext_locks += keep
                            .iter()
                            .filter(|a| a.partition() != run.partition)
                            .count();
                        Ok(migrated)
                    }
                    Err(e) => {
                        // A failed commit is an abort (the handle rolled the
                        // updates back on drop); the run's in-memory
                        // bookkeeping must roll back with it.
                        effects.revert(run.db, &run.state, &run.mapping);
                        Err(e)
                    }
                }
            }
            Some(e) => {
                txn.abort();
                effects.revert(run.db, &run.state, &run.mapping);
                Err(e)
            }
        }
    }

    /// Migrate one batch with the two-lock extension (each object commits
    /// by itself; on a mid-batch error, earlier objects stay migrated and
    /// the retry skips them via their committed slots).
    fn try_batch_two_lock(&mut self, batch: &[PhysAddr]) -> Result<usize, StoreError> {
        let run = self.run;
        let part = run.db.partition(run.partition)?;
        let mut migrated = 0usize;
        for &oold in batch {
            if !part.contains_object(oold) || !run.mapping.claim(oold, self.owner) {
                continue;
            }
            let migrate_start = Instant::now();
            let outcome = crate::two_lock::migrate_two_lock(
                run.db,
                oold,
                run.plan,
                run.config.transform,
                &run.state,
                &run.mapping,
                self.owner,
                &self.retry,
            );
            self.stats.migrate_time += migrate_start.elapsed();
            match outcome {
                Ok(_) => migrated += 1,
                Err(e) => {
                    run.mapping.release(oold);
                    return Err(e);
                }
            }
        }
        Ok(migrated)
    }
}

impl ReorgRun<'_> {
    fn worker_ctx<'r>(&'r self, owner: OwnerId, stop: &'r AtomicBool) -> WorkerCtx<'r> {
        let retry = RetryPolicy {
            seed: brahma::SeedTree::new(self.config.retry.seed)
                .child("ira.worker")
                .child_idx(owner as u64)
                .seed(),
            ..self.config.retry.clone()
        };
        WorkerCtx {
            run: self,
            owner,
            retry,
            stop,
            throttle: ThrottleWindow {
                batches: 0,
                timeouts_mark: self.db.locks.stats.timeouts.get(),
            },
            stats: WorkerStats::default(),
        }
    }

    fn absorb(&mut self, stats: WorkerStats) {
        self.tally.retries += stats.retries;
        self.tally.ext_locks += stats.ext_locks;
        self.phases.exact_parents += stats.exact_time;
        self.phases.migrate += stats.migrate_time;
    }

    pub(crate) fn execute(mut self) -> Result<IraReport, IraError> {
        // Step two.
        self.migrate()?;

        // Garbage: allocated but never traversed (Section 4.6).
        let phase_start = Instant::now();
        let survivors: HashSet<PhysAddr> = self
            .mapping
            .sorted_committed()
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        let garbage: Vec<PhysAddr> = self
            .db
            .partition(self.partition)
            .map_err(IraError::Store)?
            .live_objects()
            .into_iter()
            .filter(|a| !survivors.contains(a))
            .collect();
        if !garbage.is_empty() {
            // GC gets its own seed stream, like each worker (see WorkerCtx).
            let gc_retry = RetryPolicy {
                seed: brahma::SeedTree::new(self.config.retry.seed)
                    .child("ira.gc")
                    .seed(),
                ..self.config.retry.clone()
            };
            let mut backoff = gc_retry.start();
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

        // The TRT dies with end_reorg; capture its lifetime counters first.
        let (trt_notes, trt_purged) = self
            .db
            .trt(self.partition)
            .map(|t| (t.stats.notes.get(), t.stats.purged.get()))
            .unwrap_or((0, 0));

        self.db.end_reorg(self.partition);
        release_target_space(self.db, self.partition, self.plan);
        // Bound the lifetime of any stale address still in a transaction's
        // local memory before creation in the partition resumes.
        let phase_start = Instant::now();
        let active_at_end = self.db.txns.active_snapshot();
        self.db
            .txns
            .wait_for_all(&active_at_end, self.config.quiesce_wait);
        self.phases.quiesce += phase_start.elapsed();

        Ok(IraReport {
            partition: self.partition,
            mapping: self.mapping.to_hashmap(),
            garbage,
            retries: self.tally.retries,
            throttle_pauses: self.tally.throttle_pauses.into_inner(),
            external_parent_locks: self.tally.ext_locks,
            phases: self.phases,
            trt_notes,
            trt_purged,
            waves: self.tally.waves,
            workers: self.tally.workers,
            deferred: self.tally.deferred,
            duration: self.started.elapsed(),
        })
    }

    /// Step two: migrate the remaining queue. One worker drains it in order
    /// on the calling thread; more plan conflict-disjoint components
    /// ([`crate::wave`]), claim and drain them concurrently, then drain
    /// whatever they deferred in a tail pass on the calling thread.
    fn migrate(&mut self) -> Result<(), IraError> {
        let stop = AtomicBool::new(false);
        if self.config.workers <= 1 {
            self.tally.workers = 1;
            let mut ctx = self.worker_ctx(0, &stop);
            let (done, end) = ctx.drain(&self.state.order[self.pos..], OnExhausted::Fail, self.pos);
            let stats = ctx.stats;
            self.absorb(stats);
            self.pos += done;
            return self.finish_loop(end);
        }

        let remaining = &self.state.order[self.pos..];
        let wave_plan = crate::wave::plan_waves(remaining, &self.state, self.partition);
        self.tally.waves = wave_plan.components.len();
        let nworkers = self.config.workers.min(wave_plan.components.len().max(1));
        self.tally.workers = nworkers;
        self.db.stats.reorg_workers.set(nworkers as u64);
        // Per-worker component deques with back-stealing (see
        // [`crate::wave::StealQueue`]).
        let steal_queue = crate::wave::StealQueue::new(wave_plan.components.len(), nworkers);
        // Why the run must end early, from the first worker to find out; a
        // fatal error outranks a crash (the run fails rather than resumes).
        let early_end: Mutex<Option<LoopEnd>> = Mutex::new(LockClass::WaveDeferred, 0, None);

        let worker_stats: Vec<WorkerStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nworkers)
                .map(|w| {
                    let (db, wave_plan) = (self.db, &wave_plan);
                    let (steal_queue, early_end, stop) = (&steal_queue, &early_end, &stop);
                    let mut ctx = self.worker_ctx(w, stop);
                    s.spawn(move || {
                        brahma::sched::set_thread_label(&format!("wave-{w}"));
                        while !stop.load(AtomicOrd::Relaxed) {
                            let Some((c, stolen)) = steal_queue.claim(w) else {
                                break;
                            };
                            if stolen {
                                db.stats.reorg_wave_steals.inc();
                            }
                            brahma::sched::point("wave.claim", c as u64);
                            let objs = &wave_plan.components[c];
                            if let (_, Some(end)) = ctx.drain(objs, OnExhausted::Defer, c) {
                                let mut slot = early_end.lock();
                                if slot.is_none() || matches!(end, LoopEnd::Fatal(_)) {
                                    *slot = Some(end);
                                }
                                stop.store(true, AtomicOrd::Relaxed);
                            }
                        }
                        ctx.stats
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(stats) => stats,
                    // Surface a worker panic (e.g. a lockdep violation in a
                    // debug build) on the driver thread instead of dying
                    // with a generic scope error.
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        let mut tail: Vec<PhysAddr> = Vec::new();
        for mut stats in worker_stats {
            tail.append(&mut stats.deferred);
            self.absorb(stats);
        }

        let mut end = early_end.into_inner();
        if end.is_none() {
            // Tail pass: whatever the workers deferred, re-packed into queue
            // order. Workers defer chunks in *completion* order, which is
            // schedule-dependent; since queue order is placement order (a
            // Priority plan's list IS the clustering decision), the tail
            // must not scramble it. With nothing deferred the drain is only
            // the end-of-step crash poll.
            if !tail.is_empty() {
                let pos_of: HashMap<PhysAddr, usize> = self.state.order[self.pos..]
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| (a, i))
                    .collect();
                tail.sort_by_cached_key(|&o| (pos_of.get(&o).copied().unwrap_or(usize::MAX), o));
                tail.dedup();
            }
            self.tally.deferred = tail.len();
            let mut ctx = self.worker_ctx(nworkers, &stop);
            end = ctx.drain(&tail, OnExhausted::Fail, 0).1;
            let stats = ctx.stats;
            self.absorb(stats);
        }
        // Migrators stop at batch boundaries, so every slot is committed or
        // released. A restart covers the whole queue; the resume skips
        // committed objects through the mapping.
        self.pos = match end {
            Some(LoopEnd::Crash) => 0,
            _ => self.state.order.len(),
        };
        self.finish_loop(end)
    }

    /// Translate how the migration loop ended into the run's outcome,
    /// applying the error-path cleanup (checkpoint for a crash, release for
    /// a failure).
    fn finish_loop(&mut self, end: Option<LoopEnd>) -> Result<(), IraError> {
        match end {
            None => Ok(()),
            Some(LoopEnd::Crash) => Err(self.crash_now()),
            Some(LoopEnd::Exhausted { object, attempts }) => {
                Err(self.fail(IraError::RetriesExhausted { object, attempts }))
            }
            Some(LoopEnd::Fatal(e)) => Err(self.fail(IraError::Store(e))),
        }
    }

    /// Terminal failure: release the reorganization so the system keeps
    /// running, then hand the error back.
    fn fail(&self, e: IraError) -> IraError {
        self.db.end_reorg(self.partition);
        release_target_space(self.db, self.partition, self.plan);
        e
    }

    /// Convert a latched crash request (or a `crash_after_migrations` trip)
    /// into a simulated crash: checkpoint the run, save the checkpoint
    /// durably so the next [`brahma::CrashImage`] carries it, and leave the
    /// reorganization open — exactly what a stop-the-world failure between
    /// two migration transactions looks like (Section 4.4).
    fn crash_now(&self) -> IraError {
        let _ = self.db.fault.take_crash_request();
        let ckpt = self.checkpoint_at(self.pos);
        self.db
            .save_reorg_checkpoint(self.partition, ckpt.encode());
        IraError::SimulatedCrash(Box::new(ckpt))
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

    /// Snapshot the run at queue position `pos` for crash-restart (Section
    /// 4.4: "the data structures Traversed Objects and Parent Lists can be
    /// checkpointed"). `pos` is explicit because the one-worker drain's
    /// periodic saves run while `self.pos` is stale (it is written back
    /// only when the drain returns).
    fn checkpoint_at(&self, pos: usize) -> IraCheckpoint {
        self.db.fault.observe(ira_site::CHECKPOINT);
        // Fuzzy TRT checkpoint: capture the log position first, then the
        // tuples — replaying from `trt_lsn` may duplicate tuples already in
        // the snapshot, which is conservative (Section 4.4).
        let trt_lsn = self.db.wal.next_lsn();
        // The schedule-critical instant: between the next_lsn read and the
        // dump, concurrent mutators must leave every tuple either in the
        // dump or in a record at lsn >= trt_lsn (note-before-append
        // guarantees it; see brahma::handle::Txn::create_object).
        brahma::sched::point("ira.ckpt.lsn", trt_lsn);
        let trt_snapshot = self
            .db
            .trt(self.partition)
            .map(|t| t.dump())
            .unwrap_or_default();
        IraCheckpoint {
            partition: self.partition,
            plan: self.plan,
            state: self.state.clone(),
            mapping: self.mapping.sorted_committed(),
            queue: self.state.order.clone(),
            pos,
            trt_snapshot,
            trt_lsn,
        }
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
        assert!(c.throttle.is_none());
        assert_eq!(c.workers, 1);
        assert_eq!(c.retry, brahma::RetryPolicy::default());
        assert!(ExecOptions::default().crash_after_migrations.is_none());
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
            &ExecOptions::default(),
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
        let err = run_incremental(
            &db,
            p1,
            RelocationPlan::CompactInPlace,
            &config,
            &ExecOptions::default(),
        )
        .unwrap_err();
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
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(report.migrated(), 1);
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
        let report = run_incremental(
            &db,
            p1,
            RelocationPlan::CompactInPlace,
            &config,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(db.raw_read(report.mapping[&o]).unwrap().tag, 42);
    }
}
