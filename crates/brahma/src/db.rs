//! The assembled database: partitions + lock manager + transaction registry
//! + WAL + reference-table maintenance + reorganization lifecycle.
//!
//! This is the substrate the paper's Section 2 system model describes.
//! Transactions (see [`crate::handle::Txn`]) lock objects through the lock
//! manager, update them under page latches, and log through the WAL; the
//! database keeps each partition's ERT current on every cross-partition
//! reference change and, while a reorganization is active, feeds the
//! partition's TRT — inline, at pointer-update time (footnote 7).

use crate::addr::{PartitionId, PhysAddr};
use crate::config::StoreConfig;
use crate::error::{Error, Result};
use crate::fault::{site, FaultInjector};
use crate::lock::LockManager;
use crate::lockdep::{LockClass, Mutex, RwLock};
use crate::retry::RetryStats;
use crate::object::{self, ObjectView};
use crate::partition::Partition;
use crate::trt::{RefAction, Trt};
use crate::txn::{TxnId, TxnManager};
use crate::wal::{LogPayload, Wal};
use obs::Counter;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A pluggable CPU cost model. The paper's experiments ran on a single-CPU
/// machine where the reorganizer's work competed with transactions for the
/// same processor; installing a model here charges one unit of CPU per
/// object access — by workload transactions and the reorganization utility
/// alike — so that contention behaviour can be reproduced on many-core
/// hosts (see the `workload` crate's `CpuModel`).
pub trait CpuCharge: Send + Sync {
    /// Perform one object access worth of CPU work.
    fn access(&self);

    /// Perform one access worth of work for the object at `addr`.
    ///
    /// Address-aware models (a paged memory hierarchy, for instance) use
    /// the partition/page bits to price locality; the default ignores the
    /// address. Every charge site that knows which object it is touching
    /// calls this variant.
    fn access_at(&self, _addr: PhysAddr) {
        self.access();
    }
}

/// Store-wide operation counters (`obs` primitives; read for reporting
/// only).
#[derive(Debug, Default)]
pub struct DbStats {
    pub commits: Counter,
    pub aborts: Counter,
    pub creates: Counter,
    pub frees: Counter,
    pub ref_inserts: Counter,
    pub ref_deletes: Counter,
    pub payload_writes: Counter,
    pub fuzzy_reads: Counter,
    pub migrations: Counter,
}

impl DbStats {
    /// Export every counter into `snap` under `db.*` keys.
    pub fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("db.commits", self.commits.get());
        snap.set("db.aborts", self.aborts.get());
        snap.set("db.creates", self.creates.get());
        snap.set("db.frees", self.frees.get());
        snap.set("db.ref_inserts", self.ref_inserts.get());
        snap.set("db.ref_deletes", self.ref_deletes.get());
        snap.set("db.payload_writes", self.payload_writes.get());
        snap.set("db.fuzzy_reads", self.fuzzy_reads.get());
        snap.set("db.migrations", self.migrations.get());
    }
}

/// An update displaced a value other than the one its record names: the
/// page and the log disagree.
#[cold]
fn displaced(
    update: &str,
    at: PhysAddr,
    found: &dyn std::fmt::Debug,
    logged: &dyn std::fmt::Debug,
) -> Error {
    Error::RecoveryCorrupt(format!(
        "{update} at {at} displaced {found:?}, but the record names {logged:?}"
    ))
}

/// Fan-out of each of the partition table's two levels: 256 × 256 slots
/// cover the whole `u16` id space.
const PARTITION_FANOUT: usize = 256;

type PartitionLeaf = [OnceLock<Arc<Partition>>; PARTITION_FANOUT];

/// The database's partitions, indexed by id. Partitions are only ever
/// appended, never removed or replaced, so a lookup is two loads of
/// write-once cells — no lock and no reference-count traffic on the page
/// access path — and hands out a borrow that lives as long as the table.
struct PartitionTable {
    leaves: [OnceLock<Box<PartitionLeaf>>; PARTITION_FANOUT],
    /// Number of partitions; every id below it is installed.
    count: AtomicUsize,
    /// Serializes appends, so ids are handed out sequentially.
    grow: Mutex<()>,
}

impl PartitionTable {
    fn new() -> Self {
        PartitionTable {
            leaves: [const { OnceLock::new() }; PARTITION_FANOUT],
            count: AtomicUsize::new(0),
            grow: Mutex::new(LockClass::DbPartitions, 0, ()),
        }
    }

    fn get(&self, id: PartitionId) -> Option<&Arc<Partition>> {
        let i = id.0 as usize;
        self.leaves[i / PARTITION_FANOUT].get()?[i % PARTITION_FANOUT].get()
    }

    fn len(&self) -> usize {
        // ordering: Acquire pairs with the Release store in push; ids below the count resolve
        self.count.load(Ordering::Acquire)
    }

    fn iter(&self) -> impl Iterator<Item = &Arc<Partition>> {
        (0..self.len()).filter_map(|i| self.get(PartitionId(i as u16)))
    }

    /// Append the partition `make` builds for the next free id.
    fn push(&self, make: impl FnOnce(PartitionId) -> Partition) -> PartitionId {
        let _grow = self.grow.lock();
        // ordering: Relaxed; every store is made under the `grow` mutex held here
        let i = self.count.load(Ordering::Relaxed);
        assert!(i <= u16::MAX as usize, "partition ids are u16");
        let id = PartitionId(i as u16);
        let leaf = self.leaves[i / PARTITION_FANOUT]
            .get_or_init(|| Box::new([const { OnceLock::new() }; PARTITION_FANOUT]));
        let fresh = leaf[i % PARTITION_FANOUT].set(Arc::new(make(id))).is_ok();
        assert!(fresh, "partition slot {i} installed twice");
        // ordering: Release pairs with the Acquire load in len
        self.count.store(i + 1, Ordering::Release);
        id
    }
}

/// The object database.
pub struct Database {
    pub config: StoreConfig,
    partitions: PartitionTable,
    pub locks: LockManager,
    pub txns: TxnManager,
    pub wal: Wal,
    /// Partitions with a reorganization in progress, with their TRTs.
    reorg_tables: RwLock<HashMap<PartitionId, Arc<Trt>>>,
    /// Log pins covering each active reorganization's TRT window.
    reorg_pins: Mutex<HashMap<PartitionId, crate::wal::PinId>>,
    /// Durable reorganizer checkpoints, keyed by partition: the latest
    /// serialized progress record the reorganization utility wrote for each
    /// active reorganization. Survives a [`crate::recovery::CrashImage`] so
    /// restart recovery can hand interrupted reorganizations back to the
    /// utility for resumption (Section 3.7's restartability).
    reorg_checkpoints: Mutex<HashMap<PartitionId, Vec<u8>>>,
    /// Persistent roots (Section 2). Conceptually these live in a dedicated
    /// root partition; threads obtain their walk entry points here.
    roots: Mutex<Vec<PhysAddr>>,
    /// Optional CPU cost model (see [`CpuCharge`]).
    cpu: RwLock<Option<Arc<dyn CpuCharge>>>,
    /// Whether `cpu` holds a model. With none installed (raw mode) every
    /// object access returns on this flag without touching the lock.
    cpu_installed: AtomicBool,
    pub stats: DbStats,
    /// Deterministic fault injection (disarmed — one relaxed load per site
    /// check — unless a test arms a plan). See [`crate::fault`]. Shared
    /// (`Arc`) so an attached [`crate::storage::FileBackend`] fires the
    /// same plans at its `file.*` sites.
    pub fault: Arc<FaultInjector>,
    /// Store-wide retry accounting shared by every retry loop built on
    /// [`crate::retry::RetryPolicy`].
    pub retry_stats: RetryStats,
    /// Durability backend (DESIGN.md §14). `None` — the in-memory
    /// simulator — unless [`Database::attach_backend`] installed one.
    backend: std::sync::OnceLock<Arc<crate::storage::FileBackend>>,
}

impl Database {
    /// Create an empty database.
    pub fn new(config: StoreConfig) -> Self {
        Database {
            locks: LockManager::new(crate::lock::DB_SHARDS, config.lock_timeout),
            txns: TxnManager::new(),
            wal: Wal::new(config.wal_retain, config.commit_flush_latency),
            reorg_tables: RwLock::new(LockClass::DbReorgTables, 0, HashMap::new()),
            reorg_pins: Mutex::new(LockClass::DbReorgPins, 0, HashMap::new()),
            reorg_checkpoints: Mutex::new(LockClass::DbReorgCkpt, 0, HashMap::new()),
            roots: Mutex::new(LockClass::DbRoots, 0, Vec::new()),
            cpu: RwLock::new(LockClass::DbCpu, 0, None),
            cpu_installed: AtomicBool::new(false),
            stats: DbStats::default(),
            fault: Arc::new(FaultInjector::new()),
            retry_stats: RetryStats::default(),
            partitions: PartitionTable::new(),
            backend: std::sync::OnceLock::new(),
            config,
        }
    }

    /// Install the durability backend (once, at open time): every WAL
    /// append from here on is mirrored to it, and checkpoints go through
    /// [`crate::storage::FileBackend::write_checkpoint`].
    pub fn attach_backend(&self, backend: Arc<crate::storage::FileBackend>) {
        let _ = self.backend.set(Arc::clone(&backend));
        self.wal.set_sink(backend);
    }

    /// The attached durability backend, if any.
    pub fn backend(&self) -> Option<&Arc<crate::storage::FileBackend>> {
        self.backend.get()
    }

    /// Install (or clear) the CPU cost model.
    pub fn set_cpu_model(&self, model: Option<Arc<dyn CpuCharge>>) {
        let mut slot = self.cpu.write();
        // ordering: Release pairs with the Acquire load in cpu_model; the model itself is read under the `cpu` lock
        self.cpu_installed.store(model.is_some(), Ordering::Release);
        *slot = model;
    }

    /// The installed CPU model, if any.
    #[inline]
    fn cpu_model(&self) -> Option<Arc<dyn CpuCharge>> {
        // ordering: Acquire pairs with the Release store in set_cpu_model
        if !self.cpu_installed.load(Ordering::Acquire) {
            return None;
        }
        self.cpu.read().clone()
    }

    /// Charge one object access against the installed CPU model, if any.
    #[inline]
    pub(crate) fn charge_access(&self) {
        if let Some(model) = self.cpu_model() {
            model.access();
        }
    }

    /// Charge one access to the object at `addr` against the installed CPU
    /// model, if any — the address-aware variant every site that knows its
    /// target uses, so locality-sensitive models can price page residency.
    #[inline]
    pub(crate) fn charge_access_at(&self, addr: PhysAddr) {
        if let Some(model) = self.cpu_model() {
            model.access_at(addr);
        }
    }

    // ------------------------------------------------------------------
    // Partitions and roots
    // ------------------------------------------------------------------

    /// Create a new empty partition, returning its id.
    pub fn create_partition(&self) -> PartitionId {
        let id = self.partitions.push(Partition::new);
        self.wal
            .append(TxnId(0), LogPayload::CreatePartition { id });
        id
    }

    /// Install a pre-built partition (restart recovery).
    pub(crate) fn install_partition(&self, partition: Partition) {
        self.partitions.push(|id| {
            assert_eq!(
                partition.id(),
                id,
                "partitions must be installed in id order"
            );
            partition
        });
    }

    /// Borrow a partition: the lock-free lookup behind every page access.
    pub(crate) fn partition_ref(&self, id: PartitionId) -> Result<&Arc<Partition>> {
        self.partitions.get(id).ok_or(Error::NoSuchPartition(id.0))
    }

    /// Fetch a partition handle.
    pub fn partition(&self, id: PartitionId) -> Result<Arc<Partition>> {
        self.partition_ref(id).cloned()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// All partition ids.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        (0..self.partition_count() as u16).map(PartitionId).collect()
    }

    /// Register a persistent root.
    pub fn add_root(&self, addr: PhysAddr) {
        self.roots.lock().push(addr);
    }

    /// Snapshot of the persistent roots.
    pub fn roots(&self) -> Vec<PhysAddr> {
        self.roots.lock().clone()
    }

    /// Rewrite a root entry after the root object itself migrated.
    pub fn replace_root(&self, old: PhysAddr, new: PhysAddr) -> bool {
        let mut roots = self.roots.lock();
        match roots.iter_mut().find(|r| **r == old) {
            Some(slot) => {
                *slot = new;
                true
            }
            None => false,
        }
    }

    /// Whether `addr` is a registered root.
    pub fn is_root(&self, addr: PhysAddr) -> bool {
        self.roots.lock().contains(&addr)
    }

    // ------------------------------------------------------------------
    // Latch-level page access
    // ------------------------------------------------------------------

    /// Run `f` over the page bytes of `addr` under the page's read latch.
    pub(crate) fn with_page_read<R>(
        &self,
        addr: PhysAddr,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.fault.observe(site::PAGE_LATCH);
        let page = self.partition_ref(addr.partition())?.page(addr.page())?;
        let guard = page.read();
        Ok(f(guard.bytes()))
    }

    /// Run `f` over the page bytes of `addr` under the page's write latch.
    pub(crate) fn with_page_write<R>(
        &self,
        addr: PhysAddr,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        self.fault.observe(site::PAGE_LATCH);
        let page = self.partition_ref(addr.partition())?.page(addr.page())?;
        let mut guard = page.write();
        Ok(f(guard.bytes_mut()))
    }

    /// Fuzzy (latch-only) read of an object's outgoing references: the read
    /// primitive of the fuzzy traversal (Section 3.4). Returns `None` when
    /// the address does not name a live object — stale addresses observed
    /// during a fuzzy traversal are simply skipped.
    pub fn fuzzy_read_refs(&self, addr: PhysAddr) -> Option<Vec<PhysAddr>> {
        self.fuzzy_with_refs(addr, |refs| refs.collect())
    }

    /// [`Database::fuzzy_read_refs`] without the copy, the fuzzy twin of
    /// [`Txn::with_refs`](crate::handle::Txn::with_refs): run `f` over the
    /// references where they lie, under the page latch. `f` must not
    /// re-enter the store.
    pub fn fuzzy_with_refs<R>(&self, addr: PhysAddr, f: impl FnOnce(object::Refs<'_>) -> R) -> Option<R> {
        self.stats.fuzzy_reads.inc();
        self.charge_access_at(addr);
        self.with_page_read(addr, |buf| object::refs(buf, addr).ok().map(f))
            .ok()
            .flatten()
    }

    /// Fuzzy (latch-only) read of a whole object.
    pub fn fuzzy_read(&self, addr: PhysAddr) -> Option<ObjectView> {
        self.with_page_read(addr, |buf| object::read_view(buf, addr).ok())
            .ok()
            .flatten()
    }

    /// Unlocked full read, for verification sweeps and recovery (callers
    /// guarantee quiescence or hold the relevant locks).
    pub fn raw_read(&self, addr: PhysAddr) -> Result<ObjectView> {
        self.with_page_read(addr, |buf| object::read_view(buf, addr))?
    }

    // ------------------------------------------------------------------
    // Reorganization lifecycle
    // ------------------------------------------------------------------

    /// Begin a reorganization of `partition`: create its TRT, log the start
    /// marker, pin the log (so the TRT stays reconstructible), and — when
    /// transactions do not follow strict 2PL — enable the lock manager's
    /// ever-held tracking (Section 4.1).
    pub fn start_reorg(&self, partition: PartitionId) -> Result<Arc<Trt>> {
        self.partition_ref(partition)?;
        let mut tables = self.reorg_tables.write();
        assert!(
            !tables.contains_key(&partition),
            "partition {partition} is already under reorganization"
        );
        let lsn = self
            .wal
            .append(TxnId(0), LogPayload::ReorgStart { partition });
        self.reorg_pins
            .lock()
            .insert(partition, self.wal.pin_at(lsn));
        if !self.config.strict_2pl {
            self.locks.set_history_tracking(true);
        }
        let trt = Arc::new(Trt::new(partition));
        tables.insert(partition, Arc::clone(&trt));
        Ok(trt)
    }

    /// End the reorganization of `partition`: drop its TRT, release the
    /// space the reorganizer freed, and log the end marker.
    pub fn end_reorg(&self, partition: PartitionId) {
        let mut tables = self.reorg_tables.write();
        tables.remove(&partition);
        if tables.is_empty() {
            self.locks.set_history_tracking(false);
        }
        drop(tables);
        if let Some(pin) = self.reorg_pins.lock().remove(&partition) {
            self.wal.unpin(pin);
        }
        self.reorg_checkpoints.lock().remove(&partition);
        if let Ok(part) = self.partition_ref(partition) {
            part.flush_deferred_frees();
        }
        self.wal
            .append(TxnId(0), LogPayload::ReorgEnd { partition });
    }

    /// Whether `partition` has a reorganization in progress.
    pub fn reorg_active(&self, partition: PartitionId) -> bool {
        self.reorg_tables.read().contains_key(&partition)
    }

    /// Sorted ids of every partition with a reorganization in progress.
    pub fn active_reorg_ids(&self) -> Vec<PartitionId> {
        let mut v: Vec<_> = self.reorg_tables.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Durably record the reorganization utility's serialized progress for
    /// `partition` (replacing any previous record). The bytes survive a
    /// crash in the [`crate::recovery::CrashImage`] and are handed back by
    /// [`crate::recovery::recover`] when the reorganization was interrupted.
    pub fn save_reorg_checkpoint(&self, partition: PartitionId, bytes: Vec<u8>) {
        if self.backend.get().is_some() {
            // With a file backend the side table alone would die with the
            // process; log the blob so a cold restart recovers the latest
            // one per partition from the segments.
            self.wal.append(
                TxnId(0),
                LogPayload::ReorgCheckpoint {
                    partition,
                    blob: bytes.clone(),
                },
            );
        }
        self.reorg_checkpoints.lock().insert(partition, bytes);
    }

    /// The latest saved reorganizer checkpoint for `partition`, if any.
    pub fn reorg_checkpoint(&self, partition: PartitionId) -> Option<Vec<u8>> {
        self.reorg_checkpoints.lock().get(&partition).cloned()
    }

    /// Snapshot of every saved reorganizer checkpoint (crash capture).
    pub(crate) fn reorg_checkpoint_snapshot(&self) -> Vec<(PartitionId, Vec<u8>)> {
        let mut v: Vec<_> = self
            .reorg_checkpoints
            .lock()
            .iter()
            .map(|(p, b)| (*p, b.clone()))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// The TRT of `partition`, when a reorganization is active.
    pub fn trt(&self, partition: PartitionId) -> Option<Arc<Trt>> {
        self.reorg_tables.read().get(&partition).cloned()
    }

    /// Effective TRT purge setting: the Section 4.5 optimization applies
    /// only under strict 2PL.
    pub fn trt_purge_enabled(&self) -> bool {
        self.config.trt_purge && self.config.strict_2pl
    }

    // ------------------------------------------------------------------
    // What an update record does: physical effect, ERT/TRT notes
    // ------------------------------------------------------------------

    /// Perform the physical effect of one update record: the page write
    /// under the page latch plus the allocator effect. The only caller of
    /// the `object::` page mutators — forward mutators, rollback, restart
    /// REDO and loser UNDO all land here. A value the update displaces that
    /// is not the one the record names is corruption, not a conflict.
    ///
    /// `reorg_for` defers the release of space the reorganizer of that
    /// partition frees; `slot_claimed` says the allocator already handed
    /// out a `Create`'s address ([`Txn::create_object`] had to allocate to
    /// learn the address it logs).
    ///
    /// [`Txn::create_object`]: crate::handle::Txn::create_object
    pub(crate) fn apply_update(
        &self,
        update: &LogPayload,
        reorg_for: Option<PartitionId>,
        slot_claimed: bool,
    ) -> Result<()> {
        match update {
            LogPayload::Create { addr, image } => {
                if !slot_claimed {
                    self.partition_ref(addr.partition())?
                        .alloc_at(*addr, image.size())?;
                }
                self.with_page_write(*addr, |buf| object::init_object(buf, *addr, image))?;
            }
            LogPayload::Free { addr, .. } => {
                self.with_page_write(*addr, |buf| object::mark_free(buf, *addr))??;
                let part = self.partition_ref(addr.partition())?;
                if reorg_for == Some(addr.partition()) {
                    part.free_deferred(*addr)?;
                } else {
                    part.free(*addr)?;
                }
            }
            LogPayload::SetPayload { addr, old, new } => {
                self.with_page_write(*addr, |buf| {
                    let was = object::payload(buf, *addr)?;
                    if was != old.as_slice() {
                        return Err(displaced("SetPayload", *addr, &was, old));
                    }
                    object::set_payload(buf, *addr, new)
                })??;
            }
            LogPayload::InsertRef {
                parent,
                child,
                index,
            } => {
                self.with_page_write(*parent, |buf| {
                    object::insert_ref_at(buf, *parent, *index, *child)
                })??;
            }
            LogPayload::DeleteRef {
                parent,
                child,
                index,
            } => {
                let was = self
                    .with_page_write(*parent, |buf| object::remove_ref_at(buf, *parent, *index))??;
                if was != *child {
                    return Err(displaced("DeleteRef", *parent, &was, child));
                }
            }
            LogPayload::SetRef {
                parent,
                index,
                old_child,
                new_child,
            } => {
                let was = self.with_page_write(*parent, |buf| {
                    object::set_ref(buf, *parent, *index, *new_child)
                })??;
                if was != *old_child {
                    return Err(displaced("SetRef", *parent, &was, old_child));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Mirror one reference change into the child partition's ERT
    /// (cross-partition edges only).
    pub(crate) fn ert_note(
        &self,
        action: RefAction,
        parent: PhysAddr,
        child: PhysAddr,
    ) -> Result<()> {
        if parent.partition() != child.partition() {
            let ert = &self.partition_ref(child.partition())?.ert;
            match action {
                RefAction::Insert => ert.insert(child, parent),
                RefAction::Delete => {
                    ert.remove(child, parent);
                }
            }
        }
        Ok(())
    }

    /// Record that `parent` gains (`Insert`) or is about to lose (`Delete`)
    /// its reference to `child`: the ERT follows every cross-partition
    /// edge, and if the child's partition is under reorganization the
    /// change is noted in its TRT (reorganizer transactions are exempt for
    /// their own partition). A delete reaches the TRT **before** it leaves
    /// the ERT, and the caller invokes this before the physical update (the
    /// paper's rule for pointer deletes, Section 3.3).
    pub(crate) fn note_ref_change(
        &self,
        tid: TxnId,
        reorg_for: Option<PartitionId>,
        action: RefAction,
        parent: PhysAddr,
        child: PhysAddr,
    ) {
        let (counter, point) = match action {
            RefAction::Insert => (&self.stats.ref_inserts, "db.note_insert"),
            RefAction::Delete => (&self.stats.ref_deletes, "db.note_delete"),
        };
        counter.inc();
        crate::sched::point(point, child.to_raw());
        // A reference into a partition that does not exist has no ERT to
        // keep: the `ert_note` error is not this update's to report.
        if action == RefAction::Insert {
            let _ = self.ert_note(action, parent, child);
        }
        if reorg_for != Some(child.partition()) {
            if let Some(trt) = self.reorg_tables.read().get(&child.partition()) {
                trt.note(child, parent, tid, action);
            }
        }
        if action == RefAction::Delete {
            let _ = self.ert_note(action, parent, child);
        }
    }

    /// One observability snapshot over the whole substrate: operation
    /// counters (`db.*`), lock manager (`lock.*`), WAL (`wal.*`), the ERTs
    /// of every partition (`ert.*`, summed), and any live reorganizations'
    /// TRTs (`trt.*`, summed). Diff two snapshots taken around an interval
    /// to get the interval's activity ([`obs::Snapshot::diff`]).
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        self.stats.export(&mut snap);
        self.locks.stats.export(&mut snap);
        snap.set("lock.table_size", self.locks.table_size() as u64);
        self.wal.stats.export(&mut snap);
        let (retained_records, retained_bytes) = self.wal.retained();
        snap.set("wal.retained_records", retained_records as u64);
        snap.set("wal.retained_bytes", retained_bytes as u64);

        let mut ert_inserts = 0;
        let mut ert_removes = 0;
        let mut ert_rekeys = 0;
        let mut ert_edges = 0u64;
        for part in self.partitions.iter() {
            ert_inserts += part.ert.stats.inserts.get();
            ert_removes += part.ert.stats.removes.get();
            ert_rekeys += part.ert.stats.rekeys.get();
            ert_edges += part.ert.edge_count() as u64;
        }
        snap.set("ert.inserts", ert_inserts);
        snap.set("ert.removes", ert_removes);
        snap.set("ert.rekeys", ert_rekeys);
        snap.set("ert.edges", ert_edges);

        let mut trt_notes = 0;
        let mut trt_purged = 0;
        let mut trt_tuples = 0u64;
        for trt in self.reorg_tables.read().values() {
            trt_notes += trt.stats.notes.get();
            trt_purged += trt.stats.purged.get();
            trt_tuples += trt.len() as u64;
        }
        snap.set("trt.notes", trt_notes);
        snap.set("trt.purged", trt_purged);
        snap.set("trt.tuples", trt_tuples);
        self.retry_stats.export(&mut snap);
        self.fault.export(&mut snap);
        if let Some(backend) = self.backend.get() {
            backend.stats.export(&mut snap);
        }
        snap.set("lockdep.violations", crate::lockdep::violations());
        snap
    }

    /// Apply the commit-time TRT purges (Section 4.5) for a completed
    /// transaction. `deleted_pairs` are the `(child, parent)` reference
    /// deletions the transaction performed, used for the insert-pair purge
    /// on commit (`committed == true`); with none it noted no delete tuple.
    pub(crate) fn purge_trt_for_txn(
        &self,
        tid: TxnId,
        committed: bool,
        deleted_pairs: &[(PhysAddr, PhysAddr)],
    ) {
        if !self.trt_purge_enabled() || deleted_pairs.is_empty() {
            return;
        }
        let tables = self.reorg_tables.read();
        for trt in tables.values() {
            trt.purge_txn_deletes(tid);
        }
        if committed {
            for &(child, parent) in deleted_pairs {
                if let Some(trt) = tables.get(&child.partition()) {
                    trt.purge_insert_pair(child, parent, tid);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_get_sequential_ids() {
        let db = Database::new(StoreConfig::default());
        assert_eq!(db.create_partition(), PartitionId(0));
        assert_eq!(db.create_partition(), PartitionId(1));
        assert_eq!(db.partition_count(), 2);
        assert!(db.partition(PartitionId(2)).is_err());
    }

    #[test]
    fn concurrent_create_partition_hands_out_sequential_ids() {
        let db = Database::new(StoreConfig::default());
        // 4 × 80 crosses the first leaf boundary (256).
        let mut ids: Vec<u16> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..80).map(|_| db.create_partition().0).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("creator thread"))
                .collect()
        });
        ids.sort_unstable();
        assert_eq!(ids, (0..320).collect::<Vec<u16>>());
        assert_eq!(db.partition_count(), 320);
        for id in db.partition_ids() {
            assert_eq!(db.partition(id).unwrap().id(), id);
        }
        for beyond in [320, 321, 511, 512, u16::MAX] {
            assert!(matches!(
                db.partition(PartitionId(beyond)),
                Err(Error::NoSuchPartition(b)) if b == beyond
            ));
        }
    }

    #[test]
    fn recovery_installs_partitions_in_id_order() {
        let db = Database::new(StoreConfig::default());
        for _ in 0..3 {
            db.create_partition();
        }
        let image = db.crash(db.checkpoint(1), true);
        let out = crate::recovery::recover(image, StoreConfig::default()).unwrap();
        assert_eq!(out.db.partition_ids(), db.partition_ids());
        // The recovered store keeps appending where the old one stopped.
        assert_eq!(out.db.create_partition(), PartitionId(3));
    }

    #[test]
    #[should_panic(expected = "installed in id order")]
    fn install_partition_rejects_a_gap() {
        let db = Database::new(StoreConfig::default());
        db.install_partition(Partition::new(PartitionId(1)));
    }

    #[test]
    fn roots_roundtrip() {
        let db = Database::new(StoreConfig::default());
        let a = PhysAddr::new(PartitionId(0), 0, 0);
        let b = PhysAddr::new(PartitionId(0), 0, 64);
        db.add_root(a);
        assert!(db.is_root(a));
        assert!(db.replace_root(a, b));
        assert!(!db.is_root(a));
        assert!(db.is_root(b));
        assert!(!db.replace_root(a, b));
    }

    #[test]
    fn reorg_lifecycle_creates_and_drops_trt() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        assert!(!db.reorg_active(p));
        let trt = db.start_reorg(p).unwrap();
        assert!(db.reorg_active(p));
        assert!(Arc::ptr_eq(&db.trt(p).unwrap(), &trt));
        db.end_reorg(p);
        assert!(!db.reorg_active(p));
        assert!(db.trt(p).is_none());
    }

    #[test]
    fn reorg_enables_history_tracking_when_not_strict() {
        let config = StoreConfig {
            strict_2pl: false,
            ..StoreConfig::default()
        };
        let db = Database::new(config);
        let p = db.create_partition();
        assert!(!db.locks.history_tracking());
        db.start_reorg(p).unwrap();
        assert!(db.locks.history_tracking());
        db.end_reorg(p);
        assert!(!db.locks.history_tracking());
    }

    #[test]
    fn obs_snapshot_covers_every_subsystem() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        db.start_reorg(p).unwrap();
        let snap = db.obs_snapshot();
        for key in [
            "db.commits",
            "lock.acquisitions",
            "lock.table_size",
            "wal.records",
            "ert.inserts",
            "ert.edges",
            "trt.notes",
            "trt.tuples",
        ] {
            assert!(
                snap.iter().any(|(k, _)| k == key),
                "snapshot is missing key {key}"
            );
        }
        // CreatePartition + ReorgStart were logged.
        assert!(snap.get("wal.records") >= 2);
        db.end_reorg(p);
    }

    #[test]
    fn fuzzy_read_of_garbage_is_none() {
        let db = Database::new(StoreConfig::default());
        let p = db.create_partition();
        let part = db.partition(p).unwrap();
        let addr = part.allocate(64).unwrap();
        // Allocated but never initialized: fuzzy readers must skip it.
        assert!(db.fuzzy_read_refs(addr).is_none());
        assert!(db.fuzzy_read(addr).is_none());
        assert!(db.raw_read(addr).is_err());
    }
}
