//! Runtime lock-order checking ("lockdep") for the substrate.
//!
//! Every mutex, rwlock-latch, and condvar in `brahma` (and the sharded
//! structures in `ira`) is wrapped by the types in this module. Each wrapper
//! carries a [`LockClass`] — a *type* of lock, not an instance — plus an
//! `order_key` distinguishing instances inside a class (shard index,
//! partition id). On every acquisition the checker:
//!
//! 1. records a **held-before edge** `C_held -> C_new` in a global class
//!    graph for every class currently held by the acquiring thread, and
//!    detects cycles at edge-insert time (a cycle means two threads can
//!    acquire the same two classes in opposite orders — a potential
//!    deadlock, reported even if it never deadlocks in this run);
//! 2. enforces the **same-class instance order**: nested acquisitions inside
//!    one class must take strictly increasing `order_key`s, which catches
//!    ABBA inversions between two shards of the same structure that the
//!    class graph (one node per class) cannot see.
//!
//! On top of the ordering graph, the module tracks the *logical* lock
//! footprint of the running thread — the set of object addresses it holds
//! through the lock manager — and exposes the paper's per-variant invariants
//! as assertions: fuzzy traversal holds no locks ([`fuzzy_region`]), the
//! two-lock variant never exceeds two distinct objects ([`two_lock_region`],
//! with `O_old`/`O_new` aliased as one object), basic IRA holds only the
//! batch's confirmed parent set ([`assert_txn_locks_subset`]), and the
//! migrator is lock-free at batch boundaries ([`assert_no_txn_locks`]).
//! `might_block`, called before each product `thread::sleep`, checks that
//! nothing sleeps under a wrapped lock.
//!
//! A violation **panics** in debug builds (tests fail loudly) and is
//! otherwise **counted** in the `lockdep.violations` counter that
//! `Database::obs_snapshot` exports. Diagnostics include both class chains:
//! the acquiring thread's current stack and the chain recorded when the
//! conflicting edge was first inserted.
//!
//! The checker is armed when `debug_assertions` are on or the `lockdep`
//! cargo feature is enabled. The wrapper types are the same either way;
//! with the checker off they carry no tag, and `acquire`/`release` and the
//! footprint functions return on the `ARMED` constant before touching the
//! graph, a thread-local or an atomic, so a wrapper has the layout of the
//! `std::sync` type it wraps and a call compiles to the `std::sync` one.
//!
//! A panic under one of these locks does not poison it: the next thread
//! gets the guard and the data as the panicking thread left it, so one
//! failing thread does not turn every later acquisition into a panic too.
#![expect(
    clippy::disallowed_types,
    reason = "the instrumentation layer: the one place raw std::sync locks may appear"
)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{self, PoisonError};
use std::time::Instant;

/// A type of lock. One node in the held-before graph.
///
/// Keep this list in sync with DESIGN.md §11.1 (`ci.sh` checks the variants
/// and the catalog's first column are the same set). At most 32 classes:
/// the edge set is a `u32` bitmask per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockClass {
    /// One shard of the lock manager's hash table (`lock::Shard::table`).
    LockTableShard = 0,
    /// A page latch (`page::PageRef`'s `RwLock<Page>`).
    PageLatch,
    /// One WAL lane (`Wal::lanes`); a cut takes them all in ascending index.
    WalInner,
    /// The WAL group-commit leader flag (`Wal::flush_leader`).
    WalFlushLeader,
    /// A Temporary Reference Table (`Trt::inner`).
    TrtInner,
    /// An External Reference Table (`Ert::inner`).
    ErtInner,
    /// A partition's allocator state (`Partition::alloc`).
    PartitionAlloc,
    /// A partition's page vector (`Partition::pages`).
    PartitionPages,
    /// One slot of the active-transaction registry (`TxnManager::slots`).
    TxnRegistry,
    /// Appends to the database's partition table (`Database::partitions`);
    /// lookups are lock-free.
    DbPartitions,
    /// The persistent-root registry (`Database::roots`).
    DbRoots,
    /// The open-reorganization TRT map (`Database::reorg_tables`).
    DbReorgTables,
    /// The virtual-CPU model hook (`Database::cpu`).
    DbCpu,
    /// The fault injector's rule state (`FaultInjector::state`).
    FaultState,
    /// The file backend's segment-writer state (`storage::FileBackend`).
    /// The append mirror takes it *inside* lane 0's mutex (`WalInner` →
    /// `FileBackend`), which is what keeps the segment in LSN order.
    FileBackend,
    /// Reserved for lockdep's own tests.
    TestA,
    /// Reserved for lockdep's own tests.
    TestB,
}

/// Whether the checker runs. A constant, so in a plain release build every
/// `if !ARMED` return below is the whole function.
const ARMED: bool = cfg!(any(debug_assertions, feature = "lockdep"));

/// The `(class, order_key)` a wrapper carries for the checker: one element
/// when armed, none otherwise — so in a plain release build the wrappers
/// have exactly the layout of the `std::sync` types they wrap. (Sixteen
/// bytes in every lock shift the fields of every structure that embeds one
/// across cache lines: carried unconditionally, `walk_update` read
/// 0.93–0.95× the parent's throughput, ahead in 8 of 30 pairs.)
type Tag = [(LockClass, u64); ARMED as usize];

const N: usize = LockClass::TestB as usize + 1;

/// `EDGES[a] & (1 << b)` means "a was held while b was acquired".
static EDGES: [AtomicU32; N] = [const { AtomicU32::new(0) }; N];
/// Total violations, process-wide (exported as `lockdep.violations`).
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);
/// For each recorded edge, the class chain of the thread that inserted
/// it — the "other stack" half of a cycle diagnostic. Also serializes
/// first-time edge inserts so concurrent inserts cannot close a cycle
/// undetected. lockdep's own state uses `std::sync` so the checker never
/// instruments itself.
static PROVENANCE: sync::Mutex<BTreeMap<(LockClass, LockClass), String>> =
    sync::Mutex::new(BTreeMap::new());

struct HeldEntry {
    class: LockClass,
    order_key: u64,
    id: u64,
    /// Shared (read) acquisition: read-read recursion on one class is
    /// exempt from the same-class order rule, since readers never block
    /// each other. Cross-class edges are recorded regardless of mode.
    shared: bool,
}

#[derive(Default)]
struct TwoLockState {
    depth: u32,
    /// (a, b) pairs counted as one logical object (`O_old`/`O_new`).
    aliases: Vec<(u64, u64)>,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    /// Depth of `tolerate` scopes: violations are counted, not panicked.
    static TOLERATE: Cell<u32> = const { Cell::new(0) };
    /// Violations raised by *this thread* (so tests can measure deltas
    /// without interference from parallel tests).
    static TL_VIOLATIONS: Cell<u64> = const { Cell::new(0) };
    /// Object addresses this thread holds through the lock manager
    /// (a set: re-grants and upgrades of a held address do not stack,
    /// mirroring `Txn`'s single release per address at completion).
    static TXN_LOCKS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static FUZZY_DEPTH: Cell<u32> = const { Cell::new(0) };
    static TWO_LOCK: RefCell<TwoLockState> =
        const { RefCell::new(TwoLockState { depth: 0, aliases: Vec::new() }) };
}

// ------------------------------------------------------------ engine --

fn violation(msg: &str) {
    // ordering: violation tally; no synchronization derived from the count
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    TL_VIOLATIONS.with(|c| c.set(c.get() + 1));
    let tolerated = TOLERATE.with(|t| t.get()) > 0;
    if !tolerated && cfg!(debug_assertions) {
        panic!("lockdep: {msg}");
    }
}

fn chain_str(held: &[HeldEntry]) -> String {
    if held.is_empty() {
        return "<none>".to_string();
    }
    held.iter()
        .map(|e| format!("{:?}#{}", e.class, e.order_key))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// One path `from -> .. -> to` over the recorded edges, if there is one.
fn find_path(
    edges: &BTreeMap<(LockClass, LockClass), String>,
    from: LockClass,
    to: LockClass,
) -> Option<Vec<LockClass>> {
    let mut visited = 1u32 << (from as u8);
    let mut stack = vec![vec![from]];
    while let Some(path) = stack.pop() {
        let last = path[path.len() - 1];
        if last == to {
            return Some(path);
        }
        for &(a, b) in edges.keys() {
            if a == last && visited & (1 << (b as u8)) == 0 {
                visited |= 1 << (b as u8);
                stack.push(path.iter().copied().chain([b]).collect());
            }
        }
    }
    None
}

fn record_edge(from: LockClass, to: LockClass, held: &[HeldEntry]) {
    let bit = 1u32 << (to as u8);
    // ordering: fast-path probe; re-checked under the provenance mutex below
    if EDGES[from as usize].load(Ordering::Relaxed) & bit != 0 {
        return; // known edge: lock-free fast path
    }
    let mut prov = PROVENANCE.lock().unwrap_or_else(PoisonError::into_inner);
    if prov.contains_key(&(from, to)) {
        return;
    }
    // A same-class nesting `(X, X)` is recorded for `dump_edges` only:
    // `order_key` order governs it, not the class graph.
    let closes = (from != to).then(|| find_path(&prov, to, from)).flatten();
    if let Some(path) = closes {
        // Inserting from->to would close a cycle to -> .. -> from -> to.
        let mut other = String::new();
        for w in path.windows(2) {
            let rec = &prov[&(w[0], w[1])];
            other.push_str(&format!(
                "\n    {:?} -> {:?} recorded with chain: {rec}",
                w[0], w[1]
            ));
        }
        drop(prov);
        violation(&format!(
            "lock-order cycle: acquiring {to:?} while holding {from:?}, \
             but {from:?} is already ordered after {to:?}\n  \
             this thread's chain: {}\n  conflicting edges:{other}",
            chain_str(held),
        ));
        return; // keep the graph acyclic: one bug, one report
    }
    // ordering: publication is ordered by the provenance mutex held here
    EDGES[from as usize].fetch_or(bit, Ordering::Relaxed);
    prov.insert((from, to), chain_str(held));
}

/// Register an acquisition; returns the held-stack entry id.
#[inline]
fn acquire(tag: Tag, shared: bool) -> u64 {
    let Some(&(class, order_key)) = tag.first() else {
        return 0;
    };
    let id = NEXT_ID.with(|n| {
        let id = n.get();
        n.set(id + 1);
        id
    });
    let mut order_msg: Option<String> = None;
    HELD.with(|h| {
        let held = h.borrow();
        for e in held.iter() {
            if e.class == class
                && order_key <= e.order_key
                && !(shared && e.shared)
                && order_msg.is_none()
            {
                order_msg = Some(format!(
                    "same-class order violation: acquiring {:?}#{} while \
                     holding {:?}#{} (instances of one class must be taken \
                     in increasing order)\n  this thread's chain: {}",
                    class,
                    order_key,
                    e.class,
                    e.order_key,
                    chain_str(&held),
                ));
            }
            record_edge(e.class, class, &held);
        }
    });
    if let Some(msg) = order_msg {
        violation(&msg);
    }
    HELD.with(|h| {
        h.borrow_mut().push(HeldEntry {
            class,
            order_key,
            id,
            shared,
        })
    });
    // Schedule hook: acquisitions are the densest interleaving signal.
    // Fires before the physical lock blocks (`lock()` calls acquire
    // first), so a gating controller can steer who wins.
    crate::sched::point("lock.acquire");
    id
}

#[inline]
fn release(id: u64) {
    if !ARMED {
        return;
    }
    let released = HELD.with(|h| {
        let mut held = h.borrow_mut();
        held.iter()
            .rposition(|e| e.id == id)
            .map(|pos| held.remove(pos))
    });
    if released.is_some() {
        crate::sched::point("lock.release");
    }
}

// ----------------------------------------------------------- wrappers --

/// One entry on this thread's held stack; dropping it pops the entry.
/// Each guard declares it before the `std::sync` guard, so the release
/// is recorded before the lock itself is let go.
struct Held(u64);

impl Drop for Held {
    fn drop(&mut self) {
        release(self.0);
    }
}

/// A class-tagged mutex.
pub(crate) struct Mutex<T: ?Sized> {
    tag: Tag,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub(crate) fn new(class: LockClass, order_key: u64, value: T) -> Self {
        Self {
            tag: [(class, order_key); ARMED as usize],
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        // Check before blocking: a would-be deadlock is reported even if
        // this acquisition happens to succeed.
        let held = Held(acquire(self.tag, false));
        MutexGuard {
            held,
            tag: self.tag,
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub(crate) struct MutexGuard<'a, T: ?Sized> {
    held: Held,
    tag: Tag,
    inner: sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A class-tagged reader-writer lock. Readers and writers run the same
/// ordering checks: read/write cycles deadlock just as well.
pub(crate) struct RwLock<T: ?Sized> {
    tag: Tag,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub(crate) fn new(class: LockClass, order_key: u64, value: T) -> Self {
        Self {
            tag: [(class, order_key); ARMED as usize],
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = Held(acquire(self.tag, true));
        RwLockReadGuard {
            _held: held,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = Held(acquire(self.tag, false));
        RwLockWriteGuard {
            _held: held,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub(crate) struct RwLockReadGuard<'a, T: ?Sized> {
    _held: Held,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub(crate) struct RwLockWriteGuard<'a, T: ?Sized> {
    _held: Held,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condvar over [`Mutex`]. The wait releases the mutex, so the held
/// entry is popped for the duration and re-registered (with full checks)
/// on wake-up.
#[derive(Debug, Default)]
pub(crate) struct Condvar {
    inner: sync::Condvar,
    /// Threads currently inside a wait. `std`'s `notify_*` is a
    /// `futex_wake` system call even when nobody is parked, and the lock
    /// manager's release and every commit notify; with this count they
    /// return early instead.
    ///
    /// A waiter registers while it still holds its mutex (before the wait
    /// releases it). Under the ordinary condvar contract — the notifier
    /// changed the predicate under that same mutex — a notifier that reads
    /// zero therefore cannot have a waiter that saw the old predicate: such
    /// a waiter's increment happens-before its mutex release, which
    /// happens-before the notifier's acquire. A waiter that locks after the
    /// change sees the new predicate and does not wait.
    waiters: AtomicUsize,
}

impl Condvar {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Run one `std` wait on `guard`'s mutex with the held entry popped
    /// and this thread counted as parked, and hand the guard back.
    fn parked<'a, T, R>(
        &self,
        guard: MutexGuard<'a, T>,
        wait: impl FnOnce(sync::MutexGuard<'a, T>) -> (sync::MutexGuard<'a, T>, R),
    ) -> (MutexGuard<'a, T>, R) {
        let MutexGuard { held, tag, inner } = guard;
        drop(held);
        // ordering: Relaxed; the caller's mutex orders this against the notifier (see `waiters`)
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (inner, out) = wait(inner);
        // ordering: Relaxed; a stale non-zero read only costs the notifier one wake call
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        let held = Held(acquire(tag, false));
        (MutexGuard { held, tag, inner }, out)
    }

    /// Block until notified; returns the guard, locked again.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.parked(guard, |g| {
            let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
            (g, ())
        })
        .0
    }

    /// Block until notified or `deadline`; returns the guard, locked
    /// again, and whether the deadline passed.
    pub(crate) fn wait_until<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        self.parked(guard, |g| {
            let now = Instant::now();
            if deadline <= now {
                return (g, true);
            }
            let (g, result) = self
                .inner
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            (g, result.timed_out())
        })
    }

    fn has_waiters(&self) -> bool {
        // ordering: Relaxed; the waiters' mutex orders this against their registration (see `waiters`)
        self.waiters.load(Ordering::Relaxed) != 0
    }

    pub(crate) fn notify_one(&self) {
        if self.has_waiters() {
            self.inner.notify_one();
        }
    }

    pub(crate) fn notify_all(&self) {
        if self.has_waiters() {
            self.inner.notify_all();
        }
    }
}

// -------------------------------------------------- logical footprint --

/// Total lock-order/invariant violations observed process-wide.
pub fn violations() -> u64 {
    // ordering: violation tally read; no synchronization derived
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Snapshot the held-before edges recorded so far, as
/// `(held_class, acquired_class, recording_thread_chain)` triples in
/// class order; a same-class nesting appears as `(X, X)`.
/// `crates/ira/tests/lock_order.rs` pins the set a real workload produces.
pub fn dump_edges() -> Vec<(LockClass, LockClass, String)> {
    PROVENANCE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&(from, to), chain)| (from, to, chain.clone()))
        .collect()
}

/// The calling thread is about to sleep: a violation if it holds any
/// lock this module tracks (the kernel's `might_sleep()`). Called before
/// each product `thread::sleep`.
pub(crate) fn might_block(ctx: &str) {
    if !ARMED {
        return;
    }
    let chain = HELD.with(|h| {
        let held = h.borrow();
        (!held.is_empty()).then(|| chain_str(&held))
    });
    if let Some(chain) = chain {
        violation(&format!("{ctx}: may block while holding {chain}"));
    }
}

/// Run `f` with violations counted instead of panicking; returns `f`'s
/// result and the number of violations this thread raised inside the
/// scope. Used by tests that seed deliberate violations.
pub fn tolerate<R>(f: impl FnOnce() -> R) -> (R, u64) {
    TOLERATE.with(|t| t.set(t.get() + 1));
    let before = TL_VIOLATIONS.with(|c| c.get());
    let out = f();
    let after = TL_VIOLATIONS.with(|c| c.get());
    TOLERATE.with(|t| t.set(t.get() - 1));
    (out, after - before)
}

/// The lock manager granted this thread a lock on object `addr`.
pub(crate) fn txn_lock_acquired(addr: u64) {
    if !ARMED {
        return;
    }
    if FUZZY_DEPTH.with(|d| d.get()) > 0 {
        violation(&format!(
            "fuzzy traversal acquired a transaction lock on {addr:#x} \
             (the traversal must run under latches only)"
        ));
    }
    TXN_LOCKS.with(|l| {
        let mut locks = l.borrow_mut();
        if !locks.contains(&addr) {
            locks.push(addr);
        }
    });
    TWO_LOCK.with(|t| {
        let t = t.borrow();
        if t.depth == 0 {
            return;
        }
        let distinct = TXN_LOCKS.with(|l| {
            let locks = l.borrow();
            let mut canon: Vec<u64> = locks.iter().map(|&a| canonical(&t.aliases, a)).collect();
            canon.sort_unstable();
            canon.dedup();
            canon.len()
        });
        if distinct > 2 {
            violation(&format!(
                "two-lock variant exceeded its footprint: {distinct} distinct \
                 objects locked (acquiring {addr:#x})"
            ));
        }
    });
}

/// The lock manager released this thread's lock on object `addr`.
/// Tolerant: releases of locks acquired before tracking (or by another
/// thread) are ignored.
pub(crate) fn txn_lock_released(addr: u64) {
    if !ARMED {
        return;
    }
    TXN_LOCKS.with(|l| {
        let mut locks = l.borrow_mut();
        if let Some(pos) = locks.iter().rposition(|&a| a == addr) {
            locks.remove(pos);
        }
    });
}

fn canonical(aliases: &[(u64, u64)], addr: u64) -> u64 {
    for &(a, b) in aliases {
        if addr == b {
            return a;
        }
    }
    addr
}

/// Assert this thread holds no transaction locks.
pub fn assert_no_txn_locks(context: &str) {
    if !ARMED {
        return;
    }
    let held: Vec<u64> = TXN_LOCKS.with(|l| l.borrow().clone());
    if !held.is_empty() {
        violation(&format!(
            "{context}: thread still holds {} transaction lock(s): {:x?}",
            held.len(),
            held
        ));
    }
}

/// Assert `allowed` holds of every transaction lock this thread holds
/// (basic IRA: the batch's confirmed parents plus the object itself). A
/// predicate, not a list, so the caller builds nothing when the checker is
/// not armed.
pub fn assert_txn_locks_subset(allowed: impl Fn(u64) -> bool, context: &str) {
    if !ARMED {
        return;
    }
    let stray: Vec<u64> = TXN_LOCKS.with(|l| {
        l.borrow()
            .iter()
            .copied()
            .filter(|&a| !allowed(a))
            .collect()
    });
    if !stray.is_empty() {
        violation(&format!(
            "{context}: thread holds lock(s) outside the allowed set: {stray:x?}"
        ));
    }
}

/// RAII scope: fuzzy traversal must *acquire* no transaction locks.
/// Locks already held when the region opens are not flagged — tests
/// legitimately run workload transactions and the reorganizer on one
/// thread; the paper's invariant is that the traversal itself
/// synchronizes through latches only.
pub struct FuzzyRegion(());

pub fn fuzzy_region() -> FuzzyRegion {
    if ARMED {
        FUZZY_DEPTH.with(|d| d.set(d.get() + 1));
    }
    FuzzyRegion(())
}

impl Drop for FuzzyRegion {
    fn drop(&mut self) {
        if ARMED {
            FUZZY_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
}

/// RAII scope: the §4.2 two-lock variant holds at most two distinct
/// objects. Register `O_old`/`O_new` with [`two_lock_alias`] so the pair
/// counts as one object (the paper's footprint counts the migrating
/// object once).
pub struct TwoLockRegion(());

pub fn two_lock_region() -> TwoLockRegion {
    if ARMED {
        TWO_LOCK.with(|t| t.borrow_mut().depth += 1);
    }
    TwoLockRegion(())
}

impl Drop for TwoLockRegion {
    fn drop(&mut self) {
        if !ARMED {
            return;
        }
        TWO_LOCK.with(|t| {
            let mut t = t.borrow_mut();
            t.depth -= 1;
            if t.depth == 0 {
                t.aliases.clear();
            }
        });
    }
}

/// Count `b` as the same logical object as `a` inside the enclosing
/// two-lock region.
pub fn two_lock_alias(a: u64, b: u64) {
    if !ARMED {
        return;
    }
    TWO_LOCK.with(|t| t.borrow_mut().aliases.push((a, b)));
}

#[cfg(all(test, any(debug_assertions, feature = "lockdep")))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cross_class_cycle_is_detected() {
        let a = Mutex::new(LockClass::TestA, 0, ());
        let b = Mutex::new(LockClass::TestB, 0, ());
        // Establish TestA -> TestB.
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // The reverse order closes a cycle at edge-insert time, before any
        // thread actually deadlocks.
        let (_, raised) = tolerate(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        });
        assert_eq!(raised, 1, "B-then-A after A-then-B must be a violation");
        // The cycle edge was rejected, so repeating the good order is clean.
        let (_, raised) = tolerate(|| {
            let _ga = a.lock();
            let _gb = b.lock();
        });
        assert_eq!(raised, 0);
    }

    #[test]
    fn same_class_requires_increasing_order_keys() {
        let s0 = Mutex::new(LockClass::TestA, 0, ());
        let s1 = Mutex::new(LockClass::TestA, 1, ());
        // Increasing order: fine (no graph edge involved).
        let (_, raised) = tolerate(|| {
            let _g0 = s0.lock();
            let _g1 = s1.lock();
        });
        assert_eq!(raised, 0);
        // Decreasing order: flagged statelessly.
        let (_, raised) = tolerate(|| {
            let _g1 = s1.lock();
            let _g0 = s0.lock();
        });
        assert_eq!(raised, 1);
    }

    #[test]
    fn same_class_nesting_is_dumped_as_a_self_edge_not_a_cycle() {
        let s1 = Mutex::new(LockClass::TestA, 1, ());
        let s2 = Mutex::new(LockClass::TestA, 2, ());
        let (_, raised) = tolerate(|| {
            let _g1 = s1.lock();
            let _g2 = s2.lock();
        });
        assert_eq!(raised, 0, "(X, X) stays out of the cycle search");
        assert!(dump_edges()
            .iter()
            .any(|(a, b, _)| (*a, *b) == (LockClass::TestA, LockClass::TestA)));
    }

    #[test]
    fn might_block_trips_only_under_a_held_lock() {
        let m = Mutex::new(LockClass::TestA, 0, ());
        let g = m.lock();
        let (_, raised) = tolerate(|| might_block("test"));
        assert_eq!(raised, 1, "sleeping under a TestA guard is a violation");
        drop(g);
        let (_, raised) = tolerate(|| might_block("test"));
        assert_eq!(raised, 0);
    }

    fn held_depth() -> usize {
        HELD.with(|h| h.borrow().len())
    }

    #[test]
    fn condvar_wait_releases_and_reacquires_the_entry() {
        let m = Mutex::new(LockClass::TestB, 7, ());
        let cv = Condvar::new();
        let (g, timed_out) = cv.wait_until(m.lock(), Instant::now() + Duration::from_millis(5));
        assert!(timed_out);
        // Re-registration keeps the stack balanced: another acquisition of
        // the same class with a smaller key is still caught.
        let low = Mutex::new(LockClass::TestB, 3, ());
        let (_, raised) = tolerate(|| {
            let _gl = low.lock();
        });
        assert_eq!(raised, 1);
        drop(g);
    }

    #[test]
    fn condvar_waiter_count_returns_to_zero_after_a_timed_out_wait() {
        let m = Mutex::new(LockClass::TestA, 0, ());
        let cv = Condvar::new();
        assert!(!cv.has_waiters());
        let (g, timed_out) = cv.wait_until(m.lock(), Instant::now() + Duration::from_millis(10));
        assert!(timed_out);
        assert!(!cv.has_waiters(), "a timed-out waiter must deregister");
        // With nobody parked both notifies return early; a wait whose
        // deadline has passed returns at once, and deregisters too.
        cv.notify_one();
        cv.notify_all();
        let (_g, timed_out) = cv.wait_until(g, Instant::now());
        assert!(timed_out);
        assert!(!cv.has_waiters());
    }

    #[test]
    fn condvar_notify_wakes_a_parked_waiter() {
        let m = Mutex::new(LockClass::TestA, 0, false);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut done = m.lock();
                while !*done {
                    let timed_out;
                    (done, timed_out) =
                        cv.wait_until(done, Instant::now() + Duration::from_secs(5));
                    assert!(!timed_out, "the notify must wake the waiter");
                }
            });
            // The waiter registers under the mutex, so once it is counted
            // the flag below is set after it parked: no sleep needed.
            while !cv.has_waiters() {
                std::thread::yield_now();
            }
            *m.lock() = true;
            cv.notify_all();
            waiter.join().unwrap();
        });
        assert!(!cv.has_waiters());
    }

    #[test]
    fn a_panic_under_a_lock_leaves_it_usable() {
        let m = Mutex::new(LockClass::TestA, 0, 0u32);
        let rw = RwLock::new(LockClass::TestB, 0, Vec::new());
        std::thread::scope(|s| {
            let panicked = s.spawn(|| {
                let mut g = m.lock();
                let mut w = rw.write();
                *g = 7;
                w.push(7u32);
                panic!("deliberate panic under both locks");
            });
            assert!(panicked.join().is_err());
        });
        // The next thread gets both locks, the data as the panicking
        // thread left it, and a held stack that pushes and pops evenly.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(held_depth(), 0);
                let g = m.lock();
                let w = rw.write();
                assert_eq!((*g, w.as_slice()), (7, &[7u32][..]));
                assert_eq!(held_depth(), 2);
                drop(w);
                drop(g);
                assert_eq!(held_depth(), 0);
                assert_eq!(rw.read().len(), 1);
                assert_eq!(held_depth(), 0);
            });
        });
    }

    #[test]
    fn fuzzy_region_forbids_txn_locks() {
        let (_, raised) = tolerate(|| {
            let _r = fuzzy_region();
            txn_lock_acquired(0xabc);
        });
        assert_eq!(raised, 1);
        txn_lock_released(0xabc);
    }

    #[test]
    fn two_lock_region_allows_two_and_trips_on_three() {
        let (_, raised) = tolerate(|| {
            let _r = two_lock_region();
            two_lock_alias(0x10, 0x20); // O_old / O_new are one object
            txn_lock_acquired(0x10);
            txn_lock_acquired(0x20);
            txn_lock_acquired(0x30); // one parent: footprint = 2, fine
        });
        assert_eq!(raised, 0);
        let (_, raised) = tolerate(|| txn_lock_acquired(0x40));
        assert_eq!(raised, 0, "outside the region nothing is enforced");
        for a in [0x10u64, 0x20, 0x30, 0x40] {
            txn_lock_released(a);
        }
        let (_, raised) = tolerate(|| {
            let _r = two_lock_region();
            txn_lock_acquired(0x1);
            txn_lock_acquired(0x2);
            txn_lock_acquired(0x3);
        });
        assert_eq!(raised, 1, "three distinct objects must trip the invariant");
        for a in [0x1u64, 0x2, 0x3] {
            txn_lock_released(a);
        }
    }

    #[test]
    fn subset_and_empty_assertions() {
        txn_lock_acquired(0x5);
        let (_, raised) = tolerate(|| assert_txn_locks_subset(|a| [0x5, 0x6].contains(&a), "test"));
        assert_eq!(raised, 0);
        let (_, raised) = tolerate(|| assert_txn_locks_subset(|a| a == 0x6, "test"));
        assert_eq!(raised, 1);
        let (_, raised) = tolerate(|| assert_no_txn_locks("test"));
        assert_eq!(raised, 1);
        txn_lock_released(0x5);
        let (_, raised) = tolerate(|| assert_no_txn_locks("test"));
        assert_eq!(raised, 0);
    }
}
