//! Runtime lock-order checking ("lockdep") for the substrate.
//!
//! Every mutex, rwlock-latch, and condvar in `brahma` (and the sharded
//! structures in `ira`) is wrapped by the types in this module. Each wrapper
//! carries a [`LockClass`] — a *type* of lock, not an instance — plus an
//! `order_key` distinguishing instances inside a class (shard index,
//! partition id). Each acquisition is checked against every lock the
//! thread already holds:
//!
//! 1. across classes, against the **declared order** `ORDER`: a nesting it
//!    does not list is a violation at that acquisition, in any process,
//!    whether or not the opposite order ever ran. `ORDER` is acyclic, so
//!    code that keeps to it cannot deadlock across classes;
//! 2. within one class, nested instances must take strictly increasing
//!    `order_key`s, which catches an ABBA between two shards of one structure.
//!
//! `might_block`, called before each product `thread::sleep`, checks that
//! nothing sleeps under a wrapped lock. [`check`] states a claim about the
//! locks a caller holds — the paper's per-variant footprints, read off the
//! reorganizer's own transactions — and evaluates it only when armed.
//!
//! A violation **panics** in debug builds (tests fail loudly) and is
//! otherwise **counted** in the `lockdep.violations` counter that
//! `Database::obs_snapshot` exports. An ordering diagnostic names the
//! acquiring thread's chain of held locks.
//!
//! The checker is armed when `debug_assertions` are on or the `lockdep`
//! cargo feature is enabled. The wrapper types are the same either way;
//! with the checker off they carry no tag, and `acquire`/`release` and
//! [`check`] return on the `ARMED` constant before touching a
//! thread-local or an atomic, so a wrapper has the layout of the
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
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{self, PoisonError};
use std::time::Instant;
use LockClass::*;

/// A type of lock: a row of the declared order.
///
/// Keep this list in sync with DESIGN.md §11.1 (`ci.sh` checks the variants
/// and the catalog's first column are the same set). At most 32 classes:
/// what may be taken under a class is a `u32` bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LockClass {
    /// One shard of the lock manager's hash table (`lock::Shard::table`).
    LockTableShard = 0,
    /// A page latch (`page::PageRef`'s `RwLock<Page>`).
    PageLatch,
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
    /// An append reserves its LSN and writes its frame under it, which is
    /// what keeps the segment in LSN order.
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

const N: usize = TestB as usize + 1;

/// The declared lock order across classes: `(held, taken)` means `taken`
/// may be acquired while `held` is held. Every other cross-class nesting is
/// a violation. DESIGN.md §11.1's "may be taken under" column is this list
/// (`ci.sh` compares the two), and a unit test checks it is acyclic.
const ORDER: &[(LockClass, LockClass)] = &[
    // An allocation that grows the partition appends a page.
    (PartitionAlloc, PartitionPages),
    // A page access: the page table, then the page's latch.
    (PartitionPages, PageLatch),
    // `start_reorg` creates the TRT and logs the pass start under the map.
    (DbReorgTables, TrtInner),
    (DbReorgTables, FileBackend),
    (DbReorgTables, FaultState),
    // A file-backed append passes its fault sites under the writer.
    (FileBackend, FaultState),
    (TestA, TestB),
];

/// `MAY_TAKE[held] & (1 << taken)`: `ORDER` holds `(held, taken)`.
const MAY_TAKE: [u32; N] = {
    let mut mask = [0u32; N];
    let mut i = 0;
    while i < ORDER.len() {
        let (held, taken) = ORDER[i];
        mask[held as usize] |= 1 << taken as u8;
        i += 1;
    }
    mask
};

/// Total violations, process-wide (exported as `lockdep.violations`).
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

struct HeldEntry {
    class: LockClass,
    order_key: u64,
    id: u64,
    /// Shared (read) acquisition: read-read recursion on one class is
    /// exempt from the same-class order rule, since readers never block
    /// each other. The declared order holds regardless of mode.
    shared: bool,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
    /// Depth of `tolerate` scopes: violations are counted, not panicked.
    static TOLERATE: Cell<u32> = const { Cell::new(0) };
    /// Violations raised by *this thread* (so tests can measure deltas
    /// without interference from parallel tests).
    static TL_VIOLATIONS: Cell<u64> = const { Cell::new(0) };
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
    held.iter()
        .map(|e| format!("{:?}#{}", e.class, e.order_key))
        .collect::<Vec<_>>()
        .join(" -> ")
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
    HELD.with(|h| {
        let held = h.borrow();
        let Some(bad) = held.iter().find(|e| {
            if e.class == class {
                order_key <= e.order_key && !(shared && e.shared)
            } else {
                MAY_TAKE[e.class as usize] & (1 << class as u8) == 0
            }
        }) else {
            return;
        };
        let rule = if bad.class == class {
            "instances of one class must be taken in increasing order"
        } else {
            "lockdep::ORDER does not declare this nesting"
        };
        violation(&format!(
            "lock-order violation: acquiring {class:?}#{order_key} while holding \
             {:?}#{} ({rule})\n  this thread's chain: {}",
            bad.class,
            bad.order_key,
            chain_str(&held),
        ));
    });
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

// ------------------------------------------------------------- checks --

/// Total lock-order/invariant violations observed process-wide.
pub fn violations() -> u64 {
    // ordering: violation tally read; no synchronization derived
    VIOLATIONS.load(Ordering::Relaxed)
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

/// Check a claim about the locks the caller holds, such as the set a
/// transaction's [`crate::Txn::held_locks`] lists: `holds` runs only when
/// the checker is armed, and a false claim is a violation named `what`.
pub fn check(holds: impl FnOnce() -> bool, what: &str) {
    if ARMED && !holds() {
        violation(what);
    }
}

#[cfg(all(test, any(debug_assertions, feature = "lockdep")))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn an_undeclared_nesting_fails_at_its_first_acquisition() {
        let a = Mutex::new(LockClass::TestA, 0, ());
        let b = Mutex::new(LockClass::TestB, 0, ());
        // `(TestB, TestA)` is not declared: the first acquisition that nests
        // that way is the violation, with no earlier opposite nesting.
        let (_, raised) = tolerate(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        });
        assert_eq!(raised, 1, "TestA under TestB is undeclared");
        // The declared order stays clean, before and after.
        let (_, raised) = tolerate(|| {
            let _ga = a.lock();
            let _gb = b.lock();
        });
        assert_eq!(raised, 0);
    }

    #[test]
    fn the_declared_order_is_acyclic() {
        // Close `MAY_TAKE` transitively; a class that reaches itself sits
        // on a cycle (or is a declared self-pair, which `order_key` governs).
        let mut reach = MAY_TAKE;
        for k in 0..N {
            for i in 0..N {
                if reach[i] & (1 << k) != 0 {
                    reach[i] |= reach[k];
                }
            }
        }
        for (i, r) in reach.iter().enumerate() {
            assert_eq!(r & (1 << i), 0, "class {i} reaches itself in ORDER");
        }
    }

    #[test]
    fn same_class_requires_increasing_order_keys() {
        let s0 = Mutex::new(LockClass::TestA, 0, ());
        let s1 = Mutex::new(LockClass::TestA, 1, ());
        // Increasing order: fine.
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
}
