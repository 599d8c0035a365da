//! The lock manager.
//!
//! Transactions lock objects in shared or exclusive mode. Under strict 2PL
//! (the paper's base assumption, Section 2) all locks are held to transaction
//! end; the store also supports early release for the Section 4.1 extension.
//! Deadlocks are broken with a lock timeout — the paper's experiments used a
//! one-second timeout — after which the requester receives
//! [`Error::LockTimeout`] and aborts or retries.
//!
//! For the relaxed-2PL extension the lock manager can additionally *track
//! history*: while tracking is enabled it records, per object, every active
//! transaction that has ever been granted a lock on it. The reorganizer,
//! after locking an object, waits for all such transactions to complete —
//! "transactions behave as though they were following strict 2PL with
//! respect to the reorganization process" (Section 4.1).
//!
//! Every request takes one path: its shard's mutex, then the address's entry
//! in that shard's table (DESIGN.md §10.2).

use crate::addr::PhysAddr;
use crate::error::{Error, Result};
use crate::lockdep::{Condvar, LockClass, Mutex, MutexGuard};
use crate::txn::TxnId;
use obs::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock modes. Multiple transactions may share `Shared`; `Exclusive` is
/// incompatible with everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// One address's lock state. What almost every lock needs — one exclusive
/// holder or up to two sharers — is inline, so granting and releasing it
/// allocates nothing; the rest lives in [`Rare`], boxed by the first
/// request that needs it.
struct LockState {
    raw: u64,
    /// Packed from the front: one `Exclusive` holder, or up to two `Shared`
    /// ones. Further sharers go to `Rare::sharers`, which is non-empty only
    /// while both are taken.
    holders: [Option<(TxnId, LockMode)>; 2],
    rare: Option<Box<Rare>>,
}

#[derive(Default)]
struct Rare {
    /// Sharers beyond the two inline holders.
    sharers: Vec<TxnId>,
    /// Active transactions that have ever been granted a lock here; only
    /// maintained while history tracking is on.
    ever_held: Vec<TxnId>,
    /// Exclusive requests currently waiting. New shared requests from
    /// non-holders yield to them (write-preferring grant), so the
    /// reorganizer's exclusive parent locks cannot be starved by a stream
    /// of short shared lockers.
    x_waiters: usize,
    /// Shared requests currently waiting.
    s_waiters: usize,
    /// The shared holder currently waiting to upgrade to exclusive, if any.
    /// Two simultaneous upgraders deadlock by construction (each waits for
    /// the other sharer to release), so a second upgrade request fails fast
    /// with [`Error::UpgradeConflict`] instead of stalling to the timeout.
    upgrader: Option<TxnId>,
    /// Created by the first waiter. Each waiter parks on its own clone, so
    /// the pair outlives the waiter's borrow of the entry.
    waits: Option<Arc<Waits>>,
}

/// Where an entry's waiters park. A release wakes only the mode it could
/// have made grantable instead of every waiter in the shard.
#[derive(Default)]
struct Waits {
    /// Exclusive requests, upgraders included: one is woken per handover.
    x: Condvar,
    /// Shared requests: woken together when the last obstacle (exclusive
    /// holder or waiting writer) goes, since every one is then grantable.
    s: Condvar,
}

impl LockState {
    fn new(raw: u64) -> Self {
        LockState {
            raw,
            holders: [None, None],
            rare: None,
        }
    }

    fn rare(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
    }

    fn sharers(&self) -> &[TxnId] {
        self.rare.as_ref().map_or(&[], |r| &r.sharers)
    }

    fn all_holders(&self) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        let spilled = self.sharers().iter().map(|&t| (t, LockMode::Shared));
        self.holders.iter().flatten().copied().chain(spilled)
    }

    fn holder_mode(&self, tid: TxnId) -> Option<LockMode> {
        match self.holders.iter().flatten().find(|(t, _)| *t == tid) {
            Some(&(_, mode)) => Some(mode),
            None => self.sharers().contains(&tid).then_some(LockMode::Shared),
        }
    }

    /// Whether `tid` may be granted `mode` right now.
    fn grantable(&self, tid: TxnId, mode: LockMode) -> bool {
        match (self.holder_mode(tid), mode) {
            (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => true,
            // Upgrade: only when sole holder.
            (Some(LockMode::Shared), LockMode::Exclusive) => self.holders[1].is_none(),
            (None, LockMode::Shared) => {
                self.rare.as_ref().map_or(0, |r| r.x_waiters) == 0
                    && !matches!(self.holders[0], Some((_, LockMode::Exclusive)))
            }
            (None, LockMode::Exclusive) => self.holders[0].is_none(),
        }
    }

    /// Record a grant [`LockState::grantable`] allowed.
    fn add(&mut self, tid: TxnId, mode: LockMode) {
        if let Some((_, held)) = self.holders.iter_mut().flatten().find(|(t, _)| *t == tid) {
            if mode == LockMode::Exclusive {
                *held = mode;
            }
        } else if !self.sharers().contains(&tid) {
            match self.holders.iter_mut().find(|h| h.is_none()) {
                Some(free) => *free = Some((tid, mode)),
                None => self.rare().sharers.push(tid),
            }
        }
    }

    /// Drop `tid` from the holders, keeping the inline pair packed.
    fn remove(&mut self, tid: TxnId) {
        match self
            .holders
            .iter()
            .position(|h| h.is_some_and(|(t, _)| t == tid))
        {
            Some(i) => {
                if i == 0 {
                    self.holders[0] = self.holders[1];
                }
                let spilled = self.rare.as_mut().and_then(|r| r.sharers.pop());
                self.holders[1] = spilled.map(|t| (t, LockMode::Shared));
            }
            None => {
                if let Some(rare) = &mut self.rare {
                    rare.sharers.retain(|t| *t != tid);
                }
            }
        }
    }

    /// After a release, wake only the requests it could have made grantable.
    fn wake(&self) {
        let Some(rare) = &self.rare else { return };
        let Some(waits) = &rare.waits else { return };
        match self.holders {
            [None, _] if rare.x_waiters > 0 => {
                // Any one waiting writer can take the lock; the rest stay
                // parked and are woken by its release in turn.
                waits.x.notify_one();
            }
            [None, _] if rare.s_waiters > 0 => {
                // No writer in the way: every waiting sharer is grantable.
                waits.s.notify_all();
            }
            [Some((sole, _)), None] if rare.upgrader == Some(sole) => {
                // The upgrader became the sole holder. It shares `x` with
                // plain writers, so broadcast: the non-upgraders re-park.
                waits.x.notify_all();
            }
            _ => {}
        }
    }

    /// Nothing held, nobody waiting, no history: the entry can go.
    fn is_idle(&self) -> bool {
        self.holders[0].is_none()
            && self
                .rare
                .as_ref()
                .is_none_or(|r| r.ever_held.is_empty() && r.x_waiters == 0 && r.s_waiters == 0)
    }
}

/// A shard's entries. The first lives inline, on the shard's own cache
/// lines; `more` holds the addresses that collide with it and keeps its
/// capacity, so a warm table does not allocate. Invariant: `first` is
/// `None` only when `more` is empty.
#[derive(Default)]
struct Table {
    first: Option<LockState>,
    more: Vec<LockState>,
}

impl Table {
    fn get(&self, raw: u64) -> Option<&LockState> {
        self.first.iter().chain(&self.more).find(|s| s.raw == raw)
    }

    fn get_mut(&mut self, raw: u64) -> Option<&mut LockState> {
        self.first
            .iter_mut()
            .chain(&mut self.more)
            .find(|s| s.raw == raw)
    }

    /// `raw`'s entry, created empty if absent.
    fn entry(&mut self, raw: u64) -> &mut LockState {
        if self.first.as_ref().is_none_or(|s| s.raw == raw) {
            return self.first.get_or_insert_with(|| LockState::new(raw));
        }
        let i = match self.more.iter().position(|s| s.raw == raw) {
            Some(i) => i,
            None => {
                self.more.push(LockState::new(raw));
                self.more.len() - 1
            }
        };
        &mut self.more[i]
    }

    /// Drop `raw`'s entry if it is idle, refilling `first` from `more`.
    fn reclaim_if_idle(&mut self, raw: u64) {
        match &self.first {
            Some(first) if first.raw == raw => {
                if first.is_idle() {
                    self.first = self.more.pop();
                }
            }
            _ => {
                if let Some(i) = self.more.iter().position(|s| s.raw == raw && s.is_idle()) {
                    self.more.swap_remove(i);
                }
            }
        }
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.more.len()
    }
}

/// One shard of the lock table, alone on its two cache lines. Both the
/// padding and [`DB_SHARDS`] are load-bearing (DESIGN.md §10.2): every
/// grant and release writes the shard's mutex and table, and two walkers
/// whose shards share a line write it in turn.
#[repr(align(128))]
struct Shard(Mutex<Table>);

// With the lockdep tag (debug, `lockdep`) and without it (release), the
// mutex and the first entry fit the shard's 128 bytes.
const _: () = assert!(std::mem::size_of::<Shard>() == 128);
const _: () = assert!(std::mem::align_of::<Shard>() == 128);

/// Counters exposed for the performance study. All lock-free (`obs`
/// primitives); safe to bump inside the wait loop.
#[derive(Debug, Default)]
pub(crate) struct LockStats {
    /// Lock grants (including re-grants to an existing holder).
    pub acquisitions: Counter,
    /// Lock requests that could not be granted immediately and waited at
    /// least once (counted once per request, not per wakeup).
    pub waits: Counter,
    /// Time spent blocked per waiting request, microseconds (includes
    /// requests that eventually timed out).
    pub wait_us: Histogram,
    /// Requests that gave up after the lock timeout.
    pub timeouts: Counter,
    /// Successful shared-to-exclusive upgrades.
    pub upgrades: Counter,
    /// Upgrade requests refused fast because another sharer's upgrade was
    /// already pending (the deadlock this layer detects).
    pub upgrade_conflicts: Counter,
    /// Exclusive requests currently queued across all shards; `peak()` is
    /// the deepest the writer queue ever got.
    pub x_waiter_depth: Gauge,
    /// Times a parked waiter was woken before its deadline. With the old
    /// per-shard broadcast every release woke every waiter; with per-entry
    /// targeted wakeups this stays close to the number of grants handed
    /// over.
    pub wakeups: Counter,
}

impl LockStats {
    /// Dump every counter into `snap` under `lock.`.
    pub(crate) fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("lock.acquisitions", self.acquisitions.get());
        snap.set("lock.waits", self.waits.get());
        snap.set("lock.wait_us_sum", self.wait_us.sum_us());
        snap.set("lock.wait_us_max", self.wait_us.max_us());
        snap.set("lock.wait_us_p99", self.wait_us.quantile_us(0.99));
        snap.set("lock.timeouts", self.timeouts.get());
        snap.set("lock.upgrades", self.upgrades.get());
        snap.set("lock.upgrade_conflicts", self.upgrade_conflicts.get());
        snap.set("lock.x_waiter_peak", self.x_waiter_depth.peak());
        snap.set("lock.wakeups", self.wakeups.get());
    }
}

/// Shards in a [`crate::db::Database`]'s lock table.
pub(crate) const DB_SHARDS: usize = 1024;

/// The lock manager: a sharded lock table with condition-variable waiting.
pub struct LockManager {
    shards: Box<[Shard]>,
    default_timeout: Duration,
    track_history: AtomicBool,
    pub(crate) stats: LockStats,
}

impl LockManager {
    /// Create a lock manager with `shards` shards and the given default
    /// wait timeout.
    pub(crate) fn new(shards: usize, default_timeout: Duration) -> Self {
        LockManager {
            // The shard index is the lockdep order key: any code path
            // nesting two shards must take them in index order.
            shards: (0..shards.max(1))
                .map(|i| {
                    Shard(Mutex::new(
                        LockClass::LockTableShard,
                        i as u64,
                        Table::default(),
                    ))
                })
                .collect(),
            default_timeout,
            track_history: AtomicBool::new(false),
            stats: LockStats::default(),
        }
    }

    /// The locked table of the shard `raw` hashes to.
    #[inline]
    fn table(&self, raw: u64) -> MutexGuard<'_, Table> {
        // Multiplicative hash over the raw address.
        let h = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.shards[(h >> 32) as usize % self.shards.len()].0.lock()
    }

    /// Enable or disable ever-held history tracking (Section 4.1). Turned on
    /// for the duration of a reorganization when transactions do not follow
    /// strict 2PL.
    pub(crate) fn set_history_tracking(&self, on: bool) {
        // ordering: SeqCst toggle; every shard sees the change before the caller proceeds
        self.track_history.store(on, Ordering::SeqCst);
    }

    /// Whether history tracking is currently enabled.
    pub fn history_tracking(&self) -> bool {
        // ordering: SeqCst read, paired with the SeqCst toggle in set_history_tracking
        self.track_history.load(Ordering::SeqCst)
    }

    /// Record a grant on a `state` that allows it.
    fn grant(&self, state: &mut LockState, tid: TxnId, mode: LockMode) {
        if mode == LockMode::Exclusive && state.holder_mode(tid) == Some(LockMode::Shared) {
            self.stats.upgrades.inc();
        }
        state.add(tid, mode);
        if self.history_tracking() {
            let ever = &mut state.rare().ever_held;
            if !ever.contains(&tid) {
                ever.push(tid);
            }
        }
        self.stats.acquisitions.inc();
    }

    /// Acquire `mode` on `addr` for `tid`, waiting up to the default timeout.
    pub fn lock(&self, tid: TxnId, addr: PhysAddr, mode: LockMode) -> Result<()> {
        let raw = addr.to_raw();
        let mut table = self.table(raw);
        let state = table.entry(raw);
        if state.grantable(tid, mode) {
            self.grant(state, tid, mode);
            Ok(())
        } else {
            self.wait(table, tid, addr, mode)
        }
    }

    /// Park a request that was not grantable until it is, then grant it;
    /// fail at the timeout, or at once for a second upgrader. Registered as
    /// a waiter throughout, which keeps the entry alive across the parks;
    /// on failure the entry still has a holder or a waiting writer (that is
    /// what refused the grant), so it is never left idle. Unlocks `table`
    /// on return.
    fn wait(
        &self,
        mut table: MutexGuard<'_, Table>,
        tid: TxnId,
        addr: PhysAddr,
        mode: LockMode,
    ) -> Result<()> {
        let raw = addr.to_raw();
        let exclusive = mode == LockMode::Exclusive;
        let state = table.entry(raw);
        let upgrade = exclusive && state.holder_mode(tid) == Some(LockMode::Shared);
        let rare = state.rare();
        if upgrade {
            // Each of two upgraders holds the shared lock the other needs
            // released: fail the later one now rather than at the timeout.
            if let Some(with) = rare.upgrader {
                self.stats.upgrade_conflicts.inc();
                return Err(Error::UpgradeConflict {
                    addr,
                    by: tid,
                    with,
                });
            }
            rare.upgrader = Some(tid);
        }
        if exclusive {
            rare.x_waiters += 1;
            self.stats.x_waiter_depth.inc();
        } else {
            rare.s_waiters += 1;
        }
        let waits = Arc::clone(rare.waits.get_or_insert_with(Arc::default));
        let cv = if exclusive { &waits.x } else { &waits.s };
        self.stats.waits.inc();
        let started = Instant::now();
        let deadline = started + self.default_timeout;
        let result = loop {
            let timed_out;
            (table, timed_out) = cv.wait_until(table, deadline);
            if !timed_out {
                self.stats.wakeups.inc();
            }
            // Checked on a timeout too: the grant may have raced it.
            let state = table.entry(raw);
            if state.grantable(tid, mode) {
                self.grant(state, tid, mode);
                break Ok(());
            }
            if timed_out {
                self.stats.timeouts.inc();
                break Err(Error::LockTimeout { addr, by: tid });
            }
        };
        self.stats.wait_us.record(started.elapsed());
        let rare = table.entry(raw).rare();
        if upgrade {
            rare.upgrader = None;
        }
        if exclusive {
            rare.x_waiters -= 1;
            self.stats.x_waiter_depth.dec();
            // Shared requests that yielded to this writer may now be
            // grantable — but only if no other writer still waits.
            if rare.x_waiters == 0 && rare.s_waiters > 0 {
                waits.s.notify_all();
            }
        } else {
            rare.s_waiters -= 1;
        }
        result
    }

    /// Attempt to acquire without waiting. A refused request leaves no
    /// entry behind: whatever refused it holds the entry.
    pub(crate) fn try_lock(&self, tid: TxnId, addr: PhysAddr, mode: LockMode) -> bool {
        let raw = addr.to_raw();
        let mut table = self.table(raw);
        let state = table.entry(raw);
        let granted = state.grantable(tid, mode);
        if granted {
            self.grant(state, tid, mode);
        }
        granted
    }

    /// Release `tid`'s lock on `addr` (early release or end-of-transaction).
    pub fn unlock(&self, tid: TxnId, addr: PhysAddr) {
        let raw = addr.to_raw();
        let mut table = self.table(raw);
        if let Some(state) = table.get_mut(raw) {
            state.remove(tid);
            state.wake();
            table.reclaim_if_idle(raw);
        }
    }

    /// The mode `tid` currently holds on `addr`, if any.
    #[cfg(test)]
    pub(crate) fn holds(&self, tid: TxnId, addr: PhysAddr) -> Option<LockMode> {
        let raw = addr.to_raw();
        self.table(raw).get(raw)?.holder_mode(tid)
    }

    /// Every transaction that has ever held a lock on `addr` since history
    /// tracking was enabled (including current holders).
    pub fn ever_holders(&self, addr: PhysAddr) -> Vec<TxnId> {
        let raw = addr.to_raw();
        let table = self.table(raw);
        let Some(state) = table.get(raw) else {
            return Vec::new();
        };
        let mut out = state
            .rare
            .as_ref()
            .map_or_else(Vec::new, |r| r.ever_held.clone());
        for (t, _) in state.all_holders() {
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    /// Forget `tid`'s history entries on the given addresses. Called at
    /// transaction completion with the transaction's ever-locked list, so
    /// history entries do not accumulate forever.
    pub(crate) fn drop_history(&self, tid: TxnId, addrs: &[PhysAddr]) {
        for &addr in addrs {
            let raw = addr.to_raw();
            let mut table = self.table(raw);
            if let Some(rare) = table.get_mut(raw).and_then(|s| s.rare.as_mut()) {
                rare.ever_held.retain(|t| *t != tid);
                table.reclaim_if_idle(raw);
            }
        }
    }

    /// Total number of addresses with lock state (diagnostics).
    pub fn table_size(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PartitionId;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;

    fn addr(n: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(0), 0, n)
    }

    fn mgr() -> LockManager {
        LockManager::new(4, Duration::from_millis(50))
    }

    #[test]
    fn shared_locks_are_compatible() {
        let m = mgr();
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        m.lock(TxnId(2), addr(1), LockMode::Shared).unwrap();
        assert_eq!(m.holds(TxnId(1), addr(1)), Some(LockMode::Shared));
        assert_eq!(m.holds(TxnId(2), addr(1)), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes() {
        let m = mgr();
        m.lock(TxnId(1), addr(1), LockMode::Exclusive).unwrap();
        assert!(matches!(
            m.lock(TxnId(2), addr(1), LockMode::Shared),
            Err(Error::LockTimeout { .. })
        ));
        assert!(!m.try_lock(TxnId(2), addr(1), LockMode::Exclusive));
        m.unlock(TxnId(1), addr(1));
        m.lock(TxnId(2), addr(1), LockMode::Shared).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        m.lock(TxnId(1), addr(1), LockMode::Exclusive).unwrap();
        assert_eq!(m.holds(TxnId(1), addr(1)), Some(LockMode::Exclusive));
        // X holder can re-request S without losing X.
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        assert_eq!(m.holds(TxnId(1), addr(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let m = mgr();
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        m.lock(TxnId(2), addr(1), LockMode::Shared).unwrap();
        assert!(matches!(
            m.lock(TxnId(1), addr(1), LockMode::Exclusive),
            Err(Error::LockTimeout { .. })
        ));
        m.unlock(TxnId(2), addr(1));
        m.lock(TxnId(1), addr(1), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn waiting_thread_is_woken() {
        let m = Arc::new(LockManager::new(4, Duration::from_secs(5)));
        m.lock(TxnId(1), addr(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.lock(TxnId(2), addr(1), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        m.unlock(TxnId(1), addr(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.holds(TxnId(2), addr(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn timeout_counts_in_stats() {
        let m = mgr();
        m.lock(TxnId(1), addr(1), LockMode::Exclusive).unwrap();
        let _ = m.lock(TxnId(2), addr(1), LockMode::Exclusive);
        assert_eq!(m.stats.timeouts.get(), 1);
        assert_eq!(m.stats.waits.get(), 1, "one request waited");
        assert!(
            m.stats.wait_us.count() == 1 && m.stats.wait_us.max_us() >= 40_000,
            "the blocked request's wait time is recorded"
        );
    }

    #[test]
    fn second_upgrader_fails_fast_and_first_wins() {
        // Regression for the upgrade-vs-write-preference deadlock: T1 and
        // T2 both hold Shared; both request Exclusive. Before the fix each
        // waited on the other until the 1 s timeout; now the second
        // requester is refused immediately and the first is granted once
        // the second releases.
        let m = Arc::new(LockManager::new(4, Duration::from_secs(10)));
        m.lock(TxnId(1), addr(3), LockMode::Shared).unwrap();
        m.lock(TxnId(2), addr(3), LockMode::Shared).unwrap();
        let m2 = Arc::clone(&m);
        let first = thread::spawn(move || m2.lock(TxnId(1), addr(3), LockMode::Exclusive));
        // Let T1's upgrade register as pending.
        thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let second = m.lock(TxnId(2), addr(3), LockMode::Exclusive);
        assert!(
            matches!(
                second,
                Err(Error::UpgradeConflict {
                    by: TxnId(2),
                    with: TxnId(1),
                    ..
                })
            ),
            "second upgrader must fail fast, got {second:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "conflict detected without waiting out the timeout"
        );
        // T2 aborts (releases): T1's upgrade must now be granted.
        m.unlock(TxnId(2), addr(3));
        first.join().unwrap().unwrap();
        assert_eq!(m.holds(TxnId(1), addr(3)), Some(LockMode::Exclusive));
        assert_eq!(m.stats.upgrade_conflicts.get(), 1);
        assert_eq!(m.stats.upgrades.get(), 1);
    }

    #[test]
    fn upgrade_pending_flag_clears_after_failure() {
        // If an upgrader times out, its pending-upgrade marker must not
        // poison later upgrade attempts on the same address.
        let m = mgr();
        m.lock(TxnId(1), addr(4), LockMode::Shared).unwrap();
        m.lock(TxnId(2), addr(4), LockMode::Shared).unwrap();
        // T1's upgrade times out (T2 never releases, never upgrades).
        assert!(matches!(
            m.lock(TxnId(1), addr(4), LockMode::Exclusive),
            Err(Error::LockTimeout { .. })
        ));
        // T1 releases; now T2 upgrades — must succeed, not see a stale
        // pending upgrader.
        m.unlock(TxnId(1), addr(4));
        m.lock(TxnId(2), addr(4), LockMode::Exclusive).unwrap();
        assert_eq!(m.holds(TxnId(2), addr(4)), Some(LockMode::Exclusive));
    }

    #[test]
    fn history_tracking_records_past_holders() {
        let m = mgr();
        m.set_history_tracking(true);
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        m.unlock(TxnId(1), addr(1));
        assert_eq!(m.ever_holders(addr(1)), vec![TxnId(1)]);
        m.drop_history(TxnId(1), &[addr(1)]);
        assert!(m.ever_holders(addr(1)).is_empty());
        assert_eq!(m.table_size(), 0);
    }

    #[test]
    fn no_history_when_tracking_off() {
        let m = mgr();
        m.lock(TxnId(1), addr(1), LockMode::Shared).unwrap();
        m.unlock(TxnId(1), addr(1));
        assert!(m.ever_holders(addr(1)).is_empty());
        assert_eq!(m.table_size(), 0, "entries are reclaimed on unlock");
    }

    #[test]
    fn new_shared_requests_yield_to_waiting_exclusive() {
        // Write-preference: while an X request waits, a *new* shared
        // request from a non-holder queues behind it instead of starving it.
        let m = Arc::new(LockManager::new(4, Duration::from_secs(5)));
        m.lock(TxnId(1), addr(9), LockMode::Shared).unwrap();
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.lock(TxnId(2), addr(9), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // A brand-new shared request cannot barge while T2's X waits.
        assert!(!m.try_lock(TxnId(3), addr(9), LockMode::Shared));
        // But the existing holder may re-request.
        m.lock(TxnId(1), addr(9), LockMode::Shared).unwrap();
        m.unlock(TxnId(1), addr(9));
        waiter.join().unwrap().unwrap();
        assert_eq!(m.holds(TxnId(2), addr(9)), Some(LockMode::Exclusive));
        m.unlock(TxnId(2), addr(9));
        // With the X granted and released, shared requests flow again.
        m.lock(TxnId(3), addr(9), LockMode::Shared).unwrap();
    }

    /// The lockdep same-class rule catches an ABBA inversion across two
    /// shards of the lock table: shards must be taken in index order, so
    /// whichever thread takes them backwards is flagged deterministically —
    /// no second thread and no actual deadlock needed.
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    #[test]
    fn abba_across_lock_shards_is_detected() {
        let m = mgr();
        let (_, raised) = crate::lockdep::tolerate(|| {
            let _high = m.shards[3].0.lock();
            let _low = m.shards[1].0.lock();
        });
        assert_eq!(raised, 1, "shard 3 then shard 1 is an ordering violation");
        let (_, raised) = crate::lockdep::tolerate(|| {
            let _low = m.shards[1].0.lock();
            let _high = m.shards[3].0.lock();
        });
        assert_eq!(raised, 0, "index order is the sanctioned order");
    }

    /// Three addresses share one shard: the first lives in `first`, the
    /// others in `more`. A conflict on one leaves the other two alone, and
    /// releasing `first`'s address while `more` holds entries promotes one.
    #[test]
    fn colliding_addresses_share_a_shard_independently() {
        let m = LockManager::new(1, Duration::from_millis(50));
        m.lock(TxnId(1), addr(1), LockMode::Exclusive).unwrap();
        m.lock(TxnId(2), addr(2), LockMode::Shared).unwrap();
        m.lock(TxnId(3), addr(3), LockMode::Shared).unwrap();
        assert_eq!(m.table_size(), 3);
        assert!(matches!(
            m.lock(TxnId(4), addr(1), LockMode::Shared),
            Err(Error::LockTimeout { .. })
        ));
        assert!(m.try_lock(TxnId(4), addr(2), LockMode::Shared));
        assert!(m.try_lock(TxnId(4), addr(3), LockMode::Shared));
        m.unlock(TxnId(1), addr(1));
        assert_eq!(m.table_size(), 2, "addr(1)'s entry went; `first` refilled");
        assert_eq!(m.holds(TxnId(2), addr(2)), Some(LockMode::Shared));
        assert_eq!(m.holds(TxnId(3), addr(3)), Some(LockMode::Shared));
        for (tid, a) in [(2, 2), (4, 2), (3, 3), (4, 3)] {
            m.unlock(TxnId(tid), addr(a));
        }
        assert_eq!(m.table_size(), 0);
        m.lock(TxnId(5), addr(3), LockMode::Exclusive).unwrap();
    }

    /// Two sharers fit inline; a third spills into `Rare`. Once the first
    /// two release it is the sole holder and upgrades in place.
    #[test]
    fn third_sharer_spills_and_later_upgrades() {
        let m = mgr();
        for t in 1..=3 {
            m.lock(TxnId(t), addr(8), LockMode::Shared).unwrap();
        }
        let spilled = |m: &LockManager| {
            let raw = addr(8).to_raw();
            m.table(raw).get(raw).map(|s| s.sharers().to_vec())
        };
        assert_eq!(spilled(&m), Some(vec![TxnId(3)]));
        for t in 1..=3 {
            assert_eq!(m.holds(TxnId(t), addr(8)), Some(LockMode::Shared));
        }
        m.unlock(TxnId(1), addr(8));
        m.unlock(TxnId(2), addr(8));
        assert_eq!(spilled(&m), Some(vec![]));
        m.lock(TxnId(3), addr(8), LockMode::Exclusive).unwrap();
        assert_eq!(m.holds(TxnId(3), addr(8)), Some(LockMode::Exclusive));
        assert_eq!(m.holds(TxnId(1), addr(8)), None);
        assert_eq!(m.holds(TxnId(2), addr(8)), None);
        assert_eq!(m.stats.upgrades.get(), 1);
        m.unlock(TxnId(3), addr(8));
        assert_eq!(m.table_size(), 0);
    }

    /// Satellite regression for the release-wakeup herd: 16 walkers storm
    /// one object with exclusive locks. The old shard-wide broadcast woke
    /// every parked waiter on every release (~15 futile wakeups per
    /// handover); per-entry `notify_one` hands the lock to exactly one
    /// waiter, so observed wakeups stay near the number of contended
    /// handovers and nobody times out.
    #[test]
    fn sixteen_walker_storm_wakes_targeted_not_herd() {
        const WALKERS: u64 = 16;
        const ITERS: u64 = 40;
        let m = Arc::new(LockManager::new(8, Duration::from_secs(30)));
        let mut handles = Vec::new();
        for t in 0..WALKERS {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..ITERS {
                    let tid = TxnId(t * 10_000 + i + 1);
                    m.lock(tid, addr(11), LockMode::Exclusive).unwrap();
                    std::hint::black_box(&m); // hold window: just the call overhead
                    m.unlock(tid, addr(11));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = WALKERS * ITERS;
        assert_eq!(m.stats.timeouts.get(), 0, "30 s timeout never fires");
        assert_eq!(m.stats.acquisitions.get(), total);
        // Broadcast wakeups scale ~ waiters × releases (thousands here);
        // targeted wakeups scale with handovers. Allow 2× slack for grant
        // races where a woken waiter loses to a barger and re-parks.
        assert!(
            m.stats.wakeups.get() <= 2 * total,
            "wakeup herd: {} wakeups for {} acquisitions",
            m.stats.wakeups.get(),
            total
        );
    }

    #[test]
    fn contended_increments_reach_total() {
        let m = Arc::new(LockManager::new(8, Duration::from_secs(10)));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    let tid = TxnId(t * 1000 + i);
                    m.lock(tid, addr(7), LockMode::Exclusive).unwrap();
                    counter.fetch_add(1, Ordering::Relaxed);
                    m.unlock(tid, addr(7));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }
}
