//! Offline shim for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to crates.io, so the external
//! `parking_lot` crate is replaced by this local implementation over
//! `std::sync`. Semantics preserved from parking_lot:
//!
//! - `Mutex::lock` / `RwLock::read` / `RwLock::write` return guards
//!   directly (no `Result`); a poisoned std lock is recovered, matching
//!   parking_lot's absence of poisoning.
//! - `Condvar::wait*` take `&mut MutexGuard` instead of consuming the
//!   guard, and `wait_until` takes an `Instant` deadline.
//!
//! Only the API surface actually referenced by the workspace is provided.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- Mutex --

pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
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

// --------------------------------------------------------------- RwLock --

pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
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

// -------------------------------------------------------------- Condvar --

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads currently inside a `wait*` call. `std`'s `notify_*` is a
    /// `futex_wake` system call even when nobody is parked; parking_lot
    /// returns early in that case, and so does this shim.
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
    pub const fn new() -> Self {
        Self {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Run one `std` wait with this thread counted as parked.
    fn parked<'a, T>(
        &self,
        guard: &mut MutexGuard<'a, T>,
        f: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
    ) {
        // ordering: Relaxed; the caller's mutex orders this against the notifier (see `waiters`)
        self.waiters.fetch_add(1, Ordering::Relaxed);
        replace_guard(guard, f);
        // ordering: Relaxed; a stale non-zero read only costs the notifier one wake call
        self.waiters.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.parked(guard, |g| {
            self.inner.wait(g).unwrap_or_else(PoisonError::into_inner)
        });
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let mut timed_out = false;
        self.parked(guard, |g| {
            let (g, result) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = result.timed_out();
            g
        });
        WaitTimeoutResult(timed_out)
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if deadline <= now {
            return WaitTimeoutResult(true);
        }
        self.wait_for(guard, deadline - now)
    }

    fn has_waiters(&self) -> bool {
        // ordering: Relaxed; the waiters' mutex orders this against their registration (see `waiters`)
        self.waiters.load(Ordering::Relaxed) != 0
    }

    pub fn notify_one(&self) {
        if self.has_waiters() {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.has_waiters() {
            self.inner.notify_all();
        }
    }
}

/// Run `f` on the std guard held inside `slot`, replacing it with the guard
/// `f` returns. The guard is moved out by value because `std::sync::Condvar`
/// consumes and returns guards, while the parking_lot API mutates in place.
///
/// Safety: `f` must not panic between taking and returning the guard, or the
/// guard would be dropped twice. The only closures passed here call
/// `Condvar::wait{,_timeout}` and recover poisoning, which do not panic.
fn replace_guard<'a, T>(
    slot: &mut MutexGuard<'a, T>,
    f: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
) {
    unsafe {
        let taken = std::ptr::read(&slot.inner);
        let fresh = f(taken);
        std::ptr::write(&mut slot.inner, fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_waiter_count_returns_to_zero_after_timeout() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(!cv.has_waiters());
        let r = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(r.timed_out());
        assert!(!cv.has_waiters(), "a timed-out waiter must deregister");
        // With nobody parked both notifies return early; a later wait
        // still registers and deregisters.
        cv.notify_one();
        cv.notify_all();
        cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(!cv.has_waiters());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                let r = cv.wait_until(&mut done, Instant::now() + Duration::from_secs(5));
                assert!(!r.timed_out());
            }
        });
        thread::sleep(Duration::from_millis(20));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }
}
