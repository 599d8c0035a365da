//! Deterministic fault injection (DESIGN.md §9).
//!
//! The storage manager threads named *fault sites* through its hot paths —
//! WAL appends and commit flushes, lock acquisition and upgrade, page-latch
//! acquisition, allocator calls, and TRT/ERT mutation — and the `ira` crate
//! adds one site per reorganization phase boundary. A [`FaultInjector`] held
//! by every [`crate::Database`] decides, per hit, whether the site proceeds
//! normally, fails with a retryable or permanent [`Error::Injected`], or
//! requests a crash.
//!
//! Design constraints:
//!
//! * **Zero cost when disarmed.** The injector starts disarmed and every
//!   site check is a single relaxed atomic load in that state, so the
//!   Figure 6 throughput numbers are unaffected by the instrumentation.
//! * **Deterministic.** A [`FaultPlan`] names a site, the 1-based hit number
//!   at which it starts firing, an action, and how many consecutive hits
//!   fire. Hits are counted globally per site under a mutex, so a plan
//!   replayed against the same (single-reorganizer) schedule fires at the
//!   same operation.
//! * **Crashes are requests, not panics.** A `Crash` action never unwinds
//!   the faulting thread; it latches a crash request on the injector. The
//!   IRA driver polls [`FaultInjector::take_crash_request`] at every batch
//!   boundary and converts the request into a simulated crash that leaves
//!   the pass open, exactly like a stop-the-world failure between two
//!   migration transactions (Section 4.4 of the paper).

use crate::error::{Error, Result};
use crate::lockdep::{LockClass, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Names of the fault sites registered by the storage manager itself. The
/// `ira` crate registers additional `ira.*` sites for its phase boundaries.
pub mod site {
    /// A data-operation log record is about to be appended.
    pub(crate) const WAL_APPEND: &str = "wal.append";
    /// A commit record is about to be appended and the log forced.
    pub const WAL_COMMIT_FLUSH: &str = "wal.commit_flush";
    /// A fresh lock request (the requester holds nothing on the address).
    pub const LOCK_ACQUIRE: &str = "lock.acquire";
    /// A shared-to-exclusive upgrade request.
    pub(crate) const LOCK_UPGRADE: &str = "lock.upgrade";
    /// A page latch is about to be taken (crash-only: latched code paths
    /// return no `Result`, so error actions at this site only count).
    pub(crate) const PAGE_LATCH: &str = "page.latch";
    /// The allocator is about to carve space for a new object.
    pub(crate) const ALLOC: &str = "alloc.alloc";
    /// A slot was just claimed (the class free-list head or bump cursor is
    /// in flight: the directory records the object, but nothing is logged
    /// or initialized yet). A crash here must recover to an image where
    /// the in-flight slot is reclaimed by the allocator rebuild.
    pub(crate) const ALLOC_INFLIGHT: &str = "alloc.inflight";
    /// The allocator is about to release (or defer) an object's space.
    pub(crate) const ALLOC_FREE: &str = "alloc.free";
    /// An operation is about to mutate a TRT (reference note).
    pub(crate) const TRT_NOTE: &str = "trt.note";
    /// An operation is about to mutate an ERT (cross-partition edge).
    pub(crate) const ERT_NOTE: &str = "ert.note";

    /// Every substrate-level site, for sweep construction.
    pub const ALL: &[&str] = &[
        WAL_APPEND,
        WAL_COMMIT_FLUSH,
        LOCK_ACQUIRE,
        LOCK_UPGRADE,
        PAGE_LATCH,
        ALLOC,
        ALLOC_INFLIGHT,
        ALLOC_FREE,
        TRT_NOTE,
        ERT_NOTE,
    ];

    /// A WAL record is about to be pwritten to the active segment file
    /// (crash-only in practice: the segment writer runs behind paths that
    /// return no `Result`, so error actions only count; a crash kills the
    /// backend before any bytes land).
    pub const FILE_PWRITE: &str = "file.pwrite";
    /// The group-commit leader is about to fsync the active segment.
    pub const FILE_FSYNC: &str = "file.fsync";
    /// A WAL record write tears: a prefix of the encoded record lands on
    /// disk, then the backend dies. Recovery must truncate the torn tail.
    pub const FILE_TORN_WRITE: &str = "file.torn_write";
    /// A shadow checkpoint is about to be renamed over the live one; a
    /// crash here leaves the previous checkpoint intact.
    pub const CKPT_RENAME: &str = "ckpt.rename";

    /// Every file-backend site, for the disk-chaos sweep. Kept out of
    /// [`ALL`] on purpose: the in-memory sweep asserts every `ALL` site
    /// fires, and these sites only exist when a `FileBackend` is attached.
    pub const FILE_ALL: &[&str] = &[FILE_PWRITE, FILE_FSYNC, FILE_TORN_WRITE, CKPT_RENAME];
}

/// What the injector does when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with [`Error::Injected`] marked retryable; retry
    /// loops treat it exactly like a lock timeout.
    Retryable,
    /// Fail the operation with a permanent [`Error::Injected`]; callers
    /// must give up cleanly (the reorganizer releases the reorganization).
    Permanent,
    /// Latch a crash request; the reorganization driver turns it into a
    /// simulated crash at the next batch boundary.
    Crash,
}

/// Severity carried inside [`Error::Injected`] (a subset of
/// [`FaultAction`]: crashes never surface as errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedKind {
    Retryable,
    Permanent,
}

/// One rule of a fault plan: at hit number `from_hit` (1-based) of `site`,
/// fire `action`, and keep firing for `times` consecutive hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    pub site: &'static str,
    pub from_hit: u64,
    pub times: u64,
    pub action: FaultAction,
}

impl FaultRule {
    /// Fire `action` exactly once, on hit `nth` (1-based) of `site`.
    pub fn nth(site: &'static str, nth: u64, action: FaultAction) -> Self {
        FaultRule {
            site,
            from_hit: nth.max(1),
            times: 1,
            action,
        }
    }

    /// Fire `action` on `times` consecutive hits starting at `nth`.
    pub fn burst(site: &'static str, nth: u64, times: u64, action: FaultAction) -> Self {
        FaultRule {
            site,
            from_hit: nth.max(1),
            times,
            action,
        }
    }

    fn fires_at(&self, hit: u64) -> bool {
        hit >= self.from_hit && hit - self.from_hit < self.times
    }
}

/// A seeded set of fault rules. The seed does not perturb firing decisions
/// (those are exact hit counts); it names the plan for reporting and lets
/// sweeps derive per-cell strides reproducibly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder-style rule addition.
    pub fn with(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

#[derive(Default)]
struct InjectorState {
    plan: FaultPlan,
    /// Hits per site since arming (fired or not).
    hits: HashMap<&'static str, u64>,
    /// Fired rules per site since arming.
    fired: HashMap<&'static str, u64>,
    /// The site whose `Crash` rule latched the pending crash request.
    crash_site: Option<&'static str>,
}

/// The per-database fault injector. See the module docs for the contract.
pub struct FaultInjector {
    armed: AtomicBool,
    crash_requested: AtomicBool,
    state: Mutex<InjectorState>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultInjector {
    /// A disarmed injector (the state every database starts in).
    pub(crate) fn new() -> Self {
        FaultInjector {
            armed: AtomicBool::new(false),
            crash_requested: AtomicBool::new(false),
            state: Mutex::new(LockClass::FaultState, 0, InjectorState::default()),
        }
    }

    /// Arm the injector with `plan`, resetting all hit counters.
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        *st = InjectorState {
            plan,
            ..InjectorState::default()
        };
        // ordering: SeqCst latch reset; no site may observe a stale crash request
        self.crash_requested.store(false, Ordering::SeqCst);
        // ordering: SeqCst arm; sites must not fire before the plan is installed
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarm: site checks return to the single-load fast path. Counters
    /// are retained for inspection until the next [`FaultInjector::arm`].
    pub fn disarm(&self) {
        // ordering: SeqCst disarm; sites stop firing before counters are inspected
        self.armed.store(false, Ordering::SeqCst);
        // ordering: SeqCst latch reset, paired with the arm/disarm protocol above
        self.crash_requested.store(false, Ordering::SeqCst);
    }

    /// Whether a plan is armed. This is the hot-path guard: callers may
    /// skip site-name computation entirely when it returns `false`.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        // ordering: hot-path probe; a stale read only delays (dis)arming by one site
        self.armed.load(Ordering::Relaxed)
    }

    /// Fallible site check: count the hit and fail if a rule fires with an
    /// error action. `Crash` rules latch the crash request and return `Ok`.
    #[inline]
    pub fn hit(&self, site: &'static str) -> Result<()> {
        if !self.armed() {
            return Ok(());
        }
        self.hit_slow(site)
    }

    /// Crash-only site check for paths that return no `Result` (page
    /// latches): the hit is counted, `Crash` rules latch the request, error
    /// actions fire into the counters but cannot unwind.
    #[inline]
    pub fn observe(&self, site: &'static str) {
        if !self.armed() {
            return;
        }
        let _ = self.hit_slow(site);
    }

    #[cold]
    fn hit_slow(&self, site: &'static str) -> Result<()> {
        // Bookkeeping happens in one block so the state guard is dropped
        // before the sched point: a gating schedule controller may block
        // this thread there, and it must not do so while holding FaultState.
        let action = {
            let mut st = self.state.lock();
            let hit = st.hits.entry(site).or_insert(0);
            *hit += 1;
            let hit = *hit;
            let action = st
                .plan
                .rules
                .iter()
                .find(|r| r.site == site && r.fires_at(hit))
                .map(|r| r.action);
            if action.is_some() {
                *st.fired.entry(site).or_insert(0) += 1;
                if action == Some(FaultAction::Crash) {
                    st.crash_site = Some(site);
                }
            }
            action
        };
        let Some(action) = action else {
            return Ok(());
        };
        // Schedule hook: only *fired* rules are interleaving-relevant
        // (every mutator hits its sites on every call; firing is rare). The
        // site name itself is the event.
        crate::sched::point(site);
        match action {
            FaultAction::Retryable => Err(Error::Injected {
                site,
                kind: InjectedKind::Retryable,
            }),
            FaultAction::Permanent => Err(Error::Injected {
                site,
                kind: InjectedKind::Permanent,
            }),
            FaultAction::Crash => {
                // ordering: SeqCst crash latch; the requester's writes precede the teardown
                self.crash_requested.store(true, Ordering::SeqCst);
                Ok(())
            }
        }
    }

    /// Whether a `Crash` rule has fired and not yet been consumed.
    pub fn crash_requested(&self) -> bool {
        // ordering: SeqCst read of the crash latch, paired with the store above
        self.crash_requested.load(Ordering::SeqCst)
    }

    /// Consume a pending crash request, returning the site that latched it.
    pub fn take_crash_request(&self) -> Option<&'static str> {
        // ordering: SeqCst consume; exactly one observer wins the latched crash
        if !self.crash_requested.swap(false, Ordering::SeqCst) {
            return None;
        }
        self.state.lock().crash_site.take()
    }

    /// Hits recorded at `site` since arming.
    pub fn hits(&self, site: &str) -> u64 {
        self.state.lock().hits.get(site).copied().unwrap_or(0)
    }

    /// Rules fired at `site` since arming.
    pub fn fired(&self, site: &str) -> u64 {
        self.state.lock().fired.get(site).copied().unwrap_or(0)
    }

    /// Export `fault.fired.<site>` for every site that fired at least one
    /// rule (disarmed databases export nothing).
    pub(crate) fn export(&self, snap: &mut obs::Snapshot) {
        let st = self.state.lock();
        for (site, n) in &st.fired {
            snap.set(&format!("fault.fired.{site}"), *n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_never_fires() {
        let inj = FaultInjector::new();
        for _ in 0..1000 {
            inj.hit(site::WAL_APPEND).unwrap();
            inj.observe(site::PAGE_LATCH);
        }
        assert!(!inj.armed());
        assert_eq!(inj.fired(site::WAL_APPEND) + inj.fired(site::PAGE_LATCH), 0);
        assert_eq!(inj.hits(site::WAL_APPEND), 0, "disarmed hits are free");
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(7).with(FaultRule::nth(
            site::LOCK_ACQUIRE,
            3,
            FaultAction::Retryable,
        )));
        inj.hit(site::LOCK_ACQUIRE).unwrap();
        inj.hit(site::LOCK_ACQUIRE).unwrap();
        let err = inj.hit(site::LOCK_ACQUIRE).unwrap_err();
        assert_eq!(
            err,
            Error::Injected {
                site: site::LOCK_ACQUIRE,
                kind: InjectedKind::Retryable
            }
        );
        inj.hit(site::LOCK_ACQUIRE).unwrap();
        assert_eq!(inj.hits(site::LOCK_ACQUIRE), 4);
        assert_eq!(inj.fired(site::LOCK_ACQUIRE), 1);
    }

    #[test]
    fn burst_fires_consecutively_then_stops() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(0).with(FaultRule::burst(
            site::WAL_APPEND,
            2,
            3,
            FaultAction::Retryable,
        )));
        assert!(inj.hit(site::WAL_APPEND).is_ok());
        assert!(inj.hit(site::WAL_APPEND).is_err());
        assert!(inj.hit(site::WAL_APPEND).is_err());
        assert!(inj.hit(site::WAL_APPEND).is_err());
        assert!(inj.hit(site::WAL_APPEND).is_ok());
        assert_eq!(inj.fired(site::WAL_APPEND), 3);
    }

    #[test]
    fn crash_latches_without_unwinding() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(0).with(FaultRule::nth(site::TRT_NOTE, 1, FaultAction::Crash)));
        assert!(inj.hit(site::TRT_NOTE).is_ok(), "crash never errors");
        assert!(inj.crash_requested());
        assert_eq!(inj.take_crash_request(), Some(site::TRT_NOTE));
        assert!(!inj.crash_requested());
        assert_eq!(inj.take_crash_request(), None);
    }

    #[test]
    fn observe_counts_and_latches_crash() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(0).with(FaultRule::nth(site::PAGE_LATCH, 2, FaultAction::Crash)));
        inj.observe(site::PAGE_LATCH);
        assert!(!inj.crash_requested());
        inj.observe(site::PAGE_LATCH);
        assert!(inj.crash_requested());
        assert_eq!(inj.fired(site::PAGE_LATCH), 1);
    }

    #[test]
    fn export_emits_fired_counters() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(0).with(FaultRule::nth(site::ALLOC, 1, FaultAction::Permanent)));
        let _ = inj.hit(site::ALLOC);
        let mut snap = obs::Snapshot::new();
        inj.export(&mut snap);
        assert_eq!(snap.get("fault.fired.alloc.alloc"), 1);
    }

    #[test]
    fn disarm_stops_firing_but_keeps_counts() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan::new(0).with(FaultRule::burst(
            site::ALLOC_FREE,
            1,
            u64::MAX,
            FaultAction::Retryable,
        )));
        assert!(inj.hit(site::ALLOC_FREE).is_err());
        inj.disarm();
        assert!(inj.hit(site::ALLOC_FREE).is_ok());
        assert_eq!(inj.fired(site::ALLOC_FREE), 1);
    }
}
