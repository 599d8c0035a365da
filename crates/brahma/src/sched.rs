//! The schedule hook and the seed tree (DESIGN.md §12).
//!
//! Concurrency bugs in the reorganization stack are schedule bugs: they
//! need a particular interleaving of walker transactions and the migrator.
//! This module makes those schedules *steerable*:
//!
//! * **Control.** Instrumented points across the substrate — lockdep
//!   acquire/release, fired fault rules, retry backoff decisions, WAL
//!   appends, TRT/ERT notes, and the IRA driver's batch boundaries — call
//!   [`point`]. A [`Controller`] installed with [`install_controller`] is
//!   called there *before* the point's action and may block the calling
//!   thread — the hook the random-priority schedule explorer
//!   (`harness::replay`) is built on.
//! * **Seeding.** [`SeedTree`] derives independent, reproducible child
//!   seeds per thread/component from one root seed (splitmix64 over a
//!   label hash), so every RNG stream in a run — workload walks, chaos
//!   cells, retry jitter — is a pure function of the root seed.
//!
//! The hook exists only when `debug_assertions` are on; otherwise
//! [`point`] and [`install_controller`] return on the `COMPILED` constant
//! first and compile to nothing. When compiled in, a point is a single
//! relaxed atomic load until a controller is installed. The controller
//! slot is a raw `std::sync` lock, so the hook never instruments itself
//! through lockdep.
#![expect(
    clippy::disallowed_types,
    reason = "lockdep's acquires call this hook, so its own lock must stay a raw std::sync one"
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// splitmix64: the seed-derivation hash. Small, fast, and equidistributed
/// enough for jitter and child-seed derivation (it is the seeder
/// recommended for xorshift-family generators).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A node in the seed-derivation tree: one root seed, deterministic child
/// seeds per label or index. Two children with different labels draw
/// decorrelated streams; the same path always yields the same seed, so a
/// run is fully determined by its root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedTree {
    seed: u64,
}

impl SeedTree {
    /// The tree rooted at `root`.
    pub const fn new(root: u64) -> Self {
        SeedTree { seed: root }
    }

    /// This node's seed (what gets plugged into an RNG or jitter hash).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The child named `label` (FNV-1a over the label, mixed by splitmix64).
    pub fn child(&self, label: &str) -> SeedTree {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        SeedTree {
            seed: splitmix64(self.seed ^ h),
        }
    }

    /// The `idx`-th indexed child (per-thread / per-worker streams).
    pub fn child_idx(&self, idx: u64) -> SeedTree {
        SeedTree {
            seed: splitmix64(self.seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// A schedule controller: called at every instrumented point while it is
/// installed, *before* the point's action executes, on the thread that
/// reached the point. May block the calling thread (that is the point —
/// gating is how a test steers a schedule). Must not call back into
/// instrumented code paths that could gate recursively on itself.
pub trait Controller: Send + Sync {
    fn at_point(&self, event: &'static str);
}

/// Whether the hook exists in this build. A constant: `point` and
/// `install_controller` return on it first, so a release build compiles
/// them to nothing.
const COMPILED: bool = cfg!(debug_assertions);

static INSTALLED: AtomicBool = AtomicBool::new(false);
static CONTROLLER: RwLock<Option<Arc<dyn Controller>>> = RwLock::new(None);

fn poisoned<T>(e: std::sync::PoisonError<T>) -> T {
    // The hook must stay usable while a panicking test unwinds.
    e.into_inner()
}

/// An instrumented point: call the installed controller, if any. A single
/// relaxed load when none is.
#[inline]
pub fn point(event: &'static str) {
    // ordering: hot-path probe; a stale read skips or gates at most one point
    if COMPILED && INSTALLED.load(Ordering::Relaxed) {
        gate(event);
    }
}

#[cold]
fn gate(event: &'static str) {
    // Clone the controller out of the slot so a blocking gate never holds
    // the slot's lock.
    let ctrl = CONTROLLER
        .read()
        .unwrap_or_else(poisoned)
        .as_ref()
        .map(Arc::clone);
    if let Some(c) = ctrl {
        c.at_point(event);
    }
}

/// Install `ctrl` as the global schedule controller and arm the hook.
#[inline]
pub fn install_controller(ctrl: Arc<dyn Controller>) {
    if !COMPILED {
        return;
    }
    *CONTROLLER.write().unwrap_or_else(poisoned) = Some(ctrl);
    // ordering: SeqCst arm; points must not straddle the toggle
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Disarm the hook and remove the installed controller.
pub fn clear_controller() {
    // ordering: SeqCst disarm, paired with install_controller
    INSTALLED.store(false, Ordering::SeqCst);
    *CONTROLLER.write().unwrap_or_else(poisoned) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values from the canonical splitmix64 (Steele et al.).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn seed_tree_is_deterministic_and_decorrelated() {
        let root = SeedTree::new(42);
        assert_eq!(root.child("walker").seed(), root.child("walker").seed());
        assert_ne!(root.child("walker").seed(), root.child("worker").seed());
        assert_ne!(root.child_idx(0).seed(), root.child_idx(1).seed());
        assert_ne!(
            root.child("walker").child_idx(3).seed(),
            root.child("worker").child_idx(3).seed(),
            "paths, not leaf indices, determine the stream"
        );
        assert_ne!(
            SeedTree::new(1).child("x").seed(),
            SeedTree::new(2).child("x").seed()
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_point_reaches_the_controller_only_while_installed() {
        use std::sync::atomic::AtomicU64;

        // This test is the only one in this binary that installs a
        // controller; it counts its own event only.
        struct Count(AtomicU64);
        impl Controller for Count {
            fn at_point(&self, event: &'static str) {
                if event == "test.gated" {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let c = Arc::new(Count(AtomicU64::new(0)));
        point("test.gated");
        install_controller(c.clone());
        point("test.gated");
        clear_controller();
        point("test.gated");
        assert_eq!(c.0.load(Ordering::Relaxed), 1);
    }
}
