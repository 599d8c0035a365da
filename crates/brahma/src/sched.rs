//! Deterministic schedule capture and replay substrate (DESIGN.md §12).
//!
//! Concurrency bugs in the reorganization stack are schedule bugs: they
//! need a particular interleaving of walker transactions, the migrator, and
//! the driver's fuzzy checkpoint. This module makes those schedules
//! *observable* and *steerable*:
//!
//! * **Capture.** Instrumented points across the substrate — lockdep
//!   acquire/release, fired fault rules, retry backoff decisions, WAL
//!   appends, TRT/ERT notes, and the IRA driver's batch/checkpoint
//!   boundaries — append `(thread_label, event, key, seq)` tuples to a
//!   bounded in-memory ring. On a failure the ring is dumped
//!   ([`dump_on_failure`], path from the `SCHED_DUMP` environment
//!   variable), giving every flake a replayable schedule transcript.
//! * **Control.** A [`Controller`] installed with [`install_controller`]
//!   is called at every instrumented point *before* the point's action and
//!   may block the calling thread — the hook that trace replay and
//!   random-priority schedule exploration (`harness::replay`) are built on.
//! * **Seeding.** [`SeedTree`] derives independent, reproducible child
//!   seeds per thread/component from one root seed (splitmix64 over a
//!   label hash), so every RNG stream in a run — workload walks, chaos
//!   cells, retry jitter — is a pure function of the root seed.
//!
//! Like [`crate::lockdep`], the recorder runs when `debug_assertions` are on
//! or the `sched-trace` cargo feature is enabled; otherwise every hook
//! returns on the `COMPILED` constant first. When compiled in it is still
//! *disarmed* by default: every point is a single relaxed atomic load until
//! a harness calls [`arm`]. All internal state uses `std::sync` primitives
//! so the recorder never instruments itself through lockdep.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

/// A schedule controller: called at every instrumented point while the
/// recorder is armed, *before* the point's action executes. May block the
/// calling thread (that is the point — gating is how replay and
/// exploration steer schedules). Must not call back into instrumented code
/// paths that could gate recursively on itself.
pub trait Controller: Send + Sync {
    fn at_point(&self, thread: &str, event: &'static str, key: u64);
}

/// One captured event, resolved for dumping/inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedEvent {
    pub seq: u64,
    pub thread: String,
    pub event: &'static str,
    pub key: u64,
}

/// Global event sequence; also ticks while disarmed so controllers can use
/// it as a cheap deterministic counter.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// The next global sequence number (monotonic across arm/disarm cycles).
pub fn next_seq() -> u64 {
    // ordering: sequence allocator; uniqueness only, the ring mutex orders records
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Whether the recorder exists in this build. A constant: `point`, `arm`,
/// `install_controller` and the other hooks return on it first, so a release
/// build without `sched-trace` compiles them to nothing.
const COMPILED: bool = cfg!(any(debug_assertions, feature = "sched-trace"));

/// Ring capacity: enough for a whole chaos cell at lock-acquire
/// granularity; older events are dropped (and counted) beyond it.
const RING_CAP: usize = 1 << 16;

static ARMED: AtomicBool = AtomicBool::new(false);
static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: VecDeque::new(),
    dropped: 0,
});
/// Interned thread labels; a record stores an index into this table.
static LABELS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static CONTROLLER: RwLock<Option<Arc<dyn Controller>>> = RwLock::new(None);

struct Ring {
    buf: VecDeque<Rec>,
    dropped: u64,
}

#[derive(Clone, Copy)]
struct Rec {
    seq: u64,
    label: u32,
    event: &'static str,
    key: u64,
}

thread_local! {
    /// This thread's interned label id; `u32::MAX` means unlabeled.
    static LABEL: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn poisoned<T>(e: std::sync::PoisonError<T>) -> T {
    // The recorder must stay usable while a panicking test unwinds —
    // that is exactly when dump_on_failure runs.
    e.into_inner()
}

/// Label the calling thread for capture ("walker-0", "ckpt", …).
#[inline]
pub fn set_thread_label(label: &str) {
    if !COMPILED {
        return;
    }
    let mut table = LABELS.lock().unwrap_or_else(poisoned);
    let id = match table.iter().position(|l| l == label) {
        Some(i) => i as u32,
        None => {
            table.push(label.to_string());
            (table.len() - 1) as u32
        }
    };
    drop(table);
    LABEL.with(|l| l.set(id));
}

fn label_name(id: u32) -> String {
    if id == u32::MAX {
        return format!("anon-{:?}", std::thread::current().id());
    }
    LABELS
        .lock()
        .unwrap_or_else(poisoned)
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| "anon".to_string())
}

/// Start capturing (and gating, if a controller is installed). Clears
/// the ring so a dump covers exactly the armed window.
#[inline]
pub fn arm() {
    if !COMPILED {
        return;
    }
    {
        let mut ring = RING.lock().unwrap_or_else(poisoned);
        ring.buf.clear();
        ring.dropped = 0;
    }
    // ordering: SeqCst arm; capture points must not straddle the toggle
    ARMED.store(true, Ordering::SeqCst);
}

/// Stop capturing; the ring is retained for inspection until the next
/// [`arm`].
pub fn disarm() {
    // ordering: SeqCst disarm, paired with arm above
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether the recorder is armed (the hot-path guard).
#[inline]
pub fn armed() -> bool {
    // ordering: hot-path probe; a stale read skips at most one capture point
    COMPILED && ARMED.load(Ordering::Relaxed)
}

/// An instrumented point: record `(thread, event, key, seq)` and gate
/// through the installed controller, if any. A single relaxed load when
/// disarmed.
#[inline]
pub fn point(event: &'static str, key: u64) {
    if !armed() {
        return;
    }
    record_and_gate(event, key);
}

#[cold]
fn record_and_gate(event: &'static str, key: u64) {
    // ordering: sequence allocator; uniqueness only, the ring mutex orders records
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let label = LABEL.with(|l| l.get());
    {
        let mut ring = RING.lock().unwrap_or_else(poisoned);
        if ring.buf.len() >= RING_CAP {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Rec {
            seq,
            label,
            event,
            key,
        });
    }
    // Clone the controller out of the registry so a blocking gate never
    // holds the registry lock.
    let ctrl = CONTROLLER
        .read()
        .unwrap_or_else(poisoned)
        .as_ref()
        .map(Arc::clone);
    if let Some(c) = ctrl {
        c.at_point(&label_name(label), event, key);
    }
}

/// Install `ctrl` as the global schedule controller.
#[inline]
pub fn install_controller(ctrl: Arc<dyn Controller>) {
    if !COMPILED {
        return;
    }
    *CONTROLLER.write().unwrap_or_else(poisoned) = Some(ctrl);
}

/// Remove the installed controller (points keep recording).
pub fn clear_controller() {
    *CONTROLLER.write().unwrap_or_else(poisoned) = None;
}

/// A copy of the captured ring, oldest first.
pub fn events() -> Vec<SchedEvent> {
    let ring = RING.lock().unwrap_or_else(poisoned);
    ring.buf
        .iter()
        .map(|r| SchedEvent {
            seq: r.seq,
            thread: label_name(r.label),
            event: r.event,
            key: r.key,
        })
        .collect()
}

/// Events dropped from the ring since the last [`arm`].
pub fn dropped() -> u64 {
    RING.lock().unwrap_or_else(poisoned).dropped
}

/// Serialize the ring to `path` as tab-separated
/// `seq<TAB>thread<TAB>event<TAB>key` lines (`#`-prefixed header).
pub fn dump_to(path: &str) -> std::io::Result<()> {
    if !COMPILED {
        return Ok(());
    }
    let evs = events();
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "# sched trace: {} events ({} dropped)", evs.len(), dropped())?;
    for e in evs {
        writeln!(f, "{}\t{}\t{}\t{}", e.seq, e.thread, e.event, e.key)?;
    }
    Ok(())
}

/// If `SCHED_DUMP=<path>` is set, dump the captured ring there and
/// print where it went. Called from test assertion paths right before
/// they panic, so a flake leaves its schedule behind.
#[inline]
pub fn dump_on_failure(context: &str) {
    if !COMPILED {
        return;
    }
    let Some(path) = crate::env_cfg::sched_dump() else {
        return;
    };
    match dump_to(&path) {
        Ok(()) => eprintln!("sched: dumped schedule trace for `{context}` to {path}"),
        Err(e) => eprintln!("sched: failed to dump trace for `{context}` to {path}: {e}"),
    }
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
        assert_ne!(SeedTree::new(1).child("x").seed(), SeedTree::new(2).child("x").seed());
    }

    #[cfg(any(debug_assertions, feature = "sched-trace"))]
    #[test]
    fn ring_records_events_with_labels_when_armed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // This test owns arm/disarm; other tests in this mod don't arm.
        arm();
        set_thread_label("ring-test");
        point("test.event", 7);
        point("test.event", 8);
        let evs: Vec<SchedEvent> = events()
            .into_iter()
            .filter(|e| e.event == "test.event")
            .collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].thread, "ring-test");
        assert_eq!(evs[0].key, 7);
        assert!(evs[0].seq < evs[1].seq);

        // Controllers see every point; clearing restores plain recording.
        struct Count(AtomicU64);
        impl Controller for Count {
            fn at_point(&self, _t: &str, event: &'static str, _k: u64) {
                if event == "test.gated" {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let c = Arc::new(Count(AtomicU64::new(0)));
        install_controller(c.clone());
        point("test.gated", 0);
        clear_controller();
        point("test.gated", 1);
        assert_eq!(c.0.load(Ordering::Relaxed), 1);

        disarm();
        point("test.event", 9);
        let after: Vec<SchedEvent> = events()
            .into_iter()
            .filter(|e| e.event == "test.event")
            .collect();
        assert_eq!(after.len(), 2, "disarmed points record nothing");
    }
}
