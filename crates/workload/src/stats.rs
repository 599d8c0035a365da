//! Lock-free traversal statistics: per-edge co-access counters.
//!
//! Walkers report every parent→child hop they take (the object they just
//! read and the reference they followed). [`TraversalStats`] accumulates
//! those hops into per-edge counters without taking a lock on the hot
//! path: the table is sharded by edge hash, each shard is a fixed array of
//! atomically-claimed slots, and counting is a single `fetch_add` once the
//! slot is found. This is the "observe" stage of the
//! observe → plan → reorganize → measure loop (DESIGN §15): the snapshot,
//! [`TraversalStats::edges`], is what [`ira::StatsGreedy`] plans from.
//!
//! Concurrency model: a writer claims an empty slot with a CAS on the slot
//! state (`EMPTY → PUBLISHING`), writes the edge key, then releases the
//! slot (`READY`). Two threads racing to insert the *same* edge may each
//! claim a slot; the duplicate wastes a slot but no counts are lost —
//! [`TraversalStats::edges`] aggregates by key, so totals stay exact. A
//! full shard (probe limit hit) drops the sample and bumps `dropped`; for
//! planning purposes a saturated table already holds the hot edges.

use brahma::PhysAddr;
use ira::EdgeCount;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Anything walkers can report traversed edges to.
pub trait EdgeObserver: Sync {
    /// Record one traversal of the `parent → child` edge.
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr);
}

const SHARDS: usize = 16;
/// Slots per shard; total capacity is `SHARDS * SLOTS_PER_SHARD` distinct
/// edges (8192 by default — the Section 5.2 graph has ~2 edges per object,
/// so this covers partitions well past the paper's 2550-object database).
const SLOTS_PER_SHARD: usize = 512;
const PROBE_LIMIT: usize = 64;

const EMPTY: u64 = 0;
const PUBLISHING: u64 = 1;
const READY: u64 = 2;

/// One edge slot. `state` gates visibility: readers only trust
/// `parent`/`child` after loading `READY` with `Acquire`.
struct Slot {
    state: AtomicU64,
    parent: AtomicU64,
    child: AtomicU64,
    count: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            state: AtomicU64::new(EMPTY),
            parent: AtomicU64::new(0),
            child: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

struct Shard {
    slots: Vec<Slot>,
}

/// Sharded lock-free co-access counters, one per workload run.
pub struct TraversalStats {
    shards: Vec<Shard>,
    /// Total edge traversals recorded (including duplicates of the same
    /// edge).
    recorded: AtomicU64,
    /// Samples dropped because a shard's probe window was full.
    dropped: AtomicU64,
}

impl Default for TraversalStats {
    fn default() -> Self {
        Self::new()
    }
}

impl TraversalStats {
    pub fn new() -> Self {
        TraversalStats {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    slots: (0..SLOTS_PER_SHARD).map(|_| Slot::new()).collect(),
                })
                .collect(),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// FxHash-style mix of the edge key; cheap and good enough to spread
    /// page-aligned addresses across shards and probe windows.
    fn hash(parent: u64, child: u64) -> u64 {
        let mut h = parent.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ child;
        h ^= h >> 32;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 29;
        h
    }

    fn record(&self, parent: PhysAddr, child: PhysAddr) {
        let (p, c) = (parent.to_raw(), child.to_raw());
        let h = Self::hash(p, c);
        let shard = &self.shards[(h as usize) % SHARDS];
        let mask = SLOTS_PER_SHARD - 1;
        let base = (h >> 8) as usize;
        for i in 0..PROBE_LIMIT {
            let slot = &shard.slots[(base + i) & mask];
            match slot.state.load(Ordering::Acquire) {
                READY => {
                    if slot.parent.load(Ordering::Relaxed) == p
                        && slot.child.load(Ordering::Relaxed) == c
                    {
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                EMPTY => {
                    if slot
                        .state
                        .compare_exchange(EMPTY, PUBLISHING, Ordering::Acquire, Ordering::Acquire)
                        .is_ok()
                    {
                        slot.parent.store(p, Ordering::Relaxed);
                        slot.child.store(c, Ordering::Relaxed);
                        slot.count.store(1, Ordering::Relaxed);
                        slot.state.store(READY, Ordering::Release);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Lost the claim race: someone else is publishing this
                    // slot (possibly the same edge). Re-check it once it is
                    // ready rather than skipping ahead.
                    while slot.state.load(Ordering::Acquire) == PUBLISHING {
                        std::hint::spin_loop();
                    }
                    if slot.parent.load(Ordering::Relaxed) == p
                        && slot.child.load(Ordering::Relaxed) == c
                    {
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                _ => {
                    // PUBLISHING by another thread: wait for the key, then
                    // fall through to the match check above on next probe if
                    // it isn't ours.
                    while slot.state.load(Ordering::Acquire) == PUBLISHING {
                        std::hint::spin_loop();
                    }
                    if slot.parent.load(Ordering::Relaxed) == p
                        && slot.child.load(Ordering::Relaxed) == c
                    {
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        self.recorded.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregate the table into per-edge counts, hottest first. Duplicate
    /// slots for the same edge (benign insert races) are merged here, so
    /// the returned counts are exact.
    pub fn edges(&self) -> Vec<EdgeCount> {
        let mut agg: HashMap<(u64, u64), u64> = HashMap::new();
        for shard in &self.shards {
            for slot in &shard.slots {
                if slot.state.load(Ordering::Acquire) != READY {
                    continue;
                }
                let key = (
                    slot.parent.load(Ordering::Relaxed),
                    slot.child.load(Ordering::Relaxed),
                );
                *agg.entry(key).or_insert(0) += slot.count.load(Ordering::Relaxed);
            }
        }
        let mut edges: Vec<EdgeCount> = agg
            .into_iter()
            .map(|((p, c), count)| EdgeCount {
                parent: PhysAddr::from_raw(p),
                child: PhysAddr::from_raw(c),
                count,
            })
            .collect();
        edges.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.parent.to_raw().cmp(&b.parent.to_raw()))
                .then(a.child.to_raw().cmp(&b.child.to_raw()))
        });
        edges
    }

    /// Total traversals recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Samples dropped to full probe windows.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Export collector health under `stats.*` keys (DESIGN §8).
    pub fn export(&self, snap: &mut obs::Snapshot) {
        snap.set("stats.edges_recorded", self.recorded());
        snap.set("stats.edges_distinct", self.edges().len() as u64);
        snap.set("stats.edges_dropped", self.dropped());
    }
}

impl EdgeObserver for TraversalStats {
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr) {
        self.record(parent, child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::PartitionId;
    use std::sync::Arc;

    fn a(p: u16, off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(p), 0, off)
    }

    #[test]
    fn counts_are_exact_single_thread() {
        let stats = TraversalStats::new();
        for _ in 0..10 {
            stats.record_edge(a(1, 0), a(1, 64));
        }
        stats.record_edge(a(1, 64), a(1, 128));
        let edges = stats.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].count, 10);
        assert_eq!((edges[0].parent, edges[0].child), (a(1, 0), a(1, 64)));
        assert_eq!(edges[1].count, 1);
        assert_eq!(stats.recorded(), 11);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn concurrent_recording_loses_no_counts() {
        let stats = Arc::new(TraversalStats::new());
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // 32 distinct edges, every thread hitting all of
                        // them: maximal insert/count contention.
                        let k = ((t + i) % 32) as u16;
                        stats.record_edge(a(1, k * 64), a(1, k * 64 + 32));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = stats.edges().iter().map(|e| e.count).sum();
        assert_eq!(total + stats.dropped(), (THREADS * PER_THREAD) as u64);
        assert_eq!(stats.dropped(), 0, "32 edges cannot fill a probe window");
        assert_eq!(stats.edges().len(), 32);
    }

    #[test]
    fn saturation_drops_instead_of_blocking() {
        let stats = TraversalStats::new();
        // Far more distinct edges than slots: some must drop, none may
        // hang, and recorded + dropped must account for every call.
        let n: u64 = 3 * (super::SHARDS * super::SLOTS_PER_SHARD) as u64;
        for i in 0..n {
            let p = PhysAddr::from_raw(i.wrapping_mul(0x1_0001) << 5);
            let c = PhysAddr::from_raw((i.wrapping_mul(0x2_0003) << 5) | 1 << 16);
            stats.record_edge(p, c);
        }
        assert!(stats.dropped() > 0);
        assert_eq!(stats.recorded() + stats.dropped(), n);
        let total: u64 = stats.edges().iter().map(|e| e.count).sum();
        assert_eq!(total, stats.recorded());
    }

    #[test]
    fn export_sets_documented_keys() {
        let stats = TraversalStats::new();
        stats.record_edge(a(1, 0), a(1, 64));
        let mut snap = obs::Snapshot::default();
        stats.export(&mut snap);
        assert_eq!(snap.get("stats.edges_recorded"), 1);
        assert_eq!(snap.get("stats.edges_distinct"), 1);
        assert_eq!(snap.get("stats.edges_dropped"), 0);
    }
}
