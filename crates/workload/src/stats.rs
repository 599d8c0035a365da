//! Traversal statistics: per-edge co-access counters.
//!
//! Walkers report every parent→child hop they take (the object they just
//! read and the reference they followed). [`TraversalStats`] counts those
//! hops per edge in one map behind one mutex, so every count is exact and
//! no sample is ever dropped. This is the "observe" stage of the
//! observe → plan → reorganize → measure loop (DESIGN §15): the snapshot,
//! [`TraversalStats::edges`], is what [`ira::StatsGreedy`] plans from.

use brahma::PhysAddr;
use ira::EdgeCount;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Anything walkers can report traversed edges to.
pub trait EdgeObserver: Sync {
    /// Record one traversal of the `parent → child` edge.
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr);
}

/// Exact per-edge traversal counts, one per workload run.
#[derive(Default)]
pub struct TraversalStats {
    counts: Mutex<HashMap<(PhysAddr, PhysAddr), u64>>,
}

impl TraversalStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-edge counts, hottest first, ties by address.
    pub fn edges(&self) -> Vec<EdgeCount> {
        let counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        let mut edges: Vec<EdgeCount> = counts
            .iter()
            .map(|(&(parent, child), &count)| EdgeCount {
                parent,
                child,
                count,
            })
            .collect();
        drop(counts);
        edges.sort_by_key(|e| {
            (
                std::cmp::Reverse(e.count),
                e.parent.to_raw(),
                e.child.to_raw(),
            )
        });
        edges
    }

    /// Total traversals recorded.
    pub fn recorded(&self) -> u64 {
        let counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        counts.values().sum()
    }
}

impl EdgeObserver for TraversalStats {
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr) {
        *self
            .counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((parent, child))
            .or_insert(0) += 1;
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
        let edges = stats.edges();
        let total: u64 = edges.iter().map(|e| e.count).sum();
        assert_eq!(total, (THREADS * PER_THREAD) as u64);
        assert_eq!(stats.recorded(), total);
        assert_eq!(edges.len(), 32);
    }

    #[test]
    fn saturation_drops_instead_of_blocking() {
        // 24,576 distinct edges, each traversed one to three times: every
        // one comes back, with its exact count.
        let n: u64 = 3 * 8_192;
        let edge = |i: u64| {
            (
                PhysAddr::from_raw(i.wrapping_mul(0x1_0001) << 5),
                PhysAddr::from_raw((i.wrapping_mul(0x2_0003) << 5) | 1 << 16),
            )
        };
        let stats = TraversalStats::new();
        for i in 0..n {
            let (p, c) = edge(i);
            for _ in 0..=i % 3 {
                stats.record_edge(p, c);
            }
        }
        let observed: HashMap<(PhysAddr, PhysAddr), u64> = stats
            .edges()
            .iter()
            .map(|e| ((e.parent, e.child), e.count))
            .collect();
        assert_eq!(observed.len() as u64, n);
        for i in 0..n {
            assert_eq!(observed.get(&edge(i)), Some(&(1 + i % 3)), "edge {i}");
        }
        assert_eq!(stats.recorded(), (0..n).map(|i| 1 + i % 3).sum::<u64>());
    }
}
