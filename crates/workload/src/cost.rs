//! A fixed-capacity CPU model.
//!
//! The paper's experiments ran on a single-CPU 167 MHz UltraSparc: with the
//! database memory-resident, "CPU gets saturated very soon", so NR/IRA
//! throughput peaks around MPL 5 and stays flat, while commit-time log
//! flushes provide just enough CPU/I-O parallelism that the peak is not at
//! MPL 1 (Section 5.3.1). A modern many-core machine would not reproduce
//! that shape — workload threads would scale until the core count.
//!
//! [`CpuModel`] reintroduces the bottleneck: each object access performs a
//! fixed amount of busy work while holding one of `capacity` CPU permits.
//! Commit flushes (simulated in the storage manager as sleeps) happen
//! outside the permits, exactly like the I/O they model.
//!
//! [`PagedCpuModel`] extends the model with a page-grained buffer cache so
//! *placement* has a price: an access whose page is not among the `frames`
//! most-recently-used pages pays an extra miss penalty on a single-permit
//! "device". This is the measurement half of the clustering loop — packing
//! co-accessed objects onto fewer pages raises the hit rate, which shows
//! up directly as walker throughput.

use brahma::{CpuCharge, PhysAddr};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Fixed-capacity CPU: at most `capacity` threads compute at once.
pub struct CpuModel {
    permits: Mutex<usize>,
    cv: Condvar,
    /// Busy-work per object access.
    pub work_per_access: Duration,
}

impl CpuModel {
    /// A model with `capacity` virtual CPUs and the given per-access cost.
    pub fn new(capacity: usize, work_per_access: Duration) -> Self {
        CpuModel {
            permits: Mutex::new(capacity.max(1)),
            cv: Condvar::new(),
            work_per_access,
        }
    }

    /// Perform one access worth of CPU work.
    pub(crate) fn access(&self) {
        if self.work_per_access.is_zero() {
            return;
        }
        {
            let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
            while *permits == 0 {
                permits = self
                    .cv
                    .wait(permits)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            *permits -= 1;
        }
        // Occupy the virtual CPU for the access duration. Sleeping (rather
        // than spinning) keeps the *host* core free — the permit, not host
        // cycles, is what serializes the model — so the simulation also
        // behaves on single-core machines.
        #[expect(
            clippy::disallowed_methods,
            reason = "models the paper's per-access CPU cost"
        )]
        std::thread::sleep(self.work_per_access);
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        *permits += 1;
        drop(permits);
        self.cv.notify_one();
    }
}

impl CpuCharge for CpuModel {
    fn access(&self) {
        CpuModel::access(self);
    }
}

/// LRU over (partition, page) frames; stamp-based, O(frames) eviction —
/// frame counts here are small (tens), and the map sits behind a mutex
/// held only for the lookup, never across the modelled I/O.
struct PageLru {
    frames: HashMap<(u16, u32), u64>,
    capacity: usize,
    clock: u64,
}

impl PageLru {
    /// Touch the page; returns `true` on a hit.
    fn touch(&mut self, key: (u16, u32)) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(stamp) = self.frames.get_mut(&key) {
            *stamp = clock;
            return true;
        }
        if self.frames.len() >= self.capacity {
            if let Some((&victim, _)) = self.frames.iter().min_by_key(|(_, &s)| s) {
                self.frames.remove(&victim);
            }
        }
        self.frames.insert(key, clock);
        false
    }
}

/// A [`CpuModel`] with a page-grained buffer cache: accesses to one of the
/// `frames` hottest pages cost only CPU work; any other page first pays a
/// miss penalty on a single-permit device, serialized like the disk arm it
/// stands in for. Wire it into the store via `StoreConfig::cpu`; the store
/// calls [`CpuCharge::access_at`] with the physical address of every
/// object access, which is what makes clustering measurable.
pub struct PagedCpuModel {
    cpu: CpuModel,
    /// Single-permit device paying the miss penalty; its `work_per_access`
    /// is the penalty, so misses serialize like real page fetches.
    device: CpuModel,
    lru: Mutex<PageLru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PagedCpuModel {
    /// `cpu` prices the in-memory work; `frames` pages fit in the cache;
    /// `miss_penalty` is the device time for any other page.
    pub fn new(cpu: CpuModel, frames: usize, miss_penalty: Duration) -> Self {
        PagedCpuModel {
            cpu,
            device: CpuModel::new(1, miss_penalty),
            lru: Mutex::new(PageLru {
                frames: HashMap::new(),
                capacity: frames.max(1),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction over everything seen so far (1.0 when nothing seen).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            1.0
        } else {
            h / (h + m)
        }
    }

    /// Empty the cache and zero the counters — called between measurement
    /// windows so the post-reorg window starts cold, same as the first.
    pub fn reset(&self) {
        let mut lru = self.lru.lock().unwrap_or_else(PoisonError::into_inner);
        lru.frames.clear();
        lru.clock = 0;
        drop(lru);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl CpuCharge for PagedCpuModel {
    fn access(&self) {
        // No address: CPU work only (e.g. object creation, which has no
        // page until the allocator places it).
        self.cpu.access();
    }

    fn access_at(&self, addr: PhysAddr) {
        let hit = self
            .lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .touch((addr.partition().0, addr.page()));
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.device.access();
        }
        self.cpu.access();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    /// A free model (no throttling).
    fn unthrottled() -> CpuModel {
        CpuModel::new(usize::MAX / 2, Duration::ZERO)
    }

    #[test]
    fn unthrottled_is_free() {
        let cpu = unthrottled();
        let t = Instant::now();
        for _ in 0..1000 {
            cpu.access();
        }
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn paged_model_counts_hits_and_misses() {
        use brahma::PartitionId;
        let model = PagedCpuModel::new(unthrottled(), 2, Duration::ZERO);
        let a = PhysAddr::new(PartitionId(1), 0, 0);
        let b = PhysAddr::new(PartitionId(1), 0, 64); // same page as a
        let c = PhysAddr::new(PartitionId(1), 7, 0);
        let d = PhysAddr::new(PartitionId(2), 0, 0);
        model.access_at(a); // miss (cold)
        model.access_at(b); // hit (same frame)
        model.access_at(c); // miss
        model.access_at(a); // hit (still resident)
        model.access_at(d); // miss, evicts LRU (page of c? no — a was touched later, c older)
        model.access_at(a); // hit: a's frame was the most recent of the survivors
        assert_eq!(model.hits(), 3);
        assert_eq!(model.misses(), 3);
        assert!((model.hit_rate() - 0.5).abs() < 1e-9);
        model.reset();
        assert_eq!((model.hits(), model.misses()), (0, 0));
        model.access_at(a);
        assert_eq!(model.misses(), 1, "reset must empty the cache");
    }

    #[test]
    fn paged_model_charges_misses_on_the_device() {
        use brahma::PartitionId;
        let model = PagedCpuModel::new(unthrottled(), 1, Duration::from_millis(2));
        let a = PhysAddr::new(PartitionId(1), 0, 0);
        let b = PhysAddr::new(PartitionId(1), 1, 0);
        let t = Instant::now();
        for _ in 0..5 {
            model.access_at(a); // alternating pages with 1 frame: all miss
            model.access_at(b);
        }
        assert!(t.elapsed() >= Duration::from_millis(20));
        assert_eq!(model.misses(), 10);
    }

    #[test]
    fn capacity_bounds_parallel_throughput() {
        // With capacity 1 and 4 threads doing 10 x 2ms accesses each, the
        // total must take at least 40 x 2ms.
        let cpu = Arc::new(CpuModel::new(1, Duration::from_millis(2)));
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cpu = Arc::clone(&cpu);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        cpu.access();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(80));
    }
}
