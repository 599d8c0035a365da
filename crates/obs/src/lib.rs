//! Lock-free observability primitives for the reorganization substrate.
//!
//! The paper's claim (§5.3) is that IRA wins on *lock contention
//! behaviour*, not I/O; validating that needs counters on the contention
//! paths themselves. This crate provides the building blocks the substrate
//! threads through its hot paths:
//!
//! - [`Counter`]: monotonically increasing count, striped over cache lines
//!   so concurrent bumps do not contend.
//! - [`Gauge`]: instantaneous level with high-watermark tracking.
//! - [`Histogram`]: fixed power-of-two-bucket latency histogram (values in
//!   microseconds), entirely `AtomicU64`-based — a `record` is a handful
//!   of relaxed atomic adds, safe inside the lock manager's wait loop.
//! - [`Snapshot`]: a named bag of `u64` readings with [`Snapshot::diff`],
//!   so tests and the bench reports can assert on deltas over an interval
//!   ("IRA's lock waits ≪ PQR's").
//!
//! Everything here is dependency-free and allocation-free on the hot path;
//! allocation only happens when a [`Snapshot`] is taken.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

// -------------------------------------------------------------- Counter --

/// Stripes per [`Counter`]. A power of two at least the number of cores
/// the measured workloads keep busy; more stripes only make `get` longer.
const STRIPES: usize = 8;

/// One cache line holding one stripe, so two threads bumping the same
/// counter never write the same line.
#[repr(align(64))]
struct Stripe(AtomicU64);

/// The next stripe index to hand out; threads take them round-robin.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread bumps in every [`Counter`].
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Monotonically increasing event count, striped so that hot-path bumps
/// from different threads do not contend: `inc`/`add` touch only the
/// calling thread's stripe and `get` sums all of them with relaxed loads.
/// The sum is exact once the writers are joined and never decreases for
/// one reader (each stripe is monotone), but it is not a point-in-time cut
/// — neither within one counter nor across counters.
pub struct Counter([Stripe; STRIPES]);

impl Counter {
    pub const fn new() -> Self {
        Self([const { Stripe(AtomicU64::new(0)) }; STRIPES])
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        let stripe = STRIPE.with(|s| *s);
        self.0[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

// ---------------------------------------------------------------- Gauge --

/// Instantaneous level (e.g. queue depth) with a high-watermark.
#[derive(Debug, Default)]
pub struct Gauge {
    level: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Self {
            level: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.level.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        let now = self.level.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Decrement, saturating at zero (a racy double-decrement must not
    /// wrap the gauge to `u64::MAX`).
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }

    /// Highest level ever observed via `set`/`inc`.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------ Histogram --

/// Number of power-of-two buckets. Bucket `i < NUM_BUCKETS - 1` counts
/// values `v` with `2^i <= v+1 < 2^(i+1)` in microseconds — i.e. bucket 0
/// is `{0}` µs, bucket 1 is `[1, 2]` µs, bucket 2 is `[3, 6]` µs, … — and
/// the last bucket is overflow (≳ 35 minutes). Wide enough for everything
/// from an uncontended latch to a stuck quiesce.
pub const NUM_BUCKETS: usize = 32;

/// Fixed-bucket latency histogram over microsecond values.
///
/// `record` is lock-free (three relaxed atomic RMWs plus a `fetch_max`);
/// readings are eventually consistent, which is fine for statistics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        // `[AtomicU64::new(0); N]` needs Copy; an inline-const block makes
        // each element its own fresh atomic.
        Self {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a microsecond value: floor(log2(v + 1)), clamped.
    #[inline]
    pub fn bucket_index(value_us: u64) -> usize {
        let idx = 63 - (value_us.saturating_add(1) | 1).leading_zeros() as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    /// Inclusive upper bound of a bucket, in microseconds.
    pub fn bucket_upper_bound_us(index: usize) -> u64 {
        if index >= NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            (2u64 << index) - 2
        }
    }

    #[inline]
    pub fn record_us(&self, value_us: u64) {
        self.buckets[Self::bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_us(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `q`-quantile (0.0 ..= 1.0): the upper
    /// edge of the first bucket at which the cumulative count reaches
    /// `q * count`. Returns 0 for an empty histogram; the true max is
    /// reported instead of the bucket edge when the quantile lands in the
    /// top occupied bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_upper_bound_us(i).min(self.max_us());
            }
        }
        self.max_us()
    }
}

// ------------------------------------------------------------- Snapshot --

/// A named, ordered bag of counter readings taken at one instant.
///
/// Keys are dotted paths (`"lock.waits"`, `"wal.flush_us_sum"`). Missing
/// keys read as zero, so snapshots from different subsystems merge and
/// diff without ceremony.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: BTreeMap<String, u64>,
}

impl Snapshot {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, key: &str, value: u64) {
        self.entries.insert(key.to_string(), value);
    }

    /// Read a key; absent keys are zero.
    pub fn get(&self, key: &str) -> u64 {
        self.entries.get(key).copied().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Fold another snapshot in, summing values on key collisions. Sums
    /// saturate at `u64::MAX`, matching [`Snapshot::diff`]'s clamping
    /// contract — merging two near-saturated counters must not panic.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in other.iter() {
            let slot = self.entries.entry(k.to_string()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
    }

    /// Per-key saturating difference `self - earlier`, over the union of
    /// both key sets. Monotonic counters yield the events in the interval;
    /// gauges yield the level change (clamped at zero when it fell).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::new();
        for (k, &v) in &self.entries {
            out.entries
                .insert(k.clone(), v.saturating_sub(earlier.get(k)));
        }
        for (k, &v) in &earlier.entries {
            out.entries
                .entry(k.clone())
                .or_insert_with(|| 0u64.saturating_sub(v));
        }
        out
    }

    /// Compact single-line rendering of the non-zero entries under
    /// `prefix` (empty prefix = everything): `a.b=3 a.c=9`.
    pub fn render_compact(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (k, v) in self.iter() {
            if v == 0 || !k.starts_with(prefix) {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("{k}={v}"));
        }
        out
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<32} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 2);
        g.dec();
        g.dec(); // saturates, must not wrap
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn striped_counter_sums_exactly_after_join() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..100_000 {
                        c.inc();
                        c.add(t);
                    }
                });
            }
        });
        // 8 threads x 100k x (1 + t), t = 0..8.
        assert_eq!(c.get(), 100_000 * (8 + 28));
    }

    #[test]
    fn striped_counter_never_decreases_for_one_reader() {
        use std::sync::atomic::AtomicBool;
        let c = Counter::new();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    c.inc();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                });
            }
            let mut last = 0;
            for _ in 0..100_000 {
                let now = c.get();
                assert!(now >= last, "get went backwards: {last} -> {now}");
                last = now;
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(c.get() >= 1, "the writers ran");
    }

    #[test]
    fn snapshot_diff_of_striped_counters_is_the_interval() {
        let c = Counter::new();
        let snap = |c: &Counter| {
            let mut s = Snapshot::new();
            s.set("k", c.get());
            s
        };
        c.add(7);
        let before = snap(&c);
        // A second thread lands on another stripe; the diff must not care.
        std::thread::scope(|s| {
            s.spawn(|| c.add(5));
        });
        c.inc();
        assert_eq!(snap(&c).diff(&before).get("k"), 6);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds 0..=1 µs, bucket 1 holds 2..=3? No: bucket i
        // covers values v with floor(log2(v+1)) == i, i.e. bucket 0 is
        // {0}, bucket 1 is {1, 2}, bucket 2 is {3..6}, ... Assert via the
        // function's own invariants rather than a hand-written table:
        // indices are monotone in v and every upper bound maps to its own
        // bucket while upper_bound + 1 maps to the next.
        assert_eq!(Histogram::bucket_index(0), 0);
        for i in 0..NUM_BUCKETS - 2 {
            let ub = Histogram::bucket_upper_bound_us(i);
            assert_eq!(Histogram::bucket_index(ub), i, "upper bound of bucket {i}");
            assert_eq!(Histogram::bucket_index(ub + 1), i + 1, "first of bucket {}", i + 1);
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_bucket_boundaries_table() {
        // Hand-written table of the first buckets plus both sides of each
        // boundary, pinning the documented mapping (bucket 0 = {0},
        // bucket 1 = [1, 2], bucket 2 = [3, 6], ...) independently of
        // `bucket_upper_bound_us`.
        let table: &[(u64, usize)] = &[
            (0, 0),
            (1, 1),
            (2, 1),
            (3, 2),
            (6, 2),
            (7, 3),
            (14, 3),
            (15, 4),
            (30, 4),
            (31, 5),
            (62, 5),
            (63, 6),
            (1_000, 9),
            (1_000_000, 19),
            ((2u64 << 30) - 2, 30),          // last value of bucket 30
            ((2u64 << 30) - 1, 31),          // first value of the overflow bucket
            (u64::MAX, NUM_BUCKETS - 1),
        ];
        for &(v, want) in table {
            assert_eq!(Histogram::bucket_index(v), want, "bucket_index({v})");
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 100, 10_000] {
            h.record_us(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 10_107);
        assert_eq!(h.max_us(), 10_000);
        assert!((h.mean_us() - 10_107.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.bucket_count(Histogram::bucket_index(1)), 2);
        // Quantiles: upper-bound estimates, never below the true value's
        // bucket lower edge and never above the recorded max.
        assert_eq!(h.quantile_us(1.0), 10_000);
        let p50 = h.quantile_us(0.5);
        assert!((1..=5).contains(&p50), "p50 estimate {p50}");
        assert_eq!(h.quantile_us(0.0), 0); // clamp: smallest nonempty bucket
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn histogram_duration_saturates() {
        let h = Histogram::new();
        h.record(Duration::from_micros(250));
        assert_eq!(h.sum_us(), 250);
        h.record(Duration::MAX); // must clamp, not panic
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_diff_is_saturating_and_total() {
        let mut a = Snapshot::new();
        a.set("lock.waits", 10);
        a.set("gauge.level", 7);
        let mut b = Snapshot::new();
        b.set("lock.waits", 25);
        b.set("new.key", 3);
        let d = b.diff(&a);
        assert_eq!(d.get("lock.waits"), 15);
        assert_eq!(d.get("new.key"), 3);
        assert_eq!(d.get("gauge.level"), 0, "fell to absent: clamped to 0");
        assert_eq!(d.get("never.seen"), 0);
    }

    #[test]
    fn snapshot_merge_sums() {
        let mut a = Snapshot::new();
        a.set("k", 2);
        let mut b = Snapshot::new();
        b.set("k", 3);
        b.set("only.b", 1);
        a.merge(&b);
        assert_eq!(a.get("k"), 5);
        assert_eq!(a.get("only.b"), 1);
    }

    #[test]
    fn snapshot_merge_saturates_instead_of_overflowing() {
        let mut a = Snapshot::new();
        a.set("k", u64::MAX - 1);
        let mut b = Snapshot::new();
        b.set("k", 5);
        a.merge(&b); // would panic in debug builds with unchecked `+=`
        assert_eq!(a.get("k"), u64::MAX);
    }

    #[test]
    fn snapshot_render_filters_zeros_and_prefix() {
        let mut s = Snapshot::new();
        s.set("lock.waits", 3);
        s.set("lock.timeouts", 0);
        s.set("wal.records", 9);
        assert_eq!(s.render_compact("lock."), "lock.waits=3");
        assert_eq!(s.render_compact(""), "lock.waits=3 wal.records=9");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record_us(v);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(c.get(), 4000);
        assert_eq!((0..NUM_BUCKETS).map(|i| h.bucket_count(i)).sum::<u64>(), 4000);
    }
}
