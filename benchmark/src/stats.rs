//! Order statistics used by every metric: percentiles over sorted samples,
//! the slice-median throughput, the "highest percentile the sample
//! supports" rule, and quartiles computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does (the benchmark driver uses that
//! function, so `compare` must agree with it to the digit).

/// FNV-1a, one word at a time: the digest behind the op-sequence hash and
/// the logical fingerprint.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[inline]
pub fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Percentile `q` (0..=1) of an ascending slice by the nearest-rank rule:
/// the smallest element with at least `q` of the samples at or below it.
/// Empty input yields 0.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of unsorted values (mean of the two middle ones for even
/// counts). Empty input yields 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Events per second in each slice, from the count of events in each
/// `slice_us`-long slice.
pub fn slice_rates(counts: impl Iterator<Item = u64>, slice_us: u64) -> Vec<f64> {
    let per_s = 1e6 / slice_us as f64;
    counts.map(|c| c as f64 * per_s).collect()
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(q, value)`. With fewer than twenty samples not
/// even the median qualifies and the result is `None`.
pub fn highest_supported_percentile<T: Copy + Into<f64>>(sorted: &[T]) -> Option<(f64, f64)> {
    const LADDER: [f64; 7] = [0.99999, 0.9999, 0.999, 0.99, 0.95, 0.9, 0.5];
    let n = sorted.len();
    LADDER.iter().copied().find_map(|q| {
        let rank = (q * n as f64).ceil() as usize;
        (n >= rank + 10).then(|| (q, percentile_sorted(sorted, q)))
    })
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) returns them. A single value is its own
/// quartiles (Python refuses); no value reads zero.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4;
        // result = (v[j-1]*(4-delta) + v[j]*delta) / 4.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Four 0.5 s slices: 100, 100, 0 (a stall), 100 events.
        let rates = slice_rates([100, 100, 0, 100].into_iter(), 500_000);
        assert_eq!(rates, vec![200.0, 200.0, 0.0, 200.0]);
        assert_eq!(median(&rates), 200.0);
        // The plain mean would have read 150.
        assert_eq!(rates.iter().sum::<f64>() / 4.0, 150.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        // p99 leaves exactly 10 beyond it, p99.9 would leave 1.
        assert_eq!(highest_supported_percentile(&v), Some((0.99, 990.0)));
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(highest_supported_percentile(&v), Some((0.9, 90.0)));
        let v: Vec<u32> = (1..=99).collect();
        // ceil(0.9 * 99) = 90 leaves 9 beyond: fall back to the median.
        assert_eq!(highest_supported_percentile(&v), Some((0.5, 50.0)));
        let v: Vec<u32> = (1..=19).collect();
        assert_eq!(highest_supported_percentile(&v), None);
        let v: Vec<u32> = (1..=2_000_000).collect();
        assert_eq!(highest_supported_percentile(&v).unwrap().0, 0.99999);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
