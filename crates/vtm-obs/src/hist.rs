//! Log₂-microsecond histogram and percentile primitives.
//!
//! This is the single home of the bucket math that was previously
//! copy-pasted across `vtm-gateway` (log₂ latency buckets), `vtm-fabric`
//! (arm-level aggregation) and `vtm-bench` (nearest-rank sample
//! percentiles). Each latency bucket `b` covers `[2^b, 2^(b+1))`
//! microseconds and a reported percentile is the *upper bound* of the first
//! bucket whose cumulative count reaches the rank — an over-estimate by at
//! most 2x, the standard trade of fixed-bucket histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Log-scale latency buckets: `[2^b, 2^(b+1))` µs for `b` in `0..40`
/// (covers 1 µs up to ~12.7 days, far beyond any sane quote latency).
pub const LATENCY_BUCKETS: usize = 40;

/// Which log-scale bucket a microsecond latency lands in (shared by every
/// telemetry layer; see [`percentile_from_buckets`]).
pub fn latency_bucket(us: u64) -> usize {
    ((63 - us.max(1).leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// Upper bound in microseconds of log-scale bucket `b` (`2^(b+1)`), the
/// value exposed as a Prometheus `le` label and as reported percentiles.
pub fn bucket_upper_bound_us(bucket: usize) -> u64 {
    1u64 << (bucket + 1).min(63)
}

/// Upper bound (µs) of the first latency bucket whose cumulative count
/// reaches `q` of the total; 0 when the histogram is empty.
pub fn percentile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (b, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << (b + 1);
        }
    }
    1u64 << buckets.len()
}

/// Sorts the samples in place and returns the median (the upper middle for
/// even counts, matching the historical per-bench helpers).
///
/// # Panics
///
/// Panics if `samples` is empty or contains a non-finite value.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// A lock-free cumulative log₂-µs histogram: every record is four relaxed
/// atomic updates (bucket, count, sum, max) — safe to share behind an `Arc`
/// across any number of writer threads.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A zeroed histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation (relaxed atomics only).
    pub fn record(&self, us: u64) {
        self.buckets[latency_bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An owned point-in-time copy of a [`LogHistogram`], mergeable across
/// shards and renderable as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (µs, exact).
    pub sum_us: u64,
    /// Largest observation (µs, exact).
    pub max_us: u64,
    /// Raw log-scale bucket counts (`[2^b, 2^(b+1))` µs).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot with the standard [`LATENCY_BUCKETS`] layout.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum_us: 0,
            max_us: 0,
            buckets: vec![0; LATENCY_BUCKETS],
        }
    }

    /// Bucket-upper-bound percentile (µs); 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        percentile_from_buckets(&self.buckets, q)
    }

    /// Median (bucket upper bound, µs); 0 when empty.
    pub fn p50_us(&self) -> u64 {
        self.percentile_us(0.50)
    }

    /// 95th percentile (bucket upper bound, µs); 0 when empty.
    pub fn p95_us(&self) -> u64 {
        self.percentile_us(0.95)
    }

    /// 99th percentile (bucket upper bound, µs); 0 when empty.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(0.99)
    }

    /// Exact mean (µs); 0.0 — never NaN — when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Folds another snapshot into this one (shard → arm aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Renders as a JSON object with derived percentiles and the nonzero
    /// bucket entries (`{"log2_us": b, "count": c}`), no trailing newline.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("{{\"log2_us\": {i}, \"count\": {c}}}"))
            .collect();
        format!(
            "{{\"count\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"mean_us\": {:.1}, \"max_us\": {}, \"buckets\": [{}]}}",
            self.count,
            self.p50_us(),
            self.p95_us(),
            self.p99_us(),
            self.mean_us(),
            self.max_us,
            entries.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2_microseconds() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_match_percentile_convention() {
        assert_eq!(bucket_upper_bound_us(0), 2);
        assert_eq!(bucket_upper_bound_us(3), 16);
        assert_eq!(
            bucket_upper_bound_us(LATENCY_BUCKETS - 1),
            1 << LATENCY_BUCKETS
        );
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let h = LogHistogram::new();
        for _ in 0..98 {
            h.record(8);
        }
        for _ in 0..2 {
            h.record(4096);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50_us(), 16);
        assert_eq!(snap.p95_us(), 16);
        assert_eq!(snap.p99_us(), 8192);
        assert_eq!(snap.max_us, 4096);
        assert!((snap.mean_us() - (98.0 * 8.0 + 2.0 * 4096.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeros_never_nan() {
        let snap = LogHistogram::new().snapshot();
        assert_eq!(snap.p50_us(), 0);
        assert_eq!(snap.p99_us(), 0);
        assert_eq!(snap.mean_us(), 0.0);
        assert!(snap.mean_us().is_finite());
        let json = snap.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn merge_sums_counts_and_keeps_max() {
        let a = LogHistogram::new();
        a.record(10);
        a.record(100);
        let b = LogHistogram::new();
        b.record(5000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum_us, 5110);
        assert_eq!(merged.max_us, 5000);
        assert_eq!(merged.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn median_sorts_and_picks_upper_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    fn percentile_sorted_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.95), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn histogram_json_lists_only_nonzero_buckets() {
        let h = LogHistogram::new();
        h.record(3);
        h.record(3);
        let json = h.snapshot().to_json();
        assert!(
            json.contains("\"buckets\": [{\"log2_us\": 1, \"count\": 2}]"),
            "{json}"
        );
    }
}
