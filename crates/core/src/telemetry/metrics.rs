//! Metric primitives: counters and log-scale histograms.
//!
//! Both are thin wrappers over `AtomicU64`, so the engine can record
//! through a shared [`Telemetry`](super::Telemetry) without allocating or
//! locking.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`LogHistogram`]: one for zero plus one per
/// power-of-two magnitude of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A histogram over `u64` samples with fixed log-scale (power-of-two)
/// buckets.
///
/// Bucket 0 holds exact zeros; bucket `b >= 1` holds samples in
/// `[2^(b-1), 2^b)`. The bucket index is therefore monotone in the sample
/// value (the property test in `crates/core/tests/telemetry_props.rs`
/// asserts this), and `observe` is a shift, two `fetch_add`s, and nothing
/// else — suitable for per-evaluation wall-time recording.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a sample lands in (monotone in `value`).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `index` (`0` for bucket 0,
    /// `2^index - 1` otherwise, saturating at `u64::MAX`).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The upper bound of the bucket containing quantile `q` (clamped to
    /// `[0, 1]`); 0 when empty. Log-scale buckets bound the answer to a
    /// factor of two, which is the right fidelity for "is P99 overhead
    /// within budget".
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_upper_bound(0), 0);
        assert_eq!(LogHistogram::bucket_upper_bound(3), 7);
        assert_eq!(LogHistogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = LogHistogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1060);
        assert!(h.quantile(0.5) >= 20);
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(h.mean(), 265.0);
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.mean(), 0.0);
    }
}
