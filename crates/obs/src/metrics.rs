//! Lock-free metric primitives: [`Counter`], [`Gauge`], [`Histogram`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of log₂ buckets in a [`Histogram`]; bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly zero), so 64 buckets cover
/// the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, open handles, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the level.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log₂ latency/size histogram.
///
/// `record` is lock-free (four relaxed RMWs) and allocation-free, so it
/// is safe on query hot paths and from concurrent threads. Values are
/// whatever unit the call site chooses — the pipeline records
/// microseconds for spans and bytes for sizes.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for `value`: 0 for zero, else `floor(log2(value))+1`,
    /// with the top bucket absorbing values of 2^63 and above.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (the value reported for
    /// quantiles that land in the bucket).
    #[inline]
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = Self::bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Individual fields are read
    /// with relaxed loads, so a snapshot taken while writers are active
    /// may be off by in-flight records; snapshots taken after joining
    /// writer threads are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state; bucket-wise mergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Combines two snapshots bucket-wise. Commutative, associative, and
    /// count-preserving (property-tested in `tests/properties.rs`).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i] + other.buckets[i];
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }

    /// Mean observed value, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) resolved to the upper
    /// bound of the bucket holding that rank; zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket-resolution).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
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
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        assert_eq!(Histogram::bucket_index(1u64 << 62), 63);
    }

    #[test]
    fn snapshot_tracks_count_sum_max() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 100, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 100_106);
        assert_eq!(s.max, 100_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let h = Histogram::new();
        // 90 fast observations (~8µs) and 10 slow ones (~1000µs).
        for _ in 0..90 {
            h.record(8);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        // 8 lives in bucket [8,16) → bound 15; 1000 in [512,1024) → 1023,
        // clamped to the true max.
        assert_eq!(s.p50(), 15);
        assert_eq!(s.p90(), 15);
        assert_eq!(s.p99(), 1000);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert_eq!(m.sum, 306);
        assert_eq!(m.max, 200);
        assert_eq!(m.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn zero_values_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.p50(), 0);
    }
}
