//! Fixed-bucket log2 latency histograms.
//!
//! A [`Log2Histogram`] is 64 atomic buckets, one per power of two of
//! nanoseconds: a recorded value `v` lands in bucket `floor(log2(v))`
//! (bucket 0 also absorbs 0 and 1). Recording is two relaxed atomic
//! adds plus a bit scan — no allocation, no locking, no floating
//! point — so the histogram can sit on hot paths and be shared across
//! threads behind a plain `&`. Quantiles (p50/p90/p99) come from a
//! cumulative walk over a snapshot of the buckets and report the
//! arithmetic midpoint (1.5·2^i) of the bucket the target count falls
//! in, so they
//! carry the bucket's ~2× resolution (exactly what a latency SLO
//! needs, and the price of never allocating).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per power of two of a `u64` value.
pub const NUM_BUCKETS: usize = 64;

/// A lock-free, allocation-free log2 latency histogram.
///
/// Values are nanoseconds by convention ([`Log2Histogram::record_duration`]),
/// but any `u64` works.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index of a value: `floor(log2(v))`, with 0 and 1 both in
/// bucket 0.
#[inline]
fn bucket_of(value: u64) -> usize {
    (63 - value.max(1).leading_zeros()) as usize
}

/// The representative value reported for a bucket: the midpoint of
/// `[2^i, 2^(i+1))`.
#[inline]
fn bucket_mid(index: usize) -> u64 {
    let low = 1u64 << index;
    low + (low >> 1)
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value (two relaxed atomic adds, no allocation).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, duration: std::time::Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (nanoseconds by convention).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the buckets for quantile walks.
    /// (Concurrent recorders may land between loads; metrics readers
    /// tolerate that, and a quiesced histogram snapshots exactly.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// The value at quantile `q` in `[0, 1]` — see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of a [`Log2Histogram`], for quantile math and
/// serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`buckets[i]` holds values in `[2^i, 2^(i+1))`).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The representative value at quantile `q` in `[0, 1]`: the
    /// arithmetic midpoint (1.5·2^i) of the bucket holding the
    /// `ceil(q·count)`-th smallest sample. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_mid(i);
            }
        }
        bucket_mid(NUM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_of_uniform_values() {
        let h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        // The 500th smallest of 1..=1000 is 500, bucket 8 ([256, 512)).
        assert_eq!(snap.quantile(0.5), bucket_mid(8));
        // The 900th is 900, bucket 9 ([512, 1024)).
        assert_eq!(snap.quantile(0.9), bucket_mid(9));
        assert_eq!(snap.quantile(0.99), bucket_mid(9));
        assert!(
            snap.quantile(0.5) <= snap.quantile(0.9) && snap.quantile(0.9) <= snap.quantile(0.99)
        );
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Log2Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.sum, 0);
    }

    #[test]
    fn single_value_dominates_every_quantile() {
        let h = Log2Histogram::new();
        h.record(5_000);
        let snap = h.snapshot();
        let expected = bucket_mid(bucket_of(5_000));
        assert_eq!(snap.quantile(0.5), expected);
        assert_eq!(snap.quantile(0.99), expected);
        assert_eq!(snap.sum, 5_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Log2Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn quantile_midpoint_carries_bucket_resolution() {
        let h = Log2Histogram::new();
        h.record(700); // bucket 9: [512, 1024)
        let q = h.quantile(0.5);
        assert_eq!(q, 768);
        assert!((512..1024).contains(&q));
    }
}
