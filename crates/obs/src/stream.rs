//! Streaming-ingestion metrics: the `ada_stream_*` series.
//!
//! `ada-stream` folds live exam feeds through an incremental VSM and a
//! mini-batch miner; this collector is the observability half of that
//! subsystem, kept here (rather than in `ada-stream`) so the family
//! names are pinned alongside every other exposition the system emits —
//! the net-layer exposition test asserts the exact combined, ordered
//! family list.
//!
//! Recording follows the established discipline: relaxed atomics only,
//! nothing on the ingest hot path blocks. One collector typically
//! aggregates every stream a service hosts; the per-stream breakdown
//! lives in each stream's status document instead.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Metrics, Series};

/// Lock-free counters for streaming ingestion and incremental mining.
#[derive(Debug, Default)]
pub struct StreamMetrics {
    ingested: AtomicU64,
    reordered: AtomicU64,
    dropped: AtomicU64,
    windows_closed: AtomicU64,
    refits: AtomicU64,
    /// f64 bits of the most recent drift score.
    drift_score: AtomicU64,
}

impl StreamMetrics {
    /// A fresh, zeroed collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// `n` records were accepted into the reorder buffer.
    pub fn ingested(&self, n: u64) {
        self.ingested.fetch_add(n, Ordering::Relaxed);
    }

    /// A record arrived with a timestamp behind the newest one seen
    /// (out-of-order delivery absorbed by the reorder buffer).
    pub fn reordered(&self) {
        self.reordered.fetch_add(1, Ordering::Relaxed);
    }

    /// A record arrived behind the closed-window bound and was refused
    /// (too late for the watermark).
    pub fn dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A window's watermark passed: its records were folded and
    /// checkpointed.
    pub fn window_closed(&self) {
        self.windows_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// The miner ran a full (cold) re-fit instead of a warm mini-batch
    /// update.
    pub fn refit(&self) {
        self.refits.fetch_add(1, Ordering::Relaxed);
    }

    /// The drift score of the most recent model update (warm SSE per
    /// row over the last full fit's baseline).
    pub fn set_drift_score(&self, score: f64) {
        self.drift_score.store(score.to_bits(), Ordering::Relaxed);
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> StreamMetricsSnapshot {
        StreamMetricsSnapshot {
            ingested: self.ingested.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            windows_closed: self.windows_closed.load(Ordering::Relaxed),
            refits: self.refits.load(Ordering::Relaxed),
            drift_score: f64::from_bits(self.drift_score.load(Ordering::Relaxed)),
        }
    }
}

/// A frozen snapshot of [`StreamMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMetricsSnapshot {
    /// Records accepted into the reorder buffer.
    pub ingested: u64,
    /// Out-of-order arrivals absorbed within the lateness bound.
    pub reordered: u64,
    /// Arrivals refused as later than the closed-window bound.
    pub dropped: u64,
    /// Windows whose watermark passed (folded + checkpointed).
    pub windows_closed: u64,
    /// Full re-fits (first fits, drift escalations, forced re-fits).
    pub refits: u64,
    /// Most recent drift score (0 until a warm update has run).
    pub drift_score: f64,
}

impl Metrics for StreamMetricsSnapshot {
    const SERIES: &'static [Series<Self>] = &[
        Series::counter("ada_stream_ingested_total", |s| s.ingested.into()),
        Series::counter("ada_stream_reordered_total", |s| s.reordered.into()),
        Series::counter("ada_stream_dropped_total", |s| s.dropped.into()),
        Series::counter("ada_stream_windows_closed_total", |s| {
            s.windows_closed.into()
        }),
        Series::counter("ada_stream_refits_total", |s| s.refits.into()),
        Series::gauge("ada_stream_drift_score", |s| s.drift_score.into()),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = StreamMetrics::new();
        m.ingested(10);
        m.ingested(5);
        m.reordered();
        m.dropped();
        m.dropped();
        m.window_closed();
        m.refit();
        m.set_drift_score(1.25);
        let snap = m.snapshot();
        assert_eq!(snap.ingested, 15);
        assert_eq!(snap.reordered, 1);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.windows_closed, 1);
        assert_eq!(snap.refits, 1);
        assert!((snap.drift_score - 1.25).abs() < 1e-12);
    }

    #[test]
    fn renders_pinned_families() {
        let m = StreamMetrics::new();
        m.ingested(3);
        m.set_drift_score(0.5);
        let snap = m.snapshot();
        let prom = snap.to_prometheus();
        for family in [
            "# TYPE ada_stream_ingested_total counter",
            "# TYPE ada_stream_reordered_total counter",
            "# TYPE ada_stream_dropped_total counter",
            "# TYPE ada_stream_windows_closed_total counter",
            "# TYPE ada_stream_refits_total counter",
            "# TYPE ada_stream_drift_score gauge",
        ] {
            assert!(prom.contains(family), "missing family: {family}");
        }
        assert!(prom.contains("ada_stream_ingested_total 3\n"));
        assert!(prom.contains("ada_stream_drift_score 0.5\n"));
    }
}
