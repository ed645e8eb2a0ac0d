//! Replication and fleet metrics: `ada_repl_*` / `ada_fleet_*` series.
//!
//! `ada-fleet` ships journal frames from a primary to a warm-standby
//! follower and routes sessions across servers; these collectors are
//! the observability half of that subsystem, kept here (rather than in
//! `ada-fleet`) so the family names are pinned alongside every other
//! exposition the system emits — the net-layer exposition test asserts
//! the exact combined, ordered family list.
//!
//! Recording follows the established discipline: relaxed atomics only,
//! nothing on the hot path blocks. The repl tap records from inside
//! the journal mutex, so this is not optional politeness.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{Metrics, Series};

/// Lock-free counters for one replication link (primary→follower).
///
/// Either side may own the instance: a primary records the shipping
/// half, a follower the applying half, and an in-process harness that
/// drives both records everything into one collector.
#[derive(Debug, Default)]
pub struct ReplMetrics {
    frames_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    snapshots: AtomicU64,
    frames_applied: AtomicU64,
    rejects_gap: AtomicU64,
    rejects_corrupt: AtomicU64,
    source_durable: AtomicU64,
    follower_acked: AtomicU64,
}

impl ReplMetrics {
    /// A fresh, zeroed collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal frame left the primary (`bytes` = frame length).
    pub fn frame_shipped(&self, bytes: usize) {
        self.frames_shipped.fetch_add(1, Ordering::Relaxed);
        self.bytes_shipped
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A full journal image was transferred (bootstrap or
    /// post-compaction reset).
    pub fn snapshot_shipped(&self, bytes: usize) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.bytes_shipped
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The follower verified and applied one frame.
    pub fn frame_applied(&self) {
        self.frames_applied.fetch_add(1, Ordering::Relaxed);
    }

    /// The follower detected a sequence gap (dropped or reordered
    /// frame) and refused the stream.
    pub fn gap_rejected(&self) {
        self.rejects_gap.fetch_add(1, Ordering::Relaxed);
    }

    /// The follower detected a corrupt frame (CRC/length/payload) and
    /// refused the stream.
    pub fn corrupt_rejected(&self) {
        self.rejects_corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// The primary's fsync-durable op watermark.
    pub fn set_source_durable(&self, ops: u64) {
        self.source_durable.fetch_max(ops, Ordering::Relaxed);
    }

    /// The follower's own fsync-acknowledged op watermark (what it
    /// acks back to the primary).
    pub fn set_follower_acked(&self, ops: u64) {
        self.follower_acked.fetch_max(ops, Ordering::Relaxed);
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> ReplMetricsSnapshot {
        let frames_shipped = self.frames_shipped.load(Ordering::Relaxed);
        let frames_applied = self.frames_applied.load(Ordering::Relaxed);
        ReplMetricsSnapshot {
            frames_shipped,
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            frames_applied,
            rejects_gap: self.rejects_gap.load(Ordering::Relaxed),
            rejects_corrupt: self.rejects_corrupt.load(Ordering::Relaxed),
            source_durable: self.source_durable.load(Ordering::Relaxed),
            follower_acked: self.follower_acked.load(Ordering::Relaxed),
            lag: frames_shipped.saturating_sub(frames_applied),
        }
    }
}

/// A frozen snapshot of [`ReplMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplMetricsSnapshot {
    /// Frames shipped to the follower.
    pub frames_shipped: u64,
    /// Total replication payload bytes shipped (frames + snapshots).
    pub bytes_shipped: u64,
    /// Full-image transfers (bootstrap and post-compaction resets).
    pub snapshots: u64,
    /// Frames the follower verified and applied.
    pub frames_applied: u64,
    /// Streams refused for a sequence gap.
    pub rejects_gap: u64,
    /// Streams refused for frame corruption.
    pub rejects_corrupt: u64,
    /// The primary's durable op watermark.
    pub source_durable: u64,
    /// The follower's acked (locally fsynced) op watermark.
    pub follower_acked: u64,
    /// Frames shipped but not yet applied.
    pub lag: u64,
}

impl ReplMetricsSnapshot {
    /// Total refused streams across reject reasons.
    pub fn rejects_total(&self) -> u64 {
        self.rejects_gap + self.rejects_corrupt
    }
}

impl Metrics for ReplMetricsSnapshot {
    const SERIES: &'static [Series<Self>] = &[
        Series::counter("ada_repl_frames_shipped_total", |s| s.frames_shipped.into()),
        Series::counter("ada_repl_bytes_shipped_total", |s| s.bytes_shipped.into()),
        Series::counter("ada_repl_snapshots_total", |s| s.snapshots.into()),
        Series::counter("ada_repl_frames_applied_total", |s| s.frames_applied.into()),
        Series::<Self>::counter("ada_repl_rejects_total", |s| s.rejects_gap.into())
            .label("reason", "gap"),
        Series::<Self>::counter("ada_repl_rejects_total", |s| s.rejects_corrupt.into())
            .label("reason", "corrupt"),
        Series::gauge("ada_repl_source_durable_ops", |s| s.source_durable.into()),
        Series::gauge("ada_repl_follower_acked_ops", |s| s.follower_acked.into()),
        Series::gauge("ada_repl_lag_ops", |s| s.lag.into()),
    ];
}

/// Lock-free counters for the fleet router (session placement, health,
/// failover).
#[derive(Debug, Default)]
pub struct FleetMetrics {
    members: AtomicU64,
    routed_primary: AtomicU64,
    routed_follower: AtomicU64,
    busy_deferrals: AtomicU64,
    health_checks: AtomicU64,
    health_failures: AtomicU64,
    promotions: AtomicU64,
}

impl FleetMetrics {
    /// A fresh, zeroed collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current member count.
    pub fn set_members(&self, n: usize) {
        self.members.store(n as u64, Ordering::Relaxed);
    }

    /// A request was routed to a writable (primary) member.
    pub fn routed_primary(&self) {
        self.routed_primary.fetch_add(1, Ordering::Relaxed);
    }

    /// A read was routed to a read-only (follower) member.
    pub fn routed_follower(&self) {
        self.routed_follower.fetch_add(1, Ordering::Relaxed);
    }

    /// A `Busy` response deferred placement (load feedback).
    pub fn busy_deferral(&self) {
        self.busy_deferrals.fetch_add(1, Ordering::Relaxed);
    }

    /// One member health probe ran.
    pub fn health_check(&self) {
        self.health_checks.fetch_add(1, Ordering::Relaxed);
    }

    /// A member health probe failed.
    pub fn health_failure(&self) {
        self.health_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A follower was promoted to primary.
    pub fn promotion(&self) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> FleetMetricsSnapshot {
        FleetMetricsSnapshot {
            members: self.members.load(Ordering::Relaxed),
            routed_primary: self.routed_primary.load(Ordering::Relaxed),
            routed_follower: self.routed_follower.load(Ordering::Relaxed),
            busy_deferrals: self.busy_deferrals.load(Ordering::Relaxed),
            health_checks: self.health_checks.load(Ordering::Relaxed),
            health_failures: self.health_failures.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
        }
    }
}

/// A frozen snapshot of [`FleetMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMetricsSnapshot {
    /// Fleet members known to the router.
    pub members: u64,
    /// Requests routed to writable members.
    pub routed_primary: u64,
    /// Reads routed to follower members.
    pub routed_follower: u64,
    /// Placements deferred by `Busy` load feedback.
    pub busy_deferrals: u64,
    /// Health probes run.
    pub health_checks: u64,
    /// Health probes failed.
    pub health_failures: u64,
    /// Follower promotions performed.
    pub promotions: u64,
}

impl Metrics for FleetMetricsSnapshot {
    const SERIES: &'static [Series<Self>] = &[
        Series::gauge("ada_fleet_members", |s| s.members.into()),
        Series::<Self>::counter("ada_fleet_routed_total", |s| s.routed_primary.into())
            .label("role", "primary"),
        Series::<Self>::counter("ada_fleet_routed_total", |s| s.routed_follower.into())
            .label("role", "follower"),
        Series::counter("ada_fleet_busy_deferrals_total", |s| {
            s.busy_deferrals.into()
        }),
        Series::counter("ada_fleet_health_checks_total", |s| s.health_checks.into()),
        Series::counter("ada_fleet_health_failures_total", |s| {
            s.health_failures.into()
        }),
        Series::counter("ada_fleet_promotions_total", |s| s.promotions.into()),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_counters_aggregate_and_render() {
        let m = ReplMetrics::new();
        m.frame_shipped(48);
        m.frame_shipped(52);
        m.snapshot_shipped(640);
        m.frame_applied();
        m.gap_rejected();
        m.corrupt_rejected();
        m.set_source_durable(7);
        m.set_follower_acked(5);
        // Watermarks are monotonic: a stale report cannot move them back.
        m.set_follower_acked(3);

        let snap = m.snapshot();
        assert_eq!(snap.frames_shipped, 2);
        assert_eq!(snap.bytes_shipped, 48 + 52 + 640);
        assert_eq!(snap.snapshots, 1);
        assert_eq!(snap.frames_applied, 1);
        assert_eq!(snap.lag, 1);
        assert_eq!(snap.rejects_total(), 2);
        assert_eq!(snap.follower_acked, 5);

        let prom = snap.to_prometheus();
        assert!(prom.contains("ada_repl_frames_shipped_total 2"));
        assert!(prom.contains("ada_repl_rejects_total{reason=\"gap\"} 1"));
        assert!(prom.contains("ada_repl_lag_ops 1"));
    }

    #[test]
    fn fleet_counters_aggregate_and_render() {
        let m = FleetMetrics::new();
        m.set_members(2);
        m.routed_primary();
        m.routed_primary();
        m.routed_follower();
        m.busy_deferral();
        m.health_check();
        m.health_failure();
        m.promotion();

        let snap = m.snapshot();
        assert_eq!(snap.members, 2);
        assert_eq!(snap.routed_primary, 2);
        assert_eq!(snap.promotions, 1);

        let prom = snap.to_prometheus();
        assert!(prom.contains("ada_fleet_members 2"));
        assert!(prom.contains("ada_fleet_routed_total{role=\"primary\"} 2"));
        assert!(prom.contains("ada_fleet_promotions_total 1"));
    }
}
