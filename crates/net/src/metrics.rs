//! Net-layer metrics: connection and request counters on `ada-obs`
//! log2 histograms, declared once as the `ada_net_*` family table.
//!
//! Everything on the recording path is lock-free (relaxed atomics and
//! fixed-bucket histograms), matching the service-side
//! `MetricsObserver` discipline.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use ada_obs::{Log2Histogram, Metrics, Num, Reading, Series, Summary};

use crate::proto::{kind_index, REQUEST_KINDS};

/// Lock-free counters and histograms for the net front-end.
#[derive(Debug, Default)]
pub struct NetMetrics {
    accepts: AtomicU64,
    rejects: AtomicU64,
    protocol_errors: AtomicU64,
    in_flight: AtomicI64,
    requests: [AtomicU64; REQUEST_KINDS.len()],
    request_latency: Log2Histogram,
    bytes_in: Log2Histogram,
    bytes_out: Log2Histogram,
}

impl NetMetrics {
    /// A fresh, zeroed collector.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn connection_accepted(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn connection_rejected(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Connections accepted and not yet closed: the pool's occupancy.
    pub(crate) fn open_connections(&self) -> usize {
        usize::try_from(self.in_flight.load(Ordering::Acquire)).unwrap_or(0)
    }

    pub(crate) fn protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request(&self, kind: &str, latency: Duration) {
        if let Some(i) = kind_index(kind) {
            self.requests[i].fetch_add(1, Ordering::Relaxed);
        }
        self.request_latency.record_duration(latency);
    }

    pub(crate) fn frame_in(&self, bytes: usize) {
        self.bytes_in.record(bytes as u64);
    }

    pub(crate) fn frame_out(&self, bytes: usize) {
        self.bytes_out.record(bytes as u64);
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            accepts: self.accepts.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Acquire).max(0),
            requests: REQUEST_KINDS
                .iter()
                .zip(&self.requests)
                .map(|(kind, n)| (*kind, n.load(Ordering::Relaxed)))
                .collect(),
            request_latency_p50: Duration::from_nanos(self.request_latency.quantile(0.5)),
            request_latency_p99: Duration::from_nanos(self.request_latency.quantile(0.99)),
            request_count: self.request_latency.count(),
            frames_in: self.bytes_in.count(),
            frames_out: self.bytes_out.count(),
            bytes_in: self.bytes_in.sum(),
            bytes_out: self.bytes_out.sum(),
        }
    }
}

/// A frozen snapshot of [`NetMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetMetricsSnapshot {
    /// Connections accepted into the pool.
    pub accepts: u64,
    /// Connections refused because the pool was at capacity.
    pub rejects: u64,
    /// Framing or protocol violations observed (each closes its
    /// connection).
    pub protocol_errors: u64,
    /// Connections currently open.
    pub in_flight: i64,
    /// Requests served, per kind.
    pub requests: Vec<(&'static str, u64)>,
    /// Median request service latency.
    pub request_latency_p50: Duration,
    /// 99th-percentile request service latency.
    pub request_latency_p99: Duration,
    /// Requests measured by the latency histogram.
    pub request_count: u64,
    /// Frames read from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Total payload+frame bytes read.
    pub bytes_in: u64,
    /// Total payload+frame bytes written.
    pub bytes_out: u64,
}

impl NetMetricsSnapshot {
    /// Total requests served across kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(|(_, n)| n).sum()
    }
}

type Row = Series<NetMetricsSnapshot>;

impl Metrics for NetMetricsSnapshot {
    const SERIES: &'static [Row] = &[
        Row::counter("ada_net_accepts_total", |s| s.accepts.into()).key("accepts"),
        Row::counter("ada_net_rejects_total", |s| s.rejects.into()).key("rejects"),
        Row::counter("ada_net_protocol_errors_total", |s| {
            s.protocol_errors.into()
        })
        .key("protocol_errors"),
        Row::gauge("ada_net_connections_in_flight", |s| s.in_flight.into()).key("in_flight"),
        Row::counter("ada_net_requests_total", |s| {
            Reading::Each(
                "kind",
                s.requests
                    .iter()
                    .map(|&(kind, n)| (kind, n.into()))
                    .collect(),
            )
        })
        .key("requests"),
        Row::summary("ada_net_request_latency_ns", |s| {
            let ns = |d: Duration| Some(Num::U(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
            Reading::Summary(Summary {
                quantiles: [ns(s.request_latency_p50), None, ns(s.request_latency_p99)],
                sum: None,
                count: s.request_count,
            })
        }),
        Row::counter("ada_net_bytes_total", |s| s.bytes_in.into())
            .label("dir", "in")
            .key("bytes_in"),
        Row::counter("ada_net_bytes_total", |s| s.bytes_out.into())
            .label("dir", "out")
            .key("bytes_out"),
        Row::field("frames_in", |s| s.frames_in.into()),
        Row::field("frames_out", |s| s.frames_out.into()),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate_and_render() {
        let m = NetMetrics::new();
        m.connection_accepted();
        m.connection_accepted();
        m.connection_rejected();
        m.connection_closed();
        m.protocol_error();
        m.request("submit", Duration::from_micros(80));
        m.request("health", Duration::from_micros(20));
        m.frame_in(64);
        m.frame_out(128);
        let snap = m.snapshot();
        assert_eq!(snap.accepts, 2);
        assert_eq!(snap.rejects, 1);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.requests_total(), 2);
        assert_eq!(snap.bytes_in, 64);
        assert_eq!(snap.bytes_out, 128);

        let prom = snap.to_prometheus();
        assert!(prom.contains("ada_net_accepts_total 2"));
        assert!(prom.contains("ada_net_requests_total{kind=\"submit\"} 1"));
        assert!(prom.contains("ada_net_connections_in_flight 1"));
        assert!(prom.contains("ada_net_bytes_total{dir=\"out\"} 128"));

        let doc = snap.to_document();
        assert_eq!(
            doc.get_path("requests.health").and_then(|v| v.as_i64()),
            Some(1)
        );
    }
}
