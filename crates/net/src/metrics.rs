//! Net-layer metrics: connection and request counters on `ada-obs`
//! log2 histograms, rendered as `ada_net_*` Prometheus series.
//!
//! Everything on the recording path is lock-free (relaxed atomics and
//! fixed-bucket histograms), matching the service-side
//! `MetricsObserver` discipline.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use ada_kdb::Document;
use ada_obs::Log2Histogram;

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

    /// The snapshot as one K-DB document.
    pub fn to_document(&self) -> Document {
        let count = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let mut requests = Document::new();
        for (kind, n) in &self.requests {
            requests.set(*kind, count(*n));
        }
        Document::new()
            .with("accepts", count(self.accepts))
            .with("rejects", count(self.rejects))
            .with("protocol_errors", count(self.protocol_errors))
            .with("in_flight", self.in_flight)
            .with("requests", ada_kdb::Value::Doc(requests))
            .with("frames_in", count(self.frames_in))
            .with("frames_out", count(self.frames_out))
            .with("bytes_in", count(self.bytes_in))
            .with("bytes_out", count(self.bytes_out))
    }

    /// The snapshot as Prometheus text exposition (`ada_net_*` series).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("# TYPE ada_net_accepts_total counter\n");
        out.push_str(&format!("ada_net_accepts_total {}\n", self.accepts));
        out.push_str("# TYPE ada_net_rejects_total counter\n");
        out.push_str(&format!("ada_net_rejects_total {}\n", self.rejects));
        out.push_str("# TYPE ada_net_protocol_errors_total counter\n");
        out.push_str(&format!(
            "ada_net_protocol_errors_total {}\n",
            self.protocol_errors
        ));
        out.push_str("# TYPE ada_net_connections_in_flight gauge\n");
        out.push_str(&format!(
            "ada_net_connections_in_flight {}\n",
            self.in_flight
        ));
        out.push_str("# TYPE ada_net_requests_total counter\n");
        for (kind, n) in &self.requests {
            out.push_str(&format!("ada_net_requests_total{{kind=\"{kind}\"}} {n}\n"));
        }
        out.push_str("# TYPE ada_net_request_latency_ns summary\n");
        for (q, v) in [
            ("0.5", self.request_latency_p50),
            ("0.99", self.request_latency_p99),
        ] {
            out.push_str(&format!(
                "ada_net_request_latency_ns{{quantile=\"{q}\"}} {}\n",
                v.as_nanos()
            ));
        }
        out.push_str(&format!(
            "ada_net_request_latency_ns_count {}\n",
            self.request_count
        ));
        out.push_str("# TYPE ada_net_bytes_total counter\n");
        out.push_str(&format!(
            "ada_net_bytes_total{{dir=\"in\"}} {}\n",
            self.bytes_in
        ));
        out.push_str(&format!(
            "ada_net_bytes_total{{dir=\"out\"}} {}\n",
            self.bytes_out
        ));
        out
    }
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
