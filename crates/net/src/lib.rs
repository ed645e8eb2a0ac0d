//! `ada-net`: a framed wire protocol and front-end serving the
//! analysis service to remote clients.
//!
//! The paper's end state is analysis as a *service*: clinicians and
//! scheduled jobs submitting cohorts to a long-lived installation that
//! accumulates knowledge in the shared K-DB. `ada-service` provides
//! the in-process half; this crate puts it on the network:
//!
//! - [`frame`]: `ADAN1` length-prefixed, CRC32-checked frames — the
//!   same checksummed discipline as the K-DB's `ADAJ2` journal, so a
//!   flipped bit on the wire is a typed [`FrameError`], never a
//!   misparse. Torn tails (peer stalled mid-frame) are classified
//!   separately from corruption, exactly as journal replay does.
//! - [`proto`]: requests (`Submit`, `Status`, `Cancel`, `Results`,
//!   `PastSessions`, `TraceQuery`, `Health`, `MetricsSnapshot`) and
//!   typed responses, encoded as K-DB
//!   [`Document`](ada_kdb::Document)s — one canonical codec end to
//!   end. Submissions carry a [`WireJobSpec`] (preset + cohort shape +
//!   seed) that the server materializes deterministically, so remote
//!   and in-process submissions of the same spec produce
//!   byte-identical K-DB state. A spec may also carry a
//!   [`TraceContext`](ada_obs::TraceContext) as an optional envelope
//!   field — absent on the wire means unsampled, so untraced traffic
//!   is byte-identical to the pre-tracing protocol — and `TraceQuery`
//!   reads the persisted span trees back from the `traces` collection.
//! - [`server`]: [`NetServer`], a bounded-accept pool with
//!   per-connection deadlines and graceful drain. Queue-full
//!   backpressure crosses the wire as [`Response::Busy`] carrying the
//!   service's retry hint; sticky degraded mode as
//!   [`Response::Degraded`] with reads still served.
//! - [`client`]: a blocking [`Client`] and a runtime-free poll-based
//!   [`AsyncClient`] that multiplexes many logical requests over one
//!   connection via [`Pending`] tickets.
//!
//! Everything is observable: accepts, rejects, protocol errors,
//! per-kind request counts, and log2 latency/byte histograms through
//! [`NetMetrics`], exported alongside the service's series by
//! [`NetServer::snapshot_prometheus`], plus flight-recorder marks for
//! every network event.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{
    AsyncClient, BusyRetry, Client, ClientKindLatency, ClientMetrics, NetError, Pending,
};
pub use frame::{
    encode_frame, frame_bytes, Decoded, FrameDecoder, FrameError, MAGIC, MAX_FRAME_LEN,
};
pub use metrics::{NetMetrics, NetMetricsSnapshot};
pub use proto::{CohortSpec, Preset, ProtoError, Request, Response, WireJobSpec, CONNECTION_ID};
pub use server::{NetConfig, NetServer};
