//! # ada-obs
//!
//! Observability for ADA-HEALTH analysis sessions.
//!
//! The paper frames ADA-HEALTH as a *service*: analysts submit datasets
//! and the system runs the seven-stage pipeline on their behalf. A
//! service needs to be answerable for what it did — which stages ran,
//! how long each took, how hard the mining kernels worked, and what
//! happened to a session that finished yesterday. This crate is that
//! answerability layer:
//!
//! * [`context`] — request-scoped [`TraceContext`] identity
//!   (128-bit trace id + seeded-deterministic sampling) that crosses
//!   the ADAN1 wire and is published per worker thread via
//!   [`TraceScope`] so even the K-DB group committer can attribute its
//!   fsync rounds to the right session.
//! * [`hist`] — fixed-bucket log2 latency histograms giving p50/p90/p99
//!   without allocation, replacing total/count pair metrics.
//! * [`recorder`] — the flight recorder: each observer callback folds,
//!   under one lock, straight into its session's span tree, stage
//!   histograms and kernel counters (never inside kernel loops), and on
//!   terminal state one document goes to the K-DB `sessions` collection
//!   so a restarted service can answer queries about past runs.
//! * [`export`] — deterministic JSON rendering of K-DB documents for
//!   the service `snapshot()` endpoint and the CI smoke gate.
//! * [`metrics`] — the one exposition writer and document builder:
//!   each collector declares its families once, in a [`Series`] table.
//! * [`repl`] — lock-free `ada_repl_*`/`ada_fleet_*` collectors for
//!   journal replication and fleet routing (`ada-fleet` populates
//!   them; the families are pinned with every other exposition).
//!
//! Determinism is non-negotiable: tracing observes the pipeline through
//! the [`ada_core::control::PipelineObserver`] seam and never feeds
//! back into it, so clustering output is byte-identical with the
//! recorder on or off (property-tested in `tests/determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod repl;
pub mod stream;

pub use context::{current_trace, TraceContext, TraceScope};
pub use export::document_to_json;
pub use hist::{HistogramSnapshot, Log2Histogram, NUM_BUCKETS};
pub use metrics::{Metrics, Num, Reading, Series, Summary};
pub use recorder::{past_sessions, past_traces, FlightRecorder, Page};
pub use repl::{FleetMetrics, FleetMetricsSnapshot, ReplMetrics, ReplMetricsSnapshot};
pub use stream::{StreamMetrics, StreamMetricsSnapshot};
