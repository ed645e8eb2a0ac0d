//! # ada-obs
//!
//! Observability for ADA-HEALTH analysis sessions.
//!
//! The paper frames ADA-HEALTH as a *service*: analysts submit datasets
//! and the system runs the seven-stage pipeline on their behalf. A
//! service needs to be answerable for what it did — which stages ran,
//! how long each took, how hard the mining kernels worked, and what
//! happened to a session that finished yesterday. This crate is that
//! answerability layer, in three pieces:
//!
//! * [`trace`] — a lock-free span/event tracer: per-thread ring
//!   buffers, a global atomic sequence for total ordering, monotonic
//!   timestamps, and parent/child span ids. Cheap enough to stay on
//!   during mining.
//! * [`context`] — request-scoped [`TraceContext`] identity
//!   (128-bit trace id + seeded-deterministic sampling) that crosses
//!   the ADAN1 wire and is published per worker thread via
//!   [`TraceScope`] so even the K-DB group committer can attribute its
//!   fsync rounds to the right session.
//! * [`hist`] — fixed-bucket log2 latency histograms giving p50/p90/p99
//!   without allocation, replacing total/count pair metrics.
//! * [`recorder`] — a bounded flight recorder that folds traces into
//!   per-session span trees, histograms and kernel counters, and on
//!   terminal state persists one document to the K-DB `sessions`
//!   collection so a restarted service can answer queries about past
//!   runs.
//! * [`export`] — deterministic JSON rendering of K-DB documents for
//!   the service `snapshot()` endpoint and the CI smoke gate.
//! * [`repl`] — lock-free `ada_repl_*`/`ada_fleet_*` collectors for
//!   journal replication and fleet routing (`ada-fleet` populates
//!   them; the families are pinned with every other exposition).
//!
//! Determinism is non-negotiable: tracing observes the pipeline through
//! the [`ada_core::control::PipelineObserver`] seam and never feeds
//! back into it, so clustering output is byte-identical with the
//! recorder on or off (property-tested in `tests/determinism.rs`).

#![warn(missing_docs)]

pub mod context;
pub mod export;
pub mod hist;
pub mod recorder;
pub mod repl;
pub mod stream;
pub mod trace;

pub use context::{current_trace, TraceContext, TraceScope};
pub use export::{document_to_json, value_to_json};
pub use hist::{HistogramSnapshot, Log2Histogram, NUM_BUCKETS};
pub use recorder::{
    past_sessions, past_traces, FlightRecorder, Page, MARK_CANCELLED, MARK_DEGRADED,
    MARK_PERSIST_FAIL, MARK_PROMOTED, MARK_QUEUE_WAIT, MARK_REPL_APPLY, MARK_REPL_RESET,
    MARK_RETRY, MARK_SLOW_SESSION,
};
pub use repl::{FleetMetrics, FleetMetricsSnapshot, ReplMetrics, ReplMetricsSnapshot};
pub use stream::{StreamMetrics, StreamMetricsSnapshot};
pub use trace::{EventKind, TraceEvent, Tracer, PARENT_NONE};
