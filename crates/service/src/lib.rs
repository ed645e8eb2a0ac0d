//! `ada-service`: a concurrent multi-session analysis service over the
//! shared K-DB.
//!
//! The paper's vision is an *automated* analytics flow: many analysis
//! sessions — one per cohort, per parameter sweep, per clinician
//! question — running against one accumulating knowledge base. This
//! crate provides the serving layer for that flow:
//!
//! - [`AnalysisService`]: a fixed pool of worker threads draining a
//!   bounded, prioritized job queue. Submission applies backpressure
//!   ([`ServiceError::Busy`], carrying a retry hint derived from queue
//!   depth × recent p50 session latency) instead of buffering without
//!   bound.
//! - [`SessionRegistry`] semantics via [`SessionState`]:
//!   `Queued → Running → Completed | Failed | Cancelled`, with blocking
//!   [`AnalysisService::wait`] and cooperative [`CancelToken`]s that the
//!   pipeline polls at stage boundaries.
//! - Retry with capped, seeded exponential backoff for attempts that
//!   panic, and per-session deadlines.
//! - Observability: [`MetricsObserver`] aggregates queue depth,
//!   per-stage latency, and outcome counters into [`ServiceMetrics`];
//!   callers can fan events out to their own
//!   [`PipelineObserver`](ada_core::PipelineObserver) too.
//!
//! Sessions run through
//! [`AdaHealth::with_shared_kdb_isolated`](ada_core::AdaHealth::with_shared_kdb_isolated),
//! so each session's `SessionReport` is byte-identical to a serial run
//! of the same configuration and seed — concurrency changes wall-clock,
//! never results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod error;
mod job;
mod observer;
mod queue;
mod registry;
mod service;

pub use cancel::CancelToken;
pub use error::ServiceError;
pub use job::{JobSpec, Priority, Workload};
pub use observer::{FanoutObserver, MetricsObserver, ServiceMetrics, StageMetrics};
pub use registry::{SessionId, SessionOutcome, SessionRegistry, SessionState};
pub use service::{AnalysisService, ServiceConfig, DEFAULT_TRACE_SEED};
