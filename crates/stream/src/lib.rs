//! # ada-stream — streaming ingestion and incremental mining
//!
//! The rest of the workspace analyzes a *static cohort snapshot*: load
//! the whole `ExamLog`, build the VSM, mine it, report. This crate
//! opens the "hospital feed" scenario instead — exam records arrive
//! one at a time (or in small batches, possibly out of timestamp
//! order) and the system continuously absorbs them:
//!
//! * **[`StreamEngine`]** — the deterministic core. A bounded reorder
//!   buffer absorbs out-of-order arrivals; a watermark (`newest
//!   timestamp seen − allowed lateness`) closes fixed-length windows;
//!   each closed window's records are folded in *canonical order*
//!   (`(day, patient, exam)`) into an incremental VSM ([`IncrementalVsm`]:
//!   per-patient count vectors updated in place, vocabulary growth via
//!   a versioned column map) and then drive a mini-batch K-means
//!   update warm-started from the previous model, with a seeded drift
//!   detector escalating to a full re-fit when the model has gone
//!   stale. Every closed window is checkpointed into the
//!   schema-validated `stream_windows` K-DB collection, so a restart —
//!   or a promoted replication follower — replays the checkpoints and
//!   resumes byte-identically from the last durable watermark.
//! * **[`StreamHandle`]** — the concurrency shell: a bounded,
//!   backpressured ingestion channel feeding one fold worker, with a
//!   flush barrier for read-your-writes status queries.
//! * **[`StreamMiningSpec`] / [`StreamReport`]** — the session-shaped
//!   packaging `ada-service` runs as `Workload::StreamMining`.
//!
//! ## Determinism
//!
//! The flagship invariant, proptest-pinned in `tests/`: the same
//! record stream (same seed, same window boundaries) produces a
//! byte-identical VSM and model whether ingested in one batch, record
//! by record, or replayed after a crash from the durable watermark —
//! because windows close on *timestamps*, not on arrival boundaries,
//! and every fold happens in canonical order. A drift-triggered full
//! re-fit equals a cold [`ada_mining::KMeans::fit`] over the same
//! accumulated cohort, by construction (it *is* one).

#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod spec;
pub mod vsm;

pub use channel::{IngestAck, IngestRejected, StreamHandle};
pub use config::StreamConfig;
pub use engine::StreamEngine;
pub use error::StreamError;
pub use fingerprint::Fnv64;
pub use spec::{StreamMiningSpec, StreamReport};
pub use vsm::IncrementalVsm;
