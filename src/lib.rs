//! # ada-health — facade crate
//!
//! Re-exports the whole ADA-HEALTH workspace behind a single dependency:
//! the [`dataset`] substrate, the [`vsm`] linear-algebra layer, the
//! [`metrics`] and [`mining`] algorithm crates, the [`kdb`] document
//! store, the [`engine`] (the paper's contribution) that wires them
//! together, the [`obs`] observability layer (trace contexts, latency
//! histograms, the session flight recorder), and the
//! [`service`] layer that runs many concurrent analysis sessions over
//! one shared K-DB, the [`signals`] safety-signal mining workload
//! (disproportionality statistics with Bayesian shrinkage), the
//! [`stream`] ingestion subsystem (bounded backpressured feeds,
//! incremental VSM builds and mini-batch K-means re-mining with
//! durable window checkpoints), and the [`net`] front-end that serves
//! that service to remote clients over a framed, checksummed TCP wire
//! protocol.
//!
//! ## End-to-end usage
//!
//! ```
//! use ada_health::dataset::synthetic::{generate, SyntheticConfig};
//! use ada_health::engine::pipeline::{AdaHealth, AdaHealthConfig};
//!
//! // A small seeded cohort (use `SyntheticConfig::paper()` for the
//! // full 6,380-patient study, or `dataset::io::load_dir` for CSVs).
//! let cfg = SyntheticConfig {
//!     num_patients: 120,
//!     num_exam_types: 25,
//!     target_records: 1_800,
//!     ..SyntheticConfig::small()
//! };
//! let log = generate(&cfg, 42);
//!
//! // One call runs every box of the paper's Figure-1 architecture:
//! // characterization, transformation selection, adaptive partial
//! // mining, the Table-I K sweep, knowledge extraction, end-goal
//! // ranking and feedback-adaptive knowledge navigation — persisting
//! // everything into the six K-DB collections.
//! let mut engine = AdaHealth::new(AdaHealthConfig::quick("doc"));
//! let report = engine.run(&log);
//!
//! assert!(report.optimizer.selected_k >= 2);
//! assert!(!report.ranked_items.is_empty());
//! println!("{}", ada_health::engine::report::render(&report));
//! ```
//!
//! See the repository README for a quickstart, `DESIGN.md` for the
//! architecture and per-experiment index, and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub use ada_core as engine;
pub use ada_dataset as dataset;
pub use ada_fleet as fleet;
pub use ada_kdb as kdb;
pub use ada_metrics as metrics;
pub use ada_mining as mining;
pub use ada_net as net;
pub use ada_obs as obs;
pub use ada_service as service;
pub use ada_signals as signals;
pub use ada_stream as stream;
pub use ada_vsm as vsm;
