//! # ada-core
//!
//! The ADA-HEALTH engine — the paper's contribution — wired from the
//! workspace substrates. Each module is one box of the Figure-1
//! architecture:
//!
//! * [`characterize`] — *data characterization*: statistical descriptors
//!   (sparsity, long-tail coverage, entropy/Gini, per-group shares) that
//!   drive every downstream decision;
//! * [`transform`] — *data transformation selection*: automatically picks
//!   the VSM weighting that yields the highest-quality knowledge;
//! * [`partial`] — *adaptive partial mining*: horizontal (exam-type
//!   subsets grown in frequency order, the paper's Section IV-B
//!   experiment) and vertical (patient subsets) strategies with the
//!   ≤ ε% overall-similarity stopping rule;
//! * [`optimize`] — *data analytics optimization*: the parallel K sweep
//!   scoring each cluster set with SSE plus a cross-validated classifier
//!   robustness check, reproducing Table I and its automatic K = 8 pick;
//! * [`goals`] — *identification of viable end-goals*: rule-based
//!   viability over descriptors plus an interest model trained on K-DB
//!   session history;
//! * [`rank`] — *knowledge navigation*: interestingness-ranked knowledge
//!   items, re-ordered adaptively from user feedback;
//! * [`annotator`] — the simulated physician standing in for the paper's
//!   domain expert (documented substitution, see DESIGN.md);
//! * [`control`] — run control: cooperative cancellation, deadlines, and
//!   stage-level observability for long-running sessions;
//! * [`pipeline`] — the end-to-end orchestrator ([`AdaHealth`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotator;
pub mod characterize;
pub mod compliance;
pub mod control;
pub mod goals;
pub mod optimize;
pub mod partial;
pub mod pipeline;
pub mod rank;
pub mod report;
pub mod transform;

pub use characterize::DatasetDescriptor;
pub use control::{
    NullObserver, PipelineError, PipelineObserver, PipelineStage, RunControl, TraceHandle,
};
pub use optimize::{KEvaluation, Optimizer, OptimizerReport};
pub use partial::{HorizontalPartialMiner, PartialMiningReport};
pub use pipeline::{AdaHealth, AdaHealthConfig, SessionReport};
