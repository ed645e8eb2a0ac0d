//! # ada-signals
//!
//! Ranked safety-signal mining: the scenario-diversity workload beyond
//! the paper's clustering/pattern pipeline. From a cohort's exam log it
//! builds deterministic 2×2 contingency tables per (exposure exam,
//! outcome condition group) pair — and, via
//! [`ContingencyTable::from_rule_counts`], from mined association
//! rules — then ranks the pairs by disproportionality:
//!
//! * [`ror`] — reporting odds ratio with a log-normal 95% CI and the
//!   Haldane–Anscombe zero-cell correction;
//! * [`shrink`] — EBGM-style Gamma–Poisson Bayesian shrinkage with an
//!   empirically fitted prior, taming sparse-cell noise;
//! * [`session`] — the combined ranking score (CI lower bound +
//!   shrunken estimate + support, merged with the engine's
//!   interestingness/feedback weights via
//!   `ada_core::rank::ItemKind::Signal`), K-DB persistence into the
//!   schema-validated `signal_knowledge` collection, and the simulated
//!   physician feedback loop.
//!
//! Determinism is a hard contract: identical seed + config produce
//! byte-identical signal collections whether the session runs serially,
//! chunk-parallel, or remotely (the argument is in [`session`]).
//!
//! ```
//! use ada_core::RunControl;
//! use ada_dataset::synthetic::{generate, SyntheticConfig};
//! use ada_signals::{mine_signals, SignalConfig};
//!
//! let log = generate(&SyntheticConfig::small(), 7);
//! let report = mine_signals(&log, &SignalConfig::default(), &RunControl::new()).unwrap();
//! assert!(report.tables_built > 0);
//! for signal in &report.signals {
//!     assert!(signal.ror.ci_low <= signal.ror.ror);
//!     assert!(signal.ror.ror <= signal.ror.ci_high);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ror;
pub mod session;
pub mod shrink;
pub mod table;

pub use ror::{estimate as estimate_ror, RorEstimate};
pub use session::{
    mine_signals, run_session, SafetySignal, SignalConfig, SignalMiningReport, SignalSessionReport,
};
pub use shrink::{fit_prior, ShrinkageFit};
pub use table::{CohortIndex, ContingencyTable, ExposurePair};
