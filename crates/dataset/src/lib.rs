//! # ada-dataset
//!
//! Medical examination-log data model for the ADA-HEALTH reproduction.
//!
//! The ADA-HEALTH paper (Cerquitelli et al., ICDEW 2016) evaluates its
//! pipeline on a proprietary, anonymized examination log of diabetic
//! patients: **6,380 patients**, **159 examination types**, **95,788
//! records** over one year, ages 4–95. That dataset is not public, so this
//! crate provides:
//!
//! * the data model the paper describes — each record carries *at least a
//!   unique patient identifier, and the type and date of every exam*
//!   ([`ExamRecord`], [`Patient`], [`ExamType`], [`ExamLog`]);
//! * a three-level examination taxonomy ([`taxonomy`]) used by the
//!   MeTA-style multi-level pattern mining in `ada-mining`;
//! * a **seeded synthetic generator** ([`synthetic`]) calibrated to every
//!   aggregate statistic the paper publishes (counts, age range, long-tail
//!   exam-type frequency driving the 20/40/100% → ~70/85/100% row-coverage
//!   mapping, correlated exam bundles, latent patient condition profiles);
//! * CSV import/export ([`io`]) and summary statistics ([`stats`]).
//!
//! ## Quick example
//!
//! ```
//! use ada_dataset::synthetic::{SyntheticConfig, generate};
//!
//! // Small for doc-test speed; `SyntheticConfig::paper()` is paper scale.
//! let cfg = SyntheticConfig::small();
//! let log = generate(&cfg, 42);
//! assert_eq!(log.num_patients(), cfg.num_patients);
//! assert!(log.num_records() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod date;
pub mod io;
pub mod record;
pub mod sampling;
pub mod stats;
pub mod synthetic;
pub mod taxonomy;
pub mod timeline;

mod error;

pub use dataset::ExamLog;
pub use date::Date;
pub use error::DatasetError;
pub use record::{ExamRecord, ExamType, ExamTypeId, Patient, PatientId};
pub use taxonomy::{ConditionGroup, Domain, Taxonomy};
pub use timeline::StreamOrder;
