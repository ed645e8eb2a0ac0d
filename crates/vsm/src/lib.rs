//! # ada-vsm
//!
//! Vector Space Model and linear-algebra substrate for ADA-HEALTH.
//!
//! The paper's only implemented data transformation maps the examination
//! log "to a Vector Space Model (VSM) representation, which is
//! particularly suited to handle sparse datasets": one vector per
//! patient, counting how many times the patient underwent each exam type.
//! This crate provides:
//!
//! * [`dense::DenseMatrix`] — a row-major dense matrix used as the
//!   clustering working set, with a cached non-zero view
//!   ([`dense::SparseRows`]) for the loops that would otherwise multiply
//!   through its 93 % zeros;
//! * [`vsm::VsmBuilder`] — the ExamLog → patient×exam matrix
//!   transformation under selectable weightings (count, binary, TF-IDF,
//!   log-count) and feature filters (the horizontal partial-mining knob);
//! * [`kdtree::KdTree`] — a bounding-box kd-tree with per-node aggregate
//!   statistics (count, vector sum, squared-norm sum), exactly the
//!   structure Kanungo et al.'s *filtering* K-means (the paper's
//!   reference \[3\]) traverses.

#![warn(missing_docs)]

pub mod dense;
pub mod kdtree;
pub mod reduce;
pub mod vsm;

pub use dense::{DenseMatrix, SparseCells, SparseRows};
pub use kdtree::KdTree;
pub use reduce::{Pca, Standardizer};
pub use vsm::{PatientVectors, VsmBuilder, Weighting};
