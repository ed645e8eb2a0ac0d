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
//! * [`dense::DenseMatrix`] — the row-major clustering working set, with
//!   a cached non-zero view ([`dense::SparseRows`]) for the loops that
//!   would otherwise multiply through its 93 % zeros;
//! * [`vsm::VsmBuilder`] — the ExamLog → patient×exam matrix
//!   transformation under selectable weightings (count, binary, TF-IDF,
//!   log-count) and feature filters (the horizontal partial-mining knob).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod vsm;

pub use dense::{DenseMatrix, SparseCells, SparseRows};
pub use vsm::{inverse_document_frequencies, PatientVectors, VsmBuilder, Weighting};
