//! # ada-mining
//!
//! From-scratch mining algorithms for ADA-HEALTH.
//!
//! The paper's preliminary implementation leans on two exploratory
//! algorithm families plus a classifier:
//!
//! * **Clustering** — K-means; its reference \[3\] is Kanungo et al.'s
//!   kd-tree *filtering* algorithm, implemented in [`kmeans::filtering`]
//!   next to the classic Lloyd iteration ([`kmeans::lloyd`]).
//! * **Frequent-pattern discovery** — its reference \[2\] (MeTA) mines
//!   medical treatments at multiple abstraction levels; [`patterns`]
//!   implements Apriori, FP-growth, association-rule generation and a
//!   taxonomy-aware multi-level miner.
//! * **Classification** — Table I scores clustering robustness with a
//!   decision tree under 10-fold cross validation; [`tree`] is a CART
//!   implementation and [`validate`] the stratified k-fold driver.
//!
//! A module is here because something runs it. Beyond the three
//! families above: [`kmeans::filtering`] is a [`KMeansBackend`] the
//! Table-I bin reports; [`patterns::apriori`] is the reference
//! `tests/miner_agreement.rs` checks FP-growth against; [`bayes`],
//! [`knn`] and [`forest`] are EXPERIMENTS.md's classifier ablations
//! (`table1 -- bayes|knn|forest`); [`sequences`] serves the
//! treatment-compliance end-goal (`examples/compliance_audit.rs`);
//! [`patterns::condense`] belongs to the pattern-mining workload
//! ROADMAP.md parks. An algorithm with no such caller lives in git
//! history, not here.
//!
//! All algorithms are deterministic given their seeds.

#![warn(missing_docs)]

pub mod bayes;
pub mod forest;
pub mod kmeans;
pub mod knn;
pub mod patterns;
pub mod sequences;
pub mod tree;
pub mod validate;

pub use kmeans::{pad_centroids, KMeans, KMeansBackend, KMeansInit, KMeansResult};
pub use patterns::{FrequentItemset, Itemset, Transaction};
pub use tree::DecisionTree;
