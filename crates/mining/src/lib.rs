//! # ada-mining
//!
//! From-scratch mining algorithms for ADA-HEALTH.
//!
//! The paper's preliminary implementation leans on two exploratory
//! algorithm families plus a classifier:
//!
//! * **Clustering** — K-means, run as the classic Lloyd iteration
//!   ([`kmeans::lloyd`]). Its reference \[3\] is Kanungo et al.'s kd-tree
//!   *filtering* algorithm; the reproduction measured it 5–41× slower
//!   than Lloyd here and retired it (EXPERIMENTS.md).
//! * **Frequent-pattern discovery** — its reference \[2\] (MeTA) mines
//!   medical treatments at multiple abstraction levels; [`patterns`]
//!   implements Apriori, FP-growth, association-rule generation and a
//!   taxonomy-aware multi-level miner.
//! * **Classification** — Table I scores clustering robustness with a
//!   decision tree under 10-fold cross validation; [`tree`] is a CART
//!   implementation and [`validate`] the stratified k-fold driver.
//!
//! A module is here because something runs it, and so is a method:
//! [`KMeans::fit_rows`] and [`KMeans::fit_rows_from`] over a matrix's
//! non-zero view are the fits the batch pipeline and `ada-stream`'s
//! window closes run. Beyond the three families above:
//! [`patterns::apriori`] is the reference `tests/miner_agreement.rs`
//! checks FP-growth against; [`bayes`], [`knn`] and [`forest`] are
//! EXPERIMENTS.md's classifier ablations (`table1 -- bayes|knn|forest`);
//! [`sequences`] serves the treatment-compliance end-goal
//! (`examples/compliance_audit.rs`). An algorithm with no such caller
//! lives in git history, not here.
//!
//! All algorithms are deterministic given their seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayes;
pub mod forest;
pub mod kmeans;
pub mod knn;
pub mod patterns;
pub mod sequences;
pub mod tree;
pub mod validate;

pub use kmeans::{pad_centroids, KMeans, KMeansInit, KMeansResult};
pub use patterns::{FrequentItemset, Itemset, Transaction};
pub use tree::DecisionTree;
