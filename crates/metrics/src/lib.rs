//! # ada-metrics
//!
//! Quality and interestingness metrics for ADA-HEALTH.
//!
//! The paper drives its *algorithm optimization* component with exactly
//! these families of measures:
//!
//! * [`cluster`] — the **SSE** index ("the smaller the SSE, the better
//!   the quality of discovered clusters") and the **overall similarity**
//!   interestingness metric ("the internal pairwise similarity of
//!   patients within each cluster, … the weighted sum over the whole
//!   cluster set"), plus silhouette and Davies–Bouldin indices;
//! * [`classify`] — accuracy and macro-averaged precision/recall, the
//!   metrics Table I reports for the decision-tree *robustness* check;
//! * [`interest`] — support/confidence/lift-style measures that score
//!   pattern-based knowledge items.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod cluster;
pub mod interest;
pub mod partition;

pub use classify::ConfusionMatrix;
pub use cluster::{centroids_of, davies_bouldin, overall_similarity, silhouette, sse};
pub use partition::{adjusted_rand_index, normalized_mutual_information, purity};
