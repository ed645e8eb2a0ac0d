//! Data characterization: statistical descriptors of an examination log.
//!
//! "We focus on the definition of innovative criteria to model data
//! distributions by exploiting unconventional statistical indices and
//! underlying data structures (e.g., frequent patterns)." The
//! [`DatasetDescriptor`] gathers: classic scale statistics, the
//! sparsity/long-tail indices that justify VSM + partial mining, the
//! coverage curve the horizontal miner walks along, per-condition-group
//! record shares, and a frequent-pattern descriptor (density of frequent
//! exam pairs) as the paper's "underlying data structure" criterion.
//! Descriptors serialize into K-DB documents (collection 3).

use ada_dataset::stats::{self, LogSummary};
use ada_dataset::taxonomy::ConditionGroup;
use ada_dataset::ExamLog;
use ada_kdb::Document;
use ada_mining::patterns::fpgrowth;

/// Statistical descriptors of one dataset, as stored in the K-DB.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetDescriptor {
    /// Classic scale and distribution summary.
    pub summary: LogSummary,
    /// Fraction of records covered by the top 20% / 40% of exam types —
    /// the two coverage points the paper publishes (≈ 0.70 / 0.85).
    pub coverage_top20: f64,
    /// See [`DatasetDescriptor::coverage_top20`].
    pub coverage_top40: f64,
    /// Full record-coverage curve over exam-type ranks (index k =
    /// coverage of the k most frequent types).
    pub coverage_curve: Vec<f64>,
    /// Share of records per condition group, indexed by
    /// [`ConditionGroup::ALL`].
    pub group_shares: Vec<f64>,
    /// Frequent-pattern descriptor: fraction of exam-type *pairs*
    /// (among pairs of the 30 most frequent types) that are frequent at
    /// 5% patient support. High density signals strong co-prescription
    /// structure — clustering and rule mining will pay off.
    pub frequent_pair_density: f64,
}

impl DatasetDescriptor {
    /// Computes all descriptors for a log.
    pub fn compute(log: &ExamLog) -> Self {
        let summary = stats::summarize(log);
        let coverage_curve = stats::coverage_curve(log);
        let coverage_top20 = stats::coverage_at_fraction(log, 0.20);
        let coverage_top40 = stats::coverage_at_fraction(log, 0.40);

        // Per-group record shares.
        let taxonomy = log.taxonomy();
        let mut group_counts = vec![0usize; ConditionGroup::ALL.len()];
        for r in log.records() {
            if let Some(g) = taxonomy.group_of(r.exam) {
                group_counts[g.index()] += 1;
            }
        }
        let total = log.num_records().max(1) as f64;
        let group_shares = group_counts.iter().map(|&c| c as f64 / total).collect();

        Self {
            summary,
            coverage_top20,
            coverage_top40,
            coverage_curve,
            group_shares,
            frequent_pair_density: frequent_pair_density(log),
        }
    }

    /// Sparsity shorthand (fraction of zero cells in the VSM matrix).
    pub fn sparsity(&self) -> f64 {
        self.summary.sparsity
    }

    /// True when the exam-type usage is long-tailed enough that partial
    /// mining is expected to pay off (the adaptive strategy's gate):
    /// 40% of exam types already cover ≥ 3/4 of records.
    pub fn long_tailed(&self) -> bool {
        self.coverage_top40 >= 0.75
    }

    /// Smallest number of top-frequency exam types covering at least
    /// `fraction` of the records.
    pub fn types_needed_for_coverage(&self, fraction: f64) -> usize {
        self.coverage_curve
            .iter()
            .position(|&c| c >= fraction)
            .unwrap_or(self.coverage_curve.len().saturating_sub(1))
    }

    /// Serializes into a K-DB document (collection 3 of the schema).
    pub fn to_document(&self) -> Document {
        let mut doc = Document::new()
            .with("patients", self.summary.num_patients as i64)
            .with("exam_types", self.summary.num_exam_types as i64)
            .with("records", self.summary.num_records as i64)
            .with(
                "records_per_patient_mean",
                self.summary.records_per_patient_mean,
            )
            .with(
                "records_per_patient_std",
                self.summary.records_per_patient_std,
            )
            .with(
                "distinct_exams_per_patient_mean",
                self.summary.distinct_exams_per_patient_mean,
            )
            .with("sparsity", self.summary.sparsity)
            .with("exam_frequency_gini", self.summary.exam_frequency_gini)
            .with(
                "exam_frequency_entropy",
                self.summary.exam_frequency_entropy,
            )
            .with("coverage_top20", self.coverage_top20)
            .with("coverage_top40", self.coverage_top40)
            .with("frequent_pair_density", self.frequent_pair_density)
            .with("group_shares", self.group_shares.clone());
        if let Some((lo, hi)) = self.summary.age_range {
            doc.set("age_min", lo as i64);
            doc.set("age_max", hi as i64);
        }
        doc
    }

    /// The numeric feature vector used by the end-goal interest model
    /// (stable order; see [`DatasetDescriptor::feature_names`]).
    pub fn feature_vector(&self) -> Vec<f64> {
        let mut v = vec![
            (self.summary.num_patients as f64).ln_1p(),
            (self.summary.num_exam_types as f64).ln_1p(),
            (self.summary.num_records as f64).ln_1p(),
            self.summary.records_per_patient_mean,
            self.summary.distinct_exams_per_patient_mean,
            self.summary.sparsity,
            self.summary.exam_frequency_gini,
            self.summary.exam_frequency_entropy,
            self.coverage_top20,
            self.coverage_top40,
            self.frequent_pair_density,
        ];
        v.extend(self.group_shares.iter().copied());
        v
    }

    /// Names of [`DatasetDescriptor::feature_vector`] components.
    pub fn feature_names() -> Vec<String> {
        let mut names: Vec<String> = [
            "ln_patients",
            "ln_exam_types",
            "ln_records",
            "records_per_patient_mean",
            "distinct_exams_per_patient_mean",
            "sparsity",
            "gini",
            "entropy",
            "coverage_top20",
            "coverage_top40",
            "frequent_pair_density",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        names.extend(ConditionGroup::ALL.iter().map(|g| format!("share_{g}")));
        names
    }
}

/// Fraction of pairs among the 30 most frequent exam types that are
/// frequent (≥ 5% patient support) as a 2-itemset.
fn frequent_pair_density(log: &ExamLog) -> f64 {
    let transactions: Vec<Vec<u32>> = log
        .patient_exam_sets()
        .into_iter()
        .map(|s| s.into_iter().map(|e| e.0).collect())
        .collect();
    if transactions.is_empty() {
        return 0.0;
    }
    let top: Vec<u32> = log
        .exams_by_frequency()
        .into_iter()
        .take(30)
        .map(|e| e.0)
        .collect();
    let keep: std::collections::HashSet<u32> = top.iter().copied().collect();
    let filtered: Vec<Vec<u32>> = transactions
        .iter()
        .map(|t| t.iter().copied().filter(|i| keep.contains(i)).collect())
        .collect();
    let min_support = ada_mining::patterns::relative_min_support(filtered.len(), 0.05);
    let frequent = fpgrowth::mine(&filtered, min_support);
    let pairs = frequent.iter().filter(|f| f.items.len() == 2).count();
    let n = top.len();
    let possible = n * (n - 1) / 2;
    if possible == 0 {
        0.0
    } else {
        pairs as f64 / possible as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};

    fn descriptor() -> DatasetDescriptor {
        let log = generate(&SyntheticConfig::small(), 7);
        DatasetDescriptor::compute(&log)
    }

    #[test]
    fn descriptors_reflect_synthetic_shape() {
        let d = descriptor();
        assert_eq!(d.summary.num_patients, 400);
        assert!(d.sparsity() > 0.5);
        assert!(d.long_tailed(), "coverage_top40 = {}", d.coverage_top40);
        assert!(d.coverage_top20 < d.coverage_top40);
        assert!((0.0..=1.0).contains(&d.frequent_pair_density));
        assert!(
            d.frequent_pair_density > 0.05,
            "panels should create frequent pairs"
        );
        let share_sum: f64 = d.group_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_rank_lookup() {
        let d = descriptor();
        let k70 = d.types_needed_for_coverage(0.70);
        let k85 = d.types_needed_for_coverage(0.85);
        assert!(k70 <= k85);
        assert!(k85 <= d.summary.num_exam_types);
        assert!(k70 >= 1);
    }

    #[test]
    fn document_round_trip_fields() {
        let d = descriptor();
        let doc = d.to_document();
        assert_eq!(doc.get("patients").unwrap().as_i64(), Some(400));
        assert!(doc.get("sparsity").unwrap().as_f64().unwrap() > 0.5);
        assert!(doc.get("age_min").is_some());
        assert_eq!(
            doc.get("group_shares").unwrap().as_array().unwrap().len(),
            ConditionGroup::ALL.len()
        );
    }

    #[test]
    fn feature_vector_matches_names() {
        let d = descriptor();
        assert_eq!(
            d.feature_vector().len(),
            DatasetDescriptor::feature_names().len()
        );
        assert!(d.feature_vector().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_log_descriptor() {
        let log = ExamLog::new(vec![], vec![]).unwrap();
        let d = DatasetDescriptor::compute(&log);
        assert_eq!(d.summary.num_records, 0);
        assert_eq!(d.frequent_pair_density, 0.0);
        assert!(!d.long_tailed());
    }
}
