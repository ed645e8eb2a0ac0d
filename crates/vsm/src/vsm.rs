//! The Vector Space Model transformation: ExamLog → patient × exam matrix.
//!
//! This is the paper's implemented "data characterization and
//! transformation" block: "The data transformation block through the VSM
//! model generates a unique vector for each patient, representing his/her
//! examination history (i.e. number of times he/she underwent each
//! examination)."
//!
//! The builder also carries the *horizontal partial-mining* knob: an
//! optional feature filter restricting the matrix to a subset of exam
//! types (the paper grows this subset along decreasing exam frequency).

use serde::{Deserialize, Serialize};

use ada_dataset::{ExamLog, ExamTypeId, PatientId};

use crate::dense::DenseMatrix;

/// Cell weighting schemes for the patient × exam matrix.
///
/// The paper implements raw counts; the alternatives are the candidate
/// transformations ADA-HEALTH's *transformation selection* component
/// scores against each other (`ada-core::transform`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Weighting {
    /// Raw exam counts (the paper's choice).
    Count,
    /// 1 when the patient underwent the exam at least once, else 0.
    Binary,
    /// `ln(1 + count)` — compresses heavy users.
    LogCount,
    /// Term-frequency × inverse document frequency:
    /// `count * ln(num_patients / (1 + patients_with_exam))`, the classic
    /// VSM re-weighting that discounts ubiquitous exams.
    TfIdf,
}

impl Weighting {
    /// All weightings, in a stable order.
    pub const ALL: [Weighting; 4] = [
        Weighting::Count,
        Weighting::Binary,
        Weighting::LogCount,
        Weighting::TfIdf,
    ];
}

impl std::fmt::Display for Weighting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Weighting::Count => "count",
            Weighting::Binary => "binary",
            Weighting::LogCount => "log-count",
            Weighting::TfIdf => "tf-idf",
        };
        f.write_str(s)
    }
}

/// The VSM transformation output: one row per patient, one column per
/// *selected* exam type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatientVectors {
    /// The patient × feature matrix.
    pub matrix: DenseMatrix,
    /// Column → exam-type mapping (`features[c]` is the exam type of
    /// column `c`).
    pub features: Vec<ExamTypeId>,
    /// Row → patient mapping (rows are all patients, in id order).
    pub patients: Vec<PatientId>,
    /// The weighting the matrix was built with.
    pub weighting: Weighting,
}

impl PatientVectors {
    /// Fraction of zero cells.
    pub fn sparsity(&self) -> f64 {
        let cells = self.matrix.num_rows() * self.matrix.num_cols();
        if cells == 0 {
            return 0.0;
        }
        let nonzero = self
            .matrix
            .rows_iter()
            .map(|row| row.iter().filter(|&&v| v != 0.0).count())
            .sum::<usize>();
        1.0 - nonzero as f64 / cells as f64
    }
}

/// Builder for the VSM transformation.
#[derive(Debug, Clone)]
pub struct VsmBuilder {
    weighting: Weighting,
    features: Option<Vec<ExamTypeId>>,
    normalize: bool,
}

impl Default for VsmBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl VsmBuilder {
    /// A builder with the paper's defaults: raw counts, all exam types,
    /// no row normalization.
    pub fn new() -> Self {
        Self {
            weighting: Weighting::Count,
            features: None,
            normalize: false,
        }
    }

    /// Selects the cell weighting.
    pub fn weighting(mut self, weighting: Weighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// Restricts the matrix to the given exam types (columns appear in
    /// the given order). This is the horizontal partial-mining hook.
    pub fn features(mut self, features: Vec<ExamTypeId>) -> Self {
        self.features = Some(features);
        self
    }

    /// Keeps only the `top_k` most frequent exam types of `log` (the
    /// paper's subset-growth ordering).
    pub fn top_features(mut self, log: &ExamLog, top_k: usize) -> Self {
        let mut order = log.exams_by_frequency();
        order.truncate(top_k);
        self.features = Some(order);
        self
    }

    /// Enables L2 normalization of every patient row.
    pub fn normalize(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }

    /// Runs the transformation.
    pub fn build(&self, log: &ExamLog) -> PatientVectors {
        let features: Vec<ExamTypeId> = match &self.features {
            Some(f) => f.clone(),
            None => (0..log.num_exam_types() as u32).map(ExamTypeId).collect(),
        };
        // exam id -> column (or none if filtered out)
        let mut col_of = vec![usize::MAX; log.num_exam_types()];
        for (c, id) in features.iter().enumerate() {
            col_of[id.index()] = c;
        }

        let n = log.num_patients();
        let mut matrix = DenseMatrix::zeros(n, features.len());
        for r in log.records() {
            let c = col_of[r.exam.index()];
            if c != usize::MAX {
                let row = matrix.row_mut(r.patient.index());
                row[c] += 1.0;
            }
        }

        match self.weighting {
            Weighting::Count => {}
            Weighting::Binary => {
                for p in 0..n {
                    for v in matrix.row_mut(p) {
                        *v = if *v > 0.0 { 1.0 } else { 0.0 };
                    }
                }
            }
            Weighting::LogCount => {
                for p in 0..n {
                    for v in matrix.row_mut(p) {
                        *v = (1.0 + *v).ln();
                    }
                }
            }
            Weighting::TfIdf => {
                // Document frequency per column.
                let cols = features.len();
                let mut df = vec![0usize; cols];
                for p in 0..n {
                    for (c, v) in matrix.row(p).iter().enumerate() {
                        if *v > 0.0 {
                            df[c] += 1;
                        }
                    }
                }
                let idf: Vec<f64> = df
                    .iter()
                    .map(|&d| (n as f64 / (1.0 + d as f64)).ln().max(0.0))
                    .collect();
                for p in 0..n {
                    let row = matrix.row_mut(p);
                    for (c, v) in row.iter_mut().enumerate() {
                        *v *= idf[c];
                    }
                }
            }
        }

        if self.normalize {
            matrix.normalize_rows();
        }

        PatientVectors {
            matrix,
            features,
            patients: (0..n as u32).map(PatientId).collect(),
            weighting: self.weighting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::record::{ExamRecord, ExamType, Patient};
    use ada_dataset::taxonomy::ConditionGroup;
    use ada_dataset::Date;

    fn tiny_log() -> ExamLog {
        let patients = (0..3)
            .map(|i| Patient::new(PatientId(i), 50).unwrap())
            .collect();
        let catalog = (0..4)
            .map(|i| ExamType::new(ExamTypeId(i), format!("e{i}"), ConditionGroup::GeneralLab))
            .collect();
        let mut log = ExamLog::new(patients, catalog).unwrap();
        let d = Date::new(2015, 1, 1).unwrap();
        // patient 0: e0 ×3, e1 ×1; patient 1: e0 ×1; patient 2: e3 ×2.
        for (p, e) in [(0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (2, 3), (2, 3)] {
            log.push_record(ExamRecord::new(PatientId(p), ExamTypeId(e), d))
                .unwrap();
        }
        log
    }

    #[test]
    fn count_matrix_matches_log() {
        let pv = VsmBuilder::new().build(&tiny_log());
        assert_eq!(pv.matrix.row(0), &[3.0, 1.0, 0.0, 0.0]);
        assert_eq!(pv.matrix.row(1), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(pv.matrix.row(2), &[0.0, 0.0, 0.0, 2.0]);
        assert_eq!(pv.features.len(), 4);
        assert_eq!(pv.weighting, Weighting::Count);
    }

    #[test]
    fn binary_weighting_thresholds() {
        let pv = VsmBuilder::new()
            .weighting(Weighting::Binary)
            .build(&tiny_log());
        assert_eq!(pv.matrix.row(0), &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(pv.matrix.row(2), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn log_weighting_compresses() {
        let pv = VsmBuilder::new()
            .weighting(Weighting::LogCount)
            .build(&tiny_log());
        assert!((pv.matrix.get(0, 0) - 4f64.ln()).abs() < 1e-12);
        assert_eq!(pv.matrix.get(1, 1), 0.0);
    }

    #[test]
    fn tfidf_discounts_common_exams() {
        let pv = VsmBuilder::new()
            .weighting(Weighting::TfIdf)
            .build(&tiny_log());
        // e0 appears for 2 of 3 patients (idf = ln(3/3) = 0) while e3
        // appears for 1 (idf = ln(3/2) > 0).
        assert_eq!(pv.matrix.get(0, 0), 0.0);
        assert!(pv.matrix.get(2, 3) > 0.0);
    }

    #[test]
    fn feature_filter_reorders_columns() {
        let pv = VsmBuilder::new()
            .features(vec![ExamTypeId(3), ExamTypeId(0)])
            .build(&tiny_log());
        assert_eq!(pv.matrix.num_cols(), 2);
        assert_eq!(pv.matrix.row(0), &[0.0, 3.0]);
        assert_eq!(pv.matrix.row(2), &[2.0, 0.0]);
        assert_eq!(pv.features, vec![ExamTypeId(3), ExamTypeId(0)]);
    }

    #[test]
    fn top_features_follow_frequency() {
        let log = tiny_log();
        let pv = VsmBuilder::new().top_features(&log, 2).build(&log);
        // e0 has 4 records, e3 has 2, e1 has 1.
        assert_eq!(pv.features, vec![ExamTypeId(0), ExamTypeId(3)]);
    }

    #[test]
    fn normalization_unit_rows() {
        let pv = VsmBuilder::new().normalize(true).build(&tiny_log());
        for r in 0..3 {
            let n = crate::dense::norm(pv.matrix.row(r));
            assert!((n - 1.0).abs() < 1e-12, "row {r} norm {n}");
        }
    }

    #[test]
    fn sparsity_counts_zero_cells() {
        let pv = VsmBuilder::new().build(&tiny_log());
        // 4 non-zero of 12 cells.
        assert!((pv.sparsity() - (1.0 - 4.0 / 12.0)).abs() < 1e-12);
    }
}
