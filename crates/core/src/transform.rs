//! Automatic data-transformation selection.
//!
//! "The main research issue here is to define a totally automatic
//! strategy to select the optimal data transformation, which yields
//! higher quality knowledge." The selector scores every candidate VSM
//! weighting by the quality of the knowledge it produces: a fixed,
//! seeded K-means probe run on each candidate matrix, scored by the
//! overall-similarity index (the paper's interestingness metric) plus a
//! silhouette tie-breaker, both computed on the *probe's own* matrix and
//! therefore comparable because every candidate is row-normalized for
//! scoring.

use ada_dataset::ExamLog;
use ada_metrics::cluster;
use ada_mining::kmeans::KMeans;
use ada_vsm::{inverse_document_frequencies, DenseMatrix, VsmBuilder, Weighting};

/// The score card of one candidate transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformScore {
    /// The candidate weighting.
    pub weighting: Weighting,
    /// Overall similarity of the probe clustering (primary criterion).
    pub overall_similarity: f64,
    /// Silhouette of the probe clustering (tie-breaker).
    pub silhouette: f64,
}

impl TransformScore {
    /// The combined selection score.
    pub fn score(&self) -> f64 {
        self.overall_similarity + 0.1 * self.silhouette
    }
}

/// The transformation-selection report: all candidates, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformReport {
    /// Candidates, best first.
    pub ranked: Vec<TransformScore>,
}

impl TransformReport {
    /// The selected (best) weighting.
    pub fn best(&self) -> Weighting {
        self.ranked
            .first()
            .map(|s| s.weighting)
            .unwrap_or(Weighting::Count)
    }
}

/// Configuration of the transformation selector.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSelector {
    /// Candidate weightings to score.
    pub candidates: Vec<Weighting>,
    /// Number of clusters of the probe K-means.
    pub probe_k: usize,
    /// Maximum number of patients in the probe sample (head sample —
    /// deterministic; patient order carries no information in the VSM).
    pub sample_limit: usize,
    /// Seed for the probe clustering.
    pub seed: u64,
}

impl Default for TransformSelector {
    fn default() -> Self {
        Self {
            candidates: Weighting::ALL.to_vec(),
            probe_k: 5,
            sample_limit: 1_000,
            seed: 0,
        }
    }
}

impl TransformSelector {
    /// Scores every candidate weighting and returns them ranked (best
    /// first, ties broken by candidate order for determinism).
    ///
    /// The log is counted once; each candidate re-weights and
    /// normalizes only the probed rows, TF-IDF against the document
    /// frequencies of every patient (the cells a full build per
    /// candidate would have kept, bit for bit).
    pub fn select(&self, log: &ExamLog) -> TransformReport {
        let mut probe = VsmBuilder::new().build(log).matrix;
        let idf = inverse_document_frequencies(&probe);
        if probe.num_rows() > self.sample_limit {
            probe = probe.select_rows(&(0..self.sample_limit).collect::<Vec<_>>());
        }
        let mut ranked: Vec<TransformScore> = self
            .candidates
            .iter()
            .map(|&weighting| self.score_candidate(&probe, &idf, weighting))
            .collect();
        ranked.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
        TransformReport { ranked }
    }

    fn score_candidate(
        &self,
        probe: &DenseMatrix,
        idf: &[f64],
        weighting: Weighting,
    ) -> TransformScore {
        let mut matrix = probe.clone();
        weighting.apply(&mut matrix, idf);
        matrix.normalize_rows(); // score in a comparable, scale-free space
        let k = self.probe_k.min(matrix.num_rows().max(1));
        if matrix.num_rows() < 2 || k < 2 || matrix.num_cols() == 0 {
            return TransformScore {
                weighting,
                overall_similarity: 0.0,
                silhouette: 0.0,
            };
        }
        // Over the non-zero view: the dense fit's model, bit for bit.
        let (result, _) = KMeans::new(k)
            .seed(self.seed)
            .fit_rows(&matrix.sparse_rows());
        let overall = cluster::overall_similarity(&matrix, &result.assignments, k);
        // Silhouette is O(n²): cap the evaluation sample further.
        let sil_cap = 400.min(matrix.num_rows());
        let sil_matrix = matrix.select_rows(&(0..sil_cap).collect::<Vec<_>>());
        let sil_assign = &result.assignments[..sil_cap];
        let silhouette = cluster::silhouette(&sil_matrix, sil_assign, k);
        TransformScore {
            weighting,
            overall_similarity: overall,
            silhouette,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};

    #[test]
    fn default_selection_is_pinned() {
        // Every f64 of the default report on the small cohort, as the
        // bit patterns the dense probe fit and the pair-by-pair
        // silhouette printed: how the probe reads rows may change no
        // digit.
        let score = |weighting, overall: u64, silhouette: u64| TransformScore {
            weighting,
            overall_similarity: f64::from_bits(overall),
            silhouette: f64::from_bits(silhouette),
        };
        let log = generate(&SyntheticConfig::small(), 17);
        assert_eq!(
            TransformSelector::default().select(&log),
            TransformReport {
                ranked: vec![
                    score(Weighting::Count, 0x3fdf676458c6be83, 0x3fc3b59dd3dff433),
                    score(Weighting::LogCount, 0x3fde4007e16c01e0, 0x3fba033f58de8013),
                    score(Weighting::Binary, 0x3fdd4ab9b71de607, 0x3fb5b6177e6d3580),
                    score(Weighting::TfIdf, 0x3fd9cae6fac627e2, 0x3fc5d195534716aa),
                ],
            }
        );
    }

    #[test]
    fn ranks_all_candidates() {
        let log = generate(&SyntheticConfig::small(), 3);
        let report = TransformSelector::default().select(&log);
        assert_eq!(report.ranked.len(), Weighting::ALL.len());
        for w in report.ranked.windows(2) {
            assert!(w[0].score() >= w[1].score());
        }
        // The winner is exposed.
        assert_eq!(report.best(), report.ranked[0].weighting);
    }

    #[test]
    fn scores_are_valid_similarities() {
        let log = generate(&SyntheticConfig::small(), 4);
        let report = TransformSelector::default().select(&log);
        for s in &report.ranked {
            assert!((0.0..=1.0 + 1e-9).contains(&s.overall_similarity), "{s:?}");
            assert!((-1.0..=1.0).contains(&s.silhouette), "{s:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let log = generate(&SyntheticConfig::small(), 5);
        let a = TransformSelector::default().select(&log);
        let b = TransformSelector::default().select(&log);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_log_defaults_to_count() {
        let log = ada_dataset::ExamLog::new(vec![], vec![]).unwrap();
        let report = TransformSelector {
            candidates: vec![Weighting::Count, Weighting::Binary],
            ..Default::default()
        }
        .select(&log);
        assert_eq!(report.best(), Weighting::Count);
        assert!(report.ranked.iter().all(|s| s.score() == 0.0));
    }

    #[test]
    fn respects_candidate_subset() {
        let log = generate(&SyntheticConfig::small(), 6);
        let report = TransformSelector {
            candidates: vec![Weighting::Binary],
            ..Default::default()
        }
        .select(&log);
        assert_eq!(report.ranked.len(), 1);
        assert_eq!(report.best(), Weighting::Binary);
    }
}
