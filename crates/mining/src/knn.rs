//! k-nearest-neighbour classifier over a brute-force scan.
//!
//! Third robustness-classifier option for the optimizer ablation: unlike
//! the decision tree and naive Bayes it is non-parametric and directly
//! reuses the clustering's own geometry, so its cross-validated accuracy
//! upper-bounds what any classifier can recover from the cluster labels.

use ada_vsm::dense::{distance_sq, DenseMatrix};

/// A fitted k-NN classifier (stores the training set and scans it).
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    matrix: DenseMatrix,
    labels: Vec<usize>,
    num_classes: usize,
    k: usize,
}

impl KnnClassifier {
    /// Fits (i.e. stores) the training data, taking the matrix over
    /// rather than copying it.
    ///
    /// # Panics
    /// Panics on empty data, shape mismatch, `k == 0`, or labels
    /// ≥ `num_classes`.
    pub fn fit(matrix: DenseMatrix, labels: &[usize], num_classes: usize, k: usize) -> Self {
        assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
        assert!(!labels.is_empty(), "cannot fit on empty data");
        assert!(k >= 1, "k must be positive");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Self {
            matrix,
            labels: labels.to_vec(),
            num_classes,
            k: k.min(labels.len()),
        }
    }

    /// Predicts the majority label among the k nearest training points
    /// (ties break to the lower class index; distance ties are resolved
    /// by point index, so predictions are deterministic).
    pub fn predict_row(&self, row: &[f64]) -> usize {
        let neighbours = self.k_nearest(row);
        let mut votes = vec![0usize; self.num_classes];
        for &(idx, _) in &neighbours {
            votes[self.labels[idx]] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    /// Predicts every row of `matrix`.
    pub fn predict(&self, matrix: &DenseMatrix) -> Vec<usize> {
        (0..matrix.num_rows())
            .map(|i| self.predict_row(matrix.row(i)))
            .collect()
    }

    /// The k nearest training points as `(index, squared distance)`,
    /// nearest first, ordered by `(distance, index)`.
    fn k_nearest(&self, query: &[f64]) -> Vec<(usize, f64)> {
        // Bounded best-list over one scan of the training rows.
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(self.k + 1);
        for p in 0..self.matrix.num_rows() {
            let d = distance_sq(query, self.matrix.row(p));
            if best.len() == self.k && d >= best[self.k - 1].1 {
                // Rows arrive in index order, so a tie loses too.
                continue;
            }
            let pos = best.partition_point(|&(_, bd)| bd <= d);
            best.insert(pos, (p, d));
            best.truncate(self.k);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (DenseMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            let center = c as f64 * 10.0;
            for i in 0..20 {
                rows.push(vec![center + (i as f64) * 0.01, center]);
                labels.push(c);
            }
        }
        (DenseMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn classifies_separated_blobs() {
        let (m, labels) = blobs();
        let knn = KnnClassifier::fit(m.clone(), &labels, 3, 5);
        assert_eq!(knn.predict(&m), labels);
        assert_eq!(knn.predict_row(&[9.9, 10.1]), 1);
    }

    #[test]
    fn k_one_memorizes_training_data() {
        let (m, labels) = blobs();
        let knn = KnnClassifier::fit(m.clone(), &labels, 3, 1);
        assert_eq!(knn.predict(&m), labels);
    }

    #[test]
    fn majority_vote_with_ties_prefers_lower_class() {
        // Two classes at equal distance; k = 2 -> tie -> class 0.
        let m = DenseMatrix::from_rows(&[vec![-1.0], vec![1.0]]);
        let knn = KnnClassifier::fit(m, &[1, 0], 2, 2);
        assert_eq!(knn.predict_row(&[0.0]), 0);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let m = DenseMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        let knn = KnnClassifier::fit(m, &[0, 1], 2, 99);
        let _ = knn.predict_row(&[0.4]); // must not panic
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let m = DenseMatrix::from_rows(&[vec![0.0]]);
        let _ = KnnClassifier::fit(m, &[3], 2, 1);
    }
}
