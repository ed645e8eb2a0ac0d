//! Gaussian naive Bayes classifier.
//!
//! The ablation alternative to the decision tree in the optimizer's
//! robustness check ("decision trees as classification model" is called
//! a *first implementation* in the paper, inviting substitutes). Per
//! class, each feature gets an independent Gaussian with variance
//! smoothing; prediction maximizes the log joint.

use ada_vsm::dense::DenseMatrix;

/// A fitted Gaussian naive Bayes model.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNb {
    /// Per-class log prior.
    log_prior: Vec<f64>,
    /// Per-class per-feature means (class-major).
    mean: Vec<Vec<f64>>,
    /// Per-class per-feature variances, smoothed.
    var: Vec<Vec<f64>>,
    num_features: usize,
}

impl GaussianNb {
    /// Fits the model.
    ///
    /// Classes absent from `labels` get a −∞ prior and are never
    /// predicted.
    ///
    /// # Panics
    /// Panics on empty input, shape mismatch, or labels ≥ `num_classes`.
    pub fn fit(matrix: &DenseMatrix, labels: &[usize], num_classes: usize) -> Self {
        assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
        assert!(!labels.is_empty(), "cannot fit on empty data");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        let n = matrix.num_rows();
        let d = matrix.num_cols();

        let mut counts = vec![0usize; num_classes];
        let mut mean = vec![vec![0.0; d]; num_classes];
        for (i, &c) in labels.iter().enumerate() {
            counts[c] += 1;
            for (m, v) in mean[c].iter_mut().zip(matrix.row(i)) {
                *m += v;
            }
        }
        for c in 0..num_classes {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for m in &mut mean[c] {
                    *m *= inv;
                }
            }
        }

        let mut var = vec![vec![0.0; d]; num_classes];
        for (i, &c) in labels.iter().enumerate() {
            for ((v, m), x) in var[c].iter_mut().zip(&mean[c]).zip(matrix.row(i)) {
                let diff = x - m;
                *v += diff * diff;
            }
        }
        // Variance smoothing proportional to the global variance scale,
        // mirroring the common `var_smoothing` trick.
        let global_scale = {
            let means = matrix.col_means();
            let mut total = 0.0;
            for row in matrix.rows_iter() {
                for (x, m) in row.iter().zip(&means) {
                    let diff = x - m;
                    total += diff * diff;
                }
            }
            (total / (n * d.max(1)) as f64).max(1e-12)
        };
        let eps = 1e-9 * global_scale + 1e-12;
        for c in 0..num_classes {
            let denom = counts[c].max(1) as f64;
            for v in &mut var[c] {
                *v = *v / denom + eps;
            }
        }

        let log_prior = counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    f64::NEG_INFINITY
                } else {
                    (c as f64 / n as f64).ln()
                }
            })
            .collect();

        Self {
            log_prior,
            mean,
            var,
            num_features: d,
        }
    }

    /// Predicts the class of one feature row.
    ///
    /// # Panics
    /// Panics when `row.len()` differs from the training feature count.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "feature count mismatch");
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..self.log_prior.len() {
            if self.log_prior[c].is_infinite() {
                continue;
            }
            let mut score = self.log_prior[c];
            for ((x, m), v) in row.iter().zip(&self.mean[c]).zip(&self.var[c]) {
                let diff = x - m;
                score += -0.5 * ((std::f64::consts::TAU * v).ln() + diff * diff / v);
            }
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    /// Predicts classes for every row of `matrix`.
    pub fn predict(&self, matrix: &DenseMatrix) -> Vec<usize> {
        (0..matrix.num_rows())
            .map(|i| self.predict_row(matrix.row(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_classes(seed: u64) -> (DenseMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            let center = class as f64 * 8.0;
            for _ in 0..40 {
                rows.push(vec![
                    center + rng.gen_range(-1.0..1.0),
                    -center + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(class);
            }
        }
        (DenseMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn separable_classes_classified_perfectly() {
        let (m, labels) = gaussian_classes(1);
        let model = GaussianNb::fit(&m, &labels, 3);
        assert_eq!(model.predict(&m), labels);
    }

    #[test]
    fn absent_class_never_predicted() {
        let (m, labels) = gaussian_classes(2);
        // Claim 5 classes; classes 3 and 4 are absent.
        let model = GaussianNb::fit(&m, &labels, 5);
        let predictions = model.predict(&m);
        assert!(predictions.iter().all(|&p| p < 3));
    }

    #[test]
    fn handles_constant_features() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 0.1],
            vec![1.0, 9.0],
            vec![1.0, 9.1],
        ]);
        let labels = vec![0, 0, 1, 1];
        let model = GaussianNb::fit(&m, &labels, 2);
        assert_eq!(model.predict(&m), labels);
    }

    #[test]
    fn prior_dominates_for_uninformative_features() {
        // Identical feature distributions; class 1 has 3x the examples.
        let m = DenseMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let labels = vec![1, 1, 1, 0];
        let model = GaussianNb::fit(&m, &labels, 2);
        assert_eq!(model.predict_row(&[1.0]), 1);
    }

    #[test]
    fn deterministic() {
        let (m, labels) = gaussian_classes(3);
        let a = GaussianNb::fit(&m, &labels, 3);
        let b = GaussianNb::fit(&m, &labels, 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let m = DenseMatrix::from_rows(&[vec![1.0]]);
        let _ = GaussianNb::fit(&m, &[2], 2);
    }
}
