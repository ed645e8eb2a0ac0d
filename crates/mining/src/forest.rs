//! Random forest: bagged CART trees with feature subsampling.
//!
//! The paper calls decision trees its "first implementation" of the
//! robustness classifier, inviting stronger substitutes. A forest
//! averages away single-tree variance: each tree trains on a bootstrap
//! sample and, at every split, sees only a random feature subset;
//! prediction is the majority vote. Deterministic given the seed.

use ada_vsm::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tree::{Criterion, DecisionTree, TreeConfig};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree depth/leaf limits.
    pub tree: TreeConfig,
    /// Features sampled per tree: `None` = √d (the classification
    /// default), `Some(m)` = exactly `m` (capped at d).
    pub features_per_tree: Option<usize>,
    /// RNG seed (bootstrap + feature sampling).
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            num_trees: 25,
            tree: TreeConfig {
                max_depth: 12,
                min_samples_leaf: 2,
                min_gain: 1e-7,
                criterion: Criterion::Gini,
            },
            features_per_tree: None,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    /// One (feature subset, tree) pair per member. Trees are trained on
    /// the column-sliced bootstrap sample, so prediction re-slices the
    /// query row with the stored subset.
    members: Vec<(Vec<usize>, DecisionTree)>,
    num_classes: usize,
    num_features: usize,
}

impl RandomForest {
    /// Fits the forest.
    ///
    /// # Panics
    /// Panics on empty data, shape mismatch, labels ≥ `num_classes`, or
    /// a zero-tree configuration.
    pub fn fit(
        matrix: &DenseMatrix,
        labels: &[usize],
        num_classes: usize,
        config: &ForestConfig,
    ) -> Self {
        assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
        assert!(!labels.is_empty(), "cannot fit on empty data");
        assert!(config.num_trees >= 1, "need at least one tree");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        let n = matrix.num_rows();
        let d = matrix.num_cols();
        let m = config
            .features_per_tree
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .clamp(1, d);

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut members = Vec::with_capacity(config.num_trees);
        for _ in 0..config.num_trees {
            // Bootstrap rows.
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            // Feature subset (without replacement).
            let mut features: Vec<usize> = (0..d).collect();
            for i in 0..m {
                let j = rng.gen_range(i..d);
                features.swap(i, j);
            }
            features.truncate(m);
            features.sort_unstable();

            let sample = matrix.select_rows(&rows).select_cols(&features);
            let sample_labels: Vec<usize> = rows.iter().map(|&r| labels[r]).collect();
            let tree = DecisionTree::fit(&sample, &sample_labels, num_classes, &config.tree);
            members.push((features, tree));
        }

        Self {
            members,
            num_classes,
            num_features: d,
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.members.len()
    }

    /// Per-class vote fractions for one row.
    ///
    /// # Panics
    /// Panics when `row.len()` differs from the training feature count.
    pub fn vote_distribution(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.num_features, "feature count mismatch");
        let mut votes = vec![0usize; self.num_classes];
        let mut sliced = Vec::new();
        for (features, tree) in &self.members {
            sliced.clear();
            sliced.extend(features.iter().map(|&f| row[f]));
            votes[tree.predict_row(&sliced)] += 1;
        }
        let total = self.members.len() as f64;
        votes.into_iter().map(|v| v as f64 / total).collect()
    }

    /// Majority-vote prediction for one row (ties → lower class).
    pub fn predict_row(&self, row: &[f64]) -> usize {
        let dist = self.vote_distribution(row);
        dist.iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.partial_cmp(b)
                    .expect("finite vote fractions")
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    /// Predicts every row of `matrix`.
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
    use rand::SeedableRng;

    fn noisy_classes(seed: u64) -> (DenseMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..50 {
                // Two informative features + three noise features.
                let c = class as f64 * 4.0;
                rows.push(vec![
                    c + rng.gen_range(-1.2..1.2),
                    -c + rng.gen_range(-1.2..1.2),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                ]);
                labels.push(class);
            }
        }
        (DenseMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn forest_classifies_noisy_data() {
        let (m, labels) = noisy_classes(1);
        let forest = RandomForest::fit(&m, &labels, 3, &ForestConfig::default());
        let predictions = forest.predict(&m);
        let correct = predictions
            .iter()
            .zip(&labels)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            correct as f64 / labels.len() as f64 > 0.9,
            "training accuracy {correct}/{}",
            labels.len()
        );
    }

    #[test]
    fn forest_beats_or_matches_single_shallow_tree_out_of_sample() {
        let (train_x, train_y) = noisy_classes(2);
        let (test_x, test_y) = noisy_classes(3);
        let cfg = ForestConfig {
            num_trees: 40,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit(&train_x, &train_y, 3, &cfg);
        let forest_acc = accuracy(&forest.predict(&test_x), &test_y);
        let tree = crate::tree::DecisionTree::fit(
            &train_x,
            &train_y,
            3,
            &TreeConfig {
                max_depth: 3,
                ..TreeConfig::default()
            },
        );
        let tree_acc = accuracy(&tree.predict(&test_x), &test_y);
        assert!(
            forest_acc >= tree_acc - 0.02,
            "forest {forest_acc} vs shallow tree {tree_acc}"
        );
        assert!(forest_acc > 0.85, "forest_acc = {forest_acc}");
    }

    fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
        pred.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    }

    #[test]
    fn vote_distribution_sums_to_one() {
        let (m, labels) = noisy_classes(4);
        let forest = RandomForest::fit(&m, &labels, 3, &ForestConfig::default());
        let dist = forest.vote_distribution(m.row(0));
        assert_eq!(dist.len(), 3);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (m, labels) = noisy_classes(5);
        let a = RandomForest::fit(&m, &labels, 3, &ForestConfig::default());
        let b = RandomForest::fit(&m, &labels, 3, &ForestConfig::default());
        assert_eq!(a, b);
        let other = ForestConfig {
            seed: 99,
            ..ForestConfig::default()
        };
        let c = RandomForest::fit(&m, &labels, 3, &other);
        assert_ne!(a, c, "different seeds must give different forests");
    }

    #[test]
    fn feature_subsetting_respected() {
        let (m, labels) = noisy_classes(6);
        let cfg = ForestConfig {
            num_trees: 5,
            features_per_tree: Some(2),
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit(&m, &labels, 3, &cfg);
        assert_eq!(forest.num_trees(), 5);
        for (features, _) in &forest.members {
            assert_eq!(features.len(), 2);
            assert!(features.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let m = DenseMatrix::from_rows(&[vec![0.0]]);
        let _ = RandomForest::fit(&m, &[7], 3, &ForestConfig::default());
    }
}
