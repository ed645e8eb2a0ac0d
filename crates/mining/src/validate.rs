//! Stratified k-fold cross-validation.
//!
//! Table I's classification metrics come from "10-fold cross validation
//! … used to evaluate the classification model". Folds are stratified by
//! class so every fold sees (approximately) the full label distribution
//! — essential here because K-means cluster sizes are heavily skewed.

use ada_metrics::ConfusionMatrix;
use ada_vsm::dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::tree::{ColumnIndex, TreeConfig, TreeFitter, TreeStats};

/// Builds `num_folds` stratified folds over `labels`; returns, for each
/// fold, the indices of its *test* partition. Every index appears in
/// exactly one fold.
///
/// # Panics
/// Panics when `num_folds == 0` or there are fewer samples than folds.
pub fn stratified_folds(labels: &[usize], num_folds: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(num_folds >= 1, "need at least one fold");
    assert!(
        labels.len() >= num_folds,
        "fewer samples ({}) than folds ({num_folds})",
        labels.len()
    );
    let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        per_class[l].push(i);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); num_folds];
    let mut next = 0usize;
    for class_indices in &mut per_class {
        class_indices.shuffle(&mut rng);
        // Round-robin across folds, continuing the cursor between classes
        // so small classes don't all land in fold 0.
        for &i in class_indices.iter() {
            folds[next % num_folds].push(i);
            next += 1;
        }
    }
    for fold in &mut folds {
        fold.sort_unstable();
    }
    folds
}

/// Runs k-fold cross-validation of an arbitrary classifier and pools the
/// per-fold confusion matrices.
///
/// `train_and_predict(train_x, train_y, test_x)` must return one
/// predicted label per test row. It owns the fold's training rows, so a
/// classifier that stores them (k-NN) takes them over without a copy.
///
/// # Panics
/// Panics when the classifier returns the wrong number of predictions,
/// or on degenerate fold configurations (see [`stratified_folds`]).
pub fn cross_validate<F>(
    matrix: &DenseMatrix,
    labels: &[usize],
    num_classes: usize,
    num_folds: usize,
    seed: u64,
    mut train_and_predict: F,
) -> ConfusionMatrix
where
    F: FnMut(DenseMatrix, &[usize], &DenseMatrix) -> Vec<usize>,
{
    assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
    let folds = stratified_folds(labels, num_folds, seed);
    let mut pooled = ConfusionMatrix::new(num_classes);
    for fold in &folds {
        if fold.is_empty() {
            continue;
        }
        let in_fold = {
            let mut mask = vec![false; labels.len()];
            for &i in fold {
                mask[i] = true;
            }
            mask
        };
        let train_idx: Vec<usize> = (0..labels.len()).filter(|&i| !in_fold[i]).collect();
        if train_idx.is_empty() {
            continue; // single-fold CV: nothing to train on
        }
        let train_x = matrix.select_rows(&train_idx);
        let train_y: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let test_x = matrix.select_rows(fold);
        let predictions = train_and_predict(train_x, &train_y, &test_x);
        assert_eq!(
            predictions.len(),
            fold.len(),
            "classifier returned wrong number of predictions"
        );
        for (&i, &p) in fold.iter().zip(&predictions) {
            pooled.record(labels[i], p);
        }
    }
    pooled
}

/// k-fold cross-validation of a CART decision tree over the shared
/// [`ColumnIndex`] of a matrix: each fold's tree is grown on the rows
/// outside the fold, as a filter of the index, and its test rows are
/// predicted from the index's own copy of the values — no per-fold
/// copies, and no sorting after the index build. Pools the per-fold
/// confusion matrices exactly like [`cross_validate`] on that matrix with
/// `DecisionTree::fit(..).predict(..)` as the classifier, and also
/// returns what the fits did.
///
/// # Panics
/// Panics on a label count mismatch or a label ≥ `num_classes`, and on
/// degenerate fold configurations (see [`stratified_folds`]).
pub fn cross_validate_tree_indexed(
    index: &ColumnIndex,
    labels: &[usize],
    num_classes: usize,
    config: &TreeConfig,
    num_folds: usize,
    seed: u64,
) -> (ConfusionMatrix, TreeStats) {
    assert_eq!(index.num_rows(), labels.len(), "label count mismatch");
    let folds = stratified_folds(labels, num_folds, seed);
    let mut pooled = ConfusionMatrix::new(num_classes);
    let mut fitter = TreeFitter::new(index);
    let mut held_out = vec![false; labels.len()];
    for fold in &folds {
        if fold.is_empty() || fold.len() == labels.len() {
            continue; // single-fold CV: nothing to train on
        }
        for &i in fold {
            held_out[i] = true;
        }
        let tree = fitter.fit_where(labels, |r| !held_out[r], num_classes, config);
        for &i in fold {
            pooled.record(labels[i], tree.predict_indexed(index, i));
            held_out[i] = false;
        }
    }
    (pooled, fitter.stats())
}

/// Convenience wrapper: 10-fold CV of a CART decision tree, the paper's
/// Table I protocol, on an index built for this call.
pub fn cross_validate_tree(
    matrix: &DenseMatrix,
    labels: &[usize],
    num_classes: usize,
    config: &TreeConfig,
    seed: u64,
) -> ConfusionMatrix {
    let index = ColumnIndex::build(matrix);
    cross_validate_tree_indexed(&index, labels, num_classes, config, 10, seed).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition_all_indices() {
        let labels = vec![0, 1, 0, 1, 0, 1, 2, 2, 2, 0];
        let folds = stratified_folds(&labels, 3, 1);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        // 40 of class 0, 40 of class 1 into 4 folds: each fold must get
        // 10 of each.
        let labels: Vec<usize> = (0..80).map(|i| i % 2).collect();
        let folds = stratified_folds(&labels, 4, 2);
        for fold in &folds {
            let ones = fold.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(fold.len(), 20);
            assert_eq!(ones, 10);
        }
    }

    #[test]
    fn folds_deterministic_per_seed() {
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        assert_eq!(
            stratified_folds(&labels, 5, 7),
            stratified_folds(&labels, 5, 7)
        );
        assert_ne!(
            stratified_folds(&labels, 5, 7),
            stratified_folds(&labels, 5, 8)
        );
    }

    #[test]
    fn cv_perfect_on_separable_data() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![if i % 2 == 0 { 0.0 } else { 10.0 } + (i as f64) * 0.001])
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let m = DenseMatrix::from_rows(&rows);
        let cm = cross_validate_tree(&m, &labels, 2, &TreeConfig::default(), 3);
        assert_eq!(cm.total(), 60);
        assert!((cm.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn indexed_tree_cv_equals_the_generic_path() {
        use crate::tree::DecisionTree;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        // Sparse, few distinct values, three noisy classes.
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                (0..6)
                    .map(|f| {
                        if rng.gen_range(0..3) == 0 {
                            f64::from(rng.gen_range(1..4)) + if f == i % 3 { 2.0 } else { 0.0 }
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..150).map(|i| i % 3).collect();
        let m = DenseMatrix::from_rows(&rows);
        let config = TreeConfig::default();
        let index = ColumnIndex::build(&m);
        for folds in [1, 4, 10] {
            let generic = cross_validate(&m, &labels, 3, folds, 6, |tx, ty, sx| {
                DecisionTree::fit(&tx, ty, 3, &config).predict(sx)
            });
            let (indexed, stats) =
                cross_validate_tree_indexed(&index, &labels, 3, &config, folds, 6);
            assert_eq!(indexed, generic, "{folds} folds");
            // A single fold has nothing to train on.
            let fits = if folds == 1 { 0 } else { folds as u64 };
            assert_eq!(stats.cv_tree_fits, fits);
        }
    }

    #[test]
    fn cv_near_chance_on_random_labels() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen::<f64>()]).collect();
        let labels: Vec<usize> = (0..200).map(|_| rng.gen_range(0..2)).collect();
        let m = DenseMatrix::from_rows(&rows);
        let cm = cross_validate_tree(&m, &labels, 2, &TreeConfig::default(), 5);
        assert!(cm.accuracy() < 0.7, "accuracy {}", cm.accuracy());
    }

    #[test]
    #[should_panic(expected = "fewer samples")]
    fn rejects_more_folds_than_samples() {
        let _ = stratified_folds(&[0, 1], 5, 0);
    }
}
