//! Ablation bench: robustness classifiers.
//!
//! The optimizer's inner loop cross-validates a classifier per K; this
//! bench compares the four options (CART tree, random forest, naive
//! Bayes, k-NN) on the fit+predict cost, and times the tree's 10-fold
//! CV the way the Table-I sweep runs it: one K at the sweep's shape,
//! over a column index built once outside the timed loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ada_bench::bench_log;
use ada_mining::bayes::GaussianNb;
use ada_mining::forest::{ForestConfig, RandomForest};
use ada_mining::kmeans::KMeans;
use ada_mining::knn::KnnClassifier;
use ada_mining::tree::{ColumnIndex, DecisionTree, TreeConfig};
use ada_mining::validate;
use ada_vsm::{DenseMatrix, VsmBuilder};

fn training_task() -> (DenseMatrix, Vec<usize>, usize) {
    let log = bench_log();
    let pv = VsmBuilder::new().top_features(&log, 32).build(&log);
    let k = 8;
    let labels = KMeans::new(k).seed(1).fit(&pv.matrix).assignments;
    (pv.matrix, labels, k)
}

/// The tree of `Optimizer::paper()`.
fn paper_tree() -> TreeConfig {
    TreeConfig {
        max_depth: 8,
        min_samples_leaf: 5,
        ..TreeConfig::default()
    }
}

fn bench_fit_predict(c: &mut Criterion) {
    let (matrix, labels, k) = training_task();
    let tree_cfg = paper_tree();
    let forest_cfg = ForestConfig {
        num_trees: 15,
        ..ForestConfig::default()
    };

    let mut group = c.benchmark_group("classifiers");
    group.sample_size(10);
    group.bench_function("tree", |b| {
        b.iter(|| {
            let model = DecisionTree::fit(&matrix, &labels, k, &tree_cfg);
            black_box(model.predict(&matrix))
        })
    });
    group.bench_function("forest-15", |b| {
        b.iter(|| {
            let model = RandomForest::fit(&matrix, &labels, k, &forest_cfg);
            black_box(model.predict(&matrix))
        })
    });
    group.bench_function("naive-bayes", |b| {
        b.iter(|| {
            let model = GaussianNb::fit(&matrix, &labels, k);
            black_box(model.predict(&matrix))
        })
    });
    group.bench_function("knn-5", |b| {
        b.iter(|| {
            let model = KnnClassifier::fit(&matrix, &labels, k, 5);
            black_box(model.predict(&matrix))
        })
    });
    group.finish();
}

/// One sweep point of Table I as the pipeline's optimize stage runs it:
/// the top-40 % features the partial miner selects, K = 8 cluster
/// labels, the paper's tree under 10-fold CV. The sweep shares one index
/// across its 8 K values, so the index build is not part of a sweep
/// point.
fn bench_tree_cv(c: &mut Criterion) {
    let log = bench_log();
    let top = (log.num_exam_types() * 2).div_ceil(5);
    let pv = VsmBuilder::new().top_features(&log, top).build(&log);
    let k = 8;
    let labels = KMeans::new(k).seed(1).fit(&pv.matrix).assignments;
    let tree_cfg = paper_tree();
    let index = ColumnIndex::build(&pv.matrix);

    let mut group = c.benchmark_group("classifiers");
    group.sample_size(10);
    group.bench_function("tree-cv10", |b| {
        b.iter(|| {
            black_box(validate::cross_validate_tree_indexed(
                &index, &labels, k, &tree_cfg, 10, 0,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fit_predict, bench_tree_cv);
criterion_main!(benches);
