//! Algorithm optimization: the K sweep behind Table I.
//!
//! "Given a dataset and a clustering algorithm, our technique performs
//! several runs of the mining activity with varying parameters (e.g.
//! different numbers of clusters) … The SSE index measures the cluster
//! cohesion … However, as the number of classes increases, the SSE
//! decreases … A classifier was then built to assess the robustness of
//! clustering results by means of different quality metrics (such as
//! accuracy, precision, recall), using the same input features of the
//! clustering algorithm, and the class label assigned by the clustering
//! algorithm itself as target."
//!
//! [`Optimizer::run`] sweeps the candidate K values (the stand-in for
//! the paper's "online cloud-based services for automatic
//! configuration"), reports the Table I columns, and auto-selects the K
//! with the best overall classification results (K = 8 in the paper).
//!
//! # Parallelism
//!
//! The sweep has two nested parallelism levels, both governed by the
//! single [`Optimizer::thread_budget`] knob:
//!
//! * **K level** — with [`Optimizer::parallel`] set, each candidate K
//!   is evaluated on its own worker thread; each worker drives its
//!   K-means runs with an equal share (`budget / #K`, at least 1) of
//!   the thread budget.
//! * **Row level** — each K-means run hands its share to the Lloyd
//!   kernel's chunked assign/update passes as row-level worker threads.
//!
//! With [`Optimizer::parallel`] unset the sweep falls back to a serial
//! loop over K, and every evaluation gets the *whole* budget at the row
//! level instead.
//!
//! # The shared tree index
//!
//! Every candidate K cross-validates a decision tree on the *same*
//! matrix — only the labels (the cluster assignments) change. With the
//! paper's tree classifier the sweep therefore builds the matrix's
//! [`ColumnIndex`] once, before any worker starts, and all
//! `ks.len() × folds` fits grow over it by reference. The index is
//! exact (see `ada_mining::tree`), so it changes no digit of the report.
//!
//! Determinism: the kernel reduces per-chunk partials in a fixed chunk
//! order, so the report is byte-identical for every `thread_budget`
//! value and for the serial fallback — the knob (like `parallel`
//! itself) trades latency only, never results.

use ada_metrics::cluster;
use ada_mining::bayes::GaussianNb;
use ada_mining::kmeans::{KMeans, KMeansBackend};
use ada_mining::knn::KnnClassifier;
use ada_mining::tree::{ColumnIndex, TreeConfig};
use ada_mining::validate;
use ada_vsm::DenseMatrix;
use serde::{Deserialize, Serialize};

use crate::control::{PipelineError, PipelineStage, RunControl};

/// Which classifier scores clustering robustness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RobustnessClassifier {
    /// CART decision tree (the paper's choice).
    DecisionTree(TreeConfig),
    /// Gaussian naive Bayes (ablation alternative).
    NaiveBayes,
    /// k-nearest neighbours with the given k (non-parametric upper
    /// bound on label recoverability).
    Knn(usize),
    /// Random forest (variance-reduced tree ensemble).
    RandomForest(ada_mining::forest::ForestConfig),
}

/// The score card of one K value — one row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KEvaluation {
    /// The number of clusters.
    pub k: usize,
    /// Sum of squared errors of the cluster set.
    pub sse: f64,
    /// Cross-validated accuracy (%).
    pub accuracy: f64,
    /// Cross-validated macro-averaged precision (%).
    pub avg_precision: f64,
    /// Cross-validated macro-averaged recall (%).
    pub avg_recall: f64,
    /// Overall similarity of the cluster set (extra column; the paper's
    /// partial-mining interestingness metric).
    pub overall_similarity: f64,
}

impl KEvaluation {
    /// The combined classification score driving auto-selection
    /// (unweighted mean of the three Table I metrics).
    pub fn classification_score(&self) -> f64 {
        (self.accuracy + self.avg_precision + self.avg_recall) / 3.0
    }
}

/// The optimizer's full report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerReport {
    /// One evaluation per probed K, in the probed order.
    pub evaluations: Vec<KEvaluation>,
    /// The automatically selected K.
    pub selected_k: usize,
    /// Start of the SSE-viable window: the smallest probed K whose
    /// forward per-unit SSE improvement falls below the elbow tolerance
    /// (the paper's "good values for K are in the range from 8 to 20").
    pub sse_window_start: usize,
}

impl OptimizerReport {
    /// The evaluation of the selected K.
    pub fn selected(&self) -> &KEvaluation {
        self.evaluations
            .iter()
            .find(|e| e.k == self.selected_k)
            .expect("selected K comes from evaluations")
    }

    /// Formats the report as a Table-I-like text table.
    pub fn format_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{:>4} {:>12} {:>10} {:>14} {:>11} {:>10}",
            "K", "SSE", "Accuracy", "AVG Precision", "AVG Recall", "OverallSim"
        )
        .expect("writing to String cannot fail");
        for e in &self.evaluations {
            let marker = if e.k == self.selected_k {
                " <= selected"
            } else {
                ""
            };
            writeln!(
                out,
                "{:>4} {:>12.2} {:>10.2} {:>14.2} {:>11.2} {:>10.4}{}",
                e.k, e.sse, e.accuracy, e.avg_precision, e.avg_recall, e.overall_similarity, marker
            )
            .expect("writing to String cannot fail");
        }
        out
    }
}

/// The K-sweep optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    /// K values to evaluate (paper Table I: 6,7,8,9,10,12,15,20).
    pub ks: Vec<usize>,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Seed for clustering and fold assignment.
    pub seed: u64,
    /// K-means backend.
    pub backend: KMeansBackend,
    /// Robustness classifier.
    pub classifier: RobustnessClassifier,
    /// SSE elbow tolerance: the smallest K whose forward per-unit
    /// relative SSE improvement drops below this value opens the
    /// SSE-viable window (paper: improvements fall from ~9% to ~2.7%
    /// right at K = 8, giving the window "8 to 20").
    pub sse_elbow_tol: f64,
    /// Evaluate K values on worker threads (the cloud-services stand-in).
    pub parallel: bool,
    /// Total worker-thread budget shared by the two parallelism levels
    /// (0 = one per available core). A parallel sweep gives each
    /// K-level worker `budget / ks.len()` (at least 1) row-level kernel
    /// threads; a serial sweep gives every evaluation the whole budget.
    /// Every value yields a byte-identical report — purely a latency
    /// knob (see the module docs).
    pub thread_budget: usize,
}

impl Optimizer {
    /// The paper's Table I configuration.
    pub fn paper() -> Self {
        Self {
            ks: vec![6, 7, 8, 9, 10, 12, 15, 20],
            folds: 10,
            seed: 0,
            backend: KMeansBackend::Lloyd,
            classifier: RobustnessClassifier::DecisionTree(TreeConfig {
                max_depth: 8,
                min_samples_leaf: 5,
                ..TreeConfig::default()
            }),
            sse_elbow_tol: 0.03,
            parallel: true,
            thread_budget: 0,
        }
    }

    /// A fast configuration for tests and examples.
    pub fn quick(ks: Vec<usize>) -> Self {
        Self {
            ks,
            folds: 5,
            parallel: false,
            ..Self::paper()
        }
    }

    /// The thread budget with 0 resolved to the available core count.
    fn resolved_budget(&self) -> usize {
        if self.thread_budget != 0 {
            self.thread_budget
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// The matrix's tree index when the robustness classifier is the
    /// decision tree (the other classifiers have no use for it), with
    /// the build reported to `control`'s observer.
    fn tree_index(&self, matrix: &DenseMatrix, control: &RunControl) -> Option<ColumnIndex> {
        matches!(self.classifier, RobustnessClassifier::DecisionTree(_)).then(|| {
            control.counters(PipelineStage::Optimize, &[("cv_index_builds", 1)]);
            ColumnIndex::build(matrix)
        })
    }

    /// Evaluates one K value driving the Lloyd kernel with `row_threads`
    /// worker threads (identical output for every value); `index` is
    /// [`Self::tree_index`] of `matrix`. Kernel and tree counters are
    /// forwarded to `control`'s observer, if any — instrumentation only,
    /// never part of the result.
    fn evaluate_k_with_threads(
        &self,
        matrix: &DenseMatrix,
        index: Option<&ColumnIndex>,
        k: usize,
        row_threads: usize,
        control: &RunControl,
    ) -> KEvaluation {
        // The sweep's matrix is fixed for its whole run: every K scans
        // the one cached non-zero view.
        let (result, stats) = KMeans::new(k)
            .seed(self.seed)
            .backend(self.backend)
            .threads(row_threads)
            .fit_rows(&matrix.sparse_rows());
        control.counters(PipelineStage::Optimize, &stats.as_pairs());
        let overall_similarity = cluster::overall_similarity(matrix, &result.assignments, k);
        let cm = match &self.classifier {
            RobustnessClassifier::DecisionTree(config) => {
                let (cm, tree_stats) = validate::cross_validate_tree_indexed(
                    index.expect("tree_index is Some for the tree classifier"),
                    &result.assignments,
                    k,
                    config,
                    self.folds,
                    self.seed,
                );
                control.counters(PipelineStage::Optimize, &tree_stats.as_pairs());
                cm
            }
            RobustnessClassifier::NaiveBayes => validate::cross_validate(
                matrix,
                &result.assignments,
                k,
                self.folds,
                self.seed,
                |tx, ty, sx| GaussianNb::fit(tx, ty, k).predict(sx),
            ),
            RobustnessClassifier::Knn(neighbours) => validate::cross_validate(
                matrix,
                &result.assignments,
                k,
                self.folds,
                self.seed,
                |tx, ty, sx| KnnClassifier::fit(tx, ty, k, *neighbours).predict(sx),
            ),
            RobustnessClassifier::RandomForest(config) => validate::cross_validate(
                matrix,
                &result.assignments,
                k,
                self.folds,
                self.seed,
                |tx, ty, sx| ada_mining::forest::RandomForest::fit(tx, ty, k, config).predict(sx),
            ),
        };
        KEvaluation {
            k,
            sse: result.sse,
            accuracy: cm.accuracy() * 100.0,
            avg_precision: cm.macro_precision() * 100.0,
            avg_recall: cm.macro_recall() * 100.0,
            overall_similarity,
        }
    }

    /// Runs the sweep and auto-selects K.
    ///
    /// # Panics
    /// Panics when `ks` is empty or any K exceeds the row count.
    pub fn run(&self, matrix: &DenseMatrix) -> OptimizerReport {
        self.run_with_control(matrix, &RunControl::new())
            .expect("a default RunControl never cancels or expires")
    }

    /// Runs the sweep under `control`: serial sweeps poll the cancel
    /// flag and deadline before each K evaluation; parallel sweeps poll
    /// before spawning and each worker re-checks the cancel flag before
    /// starting its evaluation (one in-flight evaluation per worker is
    /// the cancellation granularity).
    ///
    /// # Panics
    /// Panics when `ks` is empty or any K exceeds the row count.
    pub fn run_with_control(
        &self,
        matrix: &DenseMatrix,
        control: &RunControl,
    ) -> Result<OptimizerReport, PipelineError> {
        assert!(!self.ks.is_empty(), "no K values to evaluate");
        control.checkpoint(PipelineStage::Optimize)?;
        let index = self.tree_index(matrix, control);
        let index = index.as_ref();
        let evaluations: Vec<KEvaluation> = if self.parallel && self.ks.len() > 1 {
            // Split the budget across the K-level workers; each worker
            // drives the row-parallel kernel with its share.
            let row_threads = (self.resolved_budget() / self.ks.len()).max(1);
            let mut slots: Vec<Option<KEvaluation>> = vec![None; self.ks.len()];
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .ks
                    .iter()
                    .map(|&k| {
                        scope.spawn(move |_| {
                            if control.is_cancelled() {
                                return None;
                            }
                            // Sweep-point sub-spans may start on any
                            // worker thread; names are unique per K so
                            // observers pair start/end by name.
                            Some(control.span(
                                PipelineStage::Optimize,
                                &format!("sweep:k={k}"),
                                || {
                                    self.evaluate_k_with_threads(
                                        matrix,
                                        index,
                                        k,
                                        row_threads,
                                        control,
                                    )
                                },
                            ))
                        })
                    })
                    .collect();
                for (slot, handle) in slots.iter_mut().zip(handles) {
                    *slot = handle.join().expect("worker panicked");
                }
            })
            .expect("scope panicked");
            control.checkpoint(PipelineStage::Optimize)?;
            slots
                .into_iter()
                .map(|s| {
                    // A worker only skips its evaluation after observing
                    // the (one-way) cancel flag, which the checkpoint
                    // above already turned into an error.
                    s.ok_or(PipelineError::Cancelled {
                        stage: PipelineStage::Optimize,
                    })
                })
                .collect::<Result<_, _>>()?
        } else {
            self.ks
                .iter()
                .map(|&k| {
                    control.checkpoint(PipelineStage::Optimize)?;
                    Ok(
                        control.span(PipelineStage::Optimize, &format!("sweep:k={k}"), || {
                            self.evaluate_k_with_threads(
                                matrix,
                                index,
                                k,
                                self.resolved_budget(),
                                control,
                            )
                        }),
                    )
                })
                .collect::<Result<_, _>>()?
        };

        // Two-stage selection mirroring the paper's Section IV-B logic:
        //
        // 1. SSE viability: "Based on the SSE index, good values for K
        //    are in the range from 8 to 20" — below the elbow, adding a
        //    cluster still buys a large SSE drop, so those K are
        //    under-clustered. The window starts at the smallest K whose
        //    forward per-unit relative improvement < `sse_elbow_tol`.
        // 2. "ADA-HEALTH automatically selects K … that corresponds to
        //    the best overall classification results" *within* that
        //    window. Ties break to smaller K (fewer, more significant
        //    clusters — the paper's stated preference in medicine).
        let mut sorted: Vec<&KEvaluation> = evaluations.iter().collect();
        sorted.sort_by_key(|e| e.k);
        let mut sse_window_start = sorted[0].k;
        for pair in sorted.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let per_unit = (a.sse - b.sse) / a.sse / (b.k - a.k) as f64;
            if per_unit < self.sse_elbow_tol {
                sse_window_start = a.k;
                break;
            }
            sse_window_start = b.k; // window collapses to the largest K
        }
        let viable: Vec<&KEvaluation> = sorted
            .iter()
            .copied()
            .filter(|e| e.k >= sse_window_start)
            .collect();
        let selected_k = viable
            .iter()
            .max_by(|a, b| {
                a.classification_score()
                    .partial_cmp(&b.classification_score())
                    .expect("finite scores")
                    .then_with(|| b.k.cmp(&a.k))
            })
            .expect("window always contains the largest K")
            .k;

        Ok(OptimizerReport {
            evaluations,
            selected_k,
            sse_window_start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};
    use ada_vsm::VsmBuilder;

    fn small_matrix() -> DenseMatrix {
        let log = generate(&SyntheticConfig::small(), 17);
        VsmBuilder::new().build(&log).matrix
    }

    #[test]
    fn sse_decreases_with_k() {
        let m = small_matrix();
        let opt = Optimizer::quick(vec![4, 8, 16]);
        let report = opt.run(&m);
        let sses: Vec<f64> = report.evaluations.iter().map(|e| e.sse).collect();
        assert!(
            sses[0] > sses[1] && sses[1] > sses[2],
            "SSE must decrease with K: {sses:?}"
        );
    }

    #[test]
    fn metrics_are_percentages() {
        let m = small_matrix();
        let report = Optimizer::quick(vec![4, 6]).run(&m);
        for e in &report.evaluations {
            assert!((0.0..=100.0).contains(&e.accuracy), "{e:?}");
            assert!((0.0..=100.0).contains(&e.avg_precision), "{e:?}");
            assert!((0.0..=100.0).contains(&e.avg_recall), "{e:?}");
            // Separable synthetic clusters: the tree should re-predict
            // labels far above chance.
            assert!(e.accuracy > 50.0, "{e:?}");
        }
    }

    #[test]
    fn selected_k_has_best_classification_score_in_window() {
        let m = small_matrix();
        let report = Optimizer::quick(vec![4, 8, 12, 20]).run(&m);
        let best = report
            .evaluations
            .iter()
            .filter(|e| e.k >= report.sse_window_start)
            .map(KEvaluation::classification_score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (report.selected().classification_score() - best).abs() < 1e-12,
            "selection must maximize the combined score within the SSE window"
        );
        assert!(report.selected_k >= report.sse_window_start);
    }

    #[test]
    fn sse_window_reproduces_paper_logic() {
        // Feed the optimizer's selection logic the paper's own Table I
        // SSE curve: the window must open at K = 8 ("good values for K
        // are in the range from 8 to 20").
        let paper = [
            (6, 3098.32),
            (7, 2805.00),
            (8, 2550.00),
            (9, 2482.36),
            (10, 2205.00),
            (12, 2101.60),
            (15, 1917.20),
            (20, 1534.00),
        ];
        let tol = Optimizer::paper().sse_elbow_tol;
        let mut window_start = paper[0].0;
        for pair in paper.windows(2) {
            let ((ka, sa), (kb, sb)) = (pair[0], pair[1]);
            let per_unit = (sa - sb) / sa / (kb - ka) as f64;
            if per_unit < tol {
                window_start = ka;
                break;
            }
            window_start = kb;
        }
        assert_eq!(window_start, 8);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let m = small_matrix();
        let mut opt = Optimizer::quick(vec![3, 5, 7]);
        let serial = opt.run(&m);
        opt.parallel = true;
        let parallel = opt.run(&m);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn quick_report_is_pinned() {
        // Printed by the per-node-sort tree this sweep ran on before the
        // shared column index; every digit must survive any change to
        // how trees are grown.
        let eval = |k, sse, accuracy, avg_precision, avg_recall, overall_similarity| KEvaluation {
            k,
            sse,
            accuracy,
            avg_precision,
            avg_recall,
            overall_similarity,
        };
        let golden = OptimizerReport {
            evaluations: vec![
                eval(
                    3,
                    8947.404010813192,
                    88.75,
                    89.26725220386545,
                    87.7566295192909,
                    0.4014391520944106,
                ),
                eval(
                    5,
                    7604.466314385323,
                    80.75,
                    82.71416325417601,
                    82.32956102883453,
                    0.4596142639647478,
                ),
                eval(
                    7,
                    7052.126738542458,
                    77.0,
                    77.6517819549065,
                    73.55309169973813,
                    0.5051905602686688,
                ),
            ],
            selected_k: 7,
            sse_window_start: 7,
        };
        assert_eq!(Optimizer::quick(vec![3, 5, 7]).run(&small_matrix()), golden);
    }

    #[test]
    fn sweep_builds_one_tree_index_and_counts_repeat() {
        use crate::control::PipelineObserver;
        use std::collections::BTreeMap;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Totals(Mutex<BTreeMap<&'static str, u64>>);
        impl PipelineObserver for Totals {
            fn on_counters(&self, _: &str, _: PipelineStage, counters: &[(&'static str, u64)]) {
                let mut totals = self.0.lock().unwrap();
                for &(name, value) in counters {
                    *totals.entry(name).or_default() += value;
                }
            }
        }
        let m = small_matrix();
        let tree_totals = |opt: &Optimizer| {
            let totals = Arc::new(Totals::default());
            let control =
                RunControl::new().with_observer(totals.clone() as Arc<dyn PipelineObserver>);
            opt.run_with_control(&m, &control).unwrap();
            let totals = totals.0.lock().unwrap();
            [
                "cv_index_builds",
                "cv_tree_fits",
                "cv_nodes",
                "cv_entries_scanned",
            ]
            .map(|name| totals.get(name).copied().unwrap_or(0))
        };
        let mut opt = Optimizer::quick(vec![3, 5, 7]);
        let serial = tree_totals(&opt);
        let [builds, fits, nodes, scanned] = serial;
        assert_eq!(builds, 1, "one index for the whole sweep");
        assert_eq!(fits, 3 * 5, "ks × folds trees");
        assert!(nodes > fits && scanned > 0, "{serial:?}");
        opt.parallel = true;
        assert_eq!(
            tree_totals(&opt),
            serial,
            "counts are exact, not timing-dependent"
        );

        opt.classifier = RobustnessClassifier::NaiveBayes;
        assert_eq!(tree_totals(&opt), [0; 4], "no index without the tree");
    }

    #[test]
    fn thread_budget_values_are_byte_identical() {
        let m = small_matrix();
        let base = Optimizer::quick(vec![3, 5]);
        let serial = base.run(&m);
        for budget in [1usize, 2, 5, 0] {
            let mut opt = base.clone();
            opt.parallel = true;
            opt.thread_budget = budget;
            assert_eq!(serial, opt.run(&m), "budget = {budget}");
        }
    }

    #[test]
    fn knn_classifier_recovers_labels_best() {
        // k-NN directly reuses the clustering geometry, so its accuracy
        // should match or beat the tree's on the same partition.
        let m = small_matrix();
        let mut knn_opt = Optimizer::quick(vec![6]);
        knn_opt.classifier = RobustnessClassifier::Knn(5);
        let knn = knn_opt.run(&m);
        let tree = Optimizer::quick(vec![6]).run(&m);
        assert!(
            knn.evaluations[0].accuracy >= tree.evaluations[0].accuracy - 5.0,
            "knn {} vs tree {}",
            knn.evaluations[0].accuracy,
            tree.evaluations[0].accuracy
        );
    }

    #[test]
    fn random_forest_classifier_works() {
        let m = small_matrix();
        let mut opt = Optimizer::quick(vec![4]);
        opt.classifier = RobustnessClassifier::RandomForest(ada_mining::forest::ForestConfig {
            num_trees: 10,
            ..Default::default()
        });
        let report = opt.run(&m);
        assert!(report.evaluations[0].accuracy > 50.0);
    }

    #[test]
    fn naive_bayes_classifier_works() {
        let m = small_matrix();
        let mut opt = Optimizer::quick(vec![4]);
        opt.classifier = RobustnessClassifier::NaiveBayes;
        let report = opt.run(&m);
        assert!(report.evaluations[0].accuracy > 30.0);
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let m = small_matrix();
        let report = Optimizer::quick(vec![4, 6]).run(&m);
        let table = report.format_table();
        assert!(table.contains("SSE"));
        assert!(table.contains("AVG Precision"));
        assert!(table.contains("<= selected"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn filtering_backend_matches_lloyd_metrics() {
        let m = small_matrix();
        let lloyd = Optimizer::quick(vec![6]).run(&m);
        let mut cfg = Optimizer::quick(vec![6]);
        cfg.backend = KMeansBackend::Filtering;
        let filtering = cfg.run(&m);
        // Same trajectory -> same assignments -> identical metrics (SSE
        // within float tolerance).
        let (a, b) = (&lloyd.evaluations[0], &filtering.evaluations[0]);
        assert!((a.sse - b.sse).abs() < 1e-6 * (1.0 + a.sse));
        assert_eq!(a.accuracy, b.accuracy);
    }
}
