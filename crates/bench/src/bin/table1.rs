//! Reproduces **Table I** of the paper: the optimizer's K sweep.
//!
//! Protocol (Section IV-B): based on the partial-mining result, "only a
//! subset of the original dataset was used (85% of the original raw
//! data)"; for each K the resulting cluster set is scored by its SSE and
//! by a decision tree re-predicting the cluster labels under 10-fold
//! cross validation; ADA-HEALTH then automatically selects the K with
//! the best overall classification results (K = 8 in the paper).
//!
//! Absolute values cannot match the proprietary cohort; the *shape* is
//! the reproduction target: SSE monotonically decreasing in K,
//! classification metrics peaking at a small K (7–8) and degrading for
//! large K, auto-selection landing on the metric-optimal small K.
//!
//! Run: `cargo run -p ada-bench --release --bin table1`
//!
//! Ablation flags (append after `--`):
//! `bayes` / `knn` / `forest` — swap the robustness classifier.

use ada_bench::paper_log;
use ada_core::optimize::{Optimizer, RobustnessClassifier};
use ada_core::partial::HorizontalPartialMiner;
use ada_vsm::VsmBuilder;

/// Table I of the paper: (K, SSE, accuracy, avg precision, avg recall).
const PAPER_TABLE1: [(usize, f64, f64, f64, f64); 8] = [
    (6, 3098.32, 87.79, 90.82, 77.30),
    (7, 2805.00, 87.93, 86.93, 78.52),
    (8, 2550.00, 90.41, 92.51, 79.72),
    (9, 2482.36, 88.75, 71.03, 57.62),
    (10, 2205.00, 87.49, 70.53, 51.06),
    (12, 2101.60, 85.45, 64.29, 43.80),
    (15, 1917.20, 75.18, 75.98, 55.93),
    (20, 1534.00, 82.11, 52.59, 33.43),
];

/// K the paper's optimizer selected.
const PAPER_SELECTED_K: usize = 8;

fn main() {
    println!("=== Table I reproduction: optimization metrics ===");
    println!("(synthetic paper-scale cohort; shapes, not absolute values)");
    println!();

    let log = paper_log();
    println!(
        "dataset: {} patients, {} exam types, {} records",
        log.num_patients(),
        log.num_exam_types(),
        log.num_records()
    );

    // Step 1: the partial-mining subset (the paper used the 85%-of-rows
    // subset found in Section IV-B).
    let partial = HorizontalPartialMiner::default().run(&log);
    let step = partial.selected_step();
    println!(
        "partial-mining subset: {} of {} exam types ({:.1}% of raw rows) selected at eps = {}%",
        step.included,
        log.num_exam_types(),
        step.row_coverage * 100.0,
        partial.epsilon * 100.0
    );
    println!();

    // Step 2: the K sweep on that subset.
    // Same representation the partial miner clusters in: L2-normalized
    // examination-history vectors (profiles are directions, not volumes).
    let pv = VsmBuilder::new()
        .normalize(true)
        .top_features(&log, step.included)
        .build(&log);
    let mut optimizer = Optimizer::paper();
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "bayes") {
        optimizer.classifier = RobustnessClassifier::NaiveBayes;
        println!("(ablation: naive Bayes robustness classifier)");
    } else if args.iter().any(|a| a == "knn") {
        optimizer.classifier = RobustnessClassifier::Knn(5);
        println!("(ablation: 5-NN robustness classifier)");
    } else if args.iter().any(|a| a == "forest") {
        optimizer.classifier =
            RobustnessClassifier::RandomForest(ada_mining::forest::ForestConfig::default());
        println!("(ablation: random-forest robustness classifier)");
    }
    let report = optimizer.run(&pv.matrix);

    println!("--- paper (Table I) ---");
    println!(
        "{:>4} {:>10} {:>10} {:>14} {:>11}",
        "K", "SSE", "Accuracy", "AVG Precision", "AVG Recall"
    );
    for (k, sse, acc, prec, rec) in PAPER_TABLE1 {
        let marker = if k == PAPER_SELECTED_K {
            " <= selected"
        } else {
            ""
        };
        println!("{k:>4} {sse:>10.2} {acc:>10.2} {prec:>14.2} {rec:>11.2}{marker}");
    }
    println!();
    println!("--- measured ---");
    print!("{}", report.format_table());
    println!();

    // Shape checks.
    let sse: Vec<f64> = report.evaluations.iter().map(|e| e.sse).collect();
    let sse_monotone = sse.windows(2).all(|w| w[1] < w[0]);
    let small_k_best = report.selected_k <= 10;
    let best = report
        .evaluations
        .iter()
        .max_by(|a, b| {
            a.classification_score()
                .partial_cmp(&b.classification_score())
                .expect("finite")
        })
        .expect("non-empty");
    let large_k = report
        .evaluations
        .iter()
        .find(|e| e.k == 20)
        .expect("K = 20 evaluated");

    println!("--- shape checks ---");
    println!("SSE strictly decreasing in K:        {sse_monotone}");
    println!(
        "auto-selected K (paper {PAPER_SELECTED_K}):           {}",
        report.selected_k
    );
    println!("selected K is small (<= 10):         {small_k_best}");
    println!(
        "classification degrades at K = 20:   {} ({:.1} -> {:.1} combined score)",
        large_k.classification_score() < best.classification_score(),
        best.classification_score(),
        large_k.classification_score()
    );
}
