//! Cross-crate algorithm agreement on realistic medical data: the
//! efficient implementations must match their reference baselines on the
//! synthetic cohort, not just on unit-test toys.

use ada_health::dataset::synthetic::{generate, SyntheticConfig};
use ada_health::mining::kmeans::{init, KMeans, KMeansBackend, KMeansInit};
use ada_health::mining::patterns::{apriori, fpgrowth, relative_min_support};
use ada_health::vsm::VsmBuilder;

fn cohort() -> ada_health::dataset::ExamLog {
    generate(
        &SyntheticConfig {
            num_patients: 250,
            num_exam_types: 40,
            target_records: 3_800,
            ..SyntheticConfig::small()
        },
        21,
    )
}

#[test]
fn fpgrowth_matches_apriori_on_visit_data() {
    let log = cohort();
    let transactions: Vec<Vec<u32>> = log
        .visits()
        .into_iter()
        .map(|v| v.exams.into_iter().map(|e| e.0).collect())
        .collect();
    for rel in [0.10, 0.05, 0.02] {
        let support = relative_min_support(transactions.len(), rel);
        let a = apriori::mine(&transactions, support);
        let f = fpgrowth::mine(&transactions, support);
        assert_eq!(a, f, "miners disagree at {rel} relative support");
        assert!(!f.is_empty(), "no patterns at {rel} — data too sparse?");
    }
}

#[test]
fn filtering_kmeans_matches_lloyd_on_vsm_data() {
    let log = cohort();
    let pv = VsmBuilder::new().build(&log);
    for k in [4usize, 8, 12] {
        let start = init::initial_centroids(&pv.matrix, k, KMeansInit::KMeansPlusPlus, 5);
        let lloyd = KMeans::new(k).fit_rows_from(&pv.matrix, start.clone()).0;
        let filtering = KMeans::new(k)
            .backend(KMeansBackend::Filtering)
            .fit_rows_from(&pv.matrix, start)
            .0;
        assert_eq!(
            lloyd.assignments, filtering.assignments,
            "backends diverged at k = {k}"
        );
        assert!((lloyd.sse - filtering.sse).abs() < 1e-6 * (1.0 + lloyd.sse));
    }
}

#[test]
fn fast_overall_similarity_matches_pairwise_on_vsm_data() {
    use ada_health::metrics::cluster;
    let log = cohort();
    let pv = VsmBuilder::new().build(&log);
    // Use a manageable slice: the pairwise reference is O(n²·d).
    let idx: Vec<usize> = (0..120).collect();
    let m = pv.matrix.select_rows(&idx);
    let result = KMeans::new(5).seed(3).fit(&m);
    let fast = cluster::overall_similarity(&m, &result.assignments, 5);
    let slow = cluster::overall_similarity_pairwise(&m, &result.assignments, 5);
    assert!((fast - slow).abs() < 1e-9, "fast {fast} vs pairwise {slow}");
}

#[test]
fn kdtree_nearest_matches_brute_force_on_vsm_data() {
    use ada_health::vsm::KdTree;
    let log = cohort();
    let pv = VsmBuilder::new().top_features(&log, 12).build(&log);
    let tree = KdTree::build(&pv.matrix);
    for q in 0..50 {
        let query = pv.matrix.row(q * 3);
        let (_, d_tree) = tree.nearest(query);
        let d_brute = (0..pv.matrix.num_rows())
            .map(|i| ada_health::vsm::dense::distance_sq(query, pv.matrix.row(i)))
            .fold(f64::INFINITY, f64::min);
        assert!((d_tree - d_brute).abs() < 1e-9);
    }
}
