//! Cross-crate algorithm agreement on realistic medical data: the
//! efficient implementations must match their reference baselines on the
//! synthetic cohort, not just on unit-test toys.

use ada_health::dataset::synthetic::{generate, SyntheticConfig};
use ada_health::mining::kmeans::KMeans;
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
