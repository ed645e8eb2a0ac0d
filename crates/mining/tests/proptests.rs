//! Property tests: miner equivalences and validation invariants.

use ada_mining::kmeans::{init, KMeans, KMeansInit};
use ada_mining::patterns::{apriori, fpgrowth, rules, Transaction};
use ada_mining::validate::stratified_folds;
use ada_vsm::DenseMatrix;
use proptest::prelude::*;

fn transactions() -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(
        prop::collection::btree_set(0u32..12, 0..6).prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fpgrowth_equals_apriori(ts in transactions(), min_support in 1usize..6) {
        let a = apriori::mine(&ts, min_support);
        let f = fpgrowth::mine(&ts, min_support);
        prop_assert_eq!(a, f);
    }

    #[test]
    fn downward_closure(ts in transactions(), min_support in 1usize..5) {
        use std::collections::HashMap;
        let frequent = fpgrowth::mine(&ts, min_support);
        let support: HashMap<&Vec<u32>, usize> =
            frequent.iter().map(|f| (&f.items, f.support)).collect();
        for f in &frequent {
            prop_assert!(f.support >= min_support);
            if f.items.len() >= 2 {
                for skip in 0..f.items.len() {
                    let sub: Vec<u32> = f.items.iter().enumerate()
                        .filter(|&(i, _)| i != skip).map(|(_, &v)| v).collect();
                    let s = support.get(&sub);
                    prop_assert!(s.is_some(), "missing subset {:?}", sub);
                    prop_assert!(*s.unwrap() >= f.support);
                }
            }
        }
    }

    #[test]
    fn rules_respect_confidence_and_counts(
        ts in transactions(),
        conf in 0.0f64..1.0,
    ) {
        let frequent = fpgrowth::mine(&ts, 1);
        let generated = rules::generate(&frequent, ts.len(), conf);
        for r in &generated {
            prop_assert!(r.confidence() >= conf - 1e-12);
            // Recount the rule directly against the transactions.
            let contains = |t: &Transaction, items: &[u32]|
                items.iter().all(|i| t.binary_search(i).is_ok());
            let count_ab = ts.iter()
                .filter(|t| contains(t, &r.antecedent) && contains(t, &r.consequent))
                .count();
            prop_assert_eq!(count_ab, r.counts.count_ab);
        }
    }

    #[test]
    fn pruned_parallel_kernel_equals_plain_serial_lloyd(
        rows in prop::collection::vec(
            prop::collection::vec((-50i32..50).prop_map(|v| f64::from(v) / 5.0), 1..5),
            4..60,
        ),
        k in 1usize..6,
        seed in 0u64..100,
        threads in 1usize..6,
    ) {
        prop_assume!(k <= rows.len());
        let dim = rows[0].len();
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|mut r| { r.resize(dim, 0.0); r }).collect();
        let m = DenseMatrix::from_rows(&rows);
        let start = init::initial_centroids(&m, k, KMeansInit::Forgy, seed);
        // Plain serial Lloyd: no pruning, one thread.
        let plain = KMeans::new(k)
            .prune(false)
            .fit_rows_from(&m, start.clone())
            .0;
        // Bound-pruned parallel kernel.
        let fast = KMeans::new(k)
            .prune(true)
            .threads(threads)
            .fit_rows_from(&m, start.clone())
            .0;
        // Assignments, centroids, SSE, and iteration count must be
        // bit-identical (KMeansResult's PartialEq compares exactly).
        // The seed reference loop is NOT part of this property: on
        // symmetric grid data a real-arithmetic distance tie can round
        // differently under the reference's `(x − c)²` form than under
        // the kernel's dot-product form, legitimately changing the
        // trajectory. Kernel-vs-reference faithfulness on continuous
        // data is covered by `lloyd::tests::kernel_matches_reference_trajectory`.
        prop_assert_eq!(&plain, &fast);
        // Every run still lands on a Lloyd fixed point of equal quality
        // class: a converged run's SSE is a local optimum, so recheck
        // the invariant that SSE never exceeds the 1-cluster bound.
        prop_assert!(plain.sse.is_finite());
    }

    #[test]
    fn kmeans_sse_never_worse_than_one_cluster(
        rows in prop::collection::vec(
            prop::collection::vec((-50i32..50).prop_map(|v| f64::from(v) / 5.0), 2),
            3..40,
        ),
        k in 2usize..4,
    ) {
        prop_assume!(k <= rows.len());
        let m = DenseMatrix::from_rows(&rows);
        let multi = KMeans::new(k).seed(1).fit(&m);
        let single = KMeans::new(1).seed(1).fit(&m);
        prop_assert!(multi.sse <= single.sse + 1e-9);
    }

    #[test]
    fn folds_partition_indices(
        labels in prop::collection::vec(0usize..4, 5..60),
        folds in 2usize..5,
        seed in 0u64..50,
    ) {
        prop_assume!(labels.len() >= folds);
        let partition = stratified_folds(&labels, folds, seed);
        prop_assert_eq!(partition.len(), folds);
        let mut all: Vec<usize> = partition.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..labels.len()).collect();
        prop_assert_eq!(all, expected);
        // Stratification: fold class counts differ by at most... the
        // round-robin guarantees within-class fold sizes differ by <= 1.
        let num_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        for class in 0..num_classes {
            let per_fold: Vec<usize> = partition.iter()
                .map(|f| f.iter().filter(|&&i| labels[i] == class).count())
                .collect();
            let (lo, hi) = (per_fold.iter().min().unwrap(), per_fold.iter().max().unwrap());
            prop_assert!(hi - lo <= 2, "class {} spread {:?}", class, per_fold);
        }
    }

    #[test]
    fn tree_is_perfect_on_training_data_without_limits(
        rows in prop::collection::vec(
            prop::collection::vec((-100i32..100).prop_map(f64::from), 2),
            2..40,
        ),
        labels in prop::collection::vec(0usize..3, 2..40),
    ) {
        use ada_mining::tree::{DecisionTree, TreeConfig};
        let n = rows.len().min(labels.len());
        let rows = &rows[..n];
        let labels = &labels[..n];
        // Deduplicate identical feature rows with conflicting labels:
        // keep the first occurrence.
        let mut seen: Vec<&Vec<f64>> = Vec::new();
        let mut keep_rows = Vec::new();
        let mut keep_labels = Vec::new();
        for (r, &l) in rows.iter().zip(labels) {
            if !seen.contains(&r) {
                seen.push(r);
                keep_rows.push(r.clone());
                keep_labels.push(l);
            }
        }
        let m = DenseMatrix::from_rows(&keep_rows);
        let cfg = TreeConfig {
            max_depth: usize::MAX,
            min_samples_leaf: 1,
            min_gain: 0.0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &keep_labels, 3, &cfg);
        prop_assert_eq!(tree.predict(&m), keep_labels);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sequence_mining_respects_support(
        timelines in prop::collection::vec(
            prop::collection::vec(
                prop::collection::btree_set(0u32..6, 0..3)
                    .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
                0..5,
            ),
            1..20,
        ),
        min_support in 1usize..4,
    ) {
        use ada_mining::sequences::{contains_sequence, mine};
        let found = mine(&timelines, min_support, 3);
        for f in &found {
            // Recount directly.
            let support = timelines
                .iter()
                .filter(|t| contains_sequence(t, &f.sequence))
                .count();
            prop_assert_eq!(support, f.support);
            prop_assert!(f.support >= min_support);
        }
    }
}

/// A seeded matrix for the sparse ≡ dense properties: `zero_pct` % of
/// the cells are zero (one in eight of those `-0.0`); the rest sit on a
/// coarse signed grid, so distance ties and duplicate rows are common —
/// on odd seeds with a little mantissa noise on top, so sums round.
/// One row and one column are cleared outright and a few rows are
/// copies of others. `all_same` makes every row the first one (the
/// k-means++ "all points coincide" fallback).
fn sparse_fixture(n: usize, dim: usize, zero_pct: u64, all_same: bool, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    if next() % 100 < zero_pct {
                        if next() % 8 == 0 {
                            -0.0
                        } else {
                            0.0
                        }
                    } else {
                        let noise = (seed % 2 * (next() % 1_000)) as f64 * 1e-7;
                        let magnitude = (1 + next() % 9) as f64 / 4.0 + noise;
                        if next() % 3 == 0 {
                            -magnitude
                        } else {
                            magnitude
                        }
                    }
                })
                .collect()
        })
        .collect();
    let cleared_col = next() as usize % dim;
    let cleared_row = next() as usize % n;
    for row in &mut rows {
        row[cleared_col] = 0.0;
    }
    rows[cleared_row].fill(0.0);
    for _ in 0..n / 5 {
        let (from, to) = (next() as usize % n, next() as usize % n);
        rows[to] = rows[from].clone();
    }
    if all_same {
        let first = rows[0].clone();
        rows.fill(first);
    }
    DenseMatrix::from_rows(&rows)
}

/// Shapes for the sparse ≡ dense properties: mostly small matrices,
/// one in six large enough to span several 256-row kernel chunks (so
/// row threads really split the work); widths on both sides of the
/// 8-lane boundary; K anywhere from 1 to n (to 48 on the large ones —
/// K = n = 600 would spend the suite's time in one case).
fn sparse_case() -> impl Strategy<Value = (DenseMatrix, usize)> {
    (
        prop_oneof![5 => 1usize..70, 1 => 257usize..600],
        prop_oneof![1usize..26, (1usize..4).prop_map(|m| m * 8)],
        prop_oneof![4 => 0u64..101, 1 => 93u64..94, 1 => 0u64..1, 1 => 100u64..101],
        0u64..16,
        any::<u64>(),
        prop_oneof![2 => 0.0f64..1.0, 1 => 0.0f64..0.1, 1 => 1.0f64..1.01],
    )
        .prop_map(|(n, dim, zero_pct, same, seed, k_share)| {
            let m = sparse_fixture(n, dim, zero_pct, same == 0, seed);
            let k = 1 + (k_share * n.min(48) as f64) as usize;
            (m, k.min(n))
        })
}

const INITS: [KMeansInit; 3] = [
    KMeansInit::Forgy,
    KMeansInit::RandomPartition,
    KMeansInit::KMeansPlusPlus,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_rows_fit_equals_dense_rows_fit(
        case in sparse_case(),
        seed in 0u64..1000,
        init_idx in 0usize..3,
    ) {
        let (m, k) = case;
        let rows = m.sparse_rows();
        let warm = init::initial_centroids(&m, k, KMeansInit::Forgy, seed ^ 1);
        // Lloyd under every prune × threads combination.
        for prune in [true, false] {
            for threads in [1usize, 2, 7] {
                let config = KMeans::new(k)
                    .seed(seed)
                    .init(INITS[init_idx])
                    .prune(prune)
                    .threads(threads);
                // Whole results and whole counters, then the bits `==`
                // would let through (±0.0 centroid cells).
                let (dense, sparse) = (config.fit_with_stats(&m), config.fit_rows(&rows));
                prop_assert_eq!(&dense, &sparse, "cold prune {} threads {}", prune, threads);
                prop_assert_eq!(dense.0.fingerprint(), sparse.0.fingerprint());
                let (dense, sparse) = (
                    config.fit_rows_from(&m, warm.clone()),
                    config.fit_rows_from(&rows, warm.clone()),
                );
                prop_assert_eq!(&dense, &sparse, "warm prune {} threads {}", prune, threads);
                prop_assert_eq!(dense.0.fingerprint(), sparse.0.fingerprint());
            }
        }
    }

    #[test]
    fn sparse_rows_seed_equals_dense_rows_seed(case in sparse_case(), seed in 0u64..1000) {
        let (m, k) = case;
        let rows = m.sparse_rows();
        for method in INITS {
            let dense = init::initial_centroids(&m, k, method, seed);
            let sparse = init::initial_centroids(&rows, k, method, seed);
            let bits = |c: &DenseMatrix| c.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&dense), bits(&sparse), "{:?}", method);
        }
    }
}
