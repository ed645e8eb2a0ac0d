//! Property tests: metric identities and invariants.

use ada_metrics::cluster;
use ada_metrics::interest::RuleCounts;
use ada_metrics::ConfusionMatrix;
use ada_vsm::dense::distance_sq;
use ada_vsm::DenseMatrix;
use proptest::prelude::*;

fn matrix_and_assignments() -> impl Strategy<Value = (DenseMatrix, Vec<usize>, usize)> {
    (2usize..30, 1usize..5)
        .prop_flat_map(|(n, k)| {
            let rows = prop::collection::vec(
                prop::collection::vec((-40i32..40).prop_map(|v| f64::from(v) / 4.0), 4),
                n,
            );
            let assignments = prop::collection::vec(0usize..k, n);
            (rows, assignments, Just(k))
        })
        .prop_map(|(rows, assignments, k)| (DenseMatrix::from_rows(&rows), assignments, k))
}

/// `cluster::silhouette` as it was before it computed each pair's
/// distance once: the oracle the pair-once version must equal to the
/// bit.
fn silhouette_reference(matrix: &DenseMatrix, assignments: &[usize], k: usize) -> f64 {
    let n = matrix.num_rows();
    if n < 2 {
        return 0.0;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }
    if members.iter().filter(|m| !m.is_empty()).count() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for (i, &own) in assignments.iter().enumerate() {
        if members[own].len() <= 1 {
            continue;
        }
        let a = members[own]
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| distance_sq(matrix.row(i), matrix.row(j)).sqrt())
            .sum::<f64>()
            / (members[own].len() - 1) as f64;
        let mut b = f64::INFINITY;
        for (c, cluster) in members.iter().enumerate() {
            if c == own || cluster.is_empty() {
                continue;
            }
            let mean = cluster
                .iter()
                .map(|&j| distance_sq(matrix.row(i), matrix.row(j)).sqrt())
                .sum::<f64>()
                / cluster.len() as f64;
            if mean < b {
                b = mean;
            }
        }
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    total / n as f64
}

/// Mostly-zero rows (all-zero ones among them), exact duplicates, and
/// more clusters than a few rows can fill, so singletons and empty
/// clusters are common.
fn sparse_matrix_and_assignments() -> impl Strategy<Value = (DenseMatrix, Vec<usize>, usize)> {
    (2usize..40, 1usize..7, 1usize..7, 0usize..8)
        .prop_flat_map(|(n, d, k, copies)| {
            let cell =
                (-12i32..12).prop_map(|v| if v.abs() > 5 { 0.0 } else { f64::from(v) / 3.0 });
            (
                prop::collection::vec(prop::collection::vec(cell, d), n),
                prop::collection::vec(0usize..k, n + copies),
                Just((n, k, copies)),
            )
        })
        .prop_map(|(mut rows, assignments, (n, k, copies))| {
            for i in 0..copies {
                rows.push(rows[i * 3 % n].clone());
            }
            (DenseMatrix::from_rows(&rows), assignments, k)
        })
}

#[test]
fn silhouette_equals_the_reference_on_zero_singleton_and_duplicate_rows() {
    let m = DenseMatrix::from_rows(&[
        vec![0.0, 0.0, 0.0],
        vec![1.0, 0.0, -2.0],
        vec![0.0, 0.0, 0.0],
        vec![1.0, 0.0, -2.0],
        vec![0.0, 3.5, 0.0],
        vec![-0.0, 0.25, 1.0],
        vec![1.0, 0.0, -2.0],
    ]);
    // Cluster 2 is a singleton, cluster 3 empty, rows 0/2 and 1/3/6
    // duplicates split across clusters.
    for a in [
        [0, 0, 1, 1, 2, 0, 1],
        [0, 1, 0, 1, 2, 1, 0],
        [1, 1, 1, 1, 2, 0, 0],
    ] {
        let got = cluster::silhouette(&m, &a, 4);
        assert_eq!(
            got.to_bits(),
            silhouette_reference(&m, &a, 4).to_bits(),
            "{a:?}"
        );
    }
    assert_eq!(
        cluster::silhouette(&DenseMatrix::zeros(5, 0), &[0, 1, 0, 1, 1], 2),
        0.0
    );
}

proptest! {
    #[test]
    fn silhouette_equals_the_reference((m, a, k) in sparse_matrix_and_assignments()) {
        let got = cluster::silhouette(&m, &a, k);
        let want = silhouette_reference(&m, &a, k);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    #[test]
    fn overall_similarity_fast_equals_pairwise((m, a, k) in matrix_and_assignments()) {
        let fast = cluster::overall_similarity(&m, &a, k);
        let slow = cluster::overall_similarity_pairwise(&m, &a, k);
        prop_assert!((fast - slow).abs() < 1e-9, "fast {} slow {}", fast, slow);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&fast));
    }

    #[test]
    fn sse_minimized_by_true_centroids((m, a, k) in matrix_and_assignments()) {
        // The per-cluster mean minimizes the squared error: any
        // perturbation of the centroids cannot decrease SSE.
        let centroids = cluster::centroids_of(&m, &a, k);
        let base = cluster::sse(&m, &a, &centroids);
        prop_assert!(base >= -1e-12);
        let mut perturbed = centroids.clone();
        for c in 0..k {
            perturbed.row_mut(c)[0] += 0.75;
        }
        let worse = cluster::sse(&m, &a, &perturbed);
        prop_assert!(worse >= base - 1e-9, "base {} perturbed {}", base, worse);
    }

    #[test]
    fn silhouette_and_db_are_bounded((m, a, k) in matrix_and_assignments()) {
        let s = cluster::silhouette(&m, &a, k);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s), "silhouette {}", s);
        let db = cluster::davies_bouldin(&m, &a, k);
        prop_assert!(db >= -1e-12 && db.is_finite(), "davies-bouldin {}", db);
    }

    #[test]
    fn confusion_matrix_invariants(
        truth in prop::collection::vec(0usize..4, 1..80),
        predicted in prop::collection::vec(0usize..4, 1..80),
    ) {
        let n = truth.len().min(predicted.len());
        let cm = ConfusionMatrix::from_pairs(4, &truth[..n], &predicted[..n]);
        prop_assert_eq!(cm.total(), n);
        prop_assert!((0.0..=1.0).contains(&cm.accuracy()));
        prop_assert!((0.0..=1.0).contains(&cm.macro_precision()));
        prop_assert!((0.0..=1.0).contains(&cm.macro_recall()));
        prop_assert!((0.0..=1.0).contains(&cm.macro_f1()));
        // Per-class precision/recall bounded too.
        for c in 0..4 {
            prop_assert!((0.0..=1.0).contains(&cm.precision(c)));
            prop_assert!((0.0..=1.0).contains(&cm.recall(c)));
        }
    }

    #[test]
    fn confusion_merge_is_additive(
        a_pairs in prop::collection::vec((0usize..3, 0usize..3), 1..40),
        b_pairs in prop::collection::vec((0usize..3, 0usize..3), 1..40),
    ) {
        let (at, ap): (Vec<_>, Vec<_>) = a_pairs.iter().copied().unzip();
        let (bt, bp): (Vec<_>, Vec<_>) = b_pairs.iter().copied().unzip();
        let a = ConfusionMatrix::from_pairs(3, &at, &ap);
        let b = ConfusionMatrix::from_pairs(3, &bt, &bp);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.total(), a.total() + b.total());
        for t in 0..3 {
            for p in 0..3 {
                prop_assert_eq!(merged.count(t, p), a.count(t, p) + b.count(t, p));
            }
        }
    }

    #[test]
    fn rule_measures_are_consistent(
        n in 1usize..1000,
        a in 0usize..1000,
        b in 0usize..1000,
        ab in 0usize..1000,
    ) {
        let a = a.min(n);
        let b = b.min(n);
        let ab = ab.min(a).min(b);
        let r = RuleCounts::new(n, a, b, ab);
        prop_assert!((0.0..=1.0).contains(&r.support()));
        prop_assert!((0.0..=1.0).contains(&r.confidence()));
        prop_assert!((0.0..=1.0).contains(&r.jaccard()));
        prop_assert!((0.0..=1.0).contains(&r.cosine()));
        prop_assert!(r.lift() >= 0.0);
        // Leverage = P(AB) − P(A)P(B): at most 1/4 above independence,
        // can reach −1 for disjoint saturated marginals.
        prop_assert!((-1.0 - 1e-9..=0.25 + 1e-9).contains(&r.leverage()));
        prop_assert!((0.0..=1.0).contains(&r.composite_score()));
        // support <= min(marginals); confidence consistent with lift.
        prop_assert!(r.support() <= r.support_a() + 1e-12);
        prop_assert!(r.support() <= r.support_b() + 1e-12);
        if r.support_b() > 0.0 && a > 0 {
            let lift_from_conf = r.confidence() / r.support_b();
            prop_assert!((r.lift() - lift_from_conf).abs() < 1e-9);
        }
    }
}
