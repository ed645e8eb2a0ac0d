//! Property tests: dense-vector algebra laws and kd-tree correctness.

#![allow(clippy::needless_range_loop)] // lockstep index checks

use ada_vsm::dense::{cosine, distance_sq, DenseMatrix};
use ada_vsm::KdTree;
use proptest::prelude::*;

/// A dense vector with small magnitudes and plenty of exact zeros (the
/// VSM regime).
fn dense_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(0.0),
            2 => (-100i32..100).prop_map(|v| f64::from(v) / 4.0),
        ],
        dim,
    )
}

proptest! {
    #[test]
    fn cauchy_schwarz_bounds_cosine(a in dense_vec(16), b in dense_vec(16)) {
        let c = cosine(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn kdtree_nearest_matches_brute_force(
        rows in prop::collection::vec(dense_vec(4), 1..60),
        query in dense_vec(4),
    ) {
        let m = DenseMatrix::from_rows(&rows);
        let tree = KdTree::build_with_leaf_size(&m, 4);
        let (_, d_tree) = tree.nearest(&query);
        let d_brute = (0..m.num_rows())
            .map(|i| distance_sq(&query, m.row(i)))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d_tree - d_brute).abs() < 1e-9, "tree {} brute {}", d_tree, d_brute);
    }

    #[test]
    fn kdtree_aggregates_consistent(
        rows in prop::collection::vec(dense_vec(3), 2..80),
    ) {
        let m = DenseMatrix::from_rows(&rows);
        let tree = KdTree::build_with_leaf_size(&m, 4);
        // Every node: count == len(points_in), sum == Σ points, bbox contains them.
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let points = tree.points_in(id);
            prop_assert_eq!(tree.count(id), points.len());
            let (lo, hi) = tree.bbox(id);
            let mut sum = [0.0; 3];
            for &p in points {
                for d in 0..3 {
                    let v = tree.point(p)[d];
                    prop_assert!(v >= lo[d] - 1e-12 && v <= hi[d] + 1e-12);
                    sum[d] += v;
                }
            }
            for d in 0..3 {
                prop_assert!((sum[d] - tree.sum(id)[d]).abs() < 1e-6);
            }
            if let Some((l, r)) = tree.children(id) {
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn matrix_select_rows_preserves_content(
        rows in prop::collection::vec(dense_vec(5), 1..30),
    ) {
        let m = DenseMatrix::from_rows(&rows);
        let idx: Vec<usize> = (0..m.num_rows()).rev().collect();
        let sel = m.select_rows(&idx);
        for (new_r, &old_r) in idx.iter().enumerate() {
            prop_assert_eq!(sel.row(new_r), m.row(old_r));
        }
    }
}
