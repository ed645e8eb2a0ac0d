//! Property tests: dense-vector algebra laws.

use ada_vsm::dense::{cosine, DenseMatrix};
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
