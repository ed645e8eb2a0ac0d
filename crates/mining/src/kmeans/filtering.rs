//! Kanungo et al.'s *filtering* K-means (IEEE TPAMI 2002), the paper's
//! reference \[3\].
//!
//! Each iteration walks a kd-tree instead of the point list. A node
//! carries its cell's bounding box and aggregate statistics; the walk
//! maintains the set of *candidate* centroids for the cell and prunes a
//! candidate `z` whenever the cell lies entirely closer to the current
//! best candidate `z*` — the corner test: take the cell corner `v`
//! extremal in the direction `z − z*`; if `z` is no closer to `v` than
//! `z*`, no point of the cell can prefer `z`. When one candidate remains
//! the whole subtree is assigned wholesale and its SSE contribution is
//! computed from the node aggregates:
//!
//! ```text
//! Σᵢ‖xᵢ − z‖² = Σᵢ‖xᵢ‖² − 2·z·Σᵢxᵢ + count·‖z‖²
//! ```
//!
//! Centroid updates are shared with the Lloyd backend, so both walk the
//! same trajectory from the same start.

use ada_vsm::dense::{distance_sq, DenseMatrix};
use ada_vsm::kdtree::{KdTree, NodeId};

use super::kernel;
use super::{update_centroids, KMeansResult, RowStore};

/// True when candidate `z` is provably no closer than `z_star` for every
/// point of the cell `[lo, hi]` (Kanungo's corner test).
fn is_farther(z: &[f64], z_star: &[f64], lo: &[f64], hi: &[f64]) -> bool {
    // Extreme corner of the cell in the direction z - z_star.
    let mut dz = 0.0; // ||z - v||²
    let mut ds = 0.0; // ||z_star - v||²
    for d in 0..z.len() {
        let v = if z[d] > z_star[d] { hi[d] } else { lo[d] };
        let a = z[d] - v;
        let b = z_star[d] - v;
        dz += a * a;
        ds += b * b;
    }
    dz >= ds
}

/// One filtering pass: fills `assignments` and returns the SSE under the
/// *current* centroids.
pub(crate) fn assign(tree: &KdTree, centroids: &DenseMatrix, assignments: &mut [usize]) -> f64 {
    let k = centroids.num_rows();
    let all: Vec<usize> = (0..k).collect();
    let mut sse = 0.0;
    filter_node(tree, tree.root(), centroids, &all, assignments, &mut sse);
    sse
}

fn filter_node(
    tree: &KdTree,
    node: NodeId,
    centroids: &DenseMatrix,
    candidates: &[usize],
    assignments: &mut [usize],
    sse: &mut f64,
) {
    let (lo, hi) = tree.bbox(node);
    let dim = tree.dim();

    // z*: candidate closest to the cell midpoint (ties → lowest index,
    // matching Lloyd's tie-break).
    let midpoint: Vec<f64> = (0..dim).map(|d| (lo[d] + hi[d]) / 2.0).collect();
    let mut z_star = candidates[0];
    let mut best_d = distance_sq(&midpoint, centroids.row(z_star));
    for &c in &candidates[1..] {
        let d = distance_sq(&midpoint, centroids.row(c));
        if d < best_d {
            best_d = d;
            z_star = c;
        }
    }

    // Prune candidates whose entire cell prefers z*.
    let survivors: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| c == z_star || !is_farther(centroids.row(c), centroids.row(z_star), lo, hi))
        .collect();

    if survivors.len() == 1 {
        // Wholesale assignment of the subtree to z*.
        let z = centroids.row(z_star);
        for &p in tree.points_in(node) {
            assignments[p] = z_star;
        }
        let sum = tree.sum(node);
        let mut cross = 0.0;
        let mut z_norm_sq = 0.0;
        for d in 0..dim {
            cross += z[d] * sum[d];
            z_norm_sq += z[d] * z[d];
        }
        *sse += tree.sum_sq(node) - 2.0 * cross + tree.count(node) as f64 * z_norm_sq;
        return;
    }

    match tree.children(node) {
        Some((l, r)) => {
            filter_node(tree, l, centroids, &survivors, assignments, sse);
            filter_node(tree, r, centroids, &survivors, assignments, sse);
        }
        None => {
            // Leaf with several surviving candidates: per-point scan,
            // identical to Lloyd over the survivor set.
            for &p in tree.points_in(node) {
                let point = tree.point(p);
                let mut best = survivors[0];
                let mut best_d = distance_sq(point, centroids.row(best));
                for &c in &survivors[1..] {
                    let d = distance_sq(point, centroids.row(c));
                    if d < best_d || (d == best_d && c < best) {
                        best_d = d;
                        best = c;
                    }
                }
                assignments[p] = best;
                *sse += best_d;
            }
        }
    }
}

/// Runs filtering K-means from the given initial centroids.
///
/// The tree walk itself is serial (its pruning is per-cell, not
/// per-row); `threads` drives the kernel's chunked final SSE pass.
/// When the loop settles with zero centroid movement the last in-loop
/// assignment is already the argmin of the final centroids and no
/// extra tree walk runs. The kd-tree indexes dense cells; only the
/// centroid accumulation reads `rows` as stored.
pub(crate) fn run<R: RowStore>(
    rows: &R,
    mut centroids: DenseMatrix,
    max_iters: usize,
    tol: f64,
    threads: usize,
) -> KMeansResult {
    let matrix = rows.dense();
    let tree = KdTree::build(matrix);
    let mut assignments = vec![0usize; matrix.num_rows()];
    let mut converged = false;
    let mut iterations = 0;
    let mut zero_movement = false;
    while iterations < max_iters {
        assign(&tree, &centroids, &mut assignments);
        let movement = update_centroids(rows, &mut assignments, &mut centroids);
        iterations += 1;
        if movement <= tol {
            converged = true;
            zero_movement = movement == 0.0;
            break;
        }
    }
    if !(converged && zero_movement) {
        assign(&tree, &centroids, &mut assignments);
    }
    let threads = kernel::effective_threads(threads, matrix.num_rows());
    let sse = kernel::sse_pass(matrix, &centroids, &assignments, threads);
    KMeansResult {
        assignments,
        centroids,
        sse,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::testutil::gaussian_blobs;
    use crate::kmeans::{init, KMeansInit};

    #[test]
    fn corner_test_prunes_dominated_candidate() {
        // Cell [0,1]², z* at the origin-side, z far on the other side.
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let z_star = [0.5, 0.5];
        let z = [10.0, 10.0];
        assert!(is_farther(&z, &z_star, &lo, &hi));
        // A candidate inside the cell is never prunable.
        let close = [0.9, 0.9];
        assert!(!is_farther(&close, &z_star, &lo, &hi));
    }

    #[test]
    fn assign_matches_lloyd_exactly() {
        let m = gaussian_blobs(4, 50, 3, 21);
        let centroids = init::initial_centroids(&m, 4, KMeansInit::Forgy, 5);
        let tree = KdTree::build(&m);
        let mut a_filter = vec![0usize; m.num_rows()];
        let mut a_lloyd = vec![0usize; m.num_rows()];
        let sse_f = assign(&tree, &centroids, &mut a_filter);
        let sse_l = crate::kmeans::lloyd::assign(&m, &centroids, &mut a_lloyd);
        assert_eq!(a_filter, a_lloyd);
        assert!((sse_f - sse_l).abs() < 1e-6 * (1.0 + sse_l));
    }

    #[test]
    fn assign_matches_lloyd_on_adversarial_centroids() {
        // Centroids stacked closely so pruning is hard.
        let m = gaussian_blobs(2, 60, 2, 22);
        let centroids = DenseMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 0.0],
        ]);
        let tree = KdTree::build_with_leaf_size(&m, 4);
        let mut a_filter = vec![0usize; m.num_rows()];
        let mut a_lloyd = vec![0usize; m.num_rows()];
        assign(&tree, &centroids, &mut a_filter);
        crate::kmeans::lloyd::assign(&m, &centroids, &mut a_lloyd);
        assert_eq!(a_filter, a_lloyd);
    }

    #[test]
    fn full_run_recovers_blobs() {
        let m = gaussian_blobs(3, 40, 4, 23);
        let start = init::initial_centroids(&m, 3, KMeansInit::KMeansPlusPlus, 1);
        let result = run(&m, start, 100, 1e-9, 1);
        assert!(result.converged);
        for b in 0..3 {
            let first = result.assignments[b * 40];
            assert!(result.assignments[b * 40..(b + 1) * 40]
                .iter()
                .all(|&a| a == first));
        }
    }
}
