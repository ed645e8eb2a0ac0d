//! Classic Lloyd K-means.
//!
//! The production entry point ([`run`]) executes on the shared
//! [`kernel`](super::kernel): dot-product distances over cached row
//! norms, optional Hamerly bound pruning, and a deterministic chunked
//! parallel reduction. The seed full-scan implementation is retained as
//! [`run_reference`] — the baseline the perf gate and the equivalence
//! property tests compare against.

use ada_vsm::dense::{distance_sq, DenseMatrix};

use super::kernel::{self, KernelOpts, KernelStats};
use super::{KMeansResult, RowStore};

/// Assigns every row to its nearest centroid (ties to the lowest centroid
/// index) and returns the resulting SSE.
pub(crate) fn assign(
    matrix: &DenseMatrix,
    centroids: &DenseMatrix,
    assignments: &mut [usize],
) -> f64 {
    let k = centroids.num_rows();
    let mut sse = 0.0;
    for (i, a) in assignments.iter_mut().enumerate() {
        let row = matrix.row(i);
        let mut best = 0usize;
        let mut best_d = distance_sq(row, centroids.row(0));
        for c in 1..k {
            let d = distance_sq(row, centroids.row(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        *a = best;
        sse += best_d;
    }
    sse
}

/// Runs Lloyd iterations from the given initial centroids on the
/// shared kernel (bound pruning and thread budget per `opts`).
pub(crate) fn run<R: RowStore>(
    rows: &R,
    centroids: DenseMatrix,
    max_iters: usize,
    tol: f64,
    opts: KernelOpts,
) -> (KMeansResult, KernelStats) {
    kernel::run(rows, centroids, max_iters, tol, opts)
}

/// Post-assignment centroid update of [`run_reference`]: recomputes each
/// centroid as the mean of its members and repairs empty clusters by
/// stealing the point farthest from its own centroid.
///
/// Accumulation runs through the kernel's chunk-ordered reduction, so
/// the reference loop produces the same centroids as the kernel from
/// identical assignments.
///
/// Returns the total squared movement of centroids (the convergence
/// monitor).
fn update_centroids(
    matrix: &DenseMatrix,
    assignments: &mut [usize],
    centroids: &mut DenseMatrix,
) -> f64 {
    let (mut sums, mut counts) = kernel::accumulate(matrix, assignments, centroids.num_rows());
    kernel::finalize_update(matrix, assignments, centroids, &mut sums, &mut counts).movement
}

/// The seed full-scan Lloyd loop, kept as the plain reference
/// implementation: single-threaded, no pruning, `distance_sq` per
/// point-centroid pair, and an unconditional final re-assignment. The
/// `kmeans_perf` benchmark measures the kernel against this baseline,
/// and the property suite checks the kernel's output against it.
pub fn run_reference(
    matrix: &DenseMatrix,
    mut centroids: DenseMatrix,
    max_iters: usize,
    tol: f64,
) -> KMeansResult {
    let mut assignments = vec![0usize; matrix.num_rows()];
    let mut converged = false;
    let mut iterations = 0;
    while iterations < max_iters {
        assign(matrix, &centroids, &mut assignments);
        let movement = update_centroids(matrix, &mut assignments, &mut centroids);
        iterations += 1;
        if movement <= tol {
            converged = true;
            break;
        }
    }
    // Final assignment against the settled centroids, for an SSE that is
    // consistent with the reported assignment vector.
    let sse = assign(matrix, &centroids, &mut assignments);
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

    #[test]
    fn assign_picks_nearest() {
        let m = DenseMatrix::from_rows(&[vec![0.0], vec![9.0], vec![4.9]]);
        let c = DenseMatrix::from_rows(&[vec![0.0], vec![10.0]]);
        let mut a = vec![0; 3];
        let sse = assign(&m, &c, &mut a);
        assert_eq!(a, vec![0, 1, 0]);
        assert!((sse - (0.0 + 1.0 + 4.9f64 * 4.9)).abs() < 1e-12);
    }

    #[test]
    fn assign_breaks_ties_low_index() {
        let m = DenseMatrix::from_rows(&[vec![5.0]]);
        let c = DenseMatrix::from_rows(&[vec![0.0], vec![10.0]]);
        let mut a = vec![9];
        assign(&m, &c, &mut a);
        assert_eq!(a, vec![0]);
    }

    #[test]
    fn kernel_matches_reference_trajectory() {
        let m = gaussian_blobs(4, 50, 4, 11);
        let start = crate::kmeans::init::initial_centroids(
            &m,
            4,
            crate::kmeans::KMeansInit::KMeansPlusPlus,
            2,
        );
        let reference = run_reference(&m, start.clone(), 100, 1e-6);
        let (kernel, _) = run(
            &m,
            start,
            100,
            1e-6,
            KernelOpts {
                threads: 1,
                prune: true,
            },
        );
        assert_eq!(reference.assignments, kernel.assignments);
        assert_eq!(reference.iterations, kernel.iterations);
        assert_eq!(reference.converged, kernel.converged);
        assert!((reference.sse - kernel.sse).abs() < 1e-9 * (1.0 + reference.sse));
    }

    #[test]
    fn sse_never_increases_across_iterations() {
        let m = gaussian_blobs(3, 40, 3, 10);
        let start =
            crate::kmeans::init::initial_centroids(&m, 3, crate::kmeans::KMeansInit::Forgy, 3);
        // Run step by step and track SSE monotonicity.
        let mut centroids = start;
        let mut assignments = vec![0usize; m.num_rows()];
        let mut last = f64::INFINITY;
        for _ in 0..20 {
            let sse = assign(&m, &centroids, &mut assignments);
            assert!(sse <= last + 1e-9, "SSE went up: {last} -> {sse}");
            last = sse;
            if update_centroids(&m, &mut assignments, &mut centroids) <= 1e-12 {
                break;
            }
        }
    }
}
