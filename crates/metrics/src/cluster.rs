//! Cluster-quality indices.
//!
//! Two of these come straight from the paper's Section IV:
//!
//! * **SSE** (Sum of Squared Error, Tan/Steinbach/Kumar): "the total sum
//!   of squared errors over all the objects in the collection, where for
//!   each object the error is computed as the squared distance from the
//!   closest centroid. The smaller the SSE, the better the quality of
//!   discovered clusters" — but it decreases monotonically with K, which
//!   is exactly why the paper pairs it with a classifier-based
//!   robustness check.
//! * **Overall similarity**: "measures the cluster cohesiveness by
//!   computing the internal pairwise similarity of patients within each
//!   cluster, and then taking the weighted sum over the whole cluster
//!   set". Pairwise similarity is cosine; the weighted sum uses cluster
//!   sizes.
//!
//! Silhouette and Davies–Bouldin are included as the extra indices the
//! optimizer's extended scoring can draw on.

use ada_vsm::dense::{cosine, distance_sq, DenseMatrix, SparseCells};

/// Per-cluster centroids (component-wise means) of the assigned rows.
///
/// Empty clusters get all-zero centroids. `assignments[i]` must be `< k`.
///
/// # Panics
/// Panics when `assignments.len() != matrix.num_rows()` or an assignment
/// is out of range.
#[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
pub fn centroids_of(matrix: &DenseMatrix, assignments: &[usize], k: usize) -> DenseMatrix {
    assert_eq!(assignments.len(), matrix.num_rows(), "assignment length");
    let dim = matrix.num_cols();
    let mut sums = DenseMatrix::zeros(k, dim);
    let mut counts = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        assert!(c < k, "assignment {c} out of range for k = {k}");
        counts[c] += 1;
        let row = matrix.row(i);
        let acc = sums.row_mut(c);
        for d in 0..dim {
            acc[d] += row[d];
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            let inv = 1.0 / counts[c] as f64;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }
    }
    sums
}

/// Sum of Squared Error of a clustering: Σᵢ ‖xᵢ − c(xᵢ)‖².
///
/// # Panics
/// Panics on shape mismatches between matrix, assignments and centroids.
pub fn sse(matrix: &DenseMatrix, assignments: &[usize], centroids: &DenseMatrix) -> f64 {
    assert_eq!(assignments.len(), matrix.num_rows(), "assignment length");
    assert_eq!(matrix.num_cols(), centroids.num_cols(), "dim mismatch");
    assignments
        .iter()
        .enumerate()
        .map(|(i, &c)| distance_sq(matrix.row(i), centroids.row(c)))
        .sum()
}

/// Overall similarity of a clustering (Tan/Steinbach/Kumar): the
/// size-weighted mean of per-cluster cohesion, where cohesion of cluster
/// C is the average pairwise cosine similarity `(1/|C|²) Σ_{x,y∈C}
/// cos(x,y)` (self-pairs included).
///
/// Implementation note: for unit-normalized members the double sum
/// collapses to `‖mean of unit vectors‖²`, making the index O(n·d)
/// instead of O(n²·d). The quadratic definition is kept (see tests) as
/// the reference implementation.
///
/// Returns 0.0 for an empty matrix. Zero rows contribute zero-similarity
/// pairs, matching the convention `cos(0, ·) = 0`.
///
/// Rows are read through the matrix's cached non-zero view
/// ([`DenseMatrix::sparse_rows`]): a zero cell adds exactly `+0.0` to
/// the row norm and `±0.0` to the unit sum, so skipping it changes no
/// bit of the result — and a partial-mining session scores 27
/// partitions against one 93 %-zero matrix. The unit cells themselves
/// come from the view's cache ([`SparseRows::unit_row`]), so the 27
/// scores divide each cell by its row's norm once between them.
///
/// [`SparseRows::unit_row`]: ada_vsm::SparseRows::unit_row
pub fn overall_similarity(matrix: &DenseMatrix, assignments: &[usize], k: usize) -> f64 {
    assert_eq!(assignments.len(), matrix.num_rows(), "assignment length");
    let n = matrix.num_rows();
    if n == 0 {
        return 0.0;
    }
    let rows = matrix.sparse_rows();
    let mut unit_sums = DenseMatrix::zeros(k, matrix.num_cols());
    let mut counts = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        assert!(c < k, "assignment {c} out of range for k = {k}");
        counts[c] += 1;
        let acc = unit_sums.row_mut(c);
        for (d, v) in rows.unit_row(i).iter() {
            acc[d] += v;
        }
    }
    let mut total = 0.0;
    for (c, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let s = unit_sums.row(c);
        let norm_sq: f64 = s.iter().map(|v| v * v).sum();
        let cohesion = norm_sq / (count * count) as f64;
        total += count as f64 / n as f64 * cohesion;
    }
    total
}

/// Reference O(n²) implementation of [`overall_similarity`], used by the
/// test suite and available for small validation runs.
pub fn overall_similarity_pairwise(matrix: &DenseMatrix, assignments: &[usize], k: usize) -> f64 {
    let n = matrix.num_rows();
    if n == 0 {
        return 0.0;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }
    let mut total = 0.0;
    for cluster in &members {
        let size = cluster.len();
        if size == 0 {
            continue;
        }
        let mut pair_sum = 0.0;
        for &i in cluster {
            for &j in cluster {
                pair_sum += cosine(matrix.row(i), matrix.row(j));
            }
        }
        let cohesion = pair_sum / (size * size) as f64;
        total += size as f64 / n as f64 * cohesion;
    }
    total
}

/// Mean silhouette coefficient over all points (Euclidean distances).
///
/// Points in singleton clusters get silhouette 0 by convention. Returns
/// 0.0 when there are fewer than 2 points or fewer than 2 non-empty
/// clusters. Each pair's distance is computed once, over the rows'
/// non-zero cells, and added to both points' per-cluster sums; taking
/// pairs `(i, j > i)` row by row sums every mean in member order.
pub fn silhouette(matrix: &DenseMatrix, assignments: &[usize], k: usize) -> f64 {
    assert_eq!(assignments.len(), matrix.num_rows(), "assignment length");
    let n = matrix.num_rows();
    let mut sizes = vec![0usize; k];
    for &c in assignments {
        sizes[c] += 1;
    }
    if n < 2 || sizes.iter().filter(|&&size| size > 0).count() < 2 {
        return 0.0;
    }
    let rows = matrix.sparse_rows();
    // `sums[i * k + c]`: point i's summed distance to cluster c's members.
    let mut sums = vec![0.0; n * k];
    for (i, &own) in assignments.iter().enumerate() {
        for (j, &other) in assignments.iter().enumerate().skip(i + 1) {
            let distance = sparse_distance_sq(rows.row(i), rows.row(j)).sqrt();
            sums[i * k + other] += distance;
            sums[j * k + own] += distance;
        }
    }
    let mut total = 0.0;
    for (sums, &own) in sums.chunks_exact(k).zip(assignments) {
        if sizes[own] <= 1 {
            continue; // silhouette 0 for singletons
        }
        // a(i): mean distance to own cluster (excluding self).
        let a = sums[own] / (sizes[own] - 1) as f64;
        // b(i): min over other clusters of mean distance.
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    total / n as f64
}

/// `‖a − b‖²` of two rows' non-zero cells, bit-equal to the dense fold
/// (DESIGN §18.3): the terms it skips are exactly `+0.0`.
fn sparse_distance_sq(a: SparseCells<'_>, b: SparseCells<'_>) -> f64 {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    let mut sum = 0.0;
    loop {
        // `next()` yields the cell `peek()` just saw.
        let d = match (a.peek().copied(), b.peek().copied()) {
            (None, None) => return sum,
            (Some((x, _)), Some((y, _))) if x == y => a.next().unwrap().1 - b.next().unwrap().1,
            (Some((x, _)), Some((y, _))) if x > y => -b.next().unwrap().1,
            (Some(_), _) => a.next().unwrap().1,
            (None, Some(_)) => -b.next().unwrap().1,
        };
        sum += d * d;
    }
}

/// Davies–Bouldin index (lower is better): mean over clusters of the
/// worst-case ratio `(sᵢ + sⱼ) / dᵢⱼ`, where `s` is mean within-cluster
/// distance to the centroid and `d` the centroid separation.
///
/// Returns 0.0 when fewer than 2 clusters are non-empty.
#[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
pub fn davies_bouldin(matrix: &DenseMatrix, assignments: &[usize], k: usize) -> f64 {
    let centroids = centroids_of(matrix, assignments, k);
    let mut counts = vec![0usize; k];
    let mut scatter = vec![0.0; k];
    for (i, &c) in assignments.iter().enumerate() {
        counts[c] += 1;
        scatter[c] += distance_sq(matrix.row(i), centroids.row(c)).sqrt();
    }
    let live: Vec<usize> = (0..k).filter(|&c| counts[c] > 0).collect();
    if live.len() < 2 {
        return 0.0;
    }
    for &c in &live {
        scatter[c] /= counts[c] as f64;
    }
    let mut total = 0.0;
    for &i in &live {
        let mut worst: f64 = 0.0;
        for &j in &live {
            if i == j {
                continue;
            }
            let sep = distance_sq(centroids.row(i), centroids.row(j)).sqrt();
            if sep > 0.0 {
                worst = worst.max((scatter[i] + scatter[j]) / sep);
            }
        }
        total += worst;
    }
    total / live.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blobs far apart.
    fn two_blobs() -> (DenseMatrix, Vec<usize>) {
        let rows = vec![
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.0, 0.0],
            vec![10.0, 10.1],
            vec![10.1, 10.0],
            vec![10.0, 10.0],
        ];
        (DenseMatrix::from_rows(&rows), vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn centroids_are_means() {
        let (m, a) = two_blobs();
        let c = centroids_of(&m, &a, 2);
        assert!((c.get(0, 0) - 0.1 / 3.0).abs() < 1e-12);
        assert!((c.get(1, 0) - 30.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn centroids_empty_cluster_is_zero() {
        let (m, a) = two_blobs();
        let c = centroids_of(&m, &a, 3);
        assert_eq!(c.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn sse_zero_for_perfect_centroids() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0]]);
        let a = vec![0, 0];
        let c = centroids_of(&m, &a, 1);
        assert_eq!(sse(&m, &a, &c), 0.0);
    }

    #[test]
    fn sse_decreases_with_better_assignment() {
        let (m, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let cg = centroids_of(&m, &good, 2);
        let cb = centroids_of(&m, &bad, 2);
        assert!(sse(&m, &good, &cg) < sse(&m, &bad, &cb));
    }

    #[test]
    fn overall_similarity_fast_matches_pairwise() {
        let rows = vec![
            vec![1.0, 0.0, 2.0],
            vec![0.5, 0.5, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![2.0, 2.0, 2.0],
            vec![0.0, 0.0, 0.0], // zero row
            vec![1.0, 1.0, 0.0],
        ];
        let m = DenseMatrix::from_rows(&rows);
        let a = vec![0, 1, 0, 1, 0, 2];
        let fast = overall_similarity(&m, &a, 3);
        let slow = overall_similarity_pairwise(&m, &a, 3);
        assert!((fast - slow).abs() < 1e-9, "fast {fast} slow {slow}");
    }

    #[test]
    fn overall_similarity_perfect_for_identical_directions() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let a = vec![0, 0, 0];
        let s = overall_similarity(&m, &a, 1);
        assert!((s - 1.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn overall_similarity_good_clustering_beats_bad() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 1.0],
            vec![0.1, 0.9],
        ]);
        let good = vec![0, 0, 1, 1];
        let bad = vec![0, 1, 0, 1];
        assert!(overall_similarity(&m, &good, 2) > overall_similarity(&m, &bad, 2));
    }

    #[test]
    fn overall_similarity_empty_matrix() {
        let m = DenseMatrix::zeros(0, 3);
        assert_eq!(overall_similarity(&m, &[], 2), 0.0);
    }

    #[test]
    fn silhouette_separated_blobs_near_one() {
        let (m, a) = two_blobs();
        let s = silhouette(&m, &a, 2);
        assert!(s > 0.95, "silhouette = {s}");
    }

    #[test]
    fn silhouette_bad_assignment_is_low() {
        let (m, _) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let s = silhouette(&m, &bad, 2);
        assert!(s < 0.1, "silhouette = {s}");
    }

    #[test]
    fn silhouette_degenerate_cases() {
        let m = DenseMatrix::from_rows(&[vec![1.0]]);
        assert_eq!(silhouette(&m, &[0], 1), 0.0);
        let (m2, a) = two_blobs();
        let all_same = vec![0; a.len()];
        assert_eq!(silhouette(&m2, &all_same, 2), 0.0);
    }

    #[test]
    fn davies_bouldin_prefers_separated_blobs() {
        let (m, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let db_good = davies_bouldin(&m, &good, 2);
        let db_bad = davies_bouldin(&m, &bad, 2);
        assert!(db_good < db_bad, "good {db_good} bad {db_bad}");
        assert!(db_good < 0.1);
    }

    #[test]
    fn davies_bouldin_single_cluster_zero() {
        let (m, a) = two_blobs();
        let one = vec![0; a.len()];
        assert_eq!(davies_bouldin(&m, &one, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn centroids_rejects_bad_assignment() {
        let m = DenseMatrix::from_rows(&[vec![1.0]]);
        let _ = centroids_of(&m, &[3], 2);
    }
}
