//! Centroid initialization strategies.

use ada_vsm::dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::rows::{KernelRow, RowStore};

/// How the initial centroids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KMeansInit {
    /// Forgy: k distinct points picked uniformly at random.
    Forgy,
    /// Random partition: every point gets a random label; centroids are
    /// the partition means.
    RandomPartition,
    /// k-means++: points picked with probability proportional to squared
    /// distance from the nearest already-chosen centroid.
    KMeansPlusPlus,
}

/// Produces `k` initial centroids from `rows` (a `&DenseMatrix`, or
/// its sparse view — same centroids bit for bit, the random-partition
/// sums and k-means++'s pairwise distances just skip the zero cells).
///
/// # Panics
/// Panics when `k == 0` or `k` exceeds the row count.
pub fn initial_centroids<R: RowStore>(
    rows: &R,
    k: usize,
    method: KMeansInit,
    seed: u64,
) -> DenseMatrix {
    assert!(k > 0 && k <= rows.dense().num_rows(), "invalid k");
    let mut rng = StdRng::seed_from_u64(seed);
    match method {
        KMeansInit::Forgy => forgy(rows.dense(), k, &mut rng),
        KMeansInit::RandomPartition => random_partition(rows, k, &mut rng),
        KMeansInit::KMeansPlusPlus => kmeans_plus_plus(rows, k, &mut rng),
    }
}

fn forgy(matrix: &DenseMatrix, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let mut indices: Vec<usize> = (0..matrix.num_rows()).collect();
    indices.shuffle(rng);
    indices.truncate(k);
    matrix.select_rows(&indices)
}

fn random_partition<R: RowStore>(rows: &R, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let n = rows.dense().num_rows();
    let dim = rows.dense().num_cols();
    // Guarantee every cluster at least one member by dealing the first k
    // points to distinct clusters, then assigning the rest at random.
    let mut labels: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect();
    labels.shuffle(rng);
    let mut sums = DenseMatrix::zeros(k, dim);
    let mut counts = vec![0usize; k];
    for (i, &c) in labels.iter().enumerate() {
        counts[c] += 1;
        rows.row(i).add_to(sums.row_mut(c));
    }
    for (c, &count) in counts.iter().enumerate() {
        let inv = 1.0 / count.max(1) as f64;
        for v in sums.row_mut(c) {
            *v *= inv;
        }
    }
    sums
}

fn kmeans_plus_plus<R: RowStore>(rows: &R, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let n = rows.dense().num_rows();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    chosen.push(rng.gen_range(0..n));
    let mut best_dist = vec![0.0; n];
    rows.distances_to(chosen[0], &mut best_dist);
    let mut dist = vec![0.0; n];
    while chosen.len() < k {
        let total: f64 = best_dist.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid: fall back to
            // an arbitrary unchosen index to keep centroids distinct rows.
            (0..n).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in best_dist.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        chosen.push(next);
        rows.distances_to(next, &mut dist);
        for (best, &d) in best_dist.iter_mut().zip(&dist) {
            if d < *best {
                *best = d;
            }
        }
    }
    rows.dense().select_rows(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::testutil::gaussian_blobs;
    use ada_vsm::dense::distance_sq;

    #[test]
    fn forgy_picks_distinct_points() {
        let m = gaussian_blobs(3, 10, 2, 1);
        let c = initial_centroids(&m, 5, KMeansInit::Forgy, 2);
        assert_eq!(c.num_rows(), 5);
        // Each centroid must be an actual data row.
        for i in 0..5 {
            assert!(
                (0..m.num_rows()).any(|r| m.row(r) == c.row(i)),
                "centroid {i} is not a data point"
            );
        }
    }

    #[test]
    fn random_partition_centroids_near_global_mean() {
        let m = gaussian_blobs(2, 50, 2, 3);
        let c = initial_centroids(&m, 3, KMeansInit::RandomPartition, 4);
        let means = m.col_means();
        for i in 0..3 {
            // Random-partition centroids hug the global mean.
            let d = distance_sq(c.row(i), &means).sqrt();
            assert!(d < 10.0, "centroid {i} too far: {d}");
        }
    }

    #[test]
    fn plus_plus_spreads_centroids() {
        let m = gaussian_blobs(4, 25, 3, 5);
        let c = initial_centroids(&m, 4, KMeansInit::KMeansPlusPlus, 6);
        // With 4 well-separated blobs, k-means++ almost surely places the
        // 4 seeds in distinct blobs -> pairwise distances are large.
        for i in 0..4 {
            for j in (i + 1)..4 {
                let d = distance_sq(c.row(i), c.row(j));
                assert!(d > 1.0, "centroids {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn plus_plus_handles_duplicate_points() {
        let m = DenseMatrix::from_rows(&vec![vec![1.0, 1.0]; 5]);
        let c = initial_centroids(&m, 3, KMeansInit::KMeansPlusPlus, 7);
        assert_eq!(c.num_rows(), 3);
        for i in 0..3 {
            assert_eq!(c.row(i), &[1.0, 1.0]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = gaussian_blobs(3, 20, 2, 8);
        for method in [
            KMeansInit::Forgy,
            KMeansInit::RandomPartition,
            KMeansInit::KMeansPlusPlus,
        ] {
            let a = initial_centroids(&m, 3, method, 42);
            let b = initial_centroids(&m, 3, method, 42);
            assert_eq!(a, b, "{method:?}");
        }
    }
}
