//! K-means clustering: configuration, shared driver, and backends.
//!
//! The paper's clustering component is "a center-based algorithm such as
//! K-Means", with Kanungo et al.'s filtering algorithm as its cited
//! implementation. The [`KMeans`] driver exposes both backends behind
//! one configuration:
//!
//! * [`lloyd`] — the classic full-scan Lloyd iteration;
//! * [`filtering`] — the kd-tree filtering algorithm, which assigns
//!   whole tree cells to a single candidate centroid whenever every
//!   other candidate is provably farther from the cell.
//!
//! Both backends perform identical centroid updates, so given the same
//! initial centroids they walk the same trajectory (a property the test
//! suite checks); the filtering backend just touches far fewer points
//! per iteration on clustered data.
//!
//! The Lloyd backend executes on the shared [`kernel`]: dot-product
//! distances over the matrix's cached row norms, Hamerly bound pruning
//! ([`KMeans::prune`]), and a chunk-ordered parallel reduction
//! ([`KMeans::threads`]) whose output is byte-identical to the serial
//! path for every thread count.
//!
//! Kernel and seeding are generic over how a row is stored
//! ([`RowStore`]): [`KMeans::fit`] and friends take a `&DenseMatrix` and
//! scan every cell, [`KMeans::fit_rows`] takes whichever store the
//! caller holds — in the batch pipeline the matrix's
//! [`sparse_rows`](DenseMatrix::sparse_rows) view, which touches only
//! non-zero cells and returns the same model bit for bit.

pub mod filtering;
pub mod init;
pub(crate) mod kernel;
pub mod lloyd;
pub(crate) mod rows;

use ada_vsm::dense::DenseMatrix;
use serde::{Deserialize, Serialize};

pub use init::KMeansInit;
pub use kernel::KernelStats;
pub use rows::RowStore;

/// Which K-means backend executes the iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KMeansBackend {
    /// Classic Lloyd: every iteration scans every point.
    Lloyd,
    /// Kanungo et al.'s kd-tree filtering algorithm (paper reference \[3\]).
    Filtering,
}

/// K-means configuration.
///
/// ```
/// use ada_mining::kmeans::KMeans;
/// use ada_vsm::DenseMatrix;
///
/// let points = DenseMatrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.0],
///     vec![9.0, 9.0], vec![9.1, 9.0],
/// ]);
/// let result = KMeans::new(2).seed(1).fit(&points);
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[2]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total squared centroid movement.
    pub tol: f64,
    /// Centroid initialization strategy.
    pub init: KMeansInit,
    /// RNG seed for the initialization.
    pub seed: u64,
    /// Iteration backend.
    pub backend: KMeansBackend,
    /// Row-level worker threads of the Lloyd kernel (0 = one per
    /// available core). Every value produces byte-identical output —
    /// the kernel reduces per-chunk partial sums in a fixed chunk
    /// order — so this is purely a latency knob.
    pub threads: usize,
    /// Hamerly bound pruning (Lloyd kernel only). Exact: pruned runs
    /// return the same assignments, centroids, SSE, and iteration
    /// count as unpruned ones, with far fewer distance evaluations.
    pub prune: bool,
}

impl KMeans {
    /// A sensible default configuration: k-means++ init, Lloyd backend,
    /// 100 iterations, tolerance 1e-6, serial with bound pruning on.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 100,
            tol: 1e-6,
            init: KMeansInit::KMeansPlusPlus,
            seed: 0,
            backend: KMeansBackend::Lloyd,
            threads: 1,
            prune: true,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the backend.
    pub fn backend(mut self, backend: KMeansBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the initialization strategy.
    pub fn init(mut self, init: KMeansInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the row-level thread budget (0 = one per available core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables Hamerly bound pruning.
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Runs the configured backend on the rows of `matrix`, reading
    /// every cell (the dense instantiation of [`KMeans::fit_rows`]).
    ///
    /// # Panics
    /// Panics when `k == 0`, the matrix is empty, or `k` exceeds the
    /// number of rows.
    pub fn fit(&self, matrix: &DenseMatrix) -> KMeansResult {
        self.fit_rows(matrix).0
    }

    /// Runs the configured backend from explicit initial centroids
    /// (used by tests and by `ada-stream`'s per-window warm fit).
    ///
    /// # Panics
    /// Panics on shape mismatch between `matrix` and `centroids`.
    pub fn fit_from(&self, matrix: &DenseMatrix, centroids: DenseMatrix) -> KMeansResult {
        self.fit_rows_from(matrix, centroids).0
    }

    /// [`KMeans::fit`] plus the kernel's instrumentation counters.
    pub fn fit_with_stats(&self, matrix: &DenseMatrix) -> (KMeansResult, KernelStats) {
        self.fit_rows(matrix)
    }

    /// [`KMeans::fit_from`] plus the kernel's instrumentation counters.
    ///
    /// # Panics
    /// Panics on shape mismatch between `matrix` and `centroids`.
    pub fn fit_from_with_stats(
        &self,
        matrix: &DenseMatrix,
        centroids: DenseMatrix,
    ) -> (KMeansResult, KernelStats) {
        self.fit_rows_from(matrix, centroids)
    }

    /// Runs the configured backend over any row storage and reports the
    /// kernel's instrumentation counters (distance evaluations, bound
    /// skips) alongside the model. The filtering backend reports zeroed
    /// counters — its pruning works on tree cells, not per-point bounds.
    ///
    /// Pass `&matrix.sparse_rows()` for a matrix that is mostly zeros
    /// and not mutated between fits; model and counters equal the dense
    /// fit's bit for bit.
    ///
    /// # Panics
    /// Panics when `k == 0`, the matrix is empty, or `k` exceeds the
    /// number of rows.
    pub fn fit_rows<R: RowStore>(&self, rows: &R) -> (KMeansResult, KernelStats) {
        let n = rows.dense().num_rows();
        assert!(self.k > 0, "k must be positive");
        assert!(n > 0, "cannot cluster an empty matrix");
        assert!(self.k <= n, "k = {} exceeds {n} points", self.k);
        let centroids = init::initial_centroids(rows, self.k, self.init, self.seed);
        self.fit_rows_from(rows, centroids)
    }

    /// [`KMeans::fit_rows`] from explicit initial centroids.
    ///
    /// # Panics
    /// Panics on shape mismatch between `rows` and `centroids`.
    pub fn fit_rows_from<R: RowStore>(
        &self,
        rows: &R,
        centroids: DenseMatrix,
    ) -> (KMeansResult, KernelStats) {
        assert_eq!(centroids.num_rows(), self.k, "centroid count");
        assert_eq!(
            centroids.num_cols(),
            rows.dense().num_cols(),
            "dim mismatch"
        );
        let opts = kernel::KernelOpts {
            threads: self.threads,
            prune: self.prune,
        };
        match self.backend {
            KMeansBackend::Lloyd => lloyd::run(rows, centroids, self.max_iters, self.tol, opts),
            KMeansBackend::Filtering => (
                filtering::run(rows, centroids, self.max_iters, self.tol, self.threads),
                KernelStats::default(),
            ),
        }
    }
}

/// The output of a K-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index of every input row.
    pub assignments: Vec<usize>,
    /// Final centroids (k × dim).
    pub centroids: DenseMatrix,
    /// Final SSE (sum of squared distances to assigned centroids).
    pub sse: f64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the run converged before hitting `max_iters`.
    pub converged: bool,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.num_rows()
    }

    /// Cluster sizes (length k).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// FNV-1a fingerprint of the whole model — every assignment, every
    /// centroid coordinate's exact bit pattern, the SSE bits, and the
    /// shape. Two results fingerprint equal iff they are byte-identical,
    /// which is how the streaming layer and the determinism gates
    /// compare models without shipping matrices around.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(&(self.centroids.num_rows() as u64).to_le_bytes());
        mix(&(self.centroids.num_cols() as u64).to_le_bytes());
        for &v in self.centroids.as_flat() {
            mix(&v.to_bits().to_le_bytes());
        }
        for &a in &self.assignments {
            mix(&(a as u64).to_le_bytes());
        }
        mix(&self.sse.to_bits().to_le_bytes());
        mix(&(self.iterations as u64).to_le_bytes());
        mix(&[u8::from(self.converged)]);
        h
    }
}

/// Zero-pads `prev` (k × d_prev) into `dim` columns (`d_prev <= dim`):
/// carried centroid coordinates keep their columns and newly added
/// feature columns start at zero.
///
/// This is the streaming miner's warm-start seam: its vocabulary grows
/// as new exam types appear, and each window re-seeds
/// [`KMeans::fit_from`] with the previous window's model, whose feature
/// space has since widened.
///
/// # Panics
/// Panics in debug builds when `dim` is smaller than `prev`'s width.
pub fn pad_centroids(prev: &DenseMatrix, dim: usize) -> DenseMatrix {
    debug_assert!(prev.num_cols() <= dim, "warm starts only widen");
    if prev.num_cols() == dim {
        return prev.clone();
    }
    let mut out = DenseMatrix::zeros(prev.num_rows(), dim);
    for c in 0..prev.num_rows() {
        out.row_mut(c)[..prev.num_cols()].copy_from_slice(prev.row(c));
    }
    out
}

/// Shared post-assignment centroid update: recomputes each centroid as
/// the mean of its members and repairs empty clusters by stealing the
/// point farthest from its own centroid.
///
/// Accumulation runs through the kernel's chunk-ordered reduction, so
/// every backend — serial or parallel — produces bit-identical
/// centroids from identical assignments.
///
/// Returns the total squared movement of centroids (the convergence
/// monitor both backends use).
pub(crate) fn update_centroids<R: RowStore>(
    rows: &R,
    assignments: &mut [usize],
    centroids: &mut DenseMatrix,
) -> f64 {
    let (mut sums, mut counts) = kernel::accumulate(rows, assignments, centroids.num_rows());
    kernel::finalize_update(rows.dense(), assignments, centroids, &mut sums, &mut counts).movement
}

#[cfg(test)]
pub(crate) mod testutil {
    use ada_vsm::dense::DenseMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `blobs` well-separated Gaussian blobs of `per_blob` points each.
    pub fn gaussian_blobs(blobs: usize, per_blob: usize, dim: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(blobs * per_blob);
        for b in 0..blobs {
            let center: Vec<f64> = (0..dim)
                .map(|d| ((b * dim + d) % 7) as f64 * 10.0)
                .collect();
            for _ in 0..per_blob {
                rows.push(
                    center
                        .iter()
                        .map(|&c| c + rng.gen_range(-0.5..0.5))
                        .collect::<Vec<f64>>(),
                );
            }
        }
        DenseMatrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::gaussian_blobs;

    #[test]
    fn result_cluster_sizes_sum_to_n() {
        let m = gaussian_blobs(3, 30, 4, 1);
        let result = KMeans::new(3).seed(5).fit(&m);
        assert_eq!(result.cluster_sizes().iter().sum::<usize>(), 90);
        assert_eq!(result.k(), 3);
    }

    #[test]
    fn recovers_separated_blobs() {
        let m = gaussian_blobs(4, 25, 3, 2);
        let result = KMeans::new(4).seed(3).fit(&m);
        assert!(result.converged);
        // Each blob of 25 consecutive rows must be pure.
        for b in 0..4 {
            let first = result.assignments[b * 25];
            for i in 0..25 {
                assert_eq!(result.assignments[b * 25 + i], first, "blob {b}");
            }
        }
        assert!(result.sse < 90.0 * 0.25 * 3.0, "sse = {}", result.sse);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = gaussian_blobs(3, 20, 3, 4);
        let a = KMeans::new(3).seed(9).fit(&m);
        let b = KMeans::new(3).seed(9).fit(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn backends_agree_from_same_start() {
        let m = gaussian_blobs(5, 40, 4, 7);
        let start = init::initial_centroids(&m, 5, KMeansInit::KMeansPlusPlus, 11);
        let lloyd = KMeans::new(5).fit_from(&m, start.clone());
        let filtering = KMeans::new(5)
            .backend(KMeansBackend::Filtering)
            .fit_from(&m, start);
        assert_eq!(lloyd.assignments, filtering.assignments);
        assert!((lloyd.sse - filtering.sse).abs() < 1e-6 * (1.0 + lloyd.sse));
        assert_eq!(lloyd.iterations, filtering.iterations);
    }

    #[test]
    fn k_equals_n_gives_zero_sse() {
        let m = gaussian_blobs(2, 3, 2, 8);
        let result = KMeans::new(6).seed(1).fit(&m);
        assert!(result.sse < 1e-9, "sse = {}", result.sse);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_k_larger_than_n() {
        let m = gaussian_blobs(1, 3, 2, 0);
        let _ = KMeans::new(10).fit(&m);
    }

    #[test]
    fn empty_cluster_repair_keeps_k_clusters() {
        // Points in a line, initial centroids stacked on one point: some
        // clusters will start empty and must be repaired.
        let m = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![100.0]]);
        let start = DenseMatrix::from_rows(&[vec![0.0], vec![0.0], vec![0.0]]);
        let result = KMeans::new(3).fit_from(&m, start);
        let sizes = result.cluster_sizes();
        assert!(sizes.iter().all(|&s| s > 0), "sizes = {sizes:?}");
    }
}
