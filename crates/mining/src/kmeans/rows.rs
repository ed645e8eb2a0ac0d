//! How the Lloyd kernel reads a row: dense cells or non-zeros only.
//!
//! The kernel ([`super::kernel`]) and the seeding ([`super::init`]) are
//! written once, generic over a [`RowStore`]; the storage is chosen by
//! the type of the argument the caller passes, never by a setting:
//!
//! * `&DenseMatrix` — every cell of every row. What
//!   [`KMeans::fit`](super::KMeans::fit) instantiates, and the oracle
//!   the sparse rows are tested against.
//! * [`SparseRows`] — the matrix's cached non-zero view. What the batch
//!   pipeline and the stream's window closes pass: their matrices are
//!   77–93 % zeros.
//!
//! # Why the two are bit-identical
//!
//! On finite data the operations below return the same bits for either
//! storage, so whole fits do (proptest-pinned):
//!
//! * a skipped product `0·c` is exactly `±0.0` and a skipped
//!   accumulation adds exactly `±0.0`; every running sum involved
//!   starts at `+0.0`, and a sum that started at `+0.0` is never `-0.0`
//!   (round-to-nearest yields `-0.0` only from `-0.0 + -0.0`), so adding
//!   a signed zero to it changes no bit;
//! * the sparse dot keeps [`dot8`]'s association: a product lands in
//!   lane `column mod 8`, columns ascend within a lane, and the lanes
//!   combine in the same fixed tree;
//! * a sparse squared distance is the dense one's strict left fold of
//!   `(x − y)²` in column order, from an explicit `+0.0`, over the
//!   columns where either row is non-zero — everywhere else the term is
//!   exactly `+0.0` — and `(0 − y)²` is `y·y` to the bit.
//!
//! (Non-finite cells break the first point: `0 · ∞` is `NaN`, not zero.)

use ada_vsm::dense::{distance_sq, DenseMatrix, SparseCells, SparseRows};

/// Eight-lane unrolled dot product for the assignment scan. Independent
/// accumulators break the straight fold's add-latency chain (the scan
/// is latency-bound at paper dimensionality: eight lanes cover FMA
/// latency × issue width on current cores, where four left stalls) and
/// vectorize cleanly across two 4-wide registers. The lane sums combine
/// in the fixed tree `((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))`, so the
/// result is a pure function of the operands — deterministic across
/// thread counts, prune modes, and call sites.
#[inline]
fn dot8(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = [0.0f64; 8];
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        s[0] += x[0] * y[0];
        s[1] += x[1] * y[1];
        s[2] += x[2] * y[2];
        s[3] += x[3] * y[3];
        s[4] += x[4] * y[4];
        s[5] += x[5] * y[5];
        s[6] += x[6] * y[6];
        s[7] += x[7] * y[7];
    }
    for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
        s[j] += x * y;
    }
    combine(s)
}

/// The fixed lane-combination tree shared by both dot products.
#[inline]
fn combine(s: [f64; 8]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// What the kernel does with one row. Implemented for dense rows
/// (`&[f64]`) and for the view's [`SparseCells`]; not nameable outside
/// the crate, which keeps [`RowStore`] closed to those two.
pub trait KernelRow: Copy {
    /// `self · dense` in [`dot8`]'s association (the Hamerly tighten
    /// distance).
    fn dot8(self, dense: &[f64]) -> f64;

    /// The assignment scan: calls `visit(c, self · centroids.row(c))`
    /// for every centroid in index order, each product summed in
    /// [`dot8`]'s association.
    fn for_each_dot(self, centroids: &ScanCentroids, visit: impl FnMut(usize, f64));

    /// `acc[c] += self[c]` for every column.
    fn add_to(self, acc: &mut [f64]);
}

impl KernelRow for &[f64] {
    #[inline]
    fn dot8(self, dense: &[f64]) -> f64 {
        dot8(self, dense)
    }

    #[inline]
    fn for_each_dot(self, centroids: &ScanCentroids, mut visit: impl FnMut(usize, f64)) {
        for (c, centroid) in centroids.rows.rows_iter().enumerate() {
            visit(c, dot8(self, centroid));
        }
    }

    #[inline]
    fn add_to(self, acc: &mut [f64]) {
        for (s, v) in acc.iter_mut().zip(self) {
            *s += v;
        }
    }
}

/// Centroids scanned together per walk of a sparse row's non-zeros.
const SCAN_BLOCK: usize = 4;

/// One iteration's centroids in the two layouts the scan reads: the
/// row-major matrix (the dense scan and the Hamerly tighten distance)
/// and a transposed copy, `[block][column][SCAN_BLOCK]`, for the sparse
/// scan — a non-zero's products with a block's centroids are one
/// contiguous load instead of [`SCAN_BLOCK`] loads a row apart. The
/// last block is zero-padded; its padding is never visited.
pub struct ScanCentroids<'a> {
    rows: &'a DenseMatrix,
    blocks: Vec<f64>,
}

impl<'a> ScanCentroids<'a> {
    /// Lays out `rows` for one assign pass (`O(k · cols)`, once per
    /// iteration).
    pub fn new(rows: &'a DenseMatrix) -> Self {
        let (k, dim) = (rows.num_rows(), rows.num_cols());
        let mut blocks = vec![0.0; k.div_ceil(SCAN_BLOCK) * SCAN_BLOCK * dim];
        for (c, centroid) in rows.rows_iter().enumerate() {
            let block = &mut blocks[c / SCAN_BLOCK * SCAN_BLOCK * dim..];
            for (d, &v) in centroid.iter().enumerate() {
                block[d * SCAN_BLOCK + c % SCAN_BLOCK] = v;
            }
        }
        Self { rows, blocks }
    }

    /// The row-major centroids.
    pub fn rows(&self) -> &'a DenseMatrix {
        self.rows
    }
}

impl KernelRow for SparseCells<'_> {
    #[inline]
    fn dot8(self, dense: &[f64]) -> f64 {
        let mut s = [0.0f64; 8];
        for (c, v) in self.iter() {
            s[c % 8] += v * dense[c];
        }
        combine(s)
    }

    /// With a dozen non-zeros a row, a dot product is mostly fixed cost
    /// (clearing and combining eight lanes), so the scan walks the row
    /// once per [`SCAN_BLOCK`] centroids and keeps a lane set for each:
    /// the same products meet the same lanes in the same order as in
    /// one [`dot8`](KernelRow::dot8) per centroid.
    #[inline]
    fn for_each_dot(self, centroids: &ScanCentroids, mut visit: impl FnMut(usize, f64)) {
        let (k, dim) = (centroids.rows.num_rows(), centroids.rows.num_cols());
        for first in (0..k).step_by(SCAN_BLOCK) {
            let block = &centroids.blocks[first * dim..][..SCAN_BLOCK * dim];
            let mut lanes = [[0.0f64; SCAN_BLOCK]; 8];
            for (c, v) in self.iter() {
                let cells: &[f64; SCAN_BLOCK] = block[c * SCAN_BLOCK..][..SCAN_BLOCK]
                    .try_into()
                    .expect("a block column holds SCAN_BLOCK cells");
                for (sum, cell) in lanes[c % 8].iter_mut().zip(cells) {
                    *sum += v * cell;
                }
            }
            for j in 0..SCAN_BLOCK.min(k - first) {
                visit(first + j, combine(lanes.map(|lane| lane[j])));
            }
        }
    }

    #[inline]
    fn add_to(self, acc: &mut [f64]) {
        for (c, v) in self.iter() {
            acc[c] += v;
        }
    }
}

/// A matrix the kernel can scan row by row: a [`DenseMatrix`] itself, or
/// its [`SparseRows`] view (see the module docs for when to pass which).
pub trait RowStore: Sync {
    /// How one row is handed to the kernel.
    type Row<'a>: KernelRow
    where
        Self: 'a;

    /// The dense matrix behind the rows — shape, cached row norms, and
    /// the cells read off the hot path (per-point SSE, empty-cluster
    /// repair, Forgy's row copies).
    fn dense(&self) -> &DenseMatrix;

    /// Row `r`.
    fn row(&self, r: usize) -> Self::Row<'_>;

    /// k-means++'s sweep: `out[i] = ‖row(i) − row(target)‖²` for every
    /// row, each a left fold of `(x − y)²` in column order.
    fn distances_to(&self, target: usize, out: &mut [f64]);
}

impl RowStore for DenseMatrix {
    type Row<'a> = &'a [f64];

    #[inline]
    fn dense(&self) -> &DenseMatrix {
        self
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        DenseMatrix::row(self, r)
    }

    fn distances_to(&self, target: usize, out: &mut [f64]) {
        let target = DenseMatrix::row(self, target);
        for (d, row) in out.iter_mut().zip(self.rows_iter()) {
            *d = distance_sq(row, target);
        }
    }
}

impl RowStore for SparseRows<'_> {
    type Row<'a>
        = SparseCells<'a>
    where
        Self: 'a;

    #[inline]
    fn dense(&self) -> &DenseMatrix {
        SparseRows::dense(self)
    }

    #[inline]
    fn row(&self, r: usize) -> SparseCells<'_> {
        SparseRows::row(self, r)
    }

    /// Column by column instead of pair by pair: every `out[i]` still
    /// receives its terms in ascending column order, but the folds of
    /// different rows interleave, so no add waits on the previous one
    /// (a pairwise walk of two sorted id lists is one unpredictable
    /// branch per cell and loses to the dense fold below ~100 columns).
    /// A column where the target is zero touches only the rows that are
    /// not; a column where it is not is scattered into a dense scratch
    /// column and subtracted for every row.
    fn distances_to(&self, target: usize, out: &mut [f64]) {
        out.fill(0.0);
        let mut cells = vec![0.0; out.len()];
        for (c, &y) in self.dense().row(target).iter().enumerate() {
            let column = self.column(c);
            if y == 0.0 {
                for (i, x) in column.iter() {
                    out[i] += x * x;
                }
            } else {
                for (i, x) in column.iter() {
                    cells[i] = x;
                }
                for (d, x) in out.iter_mut().zip(&cells) {
                    *d += (x - y) * (x - y);
                }
                for &i in column.ids() {
                    cells[i as usize] = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Rows with mixed signs, `-0.0` cells, an all-zero row, a
    /// duplicate, and a width (19) that leaves a 3-column remainder.
    fn fixture() -> DenseMatrix {
        let mut rows = vec![vec![0.0; 19]; 5];
        for (c, v) in [(0, 1.5), (7, -2.25), (8, 3.0), (16, 1e-3), (18, -7.0)] {
            rows[0][c] = v;
        }
        rows[1] = rows[0].clone();
        rows[1][3] = -0.0;
        for (c, v) in [(7, 2.25), (9, 0.1), (17, 1e9)] {
            rows[2][c] = v;
        }
        rows[4] = (0..19).map(|c| (c as f64 - 9.0) * 0.37).collect();
        DenseMatrix::from_rows(&rows)
    }

    /// A random matrix whose non-zero cells carry full mantissas over
    /// six orders of magnitude — any change of summation order shows in
    /// the last bits.
    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, zero_share: f64) -> DenseMatrix {
        let cells = (0..rows * cols)
            .map(|_| match rng.gen::<f64>() {
                p if p < zero_share * 0.9 => 0.0,
                p if p < zero_share => -0.0,
                _ => (rng.gen::<f64>() - 0.4) * 10f64.powi(rng.gen_range(-3..4)),
            })
            .collect();
        DenseMatrix::from_flat(rows, cols, cells)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every row operation, dense against sparse, bit for bit.
    fn assert_rows_agree(m: &DenseMatrix, centroids: &DenseMatrix) {
        let view = m.sparse_rows();
        let (n, dim) = (m.num_rows(), m.num_cols());
        for r in 0..n {
            let (dense, sparse) = (RowStore::row(m, r), RowStore::row(&view, r));
            let (mut dots_d, mut dots_s) = (Vec::new(), Vec::new());
            let scan = ScanCentroids::new(centroids);
            dense.for_each_dot(&scan, |c, dot| dots_d.push((c, dot.to_bits())));
            sparse.for_each_dot(&scan, |c, dot| dots_s.push((c, dot.to_bits())));
            assert_eq!(dots_d, dots_s, "for_each_dot, row {r}");
            assert_eq!(dots_d.len(), centroids.num_rows());
            for (c, &(visited, dot)) in dots_d.iter().enumerate() {
                assert_eq!(visited, c, "centroids are visited in index order");
                assert_eq!(dense.dot8(centroids.row(c)).to_bits(), dot, "dot8, row {r}");
                assert_eq!(
                    sparse.dot8(centroids.row(c)).to_bits(),
                    dot,
                    "dot8, row {r}"
                );
            }
            // Accumulators start at +0.0 and may already hold sums.
            for start in [0.0, -1.25] {
                let (mut acc_d, mut acc_s) = (vec![start; dim], vec![start; dim]);
                dense.add_to(&mut acc_d);
                sparse.add_to(&mut acc_s);
                assert_eq!(bits(&acc_d), bits(&acc_s), "add_to, row {r}");
            }
            let (mut dist_d, mut dist_s) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            m.distances_to(r, &mut dist_d);
            view.distances_to(r, &mut dist_s);
            assert_eq!(bits(&dist_d), bits(&dist_s), "distances_to row {r}");
        }
    }

    #[test]
    fn sparse_row_operations_match_dense_bit_for_bit() {
        // Seven centroids: one full scan block, then a padded one.
        let centroids = DenseMatrix::from_rows(
            &(0..7)
                .map(|c| (0..19).map(|d| 0.3 * c as f64 - 0.07 * d as f64).collect())
                .collect::<Vec<Vec<f64>>>(),
        );
        assert_rows_agree(&fixture(), &centroids);
    }

    #[test]
    fn sparse_row_operations_match_dense_on_random_matrices() {
        let mut rng = StdRng::seed_from_u64(14);
        for case in 0..300 {
            let (rows, cols, k) = (
                rng.gen_range(1..12),
                rng.gen_range(1..41),
                rng.gen_range(1..11),
            );
            let zero_share = [0.0, 0.5, 0.93, 1.0][case % 4];
            let m = random_matrix(&mut rng, rows, cols, zero_share);
            // Centroids are dense in practice; a quarter zeros covers
            // the products that vanish on the centroid's side.
            let centroids = random_matrix(&mut rng, k, cols, 0.25);
            assert_rows_agree(&m, &centroids);
        }
    }
}
