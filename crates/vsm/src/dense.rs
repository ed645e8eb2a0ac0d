//! Row-major dense matrix used as the clustering working set, and the
//! non-zero view ([`SparseRows`]) the batch miners scan instead of it.
//!
//! The VSM is sparse where it matters: a patient has ≈ 15 records a
//! year over 159 exam types, so the paper-scale matrix is 93 % zeros
//! (85 % at the 40 % feature rung, 77 % at the 20 % rung). The dense
//! buffer stays the storage of record — it is what gets mutated in
//! place by the streaming builder, sliced by `select_rows`, scanned by
//! the k-NN classifier and read by per-point SSE — while loops whose
//! cost is `rows × k × cols` (the K-means assignment scan, centroid
//! accumulation, k-means++ seeding, overall similarity) walk
//! [`DenseMatrix::sparse_rows`], a CSR copy of the non-zero cells built
//! once per matrix and cached like the row norms.

use std::sync::OnceLock;

/// A row-major dense `f64` matrix.
///
/// At paper scale the VSM matrix is 6,380 × 159 ≈ 8 MB of `f64`; a
/// flat buffer is the simplest representation to build, grow, slice and
/// index. It is not the fastest one to *scan* — 93 % of those cells are
/// zero — which is what [`sparse_rows`](DenseMatrix::sparse_rows) is
/// for.
///
/// The matrix memoizes its per-row squared norms
/// ([`row_norms_sq`](DenseMatrix::row_norms_sq)): the K-means kernel
/// evaluates distances in dot-product form
/// `d²(x, c) = ‖x‖² − 2·x·c + ‖c‖²`, so the same norm vector is shared
/// across a whole K sweep (and every partial-mining subset built from
/// the same matrix) and computed exactly once. The non-zero view is
/// memoized the same way. Mutating accessors invalidate both caches.
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Lazily computed `‖row‖²` per row; reset by any mutation.
    norms_sq: OnceLock<Vec<f64>>,
    /// Lazily built CSR copy of the non-zero cells; reset by any
    /// mutation.
    nonzeros: OnceLock<NonZeros>,
}

/// The non-zero cells of a matrix, row-major (CSR) and — once a
/// consumer asks — column-major (CSC). Each side costs 12 bytes per
/// non-zero plus one offset per row or column.
#[derive(Debug, Clone)]
struct NonZeros {
    by_row: Compressed,
    /// The same cells column-major (CSC), built on first use — only
    /// k-means++ seeding sweeps columns.
    by_col: OnceLock<Compressed>,
    /// `by_row`'s values divided by their row's norm, built on first
    /// use — what every similarity score of the matrix sums.
    unit: OnceLock<Vec<f64>>,
}

/// One compressed axis: slot `s` owns `starts[s]..starts[s + 1]` of
/// `ids` (positions along the other axis, ascending) and `vals`.
#[derive(Debug, Clone)]
struct Compressed {
    starts: Vec<usize>,
    ids: Vec<u32>,
    vals: Vec<f64>,
}

impl Compressed {
    /// Two passes over the dense buffer — count, then fill — so both
    /// entry buffers are allocated once at their exact size.
    fn rows_of(matrix: &DenseMatrix) -> Self {
        assert!(
            u32::try_from(matrix.cols).is_ok() && u32::try_from(matrix.rows).is_ok(),
            "row and column ids are stored as u32"
        );
        let mut starts = Vec::with_capacity(matrix.rows + 1);
        let mut total = 0usize;
        starts.push(0);
        for row in matrix.rows_iter() {
            total += row.iter().filter(|&&v| v != 0.0).count();
            starts.push(total);
        }
        // A zero-width matrix yields no row slices at all.
        starts.resize(matrix.rows + 1, total);
        let mut ids = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        for row in matrix.rows_iter() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    ids.push(c as u32);
                    vals.push(v);
                }
            }
        }
        Self { starts, ids, vals }
    }

    /// The transpose of `by_row` (a counting sort by column id, so row
    /// ids ascend within every column).
    fn columns_of(by_row: &Compressed, cols: usize) -> Self {
        let mut starts = vec![0usize; cols + 1];
        for &c in &by_row.ids {
            starts[c as usize + 1] += 1;
        }
        for c in 0..cols {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut ids = vec![0u32; by_row.ids.len()];
        let mut vals = vec![0.0; by_row.vals.len()];
        for (r, span) in by_row.starts.windows(2).enumerate() {
            for e in span[0]..span[1] {
                let slot = &mut cursor[by_row.ids[e] as usize];
                ids[*slot] = r as u32;
                vals[*slot] = by_row.vals[e];
                *slot += 1;
            }
        }
        Self { starts, ids, vals }
    }

    #[inline]
    fn slot(&self, s: usize) -> SparseCells<'_> {
        let span = self.starts[s]..self.starts[s + 1];
        SparseCells {
            ids: &self.ids[span.clone()],
            vals: &self.vals[span],
        }
    }
}

/// The non-zero cells of a [`DenseMatrix`], row by row — what
/// [`DenseMatrix::sparse_rows`] returns.
///
/// The view borrows its matrix ([`dense`](SparseRows::dense)), so a
/// consumer that walks non-zeros in its hot loop can still read dense
/// cells where it needs them. A cell belongs to the view iff it
/// compares `!= 0.0`: `-0.0` cells are left out, `NaN` cells are kept.
#[derive(Debug, Clone, Copy)]
pub struct SparseRows<'a> {
    matrix: &'a DenseMatrix,
    nonzeros: &'a NonZeros,
}

impl<'a> SparseRows<'a> {
    /// The matrix this view was built from.
    pub fn dense(&self) -> &'a DenseMatrix {
        self.matrix
    }

    /// The non-zero cells of row `r`; ids are column ids.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> SparseCells<'a> {
        self.nonzeros.by_row.slot(r)
    }

    /// The non-zero cells of column `c`; ids are row ids. The
    /// column-major copy is built on the first call (one counting sort
    /// of the row-major entries, another 12 bytes per non-zero) and
    /// cached with the view.
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    #[inline]
    pub fn column(&self, c: usize) -> SparseCells<'a> {
        self.nonzeros
            .by_col
            .get_or_init(|| Compressed::columns_of(&self.nonzeros.by_row, self.matrix.cols))
            .slot(c)
    }

    /// The non-zero cells of row `r` divided by the row's L2 norm (a
    /// left fold of `v · v` over the row's cells, then `sqrt`); `+0.0`
    /// cells for a row whose norm is not positive. Computed for every
    /// row on the first call and cached with the view, so the cosine
    /// scores of many partitions of one matrix divide once.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    #[inline]
    pub fn unit_row(&self, r: usize) -> SparseCells<'a> {
        let by_row = &self.nonzeros.by_row;
        let unit = self.nonzeros.unit.get_or_init(|| {
            let mut unit = Vec::with_capacity(by_row.vals.len());
            for r in 0..self.matrix.rows {
                let vals = by_row.slot(r).vals;
                let norm = vals.iter().fold(0.0, |sum, v| sum + v * v).sqrt();
                unit.extend(vals.iter().map(|v| if norm > 0.0 { v / norm } else { 0.0 }));
            }
            unit
        });
        let span = by_row.starts[r]..by_row.starts[r + 1];
        SparseCells {
            ids: &by_row.ids[span.clone()],
            vals: &unit[span],
        }
    }

    /// Total number of non-zero cells.
    pub fn nnz(&self) -> usize {
        self.nonzeros.by_row.vals.len()
    }
}

/// The non-zero cells of one row or one column of a [`SparseRows`]
/// view: parallel slices of ascending ids (column ids for a row, row
/// ids for a column) and the values stored there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseCells<'a> {
    ids: &'a [u32],
    vals: &'a [f64],
}

impl<'a> SparseCells<'a> {
    /// Positions of the non-zero cells along the other axis, strictly
    /// ascending.
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// The non-zero values, parallel to [`ids`](SparseCells::ids).
    #[inline]
    pub fn vals(&self) -> &'a [f64] {
        self.vals
    }

    /// `(id, value)` pairs in ascending id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.ids
            .iter()
            .zip(self.vals)
            .map(|(&id, &v)| (id as usize, v))
    }
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        // The norm cache is derived state; two matrices are equal iff
        // their shapes and payloads are.
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl DenseMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            norms_sq: OnceLock::new(),
            nonzeros: OnceLock::new(),
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self {
            rows,
            cols,
            data,
            norms_sq: OnceLock::new(),
            nonzeros: OnceLock::new(),
        }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: n,
            cols,
            data,
            norms_sq: OnceLock::new(),
            nonzeros: OnceLock::new(),
        }
    }

    /// Drops the derived caches; every mutating accessor calls this.
    #[inline]
    fn invalidate(&mut self) {
        self.norms_sq.take();
        self.nonzeros.take();
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        self.invalidate();
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value at (r, c).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the value at (r, c).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.invalidate();
        self.data[r * self.cols + c] = v;
    }

    /// Appends one all-zero row, returning its index.
    ///
    /// Streaming builders grow the cohort one patient at a time; the
    /// flat row-major layout makes this a plain `Vec` extension.
    pub fn push_zero_row(&mut self) -> usize {
        self.invalidate();
        self.data.resize(self.data.len() + self.cols, 0.0);
        self.rows += 1;
        self.rows - 1
    }

    /// Widens the matrix to `cols` columns, padding every existing row
    /// with trailing zeros (a no-op when `cols == num_cols()`).
    ///
    /// Streaming builders grow the vocabulary as new exam types appear;
    /// widening restrides the flat buffer once per growth step.
    ///
    /// # Panics
    /// Panics when `cols` is smaller than the current width.
    pub fn grow_cols(&mut self, cols: usize) {
        assert!(cols >= self.cols, "grow_cols cannot shrink the matrix");
        if cols == self.cols {
            return;
        }
        self.invalidate();
        let mut data = vec![0.0; self.rows * cols];
        for r in 0..self.rows {
            data[r * cols..r * cols + self.cols]
                .copy_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
        }
        self.data = data;
        self.cols = cols;
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// A new matrix containing only the selected rows, in the given order.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn select_rows(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (new_r, &r) in indices.iter().enumerate() {
            out.row_mut(new_r).copy_from_slice(self.row(r));
        }
        out
    }

    /// A new matrix containing only the selected columns, in the given
    /// order.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn select_cols(&self, indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (new_c, &c) in indices.iter().enumerate() {
                dst[new_c] = src[c];
            }
        }
        out
    }

    /// L2-normalizes every row in place; zero rows are left untouched.
    pub fn normalize_rows(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                for v in row {
                    *v /= norm;
                }
            }
        }
    }

    /// Per-row squared L2 norms, computed once per matrix and cached.
    ///
    /// This is the precomputation behind the K-means kernel's
    /// dot-product distance form: every K of a sweep evaluating
    /// distances against the same matrix shares one norm vector. The cache is invalidated by every mutating accessor.
    pub fn row_norms_sq(&self) -> &[f64] {
        self.norms_sq
            .get_or_init(|| self.rows_iter().map(|row| dot(row, row)).collect())
    }

    /// The matrix's non-zero cells as a row-wise view, built once per
    /// matrix (two passes, 12 bytes per non-zero) and cached.
    ///
    /// Shared exactly like [`row_norms_sq`](DenseMatrix::row_norms_sq):
    /// every K-means fit, every K of a sweep and every similarity score
    /// against the same matrix walks one copy. Invalidated by the same
    /// mutators — [`row_mut`](DenseMatrix::row_mut),
    /// [`set`](DenseMatrix::set),
    /// [`push_zero_row`](DenseMatrix::push_zero_row),
    /// [`grow_cols`](DenseMatrix::grow_cols) and
    /// [`normalize_rows`](DenseMatrix::normalize_rows) — so a matrix
    /// mutated between scans rebuilds it once per mutation round, as
    /// the streaming builder's does once per closed window.
    ///
    /// # Panics
    /// Panics when the matrix has more than `u32::MAX` rows or columns.
    pub fn sparse_rows(&self) -> SparseRows<'_> {
        SparseRows {
            matrix: self,
            nonzeros: self.nonzeros.get_or_init(|| NonZeros {
                by_row: Compressed::rows_of(self),
                by_col: OnceLock::new(),
                unit: OnceLock::new(),
            }),
        }
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.rows_iter() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics (in debug builds) on length mismatch.
#[inline]
pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Cosine similarity of two slices; 0.0 when either is a zero vector.
#[inline]
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let denom = norm(a) * norm(b);
    if denom == 0.0 {
        0.0
    } else {
        dot(a, b) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 3);
    }

    #[test]
    fn from_rows_and_flat_agree() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let a = DenseMatrix::from_rows(&rows);
        let b = DenseMatrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn growth_pads_with_zeros_and_invalidates_norms() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(m.row_norms_sq(), &[25.0]);
        assert_eq!(m.push_zero_row(), 1);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row_norms_sq(), &[25.0, 0.0]);
        m.grow_cols(4);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(m.row(0), &[3.0, 4.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0, 0.0]);
        m.set(1, 3, 2.0);
        assert_eq!(m.row_norms_sq(), &[25.0, 4.0]);
        m.grow_cols(4); // no-op
        assert_eq!(m.as_flat().len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_cols_rejects_shrinking() {
        let mut m = DenseMatrix::zeros(1, 3);
        m.grow_cols(2);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = m.select_cols(&[2, 1]);
        assert_eq!(c.row(0), &[3.0, 2.0]);
        assert_eq!(c.num_cols(), 2);
    }

    #[test]
    fn normalize_rows_handles_zero_rows() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        m.normalize_rows();
        assert!((norm(m.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn col_means_average() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(m.col_means(), vec![2.0, 20.0]);
        assert_eq!(DenseMatrix::zeros(0, 2).col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn slice_helpers() {
        let a = [1.0, 2.0, 2.0];
        let b = [0.0, 0.0, 2.0];
        assert_eq!(distance_sq(&a, &b), 1.0 + 4.0);
        assert_eq!(dot(&a, &b), 4.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&a, &[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn row_norms_cache_and_invalidation() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0], vec![1.0, 0.0]]);
        assert_eq!(m.row_norms_sq(), &[25.0, 1.0]);
        // Cached pointer is stable across calls.
        let p1 = m.row_norms_sq().as_ptr();
        let p2 = m.row_norms_sq().as_ptr();
        assert_eq!(p1, p2);
        // Mutation invalidates.
        m.set(1, 1, 2.0);
        assert_eq!(m.row_norms_sq(), &[25.0, 5.0]);
        m.row_mut(0)[0] = 0.0;
        assert_eq!(m.row_norms_sq(), &[16.0, 5.0]);
        m.normalize_rows();
        let norms = m.row_norms_sq().to_vec();
        assert!((norms[0] - 1.0).abs() < 1e-12 && (norms[1] - 1.0).abs() < 1e-12);
        // Clones carry (or recompute) a consistent cache.
        let c = m.clone();
        assert_eq!(c.row_norms_sq(), m.row_norms_sq());
    }

    /// The view's rows as `(col, value)` pairs, then its columns as
    /// `(row, value)` pairs.
    fn view_pairs(m: &DenseMatrix) -> Vec<Vec<(usize, f64)>> {
        let view = m.sparse_rows();
        let rows = (0..m.num_rows()).map(|r| view.row(r).iter().collect());
        let columns = (0..m.num_cols()).map(|c| view.column(c).iter().collect());
        rows.chain(columns).collect()
    }

    #[test]
    fn sparse_rows_lists_nonzeros_in_column_order() {
        let m = DenseMatrix::from_rows(&[
            vec![0.0, -2.0, 0.0, 3.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![-0.0, 0.0, 1.5, -0.0],
        ]);
        assert_eq!(
            view_pairs(&m),
            vec![
                // rows
                vec![(1, -2.0), (3, 3.0)],
                vec![],
                vec![(2, 1.5)],
                // columns: the same cells, row ids ascending
                vec![],
                vec![(0, -2.0)],
                vec![(2, 1.5)],
                vec![(0, 3.0)],
            ]
        );
        let view = m.sparse_rows();
        assert_eq!(view.nnz(), 3);
        assert!(std::ptr::eq(view.dense(), &m));
        // Built once: a second call serves the same buffers.
        assert_eq!(
            view.row(0).vals().as_ptr(),
            m.sparse_rows().row(0).vals().as_ptr()
        );
        // Degenerate shapes have rows and columns, just no cells.
        assert_eq!(view_pairs(&DenseMatrix::zeros(2, 0)), vec![vec![]; 2]);
        assert_eq!(view_pairs(&DenseMatrix::zeros(0, 3)), vec![vec![]; 3]);
    }

    #[test]
    fn every_mutator_invalidates_the_sparse_view() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 0.0, 4.0], vec![0.0, 2.0, 0.0]]);
        let rebuilt = |m: &DenseMatrix| {
            view_pairs(&DenseMatrix::from_flat(
                m.num_rows(),
                m.num_cols(),
                m.as_flat().to_vec(),
            ))
        };
        type Mutator = fn(&mut DenseMatrix);
        let mutators: [(&str, Mutator); 5] = [
            ("row_mut", |m| m.row_mut(1)[0] = 7.0),
            ("set", |m| m.set(0, 1, -1.0)),
            ("push_zero_row", |m| {
                m.push_zero_row();
            }),
            ("grow_cols", |m| m.grow_cols(5)),
            ("normalize_rows", DenseMatrix::normalize_rows),
        ];
        for (name, mutate) in mutators {
            let before = view_pairs(&m); // builds and caches the view
            mutate(&mut m);
            let after = view_pairs(&m);
            assert_eq!(after, rebuilt(&m), "{name}: stale view");
            assert_ne!(after, before, "{name} changed nothing");
        }
        m.set(2, 4, 9.0); // a grown cell shows up too
        assert_eq!(view_pairs(&m), rebuilt(&m));
    }

    #[test]
    fn unit_rows_divide_by_the_row_norm_and_follow_mutation() {
        // Row 2's norm underflows to zero: its cell is kept, as `+0.0`.
        let mut m = DenseMatrix::from_rows(&[
            vec![3.0, 0.0, -4.0],
            vec![0.0, 0.0, 0.0],
            vec![1e-200, 0.0, 0.0],
        ]);
        let units = |m: &DenseMatrix| -> Vec<Vec<(usize, f64)>> {
            let view = m.sparse_rows();
            (0..m.num_rows())
                .map(|r| view.unit_row(r).iter().collect())
                .collect()
        };
        assert_eq!(
            units(&m),
            vec![vec![(0, 0.6), (2, -0.8)], vec![], vec![(0, 0.0)]]
        );
        m.row_mut(1)[1] = 2.0;
        assert_eq!(units(&m)[1], vec![(1, 1.0)]);
    }

    #[test]
    fn rows_iter_matches_row() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let collected: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(collected, vec![m.row(0), m.row(1)]);
    }
}
