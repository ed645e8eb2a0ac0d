//! CART decision tree (binary splits on continuous features).
//!
//! The paper's optimizer "built a classifier … to assess the robustness
//! of clustering results …, using the same input features of the
//! clustering algorithm, and the class label assigned by the clustering
//! algorithm itself as target. … In our first implementation, we used
//! decision trees as classification model." This is that model: a
//! depth-limited CART with gini or entropy impurity, midpoint thresholds
//! and deterministic tie-breaking.
//!
//! # Growing over a presorted column index
//!
//! The exhaustive split search needs each node's rows in value order
//! per feature. Sorting them at every node costs
//! O(nodes · d · n log n); instead a [`ColumnIndex`] sorts every column
//! **once per matrix** and a [`TreeFitter`] grows trees over row subsets
//! of it: the training set is a stable filter of each sorted list, a
//! split is a stable partition of it, so a node's rows stay in value
//! order with no further sorting. Only the non-zero entries are listed —
//! a node's zeros are one block between its negative and positive
//! entries, whose class counts are the node's counts minus the listed
//! ones — so a split search costs O(non-zeros in the node), which on the
//! 85 %-sparse VSM is what makes the Table-I sweep (80 fits of the same
//! matrix, only the labels change) cheap.
//!
//! The search is exact, not approximate: candidates are visited in the
//! same (feature, value) order as a per-node sort would visit them, with
//! the same integer class counts on each side, hence the same gains,
//! thresholds and tie-breaks. The tests compare whole trees against the
//! per-node-sort reference implementation kept under `#[cfg(test)]`.

use ada_vsm::dense::DenseMatrix;
use serde::{Deserialize, Serialize};

/// Split impurity criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Criterion {
    /// Gini impurity `1 − Σ pᵢ²` (CART default).
    Gini,
    /// Shannon entropy `−Σ pᵢ ln pᵢ`.
    Entropy,
}

impl Criterion {
    fn impurity(self, counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        match self {
            Criterion::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| {
                        let p = c as f64 / t;
                        p * p
                    })
                    .sum::<f64>()
            }
            Criterion::Entropy => counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / t;
                    -p * p.ln()
                })
                .sum(),
        }
    }
}

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum impurity decrease a split must achieve.
    pub min_gain: f64,
    /// Impurity criterion.
    pub criterion: Criterion,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            min_samples_leaf: 2,
            min_gain: 1e-7,
            criterion: Criterion::Gini,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_classes: usize,
    num_features: usize,
}

impl DecisionTree {
    /// Fits a tree on the rows of `matrix` with the given labels:
    /// builds the matrix's [`ColumnIndex`] and grows over all of its
    /// rows. Callers fitting many trees on one matrix (cross-validation,
    /// the K sweep) build the index once and share it instead — see
    /// [`crate::validate::cross_validate_tree_indexed`].
    ///
    /// # Panics
    /// Panics on empty input, label/row count mismatch, labels
    /// ≥ `num_classes`, or a non-finite (NaN, ±∞) feature value — the
    /// message names its row and column.
    pub fn fit(
        matrix: &DenseMatrix,
        labels: &[usize],
        num_classes: usize,
        config: &TreeConfig,
    ) -> Self {
        TreeFitter::new(&ColumnIndex::build(matrix)).fit_where(
            labels,
            |_| true,
            num_classes,
            config,
        )
    }

    /// Predicts the class of a single feature row.
    ///
    /// # Panics
    /// Panics when `row.len() != num_features`.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.num_features, "feature count mismatch");
        self.classify(|feature| row[feature])
    }

    /// Predicts the class of row `row` of the matrix behind `index`,
    /// reading its values from the index.
    ///
    /// # Panics
    /// Panics when the index has another feature count or no such row.
    pub(crate) fn predict_indexed(&self, index: &ColumnIndex, row: usize) -> usize {
        assert_eq!(index.num_cols, self.num_features, "feature count mismatch");
        self.classify(|feature| index.column(feature)[row])
    }

    /// Walks from the root to a leaf, `value_of(feature)` supplying the
    /// sample's values.
    fn classify(&self, value_of: impl Fn(usize) -> f64) -> usize {
        let mut node = self.nodes.len() - 1; // root is pushed last
        loop {
            match &self.nodes[node] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if value_of(*feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts classes for every row of `matrix`.
    pub fn predict(&self, matrix: &DenseMatrix) -> Vec<usize> {
        (0..matrix.num_rows())
            .map(|i| self.predict_row(matrix.row(i)))
            .collect()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        rec(&self.nodes, self.nodes.len() - 1)
    }
}

/// The presorted column index of one matrix: everything the split
/// search needs, built once and shared by reference by every tree grown
/// on (row subsets of) that matrix.
///
/// Layout, for an `n × d` matrix: the values column-major (`n·d` f64, so
/// a feature's lookups stay inside one `n`-long column instead of
/// striding the row-major matrix), and per feature the row ids of its
/// **non-zero** entries in ascending value order, ties by row id
/// (`u32` each) — at most `n·d·12` bytes.
#[derive(Debug)]
pub struct ColumnIndex {
    num_rows: usize,
    num_cols: usize,
    /// `values[f * num_rows + r]` is the matrix entry `(r, f)`.
    values: Vec<f64>,
    /// Feature `f`'s sorted non-zero rows are
    /// `sorted[starts[f]..starts[f + 1]]`.
    starts: Vec<usize>,
    sorted: Vec<u32>,
}

impl ColumnIndex {
    /// Transposes `matrix` and sorts each column's non-zero entries:
    /// O(n·d + nnz log n), the only sort any fit on this matrix pays.
    ///
    /// # Panics
    /// Panics, naming the row and column, when a value is NaN or
    /// infinite (the split search orders and averages values), and when
    /// the matrix has more than `u32::MAX` rows.
    pub fn build(matrix: &DenseMatrix) -> Self {
        let (n, d) = (matrix.num_rows(), matrix.num_cols());
        let row_ids = 0..u32::try_from(n).expect("row ids fit u32");
        let mut values = vec![0.0; n * d];
        for r in 0..n {
            for (f, &v) in matrix.row(r).iter().enumerate() {
                assert!(
                    v.is_finite(),
                    "non-finite feature value {v} at row {r}, column {f}"
                );
                values[f * n + r] = v;
            }
        }
        let mut starts = Vec::with_capacity(d + 1);
        let mut sorted = Vec::new();
        for f in 0..d {
            let col = &values[f * n..(f + 1) * n];
            let start = sorted.len();
            starts.push(start);
            sorted.extend(row_ids.clone().filter(|&r| col[r as usize] != 0.0));
            // Stable, so ties stay in row order; all values are finite
            // and non-zero, where `total_cmp` is the numeric order.
            sorted[start..].sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
        }
        starts.push(sorted.len());
        Self {
            num_rows: n,
            num_cols: d,
            values,
            starts,
            sorted,
        }
    }

    /// Rows of the indexed matrix.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns (features) of the indexed matrix.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.num_rows..(feature + 1) * self.num_rows]
    }

    fn sorted_nonzeros(&self, feature: usize) -> &[u32] {
        &self.sorted[self.starts[feature]..self.starts[feature + 1]]
    }
}

/// Work counters of indexed tree fits — what a cross-validation did,
/// as exact counts that repeat across runs of the same input.
///
/// Purely observational, like the K-means kernel's `KernelStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Trees fitted (one per non-degenerate fold).
    pub cv_tree_fits: u64,
    /// Tree nodes grown, leaves included.
    pub cv_nodes: u64,
    /// Sorted non-zero entries visited by split searches.
    pub cv_entries_scanned: u64,
}

impl TreeStats {
    /// The counters as named pairs, in a stable order — the shape
    /// observer events and session documents carry.
    pub fn as_pairs(&self) -> [(&'static str, u64); 3] {
        [
            ("cv_tree_fits", self.cv_tree_fits),
            ("cv_nodes", self.cv_nodes),
            ("cv_entries_scanned", self.cv_entries_scanned),
        ]
    }
}

/// Per-depth slots of `TreeFitter::bounds`: the start, split point and
/// end of the current node's range in each feature's list.
const LO: usize = 0;
const MID: usize = 1;
const HI: usize = 2;

/// Grows trees over row subsets of one [`ColumnIndex`], reusing its
/// buffers from fit to fit, so the folds of a cross-validation allocate
/// them once and each fit only its tree.
///
/// During a fit every node owns one contiguous range of `rows` and, per
/// feature, one contiguous range of `entries` (its non-zero rows in
/// value order). Splitting a node stably partitions each of its ranges
/// in place, which hands both children their ranges already sorted.
pub(crate) struct TreeFitter<'a> {
    index: &'a ColumnIndex,
    /// The fit's rows.
    rows: Vec<u32>,
    /// Per feature, the fit's rows among the index's sorted non-zeros.
    entries: Vec<u32>,
    /// `bounds[(depth * 3 + LO|MID|HI) * d + f]`: feature `f`'s range in
    /// `entries` for the node being grown at `depth`. A level outlives
    /// the subtrees below it, so the right child can be cut from it
    /// after the left subtree is done.
    bounds: Vec<usize>,
    /// Side of the pending split, by row id (only the node's rows are
    /// meaningful).
    goes_left: Vec<bool>,
    /// Spill buffer of the stable partition.
    scratch: Vec<u32>,
    node_counts: Vec<usize>,
    zero_counts: Vec<usize>,
    left_counts: Vec<usize>,
    right_counts: Vec<usize>,
    stats: TreeStats,
}

impl<'a> TreeFitter<'a> {
    pub(crate) fn new(index: &'a ColumnIndex) -> Self {
        let n = index.num_rows;
        Self {
            index,
            rows: Vec::with_capacity(n),
            entries: Vec::with_capacity(index.sorted.len()),
            bounds: Vec::new(),
            goes_left: vec![false; n],
            scratch: Vec::with_capacity(n),
            node_counts: Vec::new(),
            zero_counts: Vec::new(),
            left_counts: Vec::new(),
            right_counts: Vec::new(),
            stats: TreeStats::default(),
        }
    }

    /// Counters accumulated over every fit so far.
    pub(crate) fn stats(&self) -> TreeStats {
        self.stats
    }

    /// Fits a tree on the indexed matrix's rows `r` with `keep(r)`;
    /// `labels` holds one label per matrix row (those of dropped rows
    /// are ignored). Equal to [`DecisionTree::fit`] on a copy of the
    /// kept rows.
    ///
    /// # Panics
    /// Panics on a label/row count mismatch, when no row is kept, or on
    /// a kept label ≥ `num_classes`.
    pub(crate) fn fit_where(
        &mut self,
        labels: &[usize],
        keep: impl Fn(usize) -> bool,
        num_classes: usize,
        config: &TreeConfig,
    ) -> DecisionTree {
        let index = self.index;
        let d = index.num_cols;
        assert_eq!(index.num_rows, labels.len(), "label count mismatch");
        self.rows.clear();
        self.rows
            .extend((0..index.num_rows as u32).filter(|&r| keep(r as usize)));
        assert!(!self.rows.is_empty(), "cannot fit on empty data");
        assert!(
            self.rows.iter().all(|&r| labels[r as usize] < num_classes),
            "label out of range"
        );

        self.entries.clear();
        self.bounds.clear();
        self.bounds.resize(3 * d, 0);
        for f in 0..d {
            self.bounds[LO * d + f] = self.entries.len();
            let kept = index
                .sorted_nonzeros(f)
                .iter()
                .filter(|&&r| keep(r as usize));
            self.entries.extend(kept);
            self.bounds[HI * d + f] = self.entries.len();
        }
        for counts in [
            &mut self.node_counts,
            &mut self.zero_counts,
            &mut self.left_counts,
            &mut self.right_counts,
        ] {
            counts.clear();
            counts.resize(num_classes, 0);
        }

        let mut nodes = Vec::new();
        self.grow(&mut nodes, labels, config, 0..self.rows.len(), 0);
        self.stats.cv_tree_fits += 1;
        DecisionTree {
            nodes,
            num_classes,
            num_features: d,
        }
    }

    /// Grows the subtree over `self.rows[rows]` (whose per-feature
    /// ranges are level `depth` of `bounds`), returning its node id.
    fn grow(
        &mut self,
        nodes: &mut Vec<Node>,
        labels: &[usize],
        config: &TreeConfig,
        rows: std::ops::Range<usize>,
        depth: usize,
    ) -> usize {
        self.stats.cv_nodes += 1;
        let n = rows.len();
        self.node_counts.fill(0);
        for &r in &self.rows[rows.clone()] {
            self.node_counts[labels[r as usize]] += 1;
        }
        let majority = argmax_counts(&self.node_counts);
        let impurity = config.criterion.impurity(&self.node_counts, n);

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { class: majority });
            nodes.len() - 1
        };

        if depth >= config.max_depth || n < 2 * config.min_samples_leaf || impurity == 0.0 {
            return make_leaf(nodes);
        }

        let Some((feature, threshold, gain)) = self.best_split(labels, n, depth, impurity, config)
        else {
            return make_leaf(nodes);
        };
        if gain < config.min_gain {
            return make_leaf(nodes);
        }

        // left = value <= threshold
        let col = self.index.column(feature);
        let mut left_n = 0;
        for &r in &self.rows[rows.clone()] {
            let left = col[r as usize] <= threshold;
            self.goes_left[r as usize] = left;
            left_n += usize::from(left);
        }
        if left_n == 0 || left_n == n {
            return make_leaf(nodes); // numerically degenerate split
        }

        // Partition the node's rows and each feature's range; the next
        // level of `bounds` is (re)used by both children in turn.
        partition_by_side(
            &mut self.rows[rows.clone()],
            &self.goes_left,
            &mut self.scratch,
        );
        let d = self.index.num_cols;
        let (here, below) = (depth * 3 * d, (depth + 1) * 3 * d);
        if self.bounds.len() < below + 3 * d {
            self.bounds.resize(below + 3 * d, 0);
        }
        for f in 0..d {
            let (lo, hi) = (
                self.bounds[here + LO * d + f],
                self.bounds[here + HI * d + f],
            );
            self.bounds[here + MID * d + f] = lo
                + partition_by_side(
                    &mut self.entries[lo..hi],
                    &self.goes_left,
                    &mut self.scratch,
                );
        }
        let level = |slot: usize| here + slot * d..here + (slot + 1) * d;
        let split_row = rows.start + left_n;

        // Children are built first and the split pushed after them, so
        // the root is always the last node.
        self.bounds.copy_within(level(LO), below + LO * d);
        self.bounds.copy_within(level(MID), below + HI * d);
        let left = self.grow(nodes, labels, config, rows.start..split_row, depth + 1);
        self.bounds.copy_within(level(MID), below + LO * d);
        self.bounds.copy_within(level(HI), below + HI * d);
        let right = self.grow(nodes, labels, config, split_row..rows.end, depth + 1);
        nodes.push(Node::Split {
            feature,
            threshold,
            left,
            right,
        });
        nodes.len() - 1
    }

    /// Exhaustive best split of the `n`-row node at `depth` (class
    /// counts in `self.node_counts`): per feature, walk the node's
    /// non-zero entries in value order, taking its zeros as one block
    /// between the negative and the positive entries, and evaluate each
    /// boundary between distinct values from class-count prefixes.
    fn best_split(
        &mut self,
        labels: &[usize],
        n: usize,
        depth: usize,
        parent_impurity: f64,
        config: &TreeConfig,
    ) -> Option<(usize, f64, f64)> {
        let d = self.index.num_cols;
        let here = depth * 3 * d;
        let mut search = SplitSearch {
            labels,
            config,
            parent_impurity,
            n,
            left_counts: &mut self.left_counts,
            right_counts: &mut self.right_counts,
            left_n: 0,
            feature: 0,
            best: None,
        };
        for feature in 0..d {
            let (lo, hi) = (
                self.bounds[here + LO * d + feature],
                self.bounds[here + HI * d + feature],
            );
            let entries = &self.entries[lo..hi];
            if entries.is_empty() {
                continue; // all zeros in this node: nothing to split on
            }
            self.stats.cv_entries_scanned += entries.len() as u64;
            let col = self.index.column(feature);
            search.start_feature(feature, &self.node_counts);
            let num_zeros = n - entries.len();
            if num_zeros == 0 {
                search.take_run(entries, col, None);
                continue;
            }
            self.zero_counts.copy_from_slice(&self.node_counts);
            for &r in entries {
                self.zero_counts[labels[r as usize]] -= 1;
            }
            let (negative, positive) =
                entries.split_at(entries.partition_point(|&r| col[r as usize] < 0.0));
            search.take_run(negative, col, Some(0.0));
            search.take_block(&self.zero_counts, num_zeros);
            if let Some(&r) = positive.first() {
                search.candidate(0.0, col[r as usize]);
            }
            search.take_run(positive, col, None);
        }
        search.best
    }
}

/// The state of one node's split search: the class counts on each side
/// of the scan position, and the best candidate so far across features.
struct SplitSearch<'a> {
    labels: &'a [usize],
    config: &'a TreeConfig,
    parent_impurity: f64,
    /// Rows in the node.
    n: usize,
    left_counts: &'a mut [usize],
    right_counts: &'a mut [usize],
    /// Rows moved to the left side so far.
    left_n: usize,
    feature: usize,
    /// (feature, threshold, gain)
    best: Option<(usize, f64, f64)>,
}

impl SplitSearch<'_> {
    fn start_feature(&mut self, feature: usize, node_counts: &[usize]) {
        self.feature = feature;
        self.left_n = 0;
        self.left_counts.fill(0);
        self.right_counts.copy_from_slice(node_counts);
    }

    /// Moves `run` (rows in ascending value order) to the left side one
    /// row at a time, evaluating the boundary after each row whose
    /// successor — the next row, or `after` behind the last one — has a
    /// different value.
    fn take_run(&mut self, run: &[u32], col: &[f64], after: Option<f64>) {
        for (i, &r) in run.iter().enumerate() {
            let class = self.labels[r as usize];
            self.left_counts[class] += 1;
            self.right_counts[class] -= 1;
            self.left_n += 1;
            let next = run.get(i + 1).map(|&r| col[r as usize]).or(after);
            let v = col[r as usize];
            match next {
                Some(v_next) if v != v_next => self.candidate(v, v_next),
                _ => {} // can't split between equal values, or after the last
            }
        }
    }

    /// Moves a block of equal-valued rows to the left side at once.
    fn take_block(&mut self, counts: &[usize], size: usize) {
        for (class, &c) in counts.iter().enumerate() {
            self.left_counts[class] += c;
            self.right_counts[class] -= c;
        }
        self.left_n += size;
    }

    /// Evaluates the split between the adjacent distinct values `v` and
    /// `v_next` at the current scan position.
    fn candidate(&mut self, v: f64, v_next: f64) {
        let config = self.config;
        let left_n = self.left_n;
        let right_n = self.n - left_n;
        if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
            return;
        }
        let total = self.n as f64;
        let gain = self.parent_impurity
            - (left_n as f64 / total) * config.criterion.impurity(self.left_counts, left_n)
            - (right_n as f64 / total) * config.criterion.impurity(self.right_counts, right_n);
        let threshold = v + (v_next - v) / 2.0;
        let better = match self.best {
            None => true,
            Some((bf, bt, bg)) => {
                gain > bg + 1e-12
                    || ((gain - bg).abs() <= 1e-12 && (self.feature, threshold) < (bf, bt))
            }
        };
        if better {
            self.best = Some((self.feature, threshold, gain));
        }
    }
}

/// Stable in-place partition: the rows with `goes_left[row]` move to
/// the front of `slice`, both sides keep their order; returns the
/// boundary. `scratch` holds the right side meanwhile and does not
/// allocate once it has grown to the largest range.
fn partition_by_side(slice: &mut [u32], goes_left: &[bool], scratch: &mut Vec<u32>) -> usize {
    scratch.clear();
    let mut kept = 0;
    for i in 0..slice.len() {
        let r = slice[i];
        if goes_left[r as usize] {
            slice[kept] = r;
            kept += 1;
        } else {
            scratch.push(r);
        }
    }
    slice[kept..].copy_from_slice(scratch);
    kept
}

fn argmax_counts(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The seed implementation, kept as the oracle the indexed fit is
/// compared against: copy and re-sort the node's rows for every feature
/// at every node.
#[cfg(test)]
mod reference {
    use super::*;

    impl DecisionTree {
        pub(super) fn fit_reference(
            matrix: &DenseMatrix,
            labels: &[usize],
            num_classes: usize,
            config: &TreeConfig,
        ) -> Self {
            assert_eq!(matrix.num_rows(), labels.len(), "label count mismatch");
            assert!(!labels.is_empty(), "cannot fit on empty data");
            assert!(
                labels.iter().all(|&l| l < num_classes),
                "label out of range"
            );
            let mut tree = DecisionTree {
                nodes: Vec::new(),
                num_classes,
                num_features: matrix.num_cols(),
            };
            let mut indices: Vec<usize> = (0..matrix.num_rows()).collect();
            tree.grow_reference(matrix, labels, &mut indices, 0, config);
            tree
        }

        /// Grows the subtree over `indices` (reordered in place), returning
        /// its node id.
        fn grow_reference(
            &mut self,
            matrix: &DenseMatrix,
            labels: &[usize],
            indices: &mut [usize],
            depth: usize,
            config: &TreeConfig,
        ) -> usize {
            let counts = self.class_counts(labels, indices);
            let majority = argmax_counts(&counts);
            let impurity = config.criterion.impurity(&counts, indices.len());

            let make_leaf = |tree: &mut Self| {
                tree.nodes.push(Node::Leaf { class: majority });
                tree.nodes.len() - 1
            };

            if depth >= config.max_depth
                || indices.len() < 2 * config.min_samples_leaf
                || impurity == 0.0
            {
                return make_leaf(self);
            }

            let Some((feature, threshold, gain)) =
                self.best_split_reference(matrix, labels, indices, impurity, config)
            else {
                return make_leaf(self);
            };
            if gain < config.min_gain {
                return make_leaf(self);
            }

            // Partition indices in place: left = value <= threshold.
            let mid = partition(indices, |&i| matrix.get(i, feature) <= threshold);
            if mid == 0 || mid == indices.len() {
                return make_leaf(self); // numerically degenerate split
            }

            // Reserve the node slot before recursing so the root ends up at 0
            // only for a leaf; we instead build children first and push the
            // split after, then return its id (children ids are stable).
            let (left_slice, right_slice) = indices.split_at_mut(mid);
            let left = self.grow_reference(matrix, labels, left_slice, depth + 1, config);
            let right = self.grow_reference(matrix, labels, right_slice, depth + 1, config);
            self.nodes.push(Node::Split {
                feature,
                threshold,
                left,
                right,
            });
            self.nodes.len() - 1
        }

        fn class_counts(&self, labels: &[usize], indices: &[usize]) -> Vec<usize> {
            let mut counts = vec![0usize; self.num_classes];
            for &i in indices {
                counts[labels[i]] += 1;
            }
            counts
        }

        /// Exhaustive best split: for every feature, sort the node's rows by
        /// value and scan class-count prefixes, evaluating each boundary
        /// between distinct values.
        fn best_split_reference(
            &self,
            matrix: &DenseMatrix,
            labels: &[usize],
            indices: &[usize],
            parent_impurity: f64,
            config: &TreeConfig,
        ) -> Option<(usize, f64, f64)> {
            let n = indices.len();
            let total = n as f64;
            let mut best: Option<(usize, f64, f64)> = None;
            let mut order: Vec<usize> = Vec::with_capacity(n);
            for feature in 0..self.num_features {
                order.clear();
                order.extend_from_slice(indices);
                order.sort_unstable_by(|&a, &b| {
                    matrix
                        .get(a, feature)
                        .partial_cmp(&matrix.get(b, feature))
                        .expect("finite feature values")
                });

                let mut left_counts = vec![0usize; self.num_classes];
                let mut right_counts = self.class_counts(labels, indices);
                for pos in 0..n - 1 {
                    let i = order[pos];
                    left_counts[labels[i]] += 1;
                    right_counts[labels[i]] -= 1;
                    let v = matrix.get(i, feature);
                    let v_next = matrix.get(order[pos + 1], feature);
                    if v == v_next {
                        continue; // can't split between equal values
                    }
                    let left_n = pos + 1;
                    let right_n = n - left_n;
                    if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                        continue;
                    }
                    let gain = parent_impurity
                        - (left_n as f64 / total) * config.criterion.impurity(&left_counts, left_n)
                        - (right_n as f64 / total)
                            * config.criterion.impurity(&right_counts, right_n);
                    let threshold = v + (v_next - v) / 2.0;
                    let better = match best {
                        None => true,
                        Some((bf, bt, bg)) => {
                            gain > bg + 1e-12
                                || ((gain - bg).abs() <= 1e-12 && (feature, threshold) < (bf, bt))
                        }
                    };
                    if better {
                        best = Some((feature, threshold, gain));
                    }
                }
            }
            best
        }
    }

    /// Stable partition: reorders `slice` so that all elements satisfying
    /// `pred` come first; returns the boundary.
    fn partition<T: Copy>(slice: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
        let mut kept: Vec<T> = Vec::with_capacity(slice.len());
        let mut rest: Vec<T> = Vec::new();
        for &x in slice.iter() {
            if pred(&x) {
                kept.push(x);
            } else {
                rest.push(x);
            }
        }
        let mid = kept.len();
        slice[..mid].copy_from_slice(&kept);
        slice[mid..].copy_from_slice(&rest);
        mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-feature, three-class dataset needing two nested splits:
    /// x ≈ 0 → class 0; x ≈ 1, y ≈ 0 → class 1; x ≈ 1, y ≈ 1 → class 2.
    fn nested_data() -> (DenseMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for &(x, y, l) in &[
            (0.0, 0.0, 0usize),
            (0.0, 1.0, 0),
            (1.0, 0.0, 1),
            (1.0, 1.0, 2),
        ] {
            for jitter in 0..5 {
                let e = jitter as f64 * 0.01;
                rows.push(vec![x + e, y + e]);
                labels.push(l);
            }
        }
        (DenseMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn fits_nested_splits_exactly() {
        let (m, labels) = nested_data();
        let tree = DecisionTree::fit(&m, &labels, 3, &TreeConfig::default());
        assert_eq!(tree.predict(&m), labels);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.num_leaves(), 3);
    }

    #[test]
    fn greedy_cart_cannot_split_pure_xor() {
        // Known CART limitation: every single split of a balanced XOR has
        // zero impurity decrease, so with a positive min_gain the root
        // stays a leaf. Documents the expected greedy behaviour.
        let m = DenseMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let labels = vec![0, 1, 1, 0];
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let m = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let labels = vec![1, 1, 1];
        let tree = DecisionTree::fit(&m, &labels, 2, &TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_row(&[99.0]), 1);
    }

    #[test]
    fn max_depth_zero_predicts_majority() {
        let (m, labels) = nested_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 3, &cfg);
        assert_eq!(tree.num_leaves(), 1);
        // Class 0 holds 10 of 20 samples: the unsplit root predicts it.
        assert_eq!(tree.predict_row(&[1.0, 1.0]), 0);
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let m = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let labels = vec![0, 0, 0, 1];
        let cfg = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        // The clean split (isolating the single class-1 sample) is
        // forbidden; only the balanced 2|2 split remains, whose impure
        // right child cannot be refined further. x = 3 is therefore
        // misclassified as the right child's majority (tie → class 0).
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.predict_row(&[3.0]), 0);
        assert_eq!(tree.predict_row(&[0.0]), 0);
    }

    #[test]
    fn entropy_criterion_also_solves_separable_data() {
        let m = DenseMatrix::from_rows(&[
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![5.0],
            vec![5.1],
            vec![5.2],
        ]);
        let labels = vec![0, 0, 0, 1, 1, 1];
        let cfg = TreeConfig {
            criterion: Criterion::Entropy,
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        assert_eq!(tree.predict(&m), labels);
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn handles_constant_features() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 5.0], vec![1.0, 9.0]]);
        let labels = vec![0, 1, 1];
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 2, &cfg);
        // Constant feature 0 must be ignored; feature 1 separates.
        assert_eq!(tree.predict(&m), labels);
    }

    #[test]
    fn multiclass_separable() {
        let m = DenseMatrix::from_rows(&[
            vec![0.0],
            vec![0.2],
            vec![5.0],
            vec![5.2],
            vec![10.0],
            vec![10.2],
        ]);
        let labels = vec![0, 0, 1, 1, 2, 2];
        let cfg = TreeConfig {
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&m, &labels, 3, &cfg);
        assert_eq!(tree.predict(&m), labels);
        assert_eq!(tree.num_leaves(), 3);
    }

    #[test]
    fn deterministic_fit() {
        let (m, labels) = nested_data();
        let a = DecisionTree::fit(&m, &labels, 3, &TreeConfig::default());
        let b = DecisionTree::fit(&m, &labels, 3, &TreeConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn impurity_functions() {
        assert_eq!(Criterion::Gini.impurity(&[5, 0], 5), 0.0);
        assert!((Criterion::Gini.impurity(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(Criterion::Entropy.impurity(&[5, 0], 5), 0.0);
        assert!((Criterion::Entropy.impurity(&[5, 5], 10) - 2f64.ln().abs()).abs() < 1e-12);
        assert_eq!(Criterion::Gini.impurity(&[], 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let m = DenseMatrix::from_rows(&[vec![1.0]]);
        let _ = DecisionTree::fit(&m, &[5], 2, &TreeConfig::default());
    }

    #[test]
    fn column_index_lists_nonzeros_in_value_order() {
        let m = DenseMatrix::from_rows(&[
            vec![2.0, 0.0],
            vec![0.0, 0.0],
            vec![-1.0, 0.0],
            vec![2.0, -0.0],
            vec![0.5, 3.0],
        ]);
        let index = ColumnIndex::build(&m);
        assert_eq!((index.num_rows(), index.num_cols()), (5, 2));
        // Ascending by value, ties (rows 0 and 3) in row order, zeros
        // of either sign left out.
        assert_eq!(index.sorted_nonzeros(0), [2, 4, 0, 3]);
        assert_eq!(index.sorted_nonzeros(1), [4]);
        assert_eq!(index.column(0), [2.0, 0.0, -1.0, 2.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "non-finite feature value NaN at row 1, column 2")]
    fn rejects_non_finite_values_naming_the_cell() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 1.0, 2.0], vec![0.0, 1.0, f64::NAN]]);
        let _ = DecisionTree::fit(&m, &[0, 1], 2, &TreeConfig::default());
    }

    #[test]
    fn fitter_counts_its_work() {
        let (m, labels) = nested_data();
        let index = ColumnIndex::build(&m);
        let mut fitter = TreeFitter::new(&index);
        let tree = fitter.fit_where(&labels, |_| true, 3, &TreeConfig::default());
        let stats = fitter.stats();
        assert_eq!(stats.cv_tree_fits, 1);
        assert_eq!(stats.cv_nodes as usize, tree.nodes.len());
        // Root: 18 + 18 non-zeros (each column's two jitter-free rows
        // at 0 are zeros); its impure right child (x ≈ 1): 10 + 9.
        assert_eq!(stats.cv_entries_scanned, 36 + 19);
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Few distinct values, half of them zero, some negative: heavy
        /// ties within every column and duplicate rows across them.
        fn cell() -> impl Strategy<Value = f64> {
            (-3i32..9).prop_map(|v| if v > 3 { 0.0 } else { f64::from(v) / 2.0 })
        }

        fn dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>)> {
            (1usize..5, 2usize..40, 0usize..12).prop_flat_map(|(d, n, copies)| {
                (
                    prop::collection::vec(prop::collection::vec(cell(), d), n),
                    prop::collection::vec(0usize..4, n + copies),
                )
                    .prop_map(move |(mut rows, labels)| {
                        // Exact duplicate rows, with labels of their own.
                        for i in 0..copies {
                            rows.push(rows[i * 5 % n].clone());
                        }
                        (rows, labels)
                    })
            })
        }

        fn config() -> impl Strategy<Value = TreeConfig> {
            (
                prop_oneof![0usize..7, Just(usize::MAX)],
                1usize..5,
                prop_oneof![Just(0.0), Just(1e-7), Just(0.05)],
                any::<bool>(),
            )
                .prop_map(|(max_depth, min_samples_leaf, min_gain, gini)| TreeConfig {
                    max_depth,
                    min_samples_leaf,
                    min_gain,
                    criterion: if gini {
                        Criterion::Gini
                    } else {
                        Criterion::Entropy
                    },
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn indexed_fit_equals_per_node_sort_reference(
                (rows, labels) in dataset(),
                cfg in config(),
            ) {
                let m = DenseMatrix::from_rows(&rows);
                prop_assert_eq!(
                    DecisionTree::fit(&m, &labels, 4, &cfg),
                    DecisionTree::fit_reference(&m, &labels, 4, &cfg)
                );
            }

            #[test]
            fn row_subset_fit_equals_fit_on_the_copied_rows(
                (rows, labels) in dataset(),
                cfg in config(),
                masks in prop::collection::vec(prop::collection::vec(any::<bool>(), 52), 3),
            ) {
                let m = DenseMatrix::from_rows(&rows);
                let index = ColumnIndex::build(&m);
                // One fitter for all subsets: buffers carry over.
                let mut fitter = TreeFitter::new(&index);
                for mask in &masks {
                    let kept: Vec<usize> = (0..rows.len()).filter(|&r| mask[r]).collect();
                    if kept.is_empty() {
                        continue;
                    }
                    let kept_labels: Vec<usize> = kept.iter().map(|&r| labels[r]).collect();
                    prop_assert_eq!(
                        fitter.fit_where(&labels, |r| mask[r], 4, &cfg),
                        DecisionTree::fit_reference(&m.select_rows(&kept), &kept_labels, 4, &cfg)
                    );
                }
            }
        }
    }
}
