//! The shared K-means hot path: a deterministic, multi-core Lloyd
//! kernel with Hamerly-style bound pruning, where an iteration costs
//! what moved in it.
//!
//! 1. **Dot-product distances.** `d²(x, c) = ‖x‖² − 2·x·c + ‖c‖²`,
//!    with `‖x‖²` served from [`DenseMatrix::row_norms_sq`]'s
//!    once-per-matrix cache (shared across a whole K sweep) and
//!    `‖c‖²` recomputed once per iteration. The inner loop degenerates
//!    to one dot product.
//! 2. **Hamerly bounds.** Every point tracks an upper bound `u` on the
//!    distance to its assigned centroid and a lower bound `l` on the
//!    distance to the second-closest one. After a centroid update the
//!    bounds are inflated by the per-centroid movement (`u += δ_a`,
//!    `l −= max_c δ_c`); while `u ≤ max(l, s(a))` holds — where
//!    `s(c) = ½·min_{c'≠c} d(c, c')` is the centroid separation radius,
//!    recomputed each iteration for O(k²·d) — the point's assignment
//!    cannot change and the k-way scan is skipped. Empty-cluster repair
//!    invalidates the moved points' bounds.
//! 3. **A staged assign pass.** Each chunk of rows runs the pass in
//!    three stages over a shrinking list of rows: the bound test, from
//!    the bounds alone; one exact distance to the assigned centroid and
//!    a retest, for the rows the test failed; the full k-way scan, for
//!    the rows that still fail, picking best and second-best by selects
//!    rather than branches. Over a sparse row the scan reads the
//!    iteration's centroids transposed, `[block][column][4]`
//!    ([`ScanCentroids`]), so a non-zero's products with four centroids
//!    are one contiguous load; every lane still sums in non-zero order,
//!    so each dot product keeps its bits.
//! 4. **Partial sums kept across iterations.** Rows are processed in
//!    fixed chunks of [`CHUNK_ROWS`]. Each `(chunk, centroid)` pair
//!    keeps its members' sums and count from one iteration to the next;
//!    an iteration sums again only the pairs a row moved into or out
//!    of (by the scan or by a repair) and folds again, in chunk order
//!    from `+0.0`, only the centroids with such a pair ([`Partials`]).
//!    Where today's pairs equal last iteration's, so do their bits.
//!
//! The floating-point reduction tree is a function of the row count
//! alone — never of the thread count, of scheduling, or of which pairs
//! were summed again — so serial and parallel fits, and kept and
//! from-scratch sums, are byte-identical. Pruning is exact in exact
//! arithmetic; the scan compares dot-form distances, whose rounding
//! error grows with `‖x‖²`, so where centroids sit closer together
//! than that error (stacked on duplicate rows) a skip can keep an
//! assignment that a scan would flip on rounding noise, and pruned and
//! unpruned fits of such data can differ.
//!
//! The fixed chunk association means the kernel's centroids can differ
//! from a straight left-to-right fold in the last ulp; the retained
//! seed implementation ([`super::lloyd::run_reference`]) exists as the
//! plain baseline for benchmarks and equivalence tests.
//!
//! # Row storage
//!
//! Every function that visits rows is generic over a
//! [`RowStore`](super::rows::RowStore): there is one kernel body, and
//! the caller's argument type picks how a row is read — all cells of a
//! `DenseMatrix`, or only the non-zeros of its
//! [`SparseRows`](ada_vsm::SparseRows) view. The assignment scan, the
//! Hamerly tighten distance and the centroid accumulation are the
//! `O(rows · k · cols)` part and go through the row; they return the
//! same bits for either storage (see [`super::rows`]), so a fit does
//! too. Everything off that path — per-point SSE, empty-cluster repair,
//! the `O(k · cols)` centroid arithmetic — reads dense cells through
//! [`RowStore::dense`](super::rows::RowStore::dense).

use ada_vsm::dense::{distance_sq, dot, DenseMatrix};

use super::rows::{KernelRow, RowStore, ScanCentroids};
use super::KMeansResult;

/// Fixed row-chunk size of the deterministic reduction. Chunk
/// boundaries — and therefore the floating-point reduction tree — are a
/// pure function of the row count, independent of the thread budget.
pub(crate) const CHUNK_ROWS: usize = 256;

/// Instrumentation counters of one kernel run.
///
/// Purely observational: the counters are accumulated alongside the
/// arithmetic the kernel performs anyway, so collecting them never
/// changes assignments, centroids, SSE, or the iteration count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Exact point-to-centroid distance evaluations performed.
    pub distance_evals: u64,
    /// Points whose k-way scan was skipped by the Hamerly bound test
    /// (either disjunct: lower bound or separation radius).
    pub bound_skips: u64,
    /// Skips attributable to the centroid-separation radius alone (the
    /// lower-bound test had already failed); a subset of `bound_skips`.
    pub sep_test_hits: u64,
    /// Points that paid for the full k-way assignment scan.
    pub rows_scanned: u64,
    /// Lloyd iterations executed (mirrors `KMeansResult::iterations`).
    pub iterations: u64,
    /// Row chunks processed across every assignment pass (the unit of
    /// the deterministic parallel reduction).
    pub chunks: u64,
}

impl KernelStats {
    /// Adds every counter of `other` into `self` (aggregation across
    /// the runs of a sweep or a partial-mining ladder).
    pub fn merge(&mut self, other: &KernelStats) {
        self.distance_evals += other.distance_evals;
        self.bound_skips += other.bound_skips;
        self.sep_test_hits += other.sep_test_hits;
        self.rows_scanned += other.rows_scanned;
        self.iterations += other.iterations;
        self.chunks += other.chunks;
    }

    /// The counters as named pairs, in a stable order — the shape
    /// observer events and session documents carry.
    pub fn as_pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("iterations", self.iterations),
            ("rows_scanned", self.rows_scanned),
            ("distance_evals", self.distance_evals),
            ("bound_skips", self.bound_skips),
            ("sep_test_hits", self.sep_test_hits),
            ("chunks", self.chunks),
        ]
    }
}

/// Execution options of the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelOpts {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Enable Hamerly bound pruning.
    pub prune: bool,
}

/// Resolves the effective worker count: `0` means one per available
/// core, and tiny inputs are kept serial (same output either way).
pub(crate) fn effective_threads(requested: usize, rows: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    t.clamp(1, rows.div_ceil(CHUNK_ROWS).max(1))
}

/// Runs each task through `body`, returning results in task order.
///
/// Tasks are split into at most `threads` contiguous groups; each
/// worker processes its group in order and the groups are joined in
/// spawn order, so the output sequence — and any reduction folded over
/// it — is identical for every thread count.
pub(crate) fn run_chunks<T, R, F>(threads: usize, tasks: Vec<T>, body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        return tasks.into_iter().map(body).collect();
    }
    let base = n / workers;
    let rem = n % workers;
    let mut iter = tasks.into_iter();
    let groups: Vec<Vec<T>> = (0..workers)
        .map(|g| iter.by_ref().take(base + usize::from(g < rem)).collect())
        .collect();
    let body = &body;
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| scope.spawn(move || group.into_iter().map(body).collect::<Vec<R>>()))
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("kernel worker panicked"));
        }
    });
    out
}

/// What every chunk of one assign pass reads: the rows, their cached
/// norms, and the iteration's centroids with their norms and separation
/// radii (`O(k · cols + k² · cols)`, once per iteration).
struct Pass<'a, R> {
    rows: &'a R,
    xnorms: &'a [f64],
    centroids: ScanCentroids<'a>,
    cnorms: Vec<f64>,
    seps: Vec<f64>,
    prune: bool,
}

impl<'a, R: RowStore> Pass<'a, R> {
    fn new(rows: &'a R, xnorms: &'a [f64], centroids: &'a DenseMatrix, prune: bool) -> Self {
        let k = centroids.num_rows();
        Self {
            rows,
            xnorms,
            centroids: ScanCentroids::new(centroids),
            cnorms: centroids.rows_iter().map(|c| dot(c, c)).collect(),
            seps: if prune {
                separations(centroids)
            } else {
                vec![0.0; k]
            },
            prune,
        }
    }

    /// The Hamerly test of a row with bounds `u`, `l`, assigned to `a`:
    /// whether it must go on to the next stage. The assignment cannot
    /// change while `u` stays under the second-closest lower bound `l`
    /// (`<=`: its equality case is the last scan's own tie, already
    /// broken to the lowest index) or *strictly* under the assigned
    /// centroid's separation radius (`<`: equality there is an exact
    /// midpoint tie that a rescan may break to a lower-indexed
    /// centroid). Counts a skip into `stats`, and separately a skip the
    /// separation radius alone carried.
    #[inline]
    fn fails_bounds(&self, u: f64, l: f64, a: usize, stats: &mut KernelStats) -> bool {
        let s = self.seps[a];
        let skip = u <= l || u < s;
        stats.bound_skips += u64::from(skip);
        stats.sep_test_hits += u64::from(u > l && u < s);
        !skip
    }
}

/// Keeps, in order, those of the first `n` row offsets in `open` for
/// which `fails` holds and returns how many: a store and an add per
/// row, no branch.
fn compact(open: &mut [usize], n: usize, mut fails: impl FnMut(usize) -> bool) -> usize {
    let mut kept = 0;
    for p in 0..n {
        let i = open[p];
        open[kept] = i;
        kept += usize::from(fails(i));
    }
    kept
}

/// Every fixed chunk's member sums and counts per centroid, kept across
/// iterations. A `(chunk, centroid)` pair's sums are a fold from `+0.0`
/// over its members in row order — a function of the pair's membership
/// alone — so a pair whose membership did not change keeps its bits,
/// and only the pairs an assign pass (or an empty-cluster repair) moved
/// a row into or out of are summed again. A centroid's total is the
/// fold of its pairs in chunk order from `+0.0`, redone only for a
/// centroid with a re-summed pair: the same reduction tree, and the
/// same bits, as summing every chunk afresh each iteration.
struct Partials {
    dim: usize,
    chunks: Vec<ChunkSums>,
    /// `[centroid][column]`: what the centroid update reads, and what an
    /// empty-cluster repair edits in place (the pairs it moved are
    /// marked dirty, so the edited totals are folded again).
    totals: Vec<f64>,
    /// `[centroid]`.
    total_counts: Vec<usize>,
    /// Pairs summed so far.
    refreshed: u64,
}

/// One chunk's pairs of [`Partials`], indexed by centroid.
struct ChunkSums {
    /// `[centroid][column]`.
    sums: Vec<f64>,
    counts: Vec<usize>,
    /// The pair's membership changed since it was last summed.
    dirty: Vec<bool>,
}

impl Partials {
    /// Every pair starts dirty: the first pass sums them all.
    fn new(chunks: usize, k: usize, dim: usize) -> Self {
        let chunk = || ChunkSums {
            sums: vec![0.0; k * dim],
            counts: vec![0; k],
            dirty: vec![true; k],
        };
        Self {
            dim,
            chunks: (0..chunks).map(|_| chunk()).collect(),
            totals: vec![0.0; k * dim],
            total_counts: vec![0; k],
            refreshed: 0,
        }
    }

    /// Row `r` moved from centroid `from` to `to` outside an assign pass
    /// (empty-cluster repair).
    fn moved(&mut self, r: usize, from: usize, to: usize) {
        let chunk = &mut self.chunks[r / CHUNK_ROWS];
        chunk.dirty[from] = true;
        chunk.dirty[to] = true;
    }

    /// Folds the totals of every centroid with a dirty pair, in chunk
    /// order, and clears the flags.
    fn fold(&mut self) {
        let dim = self.dim;
        for (c, count) in self.total_counts.iter_mut().enumerate() {
            if !self.chunks.iter().any(|chunk| chunk.dirty[c]) {
                continue;
            }
            let total = &mut self.totals[c * dim..(c + 1) * dim];
            total.fill(0.0);
            *count = 0;
            for chunk in &mut self.chunks {
                for (t, p) in total.iter_mut().zip(&chunk.sums[c * dim..(c + 1) * dim]) {
                    *t += p;
                }
                *count += chunk.counts[c];
                chunk.dirty[c] = false;
            }
        }
    }
}

impl ChunkSums {
    /// Sums the dirty pairs again from the chunk's rows (`start..` with
    /// `assign`), in row order from `+0.0`; returns how many pairs.
    fn refresh<R: RowStore>(&mut self, rows: &R, start: usize, assign: &[usize]) -> u64 {
        let dim = self.sums.len() / self.counts.len();
        let mut refreshed = 0;
        for (c, _) in self.dirty.iter().enumerate().filter(|(_, &d)| d) {
            self.sums[c * dim..(c + 1) * dim].fill(0.0);
            self.counts[c] = 0;
            refreshed += 1;
        }
        if refreshed > 0 {
            for (i, &a) in assign.iter().enumerate() {
                if self.dirty[a] {
                    self.counts[a] += 1;
                    rows.row(start + i)
                        .add_to(&mut self.sums[a * dim..(a + 1) * dim]);
                }
            }
        }
        refreshed
    }
}

/// Mutable per-chunk view of the assignment and bound state.
struct AssignChunk<'a> {
    start: usize,
    assign: &'a mut [usize],
    upper: &'a mut [f64],
    lower: &'a mut [f64],
    /// The chunk's partial sums; `None` on the settle pass, which
    /// updates no centroid.
    partial: Option<&'a mut ChunkSums>,
}

/// One chunk of an assign pass, in three stages over a shrinking list
/// of row offsets (compacted without a branch): the bound test from the
/// bounds alone; for the rows it failed, one exact distance to the
/// assigned centroid and a retest; for the rows that still fail, the
/// full k-way scan. Then the pairs the scan moved rows between are
/// summed again. Returns the chunk's counters and re-summed pairs.
fn assign_chunk<R: RowStore>(pass: &Pass<'_, R>, chunk: AssignChunk<'_>) -> (KernelStats, u64) {
    let AssignChunk {
        start,
        assign,
        upper,
        lower,
        mut partial,
    } = chunk;
    let mut stats = KernelStats::default();
    let mut open: [usize; CHUNK_ROWS] = std::array::from_fn(|i| i);
    let mut n = assign.len();
    if pass.prune {
        n = compact(&mut open, n, |i| {
            pass.fails_bounds(upper[i], lower[i], assign[i], &mut stats)
        });
        // Tighten the upper bound with one exact distance to the
        // assigned centroid, then retest.
        stats.distance_evals += n as u64;
        n = compact(&mut open, n, |i| {
            let (r, a) = (start + i, assign[i]);
            let dot = pass.rows.row(r).dot8(pass.centroids.rows().row(a));
            upper[i] = (pass.xnorms[r] - 2.0 * dot + pass.cnorms[a])
                .max(0.0)
                .sqrt();
            pass.fails_bounds(upper[i], lower[i], a, &mut stats)
        });
    }
    let k = pass.cnorms.len();
    for &i in &open[..n] {
        let r = start + i;
        let xnorm = pass.xnorms[r];
        // Best and second-best by selects, not branches (ties resolve
        // to the lowest centroid index).
        let (mut best, mut best_d2, mut second_d2) = (0usize, f64::INFINITY, f64::INFINITY);
        pass.rows.row(r).for_each_dot(&pass.centroids, |c, dot| {
            let d2 = xnorm - 2.0 * dot + pass.cnorms[c];
            let better = c == 0 || d2 < best_d2;
            second_d2 = if better {
                best_d2
            } else if d2 < second_d2 {
                d2
            } else {
                second_d2
            };
            best_d2 = if better { d2 } else { best_d2 };
            best = if better { c } else { best };
        });
        if let Some(partial) = partial.as_mut() {
            let moved = assign[i] != best;
            partial.dirty[assign[i]] |= moved;
            partial.dirty[best] |= moved;
        }
        assign[i] = best;
        upper[i] = best_d2.max(0.0).sqrt();
        lower[i] = second_d2.max(0.0).sqrt();
    }
    stats.distance_evals += (n * k) as u64;
    stats.rows_scanned += n as u64;
    let refreshed = partial.map_or(0, |p| p.refresh(pass.rows, start, assign));
    (stats, refreshed)
}

/// One assign pass over all rows, chunk by chunk on `threads` workers.
/// With `partials`, the pass also brings the per-chunk partial sums and
/// the per-centroid totals up to date with the new assignments.
fn assign_step<R: RowStore>(
    pass: &Pass<'_, R>,
    assignments: &mut [usize],
    upper: &mut [f64],
    lower: &mut [f64],
    mut partials: Option<&mut Partials>,
    threads: usize,
    stats: &mut KernelStats,
) {
    let tasks: Vec<AssignChunk> = {
        let mut cache = partials.as_deref_mut().map(|p| p.chunks.iter_mut());
        assignments
            .chunks_mut(CHUNK_ROWS)
            .zip(upper.chunks_mut(CHUNK_ROWS))
            .zip(lower.chunks_mut(CHUNK_ROWS))
            .enumerate()
            .map(|(c, ((assign, upper), lower))| AssignChunk {
                start: c * CHUNK_ROWS,
                assign,
                upper,
                lower,
                partial: cache.as_mut().and_then(Iterator::next),
            })
            .collect()
    };
    stats.chunks += tasks.len() as u64;
    let mut refreshed = 0;
    for (chunk_stats, pairs) in run_chunks(threads, tasks, |chunk| assign_chunk(pass, chunk)) {
        stats.merge(&chunk_stats);
        refreshed += pairs;
    }
    if let Some(partials) = partials {
        partials.refreshed += refreshed;
        partials.fold();
    }
}

/// Chunk-ordered serial accumulation of member sums and counts, summed
/// afresh — the reduction tree the kernel's kept partial sums fold, so
/// [`lloyd::run_reference`](super::lloyd::run_reference), which
/// accumulates outside the kernel, produces bit-identical centroids.
pub(crate) fn accumulate<R: RowStore>(
    rows: &R,
    assignments: &[usize],
    k: usize,
) -> (Vec<f64>, Vec<usize>) {
    let dim = rows.dense().num_cols();
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    for (chunk_idx, chunk) in assignments.chunks(CHUNK_ROWS).enumerate() {
        let mut part_sums = vec![0.0; k * dim];
        let mut part_counts = vec![0usize; k];
        let start = chunk_idx * CHUNK_ROWS;
        for (i, &a) in chunk.iter().enumerate() {
            part_counts[a] += 1;
            rows.row(start + i)
                .add_to(&mut part_sums[a * dim..(a + 1) * dim]);
        }
        for (s, p) in sums.iter_mut().zip(&part_sums) {
            *s += p;
        }
        for (c, p) in counts.iter_mut().zip(&part_counts) {
            *c += p;
        }
    }
    (sums, counts)
}

/// The result of one centroid update.
pub(crate) struct UpdateOutcome {
    /// Total squared centroid movement (the convergence monitor).
    pub movement: f64,
    /// Per-centroid movement distance `‖Δc‖` (bound inflation).
    pub deltas: Vec<f64>,
    /// Rows reassigned by empty-cluster repair, each with the cluster
    /// it left (their bounds and partial sums are stale).
    pub repaired: Vec<(usize, usize)>,
}

/// Finalizes a centroid update from accumulated member sums: repairs
/// empty clusters by stealing the globally farthest point (one per
/// empty cluster, deterministic), writes the new centroids, and reports
/// the per-centroid movement.
pub(crate) fn finalize_update(
    matrix: &DenseMatrix,
    assignments: &mut [usize],
    centroids: &mut DenseMatrix,
    sums: &mut [f64],
    counts: &mut [usize],
) -> UpdateOutcome {
    let k = centroids.num_rows();
    let dim = centroids.num_cols();
    let mut repaired = Vec::new();

    let empties: Vec<usize> = (0..k).filter(|&c| counts[c] == 0).collect();
    if !empties.is_empty() {
        let mut donors: Vec<(f64, usize)> = assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| counts[a] > 1)
            .map(|(i, &a)| (distance_sq(matrix.row(i), centroids.row(a)), i))
            .collect();
        donors.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite distances"));
        let mut donor_iter = donors.into_iter();
        for empty in empties {
            // Find the next donor whose cluster can still give a point.
            for (_, i) in donor_iter.by_ref() {
                let old = assignments[i];
                if counts[old] <= 1 {
                    continue;
                }
                counts[old] -= 1;
                counts[empty] += 1;
                let row = matrix.row(i);
                for d in 0..dim {
                    sums[old * dim + d] -= row[d];
                    sums[empty * dim + d] += row[d];
                }
                assignments[i] = empty;
                repaired.push((i, old));
                break;
            }
        }
    }

    let mut movement = 0.0;
    let mut deltas = vec![0.0; k];
    for c in 0..k {
        if counts[c] == 0 {
            continue; // unrepairable (k > distinct points); keep position
        }
        let inv = 1.0 / counts[c] as f64;
        let target = centroids.row_mut(c);
        let mut delta_sq = 0.0;
        for d in 0..dim {
            let new = sums[c * dim + d] * inv;
            let diff = new - target[d];
            delta_sq += diff * diff;
            target[d] = new;
        }
        movement += delta_sq;
        deltas[c] = delta_sq.sqrt();
    }
    UpdateOutcome {
        movement,
        deltas,
        repaired,
    }
}

/// Half the distance from each centroid to its nearest other centroid:
/// a point within `seps[a]` of centroid `a` provably has `a` as its
/// argmin (any other centroid is at least as far by the triangle
/// inequality). O(k²·d) — negligible next to the O(n·k·d) scan.
fn separations(centroids: &DenseMatrix) -> Vec<f64> {
    let k = centroids.num_rows();
    let mut seps = vec![f64::INFINITY; k];
    for a in 0..k {
        for b in a + 1..k {
            let d2 = distance_sq(centroids.row(a), centroids.row(b));
            if d2 < seps[a] {
                seps[a] = d2;
            }
            if d2 < seps[b] {
                seps[b] = d2;
            }
        }
    }
    for s in &mut seps {
        *s = 0.5 * s.sqrt(); // k == 1: stays infinite, always skips
    }
    seps
}

/// Inflates every point's bounds by the centroid movement of the last
/// update: `u += δ_assigned`, `l −= max_c δ_c`.
fn propagate_bounds(
    outcome: &UpdateOutcome,
    assignments: &[usize],
    upper: &mut [f64],
    lower: &mut [f64],
) {
    let dmax = outcome.deltas.iter().copied().fold(0.0, f64::max);
    if dmax == 0.0 {
        return;
    }
    for ((u, l), &a) in upper.iter_mut().zip(lower.iter_mut()).zip(assignments) {
        *u += outcome.deltas[a];
        *l -= dmax;
    }
}

/// Exact SSE of `assignments` against `centroids`, chunk-reduced
/// deterministically (per-point `distance_sq` — no cancellation).
pub(crate) fn sse_pass(
    matrix: &DenseMatrix,
    centroids: &DenseMatrix,
    assignments: &[usize],
    threads: usize,
) -> f64 {
    let tasks: Vec<(usize, &[usize])> = assignments
        .chunks(CHUNK_ROWS)
        .enumerate()
        .map(|(i, chunk)| (i * CHUNK_ROWS, chunk))
        .collect();
    let partials = run_chunks(threads, tasks, |(start, chunk): (usize, &[usize])| {
        let mut sse = 0.0;
        for (i, &a) in chunk.iter().enumerate() {
            sse += distance_sq(matrix.row(start + i), centroids.row(a));
        }
        sse
    });
    partials.into_iter().sum()
}

/// Runs the kernel from the given initial centroids.
///
/// Iteration semantics match the seed Lloyd loop (assign, update,
/// converge on `movement ≤ tol`); when the loop settles with *zero*
/// movement the last in-loop assignment is already consistent and no
/// final re-assignment pass runs — otherwise (non-zero converged
/// movement, or the max-iters path) assignments are settled against the
/// final centroids before the SSE pass.
pub(crate) fn run<R: RowStore>(
    rows: &R,
    centroids: DenseMatrix,
    max_iters: usize,
    tol: f64,
    opts: KernelOpts,
) -> (KMeansResult, KernelStats) {
    let (result, stats, _) = run_counted(rows, centroids, max_iters, tol, opts);
    (result, stats)
}

/// [`run`] plus the number of `(chunk, centroid)` pairs it summed.
fn run_counted<R: RowStore>(
    rows: &R,
    mut centroids: DenseMatrix,
    max_iters: usize,
    tol: f64,
    opts: KernelOpts,
) -> (KMeansResult, KernelStats, u64) {
    let matrix = rows.dense();
    let n = matrix.num_rows();
    let (k, dim) = (centroids.num_rows(), centroids.num_cols());
    let threads = effective_threads(opts.threads, n);
    let xnorms = matrix.row_norms_sq();

    let mut assignments = vec![0usize; n];
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![f64::NEG_INFINITY; n];
    let mut partials = Partials::new(n.div_ceil(CHUNK_ROWS), k, dim);
    let mut stats = KernelStats::default();
    let mut iterations = 0;
    let mut converged = false;
    let mut zero_movement = false;
    let mut pending: Option<UpdateOutcome> = None;

    while iterations < max_iters {
        if let Some(outcome) = pending.take() {
            propagate_bounds(&outcome, &assignments, &mut upper, &mut lower);
        }
        assign_step(
            &Pass::new(rows, xnorms, &centroids, opts.prune),
            &mut assignments,
            &mut upper,
            &mut lower,
            Some(&mut partials),
            threads,
            &mut stats,
        );
        let outcome = finalize_update(
            matrix,
            &mut assignments,
            &mut centroids,
            &mut partials.totals,
            &mut partials.total_counts,
        );
        for &(r, from) in &outcome.repaired {
            upper[r] = f64::INFINITY;
            lower[r] = f64::NEG_INFINITY;
            partials.moved(r, from, assignments[r]);
        }
        iterations += 1;
        let movement = outcome.movement;
        pending = Some(outcome);
        if movement <= tol {
            converged = true;
            zero_movement = movement == 0.0;
            break;
        }
    }

    if !(converged && zero_movement) {
        // The centroids moved after the last in-loop assignment (or the
        // loop never ran): settle assignments against the final
        // centroids so the reported vector is their argmin.
        if let Some(outcome) = pending.take() {
            propagate_bounds(&outcome, &assignments, &mut upper, &mut lower);
        }
        assign_step(
            &Pass::new(rows, xnorms, &centroids, opts.prune),
            &mut assignments,
            &mut upper,
            &mut lower,
            None,
            threads,
            &mut stats,
        );
    }
    let sse = sse_pass(matrix, &centroids, &assignments, threads);
    stats.iterations = iterations as u64;
    (
        KMeansResult {
            assignments,
            centroids,
            sse,
            iterations,
            converged,
        },
        stats,
        partials.refreshed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::testutil::gaussian_blobs;
    use crate::kmeans::{init, KMeansInit};

    fn opts(threads: usize, prune: bool) -> KernelOpts {
        KernelOpts { threads, prune }
    }

    #[test]
    fn pruned_parallel_matches_plain_serial_bitwise() {
        let m = gaussian_blobs(4, 60, 5, 41);
        let start = init::initial_centroids(&m, 4, KMeansInit::KMeansPlusPlus, 7);
        let (plain, _) = run(&m, start.clone(), 100, 1e-6, opts(1, false));
        for threads in [1, 2, 4, 7] {
            let (pruned, stats) = run(&m, start.clone(), 100, 1e-6, opts(threads, true));
            assert_eq!(plain, pruned, "threads = {threads}");
            assert!(stats.bound_skips > 0, "pruning never fired");
        }
    }

    #[test]
    fn pruning_reduces_distance_evaluations() {
        // A poor Forgy start forces a longer trajectory — the regime
        // where the bounds pay off (the first scan is never prunable).
        let m = gaussian_blobs(6, 80, 4, 42);
        let start = init::initial_centroids(&m, 6, KMeansInit::Forgy, 3);
        let (full_result, full) = run(&m, start.clone(), 100, 1e-6, opts(1, false));
        let (pruned_result, pruned) = run(&m, start, 100, 1e-6, opts(1, true));
        assert_eq!(full_result, pruned_result);
        assert!(
            pruned.distance_evals * 2 < full.distance_evals,
            "pruned {} vs full {} ({} iterations)",
            pruned.distance_evals,
            full.distance_evals,
            full_result.iterations
        );
    }

    #[test]
    fn run_chunks_preserves_order_across_thread_counts() {
        let tasks: Vec<usize> = (0..37).collect();
        let serial = run_chunks(1, tasks.clone(), |t| t * 2);
        for threads in [2, 3, 8, 64] {
            assert_eq!(serial, run_chunks(threads, tasks.clone(), |t| t * 2));
        }
    }

    #[test]
    fn zero_movement_exit_skips_final_reassign() {
        // A well-separated 2-blob instance converges to a fixed point:
        // the kernel must report converged with a consistent SSE.
        let m = gaussian_blobs(2, 40, 3, 43);
        let start = init::initial_centroids(&m, 2, KMeansInit::KMeansPlusPlus, 1);
        let (result, _) = run(&m, start, 100, 1e-6, opts(1, true));
        assert!(result.converged);
        let manual = sse_pass(&m, &result.centroids, &result.assignments, 1);
        assert_eq!(result.sse, manual);
    }

    #[test]
    fn max_iters_zero_still_assigns() {
        let m = gaussian_blobs(2, 10, 2, 44);
        let start = init::initial_centroids(&m, 2, KMeansInit::Forgy, 2);
        let (result, _) = run(&m, start.clone(), 0, 1e-6, opts(1, true));
        assert!(!result.converged);
        assert_eq!(result.iterations, 0);
        // Assignments are the argmin of the (unmoved) initial centroids.
        let mut reference = vec![0usize; m.num_rows()];
        crate::kmeans::lloyd::assign(&m, &start, &mut reference);
        assert_eq!(result.assignments, reference);
    }

    /// The kernel's Lloyd loop with nothing kept between iterations:
    /// the same assign passes (bounds, prune mode, one thread), but every
    /// centroid update sums every chunk afresh ([`accumulate`]).
    fn from_scratch<R: RowStore>(
        rows: &R,
        mut centroids: DenseMatrix,
        max_iters: usize,
        tol: f64,
        prune: bool,
    ) -> KMeansResult {
        let matrix = rows.dense();
        let n = matrix.num_rows();
        let xnorms = matrix.row_norms_sq();
        let (mut assignments, mut upper, mut lower) = (
            vec![0; n],
            vec![f64::INFINITY; n],
            vec![f64::NEG_INFINITY; n],
        );
        let mut pending: Option<UpdateOutcome> = None;
        let assign = |centroids: &DenseMatrix,
                      assignments: &mut [usize],
                      upper: &mut [f64],
                      lower: &mut [f64],
                      pending: Option<UpdateOutcome>| {
            if let Some(outcome) = pending {
                propagate_bounds(&outcome, assignments, upper, lower);
            }
            let pass = Pass::new(rows, xnorms, centroids, prune);
            let mut stats = KernelStats::default();
            assign_step(&pass, assignments, upper, lower, None, 1, &mut stats);
        };
        let (mut iterations, mut converged, mut zero_movement) = (0, false, false);
        while iterations < max_iters {
            assign(
                &centroids,
                &mut assignments,
                &mut upper,
                &mut lower,
                pending.take(),
            );
            let (mut sums, mut counts) = accumulate(rows, &assignments, centroids.num_rows());
            let outcome = finalize_update(
                matrix,
                &mut assignments,
                &mut centroids,
                &mut sums,
                &mut counts,
            );
            for &(r, _) in &outcome.repaired {
                upper[r] = f64::INFINITY;
                lower[r] = f64::NEG_INFINITY;
            }
            iterations += 1;
            let movement = outcome.movement;
            pending = Some(outcome);
            if movement <= tol {
                converged = true;
                zero_movement = movement == 0.0;
                break;
            }
        }
        if !(converged && zero_movement) {
            assign(
                &centroids,
                &mut assignments,
                &mut upper,
                &mut lower,
                pending.take(),
            );
        }
        let sse = sse_pass(matrix, &centroids, &assignments, 1);
        KMeansResult {
            assignments,
            centroids,
            sse,
            iterations,
            converged,
        }
    }

    /// `n` rows drawn from `distinct` profiles (mostly zeros, so the
    /// sparse view has something to skip; the rest full mantissas, so a
    /// changed summation shows in the bits): duplicates everywhere, and
    /// with K near `distinct` the starts stack centroids on one profile
    /// and empty clusters need repair.
    fn profiles(n: usize, dim: usize, distinct: usize, seed: u64) -> DenseMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<Vec<f64>> = (0..distinct)
            .map(|_| {
                (0..dim)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => (rng.gen::<f64>() - 0.4) * 10f64.powi(rng.gen_range(-2..3)),
                        _ => 0.0,
                    })
                    .collect()
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| pool[rng.gen_range(0..distinct)].clone())
            .collect();
        DenseMatrix::from_rows(&rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn kept_partial_sums_equal_a_from_scratch_fit(
            n in proptest::prop_oneof![1usize..40, 257usize..700],
            dim in 1usize..20,
            distinct in 1usize..12,
            k_pick in 0usize..1000,
            seed in 0u64..1000,
            init_idx in 0usize..3,
            max_iters in proptest::prop_oneof![1usize..4, 100usize..101],
        ) {
            let m = profiles(n, dim, distinct, seed);
            let k = 1 + k_pick % n.min(distinct + 2);
            let method = [KMeansInit::Forgy, KMeansInit::KMeansPlusPlus, KMeansInit::RandomPartition][init_idx];
            let start = init::initial_centroids(&m, k, method, seed);
            let rows = m.sparse_rows();
            for prune in [true, false] {
                let expected = from_scratch(&m, start.clone(), max_iters, 1e-6, prune);
                for threads in [1, 2, 7] {
                    for (storage, result) in [
                        ("dense", run(&m, start.clone(), max_iters, 1e-6, opts(threads, prune)).0),
                        ("sparse", run(&rows, start.clone(), max_iters, 1e-6, opts(threads, prune)).0),
                    ] {
                        proptest::prop_assert_eq!(
                            result.fingerprint(),
                            expected.fingerprint(),
                            "{} rows, prune {}, threads {}",
                            storage,
                            prune,
                            threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_converging_fit_sums_only_the_pairs_that_moved() {
        // Six blobs of 200 rows: five chunks, a Forgy start, no empty
        // cluster. `run_counted(t)` returns the pairs summed by t
        // iterations and, settled, the assignments of iteration t + 1.
        let m = gaussian_blobs(6, 200, 3, 46);
        let (k, chunks) = (6, m.num_rows().div_ceil(CHUNK_ROWS));
        let start = init::initial_centroids(&m, k, KMeansInit::Forgy, 5);
        let fit = |t| run_counted(&m, start.clone(), t, 0.0, opts(1, true));
        let (converged, _, total) = fit(100);
        assert!(converged.converged && converged.iterations > 3);
        let moved_pairs = |a: &[usize], b: &[usize]| {
            let mut moved = vec![false; chunks * k];
            for (r, (&x, &y)) in a.iter().zip(b).enumerate() {
                if x != y {
                    moved[r / CHUNK_ROWS * k + x] = true;
                    moved[r / CHUNK_ROWS * k + y] = true;
                }
            }
            moved.iter().filter(|&&m| m).count() as u64
        };
        assert_eq!(
            fit(1).2,
            (chunks * k) as u64,
            "the first pass sums every pair"
        );
        for t in 1..converged.iterations {
            let (before, _, summed) = fit(t - 1);
            let (after, _, summed_next) = fit(t);
            let (_, _, summed_after) = fit(t + 1);
            assert!(summed_next >= summed);
            assert_eq!(
                summed_after - summed_next,
                moved_pairs(&before.assignments, &after.assignments),
                "iteration {}",
                t + 1
            );
        }
        let (_, _, before_last) = fit(converged.iterations - 1);
        assert_eq!(total, before_last, "the converged pass sums nothing");
        assert!(total < (converged.iterations * chunks * k) as u64);
    }

    #[test]
    fn k_one_skips_after_first_scan() {
        let m = gaussian_blobs(1, 50, 3, 45);
        let start = init::initial_centroids(&m, 1, KMeansInit::Forgy, 1);
        let (result, stats) = run(&m, start, 100, 1e-6, opts(1, true));
        assert!(result.converged);
        assert!(result.assignments.iter().all(|&a| a == 0));
        assert!(stats.bound_skips > 0);
    }
}
