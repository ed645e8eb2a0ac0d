//! The shared K-means hot path: a deterministic, multi-core Lloyd
//! kernel with Hamerly-style bound pruning.
//!
//! Three independent accelerations compose here, all of them exact —
//! the kernel's output (assignments, centroids, SSE, iteration count)
//! is byte-identical whichever combination is enabled:
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
//!    provably cannot change and the k-way scan is skipped. A failed
//!    test first *tightens* `u` with one exact distance and retests
//!    before falling back to the full scan. Empty-cluster repair
//!    invalidates the moved points' bounds.
//! 3. **Chunked parallel reduction.** Rows are processed in fixed
//!    chunks of [`CHUNK_ROWS`]; each chunk emits private partial sums
//!    (centroid accumulators, counts, SSE) that are reduced **in chunk
//!    order** on the coordinating thread. Floating-point reduction
//!    order is therefore a function of the row count alone — never of
//!    the thread count or of scheduling — which is what makes the
//!    serial and parallel kernels byte-identical.
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

use super::rows::{KernelRow, RowStore};
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

/// Mutable per-chunk view of the assignment and bound state.
struct AssignChunk<'a> {
    start: usize,
    assign: &'a mut [usize],
    upper: &'a mut [f64],
    lower: &'a mut [f64],
}

/// Per-chunk partial results of one assign pass.
struct AssignPartial {
    sums: Vec<f64>,
    counts: Vec<usize>,
    distance_evals: u64,
    bound_skips: u64,
    sep_test_hits: u64,
    rows_scanned: u64,
}

/// One assignment pass over all rows, optionally fused with the
/// centroid accumulation (per-chunk partial sums reduced in chunk
/// order). Returns `(sums, counts)` — empty when `accumulate` is off.
#[allow(clippy::too_many_arguments)]
fn assign_step<R: RowStore>(
    rows: &R,
    xnorms: &[f64],
    centroids: &DenseMatrix,
    cnorms: &[f64],
    seps: &[f64],
    assignments: &mut [usize],
    upper: &mut [f64],
    lower: &mut [f64],
    opts: &KernelOpts,
    threads: usize,
    accumulate: bool,
    stats: &mut KernelStats,
) -> (Vec<f64>, Vec<usize>) {
    let k = centroids.num_rows();
    let dim = centroids.num_cols();

    let mut tasks = Vec::with_capacity(assignments.len().div_ceil(CHUNK_ROWS));
    let mut start = 0;
    let mut a_it = assignments.chunks_mut(CHUNK_ROWS);
    let mut u_it = upper.chunks_mut(CHUNK_ROWS);
    let mut l_it = lower.chunks_mut(CHUNK_ROWS);
    while let (Some(assign), Some(up), Some(lo)) = (a_it.next(), u_it.next(), l_it.next()) {
        let len = assign.len();
        tasks.push(AssignChunk {
            start,
            assign,
            upper: up,
            lower: lo,
        });
        start += len;
    }

    stats.chunks += tasks.len() as u64;
    let prune = opts.prune;
    let partials = run_chunks(threads, tasks, |chunk: AssignChunk| {
        let mut partial = AssignPartial {
            sums: vec![0.0; if accumulate { k * dim } else { 0 }],
            counts: vec![0usize; if accumulate { k } else { 0 }],
            distance_evals: 0,
            bound_skips: 0,
            sep_test_hits: 0,
            rows_scanned: 0,
        };
        for i in 0..chunk.assign.len() {
            let r = chunk.start + i;
            let row = rows.row(r);
            // Hamerly test: the assignment cannot change while the
            // upper bound stays under the second-closest lower bound
            // (`<=`: its equality case is the last scan's own tie,
            // already broken to the lowest index) or *strictly* under
            // the assigned centroid's separation radius (`<`: equality
            // there is an exact midpoint tie that a rescan may break to
            // a lower-indexed centroid).
            let low = chunk.lower[i];
            let passes = move |u: f64, a: usize| u <= low || (prune && u < seps[a]);
            // Pure accounting: a skip where the lower-bound disjunct
            // failed was carried by the separation radius alone.
            let sep_carried = move |u: f64, a: usize| u > low && u < seps[a];
            let skip = prune && passes(chunk.upper[i], chunk.assign[i]);
            if skip {
                partial.bound_skips += 1;
                if sep_carried(chunk.upper[i], chunk.assign[i]) {
                    partial.sep_test_hits += 1;
                }
            } else {
                let mut scan = true;
                if prune {
                    // Tighten the upper bound with one exact distance
                    // to the assigned centroid, then retest.
                    let a = chunk.assign[i];
                    let d = (xnorms[r] - 2.0 * row.dot8(centroids.row(a)) + cnorms[a])
                        .max(0.0)
                        .sqrt();
                    partial.distance_evals += 1;
                    chunk.upper[i] = d;
                    if passes(d, a) {
                        partial.bound_skips += 1;
                        if sep_carried(d, a) {
                            partial.sep_test_hits += 1;
                        }
                        scan = false;
                    }
                }
                if scan {
                    // Full k-way scan tracking best and second-best
                    // (ties resolve to the lowest centroid index).
                    let mut best = 0usize;
                    let mut best_d2 = f64::INFINITY;
                    let mut second_d2 = f64::INFINITY;
                    let xnorm = xnorms[r];
                    row.for_each_dot(centroids, |c, dot| {
                        let d2 = xnorm - 2.0 * dot + cnorms[c];
                        if c == 0 || d2 < best_d2 {
                            second_d2 = best_d2;
                            best_d2 = d2;
                            best = c;
                        } else if d2 < second_d2 {
                            second_d2 = d2;
                        }
                    });
                    partial.distance_evals += k as u64;
                    partial.rows_scanned += 1;
                    chunk.assign[i] = best;
                    chunk.upper[i] = best_d2.max(0.0).sqrt();
                    chunk.lower[i] = second_d2.max(0.0).sqrt();
                }
            }
            if accumulate {
                let a = chunk.assign[i];
                partial.counts[a] += 1;
                row.add_to(&mut partial.sums[a * dim..(a + 1) * dim]);
            }
        }
        partial
    });

    // Deterministic reduction: strictly in chunk order.
    let mut sums = vec![0.0; if accumulate { k * dim } else { 0 }];
    let mut counts = vec![0usize; if accumulate { k } else { 0 }];
    for partial in partials {
        stats.distance_evals += partial.distance_evals;
        stats.bound_skips += partial.bound_skips;
        stats.sep_test_hits += partial.sep_test_hits;
        stats.rows_scanned += partial.rows_scanned;
        if accumulate {
            for (s, p) in sums.iter_mut().zip(&partial.sums) {
                *s += p;
            }
            for (c, p) in counts.iter_mut().zip(&partial.counts) {
                *c += p;
            }
        }
    }
    (sums, counts)
}

/// Chunk-ordered serial accumulation of member sums and counts — the
/// same reduction tree the parallel assign pass uses, so
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
    /// Rows reassigned by empty-cluster repair (their bounds are stale).
    pub repaired: Vec<usize>,
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
                repaired.push(i);
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
    mut centroids: DenseMatrix,
    max_iters: usize,
    tol: f64,
    opts: KernelOpts,
) -> (KMeansResult, KernelStats) {
    let matrix = rows.dense();
    let n = matrix.num_rows();
    let k = centroids.num_rows();
    let threads = effective_threads(opts.threads, n);
    let xnorms = matrix.row_norms_sq();

    let mut assignments = vec![0usize; n];
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![f64::NEG_INFINITY; n];
    let mut stats = KernelStats::default();
    let mut iterations = 0;
    let mut converged = false;
    let mut zero_movement = false;
    let mut pending: Option<UpdateOutcome> = None;

    while iterations < max_iters {
        if let Some(outcome) = pending.take() {
            propagate_bounds(&outcome, &assignments, &mut upper, &mut lower);
        }
        let cnorms: Vec<f64> = (0..k)
            .map(|c| dot(centroids.row(c), centroids.row(c)))
            .collect();
        let seps = if opts.prune {
            separations(&centroids)
        } else {
            vec![0.0; k]
        };
        let (mut sums, mut counts) = assign_step(
            rows,
            xnorms,
            &centroids,
            &cnorms,
            &seps,
            &mut assignments,
            &mut upper,
            &mut lower,
            &opts,
            threads,
            true,
            &mut stats,
        );
        let outcome = finalize_update(
            matrix,
            &mut assignments,
            &mut centroids,
            &mut sums,
            &mut counts,
        );
        for &r in &outcome.repaired {
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
        // The centroids moved after the last in-loop assignment (or the
        // loop never ran): settle assignments against the final
        // centroids so the reported vector is their argmin.
        if let Some(outcome) = pending.take() {
            propagate_bounds(&outcome, &assignments, &mut upper, &mut lower);
        }
        let cnorms: Vec<f64> = (0..k)
            .map(|c| dot(centroids.row(c), centroids.row(c)))
            .collect();
        let seps = if opts.prune {
            separations(&centroids)
        } else {
            vec![0.0; k]
        };
        assign_step(
            rows,
            xnorms,
            &centroids,
            &cnorms,
            &seps,
            &mut assignments,
            &mut upper,
            &mut lower,
            &opts,
            threads,
            false,
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
