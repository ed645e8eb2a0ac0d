//! K-means kernel performance gate and reproduction artifact.
//!
//! Times the Table I K sweep on the paper-scale cohort (6,380 patients ×
//! 159 exam types) across five Lloyd variants sharing identical initial
//! centroids:
//!
//! * `reference` — the retained seed implementation (straight full-scan
//!   Lloyd, no norm cache, unconditional final re-assign);
//! * `serial_unpruned` — the shared kernel, dot-product distance form
//!   over cached row norms, pruning off;
//! * `serial_pruned` — the kernel with Hamerly bound pruning;
//! * `parallel_pruned` — the kernel with pruning and one worker per
//!   available core;
//! * `sparse_pruned` — `serial_pruned` over the matrix's non-zero view
//!   (`DenseMatrix::sparse_rows`), the rows the batch pipeline passes.
//!
//! The four kernel variants are checked pairwise **bit-identical**
//! (assignments, centroids, SSE, iterations — and, dense against sparse
//! rows, every kernel counter) before any timing is trusted; a mismatch
//! exits non-zero. The reference variant is *not*
//! compared bitwise: L2-normalized count vectors are riddled with
//! real-arithmetic distance ties (duplicate patient profiles, exact
//! `d² = 2` orthogonal pairs), and the reference's `(x − c)²` form
//! rounds those ties differently from the kernel's dot form, so the
//! two can settle into different local optima of similar quality. The
//! gate only requires the kernel's converged SSE to be within 15% of
//! the reference's (a broken kernel fails by far more).
//!
//! Modes:
//!
//! * full (default): paper-scale sweep, writes `BENCH_kmeans.json`
//!   (override the path with `--out PATH`) including a row-parallel
//!   scaling column — the pruned kernel timed at a fixed 1/2/4/8
//!   worker ladder (plus the core count when distinct), every point
//!   verified bit-identical to the serial run;
//! * `--quick`: reduced cohort and K set for CI — fails (non-zero exit)
//!   on any kernel mismatch, when the pruned kernel regresses to more
//!   than 2× the reference wall time, or when sparse rows are slower
//!   than dense rows. No JSON is written.
//!
//! Run: `cargo run -p ada-bench --release --bin kmeans_perf [-- --quick]`

use std::fmt::Write as _;
use std::time::Instant;

use ada_bench::{bench_log, paper_log};
use ada_mining::kmeans::{init, lloyd, KMeans, KMeansInit, KMeansResult, KernelStats};
use ada_vsm::{DenseMatrix, VsmBuilder};

/// Wall-clock repetitions per (variant, K); the minimum is reported.
const REPS: usize = 3;

struct KReport {
    k: usize,
    iterations: usize,
    reference_iterations: usize,
    sse: f64,
    reference_ms: f64,
    serial_unpruned_ms: f64,
    serial_pruned_ms: f64,
    parallel_pruned_ms: f64,
    sparse_pruned_ms: f64,
    distance_evals_unpruned: u64,
    distance_evals_pruned: u64,
    bound_skips: u64,
    /// Pruned-kernel wall time at each explicit worker count
    /// (`(threads, ms)`), bit-identical to the serial result at every
    /// point. Empty in quick mode.
    row_parallel_scaling: Vec<(usize, f64)>,
}

fn best_of<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = run();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("at least one rep"))
}

fn sweep_k(matrix: &DenseMatrix, k: usize, threads: usize, scaling: &[usize]) -> KReport {
    let start = init::initial_centroids(matrix, k, KMeansInit::KMeansPlusPlus, 0);

    let (reference_ms, reference) = best_of(REPS, || {
        lloyd::run_reference(matrix, start.clone(), 100, 1e-6)
    });
    let variant = |prune: bool, threads: usize| -> (f64, (KMeansResult, KernelStats)) {
        let config = KMeans::new(k).prune(prune).threads(threads);
        best_of(REPS, || config.fit_with_stats(matrix))
    };
    let (serial_unpruned_ms, (unpruned, unpruned_stats)) = variant(false, 1);
    let (serial_pruned_ms, (pruned, pruned_stats)) = variant(true, 1);
    let (parallel_pruned_ms, (parallel, _)) = variant(true, threads);
    let (sparse_pruned_ms, sparse) = {
        let rows = matrix.sparse_rows();
        let config = KMeans::new(k);
        best_of(REPS, || config.fit_rows(&rows))
    };

    // Row-parallel scaling column (ROADMAP open item): the pruned
    // kernel at each explicit worker count, every point checked
    // bit-identical against the serial run before its timing counts.
    let row_parallel_scaling: Vec<(usize, f64)> = scaling
        .iter()
        .map(|&t| {
            let (ms, (result, _)) = variant(true, t);
            assert_eq!(pruned, result, "k = {k}: {t} workers changed the result");
            (t, ms)
        })
        .collect();

    // Correctness gates: the kernel variants must be bit-identical.
    assert_eq!(unpruned, pruned, "k = {k}: pruning changed the result");
    assert_eq!(pruned, parallel, "k = {k}: threading changed the result");
    assert_eq!(
        (&pruned, &pruned_stats),
        (&sparse.0, &sparse.1),
        "k = {k}: sparse rows changed the result"
    );
    assert_eq!(
        pruned.fingerprint(),
        sparse.0.fingerprint(),
        "k = {k}: sparse rows changed a bit `==` cannot see"
    );
    // The seed reference must agree on solution *quality*, not bitwise:
    // tie rounding differs between the distance forms (module docs), so
    // the two trajectories may settle in different local optima. A
    // broken kernel overshoots this sanity band by far more.
    let sse_gap = (reference.sse - pruned.sse).abs() / (1.0 + reference.sse);
    assert!(
        sse_gap < 0.15,
        "k = {k}: reference SSE {} vs kernel SSE {}",
        reference.sse,
        pruned.sse
    );

    KReport {
        k,
        iterations: pruned.iterations,
        reference_iterations: reference.iterations,
        sse: pruned.sse,
        reference_ms,
        serial_unpruned_ms,
        serial_pruned_ms,
        parallel_pruned_ms,
        sparse_pruned_ms,
        distance_evals_unpruned: unpruned_stats.distance_evals,
        distance_evals_pruned: pruned_stats.distance_evals,
        bound_skips: pruned_stats.bound_skips,
        row_parallel_scaling,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kmeans.json".to_string());

    let threads_available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (log, ks): (_, Vec<usize>) = if quick {
        (bench_log(), vec![8, 16])
    } else {
        (paper_log(), vec![6, 7, 8, 9, 10, 12, 15, 20])
    };
    // Scaling points: a fixed 1/2/4/8 worker ladder (plus the core
    // count when it isn't a ladder point). The kernel is bit-identical
    // at every worker count, so oversubscribed points are still valid
    // measurements — on a small box they show the scheduling overhead
    // honestly instead of collapsing the column to a single entry.
    let scaling_threads: Vec<usize> = if quick {
        Vec::new()
    } else {
        let mut points = vec![1, 2, 4, 8];
        if !points.contains(&threads_available) {
            points.push(threads_available);
            points.sort_unstable();
        }
        points
    };
    let pv = VsmBuilder::new().normalize(true).build(&log);
    let matrix = &pv.matrix;
    let cells = matrix.num_rows() * matrix.num_cols();
    let zero_share = 1.0 - matrix.sparse_rows().nnz() as f64 / cells.max(1) as f64;
    println!(
        "kmeans_perf ({} mode): {} x {} matrix ({:.1}% zeros), {} core(s), ks {:?}",
        if quick { "quick" } else { "full" },
        matrix.num_rows(),
        matrix.num_cols(),
        100.0 * zero_share,
        threads_available,
        ks
    );
    println!(
        "{:>4} {:>6} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9} {:>8}",
        "K",
        "iters",
        "ref ms",
        "serial ms",
        "pruned ms",
        "par ms",
        "sparse ms",
        "dist-eval",
        "skip%"
    );

    let reports: Vec<KReport> = ks
        .iter()
        .map(|&k| sweep_k(matrix, k, 0, &scaling_threads))
        .collect();
    for r in &reports {
        let skip_pct =
            100.0 * r.bound_skips as f64 / (r.bound_skips + r.distance_evals_pruned).max(1) as f64;
        println!(
            "{:>4} {:>6} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>9} {:>8.1}",
            r.k,
            r.iterations,
            r.reference_ms,
            r.serial_unpruned_ms,
            r.serial_pruned_ms,
            r.parallel_pruned_ms,
            r.sparse_pruned_ms,
            r.distance_evals_pruned,
            skip_pct
        );
        if !r.row_parallel_scaling.is_empty() {
            let column: Vec<String> = r
                .row_parallel_scaling
                .iter()
                .map(|(t, ms)| format!("{t}w {ms:.1} ms"))
                .collect();
            println!("     row-parallel scaling: {}", column.join(", "));
        }
    }

    let total = |f: fn(&KReport) -> f64| -> f64 { reports.iter().map(f).sum() };
    let reference_ms = total(|r| r.reference_ms);
    let serial_pruned_ms = total(|r| r.serial_pruned_ms);
    let parallel_pruned_ms = total(|r| r.parallel_pruned_ms);
    let sparse_pruned_ms = total(|r| r.sparse_pruned_ms);
    let best_ms = serial_pruned_ms.min(parallel_pruned_ms);
    let speedup_serial = reference_ms / serial_pruned_ms;
    let speedup_best = reference_ms / best_ms;
    println!(
        "sweep totals: reference {reference_ms:.0} ms, pruned serial {serial_pruned_ms:.0} ms, \
         pruned parallel {parallel_pruned_ms:.0} ms => {speedup_best:.2}x speedup; \
         pruned serial over sparse rows {sparse_pruned_ms:.0} ms"
    );

    if quick {
        // CI regression gate: a broken or degenerate kernel shows up as
        // the pruned path losing badly to the seed reference.
        if serial_pruned_ms > 2.0 * reference_ms {
            eprintln!(
                "FAIL: pruned kernel regressed: {serial_pruned_ms:.0} ms vs reference \
                 {reference_ms:.0} ms (> 2x)"
            );
            std::process::exit(1);
        }
        if sparse_pruned_ms > serial_pruned_ms {
            eprintln!(
                "FAIL: sparse rows are slower than dense rows: {sparse_pruned_ms:.0} ms vs \
                 {serial_pruned_ms:.0} ms"
            );
            std::process::exit(1);
        }
        println!(
            "quick gate passed (kernel exact, within 2x of reference, sparse rows faster than dense)."
        );
        return;
    }

    // Full mode: emit the reproduction artifact.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"kmeans_perf\",");
    let _ = writeln!(json, "  \"dataset\": \"paper-scale synthetic cohort\",");
    let _ = writeln!(json, "  \"rows\": {},", matrix.num_rows());
    let _ = writeln!(json, "  \"cols\": {},", matrix.num_cols());
    let _ = writeln!(json, "  \"zero_share\": {zero_share:.4},");
    // The box the artifact was taken on: its processor model as Linux
    // reports it (the timings mean nothing without it).
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                Some(
                    line.strip_prefix("model name")?
                        .split_once(':')?
                        .1
                        .trim()
                        .to_string(),
                )
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let _ = writeln!(json, "  \"cpu\": {cpu:?},");
    let _ = writeln!(json, "  \"threads_available\": {threads_available},");
    let _ = writeln!(json, "  \"timing_reps\": {REPS},");
    let _ = writeln!(json, "  \"per_k\": [");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 == reports.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"k\": {}, \"iterations\": {}, \"reference_iterations\": {}, \"sse\": {:.4}, \
             \"reference_ms\": {:.2}, \"serial_unpruned_ms\": {:.2}, \
             \"serial_pruned_ms\": {:.2}, \"parallel_pruned_ms\": {:.2}, \
             \"sparse_pruned_ms\": {:.2}, \"distance_evals_unpruned\": {}, \"distance_evals_pruned\": {}, \
             \"bound_skips\": {}, \"row_parallel_scaling\": [{}]}}{comma}",
            r.k,
            r.iterations,
            r.reference_iterations,
            r.sse,
            r.reference_ms,
            r.serial_unpruned_ms,
            r.serial_pruned_ms,
            r.parallel_pruned_ms,
            r.sparse_pruned_ms,
            r.distance_evals_unpruned,
            r.distance_evals_pruned,
            r.bound_skips,
            r.row_parallel_scaling
                .iter()
                .map(|(t, ms)| format!("{{\"threads\": {t}, \"ms\": {ms:.2}}}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"total_reference_ms\": {reference_ms:.2},");
    let _ = writeln!(json, "  \"total_serial_pruned_ms\": {serial_pruned_ms:.2},");
    let _ = writeln!(
        json,
        "  \"total_parallel_pruned_ms\": {parallel_pruned_ms:.2},"
    );
    let _ = writeln!(json, "  \"total_sparse_pruned_ms\": {sparse_pruned_ms:.2},");
    let _ = writeln!(json, "  \"speedup_serial_pruned\": {speedup_serial:.3},");
    let _ = writeln!(json, "  \"speedup_best\": {speedup_best:.3}");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("writing the benchmark artifact");
    println!("wrote {out_path}");
    if speedup_best < 3.0 {
        eprintln!("WARN: speedup {speedup_best:.2}x is below the 3x acceptance target");
    }
}
