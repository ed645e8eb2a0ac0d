//! # ada-bench
//!
//! Benchmark harness reproducing every table and figure of the
//! ADA-HEALTH paper, plus Criterion micro-benchmarks for the ablations
//! DESIGN.md calls out.
//!
//! Reproduction binaries (each prints paper-vs-measured):
//!
//! * `table1` — Table I: the optimizer's K sweep (SSE, accuracy, AVG
//!   precision, AVG recall) with automatic K selection;
//! * `partial_mining` — the Section IV-B experiment: overall similarity
//!   at 20% / 40% / 100% of exam types and the ε = 5% subset selection;
//! * `pipeline_e2e` — Figure 1: runs every architecture box in order and
//!   prints the component trace.
//!
//! Criterion benches: `patterns` (Apriori vs FP-growth), `kdb`
//! (insert/query/index/replay), `vsm` (build + weighting variants),
//! `partial` (subset-mining speedup), `classifiers` (the four
//! robustness classifiers).

#![warn(missing_docs)]

use std::time::Instant;

use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::ExamLog;
use ada_kdb::Document;

/// The paper-scale cohort used by the reproduction binaries (seeded).
pub fn paper_log() -> ExamLog {
    generate(&SyntheticConfig::paper(), 42)
}

/// A reduced cohort for the Criterion micro-benchmarks (seeded).
pub fn bench_log() -> ExamLog {
    generate(
        &SyntheticConfig {
            num_patients: 1_500,
            num_exam_types: 159,
            target_records: 22_500,
            ..SyntheticConfig::paper()
        },
        42,
    )
}

/// SplitMix64 — the torture harnesses' only randomness, fully seed-driven.
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw below `n` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A synthetic patient record shaped like the paper's cohort rows.
pub fn patient_doc(rng: &mut Rng, i: usize) -> Document {
    Document::new()
        .with("patient", i as i64)
        .with("age", (18 + rng.below(80)) as i64)
        .with("gender", if rng.below(2) == 0 { "F" } else { "M" })
        .with("diagnosis", format!("D{:03}", rng.below(140)))
        .with("cost", (rng.below(500_000) as f64) / 100.0)
}

/// The median of `values` (upper median for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Interleaved short A/B pairs: each pair times one run of each variant
/// back to back — A first in even pairs, B first in odd ones — and the
/// overhead of B is the median of the per-pair ratios `B / A − 1`. Both
/// halves of a pair see the same machine, so a slow stretch of the box
/// cancels within the pair, and a burst of noise spoils the pairs it
/// lands in, not the estimate (a comparison of per-variant minima hangs
/// on the two luckiest runs). Returns `(median ms A, median ms B,
/// overhead, value A, value B)`, the values from the last pair.
pub fn paired_overhead<T>(
    pairs: usize,
    mut run_a: impl FnMut() -> T,
    mut run_b: impl FnMut() -> T,
) -> (f64, f64, f64, T, T) {
    let timed = |run: &mut dyn FnMut() -> T| {
        let t = Instant::now();
        let out = run();
        (t.elapsed().as_secs_f64() * 1e3, out)
    };
    let (mut ms_a, mut ms_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for pair in 0..pairs.max(1) {
        let ((a, out_a), (b, out_b)) = if pair % 2 == 0 {
            let a = timed(&mut run_a);
            (a, timed(&mut run_b))
        } else {
            let b = timed(&mut run_b);
            (timed(&mut run_a), b)
        };
        ms_a.push(a);
        ms_b.push(b);
        ratios.push(b / a - 1.0);
        last = Some((out_a, out_b));
    }
    let (out_a, out_b) = last.expect("at least one pair");
    (median(ms_a), median(ms_b), median(ratios), out_a, out_b)
}
