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
//! Criterion benches: `kmeans` (Lloyd vs filtering),
//! `patterns` (Apriori vs FP-growth), `kdb` (insert/query/index/replay),
//! `vsm` (build + weighting variants), `partial` (subset-mining speedup).

#![warn(missing_docs)]

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
