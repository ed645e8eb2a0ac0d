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
