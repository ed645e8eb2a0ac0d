//! Ranked safety-signal mining on a synthetic diabetes cohort.
//!
//! Builds patient-level 2×2 contingency tables for every (exposure
//! exam, outcome condition group) pair, estimates reporting odds
//! ratios with 95% CIs, shrinks them EBGM-style under a cohort-fitted
//! Gamma prior, and prints the top-ranked signals — first via the
//! direct mining API, then as a `Workload::SafetySignals` session
//! through the analysis service (K-DB persistence, physician feedback
//! loop, and the `ada_signals_*` Prometheus counters included).
//!
//! Run: `cargo run --release --example safety_signals`

use std::sync::Arc;

use ada_health::dataset::synthetic::{generate, SyntheticConfig};
use ada_health::engine::{AdaHealthConfig, RunControl};
use ada_health::kdb::schema::names;
use ada_health::kdb::{Filter, SharedKdb};
use ada_health::service::{AnalysisService, JobSpec, ServiceConfig, SessionState, Workload};
use ada_health::signals::{mine_signals, SignalConfig};

fn main() {
    let cohort = SyntheticConfig {
        num_patients: 800,
        num_exam_types: 60,
        target_records: 12_000,
        ..SyntheticConfig::small()
    };
    let log = generate(&cohort, 42);
    println!(
        "cohort: {} patients, {} exam types, {} records\n",
        log.patients().len(),
        log.catalog().len(),
        log.records().len()
    );

    // Direct API: mine, then inspect the ranking.
    let config = SignalConfig::default();
    let report = mine_signals(&log, &config, &RunControl::new()).expect("mining succeeds");
    println!(
        "== top safety signals ({} ranked, {} tables, {} zero-cell corrected) ==",
        report.signals.len(),
        report.tables_built,
        report.zero_cell_corrections
    );
    println!(
        "shrinkage prior: Gamma(alpha {:.3}, beta {:.3}) fitted in {} iterations\n",
        report.prior.alpha, report.prior.beta, report.prior.iterations
    );
    for (rank, signal) in report.signals.iter().take(10).enumerate() {
        println!(
            "{:>2}. [score {:.3}] {}  (a={}, b={}, c={}, d={})",
            rank + 1,
            signal.score,
            signal.description,
            signal.table.a,
            signal.table.b,
            signal.table.c,
            signal.table.d,
        );
    }

    // As a service workload: same statistics, plus K-DB persistence,
    // the seeded physician feedback loop, and service-level counters.
    let service = AnalysisService::new(ServiceConfig::default(), SharedKdb::in_memory());
    let spec = JobSpec::new(AdaHealthConfig::quick("signal-study"), Arc::new(log))
        .workload(Workload::SafetySignals(config));
    let id = service.submit(spec).expect("submit");
    match service.wait(id).expect("session registered") {
        SessionState::Completed(outcome) => {
            let session = outcome.signals().expect("signals workload");
            println!(
                "\n== service session: {} signals persisted, {} feedback labels ==",
                session.signals.len(),
                session.feedback_recorded
            );
            println!("post-feedback ranking (top 5):");
            for line in session.ranked.iter().take(5) {
                println!("  {line}");
            }
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    let persisted = service
        .kdb()
        .read()
        .find(
            names::SIGNAL_KNOWLEDGE,
            &Filter::eq("session", "signal-study"),
        )
        .expect("signal collection exists")
        .len();
    let metrics = service.shutdown();
    println!(
        "\nK-DB: {persisted} signal_knowledge documents; counters: \
         {} tables built, {} signals emitted",
        metrics.signals_tables_built, metrics.signals_emitted
    );
}
