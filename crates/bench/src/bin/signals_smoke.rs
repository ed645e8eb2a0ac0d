//! Safety-signal smoke gate for CI.
//!
//! Four checks, any failure exits non-zero:
//!
//! 1. **Yield** — on the paper-scale cohort the signal miner must emit
//!    a non-empty ranked collection: descending combined scores, every
//!    CI bracketing its point estimate, table count consistent with the
//!    counters.
//! 2. **Determinism** — serial vs 8-way chunk-parallel mining must
//!    produce identical reports, and an observed run must match an
//!    unobserved one.
//! 3. **Exposition** — a signals session through the analysis service
//!    must surface the four pinned `ada_signals_*` Prometheus counter
//!    families with non-zero table/emission counts.
//! 4. **Overhead** — mining with a live flight recorder attached must
//!    stay within 5% of the unobserved wall time (median of interleaved
//!    pair ratios).
//!
//! Run: `cargo run -p ada-bench --release --bin signals_smoke [-- --quick]`

use std::process::exit;
use std::sync::Arc;

use ada_bench::{bench_log, paired_overhead, paper_log};
use ada_core::RunControl;
use ada_kdb::SharedKdb;
use ada_obs::FlightRecorder;
use ada_service::{AnalysisService, JobSpec, ServiceConfig, SessionState, Workload};
use ada_signals::{mine_signals, SignalConfig};

/// Interleaved A/B pairs per overhead estimate.
const PAIRS: usize = 15;

/// Overhead budget for the observed mining path.
const MAX_OVERHEAD: f64 = 0.05;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let log = if quick { bench_log() } else { paper_log() };
    let config = SignalConfig::default();

    // 1. Yield on the paper-scale cohort.
    let report = mine_signals(&log, &config, &RunControl::new())
        .unwrap_or_else(|e| fail(&format!("signal mining failed: {e}")));
    if report.signals.is_empty() {
        fail("paper-scale cohort yielded no ranked signals");
    }
    if report.tables_built < report.signals.len() as u64 {
        fail("counter inconsistency: fewer tables than emitted signals");
    }
    for pair in report.signals.windows(2) {
        if pair[0].score < pair[1].score {
            fail("ranking is not in descending score order");
        }
    }
    for s in &report.signals {
        if !(s.ror.ci_low <= s.ror.ror && s.ror.ror <= s.ror.ci_high) {
            fail(&format!("CI does not bracket the estimate: {s:?}"));
        }
        if !s.score.is_finite() {
            fail(&format!("non-finite combined score: {s:?}"));
        }
    }
    println!(
        "yield: {} signals from {} tables ({} zero-cell corrected), top: {}",
        report.signals.len(),
        report.tables_built,
        report.zero_cell_corrections,
        report.signals[0].description
    );

    // 2. Determinism: serial vs chunk-parallel, observed vs unobserved.
    let parallel_cfg = SignalConfig {
        threads: 8,
        ..config.clone()
    };
    let parallel = mine_signals(&log, &parallel_cfg, &RunControl::new())
        .unwrap_or_else(|e| fail(&format!("parallel mining failed: {e}")));
    if parallel != report {
        fail("serial and 8-way chunk-parallel reports differ");
    }
    let recorder = Arc::new(FlightRecorder::new());
    let observed_control = RunControl::new()
        .with_session("signals-smoke")
        .with_observer(recorder.clone());
    let observed = mine_signals(&log, &config, &observed_control)
        .unwrap_or_else(|e| fail(&format!("observed mining failed: {e}")));
    if observed != report {
        fail("observer-on vs observer-off mining reports differ");
    }
    println!("determinism: serial, 8-way parallel, and observed reports identical");

    // 3. Service exposition pin: the four ada_signals_* counter
    // families must be present and live after one signals session.
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    );
    let spec = JobSpec::new(
        ada_core::AdaHealthConfig::quick("signals-smoke"),
        Arc::new(if quick { bench_log() } else { paper_log() }),
    )
    .workload(Workload::SafetySignals(config.clone()));
    let id = service
        .submit(spec)
        .unwrap_or_else(|e| fail(&format!("submit failed: {e}")));
    match service.wait(id) {
        Ok(SessionState::Completed(outcome)) => {
            let session_report = outcome
                .signals()
                .unwrap_or_else(|| fail("signals workload returned a pipeline outcome"));
            if session_report.signals.is_empty() {
                fail("service-run signals session emitted nothing");
            }
            if session_report.feedback_recorded == 0 {
                fail("signal feedback loop recorded nothing");
            }
        }
        other => fail(&format!("signals session did not complete: {other:?}")),
    }
    let exposition = service.snapshot_prometheus();
    for family in [
        "ada_signals_tables_built_total",
        "ada_signals_zero_cell_corrections_total",
        "ada_signals_shrinkage_iterations_total",
        "ada_signals_emitted_total",
    ] {
        if !exposition.contains(family) {
            fail(&format!("exposition missing pinned family {family}"));
        }
    }
    let metrics = service.shutdown();
    if metrics.signals_tables_built == 0 || metrics.signals_emitted == 0 {
        fail("service signal counters stayed zero after a signals session");
    }
    println!(
        "exposition: {} tables, {} signals across pinned ada_signals_* families",
        metrics.signals_tables_built, metrics.signals_emitted
    );

    // 4. Overhead: observed vs unobserved mining wall time.
    let live = Arc::new(FlightRecorder::new());
    let timed_control = RunControl::new()
        .with_session("signals-overhead")
        .with_observer(live);
    let (base_ms, obs_ms, overhead, plain, traced) = paired_overhead(
        PAIRS,
        || mine_signals(&log, &config, &RunControl::new()).expect("plain mining"),
        || mine_signals(&log, &config, &timed_control).expect("observed mining"),
    );
    if plain != traced {
        fail("timed observed run diverged from the plain run");
    }
    println!(
        "tracing overhead: plain {base_ms:.1} ms, recorded {obs_ms:.1} ms ({:+.2}%)",
        overhead * 100.0
    );
    if overhead > MAX_OVERHEAD {
        fail(&format!(
            "tracing overhead {:.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }

    println!("signals smoke gate passed.");
}
