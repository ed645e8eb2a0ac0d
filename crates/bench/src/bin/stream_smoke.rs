//! Streaming ingestion smoke gate for CI.
//!
//! Four checks, any failure exits non-zero:
//!
//! 1. **Equivalence** — ingesting the cohort as an out-of-order stream
//!    (seeded `StreamOrder` disorder), sealing, and forcing a re-fit
//!    must yield a model byte-identical (FNV fingerprint) to a cold
//!    `KMeans::fit` over the accumulated streaming matrix.
//! 2. **Crash replay** — a run that loses its engine mid-feed and
//!    resumes from the durable `stream_windows` checkpoints (with the
//!    source re-delivering the feed) must land on the same VSM and
//!    model fingerprints as a run that never crashed.
//! 3. **Overhead** — the steady-state streaming path (fold-only windows
//!    plus one cold fit) vs the batch path (`VsmBuilder` plus the same
//!    cold fit): within 5% at paper scale (relaxed to 25% in `--quick`,
//!    where fixed costs dominate the reduced cohort), as the median of
//!    interleaved pair ratios.
//! 4. **Exposition** — a stream opened and fed through the analysis
//!    service must surface the six pinned `ada_stream_*` Prometheus
//!    families with live counts, and a `Workload::StreamMining` session
//!    must complete with a model.
//!
//! Run: `cargo run -p ada-bench --release --bin stream_smoke [-- --quick]`

use std::process::exit;
use std::sync::Arc;

use ada_bench::{bench_log, paired_overhead, paper_log};
use ada_dataset::{ExamRecord, StreamOrder};
use ada_kdb::{SharedKdb, Value};
use ada_mining::KMeans;
use ada_obs::StreamMetrics;
use ada_service::{AnalysisService, JobSpec, ServiceConfig, ServiceError, SessionState, Workload};
use ada_stream::{StreamConfig, StreamEngine, StreamMiningSpec};
use ada_vsm::VsmBuilder;

/// Interleaved A/B pairs per overhead estimate.
const PAIRS: usize = 15;

/// Ingestion batch size for the streamed variants.
const CHUNK: usize = 512;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1);
}

fn config(mine_on_close: bool) -> StreamConfig {
    StreamConfig::new("smoke")
        .window_days(7)
        .lateness_days(7)
        .k(4)
        .seed(42)
        .update_iters(5)
        .refit_iters(100)
        .min_rows(16)
        .mine_on_close(mine_on_close)
}

fn open(store: &SharedKdb) -> (StreamEngine, u64) {
    StreamEngine::open(
        config(true),
        Some(store.clone()),
        Arc::new(StreamMetrics::new()),
        None,
    )
    .unwrap_or_else(|e| fail(&format!("checkpoint replay failed: {e}")))
}

fn run_feed(engine: &mut StreamEngine, feed: &[ExamRecord]) {
    for batch in feed.chunks(CHUNK) {
        engine
            .ingest(batch)
            .unwrap_or_else(|e| fail(&format!("ingest failed: {e}")));
    }
    engine
        .seal()
        .unwrap_or_else(|e| fail(&format!("seal failed: {e}")));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let log = if quick { bench_log() } else { paper_log() };
    let feed: Vec<ExamRecord> = StreamOrder::new(&log, 42, 6).collect();

    // 1. Incremental-vs-batch equivalence: stream the cohort out of
    // order with per-window mini-batch mining, then force a re-fit —
    // it must equal a cold fit over the accumulated matrix.
    let mut engine = StreamEngine::new(config(true));
    run_feed(&mut engine, &feed);
    if engine.windows_closed() == 0 {
        fail("the cohort closed no windows");
    }
    if engine.model().is_none() {
        fail("streaming the cohort produced no model");
    }
    if !engine.force_refit() {
        fail("forced re-fit refused to run");
    }
    let cfg = config(true);
    let cold = KMeans::new(cfg.k)
        .seed(cfg.seed)
        .max_iters(cfg.refit_iters)
        .fit(engine.matrix());
    if engine.model_fingerprint() != Some(cold.fingerprint()) {
        fail("forced re-fit diverged from a cold fit over the same cohort");
    }
    println!(
        "equivalence: {} records, {} windows, {} re-fits; forced re-fit == cold fit ({:016x})",
        feed.len(),
        engine.windows_closed(),
        engine.refits(),
        cold.fingerprint()
    );

    // 2. Crash replay: lose the engine mid-feed, resume from the
    // durable checkpoints, re-deliver the feed from the start.
    let reference_store = SharedKdb::in_memory();
    let (mut reference, _) = open(&reference_store);
    run_feed(&mut reference, &feed);
    let expected = (
        reference.vsm_fingerprint(),
        reference.model_fingerprint(),
        reference.windows_closed(),
        reference.folded(),
    );

    let store = SharedKdb::in_memory();
    let (mut victim, _) = open(&store);
    for batch in feed[..feed.len() / 2].chunks(CHUNK) {
        victim
            .ingest(batch)
            .unwrap_or_else(|e| fail(&format!("pre-crash ingest failed: {e}")));
    }
    let durable = victim.windows_closed();
    drop(victim);
    let (mut resumed, replayed) = open(&store);
    if replayed != durable {
        fail(&format!(
            "resume replayed {replayed} windows, expected {durable}"
        ));
    }
    run_feed(&mut resumed, &feed);
    let actual = (
        resumed.vsm_fingerprint(),
        resumed.model_fingerprint(),
        resumed.windows_closed(),
        resumed.folded(),
    );
    if actual != expected {
        fail(&format!(
            "crash replay diverged: {actual:?} != {expected:?}"
        ));
    }
    println!(
        "crash replay: {durable} durable windows resumed, final state identical ({:016x})",
        actual.0
    );

    // 3. Steady-state overhead: fold-only streaming plus one cold fit
    // vs the batch VsmBuilder plus the same cold fit.
    let max_overhead = if quick { 0.25 } else { 0.05 };
    let (batch_ms, stream_ms, overhead, (), ()) = paired_overhead(
        PAIRS,
        || {
            let vectors = VsmBuilder::new().build(&log);
            let fit = KMeans::new(4).seed(42).max_iters(100).fit(&vectors.matrix);
            assert!(fit.sse.is_finite());
        },
        || {
            let mut engine = StreamEngine::new(config(false));
            run_feed(&mut engine, &feed);
            if !engine.force_refit() {
                fail("overhead variant: forced re-fit refused to run");
            }
        },
    );
    println!(
        "overhead: batch {batch_ms:.1} ms, stream {stream_ms:.1} ms ({:+.2}%)",
        overhead * 100.0
    );
    if overhead > max_overhead {
        fail(&format!(
            "streaming overhead {:.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            max_overhead * 100.0
        ));
    }

    // 4. Service exposition: the six pinned ada_stream_* families must
    // be present and live, and a StreamMining session must complete.
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    );
    service
        .stream_open(config(true).channel_capacity(8))
        .unwrap_or_else(|e| fail(&format!("stream_open failed: {e}")));
    let mut backoffs = 0u64;
    for batch in feed.chunks(CHUNK) {
        // A full channel answers Busy — that is the backpressure
        // contract, not a failure; a real producer waits and retries.
        loop {
            match service.stream_ingest("smoke", batch.to_vec()) {
                Ok(_) => break,
                Err(ServiceError::Busy { .. }) => {
                    backoffs += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => fail(&format!("service ingest failed: {e}")),
            }
        }
    }
    let sealed = service
        .stream_seal("smoke")
        .unwrap_or_else(|e| fail(&format!("stream_seal failed: {e}")));
    if sealed.get("windows_closed").and_then(Value::as_i64) != Some(expected.2 as i64) {
        fail("service-fed stream closed a different number of windows");
    }
    println!("service: stream fed and sealed ({backoffs} backpressure waits)");

    let spec = JobSpec::new(
        ada_core::AdaHealthConfig::quick("stream-smoke"),
        Arc::new(if quick { bench_log() } else { paper_log() }),
    )
    .workload(Workload::StreamMining(StreamMiningSpec::quick().seed(42)));
    let id = service
        .submit(spec)
        .unwrap_or_else(|e| fail(&format!("submit failed: {e}")));
    match service.wait(id) {
        Ok(SessionState::Completed(outcome)) => {
            let report = outcome
                .stream()
                .unwrap_or_else(|| fail("stream workload returned a non-stream outcome"));
            if !report.has_model || report.windows_closed == 0 {
                fail("stream-mining session completed without a model");
            }
        }
        other => fail(&format!("stream session did not complete: {other:?}")),
    }

    let exposition = service.snapshot_prometheus();
    for family in [
        "ada_stream_ingested_total",
        "ada_stream_reordered_total",
        "ada_stream_dropped_total",
        "ada_stream_windows_closed_total",
        "ada_stream_refits_total",
        "ada_stream_drift_score",
    ] {
        if !exposition.contains(&format!("# TYPE {family}")) {
            fail(&format!("exposition missing pinned family {family}"));
        }
    }
    let ingested = exposition
        .lines()
        .find_map(|l| l.strip_prefix("ada_stream_ingested_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| fail("no ada_stream_ingested_total sample"));
    if ingested == 0 {
        fail("ada_stream_ingested_total stayed zero after feeding the service");
    }
    service.shutdown();
    println!("exposition: all six ada_stream_* families live ({ingested} records counted)");

    println!("stream smoke gate passed.");
}
