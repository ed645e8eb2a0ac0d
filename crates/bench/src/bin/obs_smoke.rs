//! Observability smoke gate for CI.
//!
//! Five checks, any failure exits non-zero:
//!
//! 1. **Determinism** — a quick end-to-end pipeline run with the flight
//!    recorder attached must produce a report identical to an
//!    unobserved run, with zero dropped trace events.
//! 2. **Session record** — the recorder's terminal document validates
//!    against `ada_kdb::schema`, persists into the `sessions`
//!    collection, reads back via `past_sessions`, and exports as JSON.
//! 3. **Overhead** — on the quick K-means cohort, the instrumented
//!    kernel path (`fit_with_stats` + counter emission into a live
//!    recorder, wrapped in a span) must stay within 5% of the plain
//!    `fit` wall time and assign every row byte-identically.
//! 4. **End-to-end trace** — one remote sampled session over the ADAN1
//!    wire must persist exactly one trace whose span tree links queue
//!    wait, every pipeline stage, and at least one group-commit fsync
//!    round under valid parent indexes.
//! 5. **Sampling overhead** — full service sessions at `sample_rate`
//!    1.0 must stay within 5% of rate-0 sessions (paired minima).
//!
//! Run: `cargo run -p ada-bench --release --bin obs_smoke`

use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ada_bench::bench_log;
use ada_core::{AdaHealth, AdaHealthConfig, PipelineStage, RunControl};
use ada_kdb::{schema, DurabilityPolicy, Kdb, MemStorage, StoreOptions, Value};
use ada_mining::kmeans::KMeans;
use ada_net::proto::{CohortSpec, Request, Response, WireJobSpec};
use ada_net::{Client, NetConfig, NetServer};
use ada_obs::{document_to_json, past_sessions, FlightRecorder, Page};
use ada_service::{AnalysisService, ServiceConfig, SessionState, DEFAULT_TRACE_SEED};
use ada_vsm::VsmBuilder;

/// Wall-clock repetitions per timed variant; the minimum is compared.
const REPS: usize = 7;

/// Overhead budget for the instrumented kernel path (ISSUE 3 gate).
const MAX_OVERHEAD: f64 = 0.05;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1);
}

/// Paired timing: alternates the two variants within every repetition
/// so scheduler and clock drift hit both sides equally, then compares
/// the per-variant minima. Returns `(ms_a, ms_b, value_a, value_b)`.
fn paired_best_of<T>(
    reps: usize,
    mut run_a: impl FnMut() -> T,
    mut run_b: impl FnMut() -> T,
) -> (f64, f64, T, T) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut out_a = None;
    let mut out_b = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out_a = Some(run_a());
        best_a = best_a.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        out_b = Some(run_b());
        best_b = best_b.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        best_a,
        best_b,
        out_a.expect("at least one rep"),
        out_b.expect("at least one rep"),
    )
}

fn main() {
    let log = bench_log();

    // 1. Observer on vs off: the reports must match field-for-field.
    let config = AdaHealthConfig::quick("obs-smoke");
    let report_off = AdaHealth::with_kdb(config.clone(), Kdb::in_memory())
        .run_controlled(&log, &RunControl::new())
        .unwrap_or_else(|e| fail(&format!("unobserved run failed: {e}")));
    let recorder = Arc::new(FlightRecorder::new(1024));
    let control = RunControl::new().with_observer(recorder.clone());
    let report_on = AdaHealth::with_kdb(config, Kdb::in_memory())
        .run_controlled(&log, &control)
        .unwrap_or_else(|e| fail(&format!("observed run failed: {e}")));
    if report_off != report_on {
        fail("observer-on vs observer-off pipeline reports differ");
    }
    if recorder.dropped() != 0 {
        fail("flight recorder dropped trace events on the smoke cohort");
    }
    println!("determinism: observed and unobserved reports identical");

    // 2. Terminal session record: schema-validated persist + read-back
    // + JSON export. `persist` runs `validate_session_doc` internally;
    // a malformed document fails here.
    let mut db = Kdb::in_memory();
    schema::init_schema(&mut db).unwrap_or_else(|e| fail(&format!("schema init failed: {e}")));
    recorder
        .persist(&mut db, "obs-smoke", "completed", "")
        .unwrap_or_else(|e| fail(&format!("session record rejected by schema: {e}")));
    let past = past_sessions(&db, Page::ALL);
    if past.len() != 1 {
        fail(&format!(
            "expected 1 persisted session, found {}",
            past.len()
        ));
    }
    let doc = past[0];
    schema::validate_session_doc(doc)
        .unwrap_or_else(|e| fail(&format!("read-back record invalid: {e}")));
    let spans = doc
        .get("spans")
        .and_then(Value::as_array)
        .map_or(0, |spans| spans.len());
    if spans <= PipelineStage::ALL.len() {
        fail(&format!("span tree too small: {spans} spans"));
    }
    let json = document_to_json(doc);
    for key in ["\"spans\"", "\"stages\"", "\"counters\"", "\"state\""] {
        if !json.contains(key) {
            fail(&format!("exported JSON is missing {key}"));
        }
    }
    println!(
        "session record: {spans} spans, {} bytes of JSON",
        json.len()
    );

    // 3. Kernel overhead: instrumented path vs plain path on the quick
    // cohort, byte-identical assignments required.
    let matrix = VsmBuilder::new().normalize(true).build(&log).matrix;
    let live = Arc::new(FlightRecorder::new(4096));
    let observed = RunControl::new()
        .with_session("obs-overhead")
        .with_observer(live.clone());
    let mut base_total = 0.0;
    let mut obs_total = 0.0;
    for k in [8, 16] {
        let kmeans = KMeans::new(k).seed(7).prune(true).threads(1);
        let (base_ms, obs_ms, plain, traced) = paired_best_of(
            REPS,
            || kmeans.fit(&matrix),
            || {
                observed.span(PipelineStage::Optimize, &format!("smoke:k={k}"), || {
                    let (result, stats) = kmeans.fit_with_stats(&matrix);
                    observed.counters(PipelineStage::Optimize, &stats.as_pairs());
                    result
                })
            },
        );
        if plain.assignments != traced.assignments {
            fail(&format!("k = {k}: tracing changed cluster assignments"));
        }
        base_total += base_ms;
        obs_total += obs_ms;
    }
    let overhead = (obs_total - base_total) / base_total;
    println!(
        "tracing overhead: plain {base_total:.1} ms, recorded {obs_total:.1} ms \
         ({:+.2}%)",
        overhead * 100.0
    );
    if overhead > MAX_OVERHEAD {
        fail(&format!(
            "tracing overhead {:.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }

    // 4. End-to-end trace: one remote sampled session over the wire,
    // against a group-committed durable store so fsync rounds land in
    // the span tree. The persisted trace must link the whole request
    // path with valid pre-order parent indexes.
    let mem: Arc<MemStorage> = Arc::new(MemStorage::new());
    let kdb = Kdb::open_with(
        Path::new("obs_trace.journal"),
        StoreOptions::with_storage(mem).durability(DurabilityPolicy::Always),
    )
    .unwrap_or_else(|e| fail(&format!("durable kdb open failed: {e}")));
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            sample_rate: 1.0,
            ..ServiceConfig::default()
        },
        kdb,
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default())
        .unwrap_or_else(|e| fail(&format!("net server failed to start: {e}")));
    let mut client = Client::connect(server.local_addr())
        .unwrap_or_else(|e| fail(&format!("client connect failed: {e}")))
        .with_sampling(1.0, DEFAULT_TRACE_SEED);
    let spec = WireJobSpec::quick("trace-gate".to_owned(), CohortSpec::small(907));
    let session = match client.call(Request::Submit(spec)) {
        Ok(Response::Submitted { session }) => session,
        other => fail(&format!("expected Submitted, got {other:?}")),
    };
    match client.wait_terminal(session, Duration::from_secs(120)) {
        Ok((state, reason)) if state == "completed" => drop(reason),
        other => fail(&format!("sampled session not completed: {other:?}")),
    }
    let traces = match client.call(Request::TraceQuery {
        session: Some("trace-gate".to_owned()),
    }) {
        Ok(Response::Traces { traces }) => traces,
        other => fail(&format!("expected Traces, got {other:?}")),
    };
    if traces.len() != 1 {
        fail(&format!(
            "expected 1 persisted trace, found {}",
            traces.len()
        ));
    }
    let spans = traces[0]
        .get("spans")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail("trace record has no span array"));
    let mut names = Vec::with_capacity(spans.len());
    let mut fsync_rounds = 0usize;
    for (i, span) in spans.iter().enumerate() {
        let span = span
            .as_doc()
            .unwrap_or_else(|| fail("span is not a document"));
        let parent = span
            .get("parent")
            .and_then(Value::as_i64)
            .unwrap_or_else(|| fail("span is missing its parent link"));
        let valid = if i == 0 {
            parent == -1
        } else {
            parent >= 0 && (parent as usize) < i
        };
        if !valid {
            fail(&format!("span {i} has invalid parent {parent}"));
        }
        let name = span
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail("span is missing its name"));
        if name == "fsync_round" {
            let attrs = span
                .get("attrs")
                .and_then(Value::as_doc)
                .unwrap_or_else(|| fail("fsync-round span has no attrs"));
            if attrs.get("batch").and_then(Value::as_i64).unwrap_or(0) < 1 {
                fail("fsync-round span has batch < 1");
            }
            fsync_rounds += 1;
        }
        names.push(name);
    }
    if !names.contains(&"queue_wait") {
        fail(&format!("trace has no queue-wait span: {names:?}"));
    }
    for stage in PipelineStage::PIPELINE {
        if !names.contains(&stage.name()) {
            fail(&format!(
                "trace missing stage span {}: {names:?}",
                stage.name()
            ));
        }
    }
    if fsync_rounds == 0 {
        fail(&format!("trace captured no fsync round: {names:?}"));
    }
    println!(
        "trace gate: {} spans linked, {fsync_rounds} fsync rounds",
        spans.len()
    );
    server.shutdown();
    drop(client);
    drop(service);

    // 5. Sampling overhead: full service sessions at rate 1 vs rate 0,
    // paired minima, the same 5% budget the kernel path gets.
    let make = |rate: f64| {
        AnalysisService::with_kdb(
            ServiceConfig {
                workers: 1,
                sample_rate: rate,
                ..ServiceConfig::default()
            },
            Kdb::in_memory(),
        )
    };
    let base_service = make(0.0);
    let traced_service = make(1.0);
    // A cohort big enough that the session's analysis work dominates
    // the fixed per-session cost of persisting its trace record —
    // millisecond sessions would measure that constant, not a rate.
    let cohort = CohortSpec {
        patients: 400,
        exam_types: 24,
        records: 6_000,
        seed: 31,
    };
    let run_session = |service: &AnalysisService, name: String| {
        let spec = WireJobSpec::quick(name, cohort).materialize();
        let id = service
            .submit(spec)
            .unwrap_or_else(|e| fail(&format!("overhead-arm submit failed: {e}")));
        match service.wait(id) {
            Ok(SessionState::Completed(_)) => {}
            other => fail(&format!("overhead-arm session not completed: {other:?}")),
        }
    };
    let (mut base_rep, mut traced_rep) = (0u32, 0u32);
    let (base_ms, traced_ms, (), ()) = paired_best_of(
        REPS,
        || {
            base_rep += 1;
            run_session(&base_service, format!("base-{base_rep}"));
        },
        || {
            traced_rep += 1;
            run_session(&traced_service, format!("traced-{traced_rep}"));
        },
    );
    base_service.shutdown();
    traced_service.shutdown();
    let sampling_overhead = (traced_ms - base_ms) / base_ms;
    println!(
        "sampling overhead: rate 0 {base_ms:.1} ms, rate 1 {traced_ms:.1} ms \
         ({:+.2}%)",
        sampling_overhead * 100.0
    );
    if sampling_overhead > MAX_OVERHEAD {
        fail(&format!(
            "sampling overhead {:.2}% exceeds the {:.0}% budget",
            sampling_overhead * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }

    println!("obs smoke gate passed.");
}
