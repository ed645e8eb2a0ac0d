//! Loopback integration: the wire must be semantically transparent.
//!
//! - A fleet submitted by remote clients leaves the K-DB in exactly the
//!   state the same fleet submitted in-process does (timing-bearing
//!   session records aside).
//! - Backpressure, cancellation, pool-capacity rejection, and sticky
//!   degraded mode all cross the wire as their typed responses — no
//!   client ever hangs on them.
//! - The combined Prometheus exposition keeps the service's stable
//!   series names and adds the `ada_net_*` family.
//! - A history too large for one frame is refused typed when asked for
//!   whole and listed completely page by page.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ada_core::{PipelineObserver, PipelineStage};
use ada_dataset::{ExamRecord, ExamTypeId, PatientId};
use ada_kdb::journal::Op;
use ada_kdb::{
    DurabilityPolicy, FaultKind, FaultyStorage, Kdb, MemStorage, SharedKdb, StoreOptions, Value,
};
use ada_net::proto::{CohortSpec, Request, Response, WireJobSpec};
use ada_net::{AsyncClient, Client, NetConfig, NetError, NetServer, MAX_FRAME_LEN};
use ada_obs::Page;
use ada_service::{AnalysisService, ServiceConfig, DEFAULT_TRACE_SEED};
use ada_stream::StreamMiningSpec;

/// Overall deadline for any single wait in these tests: generous, but
/// finite — a hang is a failure, not a timeout of the harness.
const DEADLINE: Duration = Duration::from_secs(120);

fn quick_spec(i: usize) -> WireJobSpec {
    WireJobSpec::quick(format!("loop-{i}"), CohortSpec::small(400 + i as u64))
}

/// FNV-1a over the canonical encodings of `state_ops`, skipping the
/// named collections — the same digest as `Kdb::fingerprint`, minus the
/// timing-bearing session (and trace) records.
fn fingerprint_excluding(kdb: &SharedKdb, skip: &[&str]) -> u64 {
    let guard = kdb.read();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut buf = String::new();
    for op in guard.state_ops() {
        let name = match &op {
            Op::CreateCollection { name }
            | Op::CreateIndex { name, .. }
            | Op::Insert { name, .. }
            | Op::Update { name, .. }
            | Op::Delete { name, .. } => name,
        };
        if skip.contains(&name.as_str()) {
            continue;
        }
        buf.clear();
        op.encode_into(&mut buf);
        for b in buf.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// `(session, state)` pairs from persisted session records, sorted —
/// the timing-free projection both fleets must agree on.
fn session_outcomes(docs: &[ada_kdb::Document]) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = docs
        .iter()
        .map(|d| {
            (
                d.get("session").and_then(Value::as_str).unwrap().to_owned(),
                d.get("state").and_then(Value::as_str).unwrap().to_owned(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn oversized_listing_is_refused_typed_and_pages_to_completion() {
    const RECORDS: usize = 5_000;
    let kdb = SharedKdb::in_memory();
    for name in ["sessions", "traces"] {
        kdb.create_collection(name).unwrap();
    }
    // Synthetic session records of a real record's size (≈ 4 KB).
    for i in 0..RECORDS {
        let record = ada_kdb::Document::new()
            .with("session", format!("synth-{i}"))
            .with("state", "completed")
            .with("pad", "x".repeat(3_600));
        kdb.insert("sessions", record).unwrap();
    }
    for i in 0..10 {
        let session = if i % 2 == 0 { "even" } else { "odd" };
        let trace = ada_kdb::Document::new().with("session", session);
        kdb.insert("traces", trace).unwrap();
    }
    let service = Arc::new(AnalysisService::new(ServiceConfig::default(), kdb));
    let local = service.past_sessions();
    let whole: usize = local.iter().map(|d| d.encode().len()).sum();
    assert!(whole > MAX_FRAME_LEN, "the history must not fit one frame");
    let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();

    // Asked for whole: a typed error, and the connection lives on.
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.call(Request::PastSessions).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, "response_too_large");
            assert!(message.contains("after"), "{message}");
        }
        other => panic!("expected response_too_large, got {}", other.kind()),
    }
    assert!(matches!(
        client.call(Request::Health).unwrap(),
        Response::Health { .. }
    ));

    // Page by page: everything, in order, from both clients.
    assert_eq!(client.past_sessions().unwrap(), local);
    let async_client = AsyncClient::connect(server.local_addr()).unwrap();
    assert_eq!(async_client.past_sessions(DEADLINE).unwrap(), local);

    // One explicit page is a range scan from the cursor.
    let tail = Page {
        after: RECORDS as u64 - 10,
        limit: 100,
    };
    match client.call(Request::PastSessionsPage(tail)).unwrap() {
        Response::PastSessions { sessions } => assert_eq!(sessions, local[RECORDS - 10..]),
        other => panic!("expected a page, got {}", other.kind()),
    }

    // Trace pages count matching traces; the helper follows the cursor
    // across the records the filter skips.
    assert_eq!(client.traces(None).unwrap().len(), 10);
    let even = async_client.traces(Some("even"), DEADLINE).unwrap();
    let ids = |docs: &[ada_kdb::Document]| -> Vec<i64> {
        docs.iter()
            .map(|d| d.get("_id").and_then(Value::as_i64).unwrap())
            .collect()
    };
    assert_eq!(ids(&even), vec![1, 3, 5, 7, 9]);
    let page = Request::TracePage {
        session: Some("even".into()),
        page: Page { after: 3, limit: 2 },
    };
    match client.call(page).unwrap() {
        Response::Traces { traces } => assert_eq!(ids(&traces), vec![5, 7]),
        other => panic!("expected a trace page, got {}", other.kind()),
    }

    drop((client, async_client));
    assert_eq!(server.shutdown().protocol_errors, 0);
}

#[test]
fn remote_fleet_matches_in_process_fleet() {
    // Single worker on both sides: execution order is then a pure
    // function of submission order, so document ids line up and the
    // K-DB comparison can be exact.
    let config = || ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServiceConfig::default()
    };

    // Remote arm: eight clients, one connection each.
    let remote_service = Arc::new(AnalysisService::with_kdb(config(), Kdb::in_memory()));
    let server = NetServer::start(Arc::clone(&remote_service), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut remote_sessions = Vec::new();
    for i in 0..8 {
        let mut client = Client::connect(addr).unwrap();
        match client.call(Request::Submit(quick_spec(i))).unwrap() {
            Response::Submitted { session } => remote_sessions.push((session, client)),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }
    for (session, client) in &mut remote_sessions {
        let (state, reason) = client.wait_terminal(*session, DEADLINE).unwrap();
        assert_eq!(state, "completed", "session {session}: {reason}");
        // Results carries a non-empty summary for completed sessions.
        match client.call(Request::Results { session: *session }).unwrap() {
            Response::ResultSummary { state, summary, .. } => {
                assert_eq!(state, "completed");
                assert!(summary.get("clusters").and_then(Value::as_i64).unwrap() > 0);
                assert!(summary.get("selected_k").and_then(Value::as_i64).unwrap() > 0);
            }
            other => panic!("expected ResultSummary, got {other:?}"),
        }
    }
    let remote_past = match remote_sessions[0].1.call(Request::PastSessions).unwrap() {
        Response::PastSessions { sessions } => sessions,
        other => panic!("expected PastSessions, got {other:?}"),
    };
    let net = server.shutdown();
    assert_eq!(
        net.protocol_errors, 0,
        "loopback fleet must be protocol-clean"
    );
    assert_eq!(net.accepts, 8);
    let remote_kdb = remote_service.kdb();

    // In-process arm: the same specs, materialized by the same code.
    let local_service = AnalysisService::with_kdb(config(), Kdb::in_memory());
    let ids: Vec<_> = (0..8)
        .map(|i| local_service.submit(quick_spec(i).materialize()).unwrap())
        .collect();
    for id in ids {
        assert!(matches!(
            local_service.wait(id).unwrap(),
            ada_service::SessionState::Completed(_)
        ));
    }
    let local_past = local_service.past_sessions();
    let local_kdb = local_service.kdb();
    local_service.shutdown();

    // Byte-identical knowledge state (session records excluded: they
    // embed wall-clock spans)...
    assert_eq!(
        fingerprint_excluding(&remote_kdb, &["sessions"]),
        fingerprint_excluding(&local_kdb, &["sessions"]),
        "remote and in-process fleets diverged in K-DB state"
    );
    // ...and structurally identical session records.
    assert_eq!(
        session_outcomes(&remote_past),
        session_outcomes(&local_past)
    );
    assert_eq!(remote_past.len(), 8);
}

/// Parks every session at its first stage until released, so the tests
/// can hold the lone worker busy while filling the queue behind it.
#[derive(Default)]
struct GateObserver {
    started: AtomicUsize,
    open: Mutex<bool>,
    bell: Condvar,
}

impl GateObserver {
    fn wait_for_start(&self) {
        while self.started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    }
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.bell.notify_all();
    }
}

impl PipelineObserver for GateObserver {
    fn on_stage_start(&self, _session: &str, stage: PipelineStage) {
        if stage != PipelineStage::Characterize {
            return;
        }
        self.started.fetch_add(1, Ordering::Release);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.bell.wait(open).unwrap();
        }
    }
}

#[test]
fn busy_cancel_and_unknown_session_cross_the_wire_typed() {
    let gate = Arc::new(GateObserver::default());
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            observer: Some(gate.clone()),
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();
    // Retry disabled: this test asserts the *raw* Busy backpressure
    // signal; the auto-retry layer would otherwise keep re-submitting.
    let client = AsyncClient::connect(server.local_addr())
        .unwrap()
        .without_busy_retry();

    // One running (parked at the gate), one queued, and the third
    // submission bounces with typed retry guidance — all multiplexed
    // over a single connection.
    let running = match client
        .call(Request::Submit(quick_spec(0)), DEADLINE)
        .unwrap()
    {
        Response::Submitted { session } => session,
        other => panic!("expected Submitted, got {other:?}"),
    };
    gate.wait_for_start();
    let queued = match client
        .call(Request::Submit(quick_spec(1)), DEADLINE)
        .unwrap()
    {
        Response::Submitted { session } => session,
        other => panic!("expected Submitted, got {other:?}"),
    };
    match client
        .call(Request::Submit(quick_spec(2)), DEADLINE)
        .unwrap()
    {
        Response::Busy { retry_after } => {
            assert!(retry_after >= Duration::from_millis(25));
            assert!(retry_after <= Duration::from_secs(30));
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // Cancel the queued session remotely; in-flight status queries keep
    // answering while the first session is still parked.
    match client
        .call(Request::Cancel { session: queued }, DEADLINE)
        .unwrap()
    {
        Response::Cancelled { session } => assert_eq!(session, queued),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    match client
        .call(Request::Status { session: running }, DEADLINE)
        .unwrap()
    {
        Response::State { state, .. } => assert_eq!(state, "running"),
        other => panic!("expected State, got {other:?}"),
    }
    match client
        .call(Request::Status { session: 99_999 }, DEADLINE)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, "unknown_session"),
        other => panic!("expected Error, got {other:?}"),
    }

    gate.release();
    // Both sessions resolve; poll the multiplexed tickets to terminal.
    let mut done = false;
    let deadline = std::time::Instant::now() + DEADLINE;
    while !done {
        assert!(
            std::time::Instant::now() < deadline,
            "sessions never terminal"
        );
        let run = client
            .call(Request::Status { session: running }, DEADLINE)
            .unwrap();
        let q = client
            .call(Request::Status { session: queued }, DEADLINE)
            .unwrap();
        match (run, q) {
            (Response::State { state: s1, .. }, Response::State { state: s2, .. }) => {
                done = s1 == "completed" && s2 == "cancelled";
            }
            other => panic!("expected two States, got {other:?}"),
        }
        if !done {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let net = server.shutdown();
    assert_eq!(net.protocol_errors, 0);
    drop(service);
}

#[test]
fn busy_auto_retry_rides_through_transient_backpressure() {
    let gate = Arc::new(GateObserver::default());
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            observer: Some(gate.clone()),
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();
    let client = AsyncClient::connect(server.local_addr())
        .unwrap()
        .with_busy_retry(ada_net::BusyRetry {
            attempts: 40,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(250),
            ..ada_net::BusyRetry::default()
        });

    // Hold the lone worker at the gate and fill the one queue slot.
    match client
        .call(Request::Submit(quick_spec(10)), DEADLINE)
        .unwrap()
    {
        Response::Submitted { .. } => {}
        other => panic!("expected Submitted, got {other:?}"),
    }
    gate.wait_for_start();
    match client
        .call(Request::Submit(quick_spec(11)), DEADLINE)
        .unwrap()
    {
        Response::Submitted { .. } => {}
        other => panic!("expected Submitted, got {other:?}"),
    }

    // Release the gate shortly; the retrying submit must outlast the
    // transient Busy window and land once the queue drains.
    let releaser = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            gate.release();
        })
    };
    let session = match client
        .call(Request::Submit(quick_spec(12)), DEADLINE)
        .unwrap()
    {
        Response::Submitted { session } => session,
        other => panic!("auto-retry did not absorb backpressure: got {other:?}"),
    };
    releaser.join().unwrap();
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        match client.call(Request::Status { session }, DEADLINE).unwrap() {
            Response::State { state, reason, .. } => {
                if state == "completed" {
                    break;
                }
                assert!(
                    !matches!(state.as_str(), "failed" | "cancelled"),
                    "retried session ended {state}: {reason}"
                );
            }
            other => panic!("expected State, got {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session never terminal"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let net = server.shutdown();
    assert_eq!(net.protocol_errors, 0);
    drop(service);
}

#[test]
fn pool_capacity_rejection_is_a_typed_notification() {
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig::default(),
        Kdb::in_memory(),
    ));
    let server = NetServer::start(
        Arc::clone(&service),
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    assert!(matches!(
        first.call(Request::Health).unwrap(),
        Response::Health { .. }
    ));

    // Second connection: the handshake completes, then the server sends
    // an unsolicited connection-level pool_full error and closes.
    let mut second = Client::connect(addr).unwrap();
    match second.call(Request::Health) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, "pool_full"),
        other => panic!("expected pool_full rejection, got {other:?}"),
    }

    // Freeing the slot lets a new connection in (the server reaps the
    // closed connection asynchronously — poll briefly).
    drop(first);
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        let mut third = Client::connect(addr).unwrap();
        match third.call(Request::Health) {
            Ok(Response::Health { .. }) => break,
            Err(NetError::Remote { ref code, .. }) if code == "pool_full" => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "slot never freed after client disconnect"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected Health or pool_full, got {other:?}"),
        }
    }

    let net = server.shutdown();
    assert!(net.rejects >= 1);
}

#[test]
fn degraded_service_keeps_serving_reads_over_the_wire() {
    let mem: Arc<MemStorage> = Arc::new(MemStorage::new());
    let (storage, faults) = FaultyStorage::wrap(mem);
    let kdb = Kdb::open_with(
        Path::new("net_degraded.journal"),
        StoreOptions::with_storage(storage),
    )
    .unwrap();
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig {
            workers: 2,
            degrade_after: 2,
            ..ServiceConfig::default()
        },
        kdb,
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();
    let client = AsyncClient::connect(server.local_addr()).unwrap();

    // Healthy fleet completes and persists.
    let mut healthy = Vec::new();
    for i in 0..2 {
        match client
            .call(Request::Submit(quick_spec(i)), DEADLINE)
            .unwrap()
        {
            Response::Submitted { session } => healthy.push(session),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }
    for session in &healthy {
        wait_terminal_async(&client, *session, "completed");
    }

    // Storage starts rejecting every write mid-fleet.
    faults.fail_persistently(FaultKind::NoSpace);
    let mut doomed = Vec::new();
    for i in 10..13 {
        match client
            .call(Request::Submit(quick_spec(i)), DEADLINE)
            .unwrap()
        {
            Response::Submitted { session } => doomed.push(session),
            // The service may already have tripped degraded from an
            // earlier doomed session's faults — also a valid outcome.
            Response::Degraded { .. } => {}
            other => panic!("expected Submitted or Degraded, got {other:?}"),
        }
    }
    // Every accepted session still reaches a terminal state — no hangs.
    for session in &doomed {
        let deadline = std::time::Instant::now() + DEADLINE;
        loop {
            match client
                .call(Request::Status { session: *session }, DEADLINE)
                .unwrap()
            {
                Response::State { state, .. } => {
                    if matches!(state.as_str(), "completed" | "failed" | "cancelled") {
                        break;
                    }
                }
                other => panic!("expected State, got {other:?}"),
            }
            assert!(
                std::time::Instant::now() < deadline,
                "session {session} never reached a terminal state under faults"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // The service is now degraded: new submissions bounce typed...
    assert!(
        service.is_degraded(),
        "faulted fleet did not trip degraded mode"
    );
    match client
        .call(Request::Submit(quick_spec(99)), DEADLINE)
        .unwrap()
    {
        Response::Degraded { detail } => assert!(detail.contains("read-only")),
        other => panic!("expected Degraded, got {other:?}"),
    }

    // ...while every read path keeps answering over the same wire.
    match client
        .call(
            Request::Status {
                session: healthy[0],
            },
            DEADLINE,
        )
        .unwrap()
    {
        Response::State { state, .. } => assert_eq!(state, "completed"),
        other => panic!("expected State, got {other:?}"),
    }
    match client
        .call(
            Request::Results {
                session: healthy[0],
            },
            DEADLINE,
        )
        .unwrap()
    {
        Response::ResultSummary { state, .. } => assert_eq!(state, "completed"),
        other => panic!("expected ResultSummary, got {other:?}"),
    }
    match client.call(Request::PastSessions, DEADLINE).unwrap() {
        Response::PastSessions { sessions } => {
            // The pre-fault records are still readable.
            assert!(sessions.len() >= healthy.len());
        }
        other => panic!("expected PastSessions, got {other:?}"),
    }
    match client.call(Request::Health, DEADLINE).unwrap() {
        Response::Health { doc } => {
            assert_eq!(doc.get("status"), Some(&Value::Str("degraded".into())));
            assert_eq!(doc.get("accepting_writes"), Some(&Value::Bool(false)));
        }
        other => panic!("expected Health, got {other:?}"),
    }

    let net = server.shutdown();
    assert_eq!(
        net.protocol_errors, 0,
        "degraded mode must not corrupt the protocol"
    );
    drop(service);
}

/// Polls a session to the expected terminal state via the async client.
fn wait_terminal_async(client: &AsyncClient, session: u64, expect: &str) {
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        match client.call(Request::Status { session }, DEADLINE).unwrap() {
            Response::State { state, reason, .. } => {
                if state == expect {
                    return;
                }
                assert!(
                    !matches!(state.as_str(), "completed" | "failed" | "cancelled"),
                    "session {session}: expected {expect}, got terminal {state} ({reason})"
                );
            }
            other => panic!("expected State, got {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session {session} never reached {expect}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn remote_sampled_session_persists_a_linked_trace() {
    // Group-committed durable writes so fsync rounds actually happen
    // while the worker holds the session's trace scope.
    let mem: Arc<MemStorage> = Arc::new(MemStorage::new());
    let kdb = Kdb::open_with(
        Path::new("net_trace.journal"),
        StoreOptions::with_storage(mem).durability(DurabilityPolicy::Always),
    )
    .unwrap();
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig {
            workers: 1,
            sample_rate: 1.0,
            ..ServiceConfig::default()
        },
        kdb,
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();
    // The client mints under the same seed the server is configured
    // with, so both sides agree on the request's identity.
    let mut client = Client::connect(server.local_addr())
        .unwrap()
        .with_sampling(1.0, DEFAULT_TRACE_SEED);

    let session = match client.call(Request::Submit(quick_spec(0))).unwrap() {
        Response::Submitted { session } => session,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let (state, reason) = client.wait_terminal(session, DEADLINE).unwrap();
    assert_eq!(state, "completed", "{reason}");

    // The client's own latency histograms saw the traffic, per kind.
    let metrics = client.client_metrics();
    assert_eq!(metrics.kind("submit").unwrap().count, 1);
    assert!(metrics.kind("status").unwrap().count >= 1);
    assert_eq!(metrics.kind("trace_query").unwrap().count, 0);

    // One persisted trace, queryable over the wire by session name.
    let traces = match client
        .call(Request::TraceQuery {
            session: Some("loop-0".to_owned()),
        })
        .unwrap()
    {
        Response::Traces { traces } => traces,
        other => panic!("expected Traces, got {other:?}"),
    };
    assert_eq!(traces.len(), 1, "expected exactly one persisted trace");
    let trace = &traces[0];
    assert_eq!(trace.get("session").and_then(Value::as_str), Some("loop-0"));
    assert_eq!(trace.get("forced"), Some(&Value::Bool(false)));
    let trace_id = trace.get("trace_id").and_then(Value::as_str).unwrap();
    assert_eq!(trace_id.len(), 32, "trace id must be 128 bits of hex");
    let spans = trace.get("spans").and_then(Value::as_array).unwrap();

    // Every span links to a parent that precedes it in the pre-order
    // array (the root links to -1).
    for (i, span) in spans.iter().enumerate() {
        let span = span.as_doc().unwrap();
        let parent = span.get("parent").and_then(Value::as_i64).unwrap();
        if i == 0 {
            assert_eq!(parent, -1, "first span must be the root");
        } else {
            assert!(
                parent >= 0 && (parent as usize) < i,
                "span {i} has a dangling parent {parent}"
            );
        }
    }

    let names: Vec<&str> = spans
        .iter()
        .map(|s| {
            s.as_doc()
                .unwrap()
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
        })
        .collect();
    // The full request path is linked into one tree: client submit,
    // server decode, queue wait, every executed pipeline stage.
    for required in ["client_submit", "server_decode", "queue_wait"] {
        assert!(
            names.contains(&required),
            "missing span {required}: {names:?}"
        );
    }
    for stage in PipelineStage::PIPELINE {
        assert!(
            names.contains(&stage.name()),
            "missing stage span {}: {names:?}",
            stage.name()
        );
    }
    // At least one fsync round was captured, with its batch size and
    // commit role attached.
    let fsync_rounds: Vec<&ada_kdb::Document> = spans
        .iter()
        .map(|s| s.as_doc().unwrap())
        .filter(|s| s.get("name").and_then(Value::as_str) == Some("fsync_round"))
        .collect();
    assert!(!fsync_rounds.is_empty(), "no fsync-round span: {names:?}");
    for round in fsync_rounds {
        let attrs = round.get("attrs").and_then(Value::as_doc).unwrap();
        assert!(attrs.get("batch").and_then(Value::as_i64).unwrap() >= 1);
        let leader = attrs.get("leader").and_then(Value::as_i64).unwrap();
        assert!(leader == 0 || leader == 1);
        assert!(attrs.get("wait_ns").and_then(Value::as_i64).is_some());
        assert!(attrs.get("fsync_ns").and_then(Value::as_i64).is_some());
    }
    // The server's trace counters agree.
    let service_metrics = service.metrics();
    assert_eq!(service_metrics.traces_persisted, 1);
    assert_eq!(service_metrics.traces_forced, 0);

    let net = server.shutdown();
    assert_eq!(net.protocol_errors, 0);
    drop(service);
}

#[test]
fn sampling_rate_zero_vs_one_differs_only_in_trace_records() {
    let run = |rate: f64| {
        let service = Arc::new(AnalysisService::with_kdb(
            ServiceConfig {
                workers: 1,
                sample_rate: rate,
                ..ServiceConfig::default()
            },
            Kdb::in_memory(),
        ));
        let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr())
            .unwrap()
            .with_sampling(rate, DEFAULT_TRACE_SEED);
        for i in 0..3 {
            let session = match client.call(Request::Submit(quick_spec(i))).unwrap() {
                Response::Submitted { session } => session,
                other => panic!("expected Submitted, got {other:?}"),
            };
            let (state, _) = client.wait_terminal(session, DEADLINE).unwrap();
            assert_eq!(state, "completed");
        }
        server.shutdown();
        let kdb = service.kdb();
        drop(service);
        kdb
    };
    let zero = run(0.0);
    let one = run(1.0);

    // Outside session and trace records, sampling must not perturb a
    // single byte of knowledge state.
    assert_eq!(
        fingerprint_excluding(&zero, &["sessions", "traces"]),
        fingerprint_excluding(&one, &["sessions", "traces"]),
        "sampling changed non-trace K-DB state"
    );
    // Rate 0 writes no trace ops at all: excluding the traces
    // collection removes nothing.
    assert_eq!(
        fingerprint_excluding(&zero, &["sessions"]),
        fingerprint_excluding(&zero, &["sessions", "traces"]),
        "rate 0 must not touch the traces collection"
    );
    // Rate 1 does write them.
    assert_ne!(
        fingerprint_excluding(&one, &["sessions"]),
        fingerprint_excluding(&one, &["sessions", "traces"]),
        "rate 1 should have persisted trace records"
    );
}

#[test]
fn prometheus_exposition_keeps_stable_names_and_adds_net_series() {
    let service = Arc::new(AnalysisService::with_kdb(
        ServiceConfig::default(),
        Kdb::in_memory(),
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let session = match client.call(Request::Submit(quick_spec(0))).unwrap() {
        Response::Submitted { session } => session,
        other => panic!("expected Submitted, got {other:?}"),
    };
    client.wait_terminal(session, DEADLINE).unwrap();
    // One trace query (empty at rate 0) so its request kind registers.
    match client.call(Request::TraceQuery { session: None }).unwrap() {
        Response::Traces { traces } => assert!(traces.is_empty()),
        other => panic!("expected Traces, got {other:?}"),
    }

    // A stream exchange beside the session: the four stream kinds must
    // be counted like the eight session kinds.
    let stream = || "feed".to_owned();
    let day = |d| ada_dataset::Date::from_days_since_epoch(d).unwrap();
    let records = (0..20u32)
        .map(|i| ExamRecord::new(PatientId(i % 5), ExamTypeId(i % 3), day(i64::from(i))))
        .collect();
    for (request, answer) in [
        (
            Request::StreamOpen {
                stream: stream(),
                spec: StreamMiningSpec::quick(),
            },
            "stream_opened",
        ),
        (
            Request::Ingest {
                stream: stream(),
                records,
            },
            "ingested",
        ),
        (Request::StreamQuery { stream: stream() }, "stream_state"),
        (Request::StreamSeal { stream: stream() }, "stream_state"),
    ] {
        assert_eq!(client.call(request).unwrap().kind(), answer);
    }

    // Both surfaces must agree: the server-side accessor and the
    // MetricsSnapshot response carry the same combined exposition.
    let direct = server.snapshot_prometheus();
    let remote = match client.call(Request::MetricsSnapshot).unwrap() {
        Response::Metrics { doc, prometheus } => {
            // The document carries the net sub-document too.
            assert!(doc.get("net").and_then(Value::as_doc).is_some());
            prometheus
        }
        other => panic!("expected Metrics, got {other:?}"),
    };

    for exposition in [direct.as_str(), remote.as_str()] {
        // The full pinned family set, in exposition order. Dashboards
        // depend on these exact series names; a new exporter must not
        // silently reorder, rename, or drop any of them.
        let type_lines: Vec<&str> = exposition
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .collect();
        assert_eq!(
            type_lines,
            vec![
                "# TYPE ada_jobs_total counter",
                "# TYPE ada_persist_failures_total counter",
                "# TYPE ada_journal_faults_total counter",
                "# TYPE ada_signals_tables_built_total counter",
                "# TYPE ada_signals_zero_cell_corrections_total counter",
                "# TYPE ada_signals_shrinkage_iterations_total counter",
                "# TYPE ada_signals_emitted_total counter",
                "# TYPE ada_service_degraded gauge",
                "# TYPE ada_kdb_journal_acked_ops_total counter",
                "# TYPE ada_kdb_journal_durable_ops_total counter",
                "# TYPE ada_kdb_group_commits_total counter",
                "# TYPE ada_kdb_group_commit_failures_total counter",
                "# TYPE ada_kdb_group_commit_batch_size summary",
                "# TYPE ada_kdb_group_commit_flush_ns summary",
                "# TYPE ada_queue_depth_max gauge",
                "# TYPE ada_queue_wait_ns summary",
                "# TYPE ada_session_latency_ns summary",
                "# TYPE ada_stage_latency_ns summary",
                "# TYPE ada_obs_dropped_spans_total counter",
                "# TYPE ada_obs_traces_persisted_total counter",
                "# TYPE ada_obs_traces_forced_total counter",
                "# TYPE ada_stream_ingested_total counter",
                "# TYPE ada_stream_reordered_total counter",
                "# TYPE ada_stream_dropped_total counter",
                "# TYPE ada_stream_windows_closed_total counter",
                "# TYPE ada_stream_refits_total counter",
                "# TYPE ada_stream_drift_score gauge",
                "# TYPE ada_net_accepts_total counter",
                "# TYPE ada_net_rejects_total counter",
                "# TYPE ada_net_protocol_errors_total counter",
                "# TYPE ada_net_connections_in_flight gauge",
                "# TYPE ada_net_requests_total counter",
                "# TYPE ada_net_request_latency_ns summary",
                "# TYPE ada_net_bytes_total counter",
            ],
            "pinned exposition family set changed"
        );
        // Pre-existing service series keep their exact sample lines.
        assert!(exposition.contains("\nada_service_degraded 0\n"));
        assert!(exposition.contains("ada_jobs_total{outcome=\"submitted\"} 1\n"));
        assert!(exposition.contains("ada_session_latency_ns_count 1\n"));
        // The new tracing counters render (all zero at rate 0)...
        assert!(exposition.contains("\nada_obs_dropped_spans_total 0\n"));
        assert!(exposition.contains("\nada_obs_traces_persisted_total 0\n"));
        assert!(exposition.contains("\nada_obs_traces_forced_total 0\n"));
        // ...and the net family keeps its full shape, every request
        // kind labelled (including the new trace_query).
        assert!(exposition.contains("ada_net_accepts_total 1\n"));
        assert!(exposition.contains("ada_net_requests_total{kind=\"submit\"} 1\n"));
        assert!(exposition.contains("ada_net_requests_total{kind=\"trace_query\"} 1\n"));
        for kind in [
            "status",
            "cancel",
            "results",
            "past_sessions",
            "health",
            "metrics",
        ] {
            assert!(
                exposition.contains(&format!("ada_net_requests_total{{kind=\"{kind}\"}} ")),
                "missing request-kind series {kind}"
            );
        }
        for kind in ["stream_open", "ingest", "stream_query", "stream_seal"] {
            assert!(
                exposition.contains(&format!("ada_net_requests_total{{kind=\"{kind}\"}} 1\n")),
                "stream request kind {kind} not counted"
            );
        }
        assert!(exposition.contains("ada_net_request_latency_ns{quantile=\"0.5\"}"));
        assert!(exposition.contains("ada_net_bytes_total{dir=\"in\"}"));
        assert!(exposition.contains("ada_net_bytes_total{dir=\"out\"}"));
        assert!(exposition.contains("ada_net_protocol_errors_total 0\n"));
    }
    // No request is served without landing in a per-kind counter.
    let net = server.metrics();
    assert_eq!(net.requests_total(), net.request_count);

    // A fleet node appends the replication and fleet families after the
    // service + net set (`FleetNode::exposition`'s composition). Pin the
    // combined, ordered family list the same way: dashboards scraping a
    // fleet member depend on these exact names in this exact order.
    let combined = format!(
        "{direct}{}{}",
        ada_obs::ReplMetrics::new().snapshot().to_prometheus(),
        ada_obs::FleetMetrics::new().snapshot().to_prometheus(),
    );
    let combined_types: Vec<&str> = combined
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .skip(34)
        .collect();
    assert_eq!(
        combined_types,
        vec![
            "# TYPE ada_repl_frames_shipped_total counter",
            "# TYPE ada_repl_bytes_shipped_total counter",
            "# TYPE ada_repl_snapshots_total counter",
            "# TYPE ada_repl_frames_applied_total counter",
            "# TYPE ada_repl_rejects_total counter",
            "# TYPE ada_repl_source_durable_ops gauge",
            "# TYPE ada_repl_follower_acked_ops gauge",
            "# TYPE ada_repl_lag_ops gauge",
            "# TYPE ada_fleet_members gauge",
            "# TYPE ada_fleet_routed_total counter",
            "# TYPE ada_fleet_busy_deferrals_total counter",
            "# TYPE ada_fleet_health_checks_total counter",
            "# TYPE ada_fleet_health_failures_total counter",
            "# TYPE ada_fleet_promotions_total counter",
        ],
        "pinned fleet-node exposition family set changed"
    );
    // Both reject reasons render as labelled series of one family.
    assert!(combined.contains("ada_repl_rejects_total{reason=\"gap\"} 0\n"));
    assert!(combined.contains("ada_repl_rejects_total{reason=\"corrupt\"} 0\n"));
    assert!(combined.contains("ada_fleet_routed_total{role=\"primary\"} 0\n"));
    assert!(combined.contains("ada_fleet_routed_total{role=\"follower\"} 0\n"));

    // The JSON snapshot surfaces the drop counter alongside the trace
    // counters (the document face of `ada_obs_dropped_spans_total`).
    let json = service.snapshot_json();
    assert!(
        json.contains("\"tracing\""),
        "snapshot_json lost tracing: {json}"
    );
    assert!(
        json.contains("\"dropped_spans\":0"),
        "snapshot_json lost dropped_spans: {json}"
    );

    server.shutdown();
    drop(service);
}
