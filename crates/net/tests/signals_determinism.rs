//! The signal workload's cross-execution determinism proof: the same
//! fleet of safety-signal jobs leaves FNV-identical `signal_knowledge`
//! state whether it runs serially in-process, 8-way concurrent, or
//! remotely over the wire protocol.
//!
//! Signal documents never embed K-DB document ids, so the per-session
//! document sequences are comparable across arms even though concurrent
//! sessions interleave id allocation.

use std::sync::Arc;
use std::time::Duration;

use ada_kdb::journal::Op;
use ada_kdb::schema::names;
use ada_kdb::{Filter, SharedKdb, Value};
use ada_net::proto::{CohortSpec, Preset, Request, Response, WireJobSpec};
use ada_net::{Client, NetConfig, NetServer};
use ada_service::{AnalysisService, ServiceConfig, SessionState};

const DEADLINE: Duration = Duration::from_secs(120);
const FLEET: usize = 6;

fn signal_spec(i: usize) -> WireJobSpec {
    let mut spec = WireJobSpec::quick(
        format!("sig-{i}"),
        CohortSpec {
            patients: 120,
            exam_types: 20,
            records: 1_500,
            seed: 700 + i as u64,
        },
    );
    spec.preset = Preset::Signals;
    spec.seed = 40 + i as u64;
    spec
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 16,
        ..ServiceConfig::default()
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over every canonical state op except the `sessions`
/// collection (timing-bearing records). Id-sensitive: only comparable
/// between arms with deterministic execution order (1 worker).
fn fingerprint_excluding(kdb: &SharedKdb, skip: &str) -> u64 {
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
        if name == skip {
            continue;
        }
        buf.clear();
        op.encode_into(&mut buf);
        fnv(&mut hash, buf.as_bytes());
    }
    hash
}

/// FNV-1a over the per-session `signal_knowledge` document sequences in
/// session order. The store-assigned `_id` field is stripped (document
/// id allocation interleaves across concurrent sessions); per-session
/// document order (the rank order they were persisted in) is preserved.
/// Interleaving-invariant, so it is the digest the concurrent arm is
/// held to.
fn signal_state_fingerprint(kdb: &SharedKdb) -> u64 {
    let guard = kdb.read();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut buf = String::new();
    for i in 0..FLEET {
        let docs = guard
            .find(
                names::SIGNAL_KNOWLEDGE,
                &Filter::eq("session", format!("sig-{i}")),
            )
            .unwrap();
        assert!(!docs.is_empty(), "sig-{i} emitted no signals");
        for (_, mut doc) in docs {
            doc.remove("_id");
            buf.clear();
            Value::Doc(doc).encode_into(&mut buf);
            fnv(&mut hash, buf.as_bytes());
        }
    }
    hash
}

fn run_in_process(workers: usize) -> SharedKdb {
    let service = AnalysisService::new(config(workers), SharedKdb::in_memory());
    let ids: Vec<_> = (0..FLEET)
        .map(|i| service.submit(signal_spec(i).materialize()).unwrap())
        .collect();
    for id in ids {
        let state = service.wait(id).unwrap();
        match state {
            SessionState::Completed(outcome) => {
                let report = outcome.signals().expect("signals workload");
                assert!(!report.signals.is_empty());
            }
            other => panic!("expected Completed, got {other:?}"),
        }
    }
    let kdb = service.kdb();
    service.shutdown();
    kdb
}

#[test]
fn signal_state_is_identical_serial_concurrent_and_remote() {
    // Remote arm: one worker server-side, six wire clients.
    let remote_service = Arc::new(AnalysisService::new(config(1), SharedKdb::in_memory()));
    let server = NetServer::start(Arc::clone(&remote_service), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut sessions = Vec::new();
    for i in 0..FLEET {
        let mut client = Client::connect(addr).unwrap();
        match client.call(Request::Submit(signal_spec(i))).unwrap() {
            Response::Submitted { session } => sessions.push((session, client)),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }
    for (session, client) in &mut sessions {
        let (state, reason) = client.wait_terminal(*session, DEADLINE).unwrap();
        assert_eq!(state, "completed", "session {session}: {reason}");
        match client.call(Request::Results { session: *session }).unwrap() {
            Response::ResultSummary { summary, .. } => {
                assert!(summary.get("signals").and_then(Value::as_i64).unwrap() > 0);
                assert!(summary.get("tables_built").and_then(Value::as_i64).unwrap() > 0);
                assert!(!summary
                    .get("top_exposure")
                    .and_then(Value::as_str)
                    .unwrap()
                    .is_empty());
            }
            other => panic!("expected ResultSummary, got {other:?}"),
        }
    }
    // Signal sessions feed the service-level signal counters, and the
    // pinned Prometheus families travel in the wire exposition.
    let exposition = match sessions[0].1.call(Request::MetricsSnapshot).unwrap() {
        Response::Metrics { prometheus, .. } => prometheus,
        other => panic!("expected Metrics, got {other:?}"),
    };
    for family in [
        "ada_signals_tables_built_total",
        "ada_signals_zero_cell_corrections_total",
        "ada_signals_shrinkage_iterations_total",
        "ada_signals_emitted_total",
    ] {
        assert!(exposition.contains(family), "exposition missing {family}");
    }
    let snap = remote_service.metrics();
    assert!(snap.signals_tables_built > 0);
    assert!(snap.signals_emitted > 0);
    let net = server.shutdown();
    assert_eq!(net.protocol_errors, 0);
    let remote_kdb = remote_service.kdb();

    // Serial and 8-way concurrent in-process arms, same specs.
    let serial_kdb = run_in_process(1);
    let concurrent_kdb = run_in_process(8);

    // 1-worker arms execute in submission order on both sides of the
    // wire, so the whole store (ids included) must match byte-for-byte.
    assert_eq!(
        fingerprint_excluding(&remote_kdb, "sessions"),
        fingerprint_excluding(&serial_kdb, "sessions"),
        "remote and serial signal fleets diverged in K-DB state"
    );
    // The concurrent arm interleaves id allocation, so it is held to
    // the id-free signal-state digest — which must match exactly.
    let reference = signal_state_fingerprint(&serial_kdb);
    assert_eq!(
        signal_state_fingerprint(&concurrent_kdb),
        reference,
        "concurrency changed signal results"
    );
    assert_eq!(signal_state_fingerprint(&remote_kdb), reference);
}
