//! Network front-end smoke gate for CI.
//!
//! Spins up the analysis service behind `ada-net` on an ephemeral
//! loopback port, drives a mini fleet through it (blocking clients and
//! one multiplexing async client), and checks, exiting non-zero on any
//! failure:
//!
//! 1. **Fleet completes** — every remotely submitted session reaches
//!    `completed`, with a non-empty result summary and a persisted
//!    session record visible through `PastSessions`.
//! 2. **Reads answer** — `Status`, `Results`, `Health`, and
//!    `MetricsSnapshot` all serve well-formed responses mid-fleet.
//! 3. **Clean drain** — graceful shutdown leaves zero protocol errors,
//!    zero live connections, and accept/request counters that match
//!    what the fleet actually did.
//! 4. **Reads do not grow with history** — two more nodes, preloaded to
//!    40 and to 400 completed sessions, are queried in alternating
//!    rounds, a writer submitting to each throughout: the minimum of 20
//!    calls of a read may grow at most 2×
//!    as fast as its answer — 2× at 400 what it cost at 40 for `Status`,
//!    `Results`, `Health` and `StreamQuery` (sealed stream), whose
//!    answers are of fixed size; 2× the growth of their bytes for
//!    `PastSessions` and `MetricsSnapshot`, whose answers list the
//!    sessions; plus 0.25 ms of scheduler slack.
//!
//! Run: `cargo run -p ada-bench --release --bin net_smoke [-- --quick]`
//! `--quick` shrinks the fleet for the CI gate; the default exercises a
//! larger mix.

use std::net::SocketAddr;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::{ExamRecord, StreamOrder};
use ada_kdb::{SharedKdb, Value};
use ada_net::proto::{CohortSpec, Request, Response, WireJobSpec};
use ada_net::{AsyncClient, Client, NetConfig, NetServer};
use ada_service::{AnalysisService, ServiceConfig};
use ada_stream::StreamMiningSpec;

/// End-to-end budget per wait; a hang is a failure, not patience.
const DEADLINE: Duration = Duration::from_secs(180);

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1);
}

fn spec(i: usize) -> WireJobSpec {
    WireJobSpec::quick(
        format!("net-smoke-{i}"),
        CohortSpec::small(4_000 + i as u64),
    )
}

/// Runs sessions `range` to completion, eight in flight.
fn complete_sessions(client: &AsyncClient, range: std::ops::Range<usize>) {
    let all: Vec<usize> = range.collect();
    for wave in all.chunks(8) {
        let tickets: Vec<_> = wave
            .iter()
            .map(|&i| {
                client
                    .submit(Request::Submit(spec(i)))
                    .unwrap_or_else(|e| fail(&format!("load submit {i} failed: {e}")))
            })
            .collect();
        for ticket in tickets {
            let session = match ticket.wait(DEADLINE) {
                Ok(Response::Submitted { session }) => session,
                other => fail(&format!("load: expected Submitted, got {other:?}")),
            };
            loop {
                match client.call(Request::Status { session }, DEADLINE) {
                    Ok(Response::State { state, .. }) if state == "completed" => break,
                    Ok(Response::State { state, reason, .. })
                        if state == "failed" || state == "cancelled" =>
                    {
                        fail(&format!("load session {session} ended {state}: {reason}"))
                    }
                    Ok(Response::State { .. }) => std::thread::sleep(Duration::from_millis(2)),
                    other => fail(&format!("load: expected State, got {other:?}")),
                }
            }
        }
    }
}

/// The read kinds of the scaling phase.
fn scaling_reads(session: u64) -> [Request; 6] {
    [
        Request::Status { session },
        Request::Results { session },
        Request::Health,
        Request::MetricsSnapshot,
        Request::StreamQuery {
            stream: "scale".into(),
        },
        Request::PastSessions,
    ]
}

/// `(minimum wall time in microseconds, bytes of that call's answer)`
/// of each scaling read over 20 calls on each node of `addrs` (the
/// writers grow the listings as the calls go on), while one writer
/// connection per node submits sessions, one every 25 ms (every read
/// finds the store changed, and the box's two cores are not saturated,
/// so a minimum measures the read and not the scheduler). The reader
/// alternates five rounds between the nodes, four calls per kind and
/// node in each, so both nodes' minima come from the same minutes of
/// the box's life: a kind's samples span the writers' phases instead of
/// one scheduling burst, and three of each four follow a call of the
/// same kind (warm).
fn time_reads(addrs: [SocketAddr; 2], session: u64) -> [Vec<(f64, usize)>; 2] {
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = addrs
        .iter()
        .zip([20_000, 30_000])
        .map(|(&addr, writer_base)| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let client = AsyncClient::connect(addr)
                    .unwrap_or_else(|e| fail(&format!("scaling writer failed to connect: {e}")));
                let mut next = writer_base;
                while !stop.load(Ordering::Acquire) {
                    complete_sessions(&client, next..next + 1);
                    next += 1;
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        })
        .collect();
    let mut clients = addrs.map(|addr| {
        Client::connect(addr)
            .unwrap_or_else(|e| fail(&format!("scaling reader failed to connect: {e}")))
    });
    let reads = scaling_reads(session);
    let mut best = [(); 2].map(|()| vec![(f64::INFINITY, 0); reads.len()]);
    for _ in 0..5 {
        for (client, best) in clients.iter_mut().zip(&mut best) {
            for (request, slot) in reads.iter().zip(best.iter_mut()) {
                for _ in 0..4 {
                    let started = Instant::now();
                    let answer = match client.call(request.clone()) {
                        Ok(Response::Error { code, message }) => {
                            fail(&format!("{} answered {code}: {message}", request.kind()))
                        }
                        Ok(answer) => answer,
                        Err(e) => fail(&format!("{} failed: {e}", request.kind())),
                    };
                    let micros = started.elapsed().as_secs_f64() * 1e6;
                    if micros < slot.0 {
                        *slot = (micros, answer.encode(0).len());
                    }
                }
            }
        }
    }
    stop.store(true, Ordering::Release);
    for writer in writers {
        writer.join().expect("scaling writer panicked");
    }
    best
}

/// A node of the scaling phase: a sealed stream for `StreamQuery`, then
/// `sessions` completed sessions.
fn scaling_node(sessions: usize) -> NetServer {
    let service = Arc::new(AnalysisService::new(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    ));
    let server = NetServer::start(service, NetConfig::default())
        .unwrap_or_else(|e| fail(&format!("scaling server failed to bind: {e}")));
    let loader = AsyncClient::connect(server.local_addr())
        .unwrap_or_else(|e| fail(&format!("scaling loader failed to connect: {e}")));
    let feed: Vec<ExamRecord> =
        StreamOrder::new(&generate(&SyntheticConfig::small(), 7), 7, 4).collect();
    let open = Request::StreamOpen {
        stream: "scale".into(),
        spec: StreamMiningSpec::quick(),
    };
    let mut steps = vec![open];
    steps.extend(feed.chunks(512).map(|batch| Request::Ingest {
        stream: "scale".into(),
        records: batch.to_vec(),
    }));
    steps.push(Request::StreamSeal {
        stream: "scale".into(),
    });
    for step in steps {
        match loader.call(step, DEADLINE) {
            Ok(Response::StreamOpened { .. } | Response::Ingested { .. })
            | Ok(Response::StreamState { .. }) => {}
            other => fail(&format!("scaling stream set-up got {other:?}")),
        }
    }
    complete_sessions(&loader, 10_000..10_000 + sessions);
    server
}

/// Check 4: what a read costs must follow what it returns, not how many
/// sessions the node has served.
fn read_scaling() {
    let nodes = [40, 400].map(scaling_node);
    // Session ids count from 0: id 5 is one of the first forty.
    let [at_40, at_400] = time_reads(nodes.each_ref().map(NetServer::local_addr), 5);

    // A read may grow 2x as fast as its answer: 2x for an answer of
    // fixed size, 2x the growth of its bytes for one that lists the
    // sessions (`PastSessions`, `MetricsSnapshot`'s `sessions` array; a
    // 1.3 MB listing leaves the cache a 0.1 MB one fits, and has
    // measured 11-17x for 10-11x the bytes).
    // `WAKE_SLACK_US` on top: a loopback round trip is ~10 us when both
    // ends share a core and ~70 us when each call wakes a halted one,
    // and which of the two a phase gets is the scheduler's choice.
    const WAKE_SLACK_US: f64 = 250.0;
    let mut slow = Vec::new();
    for ((request, (small, small_bytes)), (large, large_bytes)) in
        scaling_reads(5).iter().zip(&at_40).zip(&at_400)
    {
        let allowed = 2.0 * (*large_bytes as f64 / *small_bytes as f64).max(1.0);
        let growth = large / small;
        // The line prints the bound the check applies, slack included.
        let limit = allowed * small + WAKE_SLACK_US;
        println!(
            "read scaling: {:<13} {small:>8.1} us / {small_bytes:>7} B at 40 -> \
             {large:>8.1} us / {large_bytes:>7} B at 400 ({growth:.2}x; limit {limit:.1} us \
             = {allowed:.1}x + {WAKE_SLACK_US:.0} us)",
            request.kind()
        );
        if *large > limit {
            slow.push(format!("{} grew {growth:.2}x", request.kind()));
        }
    }
    if !slow.is_empty() {
        fail(&format!("reads grow with history: {}", slow.join(", ")));
    }
    for server in nodes {
        if server.shutdown().protocol_errors != 0 {
            fail("protocol errors in the read-scaling phase");
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick: 2 blocking + 2 multiplexed sessions. Full: 4 + 8.
    let (blocking_jobs, async_jobs) = if quick { (2, 2) } else { (4, 8) };
    let started = Instant::now();

    let service = Arc::new(AnalysisService::new(
        ServiceConfig {
            workers: 2,
            queue_capacity: blocking_jobs + async_jobs + 2,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    ));
    let server = NetServer::start(Arc::clone(&service), NetConfig::default())
        .unwrap_or_else(|e| fail(&format!("server failed to bind: {e}")));
    let addr = server.local_addr();
    println!("net smoke: serving on {addr} (quick = {quick})");

    // Blocking clients: one connection per session.
    let mut blocking = Vec::new();
    for i in 0..blocking_jobs {
        let mut client = Client::connect(addr)
            .unwrap_or_else(|e| fail(&format!("client {i} failed to connect: {e}")));
        match client.call(Request::Submit(spec(i))) {
            Ok(Response::Submitted { session }) => blocking.push((session, client)),
            other => fail(&format!("client {i}: expected Submitted, got {other:?}")),
        }
    }

    // One async client multiplexes the rest of the fleet over a single
    // connection: submit everything first, then resolve the tickets.
    let multiplexed = AsyncClient::connect(addr)
        .unwrap_or_else(|e| fail(&format!("async client failed to connect: {e}")));
    let tickets: Vec<_> = (blocking_jobs..blocking_jobs + async_jobs)
        .map(|i| {
            multiplexed
                .submit(Request::Submit(spec(i)))
                .unwrap_or_else(|e| fail(&format!("async submit {i} failed: {e}")))
        })
        .collect();
    let mut async_sessions = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait(DEADLINE) {
            Ok(Response::Submitted { session }) => async_sessions.push(session),
            other => fail(&format!(
                "async ticket {i}: expected Submitted, got {other:?}"
            )),
        }
    }

    // Reads answer while the fleet is in flight.
    match multiplexed.call(Request::Health, DEADLINE) {
        Ok(Response::Health { doc }) => {
            if doc.get("status").and_then(Value::as_str).is_none() {
                fail("health document missing status");
            }
        }
        other => fail(&format!("expected Health, got {other:?}")),
    }
    match multiplexed.call(Request::MetricsSnapshot, DEADLINE) {
        Ok(Response::Metrics { prometheus, .. }) => {
            for series in ["ada_service_degraded", "ada_net_accepts_total"] {
                if !prometheus.contains(series) {
                    fail(&format!("prometheus exposition missing {series}"));
                }
            }
        }
        other => fail(&format!("expected Metrics, got {other:?}")),
    }

    // Every session completes within the deadline.
    for (session, client) in &mut blocking {
        match client.wait_terminal(*session, DEADLINE) {
            Ok((state, reason)) if state == "completed" => {
                let _ = reason;
            }
            Ok((state, reason)) => fail(&format!("session {session} ended {state}: {reason}")),
            Err(e) => fail(&format!("session {session} never resolved: {e}")),
        }
    }
    for session in &async_sessions {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match multiplexed.call(Request::Status { session: *session }, DEADLINE) {
                Ok(Response::State { state, reason, .. }) => match state.as_str() {
                    "completed" => break,
                    "failed" | "cancelled" => {
                        fail(&format!("session {session} ended {state}: {reason}"))
                    }
                    _ => {}
                },
                other => fail(&format!("expected State, got {other:?}")),
            }
            if Instant::now() >= deadline {
                fail(&format!("session {session} never completed"));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        match multiplexed.call(Request::Results { session: *session }, DEADLINE) {
            Ok(Response::ResultSummary { summary, .. }) => {
                if summary.get("clusters").and_then(Value::as_i64).unwrap_or(0) <= 0 {
                    fail(&format!("session {session} summary has no clusters"));
                }
            }
            other => fail(&format!("expected ResultSummary, got {other:?}")),
        }
    }
    let total = blocking_jobs + async_jobs;
    match multiplexed.call(Request::PastSessions, DEADLINE) {
        Ok(Response::PastSessions { sessions }) => {
            if sessions.len() != total {
                fail(&format!(
                    "expected {total} persisted session records, found {}",
                    sessions.len()
                ));
            }
        }
        other => fail(&format!("expected PastSessions, got {other:?}")),
    }
    println!(
        "fleet: {total} sessions completed over {} connections in {:.1}s",
        blocking_jobs + 1,
        started.elapsed().as_secs_f64()
    );

    // Clean drain: close clients, shut the server down, audit counters.
    drop(blocking);
    drop(multiplexed);
    let net = server.shutdown();
    if net.protocol_errors != 0 {
        fail(&format!(
            "{} protocol errors on loopback",
            net.protocol_errors
        ));
    }
    if net.in_flight != 0 {
        fail(&format!(
            "{} connections still in flight after drain",
            net.in_flight
        ));
    }
    if net.accepts != (blocking_jobs + 1) as u64 {
        fail(&format!(
            "expected {} accepts, counted {}",
            blocking_jobs + 1,
            net.accepts
        ));
    }
    let submits = net
        .requests
        .iter()
        .find(|(kind, _)| *kind == "submit")
        .map_or(0, |(_, n)| *n);
    if submits != total as u64 {
        fail(&format!(
            "expected {total} submit requests, counted {submits}"
        ));
    }
    println!(
        "drain: {} requests, {} B in / {} B out, p99 request latency {:?}",
        net.requests_total(),
        net.bytes_in,
        net.bytes_out,
        net.request_latency_p99,
    );

    let metrics = match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => fail("server shutdown left a live reference to the service"),
    };
    if metrics.completed != total as u64 {
        fail(&format!(
            "service completed {} of {total} sessions",
            metrics.completed
        ));
    }
    read_scaling();
    println!(
        "net smoke gate passed in {:.1}s.",
        started.elapsed().as_secs_f64()
    );
}
