//! A remote fleet: analysis sessions submitted over the ADAN1 wire.
//!
//! The paper's closing vision is analytics as a *service* — clinicians
//! and scheduled jobs submitting questions to a long-lived installation
//! that accumulates knowledge in one shared K-DB. This example runs
//! that topology in one process: an [`AnalysisService`] behind a
//! loopback [`NetServer`], a blocking [`Client`] submitting sessions
//! one connection each, and one poll-based [`AsyncClient`] multiplexing
//! several logical requests over a single connection — no external
//! async runtime anywhere.
//!
//! ```text
//! cargo run --release --example remote_fleet
//! ```

use std::sync::Arc;
use std::time::Duration;

use ada_health::kdb::{SharedKdb, Value};
use ada_health::net::proto::{CohortSpec, Request, Response, WireJobSpec};
use ada_health::net::{AsyncClient, Client, NetConfig, NetServer};
use ada_health::service::{AnalysisService, ServiceConfig};

fn main() {
    // The "installation": a service on a shared K-DB, served over TCP.
    let service = Arc::new(AnalysisService::new(
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    ));
    let server =
        NetServer::start(Arc::clone(&service), NetConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    println!("== ada-net serving on {addr} ==");

    // Three sessions over individual blocking connections.
    println!("\n== blocking clients, one connection each ==");
    let mut blocking = Vec::new();
    for i in 0..3u64 {
        let mut client = Client::connect(addr).expect("connect");
        let spec = WireJobSpec::quick(format!("clinic-{i}"), CohortSpec::small(9_000 + i));
        match client.call(Request::Submit(spec)).expect("submit") {
            Response::Submitted { session } => {
                println!("  session {session}  clinic-{i}");
                blocking.push((session, client));
            }
            other => panic!("expected Submitted, got {other:?}"),
        }
    }

    // Five more multiplexed over ONE connection: submit all five, then
    // resolve the tickets — requests in flight simultaneously.
    println!("\n== async client, five sessions on one connection ==");
    let multiplexed = AsyncClient::connect(addr).expect("connect");
    let tickets: Vec<_> = (0..5u64)
        .map(|i| {
            let spec = WireJobSpec::quick(format!("sweep-{i}"), CohortSpec::small(9_500 + i));
            multiplexed.submit(Request::Submit(spec)).expect("submit")
        })
        .collect();
    let mut sweep = Vec::new();
    for ticket in tickets {
        match ticket
            .wait(Duration::from_secs(60))
            .expect("submission resolves")
        {
            Response::Submitted { session } => sweep.push(session),
            other => panic!("expected Submitted, got {other:?}"),
        }
    }
    println!("  sessions {sweep:?} all in flight");

    // Health answers while the fleet runs.
    if let Response::Health { doc } = multiplexed
        .call(Request::Health, Duration::from_secs(60))
        .expect("health")
    {
        println!(
            "  health mid-fleet: status={} connections={}",
            doc.get("status").and_then(Value::as_str).unwrap_or("?"),
            doc.get("net_connections")
                .and_then(Value::as_i64)
                .unwrap_or(-1),
        );
    }

    // Wait for every session and print its remote result summary.
    println!("\n== results over the wire ==");
    for (session, client) in &mut blocking {
        let (state, _) = client
            .wait_terminal(*session, Duration::from_secs(300))
            .expect("terminal");
        print_summary(
            *session,
            &state,
            client.call(Request::Results { session: *session }),
        );
    }
    let mut status_client = Client::connect(addr).expect("connect");
    for session in sweep {
        let (state, _) = status_client
            .wait_terminal(session, Duration::from_secs(300))
            .expect("terminal");
        print_summary(
            session,
            &state,
            status_client.call(Request::Results { session }),
        );
    }

    // The combined exposition: service series plus the ada_net_* family.
    println!("\n== prometheus (net series) ==");
    for line in server.snapshot_prometheus().lines() {
        if line.starts_with("ada_net_") {
            println!("  {line}");
        }
    }

    drop(blocking);
    drop(status_client);
    drop(multiplexed);
    let net = server.shutdown();
    println!(
        "\n== drain ==\n  {} accepts, {} requests, {} protocol errors",
        net.accepts,
        net.requests_total(),
        net.protocol_errors
    );
}

fn print_summary(session: u64, state: &str, results: Result<Response, ada_health::net::NetError>) {
    match results {
        Ok(Response::ResultSummary { summary, .. }) => {
            println!(
                "  session {session}  {state:<10} k={} clusters={} rules={} top-goal={}",
                summary
                    .get("selected_k")
                    .and_then(Value::as_i64)
                    .unwrap_or(0),
                summary.get("clusters").and_then(Value::as_i64).unwrap_or(0),
                summary.get("rules").and_then(Value::as_i64).unwrap_or(0),
                summary
                    .get("top_goal")
                    .and_then(Value::as_str)
                    .unwrap_or("-"),
            );
        }
        other => println!("  session {session}  {state:<10} (no summary: {other:?})"),
    }
}
