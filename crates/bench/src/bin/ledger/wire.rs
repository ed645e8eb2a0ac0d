//! Client-side drivers: everything the ledger does to the fleet goes
//! through these functions, over ADAN1 on loopback.
//!
//! A session is `Submit` → `Status` polled at a fixed 1 ms cadence →
//! `Results`. `Client::wait_terminal` is deliberately not used: its
//! 20 ms sleep floors a small session at ≈ 21 ms, so the ledger polls
//! from its own loop and counts the polls it sends.

use std::time::{Duration, Instant};

use ada_dataset::ExamRecord;
use ada_kdb::Document;
use ada_net::{AsyncClient, Client, NetError, Request, Response, WireJobSpec};
use ada_stream::StreamMiningSpec;

/// Gap between two `Status` polls of one session.
pub const POLL_EVERY: Duration = Duration::from_millis(1);

/// Records per `Ingest` batch.
pub const BATCH: usize = 512;

/// `Busy` answers tolerated per operation before it counts as failed.
const BUSY_BUDGET: u32 = 200;

/// Longest single `Busy` back-off the ledger will honour.
const BUSY_CAP: Duration = Duration::from_secs(2);

/// Deadline of any one request, and of a whole session.
const CALL_DEADLINE: Duration = Duration::from_secs(120);

/// Something a request can be sent through: the blocking client, or a
/// shared multiplexed one (several sessions in flight per connection).
pub trait Caller {
    fn call(&mut self, request: Request) -> Result<Response, NetError>;
}

impl Caller for Client {
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        Client::call(self, request)
    }
}

impl Caller for &AsyncClient {
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        AsyncClient::call(self, request, CALL_DEADLINE)
    }
}

/// Operations attempted and failed by one driver thread. An operation
/// fails when the call errors, the answer is malformed or of the wrong
/// kind, a session ends in any state but `completed`, or `Busy`
/// outlasts the retry budget.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation; a failure keeps its first message.
    pub fn count<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                None
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends `request`, sleeping out `Busy` answers as the server asks.
/// Returns the answer and how many `Busy` answers preceded it.
fn call_through_busy(
    caller: &mut impl Caller,
    request: &Request,
) -> Result<(Response, u32), String> {
    let mut busy = 0u32;
    loop {
        match caller.call(request.clone()) {
            Ok(Response::Busy { retry_after }) if busy < BUSY_BUDGET => {
                busy += 1;
                std::thread::sleep(retry_after.min(BUSY_CAP));
            }
            Ok(Response::Busy { .. }) => {
                return Err(format!(
                    "{} still refused after {BUSY_BUDGET} retries",
                    request.kind()
                ))
            }
            Ok(Response::Error { code, message }) => {
                return Err(format!(
                    "{} answered error [{code}]: {message}",
                    request.kind()
                ))
            }
            Ok(other) => return Ok((other, busy)),
            Err(e) => return Err(format!("{} failed: {e}", request.kind())),
        }
    }
}

/// One request, timed; any answer of the expected kind counts.
pub fn timed_call(caller: &mut impl Caller, request: &Request) -> Result<(Response, f64), String> {
    let started = Instant::now();
    let (response, _) = call_through_busy(caller, request)?;
    Ok((response, ms(started.elapsed())))
}

/// What one session looked like from the client.
#[derive(Debug, Clone)]
pub struct SessionSample {
    pub name: String,
    /// Server-assigned session id.
    pub id: u64,
    /// `Submit` sent → `Submitted` received.
    pub submit_ack_ms: f64,
    /// `Submit` sent → terminal seen → `Results` received.
    pub total_ms: f64,
    /// Round trip of every `Status` poll sent, in microseconds.
    pub poll_us: Vec<f32>,
    /// The `Results` summary document.
    pub summary: Document,
    /// `Submit` sent, `Submitted` received, terminal state seen,
    /// `Results` received.
    pub at: [Instant; 4],
}

/// Runs one session to completion. Fails unless it ends `completed`.
pub fn run_session(caller: &mut impl Caller, spec: WireJobSpec) -> Result<SessionSample, String> {
    let name = spec.session.clone();
    let started = Instant::now();
    let (response, _) = call_through_busy(caller, &Request::Submit(spec))?;
    let Response::Submitted { session } = response else {
        return Err(format!("submit answered {}", response.kind()));
    };
    let acked = Instant::now();
    let mut poll_us = Vec::new();
    loop {
        let poll_at = Instant::now();
        let answer = caller.call(Request::Status { session });
        poll_us.push(poll_at.elapsed().as_secs_f32() * 1e6);
        match answer {
            Ok(Response::State { state, reason, .. }) => match state.as_str() {
                "completed" => break,
                "failed" | "cancelled" => {
                    return Err(format!("session {name} ended {state}: {reason}"))
                }
                _ => {}
            },
            Ok(other) => return Err(format!("status answered {}", other.kind())),
            Err(e) => return Err(format!("status failed: {e}")),
        }
        if started.elapsed() > CALL_DEADLINE {
            return Err(format!(
                "session {name} not terminal within {CALL_DEADLINE:?}"
            ));
        }
        std::thread::sleep(POLL_EVERY.saturating_sub(poll_at.elapsed()));
    }
    let terminal = Instant::now();
    let summary = match caller.call(Request::Results { session }) {
        Ok(Response::ResultSummary { state, summary, .. }) if state == "completed" => summary,
        Ok(other) => return Err(format!("results answered {}", other.kind())),
        Err(e) => return Err(format!("results failed: {e}")),
    };
    let done = Instant::now();
    Ok(SessionSample {
        name,
        id: session,
        submit_ack_ms: ms(acked - started),
        total_ms: ms(done - started),
        poll_us,
        summary,
        at: [started, acked, terminal, done],
    })
}

/// What feeding one stream looked like from the client.
#[derive(Debug, Clone)]
pub struct StreamSample {
    pub name: String,
    /// Records sent: the whole feed, or what fitted before the deadline.
    pub sent: u64,
    /// The whole feed was sent.
    pub complete: bool,
    /// Records acknowledged (`Ingested.accepted` summed).
    pub acked: u64,
    /// Per batch: `Ingest` first sent → `Ingested`, Busy waits included.
    pub ack_ms: Vec<f64>,
    /// `Ingest` requests sent, and how many of them were answered Busy.
    pub attempts: u64,
    pub busy: u64,
    /// First `Ingest` sent → `StreamSeal` answered.
    pub feed_s: f64,
    /// `StreamSeal` sent → final `StreamState`.
    pub seal_ms: f64,
    /// The sealed stream's status document.
    pub sealed: Document,
    /// First `Ingest` sent, `StreamSeal` sent, final state received.
    pub at: [Instant; 3],
}

/// Opens `name`, pushes `feed` as [`BATCH`]-record batches — no new
/// batch once `deadline` has passed — and seals. `tally` counts the
/// open, every batch and the seal as operations.
pub fn feed_stream(
    caller: &mut impl Caller,
    name: &str,
    spec: &StreamMiningSpec,
    feed: &[ExamRecord],
    deadline: Option<Instant>,
    tally: &mut Tally,
) -> Result<StreamSample, String> {
    let open = Request::StreamOpen {
        stream: name.to_owned(),
        spec: spec.clone(),
    };
    tally
        .count(call_through_busy(caller, &open).and_then(|(r, _)| match r {
            Response::StreamOpened { .. } => Ok(()),
            other => Err(format!("stream_open answered {}", other.kind())),
        }))
        .ok_or("stream did not open")?;
    let started = Instant::now();
    let mut sample = StreamSample {
        name: name.to_owned(),
        sent: 0,
        complete: true,
        acked: 0,
        ack_ms: Vec::with_capacity(feed.len() / BATCH + 1),
        attempts: 0,
        busy: 0,
        feed_s: 0.0,
        seal_ms: 0.0,
        sealed: Document::new(),
        at: [started; 3],
    };
    for batch in feed.chunks(BATCH) {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            sample.complete = false;
            break;
        }
        sample.sent += batch.len() as u64;
        let request = Request::Ingest {
            stream: name.to_owned(),
            records: batch.to_vec(),
        };
        let sent = Instant::now();
        let outcome = call_through_busy(caller, &request).and_then(|(r, busy)| match r {
            Response::Ingested { accepted, .. } => Ok((accepted, busy)),
            other => Err(format!("ingest answered {}", other.kind())),
        });
        if let Some((accepted, busy)) = tally.count(outcome) {
            sample.acked += accepted;
            sample.attempts += u64::from(busy) + 1;
            sample.busy += u64::from(busy);
            sample.ack_ms.push(ms(sent.elapsed()));
        }
    }
    let seal_sent = Instant::now();
    let seal = Request::StreamSeal {
        stream: name.to_owned(),
    };
    sample.sealed = tally
        .count(call_through_busy(caller, &seal).and_then(|(r, _)| match r {
            Response::StreamState { doc } => Ok(doc),
            other => Err(format!("stream_seal answered {}", other.kind())),
        }))
        .ok_or("stream did not seal")?;
    let done = Instant::now();
    sample.seal_ms = ms(done - seal_sent);
    sample.feed_s = (done - started).as_secs_f64();
    sample.at = [started, seal_sent, done];
    Ok(sample)
}
