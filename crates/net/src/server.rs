//! The TCP front-end: a bounded-accept connection pool serving the
//! analysis service to remote clients.
//!
//! One acceptor thread plus one thread per live connection (bounded by
//! [`NetConfig::max_connections`]; connections beyond the cap receive a
//! `pool_full` notification and are closed — rejection, not queueing,
//! mirroring the job queue's backpressure discipline). Each connection
//! handles framed requests sequentially but clients may pipeline many
//! logical requests; responses echo request ids, so a multiplexing
//! client can have any number in flight.
//!
//! Service semantics cross the wire faithfully:
//!
//! * queue-full backpressure becomes a typed [`Response::Busy`] with
//!   the service's retry hint — never a hang;
//! * sticky degraded mode maps to [`Response::Degraded`] while
//!   `Status`/`Results`/`PastSessions`/`Health` keep answering;
//! * listings (`PastSessions`, `TraceQuery`) are encoded straight out of
//!   a K-DB image — borrowed records, no copy — whole or one
//!   `after`/`limit` page at a time; an answer past [`MAX_FRAME_LEN`]
//!   becomes `error{code="response_too_large"}`, not a frame the peer
//!   must reject;
//! * `Cancel` reaches the session's `RunControl` checkpoint exactly as
//!   an in-process cancel does, and per-attempt deadlines ride in on
//!   the submitted spec;
//! * every accept, reject, protocol error and request is visible
//!   through [`NetMetrics`] and marked in the service's `ada-obs`
//!   flight recorder.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ada_kdb::{Document, Value};
use ada_obs::{past_sessions, past_traces, Page};
use ada_service::{AnalysisService, ServiceError, SessionId, SessionOutcome, SessionState};

use crate::frame::{frame_bytes, Decoded, FrameDecoder, MAGIC, MAX_FRAME_LEN};
use crate::metrics::NetMetrics;
use crate::proto::{Request, Response, CONNECTION_ID};

/// Obs mark: a connection was accepted into the pool.
pub const MARK_NET_ACCEPT: &str = "net_accept";
/// Obs mark: a connection was rejected (pool full).
pub const MARK_NET_REJECT: &str = "net_reject";
/// Obs mark: a framing/protocol violation closed a connection.
pub const MARK_NET_PROTO_ERR: &str = "net_protocol_error";

/// Session label net marks are recorded under in the flight recorder.
const NET_SESSION: &str = "net";

/// Tuning knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address; port 0 binds an ephemeral port (read the real
    /// one back from [`NetServer::local_addr`]).
    pub addr: String,
    /// Connections served concurrently; beyond this, accepts are
    /// rejected with a `pool_full` notification.
    pub max_connections: usize,
    /// Per-connection deadline for finishing a started frame and for
    /// writing a response. Idle gaps *between* frames are not bounded
    /// by this (clients may poll slowly); a torn frame that stops
    /// mid-byte-stream is.
    pub io_deadline: Duration,
    /// How long a connection may sit idle (no new frame started)
    /// before the server closes it.
    pub idle_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: 32,
            io_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

struct ServerShared {
    service: Arc<AnalysisService>,
    metrics: NetMetrics,
    config: NetConfig,
    shutting_down: AtomicBool,
    live_connections: AtomicUsize,
}

/// The TCP server. Dropping it (or calling [`NetServer::shutdown`])
/// stops the acceptor, drains in-flight requests, and joins every
/// connection thread.
pub struct NetServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `config.addr` and starts serving `service`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn start(service: Arc<AnalysisService>, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            metrics: NetMetrics::new(),
            config,
            shutting_down: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("ada-net-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared, &connections))
                .expect("spawn acceptor")
        };
        Ok(Self {
            shared,
            addr,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the net-layer metrics.
    pub fn metrics(&self) -> crate::metrics::NetMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Combined Prometheus exposition: the service's `ada_*` series
    /// (including the stable `ada_service_degraded` gauge) followed by
    /// the net layer's `ada_net_*` series.
    pub fn snapshot_prometheus(&self) -> String {
        let mut out = self.shared.service.snapshot_prometheus();
        out.push_str(&self.shared.metrics.snapshot().to_prometheus());
        out
    }

    /// Stops accepting, lets in-flight requests finish, joins every
    /// connection thread, and returns the final net metrics. The
    /// analysis service itself keeps running — it is shared and may
    /// outlive its front-end.
    pub fn shutdown(mut self) -> crate::metrics::NetMetricsSnapshot {
        self.stop();
        self.shared.metrics.snapshot()
    }

    fn stop(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self
            .connections
            .lock()
            .expect("connections lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        if shared.live_connections.load(Ordering::Acquire) >= shared.config.max_connections {
            // Detached short-lived thread: the rejection handshake must
            // not block the acceptor (it lingers briefly so the peer
            // can read the notification before the socket dies).
            let reject_shared = Arc::clone(shared);
            let _ = std::thread::Builder::new()
                .name("ada-net-reject".to_owned())
                .spawn(move || reject_connection(&reject_shared, stream));
            continue;
        }
        shared.live_connections.fetch_add(1, Ordering::AcqRel);
        shared.metrics.connection_accepted();
        shared
            .service
            .recorder()
            .mark(NET_SESSION, MARK_NET_ACCEPT, Duration::ZERO);
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("ada-net-conn".to_owned())
            .spawn(move || {
                serve_connection(&conn_shared, stream);
                conn_shared.live_connections.fetch_sub(1, Ordering::AcqRel);
                conn_shared.metrics.connection_closed();
            })
            .expect("spawn connection");
        let mut conns = connections.lock().expect("connections lock");
        // Opportunistically reap finished threads so a long-lived server
        // does not accumulate handles.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        conns.push(handle);
    }
}

/// Pool full: greet with the magic (so the client's handshake
/// completes), send an unsolicited `pool_full` error under the
/// connection id, and close.
fn reject_connection(shared: &ServerShared, mut stream: TcpStream) {
    shared.metrics.connection_rejected();
    shared
        .service
        .recorder()
        .mark(NET_SESSION, MARK_NET_REJECT, Duration::ZERO);
    let _ = stream.set_write_timeout(Some(shared.config.io_deadline));
    let _ = stream.write_all(MAGIC);
    let payload = Response::Error {
        code: "pool_full".to_owned(),
        message: format!(
            "connection pool at capacity ({})",
            shared.config.max_connections
        ),
    }
    .encode(CONNECTION_ID);
    if stream.write_all(&frame_bytes(&payload, 0)).is_err() {
        return;
    }
    // Closing immediately would race the peer's first write: its RST
    // discards our unread notification. Drain until the peer closes (a
    // client drops the connection on seeing pool_full) or a short grace
    // expires, so the typed rejection actually arrives.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline || shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Poll granularity for the blocking reads, so shutdown and idle
/// deadlines are observed promptly without busy-waiting.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

fn serve_connection(shared: &ServerShared, mut stream: TcpStream) {
    if stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .and(stream.set_write_timeout(Some(shared.config.io_deadline)))
        .is_err()
    {
        return;
    }

    // Handshake: read the client's magic, answer with ours.
    if !read_magic(shared, &mut stream) {
        return;
    }
    if stream.write_all(MAGIC).is_err() {
        return;
    }

    let mut decoder = FrameDecoder::new();
    let mut write_seq = 0u64;
    let mut buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    // Deadline for completing the frame currently being read (armed
    // once a frame's first bytes arrive).
    let mut frame_deadline: Option<Instant> = None;

    loop {
        // Drain every complete frame already buffered.
        loop {
            match decoder.next_frame() {
                Ok(Decoded::Frame(payload)) => {
                    shared.metrics.frame_in(payload.len());
                    frame_deadline = None;
                    last_activity = Instant::now();
                    if !handle_frame(shared, &mut stream, &payload, &mut write_seq) {
                        return;
                    }
                }
                Ok(Decoded::NeedMore) => break,
                Err(err) => {
                    protocol_error(shared, &mut stream, &mut write_seq, &err.to_string());
                    return;
                }
            }
        }

        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if decoder.buffered() == 0 {
                    // First bytes of a new frame arm its deadline.
                    frame_deadline = Some(Instant::now() + shared.config.io_deadline);
                }
                decoder.push(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                if let Some(deadline) = frame_deadline {
                    if Instant::now() >= deadline {
                        protocol_error(
                            shared,
                            &mut stream,
                            &mut write_seq,
                            "torn frame: peer stalled mid-frame",
                        );
                        return;
                    }
                } else if last_activity.elapsed() >= shared.config.idle_timeout {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Reads and validates the 6-byte client magic, polling so shutdown is
/// honored while waiting.
fn read_magic(shared: &ServerShared, stream: &mut TcpStream) -> bool {
    let mut got = [0u8; 6];
    let mut filled = 0usize;
    let deadline = Instant::now() + shared.config.io_deadline;
    while filled < got.len() {
        match stream.read(&mut got[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down.load(Ordering::Acquire) || Instant::now() >= deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    if got != MAGIC {
        shared.metrics.protocol_error();
        shared
            .service
            .recorder()
            .mark(NET_SESSION, MARK_NET_PROTO_ERR, Duration::ZERO);
        return false;
    }
    true
}

/// Records a protocol violation and best-effort notifies the peer
/// before the connection dies.
fn protocol_error(shared: &ServerShared, stream: &mut TcpStream, seq: &mut u64, detail: &str) {
    shared.metrics.protocol_error();
    shared
        .service
        .recorder()
        .mark(NET_SESSION, MARK_NET_PROTO_ERR, Duration::ZERO);
    let payload = Response::Error {
        code: "protocol".to_owned(),
        message: detail.to_owned(),
    }
    .encode(CONNECTION_ID);
    let _ = write_frame(shared, stream, &payload, seq);
}

fn write_frame(
    shared: &ServerShared,
    stream: &mut TcpStream,
    payload: &[u8],
    seq: &mut u64,
) -> bool {
    let bytes = frame_bytes(payload, *seq);
    *seq += 1;
    shared.metrics.frame_out(bytes.len());
    stream.write_all(&bytes).is_ok()
}

/// Decodes and serves one request frame. Returns `false` when the
/// connection must close.
fn handle_frame(
    shared: &ServerShared,
    stream: &mut TcpStream,
    payload: &[u8],
    seq: &mut u64,
) -> bool {
    let started = Instant::now();
    let (id, request) = match Request::decode(payload) {
        Ok(decoded) => decoded,
        Err(err) => {
            protocol_error(shared, stream, seq, &err.to_string());
            return false;
        }
    };
    let decode_latency = started.elapsed();
    let (kind, mark) = (request.kind(), request.mark());
    let mut answer = serve_request(shared, request, id, payload.len(), decode_latency);
    let elapsed = started.elapsed();
    shared.metrics.request(kind, elapsed);
    shared.service.recorder().mark(NET_SESSION, mark, elapsed);
    if answer.len() > MAX_FRAME_LEN {
        // The peer's decoder would kill the connection on this frame.
        answer = Response::Error {
            code: "response_too_large".to_owned(),
            message: format!(
                "{kind} answer of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; \
                 page it with `after`/`limit`",
                answer.len()
            ),
        }
        .encode(id);
    }
    write_frame(shared, stream, &answer, seq)
}

/// Maps one request onto the analysis service and encodes the answer
/// (under logical id `id`) — here rather than in the caller because a
/// listing's records are only borrowed from a store image.
fn serve_request(
    shared: &ServerShared,
    request: Request,
    id: u64,
    frame_bytes: usize,
    decode_latency: Duration,
) -> Vec<u8> {
    let service = &shared.service;
    let past_sessions_page = |page: Page| {
        let image = service.kdb().read();
        Response::encode_past_sessions(id, &past_sessions(&image, page))
    };
    let trace_page = |session: Option<String>, page: Page| {
        let image = service.kdb().read();
        Response::encode_traces(id, &past_traces(&image, session.as_deref(), page))
    };
    let response = match request {
        Request::Submit(spec) => {
            // A sampled context that crossed the wire gets its decode
            // recorded as a span; the annotation folds into the trace
            // once the session registers the context in `run_job`.
            // Untraced submits record nothing, keeping the rate-0 path
            // byte-identical.
            if spec.trace.is_some_and(|ctx| ctx.sampled) {
                service.recorder().trace_annotation(
                    &spec.session,
                    "server_decode",
                    decode_latency,
                    &[("frame_bytes", frame_bytes as u64)],
                );
            }
            match service.submit(spec.materialize()) {
                Ok(id) => Response::Submitted { session: id.0 },
                Err(err) => service_error_response(&err),
            }
        }
        Request::Status { session } => match service.state(SessionId(session)) {
            Ok(state) => Response::State {
                session,
                state: state.label().to_owned(),
                reason: match &state {
                    SessionState::Failed { reason } => reason.clone(),
                    _ => String::new(),
                },
            },
            Err(err) => service_error_response(&err),
        },
        Request::Cancel { session } => match service.cancel(SessionId(session)) {
            Ok(()) => Response::Cancelled { session },
            Err(err) => service_error_response(&err),
        },
        Request::Results { session } => match service.state(SessionId(session)) {
            Ok(state) => Response::ResultSummary {
                session,
                state: state.label().to_owned(),
                summary: match &state {
                    SessionState::Completed(SessionOutcome::Pipeline(report)) => {
                        report_summary(report)
                    }
                    SessionState::Completed(SessionOutcome::Signals(report)) => {
                        signals_summary(report)
                    }
                    SessionState::Completed(SessionOutcome::Stream(report)) => {
                        stream_summary(report)
                    }
                    _ => Document::new(),
                },
            },
            Err(err) => service_error_response(&err),
        },
        Request::PastSessions => return past_sessions_page(Page::ALL),
        Request::PastSessionsPage(page) => return past_sessions_page(page),
        Request::TraceQuery { session } => return trace_page(session, Page::ALL),
        Request::TracePage { session, page } => return trace_page(session, page),
        Request::Health => {
            let doc = service
                .health()
                .with(
                    "net_connections",
                    i64::try_from(shared.live_connections.load(Ordering::Acquire))
                        .unwrap_or(i64::MAX),
                )
                .with(
                    "net_accepting",
                    !shared.shutting_down.load(Ordering::Acquire),
                );
            Response::Health { doc }
        }
        Request::MetricsSnapshot => {
            let mut doc = service.snapshot();
            doc.set("net", Value::Doc(shared.metrics.snapshot().to_document()));
            let mut prometheus = service.snapshot_prometheus();
            prometheus.push_str(&shared.metrics.snapshot().to_prometheus());
            Response::Metrics { doc, prometheus }
        }
        Request::StreamOpen { stream, spec } => {
            match service.stream_open(spec.to_config(stream.clone())) {
                Ok(resumed_windows) => Response::StreamOpened {
                    stream,
                    resumed_windows,
                },
                Err(err) => service_error_response(&err),
            }
        }
        Request::Ingest { stream, records } => match service.stream_ingest(&stream, records) {
            Ok(ack) => Response::Ingested {
                accepted: ack.accepted as u64,
                pending: ack.pending as u64,
            },
            Err(err) => service_error_response(&err),
        },
        Request::StreamQuery { stream } => match service.stream_query(&stream) {
            Ok(doc) => Response::StreamState { doc },
            Err(err) => service_error_response(&err),
        },
        Request::StreamSeal { stream } => match service.stream_seal(&stream) {
            Ok(doc) => Response::StreamState { doc },
            Err(err) => service_error_response(&err),
        },
    };
    response.encode(id)
}

/// The wire image of a [`ServiceError`]: backpressure and degraded
/// mode are typed responses (not opaque failures), the rest are coded
/// errors.
fn service_error_response(err: &ServiceError) -> Response {
    match err {
        ServiceError::Busy {
            retry_after_hint, ..
        } => Response::Busy {
            retry_after: *retry_after_hint,
        },
        ServiceError::Degraded | ServiceError::Follower => Response::Degraded {
            detail: err.to_string(),
        },
        ServiceError::UnknownSession(id) => Response::Error {
            code: "unknown_session".to_owned(),
            message: id.to_string(),
        },
        ServiceError::ShuttingDown => Response::Error {
            code: "shutting_down".to_owned(),
            message: err.to_string(),
        },
        ServiceError::UnknownStream(name) => Response::Error {
            code: "unknown_stream".to_owned(),
            message: name.clone(),
        },
        ServiceError::StreamFault(_) => Response::Error {
            code: "stream_fault".to_owned(),
            message: err.to_string(),
        },
    }
}

/// Compact result summary for a completed safety-signal session: the
/// top-ranked association plus the table/feedback counts.
fn signals_summary(report: &ada_signals::SignalSessionReport) -> Document {
    let top = report.signals.first();
    Document::new()
        .with(
            "signals",
            i64::try_from(report.signals.len()).unwrap_or(i64::MAX),
        )
        .with(
            "tables_built",
            i64::try_from(report.tables_built).unwrap_or(i64::MAX),
        )
        .with(
            "top_exposure",
            top.map_or_else(String::new, |s| s.exposure.clone()),
        )
        .with(
            "top_outcome",
            top.map_or_else(String::new, |s| s.outcome.to_string()),
        )
        .with("top_score", top.map_or(0.0, |s| s.score))
        .with(
            "feedback_recorded",
            i64::try_from(report.feedback_recorded).unwrap_or(i64::MAX),
        )
}

/// Compact result summary for a completed stream-mining session: the
/// deterministic fingerprints plus the window/model counters.
fn stream_summary(report: &ada_stream::StreamReport) -> Document {
    let count = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    Document::new()
        .with("stream", report.stream.as_str())
        .with("ingested", count(report.ingested))
        .with("folded", count(report.folded))
        .with("windows_closed", count(report.windows_closed))
        .with("refits", count(report.refits))
        .with("rows", i64::try_from(report.rows).unwrap_or(i64::MAX))
        .with("vocab", i64::try_from(report.vocab).unwrap_or(i64::MAX))
        .with("drift", report.drift)
        .with("sse", report.sse)
        .with("has_model", report.has_model)
        .with("vsm_fp", report.vsm_fp.as_str())
        .with("model_fp", report.model_fp.as_str())
}

/// Compact result summary for a completed session: enough for a remote
/// caller to decide whether to fetch artifacts from the K-DB.
fn report_summary(report: &ada_core::SessionReport) -> Document {
    let top_goal = report
        .goals
        .first()
        .map_or_else(String::new, |(g, _, _)| g.name().to_owned());
    Document::new()
        .with(
            "selected_k",
            i64::try_from(report.optimizer.selected_k).unwrap_or(i64::MAX),
        )
        .with(
            "clusters",
            i64::try_from(report.clusters.len()).unwrap_or(i64::MAX),
        )
        .with(
            "rules",
            i64::try_from(report.rules.len()).unwrap_or(i64::MAX),
        )
        .with("top_goal", top_goal)
        .with(
            "ranked_items",
            i64::try_from(report.ranked_items.len()).unwrap_or(i64::MAX),
        )
        .with(
            "feedback_recorded",
            i64::try_from(report.feedback_recorded).unwrap_or(i64::MAX),
        )
}
