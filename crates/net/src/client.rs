//! Clients for the ada-net wire protocol.
//!
//! Two flavours over the same framing:
//!
//! * [`Client`] — blocking, one request in flight at a time. Simple
//!   and right for scripts, smoke tests, and anything sequential.
//! * [`AsyncClient`] — a hand-rolled poll-based facade (no external
//!   runtime; the workspace is offline). One socket, one background
//!   reader thread, any number of logical requests in flight: each
//!   [`AsyncClient::submit`] returns a [`Pending`] ticket that can be
//!   [`poll`](Pending::poll)ed without blocking or
//!   [`wait`](Pending::wait)ed with a deadline. Responses are matched
//!   to tickets by request id, so slow sessions never head-of-line
//!   block fast status queries.
//!
//! Both flavours list persisted records through one paging helper
//! (`past_sessions`, `traces`): `after`/`limit` pages until a short
//! page, so a history too large for one frame is still listed whole.
//!
//! Both flavours share two observability features:
//!
//! * **Trace minting** — [`Client::with_sampling`] /
//!   [`AsyncClient::with_sampling`] arm the client to mint a
//!   [`TraceContext`](ada_obs::TraceContext) for each submitted spec
//!   that does not already carry one. Minting is deterministic in
//!   `(seed, session, rate)`; unsampled submits put *nothing* on the
//!   wire, so a rate-0 client is byte-identical to an unarmed one.
//! * **Request-latency histograms** — every resolved response is
//!   recorded in a per-kind log2 histogram, readable through
//!   [`Client::client_metrics`] / [`AsyncClient::client_metrics`].

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ada_kdb::{Document, Value};
use ada_obs::{Log2Histogram, Page, TraceContext};

use crate::frame::{frame_bytes, Decoded, FrameDecoder, MAGIC};
use crate::proto::{kind_index, Request, Response, CONNECTION_ID, REQUEST_KINDS};

/// Client-side request-latency histograms, one per request kind.
///
/// Recording is lock-free (the histograms are fixed-bucket atomics), so
/// an [`AsyncClient`]'s tickets can resolve on any thread without
/// contending.
#[derive(Debug, Default)]
pub struct ClientMetrics {
    latency: [Log2Histogram; REQUEST_KINDS.len()],
}

impl ClientMetrics {
    pub(crate) fn record(&self, kind: &str, latency: Duration) {
        if let Some(i) = kind_index(kind) {
            self.latency[i].record_duration(latency);
        }
    }

    /// Per-kind latency summaries, in the protocol's stable kind order.
    /// Kinds this client never issued report zero counts.
    pub fn snapshot(&self) -> Vec<ClientKindLatency> {
        REQUEST_KINDS
            .iter()
            .zip(&self.latency)
            .map(|(kind, hist)| ClientKindLatency {
                kind,
                count: hist.count(),
                p50: Duration::from_nanos(hist.quantile(0.5)),
                p99: Duration::from_nanos(hist.quantile(0.99)),
            })
            .collect()
    }

    /// The latency summary for one request kind, if the kind exists.
    pub fn kind(&self, kind: &str) -> Option<ClientKindLatency> {
        self.snapshot().into_iter().find(|k| k.kind == kind)
    }
}

/// One request kind's latency summary from [`ClientMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientKindLatency {
    /// The request kind label (matches [`Request::kind`]).
    pub kind: &'static str,
    /// Requests of this kind that resolved.
    pub count: u64,
    /// Median round-trip latency.
    pub p50: Duration,
    /// 99th-percentile round-trip latency.
    pub p99: Duration,
}

/// Automatic client-side retry of [`Response::Busy`] backpressure.
///
/// Both clients ship with this **on by default**: a `Busy` answer is
/// the server saying "come back in `retry_after`", and most callers
/// want that handled for them. Each retry re-sends the request (with a
/// fresh id) after sleeping `max(retry_after, base·2^(attempt−1))`,
/// capped at [`BusyRetry::cap`], plus deterministic SplitMix64 jitter
/// in `[0, base)` derived from `(seed, request id, attempt)` — the same
/// de-synchronization scheme the service's own retry backoff uses, so
/// a thundering herd of refused clients spreads out instead of
/// re-colliding. After [`BusyRetry::attempts`] retries the final
/// `Busy` is returned raw so the caller still sees honest
/// backpressure. Opt out with [`Client::without_busy_retry`] /
/// [`AsyncClient::without_busy_retry`].
///
/// The wire decode already clamps `retry_after` fail-closed (see
/// [`crate::proto::MAX_RETRY_AFTER_MS`]); `cap` bounds the client's
/// patience below even that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyRetry {
    /// Maximum retries after the first attempt (0 = behave as if off).
    pub attempts: u32,
    /// Backoff base, and the jitter range.
    pub base: Duration,
    /// Upper bound on any single sleep, server hint included.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for BusyRetry {
    fn default() -> Self {
        Self {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(5),
            seed: 0xb5e5_0b5e_550f_f0ad,
        }
    }
}

impl BusyRetry {
    /// The sleep before retry number `attempt` (1-based) of the request
    /// last sent with `id`, given the server's `retry_after` hint.
    pub fn delay(&self, id: u64, attempt: u32, retry_after: Duration) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let floor = exp.max(retry_after).min(self.cap);
        let mut z = self
            .seed
            .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jitter_nanos = (self.base.as_nanos() as u64).max(1);
        floor + Duration::from_nanos(z % jitter_nanos)
    }
}

/// Shared minting rule: a submit without an explicit context gets one
/// drawn deterministically from `(seed, session, rate)`; everything
/// else passes through untouched.
fn maybe_mint(request: &mut Request, sampling: Option<(f64, u64)>) {
    let (Request::Submit(spec), Some((rate, seed))) = (request, sampling) else {
        return;
    };
    if spec.trace.is_none() {
        spec.trace = TraceContext::mint(seed, &spec.session, rate);
    }
}

/// What can go wrong talking to an ada-net server.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer violated the framing or message discipline.
    Protocol(String),
    /// The deadline passed without a response.
    Timeout,
    /// The server answered with a typed error (`code` is machine-
    /// readable: `pool_full`, `unknown_session`, `shutting_down`,
    /// `protocol`).
    Remote {
        /// Machine-readable error code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The connection closed (or was torn down by an earlier error)
    /// before this response arrived.
    Closed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(d) => write!(f, "protocol error: {d}"),
            NetError::Timeout => write!(f, "timed out waiting for response"),
            NetError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
            NetError::Closed(d) => write!(f, "connection closed: {d}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Exchanges magics over a fresh stream: client speaks first, server
/// answers.
fn handshake(stream: &mut TcpStream, deadline: Duration) -> Result<(), NetError> {
    stream.set_write_timeout(Some(deadline))?;
    stream.set_read_timeout(Some(deadline))?;
    stream.write_all(MAGIC)?;
    let mut got = [0u8; 6];
    stream.read_exact(&mut got)?;
    if got != MAGIC {
        return Err(NetError::Protocol(format!(
            "bad server magic {:?}",
            String::from_utf8_lossy(&got)
        )));
    }
    Ok(())
}

/// A connection-level (id 0) message is the server telling us the
/// whole connection is over: surface it as the fatal reason.
fn connection_fatal(response: Response) -> NetError {
    match response {
        Response::Error { code, message } => NetError::Remote { code, message },
        other => NetError::Protocol(format!(
            "unexpected connection-level message: {}",
            other.kind()
        )),
    }
}

/// Records asked for per page by the listing helpers: at ≈ 4 KB a
/// session record, frames of ≈ 2 MB against the 16 MiB cap.
const LIST_PAGE: usize = 512;

/// How long a client waits for the handshake, and a [`Client`] for one
/// call's response.
const CALL_DEADLINE: Duration = Duration::from_secs(30);

/// Pages a listing to completion: `request` builds the message for one
/// page, `call` performs it; the cursor is the last record's `_id`, and
/// a page shorter than its limit is the last one.
fn list_all(
    request: impl Fn(Page) -> Request,
    mut call: impl FnMut(Request) -> Result<Response, NetError>,
) -> Result<Vec<Document>, NetError> {
    let mut all = Vec::new();
    let mut page = Page {
        after: 0,
        limit: LIST_PAGE,
    };
    loop {
        let docs = match call(request(page))? {
            Response::PastSessions { sessions } => sessions,
            Response::Traces { traces } => traces,
            Response::Error { code, message } => return Err(NetError::Remote { code, message }),
            other => {
                return Err(NetError::Protocol(format!(
                    "expected a listing, got {}",
                    other.kind()
                )))
            }
        };
        let Some(last) = docs.last() else {
            return Ok(all);
        };
        page.after = last
            .get("_id")
            .and_then(Value::as_i64)
            .and_then(|id| u64::try_from(id).ok())
            .ok_or_else(|| NetError::Protocol("listed record without an `_id`".into()))?;
        let last_page = docs.len() < page.limit;
        all.extend(docs);
        if last_page {
            return Ok(all);
        }
    }
}

/// The page-request builder of a trace listing.
fn trace_page(session: Option<&str>) -> impl Fn(Page) -> Request {
    let session = session.map(str::to_owned);
    move |page| Request::TracePage {
        session: session.clone(),
        page,
    }
}

/// Blocking client: one request, one response, in order.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_id: u64,
    write_seq: u64,
    sampling: Option<(f64, u64)>,
    retry: Option<BusyRetry>,
    metrics: Arc<ClientMetrics>,
}

impl Client {
    /// Connects and performs the `ADAN1` handshake.
    ///
    /// # Errors
    /// Connection failure, or a peer that does not speak the protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        handshake(&mut stream, CALL_DEADLINE)?;
        // Short read timeout so call() can poll its own deadline.
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            next_id: 1,
            write_seq: 0,
            sampling: None,
            retry: Some(BusyRetry::default()),
            metrics: Arc::new(ClientMetrics::default()),
        })
    }

    /// Arms client-side trace minting: submits without an explicit
    /// context get one drawn deterministically from
    /// `(seed, session, rate)`. Use
    /// [`ada_service::DEFAULT_TRACE_SEED`] to agree with a
    /// default-configured server. Rate 0 (or never calling this) keeps
    /// every submit byte-identical to an untraced one.
    #[must_use]
    pub fn with_sampling(mut self, rate: f64, seed: u64) -> Self {
        self.sampling = Some((rate, seed));
        self
    }

    /// This client's per-kind request-latency histograms.
    pub fn client_metrics(&self) -> Arc<ClientMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Replaces the default [`BusyRetry`] policy.
    #[must_use]
    pub fn with_busy_retry(mut self, retry: BusyRetry) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Disables automatic `Busy` retry: every `Busy` response is
    /// returned raw, as before the retry layer existed.
    #[must_use]
    pub fn without_busy_retry(mut self) -> Self {
        self.retry = None;
        self
    }

    /// Sends `request` and blocks for its response (or the deadline),
    /// transparently retrying [`Response::Busy`] under the configured
    /// [`BusyRetry`] policy.
    ///
    /// # Errors
    /// IO failure, deadline, a framing violation, or a fatal
    /// connection-level server message.
    pub fn call(&mut self, request: Request) -> Result<Response, NetError> {
        let Some(policy) = self.retry else {
            return self.call_once(request);
        };
        let mut attempt = 0u32;
        loop {
            match self.call_once(request.clone())? {
                Response::Busy { retry_after } if attempt < policy.attempts => {
                    attempt += 1;
                    // The id the refused attempt used (next_id already
                    // advanced past it) keys the jitter.
                    let refused_id = self.next_id.wrapping_sub(1);
                    std::thread::sleep(policy.delay(refused_id, attempt, retry_after));
                }
                other => return Ok(other),
            }
        }
    }

    /// One request/response exchange with no retry layer.
    fn call_once(&mut self, mut request: Request) -> Result<Response, NetError> {
        maybe_mint(&mut request, self.sampling);
        let kind = request.kind();
        let started = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let frame = frame_bytes(&request.encode(id), self.write_seq);
        self.write_seq += 1;
        self.stream.write_all(&frame)?;
        let deadline = started + CALL_DEADLINE;
        let mut buf = [0u8; 16 * 1024];
        loop {
            loop {
                match self.decoder.next_frame() {
                    Ok(Decoded::Frame(payload)) => {
                        let (got_id, response) = Response::decode(&payload)
                            .map_err(|e| NetError::Protocol(e.to_string()))?;
                        if got_id == CONNECTION_ID {
                            return Err(connection_fatal(response));
                        }
                        if got_id == id {
                            self.metrics.record(kind, started.elapsed());
                            return Ok(response);
                        }
                        // A stale response (e.g. from an abandoned call)
                        // is dropped; blocking clients have at most one
                        // outstanding id they still care about.
                    }
                    Ok(Decoded::NeedMore) => break,
                    Err(e) => return Err(NetError::Protocol(e.to_string())),
                }
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(NetError::Closed("server closed the connection".into())),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Timeout);
                    }
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Every persisted session record, fetched page by page.
    ///
    /// # Errors
    /// Any [`Client::call`] failure, or the server's typed error.
    pub fn past_sessions(&mut self) -> Result<Vec<Document>, NetError> {
        list_all(Request::PastSessionsPage, |request| self.call(request))
    }

    /// Every persisted trace record (of one session, or all), fetched
    /// page by page.
    ///
    /// # Errors
    /// Any [`Client::call`] failure, or the server's typed error.
    pub fn traces(&mut self, session: Option<&str>) -> Result<Vec<Document>, NetError> {
        list_all(trace_page(session), |request| self.call(request))
    }

    /// Polls `Status` until the session reaches a terminal state,
    /// returning `(label, reason)`. Respects `deadline` end to end.
    ///
    /// # Errors
    /// Any [`Client::call`] failure, or [`NetError::Timeout`] if the
    /// session is still live at the deadline.
    pub fn wait_terminal(
        &mut self,
        session: u64,
        deadline: Duration,
    ) -> Result<(String, String), NetError> {
        let until = Instant::now() + deadline;
        loop {
            match self.call(Request::Status { session })? {
                Response::State { state, reason, .. } => {
                    if matches!(state.as_str(), "completed" | "failed" | "cancelled") {
                        return Ok((state, reason));
                    }
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected State, got {}",
                        other.kind()
                    )))
                }
            }
            if Instant::now() >= until {
                return Err(NetError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Mailbox shared between an [`AsyncClient`]'s reader thread and its
/// [`Pending`] tickets.
struct Mailbox {
    state: Mutex<MailboxState>,
    bell: Condvar,
}

struct MailboxState {
    /// Responses parked until their ticket collects them.
    ready: HashMap<u64, Response>,
    /// Set once when the connection dies; every later wait sees it.
    closed: Option<String>,
}

/// Poll-based multiplexing client: many logical requests over one
/// socket, no external runtime.
pub struct AsyncClient {
    writer: Mutex<WriterState>,
    mailbox: Arc<Mailbox>,
    reader: Option<std::thread::JoinHandle<()>>,
    sampling: Option<(f64, u64)>,
    retry: Option<BusyRetry>,
    metrics: Arc<ClientMetrics>,
}

struct WriterState {
    stream: TcpStream,
    next_id: u64,
    write_seq: u64,
}

impl AsyncClient {
    /// Connects, handshakes, and spawns the background reader.
    ///
    /// # Errors
    /// Connection failure, or a peer that does not speak the protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        handshake(&mut stream, CALL_DEADLINE)?;
        let mailbox = Arc::new(Mailbox {
            state: Mutex::new(MailboxState {
                ready: HashMap::new(),
                closed: None,
            }),
            bell: Condvar::new(),
        });
        let read_half = stream.try_clone()?;
        let reader = {
            let mailbox = Arc::clone(&mailbox);
            std::thread::Builder::new()
                .name("ada-net-reader".to_owned())
                .spawn(move || reader_loop(read_half, &mailbox))
                .map_err(NetError::Io)?
        };
        Ok(Self {
            writer: Mutex::new(WriterState {
                stream,
                next_id: 1,
                write_seq: 0,
            }),
            mailbox,
            reader: Some(reader),
            sampling: None,
            retry: Some(BusyRetry::default()),
            metrics: Arc::new(ClientMetrics::default()),
        })
    }

    /// Arms client-side trace minting (see [`Client::with_sampling`]).
    #[must_use]
    pub fn with_sampling(mut self, rate: f64, seed: u64) -> Self {
        self.sampling = Some((rate, seed));
        self
    }

    /// Replaces the default [`BusyRetry`] policy used by
    /// [`AsyncClient::call`]. Raw [`AsyncClient::submit`] tickets are
    /// never retried — backpressure handling belongs to whoever drives
    /// the ticket.
    #[must_use]
    pub fn with_busy_retry(mut self, retry: BusyRetry) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Disables automatic `Busy` retry in [`AsyncClient::call`].
    #[must_use]
    pub fn without_busy_retry(mut self) -> Self {
        self.retry = None;
        self
    }

    /// This client's per-kind request-latency histograms.
    pub fn client_metrics(&self) -> Arc<ClientMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Sends `request` without waiting; the returned ticket resolves
    /// when the response frame arrives.
    ///
    /// # Errors
    /// Write failure or an already-dead connection.
    pub fn submit(&self, mut request: Request) -> Result<Pending, NetError> {
        maybe_mint(&mut request, self.sampling);
        let kind = request.kind();
        {
            let state = self.mailbox.state.lock().expect("mailbox lock");
            if let Some(reason) = &state.closed {
                return Err(NetError::Closed(reason.clone()));
            }
        }
        let started = Instant::now();
        let mut writer = self.writer.lock().expect("writer lock");
        let id = writer.next_id;
        writer.next_id += 1;
        let frame = frame_bytes(&request.encode(id), writer.write_seq);
        writer.write_seq += 1;
        writer.stream.write_all(&frame)?;
        Ok(Pending {
            id,
            kind,
            started,
            metrics: Arc::clone(&self.metrics),
            mailbox: Arc::clone(&self.mailbox),
        })
    }

    /// Convenience: submit and wait in one step, transparently
    /// retrying [`Response::Busy`] under the configured [`BusyRetry`]
    /// policy. `deadline` bounds the whole exchange, sleeps included:
    /// when the next backoff would overshoot it, the last `Busy` is
    /// returned raw instead of sleeping past the budget.
    ///
    /// # Errors
    /// Any [`AsyncClient::submit`] or [`Pending::wait`] failure.
    pub fn call(&self, request: Request, deadline: Duration) -> Result<Response, NetError> {
        let Some(policy) = self.retry else {
            return self.submit(request)?.wait(deadline);
        };
        let until = Instant::now() + deadline;
        let mut attempt = 0u32;
        loop {
            let pending = self.submit(request.clone())?;
            let id = pending.id();
            let remaining = until.saturating_duration_since(Instant::now());
            match pending.wait(remaining)? {
                Response::Busy { retry_after } if attempt < policy.attempts => {
                    attempt += 1;
                    let delay = policy.delay(id, attempt, retry_after);
                    if Instant::now() + delay >= until {
                        return Ok(Response::Busy { retry_after });
                    }
                    std::thread::sleep(delay);
                }
                other => return Ok(other),
            }
        }
    }

    /// Every persisted session record, fetched page by page; `deadline`
    /// bounds each page's exchange.
    ///
    /// # Errors
    /// Any [`AsyncClient::call`] failure, or the server's typed error.
    pub fn past_sessions(&self, deadline: Duration) -> Result<Vec<Document>, NetError> {
        list_all(Request::PastSessionsPage, |request| {
            self.call(request, deadline)
        })
    }

    /// Every persisted trace record (of one session, or all), fetched
    /// page by page; `deadline` bounds each page's exchange.
    ///
    /// # Errors
    /// Any [`AsyncClient::call`] failure, or the server's typed error.
    pub fn traces(
        &self,
        session: Option<&str>,
        deadline: Duration,
    ) -> Result<Vec<Document>, NetError> {
        list_all(trace_page(session), |request| self.call(request, deadline))
    }
}

impl Drop for AsyncClient {
    fn drop(&mut self) {
        // Shut the socket down so the reader thread unblocks and exits.
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

fn reader_loop(mut stream: TcpStream, mailbox: &Mailbox) {
    let close = |reason: String| {
        let mut state = mailbox.state.lock().expect("mailbox lock");
        if state.closed.is_none() {
            state.closed = Some(reason);
        }
        mailbox.bell.notify_all();
    };
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        loop {
            match decoder.next_frame() {
                Ok(Decoded::Frame(payload)) => match Response::decode(&payload) {
                    Ok((CONNECTION_ID, response)) => {
                        close(connection_fatal(response).to_string());
                        return;
                    }
                    Ok((id, response)) => {
                        let mut state = mailbox.state.lock().expect("mailbox lock");
                        state.ready.insert(id, response);
                        mailbox.bell.notify_all();
                    }
                    Err(e) => {
                        close(format!("undecodable response: {e}"));
                        return;
                    }
                },
                Ok(Decoded::NeedMore) => break,
                Err(e) => {
                    close(format!("framing error: {e}"));
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                close("server closed the connection".to_owned());
                return;
            }
            Ok(n) => decoder.push(&buf[..n]),
            Err(e) => {
                close(format!("read failed: {e}"));
                return;
            }
        }
    }
}

/// A ticket for one in-flight request on an [`AsyncClient`].
pub struct Pending {
    id: u64,
    kind: &'static str,
    started: Instant,
    metrics: Arc<ClientMetrics>,
    mailbox: Arc<Mailbox>,
}

impl Pending {
    /// The request id this ticket resolves.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Non-blocking check: `None` while still in flight, `Some` once
    /// resolved (successfully or by connection death). Consumes the
    /// response — a second poll after `Some(Ok(_))` reports the
    /// connection state instead.
    pub fn poll(&self) -> Option<Result<Response, NetError>> {
        let mut state = self.mailbox.state.lock().expect("mailbox lock");
        if let Some(response) = state.ready.remove(&self.id) {
            self.metrics.record(self.kind, self.started.elapsed());
            return Some(Ok(response));
        }
        state
            .closed
            .as_ref()
            .map(|reason| Err(NetError::Closed(reason.clone())))
    }

    /// Blocks until the response arrives, the connection dies, or
    /// `deadline` passes.
    ///
    /// # Errors
    /// [`NetError::Timeout`] at the deadline, [`NetError::Closed`] if
    /// the connection died first.
    pub fn wait(self, deadline: Duration) -> Result<Response, NetError> {
        let until = Instant::now() + deadline;
        let mut state = self.mailbox.state.lock().expect("mailbox lock");
        loop {
            if let Some(response) = state.ready.remove(&self.id) {
                self.metrics.record(self.kind, self.started.elapsed());
                return Ok(response);
            }
            if let Some(reason) = &state.closed {
                return Err(NetError::Closed(reason.clone()));
            }
            let now = Instant::now();
            if now >= until {
                return Err(NetError::Timeout);
            }
            let (next, timeout) = self
                .mailbox
                .bell
                .wait_timeout(state, until - now)
                .expect("mailbox wait");
            state = next;
            if timeout.timed_out() && !state.ready.contains_key(&self.id) {
                if state.closed.is_some() {
                    let reason = state.closed.clone().unwrap_or_default();
                    return Err(NetError::Closed(reason));
                }
                return Err(NetError::Timeout);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_retry_delay_is_deterministic_bounded_and_honors_the_hint() {
        let policy = BusyRetry::default();
        // Deterministic: same (id, attempt, hint) → same delay.
        assert_eq!(
            policy.delay(7, 1, Duration::from_millis(40)),
            policy.delay(7, 1, Duration::from_millis(40)),
        );
        // Jitter de-synchronizes distinct requests.
        assert_ne!(
            policy.delay(7, 1, Duration::ZERO),
            policy.delay(8, 1, Duration::ZERO),
        );
        for attempt in 1..=8 {
            for hint_ms in [0u64, 40, 500, 60_000] {
                let hint = Duration::from_millis(hint_ms);
                let d = policy.delay(3, attempt, hint);
                // Floor: at least the server hint (up to the cap) and at
                // least the exponential term (up to the cap).
                assert!(
                    d >= hint.min(policy.cap),
                    "attempt {attempt} hint {hint_ms}"
                );
                // Ceiling: cap plus one jitter range, even for a 60 s hint.
                assert!(
                    d < policy.cap + policy.base,
                    "attempt {attempt} hint {hint_ms}"
                );
            }
        }
        // The exponential term grows until the cap dominates.
        assert!(policy.delay(3, 3, Duration::ZERO) > policy.delay(3, 1, Duration::ZERO));
    }
}
