//! The request/response protocol carried inside ADAN1 frames.
//!
//! Every message is one K-DB [`Document`] in the canonical `Value`
//! encoding (`ada_kdb::document`), so the wire shares its payload codec
//! with the journal: self-delimiting, length-prefixed, no escaping. A
//! message document always carries an `id` (the logical request id —
//! responses echo it, which is what lets many in-flight requests
//! multiplex over one connection) and a `kind` tag; the remaining
//! fields are per-kind.
//!
//! Request id 0 is reserved for *connection-level* notifications the
//! server sends unsolicited (today: `error{code="pool_full"}` when the
//! connection cap rejects the connection before any request was read).
//!
//! Responses are encoded without building that message document:
//! [`Response::encode`] streams the envelope's fields in key order from
//! borrowed payloads (the bytes are those of the built document — see
//! the golden tests), [`Response::encode_past_sessions`] /
//! [`Response::encode_traces`] encode listings straight out of a store
//! image — splicing each record's cached canonical text
//! ([`ada_kdb::Stored`]), so a record is encoded once however often it
//! is listed — and decoding moves each payload out of the parsed
//! message.
//!
//! Listings page: `past_sessions` / `trace_query` requests may carry
//! `after` (an `_id` cursor) and `limit`; without them the request is
//! the unpaged one and the answer is everything.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use ada_core::AdaHealthConfig;
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::{ConditionGroup, Date, ExamRecord, ExamTypeId, PatientId};
use ada_kdb::{Document, Stored, Value};
use ada_obs::{Page, TraceContext};
use ada_service::{JobSpec, Priority, Workload};
use ada_signals::SignalConfig;
use ada_stream::StreamMiningSpec;

/// Request id reserved for unsolicited connection-level notifications.
pub const CONNECTION_ID: u64 = 0;

/// Upper bound on the `retry_after_ms` hint accepted off the wire.
///
/// The server clamps its own hint to 30 s, so anything above a minute
/// is a malformed or hostile peer; decoding clamps fail-closed into
/// `[0, MAX_RETRY_AFTER_MS]` instead of letting a negative or oversized
/// field park a retrying client for days.
pub const MAX_RETRY_AFTER_MS: i64 = 60_000;

/// A decode failure: the payload was not a well-formed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// Which pipeline configuration preset a remote submission starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// [`AdaHealthConfig::quick`] — the fast test/demo configuration.
    Quick,
    /// [`AdaHealthConfig::paper`] — the full Table-I configuration.
    Paper,
    /// Safety-signal mining (`ada_signals`) over the cohort instead of
    /// the clustering/pattern pipeline; the wire seed drives the
    /// simulated-physician feedback loop.
    Signals,
    /// Streaming ingestion + incremental mining (`ada_stream`) over the
    /// cohort: the session replays the records in timestamp order with
    /// seeded bounded disorder and reports the live model (the
    /// [`StreamMiningSpec::quick`] knobs, seeded by the wire seed).
    Stream,
}

impl Preset {
    fn label(self) -> &'static str {
        match self {
            Preset::Quick => "quick",
            Preset::Paper => "paper",
            Preset::Signals => "signals",
            Preset::Stream => "stream",
        }
    }

    fn parse(s: &str) -> Result<Self, ProtoError> {
        match s {
            "quick" => Ok(Preset::Quick),
            "paper" => Ok(Preset::Paper),
            "signals" => Ok(Preset::Signals),
            "stream" => Ok(Preset::Stream),
            other => Err(err(format!("unknown preset {other:?}"))),
        }
    }
}

/// The synthetic cohort a remote submission analyzes.
///
/// Clients describe the dataset instead of shipping it: the server
/// materializes the cohort deterministically from `(shape, seed)`, so a
/// remote submission analyzes byte-for-byte the same `ExamLog` an
/// in-process caller building the same spec would — which is what the
/// cross-wire determinism proof in `tests/loopback.rs` pins. (Real
/// EHR cohorts stay server-side for the same reason clinical data
/// warehouses keep them there; the wire carries questions, not
/// records.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortSpec {
    /// Number of patients.
    pub patients: usize,
    /// Examination-type catalog size.
    pub exam_types: usize,
    /// Target total record count.
    pub records: usize,
    /// Generator seed.
    pub seed: u64,
}

impl CohortSpec {
    /// A small cohort suitable for tests and examples.
    pub fn small(seed: u64) -> Self {
        Self {
            patients: 60,
            exam_types: 12,
            records: 700,
            seed,
        }
    }
}

/// One analysis session as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireJobSpec {
    /// Session name (tags every K-DB document the session writes).
    pub session: String,
    /// Configuration preset the spec starts from.
    pub preset: Preset,
    /// Master pipeline seed.
    pub seed: u64,
    /// The cohort to generate and analyze.
    pub cohort: CohortSpec,
    /// Scheduling priority.
    pub priority: Priority,
    /// Per-attempt wall-clock budget.
    pub timeout: Option<Duration>,
    /// Retry budget for panicking attempts.
    pub max_retries: u32,
    /// Chaos hook: first `n` attempts panic (exercises retry remotely).
    pub inject_failures: u32,
    /// Trace context minted at `Client::submit`, carried as an
    /// *optional* envelope field: absent on the wire ≡ unsampled, so
    /// pre-tracing peers interoperate unchanged. A mangled sub-document
    /// decodes to `None` (unsampled), never to an altered-but-valid
    /// identity.
    pub trace: Option<TraceContext>,
}

impl WireJobSpec {
    /// A quick-preset spec over a small cohort.
    pub fn quick(session: impl Into<String>, cohort: CohortSpec) -> Self {
        Self {
            session: session.into(),
            preset: Preset::Quick,
            seed: 0,
            cohort,
            priority: Priority::Normal,
            timeout: None,
            max_retries: 2,
            inject_failures: 0,
            trace: None,
        }
    }

    /// Attaches a trace context to ride the submission's envelope.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Materializes the spec into the [`JobSpec`] the service runs:
    /// preset config + seed, deterministic synthetic cohort. Server and
    /// in-process callers share this one function, so a spec means the
    /// same session on both sides of the wire.
    pub fn materialize(&self) -> JobSpec {
        let mut config = match self.preset {
            Preset::Quick | Preset::Signals | Preset::Stream => {
                AdaHealthConfig::quick(self.session.clone())
            }
            Preset::Paper => AdaHealthConfig::paper(self.session.clone()),
        };
        config.seed = self.seed;
        let shape = SyntheticConfig {
            num_patients: self.cohort.patients,
            num_exam_types: self.cohort.exam_types,
            target_records: self.cohort.records,
            ..SyntheticConfig::small()
        };
        let log = generate(&shape, self.cohort.seed);
        let mut spec = JobSpec::new(config, Arc::new(log))
            .priority(self.priority)
            .max_retries(self.max_retries)
            .inject_failures(self.inject_failures);
        if self.preset == Preset::Signals {
            spec = spec.workload(Workload::SafetySignals(SignalConfig {
                seed: self.seed,
                ..SignalConfig::default()
            }));
        }
        if self.preset == Preset::Stream {
            spec = spec.workload(Workload::StreamMining(
                StreamMiningSpec::quick().seed(self.seed),
            ));
        }
        if let Some(t) = self.timeout {
            spec = spec.timeout(t);
        }
        if let Some(ctx) = self.trace {
            spec = spec.trace(ctx);
        }
        spec
    }

    fn to_doc(&self) -> Document {
        let mut doc = Document::new()
            .with("session", self.session.as_str())
            .with("preset", self.preset.label())
            .with("seed", self.seed as i64)
            .with(
                "cohort",
                Value::Doc(
                    Document::new()
                        .with("patients", to_i64(self.cohort.patients))
                        .with("exam_types", to_i64(self.cohort.exam_types))
                        .with("records", to_i64(self.cohort.records))
                        .with("seed", self.cohort.seed as i64),
                ),
            )
            .with("priority", priority_label(self.priority))
            .with(
                "timeout_ms",
                self.timeout
                    .map_or(Value::Null, |t| Value::I64(to_i64(t.as_millis() as usize))),
            )
            .with("max_retries", i64::from(self.max_retries))
            .with("inject_failures", i64::from(self.inject_failures));
        // Optional envelope field: written only when present, so an
        // untraced submission is byte-identical to the pre-tracing wire
        // format.
        if let Some(ctx) = &self.trace {
            doc = doc.with("trace", Value::Doc(ctx.to_doc()));
        }
        doc
    }

    fn from_doc(mut doc: Document) -> Result<Self, ProtoError> {
        let cohort = take_doc(&mut doc, "cohort")?;
        let cohort = CohortSpec {
            patients: take_usize(&cohort, "patients")?,
            exam_types: take_usize(&cohort, "exam_types")?,
            records: take_usize(&cohort, "records")?,
            seed: take_i64(&cohort, "seed")? as u64,
        };
        // The generator's documented preconditions: `materialize` panics
        // on a cohort that breaks them.
        if cohort.patients == 0 || cohort.exam_types < ConditionGroup::ALL.len() {
            return Err(err(format!("degenerate cohort {cohort:?}")));
        }
        let doc = &mut doc;
        Ok(Self {
            session: take_str(doc, "session")?,
            preset: Preset::parse(&take_str(doc, "preset")?)?,
            seed: take_i64(doc, "seed")? as u64,
            cohort,
            priority: parse_priority(&take_str(doc, "priority")?)?,
            timeout: match doc.get("timeout_ms") {
                None | Some(Value::Null) => None,
                Some(Value::I64(ms)) if *ms >= 0 => Some(Duration::from_millis(*ms as u64)),
                Some(other) => return Err(err(format!("bad timeout_ms {other:?}"))),
            },
            max_retries: take_u32(doc, "max_retries")?,
            inject_failures: take_u32(doc, "inject_failures")?,
            // Absent, null, mistyped, or mangled ≡ unsampled: a trace
            // context never *invalidates* a submission, and corruption
            // can only degrade it to "no trace".
            trace: doc
                .get("trace")
                .and_then(Value::as_doc)
                .and_then(TraceContext::from_doc),
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a new analysis session.
    Submit(WireJobSpec),
    /// Current lifecycle state of a session.
    Status {
        /// Server-assigned session id.
        session: u64,
    },
    /// Request cooperative cancellation of a session.
    Cancel {
        /// Server-assigned session id.
        session: u64,
    },
    /// Result summary of a (terminal) session.
    Results {
        /// Server-assigned session id.
        session: u64,
    },
    /// Terminal session records persisted in the K-DB `sessions`
    /// collection — including by previous server processes.
    PastSessions,
    /// The sampled terminal session records (those carrying a
    /// `trace_id`) in the K-DB `sessions` collection, optionally
    /// filtered to one session name.
    TraceQuery {
        /// Session name to filter on (`None` = every trace).
        session: Option<String>,
    },
    /// One page of [`Request::PastSessions`]: the same `past_sessions`
    /// message with `after`/`limit` fields, answered by a range scan.
    PastSessionsPage(Page),
    /// One page of [`Request::TraceQuery`] (`trace_query` with
    /// `after`/`limit` fields); the limit counts matching traces.
    TracePage {
        /// Session name to filter on (`None` = every trace).
        session: Option<String>,
        /// The slice of the listing to return.
        page: Page,
    },
    /// The service health probe document.
    Health,
    /// The combined service + net metrics snapshot.
    MetricsSnapshot,
    /// Open (or resume) a named ingestion stream on the server.
    StreamOpen {
        /// Stream name (tags the `stream_windows` checkpoints).
        stream: String,
        /// The stream's mining knobs (windowing, lateness, K-means).
        spec: StreamMiningSpec,
    },
    /// Push a batch of exam records into an open stream. Records ride
    /// the wire as flat `(patient, exam, day)` integer triples — the
    /// same canonical key order the engine folds in.
    Ingest {
        /// Target stream.
        stream: String,
        /// The batch, in delivery order.
        records: Vec<ExamRecord>,
    },
    /// The stream's live status document (read-your-writes: reflects
    /// every batch accepted before this request).
    StreamQuery {
        /// Target stream.
        stream: String,
    },
    /// Seal a stream: close every buffered window regardless of the
    /// watermark (end of feed) and return the final status.
    StreamSeal {
        /// Target stream.
        stream: String,
    },
}

/// Every request kind, in the protocol's stable order: the labels of
/// [`Request::kind`], and what the per-kind server and client metrics
/// are sized and indexed by. A kind added to [`Request::kind`] is added
/// here (a test walks every variant).
pub(crate) const REQUEST_KINDS: [&str; 12] = [
    "submit",
    "status",
    "cancel",
    "results",
    "past_sessions",
    "trace_query",
    "health",
    "metrics",
    "stream_open",
    "ingest",
    "stream_query",
    "stream_seal",
];

/// Position of `kind` in [`REQUEST_KINDS`].
pub(crate) fn kind_index(kind: &str) -> Option<usize> {
    REQUEST_KINDS.iter().position(|k| *k == kind)
}

impl Request {
    /// The request's kind tag (also the per-kind metrics label).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Submit(_) => "submit",
            Request::Status { .. } => "status",
            Request::Cancel { .. } => "cancel",
            Request::Results { .. } => "results",
            Request::PastSessions | Request::PastSessionsPage(_) => "past_sessions",
            Request::TraceQuery { .. } | Request::TracePage { .. } => "trace_query",
            Request::Health => "health",
            Request::MetricsSnapshot => "metrics",
            Request::StreamOpen { .. } => "stream_open",
            Request::Ingest { .. } => "ingest",
            Request::StreamQuery { .. } => "stream_query",
            Request::StreamSeal { .. } => "stream_seal",
        }
    }

    /// Encodes the request (under logical id `id`) into frame payload
    /// bytes.
    pub fn encode(&self, id: u64) -> Vec<u8> {
        let mut doc = Document::new()
            .with("id", to_i64(id as usize))
            .with("kind", self.kind());
        match self {
            Request::Submit(spec) => doc.set("spec", Value::Doc(spec.to_doc())),
            Request::Status { session }
            | Request::Cancel { session }
            | Request::Results { session } => doc.set("session", *session as i64),
            Request::TraceQuery { session } | Request::TracePage { session, .. } => doc.set(
                "session",
                session
                    .as_ref()
                    .map_or(Value::Null, |s| Value::Str(s.clone())),
            ),
            Request::StreamOpen { stream, spec } => {
                doc.set("stream", stream.as_str());
                doc.set("spec", Value::Doc(stream_spec_to_doc(spec)));
            }
            Request::Ingest { stream, records } => {
                doc.set("stream", stream.as_str());
                let mut flat = Vec::with_capacity(records.len() * 3);
                for r in records {
                    flat.push(Value::I64(i64::from(r.patient.0)));
                    flat.push(Value::I64(i64::from(r.exam.0)));
                    flat.push(Value::I64(r.date.days_since_epoch()));
                }
                doc.set("records", Value::Array(flat));
            }
            Request::StreamQuery { stream } | Request::StreamSeal { stream } => {
                doc.set("stream", stream.as_str());
            }
            Request::PastSessions
            | Request::PastSessionsPage(_)
            | Request::Health
            | Request::MetricsSnapshot => {}
        }
        if let Request::PastSessionsPage(page) | Request::TracePage { page, .. } = self {
            doc.set("after", to_i64(page.after as usize));
            doc.set("limit", to_i64(page.limit));
        }
        Value::Doc(doc).encode().into_bytes()
    }

    /// Decodes a frame payload into `(id, request)`.
    ///
    /// # Errors
    /// [`ProtoError`] when the payload is not a well-formed request.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
        let mut doc = decode_message(payload)?;
        let id = take_i64(&doc, "id")? as u64;
        let kind = take_str(&mut doc, "kind")?;
        let request = match kind.as_str() {
            "submit" => Request::Submit(WireJobSpec::from_doc(take_doc(&mut doc, "spec")?)?),
            "status" => Request::Status {
                session: take_i64(&doc, "session")? as u64,
            },
            "cancel" => Request::Cancel {
                session: take_i64(&doc, "session")? as u64,
            },
            "results" => Request::Results {
                session: take_i64(&doc, "session")? as u64,
            },
            "past_sessions" => match take_page(&doc)? {
                None => Request::PastSessions,
                Some(page) => Request::PastSessionsPage(page),
            },
            "trace_query" => {
                let session = match doc.remove("session") {
                    None | Some(Value::Null) => None,
                    Some(Value::Str(s)) => Some(s),
                    Some(other) => return Err(err(format!("bad trace_query session {other:?}"))),
                };
                match take_page(&doc)? {
                    None => Request::TraceQuery { session },
                    Some(page) => Request::TracePage { session, page },
                }
            }
            "health" => Request::Health,
            "metrics" => Request::MetricsSnapshot,
            "stream_open" => Request::StreamOpen {
                spec: stream_spec_from_doc(&take_doc(&mut doc, "spec")?)?,
                stream: take_str(&mut doc, "stream")?,
            },
            "ingest" => {
                let flat = doc
                    .get("records")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("ingest missing records"))?;
                if flat.len() % 3 != 0 {
                    return Err(err("ingest records not (patient, exam, day) triples"));
                }
                let mut records = Vec::with_capacity(flat.len() / 3);
                for triple in flat.chunks_exact(3) {
                    let nums: Vec<i64> = triple.iter().filter_map(Value::as_i64).collect();
                    if nums.len() != 3 {
                        return Err(err("ingest record fields must be integers"));
                    }
                    let patient = u32::try_from(nums[0])
                        .map_err(|_| err(format!("ingest patient id {} out of range", nums[0])))?;
                    let exam = u32::try_from(nums[1])
                        .map_err(|_| err(format!("ingest exam id {} out of range", nums[1])))?;
                    let date = Date::from_days_since_epoch(nums[2])
                        .map_err(|e| err(format!("ingest day {}: {e}", nums[2])))?;
                    records.push(ExamRecord::new(PatientId(patient), ExamTypeId(exam), date));
                }
                Request::Ingest {
                    stream: take_str(&mut doc, "stream")?,
                    records,
                }
            }
            "stream_query" => Request::StreamQuery {
                stream: take_str(&mut doc, "stream")?,
            },
            "stream_seal" => Request::StreamSeal {
                stream: take_str(&mut doc, "stream")?,
            },
            other => return Err(err(format!("unknown request kind {other:?}"))),
        };
        Ok((id, request))
    }
}

/// A server response. Responses echo the request's logical id.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session was accepted and queued.
    Submitted {
        /// Server-assigned session id (use it for `Status`/`Cancel`/
        /// `Results`).
        session: u64,
    },
    /// Lifecycle state of a session.
    State {
        /// The queried session.
        session: u64,
        /// State label (`queued`, `running`, `completed`, `failed`,
        /// `cancelled`).
        state: String,
        /// Failure reason when `state == "failed"`, else empty.
        reason: String,
    },
    /// Cancellation was requested (takes effect at the session's next
    /// pipeline checkpoint).
    Cancelled {
        /// The cancelled session.
        session: u64,
    },
    /// Result summary of a session. `summary` is empty unless the
    /// session completed; full artifacts live in the shared K-DB, which
    /// is where the paper's flow stores extracted knowledge.
    ResultSummary {
        /// The queried session.
        session: u64,
        /// Terminal (or current) state label.
        state: String,
        /// Compact report summary (clusters, rules, selected K, top
        /// goal, …) for completed sessions.
        summary: Document,
    },
    /// Persisted terminal session records.
    PastSessions {
        /// One record per past session, as stored in the K-DB.
        sessions: Vec<Document>,
    },
    /// Persisted sampled session records.
    Traces {
        /// One session record per sampled session, as stored in the
        /// K-DB `sessions` collection (`trace_id`, `forced` and a
        /// deterministic pre-order span array among its fields).
        traces: Vec<Document>,
    },
    /// The health probe document.
    Health {
        /// Same shape as `AnalysisService::health`, plus net fields.
        doc: Document,
    },
    /// The metrics snapshot.
    Metrics {
        /// `AnalysisService::snapshot` document.
        doc: Document,
        /// Combined Prometheus exposition (`ada_*` + `ada_net_*`).
        prometheus: String,
    },
    /// Backpressure: the job queue is full. Not an error — retry after
    /// the hint instead of hanging on a submission that cannot land.
    Busy {
        /// Server's estimate of when a retry could be accepted, derived
        /// from queue depth × recent p50 session latency.
        retry_after: Duration,
    },
    /// The service is in sticky degraded (read-only) mode: submissions
    /// are refused, reads keep working.
    Degraded {
        /// Human-readable detail.
        detail: String,
    },
    /// A typed failure (unknown session, shutting down, malformed
    /// request, pool full, …).
    Error {
        /// Machine-readable code (`unknown_session`, `shutting_down`,
        /// `bad_request`, `pool_full`, `unknown_stream`,
        /// `stream_fault`, `response_too_large`).
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// A stream was opened (or resumed) on the server.
    StreamOpened {
        /// The opened stream's name.
        stream: String,
        /// Durable windows replayed during resume (0 for a fresh
        /// stream or an idempotent re-open).
        resumed_windows: u64,
    },
    /// A record batch was accepted into a stream's bounded channel.
    Ingested {
        /// Records accepted in this batch.
        accepted: u64,
        /// Batches enqueued but not yet drained (including this one) —
        /// the producer's live view of backpressure building.
        pending: u64,
    },
    /// A stream's status document (shape documented at
    /// `StreamEngine::status_document`).
    StreamState {
        /// The status document.
        doc: Document,
    },
}

impl Response {
    /// The response's kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Submitted { .. } => "submitted",
            Response::State { .. } => "state",
            Response::Cancelled { .. } => "cancelled",
            Response::ResultSummary { .. } => "result",
            Response::PastSessions { .. } => "past_sessions",
            Response::Traces { .. } => "traces",
            Response::Health { .. } => "health",
            Response::Metrics { .. } => "metrics",
            Response::Busy { .. } => "busy",
            Response::Degraded { .. } => "degraded",
            Response::Error { .. } => "error",
            Response::StreamOpened { .. } => "stream_opened",
            Response::Ingested { .. } => "ingested",
            Response::StreamState { .. } => "stream_state",
        }
    }

    /// Encodes the response (echoing logical id `id`) into frame
    /// payload bytes.
    pub fn encode(&self, id: u64) -> Vec<u8> {
        use Field::{Doc, Docs, Int, Str};
        let count = |v: u64| Int(to_i64(v as usize));
        let fields: Vec<(&str, Field<'_>)> = match self {
            Response::Submitted { session } | Response::Cancelled { session } => {
                vec![("session", Int(*session as i64))]
            }
            Response::State {
                session,
                state,
                reason,
            } => vec![
                ("session", Int(*session as i64)),
                ("state", Str(state)),
                ("reason", Str(reason)),
            ],
            Response::ResultSummary {
                session,
                state,
                summary,
            } => vec![
                ("session", Int(*session as i64)),
                ("state", Str(state)),
                ("summary", Doc(summary)),
            ],
            Response::PastSessions { sessions } => vec![("sessions", Docs(sessions))],
            Response::Traces { traces } => vec![("traces", Docs(traces))],
            Response::Health { doc } | Response::StreamState { doc } => vec![("doc", Doc(doc))],
            Response::Metrics { doc, prometheus } => {
                vec![("doc", Doc(doc)), ("prometheus", Str(prometheus))]
            }
            Response::Busy { retry_after } => {
                vec![("retry_after_ms", count(retry_after.as_millis() as u64))]
            }
            Response::Degraded { detail } => vec![("detail", Str(detail))],
            Response::Error { code, message } => {
                vec![("code", Str(code)), ("message", Str(message))]
            }
            Response::StreamOpened {
                stream,
                resumed_windows,
            } => vec![
                ("stream", Str(stream)),
                ("resumed_windows", count(*resumed_windows)),
            ],
            Response::Ingested { accepted, pending } => {
                vec![("accepted", count(*accepted)), ("pending", count(*pending))]
            }
        };
        encode_message(id, self.kind(), fields)
    }

    /// The encoding of [`Response::PastSessions`] over borrowed stored
    /// records, each spliced from its cached canonical text.
    pub fn encode_past_sessions(id: u64, sessions: &[&Stored]) -> Vec<u8> {
        encode_message(
            id,
            "past_sessions",
            vec![("sessions", Field::Stored(sessions))],
        )
    }

    /// The encoding of [`Response::Traces`] over borrowed stored records.
    pub fn encode_traces(id: u64, traces: &[&Stored]) -> Vec<u8> {
        encode_message(id, "traces", vec![("traces", Field::Stored(traces))])
    }

    /// Decodes a frame payload into `(id, response)`.
    ///
    /// # Errors
    /// [`ProtoError`] when the payload is not a well-formed response.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response), ProtoError> {
        let mut doc = decode_message(payload)?;
        let id = take_i64(&doc, "id")? as u64;
        let kind = take_str(&mut doc, "kind")?;
        let doc = &mut doc;
        let response = match kind.as_str() {
            "submitted" => Response::Submitted {
                session: take_i64(doc, "session")? as u64,
            },
            "state" => Response::State {
                session: take_i64(doc, "session")? as u64,
                state: take_str(doc, "state")?,
                reason: take_str(doc, "reason")?,
            },
            "cancelled" => Response::Cancelled {
                session: take_i64(doc, "session")? as u64,
            },
            "result" => Response::ResultSummary {
                session: take_i64(doc, "session")? as u64,
                state: take_str(doc, "state")?,
                summary: take_doc(doc, "summary")?,
            },
            "past_sessions" => Response::PastSessions {
                sessions: take_docs(doc, "sessions")?,
            },
            "traces" => Response::Traces {
                traces: take_docs(doc, "traces")?,
            },
            "health" => Response::Health {
                doc: take_doc(doc, "doc")?,
            },
            "metrics" => Response::Metrics {
                doc: take_doc(doc, "doc")?,
                prometheus: take_str(doc, "prometheus")?,
            },
            "busy" => Response::Busy {
                retry_after: Duration::from_millis(
                    take_i64(doc, "retry_after_ms")?.clamp(0, MAX_RETRY_AFTER_MS) as u64,
                ),
            },
            "degraded" => Response::Degraded {
                detail: take_str(doc, "detail")?,
            },
            "error" => Response::Error {
                code: take_str(doc, "code")?,
                message: take_str(doc, "message")?,
            },
            "stream_opened" => Response::StreamOpened {
                stream: take_str(doc, "stream")?,
                resumed_windows: take_i64(doc, "resumed_windows")?.max(0) as u64,
            },
            "ingested" => Response::Ingested {
                accepted: take_i64(doc, "accepted")?.max(0) as u64,
                pending: take_i64(doc, "pending")?.max(0) as u64,
            },
            "stream_state" => Response::StreamState {
                doc: take_doc(doc, "doc")?,
            },
            other => return Err(err(format!("unknown response kind {other:?}"))),
        };
        Ok((id, response))
    }
}

/// Wire image of a [`StreamMiningSpec`]: every knob, flat integers and
/// one float, so client and server materialize identical engines.
fn stream_spec_to_doc(spec: &StreamMiningSpec) -> Document {
    Document::new()
        .with("window_days", spec.window_days)
        .with("lateness_days", spec.lateness_days)
        .with("k", to_i64(spec.k))
        .with("seed", spec.seed as i64)
        .with("update_iters", to_i64(spec.update_iters))
        .with("refit_iters", to_i64(spec.refit_iters))
        .with("drift_threshold", spec.drift_threshold)
        .with("min_rows", to_i64(spec.min_rows))
        .with("disorder", to_i64(spec.disorder))
        .with("chunk", to_i64(spec.chunk))
}

fn stream_spec_from_doc(doc: &Document) -> Result<StreamMiningSpec, ProtoError> {
    let drift = doc
        .get("drift_threshold")
        .and_then(Value::as_f64)
        .ok_or_else(|| err("stream spec missing drift_threshold"))?;
    if !(drift.is_finite() && drift >= 0.0) {
        return Err(err(format!("bad drift_threshold {drift}")));
    }
    // `k == 0` would panic the stream's worker at its first window close.
    let k = take_usize(doc, "k")?;
    if k == 0 {
        return Err(err("stream spec k must be at least 1"));
    }
    Ok(StreamMiningSpec {
        window_days: take_i64(doc, "window_days")?.max(1),
        lateness_days: take_i64(doc, "lateness_days")?.max(0),
        k,
        seed: take_i64(doc, "seed")? as u64,
        update_iters: take_usize(doc, "update_iters")?,
        refit_iters: take_usize(doc, "refit_iters")?,
        drift_threshold: drift,
        min_rows: take_usize(doc, "min_rows")?,
        disorder: take_usize(doc, "disorder")?,
        chunk: take_usize(doc, "chunk")?,
    })
}

/// Labels for [`Priority`] on the wire.
fn priority_label(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::Normal => "normal",
        Priority::High => "high",
    }
}

fn parse_priority(s: &str) -> Result<Priority, ProtoError> {
    match s {
        "low" => Ok(Priority::Low),
        "normal" => Ok(Priority::Normal),
        "high" => Ok(Priority::High),
        other => Err(err(format!("unknown priority {other:?}"))),
    }
}

fn to_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn decode_message(payload: &[u8]) -> Result<Document, ProtoError> {
    let mut pos = 0usize;
    let value =
        Value::decode_prefix(payload, &mut pos).map_err(|e| err(format!("bad payload: {e}")))?;
    if pos != payload.len() {
        return Err(err("trailing bytes after message"));
    }
    match value {
        Value::Doc(doc) => Ok(doc),
        other => Err(err(format!(
            "message is {}, not document",
            other.type_name()
        ))),
    }
}

/// One field of a message envelope, borrowed from whoever holds it.
enum Field<'a> {
    Int(i64),
    Str(&'a str),
    Doc(&'a Document),
    Docs(&'a [Document]),
    /// Stored records: their cached canonical text is spliced, which is
    /// byte for byte what `Docs` would encode.
    Stored(&'a [&'a Stored]),
}

/// Streams the canonical encoding of the message document
/// `{id, kind, fields…}` without building it: fields are written in key
/// order — the order a `Document` keeps them in — and every payload is
/// encoded in place from its borrow.
fn encode_message<'a>(id: u64, kind: &'a str, mut fields: Vec<(&'a str, Field<'a>)>) -> Vec<u8> {
    fields.push(("id", Field::Int(to_i64(id as usize))));
    fields.push(("kind", Field::Str(kind)));
    fields.sort_unstable_by_key(|(key, _)| *key);
    let mut out = String::new();
    let infallible = "a String takes any write";
    write!(out, "O{}:", fields.len()).expect(infallible);
    for (key, field) in fields {
        write!(out, "{}:{key}", key.len()).expect(infallible);
        match field {
            Field::Int(v) => Value::I64(v).encode_into(&mut out),
            Field::Str(text) => write!(out, "S{}:{text}", text.len()).expect(infallible),
            Field::Doc(doc) => doc.encode_into(&mut out),
            Field::Docs(docs) => {
                write!(out, "A{}:", docs.len()).expect(infallible);
                for doc in docs {
                    doc.encode_into(&mut out);
                }
            }
            Field::Stored(docs) => {
                write!(out, "A{}:", docs.len()).expect(infallible);
                out.reserve(docs.iter().map(|doc| doc.canonical().len()).sum());
                for doc in docs {
                    out.push_str(doc.canonical());
                }
            }
        }
    }
    out.into_bytes()
}

/// The optional paging fields of a listing request: `None` when neither
/// is present (the unpaged request), else the page they describe with
/// an absent field at its [`Page::ALL`] value.
fn take_page(doc: &Document) -> Result<Option<Page>, ProtoError> {
    let field = |key: &str| match doc.get(key) {
        None => Ok(None),
        Some(Value::I64(v)) if *v >= 0 => Ok(Some(*v as u64)),
        Some(other) => Err(err(format!("bad paging field {key:?}: {other:?}"))),
    };
    let (after, limit) = (field("after")?, field("limit")?);
    Ok((after.is_some() || limit.is_some()).then(|| Page {
        after: after.unwrap_or(Page::ALL.after),
        limit: limit.map_or(Page::ALL.limit, |l| {
            usize::try_from(l).unwrap_or(usize::MAX)
        }),
    }))
}

fn take_str(doc: &mut Document, key: &str) -> Result<String, ProtoError> {
    match doc.remove(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(err(format!("missing string field {key:?}"))),
    }
}

fn take_i64(doc: &Document, key: &str) -> Result<i64, ProtoError> {
    doc.get(key)
        .and_then(Value::as_i64)
        .ok_or_else(|| err(format!("missing integer field {key:?}")))
}

fn take_u32(doc: &Document, key: &str) -> Result<u32, ProtoError> {
    u32::try_from(take_i64(doc, key)?).map_err(|_| err(format!("field {key:?} out of range")))
}

fn take_usize(doc: &Document, key: &str) -> Result<usize, ProtoError> {
    usize::try_from(take_i64(doc, key)?).map_err(|_| err(format!("field {key:?} out of range")))
}

fn take_doc(doc: &mut Document, key: &str) -> Result<Document, ProtoError> {
    match doc.remove(key) {
        Some(Value::Doc(d)) => Ok(d),
        _ => Err(err(format!("missing document field {key:?}"))),
    }
}

fn take_docs(doc: &mut Document, key: &str) -> Result<Vec<Document>, ProtoError> {
    let Some(Value::Array(items)) = doc.remove(key) else {
        return Err(err(format!("missing array field {key:?}")));
    };
    items
        .into_iter()
        .map(|item| match item {
            Value::Doc(d) => Ok(d),
            other => Err(err(format!("{key} holds a {}", other.type_name()))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit(WireJobSpec::quick("s-1", CohortSpec::small(7))),
            Request::Submit(
                WireJobSpec::quick("s-2", CohortSpec::small(7))
                    .with_trace(TraceContext::forced(3, "s-2")),
            ),
            Request::Status { session: 3 },
            Request::Cancel { session: 4 },
            Request::Results { session: 5 },
            Request::PastSessions,
            Request::TraceQuery { session: None },
            Request::TraceQuery {
                session: Some("s-2".into()),
            },
            Request::PastSessionsPage(Page {
                after: 0,
                limit: 512,
            }),
            Request::TracePage {
                session: Some("s-2".into()),
                page: Page {
                    after: 40,
                    limit: 1,
                },
            },
            Request::Health,
            Request::MetricsSnapshot,
            Request::StreamOpen {
                stream: "feed".into(),
                spec: StreamMiningSpec::quick(),
            },
            Request::Ingest {
                stream: "feed".into(),
                records: vec![ExamRecord::new(
                    PatientId(1),
                    ExamTypeId(2),
                    Date::from_days_since_epoch(3).unwrap(),
                )],
            },
            Request::StreamQuery {
                stream: "feed".into(),
            },
            Request::StreamSeal {
                stream: "feed".into(),
            },
        ];
        // One value of every variant: each kind must have a per-kind
        // metrics slot, and every slot a variant.
        let mut counted = [false; REQUEST_KINDS.len()];
        for (i, req) in reqs.into_iter().enumerate() {
            let bytes = req.encode(i as u64 + 1);
            let (id, back) = Request::decode(&bytes).unwrap();
            assert_eq!(id, i as u64 + 1);
            assert_eq!(back, req);
            let slot = kind_index(req.kind());
            counted[slot.unwrap_or_else(|| panic!("{} has no slot", req.kind()))] = true;
        }
        assert_eq!(counted, [true; REQUEST_KINDS.len()]);
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Submitted { session: 9 },
            Response::State {
                session: 9,
                state: "failed".into(),
                reason: "deadline exceeded".into(),
            },
            Response::Cancelled { session: 9 },
            Response::ResultSummary {
                session: 9,
                state: "completed".into(),
                summary: Document::new().with("clusters", 4i64),
            },
            Response::PastSessions {
                sessions: vec![Document::new().with("session", "a")],
            },
            Response::Traces {
                traces: vec![Document::new().with("session", "a").with(
                    "trace_id",
                    TraceContext::forced(1, "a").trace_id_hex().as_str(),
                )],
            },
            Response::Health {
                doc: Document::new().with("status", "ok"),
            },
            Response::Metrics {
                doc: Document::new().with("past_sessions", 0i64),
                prometheus: "ada_service_degraded 0\n".into(),
            },
            Response::Busy {
                retry_after: Duration::from_millis(250),
            },
            Response::Degraded {
                detail: "read-only".into(),
            },
            Response::Error {
                code: "unknown_session".into(),
                message: "session#12".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode(42);
            let (id, back) = Response::decode(&bytes).unwrap();
            assert_eq!(id, 42);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn paging_fields_are_optional_on_the_wire() {
        // No field: the unpaged request, byte-for-byte what it always was.
        assert_eq!(
            Request::PastSessions.encode(3),
            b"O2:2:idI3;4:kindS13:past_sessions"
        );
        let listing = |fields: &[(&str, i64)]| {
            let mut doc = Document::new()
                .with("id", 1i64)
                .with("kind", "past_sessions");
            for (key, v) in fields {
                doc.set(*key, *v);
            }
            Request::decode(Value::Doc(doc).encode().as_bytes()).map(|(_, r)| r)
        };
        assert_eq!(listing(&[]), Ok(Request::PastSessions));
        // One field present: the other takes its `Page::ALL` value.
        assert_eq!(
            listing(&[("limit", 10)]),
            Ok(Request::PastSessionsPage(Page {
                after: 0,
                limit: 10
            }))
        );
        assert_eq!(
            listing(&[("after", 7)]),
            Ok(Request::PastSessionsPage(Page {
                after: 7,
                ..Page::ALL
            }))
        );
        assert!(listing(&[("after", -1)]).is_err());
        // A page request is the listing's own kind plus the two fields.
        let page = Request::TracePage {
            session: None,
            page: Page { after: 2, limit: 5 },
        };
        assert_eq!(page.kind(), "trace_query");
        assert_eq!(
            page.encode(1),
            b"O5:5:afterI2;2:idI1;4:kindS11:trace_query5:limitI5;7:sessionN"
        );
    }

    /// A record shaped like a persisted session: nested documents,
    /// arrays, floats, null, punctuation the format must not escape.
    fn golden_record(name: &str, id: i64) -> Document {
        Document::new()
            .with("_id", id)
            .with("session", name)
            .with("state", "completed")
            .with("wall_ms", 12.5f64)
            .with(
                "spans",
                Value::Array(vec![
                    Value::Doc(Document::new().with("name", "root").with("parent", -1i64)),
                    Value::Doc(
                        Document::new()
                            .with("name", "transform: a;b")
                            .with("parent", 0i64)
                            .with("attrs", Document::new().with("rows", 60i64)),
                    ),
                ]),
            )
            .with("counters", Document::new().with("distance_evals", 1_234i64))
            .with("sampled", true)
            .with("outcome", Value::Null)
    }

    #[test]
    fn payload_responses_encode_to_the_golden_bytes() {
        // Captured from the encoder that built the envelope `Document`
        // (cloning every payload into it) before this one streamed it.
        const RECORD: &str = "8:countersO1:14:distance_evalsI1234;7:outcomeN7:sampledT";
        const SPANS: &str = "5:spansA2:O2:4:nameS4:root6:parentI-1;O3:5:attrsO1:4:rowsI60;\
                             4:nameS14:transform: a;b6:parentI0;5:stateS9:completed7:wall_msF12.5;";
        let record = |id: i64, session: &str| {
            format!(
                "O8:3:_idI{id};{RECORD}7:sessionS{}:{session}{SPANS}",
                session.len()
            )
        };
        let cases = [
            (
                Response::PastSessions {
                    sessions: vec![golden_record("s-1", 1), golden_record("s-2 \u{2192} é", 2)],
                },
                format!(
                    "O3:2:idI42;4:kindS13:past_sessions8:sessionsA2:{}{}",
                    record(1, "s-1"),
                    record(2, "s-2 \u{2192} é")
                ),
            ),
            (
                Response::PastSessions { sessions: vec![] },
                "O3:2:idI42;4:kindS13:past_sessions8:sessionsA0:".to_owned(),
            ),
            (
                Response::Traces {
                    traces: vec![golden_record("t-1", 7)],
                },
                format!("O3:2:idI42;4:kindS6:traces6:tracesA1:{}", record(7, "t-1")),
            ),
            (
                Response::ResultSummary {
                    session: 9,
                    state: "completed".into(),
                    summary: golden_record("r", 3),
                },
                format!(
                    "O5:2:idI42;4:kindS6:result7:sessionI9;5:stateS9:completed7:summary{}",
                    record(3, "r")
                ),
            ),
            (
                Response::Health {
                    doc: Document::new()
                        .with("status", "ok")
                        .with("accepting_writes", true)
                        .with("journal_faults", 0i64),
                },
                "O3:3:docO3:16:accepting_writesT14:journal_faultsI0;6:statusS2:ok\
                 2:idI42;4:kindS6:health"
                    .to_owned(),
            ),
            (
                Response::Metrics {
                    doc: Document::new().with("past_sessions", 2i64).with(
                        "sessions",
                        Value::Array(vec![Value::Doc(golden_record("m", 4))]),
                    ),
                    prometheus: "ada_service_degraded 0\n# HELP x y\n".into(),
                },
                format!(
                    "O4:3:docO2:13:past_sessionsI2;8:sessionsA1:{}2:idI42;4:kindS7:metrics\
                     10:prometheusS34:ada_service_degraded 0\n# HELP x y\n",
                    record(4, "m")
                ),
            ),
        ];
        for (response, golden) in cases {
            let bytes = response.encode(42);
            assert_eq!(String::from_utf8(bytes.clone()).unwrap(), golden);
            // And the borrowed entry points splice the same bytes.
            let stored = |docs: &[Document]| -> Vec<Stored> {
                docs.iter().cloned().map(Stored::new).collect()
            };
            match &response {
                Response::PastSessions { sessions } => assert_eq!(
                    Response::encode_past_sessions(
                        42,
                        &stored(sessions).iter().collect::<Vec<_>>()
                    ),
                    bytes
                ),
                Response::Traces { traces } => assert_eq!(
                    Response::encode_traces(42, &stored(traces).iter().collect::<Vec<_>>()),
                    bytes
                ),
                _ => {}
            }
            assert_eq!(Response::decode(&bytes).unwrap(), (42, response));
        }
    }

    #[test]
    fn busy_retry_after_decode_clamps_fail_closed() {
        // A hostile or buggy peer must not be able to park a retrying
        // client: negative and oversized hints clamp into range.
        for (wire_ms, want) in [
            (-1i64, Duration::ZERO),
            (i64::MIN, Duration::ZERO),
            (MAX_RETRY_AFTER_MS, Duration::from_millis(60_000)),
            (MAX_RETRY_AFTER_MS + 1, Duration::from_millis(60_000)),
            (i64::MAX, Duration::from_millis(60_000)),
            (250, Duration::from_millis(250)),
        ] {
            let doc = Document::new()
                .with("id", 7i64)
                .with("kind", "busy")
                .with("retry_after_ms", wire_ms);
            let (_, resp) = Response::decode(Value::Doc(doc).encode().as_bytes()).unwrap();
            assert_eq!(
                resp,
                Response::Busy { retry_after: want },
                "wire retry_after_ms {wire_ms}"
            );
        }
    }

    #[test]
    fn signals_preset_round_trips_and_selects_the_workload() {
        let mut spec = WireJobSpec::quick("sig-9", CohortSpec::small(7));
        spec.preset = Preset::Signals;
        spec.seed = 99;
        let req = Request::Submit(spec.clone());
        let (_, back) = Request::decode(&req.encode(1)).unwrap();
        assert_eq!(back, req);
        match spec.materialize().workload {
            Workload::SafetySignals(cfg) => assert_eq!(cfg.seed, 99),
            other => panic!("signals preset must select the signals workload, got {other:?}"),
        }
        // The stream preset selects the streaming workload, seed
        // threaded through.
        let mut stream_spec = WireJobSpec::quick("stream-9", CohortSpec::small(7));
        stream_spec.preset = Preset::Stream;
        stream_spec.seed = 42;
        let req = Request::Submit(stream_spec.clone());
        let (_, back) = Request::decode(&req.encode(2)).unwrap();
        assert_eq!(back, req);
        match stream_spec.materialize().workload {
            Workload::StreamMining(s) => assert_eq!(s.seed, 42),
            other => panic!("stream preset must select the stream workload, got {other:?}"),
        }
        assert!(matches!(
            WireJobSpec::quick("p", CohortSpec::small(1))
                .materialize()
                .workload,
            Workload::Pipeline
        ));
    }

    #[test]
    fn materialize_is_deterministic() {
        let spec = WireJobSpec::quick("det", CohortSpec::small(11));
        let a = spec.materialize();
        let b = spec.materialize();
        assert_eq!(a.config.session, b.config.session);
        assert_eq!(a.log.records().len(), b.log.records().len());
    }

    #[test]
    fn absent_or_mangled_trace_degrades_to_unsampled() {
        // The pre-tracing wire format (no `trace` field) decodes to an
        // untraced spec — and encodes back byte-identically.
        let untraced = WireJobSpec::quick("s", CohortSpec::small(1));
        let bytes = Request::Submit(untraced.clone()).encode(1);
        let (_, back) = Request::decode(&bytes).unwrap();
        assert_eq!(back, Request::Submit(untraced.clone()));
        assert_eq!(Request::Submit(untraced).encode(1), bytes);

        // A mangled trace sub-document degrades to None (unsampled),
        // never to an error or a different-but-valid context.
        let traced =
            WireJobSpec::quick("s", CohortSpec::small(1)).with_trace(TraceContext::forced(9, "s"));
        let mut doc = traced.to_doc();
        let mut mangled = doc.get("trace").unwrap().as_doc().unwrap().clone();
        mangled.remove("lo");
        doc.set("trace", Value::Doc(mangled));
        let back = WireJobSpec::from_doc(doc).unwrap();
        assert_eq!(back.trace, None);
        assert_eq!(back.session, traced.session);
    }

    #[test]
    fn garbage_payloads_are_typed_errors() {
        assert!(Request::decode(b"not a doc").is_err());
        assert!(Response::decode(b"S3:abc").is_err());
        // A document missing the envelope fields is refused too.
        let doc = Value::Doc(Document::new().with("x", 1i64)).encode();
        assert!(Request::decode(doc.as_bytes()).is_err());
    }
}
