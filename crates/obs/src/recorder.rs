//! The bounded flight recorder: session-scoped span trees, per-stage
//! latency histograms, kernel counters, and a capped recent-event log,
//! persisted to the K-DB `sessions` collection on terminal state.
//!
//! A [`FlightRecorder`] sits behind the [`PipelineObserver`] seam of
//! `ada-core`: stage events become children of a per-session root span,
//! sub-span events (partial-mining rungs, optimizer sweep points)
//! become children of the current stage span, and counter events
//! accumulate into a per-session counter table. Transport is the
//! lock-free [`Tracer`] — observer callbacks only take the recorder's
//! bookkeeping mutex at stage/rung granularity, never inside kernel
//! loops.
//!
//! On a session's terminal state, [`FlightRecorder::finalize`] folds
//! everything into one K-DB [`Document`] matching
//! [`ada_kdb::schema::validate_session_doc`]: a `spans` array in
//! deterministic pre-order (children sorted by `(name, seq)`, parents
//! always at earlier indexes), a `stages` array of histogram quantiles,
//! and a `counters` sub-document. The document is stable across runs
//! modulo timestamps, so a restarted service can diff past sessions.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use ada_core::control::{PipelineObserver, PipelineStage};
use ada_kdb::schema;
use ada_kdb::{DocId, Document, KdbError, KdbRead, KdbWrite, Value};
use parking_lot::Mutex;

use crate::context::TraceContext;
use crate::hist::Log2Histogram;
use crate::trace::{EventKind, TraceEvent, Tracer, PARENT_NONE};

/// Mark name for time a job spent queued before a worker picked it up.
pub const MARK_QUEUE_WAIT: &str = "queue_wait";
/// Mark name for a retry of a failed run.
pub const MARK_RETRY: &str = "retry";
/// Mark name for an observed cancellation request.
pub const MARK_CANCELLED: &str = "cancel_requested";
/// Mark name for a terminal session record that failed to persist to
/// the K-DB (best-effort write lost — the flight recorder is then the
/// only trace of the session).
pub const MARK_PERSIST_FAIL: &str = "persist_fail";
/// Mark name for the service entering degraded read-only mode after
/// repeated journal faults.
pub const MARK_DEGRADED: &str = "degraded";
/// Mark name for a session whose wall time crossed the slow-session
/// threshold (p99-derived); its trace is forced retroactively.
pub const MARK_SLOW_SESSION: &str = "slow_session";
/// Mark name for a batch of replicated journal frames applied by a
/// follower (the duration covers verify + apply + local journaling).
pub const MARK_REPL_APPLY: &str = "repl_apply";
/// Mark name for a replication stream reset (bootstrap or
/// post-compaction full-image transfer).
pub const MARK_REPL_RESET: &str = "repl_reset";
/// Mark name for a follower promoted to primary at its acked
/// watermark.
pub const MARK_PROMOTED: &str = "promoted";

/// Producer-side parentage bookkeeping for one in-flight session.
struct LiveSession {
    label: Arc<str>,
    root: u64,
    stage: Option<(PipelineStage, u64)>,
    open: Vec<(PipelineStage, Arc<str>, u64)>,
}

/// One span reconstructed from Start/End events.
struct SpanRec {
    name: Arc<str>,
    parent: u64,
    seq: u64,
    start_ns: u64,
    dur_ns: Option<u64>,
}

/// Everything folded so far for one session.
struct SessionRec {
    events: VecDeque<TraceEvent>,
    spans: BTreeMap<u64, SpanRec>,
    /// Per-span attributes from [`EventKind::Annotate`] events (fsync
    /// batch sizes, leader role, wire span ids). Replace semantics.
    span_attrs: BTreeMap<u64, BTreeMap<&'static str, u64>>,
    root: Option<u64>,
    stage_hist: [Log2Histogram; PipelineStage::ALL.len()],
    counters: BTreeMap<&'static str, u64>,
    queue_wait_ns: u64,
    retries: u64,
}

impl Default for SessionRec {
    fn default() -> Self {
        Self {
            events: VecDeque::new(),
            spans: BTreeMap::new(),
            span_attrs: BTreeMap::new(),
            root: None,
            stage_hist: std::array::from_fn(|_| Log2Histogram::new()),
            counters: BTreeMap::new(),
            queue_wait_ns: 0,
            retries: 0,
        }
    }
}

/// The session flight recorder (see the module docs).
pub struct FlightRecorder {
    tracer: Tracer,
    /// Last-N cap on the per-session recent-event log.
    capacity: usize,
    root_name: Arc<str>,
    counters_name: Arc<str>,
    live: Mutex<HashMap<String, LiveSession>>,
    folded: Mutex<HashMap<String, SessionRec>>,
    /// Registered trace contexts by session: `(context, forced)`.
    traces: Mutex<HashMap<String, (TraceContext, bool)>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(512)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events per session (the
    /// span tree, histograms, and counters are folded from *all*
    /// events; only the raw recent-event log is capped).
    pub fn new(capacity: usize) -> Self {
        Self {
            tracer: Tracer::new(8192),
            capacity: capacity.max(1),
            root_name: Arc::from("session"),
            counters_name: Arc::from("counters"),
            live: Mutex::new(HashMap::new()),
            folded: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying tracer (tests and the service snapshot use it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Total events lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Records a service-level point event for `session` —
    /// [`MARK_QUEUE_WAIT`] (with the wait as the duration),
    /// [`MARK_RETRY`], [`MARK_CANCELLED`].
    pub fn mark(&self, session: &str, name: &str, duration: Duration) {
        let label: Arc<str> = Arc::from(session);
        let name: Arc<str> = Arc::from(name);
        self.tracer.emit(
            &label,
            None,
            &name,
            EventKind::Mark {
                dur_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
            },
        );
    }

    /// Registers the [`TraceContext`] under which `session` runs. A
    /// sampled, non-forced context (one that arrived with the
    /// submission) also records a root-parented `client_submit` span
    /// carrying the wire span id, so the persisted trace links back to
    /// the span that minted the context on the client. Re-registering
    /// an already-known session only updates the context.
    pub fn set_trace(&self, session: &str, ctx: TraceContext, forced: bool) {
        let fresh = self
            .traces
            .lock()
            .insert(session.to_string(), (ctx, forced))
            .is_none();
        if fresh && ctx.sampled && !forced {
            self.trace_annotation(
                session,
                "client_submit",
                Duration::ZERO,
                &[("wire_span_id", ctx.span_id)],
            );
        }
    }

    /// Whether a trace context is registered for `session`.
    pub fn has_trace(&self, session: &str) -> bool {
        self.traces.lock().contains_key(session)
    }

    /// The registered `(context, forced)` pair for `session`, if any.
    pub fn trace(&self, session: &str) -> Option<(TraceContext, bool)> {
        self.traces.lock().get(session).copied()
    }

    /// Records a root-parented span for `session` with attached
    /// attributes — the group committer's fsync rounds and the net
    /// server's decode step report through here. The span is stamped at
    /// report time with the measured `duration`; `attrs` are stable
    /// `(name, value)` pairs with replace semantics.
    pub fn trace_annotation(
        &self,
        session: &str,
        name: &str,
        duration: Duration,
        attrs: &[(&'static str, u64)],
    ) {
        let mut live = self.live.lock();
        let entry = self.live_entry(&mut live, session);
        let span = self.tracer.next_span_id();
        let root = entry.root;
        let label = Arc::clone(&entry.label);
        drop(live);
        let name: Arc<str> = Arc::from(name);
        self.tracer
            .emit(&label, None, &name, EventKind::Start { span, parent: root });
        if !attrs.is_empty() {
            self.tracer.emit(
                &label,
                None,
                &name,
                EventKind::Annotate {
                    span,
                    pairs: attrs.to_vec(),
                },
            );
        }
        self.tracer.emit(
            &label,
            None,
            &name,
            EventKind::End {
                span,
                dur_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
            },
        );
    }

    fn live_entry<'a>(
        &self,
        map: &'a mut HashMap<String, LiveSession>,
        session: &str,
    ) -> &'a mut LiveSession {
        if !map.contains_key(session) {
            let label: Arc<str> = Arc::from(session);
            let root = self.tracer.next_span_id();
            self.tracer.emit(
                &label,
                None,
                &self.root_name,
                EventKind::Start {
                    span: root,
                    parent: PARENT_NONE,
                },
            );
            map.insert(
                session.to_string(),
                LiveSession {
                    label,
                    root,
                    stage: None,
                    open: Vec::new(),
                },
            );
        }
        map.get_mut(session).expect("just inserted")
    }

    /// Drains the tracer and folds every drained event into the
    /// per-session records. Cheap when nothing is pending; called by
    /// the accessors and by [`FlightRecorder::finalize`].
    pub fn sync(&self) {
        let drained = self.tracer.drain();
        if drained.is_empty() {
            return;
        }
        let mut folded = self.folded.lock();
        for event in drained {
            let rec = folded.entry(event.session.to_string()).or_default();
            match &event.kind {
                EventKind::Start { span, parent } => {
                    if *parent == PARENT_NONE {
                        rec.root = Some(*span);
                    }
                    rec.spans.insert(
                        *span,
                        SpanRec {
                            name: Arc::clone(&event.name),
                            parent: *parent,
                            seq: event.seq,
                            start_ns: event.t_ns,
                            dur_ns: None,
                        },
                    );
                }
                EventKind::End { span, dur_ns } => {
                    if let Some(span) = rec.spans.get_mut(span) {
                        span.dur_ns = Some(*dur_ns);
                    }
                    if let Some(stage) = event.stage {
                        rec.stage_hist[stage.index()].record(*dur_ns);
                    }
                }
                EventKind::Mark { dur_ns } => match &*event.name {
                    MARK_QUEUE_WAIT => rec.queue_wait_ns += dur_ns,
                    MARK_RETRY => rec.retries += 1,
                    _ => {}
                },
                EventKind::Counters { pairs } => {
                    for (key, value) in pairs {
                        *rec.counters.entry(key).or_default() += value;
                    }
                }
                EventKind::Annotate { span, pairs } => {
                    let attrs = rec.span_attrs.entry(*span).or_default();
                    for (key, value) in pairs {
                        attrs.insert(key, *value);
                    }
                }
            }
            rec.events.push_back(event);
            while rec.events.len() > self.capacity {
                rec.events.pop_front();
            }
        }
    }

    /// The capped recent-event log for `session`, in sequence order.
    pub fn recent_events(&self, session: &str) -> Vec<TraceEvent> {
        self.sync();
        self.folded
            .lock()
            .get(session)
            .map(|rec| rec.events.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The folded kernel counters for `session` so far.
    pub fn session_counters(&self, session: &str) -> BTreeMap<&'static str, u64> {
        self.sync();
        self.folded
            .lock()
            .get(session)
            .map(|rec| rec.counters.clone())
            .unwrap_or_default()
    }

    /// Folds everything recorded for `session` into its terminal K-DB
    /// document and forgets the session. `state` must be one of
    /// [`schema::SESSION_TERMINAL_STATES`] for the document to pass
    /// validation; `outcome` is a free-form detail string (empty to
    /// omit).
    pub fn finalize(&self, session: &str, state: &str, outcome: &str) -> Document {
        self.finalize_with_trace(session, state, outcome).0
    }

    /// [`FlightRecorder::finalize`], also yielding the terminal *trace*
    /// document when a sampled [`TraceContext`] was registered for
    /// `session` (matching [`ada_kdb::schema::validate_trace_doc`]).
    /// The session is forgotten either way.
    pub fn finalize_with_trace(
        &self,
        session: &str,
        state: &str,
        outcome: &str,
    ) -> (Document, Option<Document>) {
        self.sync();
        self.live.lock().remove(session);
        let rec = self.folded.lock().remove(session).unwrap_or_default();
        let trace = self.traces.lock().remove(session);
        let dropped = self.tracer.dropped();
        let session_doc = build_session_doc(session, state, outcome, &rec, dropped);
        let trace_doc = trace
            .filter(|(ctx, _)| ctx.sampled)
            .map(|(ctx, forced)| build_trace_doc(session, state, &ctx, forced, &rec, dropped));
        (session_doc, trace_doc)
    }

    /// [`FlightRecorder::finalize`] + validated insert into the
    /// `sessions` collection — and, when a sampled trace context was
    /// registered, into the `traces` collection too. Returns the
    /// session document id and the session document.
    ///
    /// # Errors
    /// Returns [`KdbError::Schema`] on a malformed record, otherwise
    /// store errors.
    pub fn persist<W: KdbWrite + ?Sized>(
        &self,
        db: &mut W,
        session: &str,
        state: &str,
        outcome: &str,
    ) -> Result<(DocId, Document), KdbError> {
        let (doc, trace_doc) = self.finalize_with_trace(session, state, outcome);
        let id = schema::insert_session_record(db, doc.clone())?;
        if let Some(trace) = trace_doc {
            schema::insert_trace_record(db, trace)?;
        }
        Ok((id, doc))
    }
}

/// Which slice of a persisted listing to read: the records whose `_id`
/// is greater than `after`, at most `limit` of them. Ids start at 1, so
/// [`Page::ALL`] is the whole listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Page {
    /// Cursor: the `_id` of the last record already seen (0 = none).
    pub after: DocId,
    /// Upper bound on the records returned.
    pub limit: usize,
}

impl Page {
    /// Every record, from the beginning.
    pub const ALL: Page = Page {
        after: 0,
        limit: usize::MAX,
    };
}

/// The session records persisted in `db`, in insertion (`_id`) order,
/// borrowed from `db`. This is how a restarted service answers queries
/// about past runs.
pub fn past_sessions<R: KdbRead + ?Sized>(db: &R, page: Page) -> Vec<&Document> {
    listing(db, schema::names::SESSIONS, page, |_| true)
}

/// Trace records persisted in `db`, in insertion (`_id`) order,
/// optionally filtered to one session. Backs the `TraceQuery` wire
/// message.
pub fn past_traces<'a, R: KdbRead + ?Sized>(
    db: &'a R,
    session: Option<&str>,
    page: Page,
) -> Vec<&'a Document> {
    listing(db, schema::names::TRACES, page, |doc| {
        session.is_none_or(|wanted| doc.get("session").and_then(Value::as_str) == Some(wanted))
    })
}

/// One range scan of a collection image (`Collection::iter_after` is
/// id-ordered): nothing before the cursor is visited, nothing is cloned.
fn listing<'a, R: KdbRead + ?Sized>(
    db: &'a R,
    collection: &str,
    page: Page,
    keep: impl Fn(&Document) -> bool,
) -> Vec<&'a Document> {
    let Some(coll) = db.collection(collection) else {
        return Vec::new();
    };
    coll.iter_after(page.after)
        .map(|(_, doc)| doc)
        .filter(|doc| keep(doc))
        .take(page.limit)
        .collect()
}

/// Folds a session's reconstructed spans into the deterministic
/// `spans` array shared by session and trace documents: pre-order DFS
/// from the root with children sorted by `(name, seq)`, so parent
/// indexes always point at earlier array positions. Spans that were
/// annotated carry an `attrs` sub-document.
fn build_span_array(rec: &SessionRec) -> Vec<Value> {
    let mut spans = Vec::new();
    let Some(root) = rec.root else {
        return spans;
    };
    let base = rec.spans.get(&root).map(|s| s.start_ns).unwrap_or(0);
    // The root closes at finalize: its duration is the extent of
    // its deepest-reaching descendant.
    let extent = rec
        .spans
        .values()
        .map(|s| (s.start_ns.saturating_sub(base)) + s.dur_ns.unwrap_or(0))
        .max()
        .unwrap_or(0);
    // Child spans grouped by parent id as `(name, seq, span id)`.
    type ChildIndex<'a> = BTreeMap<u64, Vec<(&'a Arc<str>, u64, u64)>>;
    let mut children: ChildIndex<'_> = BTreeMap::new();
    for (&id, span) in &rec.spans {
        if id != root {
            children
                .entry(span.parent)
                .or_default()
                .push((&span.name, span.seq, id));
        }
    }
    for list in children.values_mut() {
        list.sort_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
    }
    let mut stack: Vec<(u64, i64)> = vec![(root, -1)];
    while let Some((id, parent_idx)) = stack.pop() {
        let Some(span) = rec.spans.get(&id) else {
            continue;
        };
        let idx = spans.len() as i64;
        let dur = if id == root {
            span.dur_ns.unwrap_or(extent)
        } else {
            span.dur_ns.unwrap_or(0)
        };
        let mut span_doc = Document::new()
            .with("name", &*span.name)
            .with("parent", parent_idx)
            .with(
                "start_ns",
                i64::try_from(span.start_ns.saturating_sub(base)).unwrap_or(i64::MAX),
            )
            .with("dur_ns", i64::try_from(dur).unwrap_or(i64::MAX));
        if let Some(attrs) = rec.span_attrs.get(&id) {
            let mut attr_doc = Document::new();
            for (&key, &value) in attrs {
                attr_doc.set(key, i64::try_from(value).unwrap_or(i64::MAX));
            }
            span_doc = span_doc.with("attrs", Value::Doc(attr_doc));
        }
        spans.push(Value::Doc(span_doc));
        if let Some(kids) = children.get(&id) {
            // Reversed so the (name, seq)-smallest child pops first.
            for &(_, _, kid) in kids.iter().rev() {
                stack.push((kid, idx));
            }
        }
    }
    spans
}

/// Builds the terminal session document (see the module docs for the
/// shape).
fn build_session_doc(
    session: &str,
    state: &str,
    outcome: &str,
    rec: &SessionRec,
    dropped: u64,
) -> Document {
    let spans = build_span_array(rec);

    let mut stages = Vec::new();
    for stage in PipelineStage::ALL {
        let snap = rec.stage_hist[stage.index()].snapshot();
        if snap.count == 0 {
            continue;
        }
        let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        stages.push(Value::Doc(
            Document::new()
                .with("stage", stage.name())
                .with("count", as_i64(snap.count))
                .with("sum_ns", as_i64(snap.sum))
                .with("p50_ns", as_i64(snap.p50()))
                .with("p90_ns", as_i64(snap.p90()))
                .with("p99_ns", as_i64(snap.p99())),
        ));
    }

    let mut counters = Document::new();
    for (&key, &value) in &rec.counters {
        counters.set(key, i64::try_from(value).unwrap_or(i64::MAX));
    }

    let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    let mut doc = Document::new()
        .with("session", session)
        .with("state", state)
        .with("queue_wait_ns", as_i64(rec.queue_wait_ns))
        .with("retries", as_i64(rec.retries))
        .with("events_dropped", as_i64(dropped))
        .with("spans", Value::Array(spans))
        .with("stages", Value::Array(stages))
        .with("counters", Value::Doc(counters));
    if !outcome.is_empty() {
        doc = doc.with("outcome", outcome);
    }
    doc
}

/// Builds the terminal trace document for a sampled session (matching
/// [`ada_kdb::schema::validate_trace_doc`]): the same deterministic
/// span tree as the session document, keyed by the 128-bit trace id.
fn build_trace_doc(
    session: &str,
    state: &str,
    ctx: &TraceContext,
    forced: bool,
    rec: &SessionRec,
    dropped: u64,
) -> Document {
    Document::new()
        .with("session", session)
        .with("trace_id", ctx.trace_id_hex().as_str())
        .with("state", state)
        .with("forced", forced)
        .with("events_dropped", i64::try_from(dropped).unwrap_or(i64::MAX))
        .with("spans", Value::Array(build_span_array(rec)))
}

impl PipelineObserver for FlightRecorder {
    fn on_stage_start(&self, session: &str, stage: PipelineStage) {
        let mut live = self.live.lock();
        let entry = self.live_entry(&mut live, session);
        let span = self.tracer.next_span_id();
        let root = entry.root;
        let label = Arc::clone(&entry.label);
        entry.stage = Some((stage, span));
        drop(live);
        self.tracer.emit(
            &label,
            Some(stage),
            &Arc::from(stage.name()),
            EventKind::Start { span, parent: root },
        );
    }

    fn on_stage_end(&self, session: &str, stage: PipelineStage, elapsed: Duration) {
        let mut live = self.live.lock();
        let Some(entry) = live.get_mut(session) else {
            return;
        };
        if !matches!(entry.stage, Some((s, _)) if s == stage) {
            return;
        }
        let (_, span) = entry.stage.take().expect("matched above");
        let label = Arc::clone(&entry.label);
        drop(live);
        self.tracer.emit(
            &label,
            Some(stage),
            &Arc::from(stage.name()),
            EventKind::End {
                span,
                dur_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            },
        );
    }

    fn on_span_start(&self, session: &str, stage: PipelineStage, name: &str) {
        let mut live = self.live.lock();
        let entry = self.live_entry(&mut live, session);
        let parent = match entry.stage {
            Some((s, span)) if s == stage => span,
            _ => entry.root,
        };
        let span = self.tracer.next_span_id();
        let name: Arc<str> = Arc::from(name);
        entry.open.push((stage, Arc::clone(&name), span));
        let label = Arc::clone(&entry.label);
        drop(live);
        self.tracer.emit(
            &label,
            Some(stage),
            &name,
            EventKind::Start { span, parent },
        );
    }

    fn on_span_end(&self, session: &str, stage: PipelineStage, name: &str, elapsed: Duration) {
        let mut live = self.live.lock();
        let Some(entry) = live.get_mut(session) else {
            return;
        };
        // Open sub-span names of one session are distinct at any
        // instant (the observer contract), so last-match pairing is
        // exact.
        let Some(pos) = entry
            .open
            .iter()
            .rposition(|(s, n, _)| *s == stage && **n == *name)
        else {
            return;
        };
        let (_, name, span) = entry.open.remove(pos);
        let label = Arc::clone(&entry.label);
        drop(live);
        self.tracer.emit(
            &label,
            Some(stage),
            &name,
            EventKind::End {
                span,
                dur_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            },
        );
    }

    fn on_counters(&self, session: &str, stage: PipelineStage, counters: &[(&'static str, u64)]) {
        let label: Arc<str> = Arc::from(session);
        self.tracer.emit(
            &label,
            Some(stage),
            &self.counters_name,
            EventKind::Counters {
                pairs: counters.to_vec(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_kdb::Kdb;

    fn drive_one_session(rec: &FlightRecorder, session: &str) {
        rec.mark(session, MARK_QUEUE_WAIT, Duration::from_micros(150));
        rec.on_stage_start(session, PipelineStage::Characterize);
        rec.on_stage_end(
            session,
            PipelineStage::Characterize,
            Duration::from_micros(40),
        );
        rec.on_stage_start(session, PipelineStage::Optimize);
        for k in [4, 8] {
            let name = format!("sweep:k={k}");
            rec.on_span_start(session, PipelineStage::Optimize, &name);
            rec.on_counters(
                session,
                PipelineStage::Optimize,
                &[("iterations", 3), ("distance_evals", 120)],
            );
            rec.on_span_end(
                session,
                PipelineStage::Optimize,
                &name,
                Duration::from_micros(90),
            );
        }
        rec.on_stage_end(session, PipelineStage::Optimize, Duration::from_micros(220));
    }

    #[test]
    fn session_folds_into_a_valid_document() {
        let rec = FlightRecorder::new(128);
        drive_one_session(&rec, "s1");
        let doc = rec.finalize("s1", "completed", "ok");
        schema::validate_session_doc(&doc).unwrap();

        let spans = doc.get("spans").unwrap().as_array().unwrap();
        // root + 2 stages + 2 sweep points.
        assert_eq!(spans.len(), 5);
        let names: Vec<&str> = spans
            .iter()
            .map(|s| s.as_doc().unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names[0], "session");
        // Children of the root sort by name: characterize < optimize.
        assert_eq!(names[1], "characterize");
        assert_eq!(names[2], "optimize");
        assert_eq!(names[3], "sweep:k=4");
        assert_eq!(names[4], "sweep:k=8");
        // Sweep spans parent to the optimize stage span (index 2).
        for sweep in &spans[3..] {
            assert_eq!(
                sweep.as_doc().unwrap().get("parent").unwrap().as_i64(),
                Some(2)
            );
        }

        let counters = doc.get("counters").unwrap().as_doc().unwrap();
        assert_eq!(counters.get("iterations").unwrap().as_i64(), Some(6));
        assert_eq!(counters.get("distance_evals").unwrap().as_i64(), Some(240));

        assert_eq!(
            doc.get("queue_wait_ns").unwrap().as_i64(),
            Some(150_000),
            "queue-wait mark folds into the document"
        );

        let stages = doc.get("stages").unwrap().as_array().unwrap();
        let stage_names: Vec<&str> = stages
            .iter()
            .map(|s| s.as_doc().unwrap().get("stage").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(stage_names, vec!["characterize", "optimize"]);
        // Optimize closed 3 spans: the stage itself and two sweeps.
        assert_eq!(
            stages[1].as_doc().unwrap().get("count").unwrap().as_i64(),
            Some(3)
        );
    }

    #[test]
    fn document_is_stable_across_identical_runs_modulo_timestamps() {
        let strip_times = |doc: &Document| {
            let mut out = String::new();
            let spans = doc.get("spans").unwrap().as_array().unwrap();
            for span in spans {
                let span = span.as_doc().unwrap();
                out.push_str(span.get("name").unwrap().as_str().unwrap());
                out.push(':');
                out.push_str(&span.get("parent").unwrap().as_i64().unwrap().to_string());
                out.push(';');
            }
            out.push('|');
            out.push_str(
                doc.get("counters")
                    .unwrap()
                    .as_doc()
                    .unwrap()
                    .encode()
                    .as_str(),
            );
            out
        };
        let doc_a = {
            let rec = FlightRecorder::new(128);
            drive_one_session(&rec, "s");
            rec.finalize("s", "completed", "")
        };
        let doc_b = {
            let rec = FlightRecorder::new(128);
            drive_one_session(&rec, "s");
            rec.finalize("s", "completed", "")
        };
        assert_eq!(strip_times(&doc_a), strip_times(&doc_b));
    }

    #[test]
    fn persist_and_query_past_sessions() {
        let mut db = Kdb::in_memory();
        schema::init_schema(&mut db).unwrap();
        let rec = FlightRecorder::new(128);
        drive_one_session(&rec, "a");
        drive_one_session(&rec, "b");
        rec.persist(&mut db, "a", "completed", "").unwrap();
        rec.persist(&mut db, "b", "failed", "deadline").unwrap();

        let past = past_sessions(&db, Page::ALL);
        assert_eq!(past.len(), 2);
        let states: Vec<&str> = past
            .iter()
            .map(|d| d.get("state").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(states, vec!["completed", "failed"]);
        assert_eq!(past[1].get("outcome").unwrap().as_str(), Some("deadline"));

        // Pages: a cursor skips what was seen, a limit bounds the rest.
        let first = past_sessions(&db, Page { after: 0, limit: 1 });
        assert_eq!(first, past[..1]);
        let cursor = first[0].get("_id").unwrap().as_i64().unwrap() as DocId;
        let rest = Page {
            after: cursor,
            ..Page::ALL
        };
        assert_eq!(past_sessions(&db, rest), past[1..]);
    }

    #[test]
    fn event_log_is_capped_but_aggregates_are_not() {
        let rec = FlightRecorder::new(4);
        for i in 0..50 {
            rec.on_counters(
                "s",
                PipelineStage::PartialMining,
                &[("rows_scanned", i as u64)],
            );
        }
        assert_eq!(rec.recent_events("s").len(), 4, "log capped at capacity");
        let total: u64 = (0..50).sum();
        assert_eq!(rec.session_counters("s")["rows_scanned"], total);
    }

    #[test]
    fn empty_session_still_yields_a_valid_terminal_document() {
        let rec = FlightRecorder::new(8);
        let doc = rec.finalize("ghost", "cancelled", "cancelled before start");
        schema::validate_session_doc(&doc).unwrap();
        assert!(doc.get("spans").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn unmatched_stage_end_is_ignored() {
        let rec = FlightRecorder::new(8);
        rec.on_stage_end("s", PipelineStage::Navigation, Duration::from_nanos(5));
        assert!(rec.recent_events("s").is_empty());
    }

    #[test]
    fn sampled_trace_folds_into_a_valid_trace_document() {
        let rec = FlightRecorder::new(128);
        let ctx = TraceContext::forced(7, "t1").child(42);
        rec.set_trace("t1", ctx, false);
        drive_one_session(&rec, "t1");
        rec.trace_annotation(
            "t1",
            "fsync_round",
            Duration::from_micros(80),
            &[
                ("batch", 4),
                ("leader", 1),
                ("wait_ns", 20),
                ("fsync_ns", 60),
            ],
        );
        let (session_doc, trace_doc) = rec.finalize_with_trace("t1", "completed", "ok");
        schema::validate_session_doc(&session_doc).unwrap();
        let trace_doc = trace_doc.expect("sampled context yields a trace doc");
        schema::validate_trace_doc(&trace_doc).unwrap();

        assert_eq!(
            trace_doc.get("trace_id").unwrap().as_str(),
            Some(ctx.trace_id_hex().as_str())
        );
        assert_eq!(trace_doc.get("forced").unwrap(), &Value::Bool(false));
        let spans = trace_doc.get("spans").unwrap().as_array().unwrap();
        let mut by_name: HashMap<&str, &Document> = HashMap::new();
        for span in spans {
            let span = span.as_doc().unwrap();
            by_name.insert(span.get("name").unwrap().as_str().unwrap(), span);
        }
        // The client submit span carries the wire span id it arrived with.
        let submit = by_name["client_submit"];
        assert_eq!(submit.get("parent").unwrap().as_i64(), Some(0));
        let attrs = submit.get("attrs").unwrap().as_doc().unwrap();
        assert_eq!(attrs.get("wire_span_id").unwrap().as_i64(), Some(42));
        // The fsync round keeps its batch/leader/wait/fsync attributes.
        let fsync = by_name["fsync_round"];
        assert_eq!(fsync.get("parent").unwrap().as_i64(), Some(0));
        let attrs = fsync.get("attrs").unwrap().as_doc().unwrap();
        assert_eq!(attrs.get("batch").unwrap().as_i64(), Some(4));
        assert_eq!(attrs.get("leader").unwrap().as_i64(), Some(1));
        // Stage spans from the observer seam are in the same tree.
        assert!(by_name.contains_key("optimize"));
        // The session is forgotten after finalize.
        assert!(!rec.has_trace("t1"));
    }

    #[test]
    fn unregistered_or_forced_sessions_behave() {
        // No registered context: no trace document.
        let rec = FlightRecorder::new(64);
        drive_one_session(&rec, "plain");
        let (_, trace) = rec.finalize_with_trace("plain", "completed", "");
        assert!(trace.is_none());

        // Forced retroactively (slow-session log): the buffered spans
        // are all still there, and no client_submit span is invented.
        let rec = FlightRecorder::new(64);
        drive_one_session(&rec, "slow");
        rec.mark("slow", MARK_SLOW_SESSION, Duration::from_millis(900));
        rec.set_trace("slow", TraceContext::forced(5, "slow"), true);
        let (_, trace) = rec.finalize_with_trace("slow", "completed", "");
        let trace = trace.expect("forced context yields a trace doc");
        schema::validate_trace_doc(&trace).unwrap();
        assert_eq!(trace.get("forced").unwrap(), &Value::Bool(true));
        let names: Vec<&str> = trace
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_doc().unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"optimize"), "buffered spans survive");
        assert!(!names.contains(&"client_submit"));
    }

    #[test]
    fn persist_writes_and_queries_trace_records() {
        let mut db = Kdb::in_memory();
        schema::init_schema(&mut db).unwrap();
        schema::init_trace_schema(&mut db).unwrap();
        let rec = FlightRecorder::new(128);
        drive_one_session(&rec, "a");
        rec.set_trace("a", TraceContext::forced(1, "a"), false);
        drive_one_session(&rec, "b");
        rec.persist(&mut db, "a", "completed", "").unwrap();
        rec.persist(&mut db, "b", "failed", "deadline").unwrap();

        let all = past_traces(&db, None, Page::ALL);
        assert_eq!(all.len(), 1, "only the sampled session left a trace");
        assert_eq!(all[0].get("session").unwrap().as_str(), Some("a"));
        assert_eq!(past_traces(&db, Some("a"), Page::ALL).len(), 1);
        assert!(past_traces(&db, Some("b"), Page::ALL).is_empty());
    }
}
