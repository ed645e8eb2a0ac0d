//! The flight recorder: session-scoped span trees, per-stage latency
//! histograms and kernel counters, persisted to the K-DB `sessions`
//! collection on terminal state.
//!
//! A [`FlightRecorder`] sits behind the [`PipelineObserver`] seam of
//! `ada-core`: stage events become children of a per-session root span,
//! sub-span events (partial-mining rungs, optimizer sweep points)
//! become children of the current stage span, and counter events
//! accumulate into a per-session counter table. Each callback folds
//! straight into its session's one record under the recorder's lock —
//! taken once per stage, rung, sweep point or counter batch, never
//! inside kernel loops.
//!
//! On a session's terminal state, [`FlightRecorder::finalize`] removes
//! the record and folds it into one K-DB [`Document`] matching
//! [`ada_kdb::schema::validate_session_doc`]: a `spans` array in
//! deterministic pre-order (children sorted by `(name, start order)`,
//! parents always at earlier indexes), a `stages` array of histogram
//! quantiles, and a `counters` sub-document. The document is stable
//! across runs modulo timestamps, so a restarted service can diff past
//! sessions. A sampled session's record also carries its `trace_id`
//! and `forced` flag, and its span tree then holds the wire and commit
//! spans too: the trace is the session record, listed by
//! [`past_traces`].

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use ada_core::control::{PipelineObserver, PipelineStage};
use ada_kdb::schema;
use ada_kdb::{DocId, Document, KdbError, KdbSnapshot, SharedKdb, Stored, Value};
use parking_lot::Mutex;

use crate::context::TraceContext;
use crate::hist::Log2Histogram;

/// The index of a session's root span in [`Session::spans`].
const ROOT: usize = 0;

/// One span of a session's tree. Its id is its index in
/// [`Session::spans`], which is also its start order.
struct Span {
    name: String,
    parent: usize,
    start_ns: u64,
    dur_ns: Option<u64>,
    /// Attributes from [`FlightRecorder::trace_annotation`] (fsync batch
    /// sizes, leader role, wire span ids); a repeated key keeps its last
    /// value.
    attrs: Vec<(&'static str, u64)>,
}

/// Everything recorded for one in-flight session.
#[derive(Default)]
struct Session {
    /// The span tree; the root is opened with the first span.
    spans: Vec<Span>,
    /// The open stage span.
    stage: Option<(PipelineStage, usize)>,
    /// Open sub-spans (rungs, sweep points).
    open: Vec<(PipelineStage, usize)>,
    stage_hist: [Log2Histogram; PipelineStage::ALL.len()],
    counters: BTreeMap<&'static str, u64>,
    queue_wait_ns: u64,
    retries: u64,
    /// The registered trace context and whether it was forced.
    trace: Option<(TraceContext, bool)>,
}

impl Session {
    /// Opens a span under `parent` at `now`, opening the root first on
    /// the session's first span. Returns the span id.
    fn start(&mut self, name: &str, parent: usize, now: u64) -> usize {
        if self.spans.is_empty() {
            self.spans.push(Span::new("session", ROOT, now));
        }
        self.spans.push(Span::new(name, parent, now));
        self.spans.len() - 1
    }

    /// Closes span `id` after `dur_ns`, recording the duration in
    /// `stage`'s histogram when it has one.
    fn end(&mut self, id: usize, stage: Option<PipelineStage>, dur_ns: u64) {
        self.spans[id].dur_ns = Some(dur_ns);
        if let Some(stage) = stage {
            self.stage_hist[stage.index()].record(dur_ns);
        }
    }

    /// Records a closed root-parented span with attributes.
    fn annotate(&mut self, name: &str, now: u64, dur: Duration, attrs: &[(&'static str, u64)]) {
        let id = self.start(name, ROOT, now);
        self.spans[id].attrs = attrs.to_vec();
        self.end(id, None, nanos(dur));
    }
}

impl Span {
    fn new(name: &str, parent: usize, start_ns: u64) -> Self {
        Self {
            name: name.to_owned(),
            parent,
            start_ns,
            dur_ns: None,
            attrs: Vec::new(),
        }
    }
}

/// The session flight recorder (see the module docs).
pub struct FlightRecorder {
    /// Span timestamps are nanoseconds since this instant.
    epoch: Instant,
    sessions: Mutex<HashMap<String, Session>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `fold` on `session`'s record (created if absent) under the
    /// lock, with the current time in nanoseconds since the epoch.
    fn with(&self, session: &str, fold: impl FnOnce(&mut Session, u64)) {
        let mut sessions = self.sessions.lock();
        if !sessions.contains_key(session) {
            sessions.insert(session.to_owned(), Session::default());
        }
        let now = nanos(self.epoch.elapsed());
        fold(sessions.get_mut(session).expect("inserted above"), now)
    }

    /// Runs `fold` on `session`'s record under the lock; nothing when
    /// the session has no record.
    fn with_existing(&self, session: &str, fold: impl FnOnce(&mut Session)) {
        if let Some(rec) = self.sessions.lock().get_mut(session) {
            fold(rec);
        }
    }

    /// Adds `wait` to the time `session` spent queued before a worker
    /// picked it up.
    pub fn queue_wait(&self, session: &str, wait: Duration) {
        self.with(session, |rec, _| rec.queue_wait_ns += nanos(wait));
    }

    /// Counts one retry of a failed run of `session`.
    pub fn retry(&self, session: &str) {
        self.with(session, |rec, _| rec.retries += 1);
    }

    /// Registers the [`TraceContext`] under which `session` runs. A
    /// sampled, non-forced context (one that arrived with the
    /// submission) also records a root-parented `client_submit` span
    /// carrying the wire span id, so the persisted trace links back to
    /// the span that minted the context on the client. Re-registering
    /// an already-known session only updates the context.
    pub fn set_trace(&self, session: &str, ctx: TraceContext, forced: bool) {
        self.with(session, |rec, now| {
            let fresh = rec.trace.replace((ctx, forced)).is_none();
            if fresh && ctx.sampled && !forced {
                let attrs = [("wire_span_id", ctx.span_id)];
                rec.annotate("client_submit", now, Duration::ZERO, &attrs);
            }
        });
    }

    /// Whether a trace context is registered for `session`.
    pub fn has_trace(&self, session: &str) -> bool {
        self.sessions
            .lock()
            .get(session)
            .is_some_and(|rec| rec.trace.is_some())
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
        self.with(session, |rec, now| rec.annotate(name, now, duration, attrs));
    }

    /// Removes everything recorded for `session` and folds it into its
    /// terminal K-DB document. `state` must be one of
    /// [`schema::SESSION_TERMINAL_STATES`] for the document to pass
    /// validation; `outcome` is a free-form detail string (empty to
    /// omit). When a sampled [`TraceContext`] was registered for
    /// `session`, the document also carries its `trace_id` and `forced`
    /// flag: a sampled session's trace *is* its session record.
    pub fn finalize(&self, session: &str, state: &str, outcome: &str) -> Document {
        let rec = self.sessions.lock().remove(session).unwrap_or_default();
        let doc = build_session_doc(session, state, outcome, &rec);
        match rec.trace.filter(|(ctx, _)| ctx.sampled) {
            Some((ctx, forced)) => doc
                .with("trace_id", ctx.trace_id_hex().as_str())
                .with("forced", forced),
            None => doc,
        }
    }

    /// [`FlightRecorder::finalize`] + validated insert into the
    /// `sessions` collection. Returns the document id.
    ///
    /// # Errors
    /// Returns [`KdbError::Schema`] on a malformed record, otherwise
    /// store errors.
    pub fn persist(
        &self,
        db: &SharedKdb,
        session: &str,
        state: &str,
        outcome: &str,
    ) -> Result<DocId, KdbError> {
        schema::insert_session_record(db, self.finalize(session, state, outcome))
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
/// borrowed from `db` as the stored entries whose cached encoding the
/// wire encoder splices. This is how a restarted service answers
/// queries about past runs.
pub fn past_sessions(db: &KdbSnapshot, page: Page) -> Vec<&Stored> {
    listing(db, schema::names::SESSIONS, page, |_| true)
}

/// The sampled session records in `db` (those carrying a `trace_id`),
/// in insertion (`_id`) order, optionally filtered to one session.
/// Backs the `TraceQuery` wire message.
pub fn past_traces<'a>(db: &'a KdbSnapshot, session: Option<&str>, page: Page) -> Vec<&'a Stored> {
    listing(db, schema::names::SESSIONS, page, |doc| {
        doc.get("trace_id").is_some()
            && session
                .is_none_or(|wanted| doc.get("session").and_then(Value::as_str) == Some(wanted))
    })
}

/// One range scan of a collection image (`Collection::iter_after` is
/// id-ordered): nothing before the cursor is visited, nothing is cloned.
fn listing<'a>(
    db: &'a KdbSnapshot,
    collection: &str,
    page: Page,
    keep: impl Fn(&Document) -> bool,
) -> Vec<&'a Stored> {
    let Some(coll) = db.collection(collection) else {
        return Vec::new();
    };
    coll.iter_after(page.after)
        .map(|(_, doc)| doc)
        .filter(|doc| keep(doc))
        .take(page.limit)
        .collect()
}

/// A duration in nanoseconds, saturating at `u64::MAX`.
fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// A document integer, saturating at `i64::MAX`.
fn as_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Folds a session's spans into the deterministic `spans` array of its
/// session document: pre-order DFS from the root with children sorted
/// by `(name, start order)`, so parent indexes always point at earlier
/// array positions. Spans that were annotated carry an `attrs`
/// sub-document.
fn build_span_array(spans: &[Span]) -> Vec<Value> {
    let Some(root) = spans.first() else {
        return Vec::new();
    };
    let base = root.start_ns;
    // The root closes at finalize: its duration is the extent of
    // its deepest-reaching descendant.
    let extent = spans
        .iter()
        .map(|s| s.start_ns.saturating_sub(base) + s.dur_ns.unwrap_or(0))
        .max()
        .unwrap_or(0);
    // Child ids by parent, in start order; the stable sort by name
    // keeps start order among equal names.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate().skip(1) {
        children[span.parent].push(id);
    }
    for list in &mut children {
        list.sort_by(|&a, &b| spans[a].name.cmp(&spans[b].name));
    }
    let mut out = Vec::with_capacity(spans.len());
    let mut stack: Vec<(usize, i64)> = vec![(ROOT, -1)];
    while let Some((id, parent_idx)) = stack.pop() {
        let span = &spans[id];
        let idx = out.len() as i64;
        let dur = span.dur_ns.unwrap_or(if id == ROOT { extent } else { 0 });
        let mut span_doc = Document::new()
            .with("name", span.name.as_str())
            .with("parent", parent_idx)
            .with("start_ns", as_i64(span.start_ns.saturating_sub(base)))
            .with("dur_ns", as_i64(dur));
        if !span.attrs.is_empty() {
            let mut attr_doc = Document::new();
            for &(key, value) in &span.attrs {
                attr_doc.set(key, as_i64(value));
            }
            span_doc = span_doc.with("attrs", Value::Doc(attr_doc));
        }
        out.push(Value::Doc(span_doc));
        // Reversed so the (name, start)-smallest child pops first.
        for &kid in children[id].iter().rev() {
            stack.push((kid, idx));
        }
    }
    out
}

/// Builds the terminal session document (see the module docs for the
/// shape). `events_dropped` is kept for readers of older records and
/// always reads 0: the recorder loses no event.
fn build_session_doc(session: &str, state: &str, outcome: &str, rec: &Session) -> Document {
    let spans = build_span_array(&rec.spans);

    let mut stages = Vec::new();
    for stage in PipelineStage::ALL {
        let snap = rec.stage_hist[stage.index()].snapshot();
        if snap.count == 0 {
            continue;
        }
        stages.push(Value::Doc(
            Document::new()
                .with("stage", stage.name())
                .with("count", as_i64(snap.count))
                .with("sum_ns", as_i64(snap.sum))
                .with("p50_ns", as_i64(snap.quantile(0.5)))
                .with("p90_ns", as_i64(snap.quantile(0.9)))
                .with("p99_ns", as_i64(snap.quantile(0.99))),
        ));
    }

    let mut counters = Document::new();
    for (&key, &value) in &rec.counters {
        counters.set(key, as_i64(value));
    }

    let mut doc = Document::new()
        .with("session", session)
        .with("state", state)
        .with("queue_wait_ns", as_i64(rec.queue_wait_ns))
        .with("retries", as_i64(rec.retries))
        .with("events_dropped", 0i64)
        .with("spans", Value::Array(spans))
        .with("stages", Value::Array(stages))
        .with("counters", Value::Doc(counters));
    if !outcome.is_empty() {
        doc = doc.with("outcome", outcome);
    }
    doc
}

impl PipelineObserver for FlightRecorder {
    fn on_stage_start(&self, session: &str, stage: PipelineStage) {
        self.with(session, |rec, now| {
            let id = rec.start(stage.name(), ROOT, now);
            rec.stage = Some((stage, id));
        });
    }

    fn on_stage_end(&self, session: &str, stage: PipelineStage, elapsed: Duration) {
        self.with_existing(session, |rec| {
            if let Some((_, id)) = rec.stage.take_if(|(s, _)| *s == stage) {
                rec.end(id, Some(stage), nanos(elapsed));
            }
        });
    }

    fn on_span_start(&self, session: &str, stage: PipelineStage, name: &str) {
        self.with(session, |rec, now| {
            let parent = match rec.stage {
                Some((s, id)) if s == stage => id,
                _ => ROOT,
            };
            let id = rec.start(name, parent, now);
            rec.open.push((stage, id));
        });
    }

    fn on_span_end(&self, session: &str, stage: PipelineStage, name: &str, elapsed: Duration) {
        self.with_existing(session, |rec| {
            // Open sub-span names of one session are distinct at any
            // instant (the observer contract), so last-match pairing is
            // exact.
            let spans = &rec.spans;
            let pos = rec
                .open
                .iter()
                .rposition(|&(s, id)| s == stage && spans[id].name == name);
            if let Some(pos) = pos {
                let (_, id) = rec.open.remove(pos);
                rec.end(id, Some(stage), nanos(elapsed));
            }
        });
    }

    fn on_counters(&self, session: &str, _stage: PipelineStage, counters: &[(&'static str, u64)]) {
        self.with(session, |rec, _| {
            for &(key, value) in counters {
                *rec.counters.entry(key).or_default() += value;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_one_session(rec: &FlightRecorder, session: &str) {
        rec.queue_wait(session, Duration::from_micros(150));
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
        let rec = FlightRecorder::new();
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
            "queue wait folds into the document"
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
            let rec = FlightRecorder::new();
            drive_one_session(&rec, "s");
            rec.finalize("s", "completed", "")
        };
        let doc_b = {
            let rec = FlightRecorder::new();
            drive_one_session(&rec, "s");
            rec.finalize("s", "completed", "")
        };
        assert_eq!(strip_times(&doc_a), strip_times(&doc_b));
    }

    #[test]
    fn persist_and_query_past_sessions() {
        let db = SharedKdb::in_memory();
        schema::init_schema(&db).unwrap();
        let rec = FlightRecorder::new();
        drive_one_session(&rec, "a");
        drive_one_session(&rec, "b");
        rec.persist(&db, "a", "completed", "").unwrap();
        rec.persist(&db, "b", "failed", "deadline").unwrap();
        let db = db.read();

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
    fn counters_fold_every_event() {
        let rec = FlightRecorder::new();
        for i in 0..50 {
            rec.on_counters(
                "s",
                PipelineStage::PartialMining,
                &[("rows_scanned", i as u64)],
            );
        }
        let total: u64 = (0..50).sum();
        let doc = rec.finalize("s", "completed", "");
        let counters = doc.get("counters").and_then(Value::as_doc).unwrap();
        assert_eq!(
            counters.get("rows_scanned"),
            Some(&Value::I64(total as i64))
        );
    }

    #[test]
    fn short_lived_threads_leave_no_state_once_finalized() {
        // A parallel sweep reports each `sweep:k=…` span from a thread of
        // its own that exits before the session ends. Once a session is
        // finalized the recorder holds nothing for it, however many
        // threads reported into it.
        let rec = FlightRecorder::new();
        for i in 0..20 {
            let session = format!("s{i}");
            rec.on_stage_start(&session, PipelineStage::Optimize);
            std::thread::scope(|scope| {
                for k in [2, 4, 8] {
                    let (rec, session) = (&rec, session.as_str());
                    scope.spawn(move || {
                        let name = format!("sweep:k={k}");
                        rec.on_span_start(session, PipelineStage::Optimize, &name);
                        rec.on_counters(session, PipelineStage::Optimize, &[("iterations", k)]);
                        rec.on_span_end(session, PipelineStage::Optimize, &name, Duration::ZERO);
                    });
                }
            });
            rec.on_stage_end(&session, PipelineStage::Optimize, Duration::ZERO);
            let doc = rec.finalize(&session, "completed", "");
            assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 5);
            assert!(rec.sessions.lock().is_empty(), "session {i} left state");
        }
    }

    #[test]
    fn empty_session_still_yields_a_valid_terminal_document() {
        let rec = FlightRecorder::new();
        let doc = rec.finalize("ghost", "cancelled", "cancelled before start");
        schema::validate_session_doc(&doc).unwrap();
        assert!(doc.get("spans").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn unmatched_stage_end_is_ignored() {
        let rec = FlightRecorder::new();
        rec.on_stage_end("s", PipelineStage::Navigation, Duration::from_nanos(5));
        assert!(rec.sessions.lock().is_empty());
    }

    #[test]
    fn sampled_trace_folds_into_a_valid_session_document() {
        let rec = FlightRecorder::new();
        let ctx = TraceContext {
            span_id: 42,
            ..TraceContext::forced(7, "t1")
        };
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
        let trace_doc = rec.finalize("t1", "completed", "ok");
        schema::validate_session_doc(&trace_doc).unwrap();

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
        // No registered context: no trace fields.
        let rec = FlightRecorder::new();
        drive_one_session(&rec, "plain");
        let plain = rec.finalize("plain", "completed", "");
        assert!(plain.get("trace_id").is_none() && plain.get("forced").is_none());

        // Forced retroactively (slow-session log): the recorded spans
        // are all still there, and no client_submit span is invented.
        let rec = FlightRecorder::new();
        drive_one_session(&rec, "slow");
        rec.set_trace("slow", TraceContext::forced(5, "slow"), true);
        let trace = rec.finalize("slow", "completed", "");
        schema::validate_session_doc(&trace).unwrap();
        assert_eq!(trace.get("forced").unwrap(), &Value::Bool(true));
        let names: Vec<&str> = trace
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_doc().unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"optimize"), "recorded spans survive");
        assert!(!names.contains(&"client_submit"));
    }

    #[test]
    fn persist_writes_and_queries_trace_records() {
        let db = SharedKdb::in_memory();
        schema::init_schema(&db).unwrap();
        let rec = FlightRecorder::new();
        drive_one_session(&rec, "a");
        rec.set_trace("a", TraceContext::forced(1, "a"), false);
        drive_one_session(&rec, "b");
        rec.persist(&db, "a", "completed", "").unwrap();
        rec.persist(&db, "b", "failed", "deadline").unwrap();
        let db = db.read();

        let all = past_traces(&db, None, Page::ALL);
        assert_eq!(all.len(), 1, "only the sampled session left a trace");
        assert_eq!(all[0].get("session").unwrap().as_str(), Some("a"));
        assert_eq!(past_traces(&db, Some("a"), Page::ALL).len(), 1);
        assert!(past_traces(&db, Some("b"), Page::ALL).is_empty());
        // The trace is the session record itself: one store, one record.
        assert_eq!(past_sessions(&db, Page::ALL).len(), 2);
        assert_eq!(
            past_traces(&db, None, Page::ALL)[0],
            past_sessions(&db, Page::ALL)[0]
        );
    }
}
