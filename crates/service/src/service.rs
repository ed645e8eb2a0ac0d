//! The analysis service: a fixed worker pool draining the prioritized
//! job queue against one shared K-DB.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ada_core::{
    AdaHealth, PipelineError, PipelineObserver, PipelineStage, RunControl, TraceHandle,
};
use ada_dataset::{ExamLog, ExamRecord, StreamOrder};
use ada_kdb::{
    schema, CommitObserver, CommitRole, Document, DurabilityPolicy, Kdb, SharedKdb, Value,
};
use ada_obs::{
    current_trace, document_to_json, past_sessions, past_traces, FlightRecorder, Page,
    StreamMetrics, TraceContext, TraceScope, MARK_CANCELLED, MARK_DEGRADED, MARK_PERSIST_FAIL,
    MARK_PROMOTED, MARK_QUEUE_WAIT, MARK_RETRY, MARK_SLOW_SESSION,
};
use ada_stream::{
    IngestAck, IngestRejected, StreamConfig, StreamEngine, StreamHandle, StreamMiningSpec,
    StreamReport,
};

use crate::cancel::CancelToken;
use crate::error::ServiceError;
use crate::job::{JobSpec, Workload};
use crate::observer::{FanoutObserver, MetricsObserver, ServiceMetrics};
use crate::queue::{JobQueue, Token};
use crate::registry::{SessionId, SessionOutcome, SessionRegistry, SessionState};

/// Deterministic capped exponential backoff for retried attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the jitter mix — same seed, same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 0x5eed_0fad_a0c1_d0c5,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based) of `session`.
    ///
    /// Exponential in `attempt`, capped at `cap`, with deterministic
    /// jitter in `[0, base)` derived from `(seed, session, attempt)` via
    /// a SplitMix64 mix so concurrent retries de-synchronize without a
    /// shared RNG.
    pub fn backoff(&self, session: SessionId, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let capped = exp.min(self.cap);
        let mut z = self
            .seed
            .wrapping_add(session.0.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(attempt));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jitter_nanos = (self.base.as_nanos() as u64).max(1);
        capped + Duration::from_nanos(z % jitter_nanos)
    }
}

/// Tuning knobs for [`AnalysisService`].
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it get `Busy`.
    pub queue_capacity: usize,
    /// Retry schedule for panicking attempts.
    pub retry: RetryPolicy,
    /// Optional extra observer receiving every stage event in addition
    /// to the built-in metrics collector and flight recorder.
    pub observer: Option<Arc<dyn PipelineObserver>>,
    /// Last-N cap on the flight recorder's per-session event log (span
    /// trees, histograms and counters are folded from all events).
    pub recorder_capacity: usize,
    /// Journal faults tolerated before the service flips to degraded
    /// read-only mode (clamped to at least 1).
    pub degrade_after: u32,
    /// Durability policy applied to the shared K-DB's journal at
    /// startup (`None` keeps whatever the store was opened with). Under
    /// the sharded store this is the *group-commit* policy: `Always`
    /// still means every acked op is fsync-covered, but concurrent
    /// writers share one fsync per commit round instead of paying one
    /// each.
    pub durability: Option<DurabilityPolicy>,
    /// Force a final journal fsync when the service shuts down, so ops
    /// acknowledged non-durable under `Batch`/`SnapshotOnly` policies
    /// are made durable before the process exits.
    pub sync_on_shutdown: bool,
    /// Fraction of sessions whose requests are traced end-to-end
    /// (`0.0` = tracing fully off — the default, byte-identical to a
    /// build without tracing; `1.0` = every session). The decision is
    /// seeded-deterministic per session name, so the same submission
    /// samples identically on every run.
    pub sample_rate: f64,
    /// Seed for the deterministic sampling decision and trace-id
    /// derivation. Remote clients that mint contexts themselves must
    /// use the same seed for client and server decisions to agree.
    pub trace_seed: u64,
    /// Start as a replication follower: reads and status queries are
    /// served, submissions are refused with [`ServiceError::Follower`]
    /// until [`AnalysisService::promote`] flips the node to primary.
    pub follower: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            observer: None,
            recorder_capacity: 512,
            degrade_after: 3,
            durability: None,
            sync_on_shutdown: true,
            sample_rate: 0.0,
            trace_seed: DEFAULT_TRACE_SEED,
            follower: false,
        }
    }
}

/// The default sampling seed: client and server must agree on one seed
/// for their deterministic decisions to coincide, so both sides default
/// to this constant.
pub const DEFAULT_TRACE_SEED: u64 = 0xada0_b5e5_7ace_5eed;

struct ServiceInner {
    kdb: SharedKdb,
    queue: JobQueue<(SessionId, JobSpec, Instant)>,
    registry: SessionRegistry,
    metrics: Arc<MetricsObserver>,
    recorder: Arc<FlightRecorder>,
    extra_observer: Option<Arc<dyn PipelineObserver>>,
    retry: RetryPolicy,
    shutting_down: AtomicBool,
    /// Sticky read-only flag; set once [`ServiceInner::journal_fault_delta`]
    /// reaches `degrade_after`, cleared only by a restart.
    degraded: AtomicBool,
    /// Warm-standby read-only flag; unlike `degraded` it is not sticky:
    /// [`AnalysisService::promote`] clears it on failover.
    follower: AtomicBool,
    /// Journal faults already on the K-DB when the service started
    /// (faults are attributed to the process that caused them).
    initial_faults: u64,
    degrade_after: u64,
    /// Run one final group fsync when the service stops.
    sync_on_shutdown: bool,
    /// End-to-end tracing sample rate (0 = off, the byte-identity
    /// baseline).
    sample_rate: f64,
    /// Seed for deterministic sampling and trace-id derivation.
    trace_seed: u64,
    /// Open ingestion streams by name (`stream_open` registers,
    /// `stop` closes).
    streams: Mutex<HashMap<String, Arc<StreamHandle>>>,
    /// Shared counters behind the `ada_stream_*` Prometheus families;
    /// every stream (registry or session workload) reports here.
    stream_metrics: Arc<StreamMetrics>,
}

impl ServiceInner {
    /// Journal faults the shared K-DB has accumulated on this service's
    /// watch.
    fn journal_fault_delta(&self) -> u64 {
        self.kdb
            .journal_fault_count()
            .saturating_sub(self.initial_faults)
    }

    /// Re-reads the fault counter and performs the degraded transition
    /// when the threshold is crossed. `session` labels the obs mark.
    fn check_degraded(&self, session: &str) {
        let delta = self.journal_fault_delta();
        self.metrics.set_journal_faults(delta);
        if delta >= self.degrade_after && !self.degraded.swap(true, Ordering::AcqRel) {
            self.metrics.degraded_transition();
            self.recorder.mark(session, MARK_DEGRADED, Duration::ZERO);
        }
    }
}

/// An in-process analysis server: submit [`JobSpec`]s, await their
/// [`SessionState`]s, share one journaled K-DB across all sessions.
///
/// Sessions run through [`AdaHealth::with_shared_kdb_isolated`], so each
/// concurrent session's `SessionReport` is identical to a serial run of
/// the same configuration and seed.
pub struct AnalysisService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl AnalysisService {
    /// Starts the worker pool over `kdb` (wrap an owned [`Kdb`] with
    /// [`AnalysisService::with_kdb`]).
    pub fn new(config: ServiceConfig, kdb: SharedKdb) -> Self {
        let workers = config.workers.max(1);
        if let Some(policy) = config.durability {
            kdb.set_durability(policy);
        }
        let initial_faults = kdb.journal_fault_count();
        let recorder = Arc::new(FlightRecorder::new(config.recorder_capacity));
        if config.sample_rate > 0.0 {
            // Only a tracing service hooks the group committer: at rate
            // 0 the commit path stays exactly as it was (the
            // byte-identity invariant).
            kdb.set_commit_observer(Some(Arc::new(FsyncRoundObserver {
                recorder: Arc::clone(&recorder),
            })));
        }
        let inner = Arc::new(ServiceInner {
            kdb,
            queue: JobQueue::bounded(config.queue_capacity.max(1)),
            registry: SessionRegistry::new(),
            metrics: Arc::new(MetricsObserver::new()),
            recorder,
            extra_observer: config.observer,
            retry: config.retry,
            shutting_down: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            follower: AtomicBool::new(config.follower),
            initial_faults,
            degrade_after: u64::from(config.degrade_after.max(1)),
            sync_on_shutdown: config.sync_on_shutdown,
            sample_rate: config.sample_rate,
            trace_seed: config.trace_seed,
            streams: Mutex::new(HashMap::new()),
            stream_metrics: Arc::new(StreamMetrics::new()),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ada-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Convenience: takes ownership of a `Kdb` and shares it.
    pub fn with_kdb(config: ServiceConfig, kdb: Kdb) -> Self {
        Self::new(config, SharedKdb::new(kdb))
    }

    /// The shared K-DB handle all sessions write into.
    pub fn kdb(&self) -> SharedKdb {
        self.inner.kdb.clone()
    }

    /// Submits a job; returns its session id, or refuses with
    /// `Busy` (backpressure, with a retry hint), `ShuttingDown`,
    /// `Degraded` (the store is no longer accepting writes it could
    /// lose), or `Follower` (this node is a warm standby; writes belong
    /// on the primary).
    pub fn submit(&self, spec: JobSpec) -> Result<SessionId, ServiceError> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(ServiceError::Degraded);
        }
        if self.inner.follower.load(Ordering::Acquire) {
            return Err(ServiceError::Follower);
        }
        let mut spec = spec;
        if spec.trace.is_none() && self.inner.sample_rate > 0.0 {
            // In-process submissions mint here; remote ones arrive with
            // the client's context already attached.
            spec.trace = TraceContext::mint(
                self.inner.trace_seed,
                &spec.config.session,
                self.inner.sample_rate,
            );
        }
        let token = spec.cancel.clone().unwrap_or_default();
        let id = self.inner.registry.register(&spec.config.session, token);
        let priority = spec.priority;
        if let Err(capacity) = self.inner.queue.push(priority, (id, spec, Instant::now())) {
            self.inner.registry.remove(id);
            self.inner.metrics.job_rejected();
            return Err(ServiceError::Busy {
                capacity,
                retry_after_hint: self.retry_after_hint(),
            });
        }
        self.inner.metrics.job_submitted();
        self.inner
            .metrics
            .observe_queue_depth(self.inner.queue.len());
        Ok(id)
    }

    /// Requests cooperative cancellation of a session. Takes effect at
    /// the session's next pipeline checkpoint, or immediately if it is
    /// still queued.
    pub fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        let token = self.inner.registry.cancel_token(id)?;
        token.cancel();
        Ok(())
    }

    /// The current state of a session.
    pub fn state(&self, id: SessionId) -> Result<SessionState, ServiceError> {
        self.inner.registry.state(id)
    }

    /// Blocks until the session reaches a terminal state.
    pub fn wait(&self, id: SessionId) -> Result<SessionState, ServiceError> {
        self.inner.registry.wait(id)
    }

    /// Every session as `(id, name, state)`, in submission order.
    pub fn sessions(&self) -> Vec<(SessionId, String, SessionState)> {
        self.inner.registry.sessions()
    }

    /// A point-in-time metrics snapshot, including the shared K-DB's
    /// group-commit counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let mut metrics = self.inner.metrics.snapshot();
        metrics.kdb = self.inner.kdb.group_commit_stats();
        metrics.events_dropped = self.inner.recorder.dropped();
        metrics
    }

    /// Current depth of the job queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// Estimated wait until a refused submission could be accepted:
    /// queue depth × the p50 session execution latency observed so far
    /// (100 ms prior before any session finished), clamped to
    /// `[25 ms, 30 s]`. The same hint travels in `ServiceError::Busy`
    /// and in the wire protocol's `Busy` response, so in-process and
    /// remote callers see identical backpressure semantics.
    pub fn retry_after_hint(&self) -> Duration {
        let p50 = self.inner.metrics.session_latency_p50();
        let p50 = if p50.is_zero() {
            Duration::from_millis(100)
        } else {
            p50
        };
        let depth = self.inner.queue.len().max(1) as u32;
        p50.saturating_mul(depth)
            .clamp(Duration::from_millis(25), Duration::from_secs(30))
    }

    /// Whether the service has entered degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Whether this node is currently a replication follower.
    pub fn is_follower(&self) -> bool {
        self.inner.follower.load(Ordering::Acquire)
    }

    /// Promotes a follower to primary: clears the read-only follower
    /// flag so subsequent submissions are accepted, and marks the
    /// transition in the flight recorder. Idempotent; returns whether
    /// this call performed the transition.
    pub fn promote(&self) -> bool {
        let was = self.inner.follower.swap(false, Ordering::AcqRel);
        if was {
            self.inner
                .recorder
                .mark("fleet", MARK_PROMOTED, Duration::ZERO);
        }
        was
    }

    /// A health probe document: overall status (`"ok"`, `"follower"` or
    /// `"degraded"`), the node's replication role, the journal fault
    /// count on this service's watch, lost terminal-session records,
    /// and whether new work is accepted.
    pub fn health(&self) -> Document {
        let degraded = self.is_degraded();
        let follower = self.is_follower();
        let faults = self.inner.journal_fault_delta();
        let metrics = self.inner.metrics.snapshot();
        let status = if degraded {
            "degraded"
        } else if follower {
            "follower"
        } else {
            "ok"
        };
        Document::new()
            .with("status", status)
            .with("role", if follower { "follower" } else { "primary" })
            .with("accepting_writes", !degraded && !follower)
            .with("journal_faults", i64::try_from(faults).unwrap_or(i64::MAX))
            .with(
                "persist_failures",
                i64::try_from(metrics.persist_failures).unwrap_or(i64::MAX),
            )
    }

    /// The session flight recorder (trace drain, recent events,
    /// per-session counters).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.inner.recorder)
    }

    /// Terminal session records persisted to the K-DB `sessions`
    /// collection — including by previous service processes over the
    /// same journal, which is how a restarted service answers queries
    /// about past runs.
    ///
    /// Copies each record out of the store image; a caller that only
    /// needs to look (the wire front-end) borrows them instead, via
    /// [`ada_obs::past_sessions`] over [`AnalysisService::kdb`]`.read()`.
    pub fn past_sessions(&self) -> Vec<Document> {
        past_sessions(&self.inner.kdb.read(), Page::ALL)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Terminal trace records persisted to the K-DB `traces`
    /// collection, optionally filtered to one session — the local face
    /// of the `TraceQuery` wire message.
    pub fn past_traces(&self, session: Option<&str>) -> Vec<Document> {
        past_traces(&self.inner.kdb.read(), session, Page::ALL)
            .into_iter()
            .cloned()
            .collect()
    }

    /// One document describing the whole service right now: metrics
    /// (histogram quantiles included), every known session and its
    /// state, and the count of persisted past sessions.
    pub fn snapshot(&self) -> Document {
        let sessions = self
            .inner
            .registry
            .labels()
            .into_iter()
            .map(|(id, name, label)| {
                Value::Doc(
                    Document::new()
                        .with("id", i64::try_from(id.0).unwrap_or(i64::MAX))
                        .with("name", name)
                        .with("state", label),
                )
            })
            .collect();
        let past = self
            .inner
            .kdb
            .read()
            .collection(schema::names::SESSIONS)
            .map_or(0, ada_kdb::Collection::len);
        Document::new()
            .with("health", Value::Doc(self.health()))
            .with("metrics", Value::Doc(self.metrics().to_document()))
            .with("sessions", Value::Array(sessions))
            .with("past_sessions", i64::try_from(past).unwrap_or(i64::MAX))
            .with(
                "events_dropped",
                i64::try_from(self.inner.recorder.dropped()).unwrap_or(i64::MAX),
            )
    }

    /// [`AnalysisService::snapshot`] rendered as a JSON object.
    pub fn snapshot_json(&self) -> String {
        document_to_json(&self.snapshot())
    }

    /// The metrics snapshot rendered as Prometheus text exposition,
    /// including the pinned `ada_stream_*` families.
    pub fn snapshot_prometheus(&self) -> String {
        let mut out = self.metrics().to_prometheus();
        out.push_str(&self.inner.stream_metrics.snapshot().to_prometheus());
        out
    }

    /// Opens (or resumes) a named ingestion stream: if the shared K-DB
    /// holds `stream_windows` checkpoints under this name they are
    /// replayed and verified, and the stream resumes from its durable
    /// watermark. Returns the number of resumed windows. Opening a
    /// name that is already open is an idempotent no-op (returns 0);
    /// a degraded or follower node refuses — ingestion is mutating
    /// work that belongs on a healthy primary.
    pub fn stream_open(&self, config: StreamConfig) -> Result<u64, ServiceError> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(ServiceError::Degraded);
        }
        if self.inner.follower.load(Ordering::Acquire) {
            return Err(ServiceError::Follower);
        }
        let mut streams = self.inner.streams.lock().unwrap();
        if streams.contains_key(&config.name) {
            return Ok(0);
        }
        let name = config.name.clone();
        let (engine, resumed) = StreamEngine::open(
            config,
            Some(self.inner.kdb.clone()),
            Arc::clone(&self.inner.stream_metrics),
            Some(Arc::clone(&self.inner.recorder)),
        )
        .map_err(|e| ServiceError::StreamFault(e.to_string()))?;
        streams.insert(name, StreamHandle::spawn(engine));
        Ok(resumed)
    }

    /// Enqueues a record batch on an open stream without blocking. A
    /// full channel refuses with the service's standard
    /// [`ServiceError::Busy`] backpressure signal.
    pub fn stream_ingest(
        &self,
        stream: &str,
        records: Vec<ExamRecord>,
    ) -> Result<IngestAck, ServiceError> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(ServiceError::Degraded);
        }
        if self.inner.follower.load(Ordering::Acquire) {
            return Err(ServiceError::Follower);
        }
        let handle = self.stream_handle(stream)?;
        handle.try_ingest(records).map_err(|rej| match rej {
            IngestRejected::Full => ServiceError::Busy {
                capacity: handle.capacity(),
                retry_after_hint: self.retry_after_hint(),
            },
            IngestRejected::Closed => ServiceError::ShuttingDown,
            IngestRejected::Fault(msg) => ServiceError::StreamFault(msg),
        })
    }

    /// The stream's status document — read-your-writes: every batch
    /// accepted before this call is reflected. Allowed on any node
    /// state (it is a read).
    pub fn stream_query(&self, stream: &str) -> Result<Document, ServiceError> {
        let handle = self.stream_handle(stream)?;
        handle
            .status()
            .map_err(|e| ServiceError::StreamFault(e.to_string()))
    }

    /// Seals an open stream — closes every buffered window regardless
    /// of the watermark (end of feed) — and returns its final status.
    pub fn stream_seal(&self, stream: &str) -> Result<Document, ServiceError> {
        if self.inner.degraded.load(Ordering::Acquire) {
            return Err(ServiceError::Degraded);
        }
        if self.inner.follower.load(Ordering::Acquire) {
            return Err(ServiceError::Follower);
        }
        let handle = self.stream_handle(stream)?;
        handle
            .seal()
            .map_err(|e| ServiceError::StreamFault(e.to_string()))?;
        handle
            .status()
            .map_err(|e| ServiceError::StreamFault(e.to_string()))
    }

    /// Names of the currently open streams, sorted.
    pub fn stream_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.streams.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    fn stream_handle(&self, stream: &str) -> Result<Arc<StreamHandle>, ServiceError> {
        self.inner
            .streams
            .lock()
            .unwrap()
            .get(stream)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownStream(stream.to_string()))
    }

    /// Stops accepting jobs, drains the queue, joins the workers, and
    /// returns the final metrics.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.stop();
        self.inner.metrics.snapshot()
    }

    fn stop(&mut self) {
        if self.inner.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // The wake channel is FIFO, so these land after every queued
        // job's token: workers drain the backlog before stopping.
        self.inner.queue.send_shutdown(self.workers.len());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Drain and stop every open stream before the final fsync so
        // accepted batches reach their durable checkpoints. Buffered
        // (pre-watermark) records are intentionally left unclosed: a
        // replaying source re-delivers them after resume.
        let streams: Vec<Arc<StreamHandle>> = self
            .inner
            .streams
            .lock()
            .unwrap()
            .drain()
            .map(|(_, h)| h)
            .collect();
        for stream in streams {
            stream.close();
        }
        if self.inner.sync_on_shutdown {
            // Batch/SnapshotOnly acks may still be fsync-uncovered; one
            // final group fsync closes the window (best-effort — the
            // fault counter records a failure).
            let _ = self.inner.kdb.sync();
        }
        if self.inner.sample_rate > 0.0 {
            // Unhook the group committer so a longer-lived K-DB handle
            // does not keep reporting into this service's recorder.
            self.inner.kdb.set_commit_observer(None);
        }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bridges the K-DB group committer into the flight recorder: every
/// commit round a traced session waits on becomes a `fsync_round` span
/// in that session's trace, with batch size, leader role, and the
/// wait-vs-fsync split as attributes. Attribution is via the worker
/// thread's [`TraceScope`]; rounds settled on untraced threads report
/// nothing.
struct FsyncRoundObserver {
    recorder: Arc<FlightRecorder>,
}

impl std::fmt::Debug for FsyncRoundObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsyncRoundObserver").finish_non_exhaustive()
    }
}

impl CommitObserver for FsyncRoundObserver {
    fn on_commit_round(
        &self,
        role: CommitRole,
        batch: u64,
        wait: Duration,
        fsync: Duration,
        durable: bool,
    ) {
        let Some((session, ctx)) = current_trace() else {
            return;
        };
        if !ctx.sampled {
            return;
        }
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.recorder.trace_annotation(
            &session,
            "fsync_round",
            wait + fsync,
            &[
                ("batch", batch),
                ("leader", u64::from(matches!(role, CommitRole::Leader))),
                ("wait_ns", ns(wait)),
                ("fsync_ns", ns(fsync)),
                ("durable", u64::from(durable)),
            ],
        );
    }
}

/// Retroactively forces a trace for a session whose wall time blew past
/// the slow-session threshold (2× the p99 execution latency, once at
/// least 16 sessions of history exist). The flight recorder still holds
/// every span of the session at this point, so the forced trace is as
/// complete as a sampled one.
fn maybe_force_slow_trace(inner: &ServiceInner, session: &str, elapsed: Duration) {
    if inner.sample_rate <= 0.0 || inner.recorder.has_trace(session) {
        return;
    }
    if inner.metrics.session_latency_count() < 16 {
        return;
    }
    let p99 = inner.metrics.session_latency_p99();
    if p99.is_zero() || elapsed <= p99 * 2 {
        return;
    }
    inner.metrics.trace_forced();
    inner.recorder.mark(session, MARK_SLOW_SESSION, elapsed);
    inner.recorder.set_trace(
        session,
        TraceContext::forced(inner.trace_seed, session),
        true,
    );
}

fn worker_loop(inner: &ServiceInner) {
    loop {
        match inner.queue.recv() {
            Token::Shutdown => break,
            Token::Job => {
                if let Some((id, spec, queued_at)) = inner.queue.pop() {
                    run_job(inner, id, spec, queued_at);
                }
            }
        }
    }
}

/// Best-effort persistence of a terminal session record: the service
/// must stay up even if the `sessions` collection write fails — but the
/// failure is no longer silent: it is counted, marked in the flight
/// recorder, and feeds the degraded-mode fault check. A *schema*
/// violation is a bug (not an environmental fault), so debug builds
/// still assert on that case.
fn persist_session(inner: &ServiceInner, session: &str, state: &str, outcome: &str) {
    // The `traces` collection is only ensured when this session will
    // actually write into it, so an untraced service's journal stays
    // byte-identical to the pre-tracing write path.
    let has_trace = inner.recorder.has_trace(session);
    let result = inner
        .kdb
        .ensure_collection(schema::names::SESSIONS)
        .and_then(|()| {
            if has_trace {
                schema::init_trace_schema(&mut inner.kdb.write())
            } else {
                Ok(())
            }
        })
        .and_then(|()| {
            inner
                .recorder
                .persist(&mut inner.kdb.write(), session, state, outcome)
        });
    if result.is_ok() && has_trace {
        inner.metrics.trace_persisted();
    }
    if let Err(err) = result {
        debug_assert!(
            !matches!(err, ada_kdb::KdbError::Schema(_)),
            "session record for {session} violated the schema: {err}"
        );
        inner.metrics.persist_failed();
        inner
            .recorder
            .mark(session, MARK_PERSIST_FAIL, Duration::ZERO);
    }
    inner.check_degraded(session);
}

fn run_job(inner: &ServiceInner, id: SessionId, spec: JobSpec, queued_at: Instant) {
    let session = spec.config.session.clone();
    let trace_ctx = spec.trace.filter(|ctx| ctx.sampled);
    if let Some(ctx) = trace_ctx {
        inner.recorder.set_trace(&session, ctx, false);
    }
    let wait = queued_at.elapsed();
    inner.metrics.observe_queue_wait(wait);
    inner.recorder.mark(&session, MARK_QUEUE_WAIT, wait);
    if trace_ctx.is_some() {
        inner
            .recorder
            .trace_annotation(&session, "queue_wait", wait, &[]);
    }

    let token = inner
        .registry
        .cancel_token(id)
        .unwrap_or_else(|_| CancelToken::new());
    if token.is_cancelled() {
        inner
            .recorder
            .mark(&session, MARK_CANCELLED, Duration::ZERO);
        persist_session(inner, &session, "cancelled", "cancelled while queued");
        inner.metrics.job_cancelled();
        inner.registry.transition(id, SessionState::Cancelled);
        return;
    }

    let mut targets: Vec<Arc<dyn PipelineObserver>> =
        vec![inner.metrics.clone(), inner.recorder.clone()];
    if let Some(extra) = &inner.extra_observer {
        targets.push(Arc::clone(extra));
    }
    let observer: Arc<dyn PipelineObserver> = Arc::new(FanoutObserver::new(targets));

    // Execution latency (pickup → terminal, retries included) feeds
    // the p50 behind the `Busy` retry hint.
    let started = Instant::now();
    let mut attempt = 0u32;
    loop {
        inner
            .registry
            .transition(id, SessionState::Running { attempt });
        let mut control = RunControl::new()
            .with_cancel_flag(token.flag())
            .with_observer(Arc::clone(&observer));
        if let Some(timeout) = spec.timeout {
            control = control.with_deadline(Instant::now() + timeout);
        }
        if let Some(ctx) = trace_ctx {
            control = control.with_trace(TraceHandle {
                hi: ctx.trace_hi,
                lo: ctx.trace_lo,
                sampled: true,
            });
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Publish the trace context on this worker thread for the
            // attempt's duration: layers below the observer seam (the
            // K-DB group committer) attribute their spans through it.
            let _trace_guard =
                trace_ctx.map(|ctx| TraceScope::enter(Arc::from(session.as_str()), ctx));
            if attempt < spec.inject_failures {
                panic!("injected failure on attempt {attempt}");
            }
            match &spec.workload {
                Workload::Pipeline => {
                    let mut pipeline =
                        AdaHealth::with_shared_kdb_isolated(spec.config.clone(), inner.kdb.clone());
                    pipeline
                        .run_controlled(&spec.log, &control)
                        .map(|report| SessionOutcome::Pipeline(Arc::new(report)))
                }
                Workload::SafetySignals(signal_config) => ada_signals::run_session(
                    &session,
                    signal_config,
                    &spec.log,
                    &inner.kdb,
                    &control,
                )
                .map(|report| SessionOutcome::Signals(Arc::new(report))),
                Workload::StreamMining(stream_spec) => {
                    run_stream_session(inner, &session, stream_spec, &spec.log, &control)
                        .map(|report| SessionOutcome::Stream(Arc::new(report)))
                }
            }
        }));

        match outcome {
            Ok(Ok(report)) => {
                let elapsed = started.elapsed();
                inner.metrics.observe_session_latency(elapsed);
                maybe_force_slow_trace(inner, &session, elapsed);
                persist_session(inner, &session, "completed", "");
                inner.metrics.job_completed();
                inner
                    .registry
                    .transition(id, SessionState::Completed(report));
                return;
            }
            Ok(Err(err @ PipelineError::Cancelled { .. })) => {
                let elapsed = started.elapsed();
                inner.metrics.observe_session_latency(elapsed);
                maybe_force_slow_trace(inner, &session, elapsed);
                inner
                    .recorder
                    .mark(&session, MARK_CANCELLED, Duration::ZERO);
                persist_session(inner, &session, "cancelled", &err.to_string());
                inner.metrics.job_cancelled();
                inner.registry.transition(id, SessionState::Cancelled);
                return;
            }
            Ok(Err(err @ PipelineError::DeadlineExceeded { .. })) => {
                // A blown deadline would blow it again on retry.
                let elapsed = started.elapsed();
                inner.metrics.observe_session_latency(elapsed);
                maybe_force_slow_trace(inner, &session, elapsed);
                persist_session(inner, &session, "failed", &err.to_string());
                inner.metrics.job_failed();
                inner.registry.transition(
                    id,
                    SessionState::Failed {
                        reason: err.to_string(),
                    },
                );
                return;
            }
            Err(panic) => {
                if attempt < spec.max_retries {
                    attempt += 1;
                    inner.metrics.job_retried();
                    let backoff = inner.retry.backoff(id, attempt);
                    inner.recorder.mark(&session, MARK_RETRY, backoff);
                    std::thread::sleep(backoff);
                } else {
                    let reason = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "attempt panicked".to_string());
                    let reason = format!("failed after {} attempts: {reason}", attempt + 1);
                    let elapsed = started.elapsed();
                    inner.metrics.observe_session_latency(elapsed);
                    maybe_force_slow_trace(inner, &session, elapsed);
                    persist_session(inner, &session, "failed", &reason);
                    inner.metrics.job_failed();
                    inner
                        .registry
                        .transition(id, SessionState::Failed { reason });
                    return;
                }
            }
        }
    }
}

/// The `StreamMining` workload: replay the session's cohort in
/// timestamp order (seeded bounded disorder re-creates a live feed's
/// jitter while staying inside the lateness bound) through a
/// checkpointing [`StreamEngine`], then seal and report the live
/// model. Because every closed window is durable in `stream_windows`,
/// a retried attempt resumes from the durable watermark and re-folds
/// nothing — the retry path and the crash-replay path are the same
/// code.
fn run_stream_session(
    inner: &ServiceInner,
    session: &str,
    spec: &StreamMiningSpec,
    log: &ExamLog,
    control: &RunControl,
) -> Result<StreamReport, PipelineError> {
    let stage = PipelineStage::StreamMining;
    control.stage(session, stage, || {
        let (mut engine, _resumed) = StreamEngine::open(
            spec.to_config(session),
            Some(inner.kdb.clone()),
            Arc::clone(&inner.stream_metrics),
            Some(Arc::clone(&inner.recorder)),
        )
        .unwrap_or_else(|e| panic!("stream session could not open its checkpoint store: {e}"));
        let records: Vec<ExamRecord> = StreamOrder::new(log, spec.seed, spec.disorder).collect();
        for chunk in records.chunks(spec.chunk.max(1)) {
            control.checkpoint(stage)?;
            engine
                .ingest(chunk)
                .unwrap_or_else(|e| panic!("stream checkpoint write failed: {e}"));
        }
        control.checkpoint(stage)?;
        engine
            .seal()
            .unwrap_or_else(|e| panic!("stream seal failed: {e}"));
        Ok(StreamReport::from_engine(&engine))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let policy = RetryPolicy::default();
        let a1 = policy.backoff(SessionId(1), 1);
        let a1_again = policy.backoff(SessionId(1), 1);
        assert_eq!(a1, a1_again);
        // Different sessions de-synchronize.
        assert_ne!(a1, policy.backoff(SessionId(2), 1));
        // Monotone-ish growth until the cap, never past cap + base jitter.
        let late = policy.backoff(SessionId(1), 12);
        assert!(late <= policy.cap + policy.base);
        assert!(policy.backoff(SessionId(1), 5) >= policy.base);
    }
}
