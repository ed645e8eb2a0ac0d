//! Service-side observers: histogram-based metrics aggregation and
//! observer fan-out.
//!
//! [`MetricsObserver`] keeps one [`Log2Histogram`] per pipeline stage
//! (plus one for queue wait), so the snapshot reports p50/p90/p99
//! latencies without allocation on the recording path — the old
//! total/count pairs survive as the `runs`/`total`/`mean` fields,
//! derived from the same histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ada_core::{PipelineObserver, PipelineStage};
use ada_kdb::GroupCommitSnapshot;
use ada_obs::hist::HistogramSnapshot;
use ada_obs::{Log2Histogram, Metrics, Num, Reading, Series, Summary};

/// Aggregates service-level counters and per-stage latency histograms.
///
/// Everything on the recording path is lock-free: counters are relaxed
/// atomics and stage latencies land in fixed-bucket log2 histograms.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    retried: AtomicU64,
    rejected: AtomicU64,
    persist_failures: AtomicU64,
    journal_faults: AtomicU64,
    degraded_transitions: AtomicU64,
    max_queue_depth: AtomicUsize,
    signals_tables_built: AtomicU64,
    signals_zero_cell_corrections: AtomicU64,
    signals_shrinkage_iterations: AtomicU64,
    signals_emitted: AtomicU64,
    traces_persisted: AtomicU64,
    traces_forced: AtomicU64,
    stages: [Log2Histogram; PipelineStage::ALL.len()],
    queue_wait: Log2Histogram,
    session_latency: Log2Histogram,
}

impl MetricsObserver {
    /// A fresh, zeroed metrics collector.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn job_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn job_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn job_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn job_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn job_retried(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn job_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn persist_failed(&self) {
        self.persist_failures.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn degraded_transition(&self) {
        self.degraded_transitions.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn trace_persisted(&self) {
        self.traces_persisted.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn trace_forced(&self) {
        self.traces_forced.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the K-DB's journal fault count (monotone: keeps the
    /// larger of the stored and observed values so concurrent observers
    /// cannot regress it).
    pub(crate) fn set_journal_faults(&self, observed: u64) {
        self.journal_faults.fetch_max(observed, Ordering::Relaxed);
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    ///
    /// A compare-exchange loop rather than a blind store: two threads
    /// observing depths 3 and 5 concurrently must never let 3 overwrite
    /// 5, regardless of interleaving.
    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        let mut seen = self.max_queue_depth.load(Ordering::Relaxed);
        while depth > seen {
            match self.max_queue_depth.compare_exchange_weak(
                seen,
                depth,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => seen = actual,
            }
        }
    }

    pub(crate) fn observe_queue_wait(&self, wait: Duration) {
        self.queue_wait.record_duration(wait);
    }

    /// Records one session's wall-clock execution latency (worker
    /// pickup → terminal state, retries included). Feeds the p50 the
    /// `Busy` retry hint is derived from.
    pub(crate) fn observe_session_latency(&self, latency: Duration) {
        self.session_latency.record_duration(latency);
    }

    /// Median session execution latency so far (zero before any session
    /// finished).
    pub(crate) fn session_latency_p50(&self) -> Duration {
        Duration::from_nanos(self.session_latency.quantile(0.5))
    }

    /// 99th-percentile session execution latency so far — the base of
    /// the slow-session threshold.
    pub(crate) fn session_latency_p99(&self) -> Duration {
        Duration::from_nanos(self.session_latency.quantile(0.99))
    }

    /// How many sessions have reported an execution latency (the
    /// slow-session log stays quiet until enough history exists).
    pub(crate) fn session_latency_count(&self) -> u64 {
        self.session_latency.snapshot().count
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> ServiceMetrics {
        let stages = PipelineStage::ALL
            .iter()
            .filter_map(|stage| {
                let snap = self.stages[stage.index()].snapshot();
                (snap.count > 0).then(|| (stage.name(), StageMetrics::from_snapshot(&snap)))
            })
            .collect();
        ServiceMetrics {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
            journal_faults: self.journal_faults.load(Ordering::Relaxed),
            degraded_transitions: self.degraded_transitions.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            signals_tables_built: self.signals_tables_built.load(Ordering::Relaxed),
            signals_zero_cell_corrections: self
                .signals_zero_cell_corrections
                .load(Ordering::Relaxed),
            signals_shrinkage_iterations: self.signals_shrinkage_iterations.load(Ordering::Relaxed),
            signals_emitted: self.signals_emitted.load(Ordering::Relaxed),
            traces_persisted: self.traces_persisted.load(Ordering::Relaxed),
            traces_forced: self.traces_forced.load(Ordering::Relaxed),
            events_dropped: 0,
            queue_wait: StageMetrics::from_snapshot(&self.queue_wait.snapshot()),
            session_latency: StageMetrics::from_snapshot(&self.session_latency.snapshot()),
            stages,
            kdb: GroupCommitSnapshot::default(),
        }
    }
}

impl PipelineObserver for MetricsObserver {
    fn on_stage_end(&self, _session: &str, stage: PipelineStage, elapsed: Duration) {
        self.stages[stage.index()].record_duration(elapsed);
    }

    fn on_counters(&self, _session: &str, _stage: PipelineStage, counters: &[(&'static str, u64)]) {
        for &(name, value) in counters {
            let target = match name {
                "signals_tables_built" => &self.signals_tables_built,
                "signals_zero_cell_corrections" => &self.signals_zero_cell_corrections,
                "signals_shrinkage_iterations" => &self.signals_shrinkage_iterations,
                "signals_emitted" => &self.signals_emitted,
                _ => continue,
            };
            target.fetch_add(value, Ordering::Relaxed);
        }
    }
}

/// Latency statistics for one pipeline stage (or the queue wait),
/// derived from its log2 histogram. `p50`/`p90`/`p99` carry the
/// histogram's ~2× bucket resolution; `total` and `mean` are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMetrics {
    /// How many times the stage ran to completion.
    pub runs: u64,
    /// Total wall-clock time across runs (exact).
    pub total: Duration,
    /// `total / runs` (zero when the stage never ran; exact).
    pub mean: Duration,
    /// Median latency (bucket midpoint).
    pub p50: Duration,
    /// 90th-percentile latency (bucket midpoint).
    pub p90: Duration,
    /// 99th-percentile latency (bucket midpoint).
    pub p99: Duration,
}

impl StageMetrics {
    fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        let mean = snap
            .sum
            .checked_div(snap.count)
            .map_or(Duration::ZERO, Duration::from_nanos);
        Self {
            runs: snap.count,
            total: Duration::from_nanos(snap.sum),
            mean,
            p50: Duration::from_nanos(snap.quantile(0.5)),
            p90: Duration::from_nanos(snap.quantile(0.9)),
            p99: Duration::from_nanos(snap.quantile(0.99)),
        }
    }

    /// The statistics as an exposition summary (nanoseconds).
    fn summary(self) -> Reading {
        let ns = |d: Duration| Some(Num::U(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)));
        Reading::Summary(Summary {
            quantiles: [ns(self.p50), ns(self.p90), ns(self.p99)],
            sum: u64::try_from(self.total.as_nanos()).ok(),
            count: self.runs,
        })
    }
}

/// A frozen snapshot of service metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Sessions that produced a report.
    pub completed: u64,
    /// Sessions that exhausted retries or hit their deadline.
    pub failed: u64,
    /// Sessions cancelled before or during execution.
    pub cancelled: u64,
    /// Individual retry attempts across all sessions.
    pub retried: u64,
    /// Submissions refused with `Busy` (queue full).
    pub rejected: u64,
    /// Terminal session records that failed to persist to the K-DB.
    pub persist_failures: u64,
    /// Journal faults (failed appends + swallowed fsync failures)
    /// observed on the shared K-DB since the service started.
    pub journal_faults: u64,
    /// Transitions into degraded read-only mode (0 or 1 per process).
    pub degraded_transitions: u64,
    /// High-water mark of the job queue depth.
    pub max_queue_depth: usize,
    /// Contingency tables built by safety-signal sessions.
    pub signals_tables_built: u64,
    /// Haldane–Anscombe zero-cell corrections applied by signal sessions.
    pub signals_zero_cell_corrections: u64,
    /// Shrinkage prior-fit iterations across signal sessions.
    pub signals_shrinkage_iterations: u64,
    /// Ranked safety signals emitted (post-truncation).
    pub signals_emitted: u64,
    /// Sampled session records persisted (records carrying a
    /// `trace_id` in the `sessions` collection).
    pub traces_persisted: u64,
    /// Traces forced retroactively by the slow-session log.
    pub traces_forced: u64,
    /// Span events the flight recorder lost: always 0, since every
    /// event folds into its session's record under the recorder's lock.
    /// Kept for the `ada_obs_dropped_spans_total` family.
    pub events_dropped: u64,
    /// Latency jobs spent queued before a worker picked them up.
    pub queue_wait: StageMetrics,
    /// Whole-session execution latency (worker pickup → terminal state,
    /// retries included). Its p50 feeds the `Busy` retry hint.
    pub session_latency: StageMetrics,
    /// Per-stage latency statistics, keyed by stage name.
    pub stages: BTreeMap<&'static str, StageMetrics>,
    /// The shared K-DB's group-commit counters (batch sizes, flush
    /// latency, journal watermarks). Filled in by
    /// `AnalysisService::metrics`; zero when the observer is snapshotted
    /// directly.
    pub kdb: GroupCommitSnapshot,
}

impl ServiceMetrics {
    /// Whether the service had entered degraded read-only mode when
    /// this snapshot was taken.
    pub fn degraded(&self) -> bool {
        self.degraded_transitions > 0
    }
}

/// A group-commit log2 histogram as a summary: approximate quantiles
/// (geometric bucket midpoints), exact sum and count.
fn kdb_summary(hist: &[u64], sum: u64, count: u64) -> Reading {
    let q = |q| Some(Num::F1(GroupCommitSnapshot::quantile(hist, q)));
    Reading::Summary(Summary {
        quantiles: [q(0.5), q(0.9), q(0.99)],
        sum: Some(sum),
        count,
    })
}

type Row = Series<ServiceMetrics>;

impl Metrics for ServiceMetrics {
    const SERIES: &'static [Row] = &[
        Row::counter("ada_jobs_total", |m| {
            Reading::Each(
                "outcome",
                vec![
                    ("submitted", m.submitted.into()),
                    ("completed", m.completed.into()),
                    ("failed", m.failed.into()),
                    ("cancelled", m.cancelled.into()),
                    ("retried", m.retried.into()),
                    ("rejected", m.rejected.into()),
                ],
            )
        })
        .key("jobs"),
        Row::counter("ada_persist_failures_total", |m| m.persist_failures.into())
            .key("reliability.persist_failures"),
        Row::counter("ada_journal_faults_total", |m| m.journal_faults.into())
            .key("reliability.journal_faults"),
        Row::counter("ada_signals_tables_built_total", |m| {
            m.signals_tables_built.into()
        })
        .key("signals.tables_built"),
        Row::counter("ada_signals_zero_cell_corrections_total", |m| {
            m.signals_zero_cell_corrections.into()
        })
        .key("signals.zero_cell_corrections"),
        Row::counter("ada_signals_shrinkage_iterations_total", |m| {
            m.signals_shrinkage_iterations.into()
        })
        .key("signals.shrinkage_iterations"),
        Row::counter("ada_signals_emitted_total", |m| m.signals_emitted.into())
            .key("signals.emitted"),
        Row::gauge("ada_service_degraded", |m| m.degraded().into()).key("reliability.degraded"),
        Row::field("reliability.degraded_transitions", |m| {
            m.degraded_transitions.into()
        }),
        Row::counter("ada_kdb_journal_acked_ops_total", |m| {
            m.kdb.acked_ops.into()
        })
        .key("kdb.acked_ops"),
        Row::counter("ada_kdb_journal_durable_ops_total", |m| {
            m.kdb.durable_ops.into()
        })
        .key("kdb.durable_ops"),
        Row::counter("ada_kdb_group_commits_total", |m| m.kdb.commits.into())
            .key("kdb.group_commits"),
        Row::counter("ada_kdb_group_commit_failures_total", |m| {
            m.kdb.failures.into()
        })
        .key("kdb.group_commit_failures"),
        Row::field("kdb.group_commit_mean_batch", |m| m.kdb.mean_batch().into()),
        Row::summary("ada_kdb_group_commit_batch_size", |m| {
            kdb_summary(&m.kdb.batch_hist, m.kdb.ops, m.kdb.commits)
        }),
        Row::summary("ada_kdb_group_commit_flush_ns", |m| {
            kdb_summary(&m.kdb.flush_hist, m.kdb.flush_ns, m.kdb.commits)
        }),
        Row::gauge("ada_queue_depth_max", |m| (m.max_queue_depth as u64).into())
            .key("max_queue_depth"),
        Row::summary("ada_queue_wait_ns", |m| m.queue_wait.summary()).key("queue_wait"),
        Row::summary("ada_session_latency_ns", |m| m.session_latency.summary())
            .key("session_latency"),
        Row::summary("ada_stage_latency_ns", |m| {
            Reading::Each(
                "stage",
                m.stages
                    .iter()
                    .map(|(name, s)| (*name, s.summary()))
                    .collect(),
            )
        })
        .key("stages"),
        Row::counter("ada_obs_dropped_spans_total", |m| m.events_dropped.into())
            .key("tracing.dropped_spans"),
        Row::counter("ada_obs_traces_persisted_total", |m| {
            m.traces_persisted.into()
        })
        .key("tracing.persisted"),
        Row::counter("ada_obs_traces_forced_total", |m| m.traces_forced.into())
            .key("tracing.forced"),
    ];
}

/// Forwards pipeline events to several observers in order.
pub struct FanoutObserver {
    targets: Vec<Arc<dyn PipelineObserver>>,
}

impl FanoutObserver {
    /// An observer broadcasting to `targets`.
    pub fn new(targets: Vec<Arc<dyn PipelineObserver>>) -> Self {
        Self { targets }
    }
}

impl PipelineObserver for FanoutObserver {
    fn on_stage_start(&self, session: &str, stage: PipelineStage) {
        for t in &self.targets {
            t.on_stage_start(session, stage);
        }
    }
    fn on_stage_end(&self, session: &str, stage: PipelineStage, elapsed: Duration) {
        for t in &self.targets {
            t.on_stage_end(session, stage, elapsed);
        }
    }
    fn on_span_start(&self, session: &str, stage: PipelineStage, name: &str) {
        for t in &self.targets {
            t.on_span_start(session, stage, name);
        }
    }
    fn on_span_end(&self, session: &str, stage: PipelineStage, name: &str, elapsed: Duration) {
        for t in &self.targets {
            t.on_span_end(session, stage, name, elapsed);
        }
    }
    fn on_counters(&self, session: &str, stage: PipelineStage, counters: &[(&'static str, u64)]) {
        for t in &self.targets {
            t.on_counters(session, stage, counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_stage_latency_aggregate() {
        let m = MetricsObserver::new();
        m.job_submitted();
        m.job_submitted();
        m.job_completed();
        m.job_retried();
        m.observe_queue_depth(3);
        m.observe_queue_depth(1);
        m.on_stage_end("s", PipelineStage::Transform, Duration::from_millis(10));
        m.on_stage_end("s", PipelineStage::Transform, Duration::from_millis(30));
        let snap = m.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.retried, 1);
        assert_eq!(snap.max_queue_depth, 3);
        let t = &snap.stages["transform"];
        assert_eq!(t.runs, 2);
        assert_eq!(t.total, Duration::from_millis(40));
        assert_eq!(t.mean, Duration::from_millis(20));
        // Percentiles carry the log2 bucket's resolution: within 2× of
        // the true value, and ordered.
        assert!(t.p50 >= Duration::from_millis(5) && t.p50 <= Duration::from_millis(20));
        assert!(t.p99 >= Duration::from_millis(15) && t.p99 <= Duration::from_millis(60));
        assert!(t.p50 <= t.p90 && t.p90 <= t.p99);
    }

    #[test]
    fn queue_depth_high_water_mark_is_monotone() {
        let m = Arc::new(MetricsObserver::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for depth in 0..1000usize {
                        m.observe_queue_depth(depth * 4 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The largest observed depth wins regardless of interleaving.
        assert_eq!(m.snapshot().max_queue_depth, 999 * 4 + 3);
    }

    #[test]
    fn signal_counters_aggregate_and_ignore_unknown_names() {
        let m = MetricsObserver::new();
        m.on_counters(
            "s",
            PipelineStage::SignalMining,
            &[
                ("signals_tables_built", 30),
                ("signals_zero_cell_corrections", 4),
                ("signals_shrinkage_iterations", 9),
                ("signals_emitted", 12),
                ("iterations", 999),
            ],
        );
        m.on_counters("t", PipelineStage::SignalMining, &[("signals_emitted", 3)]);
        let snap = m.snapshot();
        assert_eq!(snap.signals_tables_built, 30);
        assert_eq!(snap.signals_zero_cell_corrections, 4);
        assert_eq!(snap.signals_shrinkage_iterations, 9);
        assert_eq!(snap.signals_emitted, 15);
        let prom = snap.to_prometheus();
        assert!(prom.contains("ada_signals_tables_built_total 30"));
        assert!(prom.contains("ada_signals_emitted_total 15"));
    }

    #[test]
    fn queue_wait_feeds_its_own_histogram() {
        let m = MetricsObserver::new();
        m.observe_queue_wait(Duration::from_micros(100));
        m.observe_queue_wait(Duration::from_micros(300));
        let snap = m.snapshot();
        assert_eq!(snap.queue_wait.runs, 2);
        assert_eq!(snap.queue_wait.total, Duration::from_micros(400));
    }

    #[test]
    fn snapshot_renders_document_and_prometheus() {
        let m = MetricsObserver::new();
        m.job_submitted();
        m.job_completed();
        m.on_stage_end("s", PipelineStage::Optimize, Duration::from_millis(7));
        let snap = m.snapshot();

        let doc = snap.to_document();
        assert_eq!(
            doc.get_path("jobs.submitted").and_then(|v| v.as_i64()),
            Some(1)
        );
        assert_eq!(
            doc.get_path("stages.optimize.runs")
                .and_then(|v| v.as_i64()),
            Some(1)
        );
        assert!(doc.get_path("stages.optimize.p99_ns").is_some());

        let prom = snap.to_prometheus();
        assert!(prom.contains("ada_jobs_total{outcome=\"submitted\"} 1"));
        assert!(prom.contains("ada_stage_latency_ns{stage=\"optimize\",quantile=\"0.5\"}"));
        assert!(prom.contains("ada_stage_latency_ns_count{stage=\"optimize\"} 1"));
    }

    #[test]
    fn fanout_reaches_every_target_for_every_event_kind() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Log(Mutex<Vec<String>>);
        impl PipelineObserver for Log {
            fn on_stage_start(&self, _: &str, stage: PipelineStage) {
                self.0.lock().unwrap().push(format!("stage+{stage}"));
            }
            fn on_stage_end(&self, _: &str, stage: PipelineStage, _: Duration) {
                self.0.lock().unwrap().push(format!("stage-{stage}"));
            }
            fn on_span_start(&self, _: &str, _: PipelineStage, name: &str) {
                self.0.lock().unwrap().push(format!("span+{name}"));
            }
            fn on_span_end(&self, _: &str, _: PipelineStage, name: &str, _: Duration) {
                self.0.lock().unwrap().push(format!("span-{name}"));
            }
            fn on_counters(&self, _: &str, _: PipelineStage, counters: &[(&'static str, u64)]) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("ctr:{}", counters.len()));
            }
        }
        let a = Arc::new(Log::default());
        let b = Arc::new(Log::default());
        let fan = FanoutObserver::new(vec![a.clone(), b.clone()]);
        fan.on_stage_start("s", PipelineStage::Optimize);
        fan.on_span_start("s", PipelineStage::Optimize, "sweep:k=4");
        fan.on_counters("s", PipelineStage::Optimize, &[("iterations", 1)]);
        fan.on_span_end("s", PipelineStage::Optimize, "sweep:k=4", Duration::ZERO);
        fan.on_stage_end("s", PipelineStage::Optimize, Duration::ZERO);
        let expect = vec![
            "stage+optimize",
            "span+sweep:k=4",
            "ctr:1",
            "span-sweep:k=4",
            "stage-optimize",
        ];
        assert_eq!(*a.0.lock().unwrap(), expect);
        assert_eq!(*b.0.lock().unwrap(), expect);
    }
}
