//! From what a phase observed to the numbers the ledger reports: the
//! end-to-end metrics a user of the fleet would see, and the per-layer
//! metrics read from the snapshots the program already exposes (`S`),
//! from the persisted rate-1 traces (`T`), and from the client's own
//! timings (`C`).
//!
//! Every per-layer number is the window's own: a timing is taken over
//! the window's operations of that kind and is 0 on a workload whose
//! window has none (no session on `ingest_feed`, no stream on
//! `paper_submit`); a count is the difference of the program's counter
//! between the two ends of the window.

use std::collections::BTreeMap;

use ada_core::PipelineStage;
use ada_kdb::{Document, Value};

use crate::plan::ReadKind;
use crate::spans::{self_times, Span, SpanRecorder};
use crate::stats::{median, tail};
use crate::wire::{SessionSample, StreamSample};
use crate::workloads::{Counters, Observed, Workload};

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// One human-readable line: an ISSUE-named end-to-end metric.
pub struct Named {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Median, or 0 when there is no sample.
fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The p99 [`tail`] with 0 standing in for "no sample".
fn p99(values: &[f64]) -> f64 {
    tail(values, 0.99).map_or(0.0, |(_, value)| value)
}

fn session_ms<'a>(samples: impl IntoIterator<Item = &'a SessionSample>) -> Vec<f64> {
    samples.into_iter().map(|s| s.total_ms).collect()
}

/// Every `Status` round trip of `samples`, in milliseconds.
fn poll_ms<'a>(samples: impl IntoIterator<Item = &'a SessionSample>) -> Vec<f64> {
    samples
        .into_iter()
        .flat_map(|s| s.poll_us.iter().map(|us| f64::from(*us) / 1e3))
        .collect()
}

fn reads_ms(obs: &Observed, only: Option<ReadKind>) -> Vec<f64> {
    obs.window
        .reads
        .iter()
        .filter(|(kind, _)| only.is_none_or(|k| k == *kind))
        .map(|(_, ms)| *ms)
        .collect()
}

/// The streams that were fed whole (the one the window's end cut short
/// has its batches in the pooled ack latencies and nothing else).
fn whole(streams: &[StreamSample]) -> impl Iterator<Item = &StreamSample> {
    streams.iter().filter(|s| s.complete)
}

fn stream_rates(streams: &[StreamSample]) -> Vec<f64> {
    whole(streams).map(|s| s.acked as f64 / s.feed_s).collect()
}

/// Every batch's ack latency over `streams`, pooled.
fn pooled_acks<'a>(streams: impl IntoIterator<Item = &'a StreamSample>) -> Vec<f64> {
    streams
        .into_iter()
        .flat_map(|s| s.ack_ms.iter().copied())
        .collect()
}

fn seals_ms(streams: &[StreamSample]) -> Vec<f64> {
    whole(streams).map(|s| s.seal_ms).collect()
}

/// The four role metrics of `obs`'s workload (the README's role table):
/// what `throughput_per_s`, `latency_p50_ms`, `latency_tail_ms` and
/// `secondary_p50_ms` are here, each under the name a user of the
/// workload would give it.
fn roles(obs: &Observed) -> [(&'static str, Named); 4] {
    let sessions = session_ms(&obs.window.sessions);
    let streams = &obs.window.streams;
    // (throughput, samples behind it), median latency, (tail latency,
    // its percentile), secondary latency.
    let (rate, p50, tail_of, secondary) = match obs.workload {
        Workload::PaperSubmit | Workload::SmallMix => (
            ("sessions_per_s", obs.window.session_rate, sessions.len()),
            ("session_p50_ms", sessions.clone()),
            // Under 1,000 sessions a window: a p99 would be the tenth
            // slowest session or worse, and reads 7-22 % apart on
            // identical code where the p95 reads 3-5 % apart.
            ("session", sessions, 0.95),
            // How responsive the node stays under the load: thousands of
            // samples where a Submit ack has six on `paper_submit`.
            ("status_p50_ms", poll_ms(&obs.window.sessions)),
        ),
        Workload::IngestFeed => (
            (
                "records_per_s",
                med(&stream_rates(streams)),
                whole(streams).count(),
            ),
            ("ingest_ack_p50_ms", pooled_acks(streams)),
            ("ingest_ack", pooled_acks(streams), 0.99),
            ("seal_ms", seals_ms(streams)),
        ),
        Workload::ReadUnderWrite => (
            (
                "reads_per_s",
                obs.window.reads.len() as f64 / obs.wall_s,
                obs.window.reads.len(),
            ),
            // The write beside the reads: a read-path gain that taxes
            // the writer shows here. (The median read is a 0.1 ms
            // loopback round trip: `client.read_p50_ms`.)
            ("session_p50_ms", sessions),
            ("read", reads_ms(obs, None), 0.99),
            (
                "bulk_read_p50_ms",
                reads_ms(obs, Some(ReadKind::PastSessions)),
            ),
        ),
    };
    let (label, tail_ms) = tail(&tail_of.1, tail_of.2).unwrap_or_else(|| ("none".into(), 0.0));
    let line = |name: &str, value, unit, samples| Named {
        name: name.to_owned(),
        value,
        unit,
        samples,
    };
    [
        ("throughput_per_s", line(rate.0, rate.1, "1/s", rate.2)),
        (
            "latency_p50_ms",
            line(p50.0, med(&p50.1), "ms", p50.1.len()),
        ),
        (
            "latency_tail_ms",
            line(
                &format!("{}_{label}_ms", tail_of.0),
                tail_ms,
                "ms",
                tail_of.1.len(),
            ),
        ),
        (
            "secondary_p50_ms",
            line(secondary.0, med(&secondary.1), "ms", secondary.1.len()),
        ),
    ]
}

/// The end-to-end metrics of `BENCHMARK.json`.
pub fn end_to_end(obs: &Observed) -> Metrics {
    let mut metrics = Metrics::from([
        ("setup_s".into(), (obs.setup_s, "s")),
        ("peak_rss_mb".into(), (obs.peak_rss_mb, "MB")),
    ]);
    for (metric, line) in roles(obs) {
        metrics.insert(metric.to_owned(), (line.value, line.unit));
    }
    metrics
}

/// The same observations under the names a user of each workload would
/// use, with sample counts; the tail's name says which order statistic
/// it is on this run (e.g. `session_p95_ms`).
pub fn named(obs: &Observed) -> Vec<Named> {
    roles(obs).into_iter().map(|(_, line)| line).collect()
}

/// One server-side span of a persisted trace, in nanoseconds on the
/// trace's own clock shifted so that no span starts before zero.
struct ServerSpan {
    name: String,
    parent: i64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans the recorder stamps at report time with a measured duration:
/// their interval *ends* at `start_ns` (so the first of them begins
/// before the trace's root was opened).
const ANNOTATIONS: [&str; 4] = [
    "client_submit",
    "server_decode",
    "queue_wait",
    "fsync_round",
];

fn server_spans(trace: &Document) -> Vec<ServerSpan> {
    let field = |span: &Document, key: &str| span.get(key).and_then(Value::as_i64).unwrap_or(0);
    let raw: Vec<(String, i64, i64, i64)> = trace
        .get("spans")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_doc)
        .map(|span| {
            let name = span.get("name").and_then(Value::as_str).unwrap_or("");
            let (stamp, dur) = (field(span, "start_ns"), field(span, "dur_ns").max(0));
            let start = if ANNOTATIONS.contains(&name) {
                stamp - dur
            } else {
                stamp
            };
            (name.to_owned(), field(span, "parent"), start, start + dur)
        })
        .collect();
    let shift = raw.iter().map(|r| -r.2).max().unwrap_or(0).max(0);
    raw.into_iter()
        .map(|(name, parent, start, end)| ServerSpan {
            name,
            parent,
            start_ns: (start + shift) as u64,
            end_ns: (end + shift) as u64,
        })
        .collect()
}

fn is_stage(name: &str) -> bool {
    PipelineStage::ALL.iter().any(|s| s.name() == name)
}

/// The layer a span's self time is charged to.
fn layer_of(name: &str) -> &'static str {
    match name {
        "session" => "unattributed",
        "server_decode" => "net",
        "queue_wait" => "service",
        "fsync_round" => "kdb",
        n if n.starts_with("net.") => "net",
        _ => "core",
    }
}

/// What the persisted traces say about one set of sessions.
#[derive(Default)]
pub struct TraceView {
    /// Per stage name: one duration (ms) per session that ran it.
    pub stage_ms: BTreeMap<String, Vec<f64>>,
    pub queue_wait_ms: Vec<f64>,
    /// First stage start → last stage end, per session.
    pub exec_ms: Vec<f64>,
    /// Per session: client session time no span accounts for.
    pub unattributed_ms: Vec<f64>,
    /// Self time per layer, summed over the sessions (ms).
    pub layer_self_ms: BTreeMap<&'static str, f64>,
    /// Client session time summed over the same sessions (ms).
    pub session_total_ms: f64,
}

/// Joins each sampled session with its persisted trace: the server's
/// spans hang under the client's session span (aligned at the moment
/// `Submit` was sent, each `fsync_round` re-parented into the stage it
/// happened in), self times are charged to layers, and the tree is
/// appended to `recorder`.
pub fn trace_view(
    samples: &[SessionSample],
    traces: &[Document],
    recorder: &mut SpanRecorder,
) -> TraceView {
    let by_session: BTreeMap<&str, &Document> = traces
        .iter()
        .filter_map(|t| Some((t.get("session")?.as_str()?, t)))
        .collect();
    let mut view = TraceView::default();
    for sample in samples {
        let Some(trace) = by_session.get(sample.name.as_str()) else {
            continue;
        };
        let [sent, acked, terminal, done] = sample.at.map(|at| recorder.ns(at));
        let client = |name, parent, start, end| Span::new(name, &sample.name, parent, start, end);
        let mut tree = vec![
            client("session", None, sent, done),
            client("net.submit", Some(0), sent, acked),
            client("net.results", Some(0), terminal, done),
        ];
        let server = server_spans(trace);
        let stages: Vec<usize> = (0..server.len())
            .filter(|&i| is_stage(&server[i].name))
            .collect();
        // Tree index of every server span (parents precede children in
        // the persisted pre-order array); the server's own root is
        // stood in for by the client's session span.
        let mut index = vec![0usize; server.len()];
        // Spans that run one at a time on the session's own thread.
        // Sub-spans of a stage (the K sweep's workers) overlap each
        // other, so their stage accounts for their wall time.
        let mut serial: Vec<usize> = vec![0, 1, 2];
        // Two passes: a round's stage may come after it in the array.
        let rounds_last = (0..server.len())
            .filter(|&i| server[i].name != "fsync_round")
            .chain((0..server.len()).filter(|&i| server[i].name == "fsync_round"));
        for i in rounds_last {
            let span = &server[i];
            if span.parent < 0 {
                continue;
            }
            let mid = (span.start_ns + span.end_ns) / 2;
            let parent = if span.name == "fsync_round" {
                stages
                    .iter()
                    .find(|&&s| server[s].start_ns <= mid && mid < server[s].end_ns)
                    .map_or(0, |&s| index[s])
            } else {
                index[span.parent as usize]
            };
            index[i] = tree.len();
            if parent == 0 || span.name == "fsync_round" {
                serial.push(tree.len());
            }
            tree.push(client(
                &span.name,
                Some(parent),
                sent + span.start_ns,
                sent + span.end_ns,
            ));
            let ms = (span.end_ns - span.start_ns) as f64 / 1e6;
            if is_stage(&span.name) {
                view.stage_ms.entry(span.name.clone()).or_default().push(ms);
            } else if span.name == "queue_wait" {
                view.queue_wait_ms.push(ms);
            }
        }
        if let (Some(first), Some(last)) = (
            stages.iter().map(|&s| server[s].start_ns).min(),
            stages.iter().map(|&s| server[s].end_ns).max(),
        ) {
            view.exec_ms.push((last - first) as f64 / 1e6);
        }
        let wall: Vec<Span> = serial
            .iter()
            .map(|&i| Span {
                parent: tree[i]
                    .parent
                    .and_then(|p| serial.iter().position(|&kept| kept == p)),
                ..tree[i].clone()
            })
            .collect();
        for (span, own) in wall.iter().zip(self_times(&wall)) {
            let ms = own as f64 / 1e6;
            *view.layer_self_ms.entry(layer_of(&span.name)).or_default() += ms;
            if span.name == "session" {
                view.unattributed_ms.push(ms);
            }
        }
        view.session_total_ms += sample.total_ms;
        recorder.extend(tree);
    }
    view
}

/// Sum of an integer field over the sealed status documents.
fn sealed_sum(streams: &[StreamSample], key: &str) -> f64 {
    streams
        .iter()
        .filter_map(|s| s.sealed.get(key).and_then(Value::as_i64))
        .sum::<i64>() as f64
}

/// `total / n`, or 0 when the window completed nothing to divide by.
fn per(total: f64, n: usize) -> f64 {
    match n {
        0 => 0.0,
        n => total / n as f64,
    }
}

/// The per-layer metrics a phase's snapshots, traces and client timings
/// give (the probes add theirs). `view` covers the window's sessions.
pub fn per_layer(obs: &Observed, view: &TraceView) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_owned(), (value, unit));
    };
    let (before, after) = (&obs.before, &obs.after);
    let grew = |pick: &dyn Fn(&Counters) -> u64| pick(after).saturating_sub(pick(before)) as f64;
    let sessions = &obs.window.sessions;
    let streams = &obs.window.streams;

    // client: the median read of `read_under_write`, a loopback round
    // trip too short to gate (its `latency_p50_ms` is the writer's).
    put("client.read_p50_ms", med(&reads_ms(obs, None)), "ms");
    let client_p50 = med(&session_ms(sessions));

    // net
    let acks: Vec<f64> = sessions.iter().map(|s| s.submit_ack_ms).collect();
    put("net.submit_ack_p50_ms", med(&acks), "ms");
    // The server's own request histogram has log2 buckets; the client's
    // clock on every Status round trip is exact.
    let polls = poll_ms(sessions);
    put("net.request_p50_us", med(&polls) * 1e3, "us");
    put("net.request_tail_us", p99(&polls) * 1e3, "us");
    let requests = grew(&|c| c.net.requests).max(1.0);
    put(
        "net.bytes_in_per_op",
        grew(&|c| c.net.bytes_in) / requests,
        "bytes",
    );
    put(
        "net.bytes_out_per_op",
        grew(&|c| c.net.bytes_out) / requests,
        "bytes",
    );
    put(
        "net.status_polls_per_session",
        per(polls.len() as f64, sessions.len()),
        "count",
    );
    put("net.protocol_errors", obs.protocol_errors as f64, "count");

    // service
    put("service.queue_wait_p50_ms", med(&view.queue_wait_ms), "ms");
    put("service.queue_wait_tail_ms", p99(&view.queue_wait_ms), "ms");
    put(
        "service.max_queue_depth",
        obs.max_queue_depth as f64,
        "count",
    );
    let stage_s = |c: &Counters, stage: &PipelineStage| {
        c.service
            .stages
            .get(stage.name())
            .map_or(0.0, |s| s.total.as_secs_f64())
    };
    let stages: Vec<&PipelineStage> = PipelineStage::PIPELINE
        .iter()
        .chain(&[PipelineStage::SignalMining])
        .collect();
    let stage_total: f64 = stages
        .iter()
        .map(|stage| stage_s(after, stage) - stage_s(before, stage))
        .sum();
    for stage in stages {
        let own = stage_s(after, stage) - stage_s(before, stage);
        put(
            &format!("service.stage_share.{}", stage.name().replace('-', "_")),
            if stage_total > 0.0 {
                own / stage_total
            } else {
                0.0
            },
            "ratio",
        );
    }
    put("service.session_latency_p50_ms", med(&view.exec_ms), "ms");
    put(
        "service.client_gap_ms",
        client_p50 - med(&view.exec_ms),
        "ms",
    );
    put("service.rejected", grew(&|c| c.service.rejected), "count");
    put("service.retried", grew(&|c| c.service.retried), "count");
    put("service.metrics_snapshot_ms", obs.metrics_snapshot_ms, "ms");

    // core
    for (stage, label) in [
        (PipelineStage::Characterize, "characterize"),
        (PipelineStage::Transform, "transform"),
        (PipelineStage::PartialMining, "partial"),
        (PipelineStage::Optimize, "optimize"),
        (PipelineStage::KnowledgeExtraction, "extract"),
        (PipelineStage::GoalIdentification, "goals"),
        (PipelineStage::Navigation, "rank"),
    ] {
        let ms = view.stage_ms.get(stage.name()).map_or(0.0, |v| med(v));
        put(&format!("core.{label}_ms"), ms, "ms");
    }
    put("core.unattributed_ms", med(&view.unattributed_ms), "ms");

    // signals
    put(
        "signals.tables_built",
        grew(&|c| c.service.signals_tables_built),
        "count",
    );

    // kdb: the group committer's counters over the window
    let rounds = grew(&|c| c.kdb.commits);
    put(
        "kdb.ops_per_session",
        per(grew(&|c| c.kdb.acked_ops), sessions.len()),
        "count",
    );
    put(
        "kdb.fsyncs_per_session",
        per(rounds, sessions.len()),
        "count",
    );
    put(
        "kdb.mean_commit_batch",
        grew(&|c| c.kdb.ops) / rounds.max(1.0),
        "ratio",
    );
    // What the device took, without the constant the slower disk adds
    // (the committer's own histogram has log2 buckets and sees both).
    put("kdb.fsync_p50_us", med(&obs.device_fsync_us), "us");
    put("kdb.fsync_tail_us", p99(&obs.device_fsync_us), "us");
    put(
        "kdb.fsync_busy_share",
        obs.device_fsync_us.iter().sum::<f64>() / 1e6 / obs.wall_s,
        "ratio",
    );
    put(
        "kdb.journal_bytes_per_session",
        per(grew(&|c| c.journal_bytes), sessions.len()),
        "bytes",
    );
    put("kdb.reopen_replay_ms", obs.reopen_replay_ms, "ms");

    // fleet
    put(
        "fleet.frames_shipped",
        grew(&|c| c.repl.frames_shipped),
        "count",
    );
    put(
        "fleet.bytes_shipped",
        grew(&|c| c.repl.bytes_shipped),
        "bytes",
    );
    put("fleet.ack_lag_ops_max", obs.ack_lag_ops_max as f64, "count");
    put("fleet.catchup_ms", obs.catchup_ms, "ms");
    put("fleet.rejects", obs.repl_rejects as f64, "count");

    // stream: the streams the window fed and sealed
    let attempts: u64 = streams.iter().map(|s| s.attempts).sum();
    let busy: u64 = streams.iter().map(|s| s.busy).sum();
    put(
        "stream.busy_ratio",
        busy as f64 / attempts.max(1) as f64,
        "ratio",
    );
    put(
        "stream.windows_closed",
        sealed_sum(streams, "windows_closed"),
        "count",
    );
    put("stream.refits", sealed_sum(streams, "refits"), "count");
    put(
        "stream.reordered",
        sealed_sum(streams, "reordered"),
        "count",
    );
    put(
        "stream.dropped_late",
        sealed_sum(streams, "dropped"),
        "count",
    );
    // Beside the feed on `ingest_feed`; of the sealed preloaded stream
    // in `read_under_write`'s mix.
    let mut queries = obs.window.queries_ms.clone();
    queries.extend(reads_ms(obs, Some(ReadKind::StreamQuery)));
    put("stream.query_p50_ms", med(&queries), "ms");

    // obs
    put(
        "obs.spans_dropped",
        grew(&|c| c.service.events_dropped),
        "count",
    );
    put(
        "obs.traces_persisted",
        grew(&|c| c.service.traces_persisted),
        "count",
    );
    m
}

/// The figure the tracing overhead is taken on (higher is worse): the
/// workload's `latency_p50_ms`.
pub fn overhead_basis(obs: &Observed) -> f64 {
    let [(_, rate), (_, p50), ..] = roles(obs);
    match obs.workload {
        // An ack is 0.2 ms of loopback; what tracing could slow on the
        // feed is its rate.
        Workload::IngestFeed => 1.0 / rate.value.max(f64::MIN_POSITIVE),
        _ => p50.value,
    }
}
