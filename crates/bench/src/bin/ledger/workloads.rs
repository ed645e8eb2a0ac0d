//! The four workloads. Each runs one measured phase against a fresh
//! fleet: set-up (inputs, nodes, preload), the timed window, catch-up,
//! the read-back of what the program exposes, and the oracle.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ada_core::{AdaHealth, SessionReport};
use ada_dataset::ExamRecord;
use ada_kdb::{Document, GroupCommitSnapshot, Kdb, Value};
use ada_net::{AsyncClient, Client, Request, Response, WireJobSpec};
use ada_obs::{ReplMetricsSnapshot, StreamMetrics};
use ada_service::{ServiceMetrics, DEFAULT_TRACE_SEED};
use ada_stream::{StreamEngine, StreamMiningSpec};

use crate::plan::{self, ReadKind, ReadMix, PAPER};
use crate::stats::median;
use crate::topology::{Fleet, NetCounters};
use crate::wire::{feed_stream, run_session, timed_call, SessionSample, StreamSample, Tally};

/// Sessions in flight per `small_mix` connection.
const SLOTS: u64 = 4;

/// Client connections a workload may open (= `nproc` of the sizing box).
const CONNECTIONS: u64 = 2;

/// Completed small sessions `read_under_write` preloads: a store worth
/// reading. No other workload preloads anything.
const PRELOAD_SESSIONS: u64 = 400;

/// Sessions per second the `read_under_write` writer is paced at.
const WRITER_RATE: f64 = 10.0;

/// Gap between two `StreamQuery` reads beside the `ingest_feed` write.
const QUERY_EVERY: Duration = Duration::from_millis(100);

/// Gap between two replication-lag samples.
const LAG_EVERY: Duration = Duration::from_millis(100);

/// Fleets a set-up readies, and stops, before the one it keeps.
const REHEARSALS: u64 = 9;

/// Gap between two samples of the service's queue depth.
const DEPTH_EVERY: Duration = Duration::from_millis(2);

/// Seconds an `ingest_feed` stream is assumed to take when the set-up
/// sizes how many distinct cohorts to generate. The window itself is
/// bounded by time, not by this: a faster program is fed the same
/// cohorts again under new stream names.
const STREAM_SECONDS: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSubmit,
    SmallMix,
    IngestFeed,
    ReadUnderWrite,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_submit" => Some(Workload::PaperSubmit),
            "small_mix" => Some(Workload::SmallMix),
            "ingest_feed" => Some(Workload::IngestFeed),
            "read_under_write" => Some(Workload::ReadUnderWrite),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSubmit => "paper_submit",
            Workload::SmallMix => "small_mix",
            Workload::IngestFeed => "ingest_feed",
            Workload::ReadUnderWrite => "read_under_write",
        }
    }
}

/// One measured phase's settings.
pub struct Phase {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Run the node at its existing `sample_rate = 1.0` and read the
    /// persisted traces back with `TraceQuery`.
    pub traced: bool,
    /// Scratch directory for this phase's journals.
    pub dir: PathBuf,
}

/// What the timed window produced.
#[derive(Default)]
pub struct Window {
    /// Sessions driven in the window (`read_under_write`: the writer's).
    pub sessions: Vec<SessionSample>,
    /// Streams fed and sealed in the window.
    pub streams: Vec<StreamSample>,
    /// `StreamQuery` latencies beside the feed.
    pub queries_ms: Vec<f64>,
    /// The reader's reads, in order.
    pub reads: Vec<(ReadKind, f64)>,
    pub tally: Tally,
    /// Sessions per second, summed over the lanes that drove sessions
    /// (each lane's count over its own start-to-last-completion time, so
    /// a lane finishing early does not stretch the others' clock).
    pub session_rate: f64,
    /// When the last driver lane finished.
    pub end: Option<Instant>,
}

impl Window {
    /// Closes a session-driving lane that started at `started`.
    fn close_lane(mut self, started: Instant) -> Self {
        let now = Instant::now();
        self.session_rate = self.sessions.len() as f64 / (now - started).as_secs_f64();
        self.end = Some(now);
        self
    }

    fn merge(&mut self, other: Window) {
        self.sessions.extend(other.sessions);
        self.streams.extend(other.streams);
        self.queries_ms.extend(other.queries_ms);
        self.reads.extend(other.reads);
        self.tally.merge(other.tally);
        self.session_rate += other.session_rate;
        self.end = self.end.max(other.end);
    }
}

/// The counters the program exposes, read at the two ends of a window
/// so that every count the ledger reports is the window's own.
pub struct Counters {
    pub kdb: GroupCommitSnapshot,
    pub journal_bytes: u64,
    pub service: ServiceMetrics,
    pub net: NetCounters,
    /// The primary's replication source.
    pub repl: ReplMetricsSnapshot,
}

impl Counters {
    fn read(fleet: &Fleet) -> Self {
        let service = fleet.primary.service();
        Self {
            kdb: service.kdb().group_commit_stats(),
            journal_bytes: journal_len(&fleet.primary_journal()),
            service: service.metrics(),
            net: fleet.net_counters(),
            repl: fleet.primary.repl_metrics().snapshot(),
        }
    }
}

/// Everything one phase observed, end-to-end and per layer.
pub struct Observed {
    pub workload: Workload,
    pub setup_s: f64,
    /// Window start → last lane done.
    pub wall_s: f64,
    pub window: Window,
    /// Counters at window start and after catch-up.
    pub before: Counters,
    pub after: Counters,
    /// What the device took for every primary fsync of the window, in
    /// microseconds.
    pub device_fsync_us: Vec<f64>,
    /// `VmHWM` of the process when the follower had caught up.
    pub peak_rss_mb: f64,
    /// Deepest the service's queue was seen in the window (sampled
    /// every [`DEPTH_EVERY`]; the program's own high-water mark also
    /// covers the set-up's preload).
    pub max_queue_depth: usize,
    pub ack_lag_ops_max: u64,
    pub catchup_ms: f64,
    /// `TraceQuery` over the wire after the window (traced phases).
    pub traces: Vec<Document>,
    pub metrics_snapshot_ms: f64,
    pub protocol_errors: u64,
    pub repl_rejects: u64,
    /// Timed `Kdb::open` replay of the primary's journal after shutdown.
    pub reopen_replay_ms: f64,
    /// Oracle verdicts; empty means every check passed.
    pub oracle_failures: Vec<String>,
}

impl Observed {
    /// No operation failed and every oracle check passed.
    pub fn passed(&self) -> bool {
        self.oracle_failures.is_empty() && self.window.tally.failed == 0
    }
}

/// `VmHWM` of this process in megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Where and how the drivers connect: Busy answers come back raw (the
/// ledger retries them itself, so the retries are counted), and traced
/// phases mint a trace context for every submission on the client, as a
/// production client would.
#[derive(Clone, Copy)]
struct Target {
    addr: SocketAddr,
    traced: bool,
}

impl Target {
    fn sampling(self) -> f64 {
        if self.traced {
            1.0
        } else {
            0.0
        }
    }

    fn connect(self) -> Result<Client, String> {
        Client::connect(self.addr)
            .map(|c| {
                c.without_busy_retry()
                    .with_sampling(self.sampling(), DEFAULT_TRACE_SEED)
            })
            .map_err(|e| format!("cannot connect to the primary: {e}"))
    }

    fn connect_async(self) -> Result<AsyncClient, String> {
        AsyncClient::connect(self.addr)
            .map(|c| {
                c.without_busy_retry()
                    .with_sampling(self.sampling(), DEFAULT_TRACE_SEED)
            })
            .map_err(|e| format!("cannot connect to the primary: {e}"))
    }
}

/// Drives small sessions over both connections, [`SLOTS`] in flight on
/// each: `next(lane, i)` yields a lane's `i`-th spec, or `None` to stop.
fn drive_small(
    to: Target,
    next: &(dyn Fn(u64, u64) -> Option<WireJobSpec> + Sync),
) -> Result<Window, String> {
    let clients = (0..CONNECTIONS)
        .map(|_| to.connect_async())
        .collect::<Result<Vec<_>, _>>()?;
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..CONNECTIONS * SLOTS)
            .map(|lane| {
                let mut caller = &clients[(lane / SLOTS) as usize];
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut out = Window::default();
                    let mut i = 0;
                    while let Some(spec) = next(lane, i) {
                        if let Some(sample) = out.tally.count(run_session(&mut caller, spec)) {
                            out.sessions.push(sample);
                        }
                        i += 1;
                    }
                    out.close_lane(started)
                })
            })
            .collect();
        for lane in lanes {
            window.merge(lane.join().expect("small-session lane panicked"));
        }
    });
    Ok(window)
}

/// One stream to feed: its name, its mining knobs, its delivery
/// sequence, and when to stop sending and seal what was sent.
struct StreamPlan<'a> {
    name: String,
    spec: StreamMiningSpec,
    feed: &'a [ExamRecord],
    deadline: Option<Instant>,
}

/// `read_under_write`'s preload: [`PRELOAD_SESSIONS`] completed quick
/// sessions and one sealed paper-scale stream.
fn preload(to: Target, seed: u64) -> Result<(Vec<SessionSample>, StreamSample, Tally), String> {
    let issued = AtomicUsize::new(0);
    let sessions = drive_small(to, &|lane, i| {
        (issued.fetch_add(1, Ordering::Relaxed) < PRELOAD_SESSIONS as usize)
            .then(|| plan::quick_spec(seed, "preload", lane, i))
    })?;
    let log = PAPER.generate(plan::derive(seed, "preload-cohort", 0, 0));
    let feed = plan::stream_feed(&log, seed, u64::MAX);
    let mut fed = feed_beside_queries(to, &mut |index| {
        (index == 0).then(|| StreamPlan {
            name: "preload".into(),
            spec: plan::stream_spec(seed, u64::MAX),
            feed: &feed,
            deadline: None,
        })
    })?;
    let mut tally = sessions.tally;
    tally.merge(fed.tally);
    let stream = fed.streams.pop().ok_or_else(|| {
        let why = tally.first_failure.take();
        why.unwrap_or_else(|| "preload stream was not fed".into())
    })?;
    Ok((sessions.sessions, stream, tally))
}

/// One connection feeds the streams `next(0)`, `next(1)`, … back to
/// back until `next` returns `None`; a second connection issues
/// `StreamQuery` on the stream being fed every [`QUERY_EVERY`].
fn feed_beside_queries<'a>(
    to: Target,
    next: &mut (dyn FnMut(usize) -> Option<StreamPlan<'a>> + Send),
) -> Result<Window, String> {
    let mut feeder = to.connect()?;
    let mut reader = to.connect()?;
    // The stream being fed; `None` before the first and between two.
    let current: Mutex<Option<String>> = Mutex::new(None);
    let feeding_over = AtomicBool::new(false);
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let feeding = scope.spawn(|| {
            let mut out = Window::default();
            let mut index = 0;
            while let Some(plan) = next(index) {
                *current.lock().expect("current-stream lock") = Some(plan.name.clone());
                let fed = feed_stream(
                    &mut feeder,
                    &plan.name,
                    &plan.spec,
                    plan.feed,
                    plan.deadline,
                    &mut out.tally,
                );
                *current.lock().expect("current-stream lock") = None;
                match fed {
                    Ok(sample) => out.streams.push(sample),
                    Err(_) => break,
                }
                index += 1;
            }
            feeding_over.store(true, Ordering::Release);
            out.end = Some(Instant::now());
            out
        });
        let querying = scope.spawn(|| {
            let mut out = Window::default();
            while !feeding_over.load(Ordering::Acquire) {
                let asked = Instant::now();
                let stream = current.lock().expect("current-stream lock").clone();
                if let Some(stream) = stream {
                    // A query racing the stream's open is answered
                    // `unknown_stream`; that is not a read of the stream.
                    match timed_call(&mut reader, &Request::StreamQuery { stream }) {
                        Ok((Response::StreamState { .. }, ms)) => {
                            out.tally.count(Ok(()));
                            out.queries_ms.push(ms);
                        }
                        Ok((other, _)) => {
                            out.tally.count::<()>(Err(format!(
                                "stream_query answered {}",
                                other.kind()
                            )));
                        }
                        Err(why) if why.contains("unknown_stream") => {}
                        Err(why) => {
                            out.tally.count::<()>(Err(why));
                        }
                    }
                }
                std::thread::sleep(QUERY_EVERY.saturating_sub(asked.elapsed()));
            }
            out
        });
        window.merge(feeding.join().expect("feeder lane panicked"));
        window.merge(querying.join().expect("query lane panicked"));
    });
    Ok(window)
}

/// `paper_submit`: both connections submit paper-preset sessions over
/// the paper-scale cohort, one at a time, until the window closes.
fn paper_window(to: Target, phase: &Phase) -> Result<Window, String> {
    let started = Instant::now();
    let mut clients = (0..CONNECTIONS)
        .map(|_| to.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let lanes: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let mut out = Window::default();
                    let mut i = 0;
                    while started.elapsed().as_secs_f64() < phase.seconds {
                        let spec = plan::paper_spec(phase.seed, conn as u64, i);
                        if let Some(s) = out.tally.count(run_session(client, spec)) {
                            out.sessions.push(s);
                        }
                        i += 1;
                    }
                    out.close_lane(started)
                })
            })
            .collect();
        for lane in lanes {
            window.merge(lane.join().expect("paper lane panicked"));
        }
    });
    Ok(window)
}

/// `read_under_write`: connection R reads the seeded mix in a closed
/// loop; connection W submits quick sessions paced at [`WRITER_RATE`].
fn read_write_window(
    to: Target,
    phase: &Phase,
    preloaded: &[u64],
    stream: &str,
) -> Result<Window, String> {
    let started = Instant::now();
    let mut reader = to.connect()?;
    let mut writer = to.connect()?;
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut out = Window::default();
            let mut mix = ReadMix::new(phase.seed);
            while started.elapsed().as_secs_f64() < phase.seconds {
                let (kind, request) = mix.next(preloaded, stream);
                if let Some((_, ms)) = out.tally.count(timed_call(&mut reader, &request)) {
                    out.reads.push((kind, ms));
                }
            }
            out.end = Some(Instant::now());
            out
        });
        let writing = scope.spawn(|| {
            let mut out = Window::default();
            let mut i = 0u64;
            loop {
                let due = Duration::from_secs_f64(i as f64 / WRITER_RATE);
                if due.as_secs_f64() >= phase.seconds {
                    break;
                }
                std::thread::sleep(due.saturating_sub(started.elapsed()));
                let spec = plan::quick_spec(phase.seed, "writer", 0, i);
                if let Some(s) = out.tally.count(run_session(&mut writer, spec)) {
                    out.sessions.push(s);
                }
                i += 1;
            }
            out
        });
        window.merge(reading.join().expect("reader lane panicked"));
        window.merge(writing.join().expect("writer lane panicked"));
    });
    Ok(window)
}

/// The `Results` summary of a pipeline report, field for field what the
/// server's wire front-end builds.
fn summary_of(report: &SessionReport) -> Document {
    let count = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
    Document::new()
        .with("selected_k", count(report.optimizer.selected_k))
        .with("clusters", count(report.clusters.len()))
        .with("rules", count(report.rules.len()))
        .with(
            "top_goal",
            report
                .goals
                .first()
                .map_or_else(String::new, |(g, _, _)| g.name().to_owned()),
        )
        .with("ranked_items", count(report.ranked_items.len()))
        .with("feedback_recorded", count(report.feedback_recorded))
}

/// In-process `AdaHealth::run` of every distinct paper spec, one
/// thread each; computed once per process (both phases of a traced run
/// share it).
fn paper_reference(seed: u64) -> &'static [Document] {
    static REFERENCE: OnceLock<Vec<Document>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..plan::PAPER_VARIANTS)
                .map(|variant| {
                    scope.spawn(move || {
                        // Connection `variant`'s first session runs it.
                        let job = plan::paper_spec(seed, variant, 0).materialize();
                        summary_of(&AdaHealth::new(job.config).run(&job.log))
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("reference run panicked"))
                .collect()
        })
    })
}

/// The sealed fingerprints an in-process `StreamEngine` reaches on
/// `feed`: `(vsm_fp, model fingerprint, windows closed, folded)`.
fn stream_reference(
    spec: &ada_stream::StreamMiningSpec,
    feed: &[ExamRecord],
) -> Result<(String, String, i64, i64), String> {
    let (mut engine, _) = StreamEngine::open(
        spec.to_config("reference"),
        None,
        std::sync::Arc::new(StreamMetrics::new()),
        None,
    )
    .map_err(|e| format!("reference engine failed to open: {e}"))?;
    for batch in feed.chunks(crate::wire::BATCH) {
        engine
            .ingest(batch)
            .map_err(|e| format!("reference ingest failed: {e}"))?;
    }
    engine
        .seal()
        .map_err(|e| format!("reference seal failed: {e}"))?;
    let status = engine.status_document();
    Ok(sealed_identity(&status))
}

fn sealed_identity(status: &Document) -> (String, String, i64, i64) {
    let text = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("").to_owned();
    (
        text(status.get("vsm_fp")),
        text(status.get_path("model.fingerprint")),
        status
            .get("windows_closed")
            .and_then(Value::as_i64)
            .unwrap_or(-1),
        status.get("folded").and_then(Value::as_i64).unwrap_or(-1),
    )
}

/// Sent = ingested, and ingested = folded + dropped-late with nothing
/// left buffered, for one sealed stream.
fn check_stream_accounting(sample: &StreamSample, failures: &mut Vec<String>) {
    let sent = sample.sent;
    let get = |key: &str| sample.sealed.get(key).and_then(Value::as_i64).unwrap_or(-1);
    let (ingested, folded, dropped, buffered) = (
        get("ingested"),
        get("folded"),
        get("dropped"),
        get("buffered"),
    );
    if sample.acked != sent || ingested != i64::try_from(sent).unwrap_or(-1) {
        failures.push(format!(
            "stream {}: sent {sent}, acked {}, ingested {ingested}",
            sample.name, sample.acked
        ));
    }
    if ingested != folded + dropped || buffered != 0 {
        failures.push(format!(
            "stream {}: ingested {ingested} != folded {folded} + dropped {dropped} (buffered {buffered})",
            sample.name
        ));
    }
}

/// Runs one phase of `phase.workload` end to end and removes its
/// scratch directory, whatever the outcome.
pub fn run_phase(phase: &Phase) -> Result<Observed, String> {
    let outcome = run_phase_in(phase);
    let _ = std::fs::remove_dir_all(&phase.dir);
    outcome
}

fn run_phase_in(phase: &Phase) -> Result<Observed, String> {
    let workload = phase.workload;
    let mut failures: Vec<String> = Vec::new();

    // ---- set-up -----------------------------------------------------
    let setup_started = Instant::now();
    // Every distinct fed stream is its own cohort under its own seeds,
    // so that a run's median rate averages over inputs.
    let ingest_feeds: Vec<Vec<ExamRecord>> = (0..cohorts_for(phase.seconds))
        .filter(|_| workload == Workload::IngestFeed)
        .map(|i| plan::ingest_feed(phase.seed, i))
        .collect();
    let inputs_s = setup_started.elapsed().as_secs_f64();
    // Readying a fleet is: start both nodes over fresh journals, wait
    // for the standby to attach, run the fleet's first session end to
    // end. It takes a twentieth of a second, so [`REHEARSALS`] fleets
    // are readied and stopped, and the set-up is charged the median;
    // the window then runs on a fleet that has served nothing yet.
    let mut ready_s = Vec::new();
    for rehearsal in 0..REHEARSALS {
        let started = Instant::now();
        let fleet = Fleet::start(&phase.dir.join(format!("rehearsal-{rehearsal}")), false)?;
        let start = started.elapsed();
        // The primary looks for a follower every 25 ms, so attaching
        // takes 1 ms or 26 ms by a race; no metric is charged for it.
        fleet.await_standby()?;
        let attached = Instant::now();
        let to = Target {
            addr: fleet.primary.client_addr(),
            traced: false,
        };
        run_session(
            &mut to.connect()?,
            plan::quick_spec(phase.seed, "first", 0, rehearsal),
        )?;
        ready_s.push((start + attached.elapsed()).as_secs_f64());
        fleet.shutdown();
    }
    let ready_s = median(&ready_s).expect("REHEARSALS > 0");
    let fleet = Fleet::start(&phase.dir.join("fleet"), phase.traced)?;
    fleet.await_standby()?;
    let preload_started = Instant::now();
    let to = Target {
        addr: fleet.primary.client_addr(),
        traced: phase.traced,
    };
    let mut probe = to.connect()?;
    // `read_under_write` reads a preloaded store; `Results` of one
    // preloaded session is kept, byte for byte, to compare after the
    // window.
    let mut preloaded: Vec<SessionSample> = Vec::new();
    let mut preload_stream = None;
    let mut pinned = None;
    if workload == Workload::ReadUnderWrite {
        let (sessions, stream, tally) = preload(to, phase.seed)?;
        if let Some(why) = tally.first_failure {
            failures.push(format!("preload: {why}"));
        }
        check_stream_accounting(&stream, &mut failures);
        let request = Request::Results {
            session: sessions.first().ok_or("preload completed no session")?.id,
        };
        let before = timed_call(&mut probe, &request)?.0.encode(0);
        pinned = Some((request, before));
        preloaded = sessions;
        preload_stream = Some(stream);
    }
    let preloaded_ids: Vec<u64> = preloaded.iter().map(|s| s.id).collect();
    let setup_s = inputs_s + ready_s + preload_started.elapsed().as_secs_f64();

    // ---- the window -------------------------------------------------
    let before = Counters::read(&fleet);
    let fsyncs_before = fleet.primary_disk.device_us().len();
    let window_started = Instant::now();
    let open = || window_started.elapsed().as_secs_f64() < phase.seconds;
    let mut ack_lag_ops_max = 0u64;
    let mut max_queue_depth = 0usize;
    let window = std::thread::scope(|scope| {
        let lanes = scope.spawn(|| match workload {
            Workload::PaperSubmit => paper_window(to, phase),
            Workload::SmallMix => drive_small(to, &|lane, i| {
                open().then(|| plan::small_spec(phase.seed, "mix", lane, i))
            }),
            // Streams back to back until the window closes: the last
            // one is sealed with what was sent by then, and a program
            // that got faster is fed more of them.
            Workload::IngestFeed => feed_beside_queries(to, &mut |index| {
                let cohort = index % ingest_feeds.len();
                open().then(|| StreamPlan {
                    name: format!("feed-{index}"),
                    spec: plan::stream_spec(phase.seed, cohort as u64),
                    feed: &ingest_feeds[cohort],
                    deadline: Some(window_started + Duration::from_secs_f64(phase.seconds)),
                })
            }),
            Workload::ReadUnderWrite => {
                let stream = preload_stream.as_ref().map_or("", |s| s.name.as_str());
                read_write_window(to, phase, &preloaded_ids, stream)
            }
        });
        // The main thread samples queue depth and replication lag.
        let mut next_lag_sample = Instant::now();
        while !lanes.is_finished() {
            max_queue_depth = max_queue_depth.max(fleet.primary.service().queue_depth());
            if Instant::now() >= next_lag_sample {
                ack_lag_ops_max = ack_lag_ops_max.max(fleet.ack_lag());
                next_lag_sample += LAG_EVERY;
            }
            std::thread::sleep(DEPTH_EVERY);
        }
        lanes.join().expect("window lanes panicked")
    })?;
    let wall_s = window
        .end
        .map_or(window_started.elapsed(), |end| end - window_started)
        .as_secs_f64();

    // ---- catch-up, read-back ----------------------------------------
    let catchup_ms = fleet.catch_up().unwrap_or_else(|why| {
        failures.push(why);
        0.0
    });
    let after = Counters::read(&fleet);
    // Before the oracle: its reference runs and journal read-backs are
    // the benchmark's memory, not the fleet's.
    let peak_rss_mb = peak_rss_mb();
    let device_fsync_us = fleet.primary_disk.device_us().split_off(fsyncs_before);
    if let Some((request, before)) = &pinned {
        if timed_call(&mut probe, request)?.0.encode(0) != *before {
            failures.push("Results of a preloaded session changed across the window".into());
        }
    }
    let traces = if phase.traced {
        match timed_call(&mut probe, &Request::TraceQuery { session: None })?.0 {
            Response::Traces { traces } => traces,
            other => return Err(format!("trace_query answered {}", other.kind())),
        }
    } else {
        Vec::new()
    };
    let metrics_snapshot_ms = timed_call(&mut probe, &Request::MetricsSnapshot)?.1;
    let past_sessions = match timed_call(&mut probe, &Request::PastSessions)?.0 {
        Response::PastSessions { sessions } => sessions.len(),
        other => return Err(format!("past_sessions answered {}", other.kind())),
    };
    drop(probe);

    // ---- oracle (live nodes) ----------------------------------------
    if let Some(why) = &window.tally.first_failure {
        failures.push(format!("window: {why}"));
    }
    let acked_sessions: Vec<&SessionSample> = preloaded.iter().chain(&window.sessions).collect();
    if past_sessions != acked_sessions.len() {
        failures.push(format!(
            "PastSessions serves {past_sessions} records for {} completed sessions",
            acked_sessions.len()
        ));
    }
    // The state fingerprint walks the whole store; only `small_mix`
    // pays for it. Every workload compares the two journals byte for
    // byte after shutdown, which implies it.
    let kdb = fleet.primary.service().kdb();
    let primary_fp = (workload == Workload::SmallMix).then(|| kdb.read().fingerprint());
    if let Some(primary_fp) = primary_fp {
        let standby_fp = fleet.standby.service().kdb().read().fingerprint();
        if primary_fp != standby_fp {
            failures.push(format!(
                "follower state {standby_fp:016x} != primary state {primary_fp:016x} after catch-up"
            ));
        }
    }
    let repl_rejects = fleet.standby.repl_metrics().snapshot().rejects_total();
    if repl_rejects != 0 {
        failures.push(format!(
            "{repl_rejects} replication rejects on a clean loopback link"
        ));
    }
    if workload == Workload::PaperSubmit {
        let reference = paper_reference(phase.seed);
        for sample in &window.sessions {
            let want = &reference[plan::paper_variant_of(&sample.name)];
            if sample.summary != *want {
                failures.push(format!(
                    "session {}: Results {:?} differ from the in-process run {want:?}",
                    sample.name, sample.summary
                ));
            }
        }
    }
    for sample in &window.streams {
        check_stream_accounting(sample, &mut failures);
    }
    if let (Some(feed), Some(first)) = (ingest_feeds.first(), window.streams.first()) {
        // The in-process engine is fed the first stream's exact sequence.
        let sent = &feed[..first.sent as usize];
        let want = stream_reference(&plan::stream_spec(phase.seed, 0), sent)?;
        let got = sealed_identity(&first.sealed);
        if got != want {
            failures.push(format!(
                "stream {}: sealed {got:?} != in-process engine {want:?}",
                first.name
            ));
        }
    }

    // ---- shutdown, then the on-disk oracle --------------------------
    let (journal, standby_journal) = (fleet.primary_journal(), fleet.standby_journal());
    let protocol_errors = fleet.shutdown().protocol_errors;
    if protocol_errors != 0 {
        failures.push(format!("{protocol_errors} protocol errors on the wire"));
    }
    match (std::fs::read(&journal), std::fs::read(&standby_journal)) {
        (Ok(ours), Ok(theirs)) if ours == theirs => {}
        (Ok(_), Ok(_)) => {
            failures.push("follower journal is not byte-identical to the primary's".into());
        }
        (Err(e), _) | (_, Err(e)) => failures.push(format!("cannot read a journal back: {e}")),
    }
    let reopen_started = Instant::now();
    let reopened = Kdb::open(&journal).map_err(|e| format!("journal does not reopen: {e}"))?;
    let reopen_replay_ms = reopen_started.elapsed().as_secs_f64() * 1e3;
    let on_disk: std::collections::BTreeSet<String> = reopened
        .collection(ada_kdb::schema::names::SESSIONS)
        .into_iter()
        .flat_map(|coll| coll.iter())
        .filter_map(|(_, doc)| {
            doc.get("session")
                .and_then(Value::as_str)
                .map(str::to_owned)
        })
        .collect();
    for sample in &acked_sessions {
        if !on_disk.contains(&sample.name) {
            failures.push(format!(
                "acked session {} has no sessions record in the reopened journal",
                sample.name
            ));
        }
    }
    if primary_fp.is_some_and(|fp| fp != reopened.fingerprint()) {
        failures.push("reopened journal state differs from the live primary's".into());
    }
    drop(reopened);

    Ok(Observed {
        workload,
        setup_s,
        wall_s,
        window,
        before,
        after,
        device_fsync_us,
        peak_rss_mb,
        max_queue_depth,
        ack_lag_ops_max,
        catchup_ms,
        traces,
        metrics_snapshot_ms,
        protocol_errors,
        repl_rejects,
        reopen_replay_ms,
        oracle_failures: failures,
    })
}

/// Distinct cohorts the set-up generates for an `ingest_feed` window of
/// `seconds`.
fn cohorts_for(seconds: f64) -> u64 {
    ((seconds / STREAM_SECONDS).ceil() as u64).max(1)
}
