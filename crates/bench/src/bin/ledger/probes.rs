//! Probes (`P`): for what the program's own spans and snapshots do not
//! cover, the ledger calls a layer's public function itself inside a
//! bench-side span. Every traced run takes the same probes on inputs
//! of its own — one seeded paper-scale cohort, and the session records
//! of a few quick sessions run in-process — so a probe's number is
//! comparable across workloads and says what one call of that kernel
//! costs at the paper's size.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ada_core::{Optimizer, RunControl};
use ada_dataset::ExamRecord;
use ada_kdb::schema::names;
use ada_kdb::{Document, DurabilityPolicy, Filter, Kdb, SharedKdb, StoreOptions, Value};
use ada_metrics::cluster;
use ada_mining::kmeans::KernelStats;
use ada_mining::patterns::{fpgrowth, relative_min_support, rules};
use ada_mining::tree::TreeConfig;
use ada_mining::{validate, KMeans};
use ada_net::frame::{frame_bytes, Decoded, FrameDecoder};
use ada_net::{Request, Response};
use ada_obs::StreamMetrics;
use ada_service::{AnalysisService, ServiceConfig, SessionState};
use ada_signals::SignalConfig;
use ada_stream::StreamEngine;
use ada_vsm::{DenseMatrix, VsmBuilder};

use crate::layers::Metrics;
use crate::plan::{self, PAPER};
use crate::spans::SpanRecorder;
use crate::stats::median;
use crate::wire::BATCH;

/// Session documents the bulk-encode probe serialises.
const BULK_DOCS: usize = 256;

/// Quick sessions run in-process to obtain distinct session records.
const PROBE_SESSIONS: u64 = 8;

/// Repetitions of a micro-probe; the median is reported.
const REPS: usize = 15;

fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Megabytes per second of `bytes` handled in `ms`.
fn mbps(bytes: usize, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3).max(f64::MIN_POSITIVE)
}

/// Feeds `feed` through an engine and seals; wall milliseconds.
fn stream_run(feed: &[ExamRecord], mine: bool, store: Option<SharedKdb>, seed: u64) -> f64 {
    let config = plan::stream_spec(seed, 0)
        .to_config("probe")
        .mine_on_close(mine);
    let started = Instant::now();
    let (mut engine, _) = StreamEngine::open(config, store, Arc::new(StreamMetrics::new()), None)
        .expect("probe engine opens over an empty store");
    for batch in feed.chunks(BATCH) {
        engine.ingest(batch).expect("probe ingest");
    }
    engine.seal().expect("probe seal");
    std::hint::black_box(engine.vsm_fingerprint());
    started.elapsed().as_secs_f64() * 1e3
}

/// The session records of [`PROBE_SESSIONS`] quick sessions run through
/// an in-process service over an in-memory store: the documents the
/// codec and store probes handle.
fn session_records(seed: u64) -> Result<Vec<Document>, String> {
    let service = AnalysisService::new(ServiceConfig::default(), SharedKdb::in_memory());
    for i in 0..PROBE_SESSIONS {
        let spec = plan::quick_spec(seed, "probe", 0, i).materialize();
        let id = service
            .submit(spec)
            .map_err(|e| format!("probe session refused: {e}"))?;
        match service.wait(id) {
            Ok(SessionState::Completed(_)) => {}
            other => return Err(format!("probe session did not complete: {other:?}")),
        }
    }
    let records = service.past_sessions();
    service.shutdown();
    Ok(records)
}

/// Runs every probe. `scratch` is a directory under `target/ledger/`
/// for the probes' own journals.
pub fn run(seed: u64, scratch: &Path, spans: &mut SpanRecorder) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_owned(), (value, unit));
    };

    // dataset
    let cohort_seed = plan::derive(seed, "probe-cohort", 0, 0);
    let (log, ms) = spans.time("dataset.generate", || PAPER.generate(cohort_seed));
    put("dataset.generate_ms", ms, "ms");
    let (feed, ms) = spans.time("dataset.stream_order", || plan::stream_feed(&log, seed, 0));
    put("dataset.stream_order_ms", ms, "ms");

    // vsm
    let (vectors, ms) = spans.time("vsm.build", || VsmBuilder::new().build(&log));
    put("vsm.build_ms", ms, "ms");
    let matrix = &vectors.matrix;
    let fresh = DenseMatrix::from_flat(
        matrix.num_rows(),
        matrix.num_cols(),
        matrix.as_flat().to_vec(),
    );
    let ((), ms) = spans.time("vsm.row_norms", || {
        std::hint::black_box(fresh.row_norms_sq());
    });
    put("vsm.row_norms_ms", ms, "ms");

    // mining: the Table-I sweep, kernel and classifier CV apart
    let optimizer = Optimizer::paper();
    let mut stats = KernelStats::default();
    let (fits, ms) = spans.time("mining.kmeans_sweep", || {
        optimizer
            .ks
            .iter()
            .map(|&k| {
                let (fit, s) = KMeans::new(k).seed(optimizer.seed).fit_with_stats(matrix);
                stats.merge(&s);
                (k, fit)
            })
            .collect::<Vec<_>>()
    });
    put("mining.kmeans_sweep_ms", ms, "ms");
    put(
        "mining.kmeans_distance_evals",
        stats.distance_evals as f64,
        "count",
    );
    put(
        "mining.kmeans_bound_skip_ratio",
        stats.bound_skips as f64 / (stats.bound_skips + stats.rows_scanned).max(1) as f64,
        "ratio",
    );
    let tree = TreeConfig {
        max_depth: 8,
        min_samples_leaf: 5,
        ..TreeConfig::default()
    };
    let ((), ms) = spans.time("mining.tree_cv", || {
        for (k, fit) in &fits {
            std::hint::black_box(validate::cross_validate_tree(
                matrix,
                &fit.assignments,
                *k,
                &tree,
                optimizer.seed,
            ));
        }
    });
    put("mining.tree_cv_ms", ms, "ms");
    let ((), ms) = spans.time("mining.patterns", || {
        let transactions: Vec<Vec<u32>> = log
            .visits()
            .iter()
            .map(|v| v.exams.iter().map(|e| e.0).collect())
            .collect();
        let frequent = fpgrowth::mine(
            &transactions,
            relative_min_support(transactions.len(), 0.05),
        );
        std::hint::black_box(rules::generate(&frequent, transactions.len(), 0.6));
    });
    put("mining.patterns_ms", ms, "ms");

    // metrics: what the transform stage scores one candidate with
    let sample = {
        let mut head = matrix.select_rows(&(0..1_000.min(matrix.num_rows())).collect::<Vec<_>>());
        head.normalize_rows();
        head
    };
    let probe_fit = KMeans::new(5).seed(0).fit(&sample);
    let ((), ms) = spans.time("metrics.cluster_quality", || {
        let labels = &probe_fit.assignments;
        std::hint::black_box(cluster::sse(&sample, labels, &probe_fit.centroids));
        std::hint::black_box(cluster::overall_similarity(&sample, labels, 5));
        let capped = sample.select_rows(&(0..400.min(sample.num_rows())).collect::<Vec<_>>());
        std::hint::black_box(cluster::silhouette(
            &capped,
            &labels[..capped.num_rows()],
            5,
        ));
    });
    put("metrics.cluster_quality_ms", ms, "ms");

    // signals
    let (mined, ms) = spans.time("signals.mine", || {
        ada_signals::mine_signals(&log, &SignalConfig::default(), &RunControl::new())
    });
    mined.map_err(|e| format!("signal-mining probe failed: {e}"))?;
    put("signals.mine_ms", ms, "ms");

    // net: frame and message codecs on the bulk payloads
    let ingest = Request::Ingest {
        stream: "probe".into(),
        records: feed[..BATCH.min(feed.len())].to_vec(),
    }
    .encode(1);
    let (decode_ms, _) = spans.time("net.proto_decode_ingest", || {
        median_ms(|| {
            std::hint::black_box(Request::decode(&ingest).expect("own encoding decodes"));
        })
    });
    put("net.proto_decode_ingest_us", decode_ms * 1e3, "us");
    let framed = frame_bytes(&ingest, 0);
    let (encode_ms, _) = spans.time("net.frame_encode", || {
        median_ms(|| {
            std::hint::black_box(frame_bytes(&ingest, 0));
        })
    });
    put(
        "net.frame_encode_mbps",
        mbps(ingest.len(), encode_ms),
        "MB/s",
    );
    let (decode_ms, _) = spans.time("net.frame_decode", || {
        median_ms(|| {
            let mut decoder = FrameDecoder::new();
            decoder.push(&framed);
            match decoder.next_frame() {
                Ok(Decoded::Frame(payload)) => {
                    std::hint::black_box(payload);
                }
                other => panic!("own frame did not decode: {other:?}"),
            }
        })
    });
    put(
        "net.frame_decode_mbps",
        mbps(framed.len(), decode_ms),
        "MB/s",
    );
    let session_docs = session_records(seed)?;
    if session_docs.is_empty() {
        return Err("no session record to probe the document codec with".into());
    }
    let bulk: Vec<Document> = session_docs
        .iter()
        .cycle()
        .take(BULK_DOCS)
        .cloned()
        .collect();
    let (bulk_ms, _) = spans.time("net.proto_encode_past_sessions", || {
        median_ms(|| {
            let response = Response::PastSessions {
                sessions: bulk.clone(),
            };
            std::hint::black_box(response.encode(1));
        })
    });
    put("net.proto_encode_past_sessions_us", bulk_ms * 1e3, "us");

    // kdb: the textual document codec, the journal append without
    // fsync, an indexed snapshot read, all on session records
    let encoded: Vec<String> = bulk.iter().map(Document::encode).collect();
    let bytes: usize = encoded.iter().map(String::len).sum();
    let (encode_ms, _) = spans.time("kdb.doc_encode", || {
        median_ms(|| {
            for doc in &bulk {
                std::hint::black_box(doc.encode());
            }
        })
    });
    put("kdb.doc_encode_mbps", mbps(bytes, encode_ms), "MB/s");
    let (decode_ms, _) = spans.time("kdb.doc_decode", || {
        median_ms(|| {
            for text in &encoded {
                std::hint::black_box(Document::decode(text).expect("own encoding decodes"));
            }
        })
    });
    put("kdb.doc_decode_mbps", mbps(bytes, decode_ms), "MB/s");
    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let nosync = StoreOptions::default().durability(DurabilityPolicy::SnapshotOnly);
    let mut store = Kdb::open_with(&scratch.join("append.journal"), nosync)
        .map_err(|e| format!("probe store failed to open: {e}"))?;
    store
        .ensure_collection(names::SESSIONS)
        .and_then(|()| store.ensure_index(names::SESSIONS, "session"))
        .map_err(|e| format!("probe store schema failed: {e}"))?;
    let (append_ms, _) = spans.time("kdb.append_nosync", || {
        let started = Instant::now();
        for doc in &bulk {
            store
                .insert(names::SESSIONS, doc.clone())
                .expect("probe insert");
        }
        started.elapsed().as_secs_f64() * 1e3
    });
    put(
        "kdb.append_nosync_us",
        append_ms * 1e3 / bulk.len() as f64,
        "us",
    );
    let shared = SharedKdb::new(store);
    let wanted: Vec<String> = bulk
        .iter()
        .filter_map(|d| d.get("session").and_then(Value::as_str).map(str::to_owned))
        .collect();
    let mut next = 0usize;
    let (read_ms, _) = spans.time("kdb.snapshot_read", || {
        median_ms(|| {
            let name = &wanted[next % wanted.len()];
            next += 1;
            let found = shared
                .read()
                .find(names::SESSIONS, &Filter::eq("session", name.as_str()))
                .expect("sessions collection exists");
            assert!(!found.is_empty(), "indexed find lost {name}");
        })
    });
    put("kdb.snapshot_read_us", read_ms * 1e3, "us");
    drop(shared);

    // stream: fold only, plus mining, plus durable checkpoints
    let (fold_ms, _) = spans.time("stream.fold", || stream_run(&feed, false, None, seed));
    let (mined_ms, _) = spans.time("stream.fold+mine", || stream_run(&feed, true, None, seed));
    let durable = SharedKdb::open_with(
        &scratch.join("checkpoints.journal"),
        StoreOptions::default().durability(DurabilityPolicy::Always),
    )
    .map_err(|e| format!("checkpoint store failed to open: {e}"))?;
    let (stored_ms, _) = spans.time("stream.fold+mine+checkpoint", || {
        stream_run(&feed, true, Some(durable), seed)
    });
    put("stream.fold_ms", fold_ms, "ms");
    put("stream.mine_ms", mined_ms - fold_ms, "ms");
    put("stream.checkpoint_ms", stored_ms - mined_ms, "ms");
    let _ = std::fs::remove_dir_all(scratch);
    Ok(m)
}

/// Non-test lines under `crates/<crate>/src`: everything before a
/// file's `#[cfg(test)]`, blank lines excluded. `None` when the sources
/// are not where the ledger runs (it runs from the repository root).
pub fn src_lines(krate: &str) -> Option<u64> {
    fn walk(dir: &Path, total: &mut u64) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, total)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)?;
                *total += text
                    .lines()
                    .take_while(|line| line.trim() != "#[cfg(test)]")
                    .filter(|line| !line.trim().is_empty())
                    .count() as u64;
            }
        }
        Ok(())
    }
    let mut total = 0;
    walk(&Path::new("crates").join(krate).join("src"), &mut total).ok()?;
    Some(total)
}

/// The twelve crates whose size the ledger tracks.
pub const CRATES: [&str; 12] = [
    "dataset", "vsm", "metrics", "mining", "kdb", "core", "signals", "obs", "stream", "service",
    "net", "fleet",
];
