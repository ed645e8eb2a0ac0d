//! Observability end-to-end: observer fan-out under concurrent
//! sessions, flight-recorder persistence, and crash-replay of the
//! `sessions` collection.

use std::path::PathBuf;
use std::sync::Arc;

use ada_core::{AdaHealthConfig, PipelineStage};
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_kdb::schema::{self, names};
use ada_kdb::{Document, Kdb, SharedKdb, Value};
use ada_obs::FlightRecorder;
use ada_service::{AnalysisService, JobSpec, ServiceConfig, SessionState};

fn cohort_cfg() -> SyntheticConfig {
    SyntheticConfig {
        num_patients: 90,
        num_exam_types: 20,
        target_records: 1_200,
        ..SyntheticConfig::small()
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ada_obs_{tag}_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn span_names(doc: &Document) -> Vec<(String, i64)> {
    doc.get("spans")
        .and_then(Value::as_array)
        .map(|spans| {
            spans
                .iter()
                .map(|s| {
                    let s = s.as_doc().unwrap();
                    (
                        s.get("name").unwrap().as_str().unwrap().to_string(),
                        s.get("parent").unwrap().as_i64().unwrap(),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn observer_fanout_under_eight_concurrent_sessions() {
    // A second, test-owned recorder rides along as the extra observer:
    // the service's internal recorder persists-and-forgets sessions at
    // terminal state, while this one keeps them for inspection.
    let probe = Arc::new(FlightRecorder::new());
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 4,
            observer: Some(probe.clone()),
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    );

    let sessions: Vec<String> = (0..8).map(|i| format!("fan-{i}")).collect();
    let ids: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let log = Arc::new(generate(&cohort_cfg(), 300 + i as u64));
            service
                .submit(JobSpec::new(AdaHealthConfig::quick(name.clone()), log))
                .unwrap()
        })
        .collect();
    for id in &ids {
        assert!(matches!(
            service.wait(*id).unwrap(),
            SessionState::Completed(_)
        ));
    }

    for name in &sessions {
        // Correct span nesting, from the folded document: the root is
        // first, stage spans parent to it, and every rung/sweep span
        // parents to its stage span.
        let doc = probe.finalize(name, "completed", "");
        schema::validate_session_doc(&doc).unwrap();
        let spans = span_names(&doc);
        assert_eq!(spans[0], ("session".to_string(), -1));
        let time = |idx: usize, key: &str| {
            let span = &doc.get("spans").and_then(Value::as_array).unwrap()[idx];
            span.as_doc().unwrap().get(key).unwrap().as_i64().unwrap()
        };
        // Every child starts no earlier than its parent.
        for (idx, &(_, parent)) in spans.iter().enumerate().skip(1) {
            let parent_start = time(parent as usize, "start_ns");
            assert!(time(idx, "start_ns") >= parent_start, "{name}: span {idx}");
        }
        // Exactly-once stage spans: each of the seven stages ran once,
        // under the root, and took time, despite 4 workers running 8
        // sessions.
        let stage_idx = |stage: PipelineStage| {
            let at: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].0 == stage.name())
                .collect();
            assert_eq!(at.len(), 1, "{name}: {stage} spans at {at:?}");
            at[0] as i64
        };
        for stage in PipelineStage::PIPELINE {
            let idx = stage_idx(stage) as usize;
            assert_eq!(spans[idx].1, 0, "{name}: {stage} span must parent to root");
            assert!(time(idx, "dur_ns") > 0, "{name}: {stage} span took no time");
        }
        let mining = stage_idx(PipelineStage::PartialMining);
        let optimize = stage_idx(PipelineStage::Optimize);
        let mut rungs = 0;
        let mut sweeps = 0;
        for (span_name, parent) in &spans {
            if span_name.starts_with("rung:") {
                assert_eq!(*parent, mining, "{name}: {span_name} must nest in mining");
                rungs += 1;
            }
            if span_name.starts_with("sweep:k=") {
                assert_eq!(
                    *parent, optimize,
                    "{name}: {span_name} must nest in optimize"
                );
                sweeps += 1;
            }
        }
        assert!(rungs > 0, "{name}: partial mining produced no rung spans");
        assert!(sweeps > 0, "{name}: optimizer produced no sweep spans");
    }

    // The service's own recorder persisted all eight terminal records.
    let past = service.past_sessions();
    assert_eq!(past.len(), 8);
    service.shutdown();
}

#[test]
fn session_records_survive_crash_and_journal_replay() {
    let path = journal_path("replay");
    let before: Vec<Document>;
    {
        let service = AnalysisService::new(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            SharedKdb::new(Kdb::open(&path).unwrap()),
        );
        let log = Arc::new(generate(&cohort_cfg(), 42));

        let ok = service
            .submit(JobSpec::new(
                AdaHealthConfig::quick("replay-ok"),
                Arc::clone(&log),
            ))
            .unwrap();
        let doomed = service
            .submit(
                JobSpec::new(AdaHealthConfig::quick("replay-doomed"), Arc::clone(&log))
                    .inject_failures(10)
                    .max_retries(1),
            )
            .unwrap();
        let token = ada_service::CancelToken::new();
        token.cancel();
        let cancelled = service
            .submit(
                JobSpec::new(AdaHealthConfig::quick("replay-cancelled"), Arc::clone(&log))
                    .cancel_token(token),
            )
            .unwrap();

        assert!(matches!(
            service.wait(ok).unwrap(),
            SessionState::Completed(_)
        ));
        assert!(matches!(
            service.wait(doomed).unwrap(),
            SessionState::Failed { .. }
        ));
        assert_eq!(service.wait(cancelled).unwrap(), SessionState::Cancelled);

        before = service.past_sessions();
        assert_eq!(before.len(), 3);
        service.shutdown();
        // Service dropped here: the only copy of these records is now
        // the K-DB journal on disk.
    }

    // "Restart": rebuild the store purely from the journal.
    let reopened = SharedKdb::new(Kdb::open(&path).unwrap()).read();
    let after: Vec<Document> = ada_obs::past_sessions(&reopened, ada_obs::Page::ALL)
        .into_iter()
        .map(|doc| Document::clone(doc))
        .collect();
    assert_eq!(after.len(), 3);

    // Round-trip: the replayed records equal the pre-crash ones exactly.
    assert_eq!(before, after);

    let by_session = |docs: &[Document], session: &str| -> Document {
        docs.iter()
            .find(|d| d.get("session").and_then(Value::as_str) == Some(session))
            .unwrap_or_else(|| panic!("no record for {session}"))
            .clone()
    };
    let ok_doc = by_session(&after, "replay-ok");
    let doomed_doc = by_session(&after, "replay-doomed");
    let cancelled_doc = by_session(&after, "replay-cancelled");

    for doc in [&ok_doc, &doomed_doc, &cancelled_doc] {
        schema::validate_session_doc(doc).unwrap();
    }
    assert_eq!(ok_doc.get("state").unwrap().as_str(), Some("completed"));
    assert_eq!(doomed_doc.get("state").unwrap().as_str(), Some("failed"));
    assert_eq!(
        cancelled_doc.get("state").unwrap().as_str(),
        Some("cancelled")
    );

    // The completed run carries kernel counters and a full span tree.
    let counters = ok_doc.get("counters").unwrap().as_doc().unwrap();
    assert!(counters.get("iterations").unwrap().as_i64().unwrap() > 0);
    assert!(counters.get("distance_evals").unwrap().as_i64().unwrap() > 0);
    // ... and the tree CV's: one column index shared by the whole sweep.
    assert_eq!(counters.get("cv_index_builds").unwrap().as_i64(), Some(1));
    assert!(counters.get("cv_tree_fits").unwrap().as_i64().unwrap() > 0);
    assert!(span_names(&ok_doc).len() > PipelineStage::ALL.len());

    // The failed run recorded its retry and the reason.
    assert_eq!(doomed_doc.get("retries").unwrap().as_i64(), Some(1));
    let outcome = doomed_doc.get("outcome").unwrap().as_str().unwrap();
    assert!(outcome.contains("attempts"), "outcome: {outcome}");

    // The pre-cancelled run never started a stage: empty span tree, but
    // still a queryable terminal record.
    assert!(span_names(&cancelled_doc).is_empty());

    // The collection is indexed for the queries a restarted service
    // serves.
    assert!(reopened
        .collection(names::SESSIONS)
        .unwrap()
        .has_index("state"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_renders_json_and_prometheus_end_to_end() {
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 77));
    let id = service
        .submit(JobSpec::new(AdaHealthConfig::quick("snap"), log))
        .unwrap();
    assert!(matches!(
        service.wait(id).unwrap(),
        SessionState::Completed(_)
    ));

    let snapshot = service.snapshot();
    assert_eq!(snapshot.get("past_sessions").unwrap().as_i64(), Some(1));
    let sessions = snapshot.get("sessions").unwrap().as_array().unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(
        sessions[0].as_doc().unwrap().get("state").unwrap().as_str(),
        Some("completed")
    );

    let json = service.snapshot_json();
    assert!(json.contains("\"metrics\":{"), "json: {json}");
    assert!(json.contains("\"queue_wait\":{"), "json: {json}");
    for stage in PipelineStage::PIPELINE {
        assert!(
            json.contains(&format!("\"{}\":{{", stage.name())),
            "{stage}"
        );
    }

    let prom = service.snapshot_prometheus();
    assert!(prom.contains("ada_jobs_total{outcome=\"completed\"} 1"));
    assert!(prom.contains("ada_stage_latency_ns{stage=\"optimize\",quantile=\"0.99\"}"));
    assert!(prom.contains("ada_queue_wait_ns_count 1"));
    service.shutdown();
}

#[test]
fn a_sampled_session_costs_one_journal_op() {
    // The same two sessions on a fresh journal at rate 0 and at rate 1:
    // a sampled session's trace rides in its session record, so each
    // session costs the same ops either way — no trace insert, and no
    // schema ops for a trace store on first use.
    let ops_per_session = |rate: f64| -> Vec<u64> {
        let mem = ada_kdb::MemStorage::new();
        let kdb = SharedKdb::open_with(
            std::path::Path::new("count.journal"),
            ada_kdb::StoreOptions::with_storage(Arc::new(mem)),
        )
        .unwrap();
        let service = AnalysisService::new(
            ServiceConfig {
                workers: 1,
                sample_rate: rate,
                ..ServiceConfig::default()
            },
            kdb,
        );
        let log = Arc::new(generate(&cohort_cfg(), 79));
        let shared = service.kdb();
        let mut ops = Vec::new();
        for i in 0..2 {
            let before = shared.journal_acked_ops();
            let id = service
                .submit(JobSpec::new(
                    AdaHealthConfig::quick(format!("count-{i}")),
                    Arc::clone(&log),
                ))
                .unwrap();
            assert!(matches!(
                service.wait(id).unwrap(),
                SessionState::Completed(_)
            ));
            ops.push(shared.journal_acked_ops() - before);
        }
        assert_eq!(service.metrics().traces_persisted, 2 * rate as u64);
        service.shutdown();
        ops
    };
    assert_eq!(ops_per_session(1.0), ops_per_session(0.0));
}

#[test]
fn a_store_holding_a_legacy_traces_collection_still_replays() {
    // Journals written before traces moved into session records hold a
    // separate `traces` collection. It replays as generic state; the
    // trace listing reads only `sessions`.
    let path = journal_path("legacy_traces");
    let fingerprint = {
        let db = SharedKdb::new(Kdb::open(&path).unwrap());
        schema::init_schema(&db).unwrap();
        db.create_collection("traces").unwrap();
        for index in ["session", "trace_id"] {
            db.ensure_index("traces", index).unwrap();
        }
        db.insert(
            "traces",
            Document::new()
                .with("session", "old")
                .with("trace_id", "00112233445566778899aabbccddeeff")
                .with("state", "completed")
                .with("forced", false)
                .with("events_dropped", 0i64)
                .with("spans", Value::Array(Vec::new())),
        )
        .unwrap();
        db.read().fingerprint()
    };
    let reopened = SharedKdb::new(Kdb::open(&path).unwrap()).read();
    assert_eq!(reopened.fingerprint(), fingerprint);
    assert_eq!(reopened.collection("traces").unwrap().len(), 1);
    assert!(ada_obs::past_traces(&reopened, None, ada_obs::Page::ALL).is_empty());
    std::fs::remove_file(&path).ok();
}
