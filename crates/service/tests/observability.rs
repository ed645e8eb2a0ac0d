//! Observability end-to-end: observer fan-out under concurrent
//! sessions, flight-recorder persistence, and crash-replay of the
//! `sessions` collection.

use std::path::PathBuf;
use std::sync::Arc;

use ada_core::{AdaHealthConfig, PipelineStage};
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_kdb::schema::{self, names};
use ada_kdb::{Document, Kdb, Value};
use ada_obs::{EventKind, FlightRecorder};
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
    // terminal state, while this one keeps its events for inspection.
    let probe = Arc::new(FlightRecorder::new(4096));
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 4,
            observer: Some(probe.clone()),
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
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

    assert_eq!(probe.dropped(), 0, "no events may be lost");
    for name in &sessions {
        let events = probe.recent_events(name);
        assert!(!events.is_empty(), "{name}: no events recorded");

        // Per-session drain order is monotonic in the global sequence
        // and in time.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "{name}: seq order broken");
            assert!(pair[0].t_ns <= pair[1].t_ns, "{name}: time went backwards");
        }

        // Exactly-once stage events: each of the seven stages opens
        // once and closes once, despite 4 workers running 8 sessions.
        for stage in PipelineStage::PIPELINE {
            let starts = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Start { .. }) && *e.name == *stage.name())
                .count();
            let ends = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::End { .. }) && *e.name == *stage.name())
                .count();
            assert_eq!(starts, 1, "{name}: stage {stage} started {starts} times");
            assert_eq!(ends, 1, "{name}: stage {stage} ended {ends} times");
        }

        // Correct span nesting, from the folded document: the root is
        // first, stage spans parent to it, and every rung/sweep span
        // parents to its stage span.
        let doc = probe.finalize(name, "completed", "");
        schema::validate_session_doc(&doc).unwrap();
        let spans = span_names(&doc);
        assert_eq!(spans[0], ("session".to_string(), -1));
        let stage_idx = |stage: PipelineStage| {
            spans
                .iter()
                .position(|(n, _)| n == stage.name())
                .unwrap_or_else(|| panic!("{name}: no {stage} span")) as i64
        };
        for stage in PipelineStage::PIPELINE {
            let idx = stage_idx(stage) as usize;
            assert_eq!(spans[idx].1, 0, "{name}: {stage} span must parent to root");
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
        let service = AnalysisService::with_kdb(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            Kdb::open(&path).unwrap(),
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
    let reopened = Kdb::open(&path).unwrap();
    let after: Vec<Document> = ada_obs::past_sessions(&reopened, ada_obs::Page::ALL)
        .into_iter()
        .cloned()
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
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
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
fn tracer_rings_stay_bounded_by_live_threads() {
    // A parallel sweep spawns one short-lived thread per candidate K,
    // and each emits its `sweep:k=…` span into a ring of its own. Those
    // rings must go when their threads do: 50 sessions × 3 sweep
    // threads would otherwise leave 150 of them behind.
    const WORKERS: usize = 2;
    let service = AnalysisService::with_kdb(
        ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        },
        Kdb::in_memory(),
    );
    let log = Arc::new(generate(&cohort_cfg(), 78));
    let ids: Vec<_> = (0..50)
        .map(|i| {
            let mut config = AdaHealthConfig::quick(format!("ring-{i}"));
            config.optimizer.parallel = true;
            service
                .submit(JobSpec::new(config, Arc::clone(&log)))
                .unwrap()
        })
        .collect();
    for id in ids {
        assert!(matches!(
            service.wait(id).unwrap(),
            SessionState::Completed(_)
        ));
    }
    let recorder = service.recorder();
    recorder.sync();
    // Every sweep thread was joined before its session completed, so
    // the drain above retired its ring: what is left belongs to the
    // workers and to this (submitting) thread.
    let rings = recorder.tracer().ring_count();
    assert!(rings <= WORKERS + 1, "{rings} rings registered");
    assert_eq!(recorder.dropped(), 0, "no event may be lost");
    service.shutdown();
}
