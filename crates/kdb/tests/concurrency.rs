//! Concurrent access through [`SharedKdb`]: the optimizer's worker
//! threads read knowledge items while the pipeline thread keeps
//! inserting — the access pattern the sharded facade exists for.

use std::sync::Arc;

use ada_kdb::{Document, Filter, Kdb, SharedKdb};

fn shared() -> SharedKdb {
    let mut db = Kdb::in_memory();
    db.create_collection("items").unwrap();
    db.create_index("items", "score").unwrap();
    SharedKdb::new(db)
}

#[test]
fn concurrent_writers_and_readers_converge() {
    let db = shared();
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 250;

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = db.clone();
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let doc = Document::new()
                        .with("writer", w as i64)
                        .with("score", (i % 100) as f64 / 100.0);
                    db.insert("items", doc).unwrap();
                }
            });
        }
        // Readers run concurrently; every observed snapshot must be
        // internally consistent (find never panics, counts only grow).
        for _ in 0..2 {
            let db = db.clone();
            scope.spawn(move || {
                let mut last = 0usize;
                for _ in 0..50 {
                    let snap = db.read();
                    let coll = snap.collection("items").unwrap();
                    let n = coll.len();
                    assert!(n >= last, "collection shrank under readers");
                    last = n;
                    let hits = coll.find(&Filter::Gt("score".into(), ada_kdb::Value::F64(0.5)));
                    for (_, d) in hits {
                        assert!(d.get("score").unwrap().as_f64().unwrap() > 0.5);
                    }
                }
            });
        }
    });

    let snap = db.read();
    let coll = snap.collection("items").unwrap();
    assert_eq!(coll.len(), WRITERS * PER_WRITER);
    // Ids are unique and dense (1..=N) despite interleaved writers.
    let ids: Vec<u64> = coll.iter().map(|(id, _)| id).collect();
    assert_eq!(ids.len(), WRITERS * PER_WRITER);
    assert_eq!(ids[0], 1);
    assert_eq!(*ids.last().unwrap(), (WRITERS * PER_WRITER) as u64);
    // Per-writer counts all arrived.
    for w in 0..WRITERS {
        let n = coll.find(&Filter::eq("writer", w as i64)).len();
        assert_eq!(n, PER_WRITER, "writer {w}");
    }
}

#[test]
fn writers_interleave_on_a_persistent_store() {
    let path = std::env::temp_dir().join(format!("ada_kdb_conc_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    {
        let mut db = Kdb::open(&path).unwrap();
        db.create_collection("items").unwrap();
        let db = SharedKdb::new(db);
        std::thread::scope(|scope| {
            for w in 0..3 {
                let db = db.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        db.insert(
                            "items",
                            Document::new().with("w", w as i64).with("i", i as i64),
                        )
                        .unwrap();
                    }
                });
            }
        });
    }
    // The journal serialized every interleaved write; replay recovers all.
    let reopened = Kdb::open(&path).unwrap();
    assert_eq!(reopened.collection("items").unwrap().len(), 300);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journaled_multi_writer_stress_with_updates_deletes_and_compaction() {
    let path = std::env::temp_dir().join(format!("ada_kdb_stress_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("snapshot")).ok();

    const WRITERS: usize = 4;
    const PER_WRITER: usize = 120;
    {
        let mut db = Kdb::open(&path).unwrap();
        db.create_collection("items").unwrap();
        db.create_index("items", "writer").unwrap();
        let db = SharedKdb::new(db);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let db = db.clone();
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_WRITER {
                        let id = db
                            .insert(
                                "items",
                                Document::new().with("writer", w as i64).with("i", i as i64),
                            )
                            .unwrap();
                        mine.push(id);
                        // Interleave mutations with inserts: rewrite an
                        // earlier doc every 3rd insert, drop one every 5th.
                        if i % 3 == 0 && mine.len() > 1 {
                            let victim = mine[mine.len() / 2];
                            let doc = Document::new()
                                .with("writer", w as i64)
                                .with("i", i as i64)
                                .with("updated", true);
                            db.update("items", victim, doc).unwrap();
                        }
                        if i % 5 == 0 && mine.len() > 2 {
                            let victim = mine.remove(0);
                            db.delete("items", victim).unwrap();
                        }
                    }
                    mine
                });
            }
        });
        // Compact mid-life: the snapshot plus tail journal must still
        // replay to the same state.
        db.snapshot().unwrap();
        let live = db.read().collection("items").unwrap().len();
        db.insert("items", Document::new().with("writer", -1i64))
            .unwrap();
        assert_eq!(db.read().collection("items").unwrap().len(), live + 1);
    }

    let reopened = Kdb::open(&path).unwrap();
    let coll = reopened.collection("items").unwrap();
    // Every writer deleted floor((PER_WRITER - 1) / 5) docs (i = 5, 10, …;
    // i = 0 is skipped by the mine.len() > 2 guard), plus the post-snapshot
    // marker doc survives.
    let deleted_per_writer = (PER_WRITER - 1) / 5;
    assert_eq!(coll.len(), WRITERS * (PER_WRITER - deleted_per_writer) + 1);
    for w in 0..WRITERS {
        let n = coll.find(&Filter::eq("writer", w as i64)).len();
        assert_eq!(n, PER_WRITER - deleted_per_writer, "writer {w}");
    }
    assert_eq!(coll.find(&Filter::eq("writer", -1i64)).len(), 1);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("snapshot")).ok();
}

/// Cancelling an analysis session mid-run must leave the shared store
/// consistent: the journal replays cleanly and concurrent surviving
/// sessions' artifacts are intact (the service-level counterpart lives in
/// `ada-service`'s own tests; this one watches the store).
#[test]
fn service_cancellation_mid_run_leaves_replayable_store() {
    use ada_core::{AdaHealthConfig, PipelineObserver, PipelineStage};
    use ada_dataset::synthetic::{generate, SyntheticConfig};
    use ada_service::{AnalysisService, CancelToken, JobSpec, ServiceConfig, SessionState};

    struct CancelOnFirstStage {
        target: &'static str,
        token: CancelToken,
    }
    impl PipelineObserver for CancelOnFirstStage {
        fn on_stage_start(&self, session: &str, _stage: PipelineStage) {
            if session == self.target {
                self.token.cancel();
            }
        }
    }

    let path = std::env::temp_dir().join(format!("ada_kdb_svc_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();

    let token = CancelToken::new();
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 2,
            observer: Some(Arc::new(CancelOnFirstStage {
                target: "doomed",
                token: token.clone(),
            })),
            ..ServiceConfig::default()
        },
        SharedKdb::new(Kdb::open(&path).unwrap()),
    );
    let log = Arc::new(generate(
        &SyntheticConfig {
            num_patients: 80,
            target_records: 1_000,
            ..SyntheticConfig::small()
        },
        5,
    ));
    let doomed = service
        .submit(
            JobSpec::new(AdaHealthConfig::quick("doomed"), Arc::clone(&log)).cancel_token(token),
        )
        .unwrap();
    let survivor = service
        .submit(JobSpec::new(AdaHealthConfig::quick("survivor"), log))
        .unwrap();
    assert_eq!(service.wait(doomed).unwrap(), SessionState::Cancelled);
    assert!(matches!(
        service.wait(survivor).unwrap(),
        SessionState::Completed(_)
    ));
    service.shutdown();

    // Replay after an interleaved, partially-cancelled run: the store
    // opens, schema collections exist, and only the survivor produced
    // knowledge items.
    let reopened = Kdb::open(&path).unwrap();
    let clusters = reopened.collection("cluster_knowledge").unwrap();
    assert!(!clusters.find(&Filter::eq("session", "survivor")).is_empty());
    assert!(clusters.find(&Filter::eq("session", "doomed")).is_empty());
    std::fs::remove_file(&path).ok();
}
