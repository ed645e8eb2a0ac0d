//! Cross-crate persistence: pipeline artifacts surviving K-DB restarts.

use ada_health::dataset::synthetic::{generate, SyntheticConfig};
use ada_health::engine::pipeline::{AdaHealth, AdaHealthConfig};
use ada_health::kdb::schema::names;
use ada_health::kdb::{Filter, Kdb, SharedKdb};

fn cfg() -> SyntheticConfig {
    SyntheticConfig {
        num_patients: 120,
        num_exam_types: 25,
        target_records: 1_800,
        ..SyntheticConfig::small()
    }
}

#[test]
fn session_artifacts_survive_reopen() {
    let path = std::env::temp_dir().join(format!("ada_it_kdb_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();

    let (clusters, patterns, feedback);
    {
        let db = Kdb::open(&path).unwrap();
        let mut engine =
            AdaHealth::with_shared_kdb(AdaHealthConfig::quick("persist"), SharedKdb::new(db));
        let report = engine.run(&generate(&cfg(), 3));
        clusters = report.clusters.len();
        // Pattern knowledge = association rules + compliance items.
        patterns = report.rules.len() + report.compliance.as_ref().map_or(0, |c| c.results.len());
        feedback = report.feedback_recorded;
    }

    let reopened = Kdb::open(&path).unwrap();
    assert_eq!(
        reopened.collection(names::CLUSTER_KNOWLEDGE).unwrap().len(),
        clusters
    );
    assert_eq!(
        reopened.collection(names::PATTERN_KNOWLEDGE).unwrap().len(),
        patterns
    );
    assert_eq!(
        reopened.collection(names::FEEDBACK).unwrap().len(),
        feedback
    );
    // Indexes created by the schema are rebuilt from the journal.
    assert!(reopened
        .collection(names::CLUSTER_KNOWLEDGE)
        .unwrap()
        .has_index("session"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn multiple_sessions_accumulate_and_compact() {
    let path = std::env::temp_dir().join(format!("ada_it_snap_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();

    {
        let db = Kdb::open(&path).unwrap();
        let mut engine =
            AdaHealth::with_shared_kdb(AdaHealthConfig::quick("s-a"), SharedKdb::new(db));
        engine.run(&generate(&cfg(), 5));
        engine.run(&generate(&cfg(), 6));
    }
    let size_before = std::fs::metadata(&path).unwrap().len();

    {
        let mut db = Kdb::open(&path).unwrap();
        // Delete one session's feedback, then compact.
        let ids: Vec<u64> = db
            .find(names::FEEDBACK, &Filter::True)
            .unwrap()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            db.delete(names::FEEDBACK, id).unwrap();
        }
        db.snapshot().unwrap();
    }
    let size_after = std::fs::metadata(&path).unwrap().len();
    assert!(
        size_after < size_before,
        "snapshot must shrink the journal ({size_before} -> {size_after})"
    );

    // Everything else still intact.
    let reopened = Kdb::open(&path).unwrap();
    assert_eq!(reopened.collection(names::RAW_DATA).unwrap().len(), 2);
    assert_eq!(reopened.collection(names::FEEDBACK).unwrap().len(), 0);
    assert!(!reopened
        .collection(names::CLUSTER_KNOWLEDGE)
        .unwrap()
        .is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_journal_tail_recovers_previous_sessions() {
    let path = std::env::temp_dir().join(format!("ada_it_torn_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    {
        let db = Kdb::open(&path).unwrap();
        let mut engine =
            AdaHealth::with_shared_kdb(AdaHealthConfig::quick("torn"), SharedKdb::new(db));
        engine.run(&generate(&cfg(), 8));
    }
    // Simulate a crash mid-write.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let recovered = Kdb::open(&path).unwrap();
    // The schema and almost all documents survive; only the torn record
    // is lost.
    for name in names::ALL {
        assert!(recovered.collection(name).is_some(), "lost {name}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn goal_history_reloads_from_reopened_kdb() {
    let path = std::env::temp_dir().join(format!("ada_it_goals_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();

    // Run enough sessions to train the goal-interest model.
    {
        let db = Kdb::open(&path).unwrap();
        let mut engine =
            AdaHealth::with_shared_kdb(AdaHealthConfig::quick("hist"), SharedKdb::new(db));
        for seed in 0..9 {
            engine.run(&generate(&cfg(), 50 + seed));
        }
        assert!(engine.goal_model_active());
    }

    // A fresh engine over the reopened store inherits the history — the
    // model is trained before any new session runs.
    let reopened = Kdb::open(&path).unwrap();
    let engine =
        AdaHealth::with_shared_kdb(AdaHealthConfig::quick("hist2"), SharedKdb::new(reopened));
    assert!(
        engine.goal_model_active(),
        "goal model must retrain from persisted session descriptors"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn ranker_feedback_reloads_from_reopened_kdb() {
    let path = std::env::temp_dir().join(format!("ada_it_rank_{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();

    let recorded;
    {
        let db = Kdb::open(&path).unwrap();
        let mut engine =
            AdaHealth::with_shared_kdb(AdaHealthConfig::quick("rank"), SharedKdb::new(db));
        let report = engine.run(&generate(&cfg(), 17));
        recorded = report.feedback_recorded;
        assert_eq!(engine.ranker_feedback_count(), recorded);
    }

    let reopened = Kdb::open(&path).unwrap();
    let engine =
        AdaHealth::with_shared_kdb(AdaHealthConfig::quick("rank2"), SharedKdb::new(reopened));
    assert_eq!(
        engine.ranker_feedback_count(),
        recorded,
        "ranker must replay persisted feedback"
    );
    std::fs::remove_file(&path).ok();
}
