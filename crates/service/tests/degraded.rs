//! Degraded-mode integration: persistent journal faults mid-fleet must
//! flip the service to read-only instead of failing every write, while
//! in-flight sessions still reach a terminal state and reads keep
//! working.

use std::path::Path;
use std::sync::Arc;

use ada_core::AdaHealthConfig;
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_kdb::{FaultKind, FaultyStorage, MemStorage, SharedKdb, StoreOptions, Value};
use ada_service::{AnalysisService, JobSpec, ServiceConfig, ServiceError, SessionState};

fn cohort_cfg() -> SyntheticConfig {
    SyntheticConfig {
        num_patients: 60,
        num_exam_types: 12,
        target_records: 700,
        ..SyntheticConfig::small()
    }
}

#[test]
fn persistent_journal_faults_degrade_service_to_read_only() {
    let mem: Arc<MemStorage> = Arc::new(MemStorage::new());
    let (storage, faults) = FaultyStorage::wrap(mem);
    let kdb = SharedKdb::open_with(
        Path::new("svc_degraded.journal"),
        StoreOptions::with_storage(storage),
    )
    .unwrap();
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 2,
            degrade_after: 2,
            ..ServiceConfig::default()
        },
        kdb,
    );

    // Healthy fleet first: everything completes and persists.
    let healthy: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(JobSpec::new(
                    AdaHealthConfig::quick(format!("healthy-{i}")),
                    Arc::new(generate(&cohort_cfg(), 900 + i as u64)),
                ))
                .unwrap()
        })
        .collect();
    for id in healthy {
        assert!(matches!(
            service.wait(id).unwrap(),
            SessionState::Completed(_)
        ));
    }
    assert!(!service.is_degraded());
    let persisted_before = service.past_sessions().len();
    assert_eq!(persisted_before, 3);

    // Disk starts rejecting every write: each affected session must still
    // reach a terminal state, never hang.
    faults.fail_persistently(FaultKind::NoSpace);
    let doomed: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(JobSpec::new(
                    AdaHealthConfig::quick(format!("doomed-{i}")),
                    Arc::new(generate(&cohort_cfg(), 950 + i as u64)),
                ))
                .unwrap()
        })
        .collect();
    let mut failed = 0;
    for id in doomed {
        match service.wait(id).unwrap() {
            SessionState::Failed { .. } => failed += 1,
            SessionState::Completed(_) => {}
            other => panic!("session not terminal after faults: {other:?}"),
        }
    }
    assert!(failed > 0, "no session observed the injected write faults");

    // The service trips to read-only instead of erroring per write.
    assert!(service.is_degraded());
    let err = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("rejected"),
            Arc::new(generate(&cohort_cfg(), 999)),
        ))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Degraded));

    // Reads keep working and still see the pre-fault state.
    assert_eq!(service.past_sessions().len(), persisted_before);

    // The transition is visible in health, metrics and the snapshot.
    let health = service.health();
    assert_eq!(health.get("status"), Some(&Value::Str("degraded".into())));
    assert_eq!(health.get("accepting_writes"), Some(&Value::Bool(false)));
    let metrics = service.metrics();
    assert!(metrics.degraded());
    assert_eq!(metrics.degraded_transitions, 1);
    assert!(metrics.persist_failures > 0);
    assert!(metrics.journal_faults >= 2);
    let snapshot = service.snapshot();
    match snapshot.get("health") {
        Some(Value::Doc(doc)) => {
            assert_eq!(doc.get("status"), Some(&Value::Str("degraded".into())));
        }
        other => panic!("snapshot missing health document: {other:?}"),
    }

    service.shutdown();
}

#[test]
fn follower_refuses_writes_until_promoted() {
    let kdb = SharedKdb::open_with(
        Path::new("svc_follower.journal"),
        StoreOptions::with_storage(Arc::new(MemStorage::new())),
    )
    .unwrap();
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 1,
            follower: true,
            ..ServiceConfig::default()
        },
        kdb,
    );

    // Born a follower: status/role say so, writes are refused with the
    // dedicated (non-sticky) error, reads still work.
    assert!(service.is_follower());
    let health = service.health();
    assert_eq!(health.get("status"), Some(&Value::Str("follower".into())));
    assert_eq!(health.get("role"), Some(&Value::Str("follower".into())));
    assert_eq!(health.get("accepting_writes"), Some(&Value::Bool(false)));
    let err = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("standby-rejected"),
            Arc::new(generate(&cohort_cfg(), 7001)),
        ))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Follower));
    assert_eq!(service.past_sessions().len(), 0);

    // Promotion flips the node to primary exactly once; work flows.
    assert!(service.promote());
    assert!(!service.promote(), "promote must be idempotent");
    assert!(!service.is_follower());
    let health = service.health();
    assert_eq!(health.get("status"), Some(&Value::Str("ok".into())));
    assert_eq!(health.get("role"), Some(&Value::Str("primary".into())));
    assert_eq!(health.get("accepting_writes"), Some(&Value::Bool(true)));
    let id = service
        .submit(JobSpec::new(
            AdaHealthConfig::quick("post-promotion"),
            Arc::new(generate(&cohort_cfg(), 7002)),
        ))
        .unwrap();
    assert!(matches!(
        service.wait(id).unwrap(),
        SessionState::Completed(_)
    ));

    service.shutdown();
}
