//! Replication integration: a primary and a warm standby over real TCP.
//!
//! The invariants under test are the crate's headline guarantees:
//! a caught-up follower is **byte-identical** to the primary (same
//! state fingerprint, same journal bytes), a partitioned follower
//! reconnects and converges, and a promoted follower is exactly the
//! acked prefix of the primary — nothing more, nothing less.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ada_fleet::{FleetNode, ReplFollower, ReplListener, ReplSource};
use ada_kdb::{Document, MemStorage, SharedKdb, StoreOptions, Value};
use ada_net::MAX_FRAME_LEN;
use ada_obs::ReplMetrics;

fn mem_kdb(path: &str) -> SharedKdb {
    SharedKdb::open_with(
        Path::new(path),
        StoreOptions::with_storage(Arc::new(MemStorage::new())),
    )
    .unwrap()
}

fn patient(id: i64, exams: i64) -> Document {
    Document::new()
        .with("patient", id)
        .with("exams", exams)
        .with("ward", Value::Str(format!("ward-{}", id % 4)))
}

/// Polls `cond` every 5ms for up to 5s.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    wait_within(5, what, cond);
}

/// Polls `cond` every 5ms for up to `secs` seconds.
fn wait_within(secs: u64, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn tcp_replication_converges_byte_identical_and_survives_reconnect() {
    let primary = mem_kdb("fleet_primary.journal");
    primary.create_collection("patients").unwrap();
    primary.create_index("patients", "ward").unwrap();
    let ids: Vec<_> = (0..40i64)
        .map(|i| primary.insert("patients", patient(i, i % 7)).unwrap())
        .collect();

    let metrics = Arc::new(ReplMetrics::new());
    let source = ReplSource::new(Arc::clone(&metrics));
    let listener = ReplListener::start(primary.clone(), source, "127.0.0.1:0").unwrap();
    let repl_addr = listener.local_addr();

    let follower_metrics = Arc::new(ReplMetrics::new());
    let replica = mem_kdb("fleet_follower.journal");
    let follower = ReplFollower::start(repl_addr, replica, Arc::clone(&follower_metrics));

    // Live writes after the follower attached: updates and deletes ride
    // the tap, the earlier inserts ride the bootstrap snapshot.
    for (i, id) in ids.iter().take(10).enumerate() {
        primary
            .update("patients", *id, patient(i as i64, 99))
            .unwrap();
    }
    primary.delete("patients", ids[39]).unwrap();
    primary.sync().unwrap();

    let want = primary.journal_acked_ops();
    wait_for("follower to ack the full journal", || {
        follower.acked() >= want
    });
    assert!(follower.halted().is_none(), "replication must not halt");

    let engine = follower.engine();
    assert_eq!(
        primary.read().fingerprint(),
        engine.lock().fingerprint(),
        "caught-up follower state must match the primary"
    );
    assert_eq!(
        primary.journal_image().unwrap(),
        engine.lock().kdb().journal_image().unwrap(),
        "a clean replicated journal must be byte-identical"
    );

    // Partition: the primary's replication endpoint dies; writes keep
    // landing on the primary while the follower retries with backoff.
    listener.shutdown();
    for i in 100..120i64 {
        primary.insert("patients", patient(i, 1)).unwrap();
    }
    primary.sync().unwrap();

    // Heal: a fresh endpoint on the same address. The follower's
    // re-Hello fetches a snapshot covering the missed writes; overlap
    // frames are verified duplicates, skipped, never double-applied.
    let source2 = ReplSource::new(Arc::clone(&metrics));
    let _listener2 = ReplListener::start(primary.clone(), source2, repl_addr).unwrap();
    let want = primary.journal_acked_ops();
    wait_for("follower to catch up after the partition heals", || {
        follower.acked() >= want
    });
    assert!(follower.halted().is_none());
    assert_eq!(primary.read().fingerprint(), engine.lock().fingerprint());
    assert_eq!(
        primary.journal_image().unwrap(),
        engine.lock().kdb().journal_image().unwrap()
    );

    let snap = follower_metrics.snapshot();
    assert_eq!(snap.rejects_gap, 0, "clean link must never gap");
    assert_eq!(snap.rejects_corrupt, 0, "clean link must never corrupt");
    assert!(snap.frames_applied >= want, "applied ops reach the metrics");
}

#[test]
fn compaction_under_a_live_follower_rebootstraps_authoritatively() {
    let primary = mem_kdb("fleet_compact_p.journal");
    primary.create_collection("patients").unwrap();
    let ids: Vec<_> = (0..30i64)
        .map(|i| primary.insert("patients", patient(i, 1)).unwrap())
        .collect();
    // History the compaction will collapse: updates and deletes mean
    // the compacted journal holds fewer ops than the follower applied.
    for id in ids.iter().take(12) {
        primary.update("patients", *id, patient(-1, 5)).unwrap();
    }
    for id in ids.iter().skip(20) {
        primary.delete("patients", *id).unwrap();
    }
    primary.sync().unwrap();

    let metrics = Arc::new(ReplMetrics::new());
    let source = ReplSource::new(Arc::clone(&metrics));
    let listener = ReplListener::start(primary.clone(), source, "127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_compact_f.journal"),
        Arc::new(ReplMetrics::new()),
    );
    let want = primary.journal_acked_ops();
    wait_for("follower to ack the pre-compaction journal", || {
        follower.acked() >= want
    });

    // Compact the live primary: the journal collapses to current state
    // and the frame sequence space restarts — the follower's applied
    // count means nothing against the new image.
    primary.snapshot().unwrap();
    for i in 500..510i64 {
        primary.insert("patients", patient(i, 9)).unwrap();
    }
    primary.sync().unwrap();

    let engine = follower.engine();
    wait_for("follower to converge on the compacted lineage", || {
        primary.read().fingerprint() == engine.lock().fingerprint()
    });
    assert!(
        follower.halted().is_none(),
        "compaction must re-bootstrap, not halt: {:?}",
        follower.halted()
    );
    assert_eq!(
        primary.journal_image().unwrap(),
        engine.lock().kdb().journal_image().unwrap(),
        "post-compaction replica journal must be byte-identical"
    );
    let snap = metrics.snapshot();
    assert!(
        snap.snapshots >= 2,
        "the epoch change must force a fresh authoritative snapshot, got {}",
        snap.snapshots
    );
}

#[test]
fn source_overflow_recovers_via_suffix_catchup_without_reimaging() {
    let primary = mem_kdb("fleet_overflow_p.journal");
    primary.create_collection("patients").unwrap();
    for i in 0..20i64 {
        primary.insert("patients", patient(i, 1)).unwrap();
    }
    primary.sync().unwrap();

    // A tiny queue so a write burst overflows between shipper drains.
    let metrics = Arc::new(ReplMetrics::new());
    let source = ReplSource::with_capacity(Arc::clone(&metrics), 4);
    let listener =
        ReplListener::start(primary.clone(), Arc::clone(&source), "127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_overflow_f.journal"),
        Arc::new(ReplMetrics::new()),
    );
    let want = primary.journal_acked_ops();
    wait_for("follower to bootstrap", || follower.acked() >= want);

    // Burst until the queue drops frames and goes sticky-overflowed.
    let mut next = 1000i64;
    for _ in 0..200 {
        if source.overflowed() {
            break;
        }
        for _ in 0..16 {
            primary.insert("patients", patient(next, 2)).unwrap();
            next += 1;
        }
    }
    assert!(source.overflowed(), "burst never overflowed the queue");
    primary.sync().unwrap();

    // Recovery: Reset → re-Hello (same lineage) → suffix CatchUp. The
    // overflow dropped frames, but the journal has them all; nothing
    // here may gap, halt, or require a second full image.
    let want = primary.journal_acked_ops();
    wait_for("follower to catch up past the overflow", || {
        follower.acked() >= want
    });
    assert!(follower.halted().is_none(), "{:?}", follower.halted());
    let engine = follower.engine();
    assert_eq!(primary.read().fingerprint(), engine.lock().fingerprint());
    assert_eq!(
        primary.journal_image().unwrap(),
        engine.lock().kdb().journal_image().unwrap()
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.snapshots, 1,
        "same-lineage overflow recovery must use the frame suffix, not a re-image"
    );
}

/// A 1 MiB document: each is a journal frame far below the 16 MiB
/// ADAN1 frame cap, eighteen of them a journal above it.
fn bulky(id: i64) -> Document {
    Document::new()
        .with("patient", id)
        .with("notes", Value::Str("n".repeat(1 << 20)))
}

/// Waits until `follower` acks everything `primary` journaled (or
/// halts), then checks the two are byte-identical.
fn assert_converges(primary: &SharedKdb, follower: &ReplFollower) {
    let want = primary.journal_acked_ops();
    wait_within(60, "follower to ack the whole journal", || {
        follower.acked() >= want || follower.halted().is_some()
    });
    assert!(follower.halted().is_none(), "{:?}", follower.halted());
    let engine = follower.engine();
    assert_eq!(primary.read().fingerprint(), engine.lock().fingerprint());
    assert!(
        primary.journal_image().unwrap() == engine.lock().kdb().journal_image().unwrap(),
        "replicated journal must be byte-identical"
    );
}

#[test]
fn a_journal_over_the_frame_cap_bootstraps_in_chunks() {
    let primary = mem_kdb("fleet_big_boot_p.journal");
    primary.create_collection("notes").unwrap();
    for i in 0..18i64 {
        primary.insert("notes", bulky(i)).unwrap();
    }
    primary.sync().unwrap();
    assert!(primary.journal_image().unwrap().len() > MAX_FRAME_LEN);

    let listener = ReplListener::start(
        primary.clone(),
        ReplSource::new(Arc::new(ReplMetrics::new())),
        "127.0.0.1:0",
    )
    .unwrap();
    let follower = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_big_boot_f.journal"),
        Arc::new(ReplMetrics::new()),
    );
    assert_converges(&primary, &follower);
}

#[test]
fn a_missed_suffix_over_the_frame_cap_catches_up_in_chunks() {
    let primary = mem_kdb("fleet_big_suffix_p.journal");
    primary.create_collection("notes").unwrap();
    for i in 0..5i64 {
        primary.insert("notes", patient(i, 1)).unwrap();
    }
    primary.sync().unwrap();
    let metrics = Arc::new(ReplMetrics::new());
    let source = ReplSource::with_capacity(Arc::clone(&metrics), 4);
    let listener =
        ReplListener::start(primary.clone(), Arc::clone(&source), "127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_big_suffix_f.journal"),
        Arc::new(ReplMetrics::new()),
    );
    let want = primary.journal_acked_ops();
    wait_for("follower to bootstrap", || follower.acked() >= want);

    // Holding the replica stalls the follower at its next message, so
    // the burst overflows the queue (a forced Reset) and the bulky
    // writes behind it reach the follower only through its re-Hello:
    // one missed suffix above the frame cap.
    let engine = follower.engine();
    let held = engine.lock();
    let mut next = 100i64;
    while !source.overflowed() {
        for _ in 0..16 {
            primary.insert("notes", patient(next, 2)).unwrap();
            next += 1;
        }
    }
    let before = primary.journal_image().unwrap().len();
    for i in 0..18i64 {
        primary.insert("notes", bulky(i)).unwrap();
    }
    primary.sync().unwrap();
    assert!(primary.journal_image().unwrap().len() - before > MAX_FRAME_LEN);
    drop(held);

    assert_converges(&primary, &follower);
    assert_eq!(
        metrics.snapshot().snapshots,
        1,
        "the suffix must ship as catch-ups, not a re-image"
    );
}

#[test]
fn surplus_follower_is_rejected_visibly_then_attaches_when_the_slot_frees() {
    let primary = mem_kdb("fleet_surplus_p.journal");
    primary.create_collection("patients").unwrap();
    for i in 0..15i64 {
        primary.insert("patients", patient(i, 3)).unwrap();
    }
    primary.sync().unwrap();

    let source = ReplSource::new(Arc::new(ReplMetrics::new()));
    let listener = ReplListener::start(primary.clone(), source, "127.0.0.1:0").unwrap();
    let first = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_surplus_f1.journal"),
        Arc::new(ReplMetrics::new()),
    );
    let want = primary.journal_acked_ops();
    wait_for("first follower to attach", || first.acked() >= want);

    // A second follower is told "no" instead of rotting in the accept
    // backlog — visible, non-fatal, still retrying.
    let second = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_surplus_f2.journal"),
        Arc::new(ReplMetrics::new()),
    );
    wait_for("surplus follower to surface the rejection", || {
        second.last_reject().is_some()
    });
    assert!(second.halted().is_none(), "rejection must not be fatal");
    assert_eq!(second.acked(), 0, "a rejected follower replicates nothing");

    // The slot frees (first follower promoted away); the surplus
    // follower's next retry attaches and replicates for real.
    drop(first);
    wait_for("second follower to take the freed slot", || {
        second.acked() >= want
    });
    assert!(second.halted().is_none());
    assert_eq!(
        primary.read().fingerprint(),
        second.engine().lock().fingerprint()
    );
}

#[test]
fn promoted_follower_is_exactly_the_acked_prefix() {
    let primary = mem_kdb("fleet_prefix_p.journal");
    primary.create_collection("patients").unwrap();
    for i in 0..25i64 {
        primary.insert("patients", patient(i, 2)).unwrap();
    }
    primary.sync().unwrap();

    let source = ReplSource::new(Arc::new(ReplMetrics::new()));
    let listener = ReplListener::start(primary.clone(), source, "127.0.0.1:0").unwrap();
    let follower = ReplFollower::start(
        listener.local_addr(),
        mem_kdb("fleet_prefix_f.journal"),
        Arc::new(ReplMetrics::new()),
    );
    let want = primary.journal_acked_ops();
    wait_for("follower to ack the prefix", || follower.acked() >= want);
    let golden = primary.read().fingerprint();

    // The primary dies mid-flight: the endpoint goes away and three
    // writes land that are never shipped or acked.
    listener.shutdown();
    for i in 200..203i64 {
        primary.insert("patients", patient(i, 0)).unwrap();
    }
    primary.sync().unwrap();
    assert_ne!(primary.read().fingerprint(), golden);

    // Promotion: stop tailing, take the store writable. The replica is
    // exactly the acked prefix — the unshipped suffix never leaks in.
    let engine = follower.shutdown();
    let engine = engine.lock();
    assert_eq!(engine.acked_ops(), want);
    assert_eq!(engine.fingerprint(), golden);

    // And it accepts writes as a primary would.
    let promoted = engine.kdb().clone();
    drop(engine);
    let id = promoted.insert("patients", patient(999, 1)).unwrap();
    promoted.sync().unwrap();
    assert!(promoted.journal_acked_ops() > want);
    let found = promoted
        .read()
        .find("patients", &ada_kdb::Filter::eq("patient", 999i64))
        .unwrap();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, id);
}

#[test]
fn fleet_node_pair_replicates_sessions_and_promotes() {
    use ada_core::AdaHealthConfig;
    use ada_dataset::synthetic::{generate, SyntheticConfig};
    use ada_net::NetConfig;
    use ada_service::{JobSpec, ServiceConfig, ServiceError, SessionState};

    let cohort = SyntheticConfig {
        num_patients: 40,
        num_exam_types: 12,
        target_records: 400,
        ..SyntheticConfig::small()
    };
    let service_cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };

    let primary = FleetNode::start_primary(
        "alpha",
        service_cfg.clone(),
        mem_kdb("fleet_node_p.journal"),
        NetConfig::default(),
    )
    .unwrap();
    let repl_addr = primary.repl_addr().expect("primary ships its journal");
    let mut standby = FleetNode::start_follower(
        "beta",
        service_cfg,
        mem_kdb("fleet_node_f.journal"),
        NetConfig::default(),
        repl_addr,
    )
    .unwrap();

    // Roles are visible in health, and the standby refuses writes.
    assert!(matches!(
        standby.service().submit(JobSpec::new(
            AdaHealthConfig::quick("rejected"),
            Arc::new(generate(&cohort, 7)),
        )),
        Err(ServiceError::Follower)
    ));

    // A session completed on the primary becomes queryable on the
    // standby once its persisted record replicates.
    let id = primary
        .service()
        .submit(JobSpec::new(
            AdaHealthConfig::quick("replicated-session"),
            Arc::new(generate(&cohort, 11)),
        ))
        .unwrap();
    assert!(matches!(
        primary.service().wait(id).unwrap(),
        SessionState::Completed(_)
    ));
    primary.service().kdb().sync().unwrap();
    wait_for("session record to replicate to the standby", || {
        !standby.service().past_sessions().is_empty()
    });

    // Promotion flips the standby writable in place; round two runs on
    // the survivor.
    let primary_metrics = primary.shutdown();
    assert_eq!(primary_metrics.protocol_errors, 0);
    assert!(standby.promote().unwrap());
    assert!(!standby.promote().unwrap(), "second promote is a no-op");
    let id = standby
        .service()
        .submit(JobSpec::new(
            AdaHealthConfig::quick("after-failover"),
            Arc::new(generate(&cohort, 13)),
        ))
        .unwrap();
    assert!(matches!(
        standby.service().wait(id).unwrap(),
        SessionState::Completed(_)
    ));
    assert_eq!(standby.service().past_sessions().len(), 2);

    // The promoted node's exposition carries the repl + fleet families.
    let exposition = standby.exposition();
    assert!(exposition.contains("# TYPE ada_repl_frames_applied_total counter"));
    assert!(exposition.contains("# TYPE ada_fleet_promotions_total counter"));
    standby.shutdown();
}

#[test]
fn promoted_follower_resumes_a_stream_from_the_last_durable_watermark() {
    use ada_dataset::synthetic::{generate, SyntheticConfig};
    use ada_dataset::{ExamRecord, StreamOrder};
    use ada_net::NetConfig;
    use ada_service::{AnalysisService, ServiceConfig, ServiceError};
    use ada_stream::StreamConfig;

    let stream = || {
        StreamConfig::new("ward-7")
            .window_days(7)
            .lateness_days(7)
            .k(3)
            .min_rows(8)
            .update_iters(3)
            .refit_iters(30)
    };
    let log = generate(
        &SyntheticConfig {
            num_patients: 60,
            num_exam_types: 20,
            target_records: 900,
            ..SyntheticConfig::small()
        },
        7,
    );
    let feed: Vec<ExamRecord> = StreamOrder::new(&log, 7, 5).collect();
    let ingest = |service: &AnalysisService, records: &[ExamRecord]| {
        for batch in records.chunks(17) {
            while let Err(err) = service.stream_ingest("ward-7", batch.to_vec()) {
                assert!(matches!(err, ServiceError::Busy { .. }), "{err}");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let fingerprints = |status: &Document| {
        let model = status.get("model").and_then(Value::as_doc).unwrap();
        (
            status.get("vsm_fp").cloned(),
            model.get("fingerprint").cloned(),
            status.get("windows_closed").cloned(),
        )
    };

    // Reference: the whole feed on one node.
    let single = AnalysisService::new(ServiceConfig::default(), SharedKdb::in_memory());
    assert_eq!(single.stream_open(stream()).unwrap(), 0);
    ingest(&single, &feed);
    let expected = fingerprints(&single.stream_seal("ward-7").unwrap());
    single.shutdown();

    let primary = FleetNode::start_primary(
        "alpha",
        ServiceConfig::default(),
        mem_kdb("fleet_stream_p.journal"),
        NetConfig::default(),
    )
    .unwrap();
    let mut standby = FleetNode::start_follower(
        "beta",
        ServiceConfig::default(),
        mem_kdb("fleet_stream_f.journal"),
        NetConfig::default(),
        primary.repl_addr().unwrap(),
    )
    .unwrap();

    // The primary folds half the feed; every closed window is a
    // checkpoint the standby acknowledges before the primary dies.
    assert_eq!(primary.service().stream_open(stream()).unwrap(), 0);
    ingest(primary.service(), &feed[..feed.len() / 2]);
    let status = primary.service().stream_query("ward-7").unwrap();
    let closed = status
        .get("windows_closed")
        .and_then(Value::as_i64)
        .unwrap();
    assert!(closed > 0, "some windows closed on the primary");
    let kdb = primary.service().kdb();
    kdb.sync().unwrap();
    let durable = kdb.journal_acked_ops();
    wait_for("the standby to ack the journal", || {
        standby.acked_ops() >= durable
    });
    primary.shutdown();

    // The promoted standby replays the checkpoints, and the source
    // re-delivers its feed: the folded prefix drops as late, the rest
    // folds exactly once.
    assert!(standby.promote().unwrap());
    let resumed = standby.service().stream_open(stream()).unwrap();
    assert_eq!(resumed, closed as u64, "every closed window replayed");
    ingest(standby.service(), &feed);
    let sealed = standby.service().stream_seal("ward-7").unwrap();
    assert_eq!(fingerprints(&sealed), expected);
    standby.shutdown();
}
