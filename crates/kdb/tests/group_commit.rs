//! `DurabilityPolicy::Always` accounting through the sharded group
//! committer under fsync faults: the ops of a failed round stay acked
//! but non-durable, the round counts as one fault, the acked prefix is
//! preserved, and a later successful round (which fsyncs the whole
//! file) re-covers them.

use std::path::Path;
use std::sync::Arc;

use ada_kdb::{
    Document, DurabilityPolicy, FaultKind, FaultyStorage, Kdb, MemStorage, SharedKdb, Storage,
    StoreOptions,
};

fn faulty_store() -> (SharedKdb, MemStorage, ada_kdb::FaultHandle) {
    let mem = MemStorage::new();
    let (storage, handle) = FaultyStorage::wrap(Arc::new(mem.clone()) as Arc<dyn Storage>);
    let db = SharedKdb::open_with(
        Path::new("j"),
        StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always),
    )
    .unwrap();
    (db, mem, handle)
}

fn doc(tag: i64) -> Document {
    Document::new().with("tag", tag)
}

/// Serial shape first, so the per-round accounting is deterministic:
/// one writer's every op is its own round. Rounds before the fault sync
/// clean, the faulted round leaves exactly its op non-durable and
/// counts once, and the next clean round re-covers it.
#[test]
fn fsync_fault_mid_batch_leaves_exactly_that_batch_non_durable() {
    let (db, mem, handle) = faulty_store();

    db.create_collection("items").unwrap();
    for tag in 2..=4 {
        let (_, durable) = db.insert_committed("items", doc(tag)).unwrap();
        assert!(durable, "a clean round acks durable");
    }
    assert_eq!(db.journal_acked_ops(), 4);
    assert_eq!(db.journal_durable_ops(), 4);
    assert_eq!(db.journal_fault_count(), 0);

    // The next op's append takes one storage tick and its round's fsync
    // the one after: fail that fsync. The write landed, so the op stays
    // acked, is not durable, and the round counts as ONE fault.
    handle.fail_at(handle.ticks() + 1, FaultKind::SyncFail);
    let (_, d5) = db.insert_committed("items", doc(5)).unwrap();
    assert!(!d5, "the failed round's op is acked non-durable");
    assert_eq!(db.journal_acked_ops(), 5, "acked prefix preserved");
    assert_eq!(
        db.journal_durable_ops(),
        4,
        "exactly the failed round's op is non-durable"
    );
    assert_eq!(db.journal_fault_count(), 1, "one fault per failed round");
    assert_eq!(db.group_commit_stats().failures, 1);

    // The next round fsyncs the whole file, re-covering op 5.
    let (_, d6) = db.insert_committed("items", doc(6)).unwrap();
    assert!(d6);
    assert_eq!(
        db.journal_durable_ops(),
        6,
        "fsync re-covers the failed round"
    );
    assert_eq!(db.journal_fault_count(), 1, "no new faults");

    // Replay: every acked op is in the image (the acked prefix is the
    // whole journal — appends landed even when their fsync failed).
    let expected = db.read().fingerprint();
    drop(db);
    let reopened =
        Kdb::open_with(Path::new("j"), StoreOptions::with_storage(Arc::new(mem))).unwrap();
    assert_eq!(reopened.fingerprint(), expected);
    assert_eq!(reopened.collection("items").unwrap().len(), 5);
}

/// Concurrent appenders racing through the group committer while fsync
/// faults fire at scattered ticks: acks never lie (an op reported
/// durable is within the durable watermark), every failed round counts
/// once, the acked prefix survives replay, and a final clean sync
/// converges durable == acked.
#[test]
fn concurrent_batch_appenders_survive_scattered_fsync_faults() {
    const WRITERS: usize = 4;
    const OPS: usize = 25;
    let (db, mem, handle) = faulty_store();
    for w in 0..WRITERS {
        db.create_collection(&format!("w{w}")).unwrap();
    }
    // Scatter one-shot fsync faults across the run. Ticks count every
    // storage op, so some land on appends (where a sync fault does
    // nothing) and some on group fsyncs — only the latter fail rounds.
    for tick in [30, 55, 80, 110, 140] {
        handle.fail_at(tick, FaultKind::SyncFail);
    }
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let db = db.clone();
            scope.spawn(move || {
                let coll = format!("w{w}");
                for i in 0..OPS {
                    let (_, durable) = db.insert_committed(&coll, doc(i as i64)).unwrap();
                    if durable {
                        // A durable ack must be backed by the fsync
                        // watermark having reached this op.
                        assert!(db.journal_durable_ops() > 0);
                    }
                }
            });
        }
    });
    let acked = db.journal_acked_ops();
    assert_eq!(acked, (WRITERS * (OPS + 1)) as u64, "no op lost");

    // Close the window: a clean explicit sync makes everything durable.
    handle.clear();
    db.sync().unwrap();
    assert_eq!(db.journal_durable_ops(), acked);

    // Replay reconstructs identical per-collection state.
    let expected = db.read().fingerprint();
    let stats = db.group_commit_stats();
    assert_eq!(db.journal_fault_count(), stats.failures);
    drop(db);
    let reopened =
        Kdb::open_with(Path::new("j"), StoreOptions::with_storage(Arc::new(mem))).unwrap();
    assert_eq!(reopened.fingerprint(), expected);
    for w in 0..WRITERS {
        assert_eq!(reopened.collection(&format!("w{w}")).unwrap().len(), OPS);
    }
}
