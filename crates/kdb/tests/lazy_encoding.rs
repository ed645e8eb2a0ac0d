//! A stored document's canonical-encoding slot (`ada_kdb::Stored`) is
//! filled by a listing and by nothing else: not by an insert, an update,
//! a journal replay, a replicated apply, a snapshot image or a
//! compaction. An eager fill would encode every record of every
//! collection (stream checkpoints included) and hold the text for the
//! life of the document; these counts catch it.

use std::path::Path;
use std::sync::Arc;

use ada_kdb::{Document, Kdb, MemStorage, SharedKdb, StoreOptions};

const RECORDS: usize = 60;

fn record(i: usize) -> Document {
    Document::new()
        .with("session", format!("s-{i}").as_str())
        .with("wall_ms", i as f64)
}

fn options(mem: &MemStorage) -> StoreOptions {
    StoreOptions::with_storage(Arc::new(mem.clone()))
}

#[test]
fn writing_and_reopening_fill_no_slot() {
    let mem = MemStorage::new();
    let path = Path::new("kdb.journal");
    let mut plain = Kdb::open_with(path, options(&mem)).unwrap();
    plain.create_collection("sessions").unwrap();
    plain.ensure_index("sessions", "session").unwrap();
    for i in 0..RECORDS {
        plain.insert("sessions", record(i)).unwrap();
    }
    plain.update("sessions", 3, record(1_000)).unwrap();
    plain.delete("sessions", 4).unwrap();
    let _ = plain.fingerprint();
    plain.snapshot().unwrap();
    let coll = plain.collection("sessions").unwrap();
    assert_eq!(coll.len(), RECORDS - 1);
    assert_eq!(coll.encoded_count(), 0, "a plain store's writes encoded");
    drop(plain);

    let shared = SharedKdb::open_with(path, options(&mem)).unwrap();
    let image = shared.read();
    assert_eq!(
        image.collection("sessions").unwrap().encoded_count(),
        0,
        "replay encoded"
    );
    for i in 0..RECORDS {
        shared.insert("sessions", record(i)).unwrap();
    }
    let follower = SharedKdb::in_memory();
    for op in shared.read().state_ops() {
        follower.apply_replicated(op).unwrap();
    }
    for db in [&shared, &follower] {
        let image = db.read();
        let coll = image.collection("sessions").unwrap();
        assert_eq!(coll.len(), 2 * RECORDS - 1);
        assert_eq!(
            coll.encoded_count(),
            0,
            "writes or a replicated apply encoded"
        );
    }

    // A listing fills exactly the slots it serves, and the live store's
    // next image shares them.
    let image = shared.read();
    let coll = image.collection("sessions").unwrap();
    let listed: Vec<String> = coll
        .iter_after(10)
        .take(5)
        .map(|(_, doc)| doc.canonical().to_owned())
        .collect();
    assert_eq!(listed.len(), 5);
    assert_eq!(coll.encoded_count(), 5);
    shared.insert("sessions", record(RECORDS)).unwrap();
    let next = shared.read();
    assert_eq!(next.collection("sessions").unwrap().encoded_count(), 5);
    for ((_, doc), text) in coll.iter_after(10).zip(&listed) {
        assert_eq!(&doc.encode(), text);
    }
}
