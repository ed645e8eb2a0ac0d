//! Golden journal bytes: one fixed write script run through `Kdb` and
//! through `SharedKdb`, and one replicated op of every kind applied to a
//! follower, must leave exactly the journals pinned here.
//!
//! The torture and replication gates compare a store with another store
//! of the same build, so a change that moves both alike — an `_id` lost
//! from an `Insert` frame, or one added to an `Update` frame — passes
//! them. These literals were captured by running this file at the commit
//! before the K-DB writers moved to check → append → apply (with
//! `apply_replicated` then taking `&Op`); every later write path must
//! land on exactly these bytes.

use std::path::Path;
use std::sync::Arc;

use ada_kdb::journal::Op;
use ada_kdb::{Document, Kdb, MemStorage, SharedKdb, Storage, StoreOptions};

/// The script's journal, one frame per line: the repeated `ensure_*`
/// calls write nothing, `Insert` frames carry the assigned `_id`, and
/// `Update` frames carry the caller's document as given.
const SCRIPT_JOURNAL: &str = concat!(
    "ADAJ2\n",
    "R9:0:a2396f27:CS5:items",
    "R16:1:e5bc0eca:XS5:itemsS4:kind",
    "R9:2:423c20e6:CS5:notes",
    "R15:3:ecae9f65:XS5:notesS3:tag",
    "R51:4:6fd0e6ac:IS5:itemsI1;O3:3:_idI1;4:kindS7:cluster5:scoreF0.9;",
    "R51:5:8d36b74e:IS5:itemsI2;O3:3:_idI2;4:kindS7:pattern5:scoreF0.5;",
    "R50:6:b6ffbfd7:IS5:itemsI3;O3:3:_idI3;4:kindS6:signal5:scoreF0.3;",
    "R43:7:58d537e0:US5:itemsI1;O2:4:kindS7:cluster5:scoreF0.7;",
    "R51:8:85f532a2:US5:itemsI2;O3:3:_idI2;4:kindS7:pattern5:scoreF0.1;",
    "R12:9:3190a561:DS5:itemsI3;",
);

/// One replicated op of each kind, journaled exactly as received.
const REPLICATED_JOURNAL: &str = concat!(
    "ADAJ2\n",
    "R9:0:a2396f27:CS5:items",
    "R16:1:e5bc0eca:XS5:itemsS4:kind",
    "R51:2:fb70c599:IS5:itemsI7;O3:3:_idI7;4:kindS7:cluster5:scoreF0.9;",
    "R43:3:c5d70609:US5:itemsI7;O2:4:kindS7:cluster5:scoreF0.4;",
    "R12:4:55fc6065:DS5:itemsI7;",
);

fn item(kind: &str, score: f64) -> Document {
    Document::new().with("kind", kind).with("score", score)
}

fn options(mem: &MemStorage) -> StoreOptions {
    StoreOptions::with_storage(Arc::new(mem.clone()))
}

fn journal(mem: &MemStorage) -> String {
    String::from_utf8(mem.read(Path::new("j")).unwrap()).expect("journal frames are text")
}

/// The document `update_with` derives from document 2: its stored self
/// (`_id` included) with a new score.
fn rescored(current: &Document) -> Document {
    current.clone().with("score", 0.1)
}

#[test]
fn kdb_journals_the_script_byte_identically() {
    let mem = MemStorage::new();
    let mut db = Kdb::open_with(Path::new("j"), options(&mem)).unwrap();
    db.create_collection("items").unwrap();
    db.create_index("items", "kind").unwrap();
    db.ensure_collection("items").unwrap();
    db.ensure_index("items", "kind").unwrap();
    db.ensure_collection("notes").unwrap();
    db.ensure_collection("notes").unwrap();
    db.ensure_index("notes", "tag").unwrap();
    db.ensure_index("notes", "tag").unwrap();
    assert_eq!(db.insert("items", item("cluster", 0.9)).unwrap(), 1);
    assert_eq!(db.insert("items", item("pattern", 0.5)).unwrap(), 2);
    // A caller-supplied `_id` is overwritten by the assigned id.
    assert_eq!(
        db.insert("items", item("signal", 0.3).with("_id", 99i64))
            .unwrap(),
        3
    );
    db.update("items", 1, item("cluster", 0.7)).unwrap();
    let next = rescored(db.collection("items").unwrap().get(2).unwrap());
    db.update("items", 2, next).unwrap();
    db.delete("items", 3).unwrap();
    assert_eq!(journal(&mem), SCRIPT_JOURNAL);
}

#[test]
fn shared_kdb_journals_the_script_byte_identically() {
    let mem = MemStorage::new();
    let db = SharedKdb::open_with(Path::new("j"), options(&mem)).unwrap();
    db.create_collection("items").unwrap();
    db.create_index("items", "kind").unwrap();
    db.ensure_collection("items").unwrap();
    db.ensure_index("items", "kind").unwrap();
    db.ensure_collection("notes").unwrap();
    db.ensure_collection("notes").unwrap();
    db.ensure_index("notes", "tag").unwrap();
    db.ensure_index("notes", "tag").unwrap();
    assert_eq!(db.insert("items", item("cluster", 0.9)).unwrap(), 1);
    assert_eq!(db.insert("items", item("pattern", 0.5)).unwrap(), 2);
    assert_eq!(
        db.insert("items", item("signal", 0.3).with("_id", 99i64))
            .unwrap(),
        3
    );
    db.update("items", 1, item("cluster", 0.7)).unwrap();
    db.update_with("items", 2, rescored).unwrap();
    db.delete("items", 3).unwrap();
    assert_eq!(journal(&mem), SCRIPT_JOURNAL);
}

#[test]
fn replicated_ops_are_journaled_as_received() {
    let mem = MemStorage::new();
    let follower = SharedKdb::open_with(Path::new("j"), options(&mem)).unwrap();
    let ops = [
        Op::CreateCollection {
            name: "items".into(),
        },
        Op::CreateIndex {
            name: "items".into(),
            path: "kind".into(),
        },
        Op::Insert {
            name: "items".into(),
            id: 7,
            doc: item("cluster", 0.9).with("_id", 7i64),
        },
        Op::Update {
            name: "items".into(),
            id: 7,
            doc: item("cluster", 0.4),
        },
        Op::Delete {
            name: "items".into(),
            id: 7,
        },
    ];
    for op in ops {
        follower.apply_replicated(op).unwrap();
    }
    assert_eq!(journal(&mem), REPLICATED_JOURNAL);
}
