//! Property tests: canonical encoding, query/index agreement, journal
//! replay equivalence, snapshot isolation and document sharing.

use std::path::Path;
use std::sync::Arc;

use ada_kdb::journal::{
    replay, replay_bytes, DurabilityPolicy, Journal, JournalVersion, Op, RecoveryMode, V2_MAGIC,
};
use ada_kdb::{
    Collection, Document, Filter, Kdb, KdbError, KdbSnapshot, MemStorage, SharedKdb, StoreOptions,
    Value,
};
use proptest::prelude::*;

/// Recursive strategy for arbitrary document values.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        // Finite floats only: NaN breaks PartialEq-based round-trip
        // checks (NaN round-trips structurally; covered by a unit test).
        (-1e15f64..1e15).prop_map(Value::F64),
        "[ -~:;]{0,12}".prop_map(Value::Str),
        "\\PC{0,6}".prop_map(Value::Str), // arbitrary printable unicode
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(|m| {
                let mut d = Document::new();
                for (k, v) in m {
                    d.set(k, v);
                }
                Value::Doc(d)
            }),
        ]
    })
}

fn document_strategy() -> impl Strategy<Value = Document> {
    prop::collection::btree_map("[a-z_]{1,8}", value_strategy(), 0..5).prop_map(|m| {
        let mut d = Document::new();
        for (k, v) in m {
            d.set(k, v);
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn value_encoding_round_trips(v in value_strategy()) {
        let encoded = v.encode();
        let decoded = Value::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, v);
    }

    #[test]
    fn document_encoding_round_trips(d in document_strategy()) {
        let decoded = Document::decode(&d.encode()).unwrap();
        prop_assert_eq!(decoded, d);
    }

    #[test]
    fn concatenated_values_stream_decode(vs in prop::collection::vec(value_strategy(), 1..5)) {
        // The journal relies on self-delimiting encodings.
        let mut buf = String::new();
        for v in &vs {
            v.encode_into(&mut buf);
        }
        let bytes = buf.as_bytes();
        let mut pos = 0;
        for expected in &vs {
            let got = Value::decode_prefix(bytes, &mut pos).unwrap();
            prop_assert_eq!(&got, expected);
        }
        prop_assert_eq!(pos, bytes.len());
    }

    #[test]
    fn indexed_find_matches_scan(
        scores in prop::collection::vec(-50i64..50, 1..60),
        threshold in -50i64..50,
    ) {
        let mut plain = Collection::new("plain");
        let mut indexed = Collection::new("indexed");
        indexed.apply(Op::CreateIndex { name: "indexed".into(), path: "score".into() });
        for &s in &scores {
            let doc = Document::new().with("score", s);
            plain.insert(doc.clone());
            indexed.insert(doc);
        }
        for filter in [
            Filter::eq("score", threshold),
            Filter::Gt("score".into(), Value::I64(threshold)),
            Filter::Lte("score".into(), Value::I64(threshold)),
        ] {
            let a: Vec<u64> = plain.find(&filter).iter().map(|(id, _)| *id).collect();
            let b: Vec<u64> = indexed.find(&filter).iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(a, b, "filter {:?}", filter);
        }
    }

    #[test]
    fn journal_replay_reconstructs_state(docs in prop::collection::vec(document_strategy(), 1..12)) {
        let path = std::env::temp_dir().join(format!(
            "ada_kdb_prop_{}_{:x}.journal",
            std::process::id(),
            docs.len() * 31 + docs.first().map_or(0, |d| d.len())
        ));
        std::fs::remove_file(&path).ok();
        let mut live_docs: Vec<(u64, Document)> = Vec::new();
        {
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("c").unwrap();
            for (i, d) in docs.iter().enumerate() {
                let id = db.insert("c", d.clone()).unwrap();
                if i % 3 == 0 {
                    db.delete("c", id).unwrap();
                } else {
                    live_docs.push((id, db.collection("c").unwrap().get(id).unwrap().clone()));
                }
            }
        }
        let reopened = Kdb::open(&path).unwrap();
        let coll = reopened.collection("c").unwrap();
        prop_assert_eq!(coll.len(), live_docs.len());
        for (id, expected) in &live_docs {
            prop_assert_eq!(coll.get(*id), Some(expected));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn op_encoding_round_trips(name in "[a-z]{1,8}", id in 0u64..1_000_000, doc in document_strategy()) {
        for op in [
            Op::CreateCollection { name: name.clone() },
            Op::CreateIndex { name: name.clone(), path: "a.b".into() },
            Op::Insert { name: name.clone(), id, doc: doc.clone() },
            Op::Update { name: name.clone(), id, doc },
            Op::Delete { name, id },
        ] {
            let mut buf = String::new();
            op.encode_into(&mut buf);
            let mut pos = 0;
            let back = Op::decode_prefix(buf.as_bytes(), &mut pos).unwrap();
            prop_assert_eq!(back, op);
            prop_assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_journal_never_panics(
        docs in prop::collection::vec(document_strategy(), 1..6),
        cut in 1usize..200,
    ) {
        let path = std::env::temp_dir().join(format!(
            "ada_kdb_trunc_{}_{}.journal",
            std::process::id(),
            cut
        ));
        std::fs::remove_file(&path).ok();
        {
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("c").unwrap();
            for d in &docs {
                db.insert("c", d.clone()).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut % bytes.len().max(1));
        std::fs::write(&path, &bytes[..keep]).unwrap();
        // Replay and full open must both handle any torn tail.
        let _ = replay(&path).unwrap();
        let _ = Kdb::open(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_rewrite_is_equivalent(docs in prop::collection::vec(document_strategy(), 1..8)) {
        let path = std::env::temp_dir().join(format!(
            "ada_kdb_rw_{}_{}.journal",
            std::process::id(),
            docs.len()
        ));
        std::fs::remove_file(&path).ok();
        let ops: Vec<Op> = std::iter::once(Op::CreateCollection { name: "c".into() })
            .chain(docs.iter().enumerate().map(|(i, d)| Op::Insert {
                name: "c".into(),
                id: i as u64 + 1,
                doc: d.clone(),
            }))
            .collect();
        {
            let mut j = Journal::open(&path, None).unwrap();
            j.rewrite(&ops).unwrap();
        }
        let replayed = replay(&path).unwrap();
        prop_assert!(!replayed.truncated);
        prop_assert_eq!(replayed.ops, ops);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_byte_mutation_is_caught_or_truncated(
        docs in prop::collection::vec(document_strategy(), 1..6),
        pos_seed in any::<u64>(),
        new_byte in any::<u8>(),
    ) {
        let mem = Arc::new(MemStorage::new());
        let path = Path::new("mutate.journal");
        let golden: Vec<Op> = std::iter::once(Op::CreateCollection { name: "c".into() })
            .chain(docs.iter().enumerate().map(|(i, d)| Op::Insert {
                name: "c".into(),
                id: i as u64 + 1,
                doc: d.clone(),
            }))
            .collect();
        {
            let mut j =
                Journal::open_with(mem.clone(), path, None, DurabilityPolicy::Always).unwrap();
            for op in &golden {
                j.append(op).unwrap();
            }
        }
        let clean = mem.bytes(path).unwrap();
        let pos = (pos_seed as usize) % clean.len();
        let mut mutated = clean.clone();
        mutated[pos] = new_byte;

        let strict = replay_bytes(&mutated, RecoveryMode::Strict);
        if pos >= V2_MAGIC.len() {
            // Inside the framed region a mutation must be rejected loudly
            // or leave a clean prefix of the golden ops — never silently
            // altered records.
            match strict {
                Err(KdbError::Corrupt { offset, .. }) => {
                    prop_assert!(offset <= mutated.len() as u64);
                }
                Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
                Ok(r) => {
                    prop_assert!(r.ops.len() <= golden.len());
                    prop_assert_eq!(
                        &r.ops[..],
                        &golden[..r.ops.len()],
                        "mutation at byte {} silently altered ops",
                        pos
                    );
                }
            }
            let salvage = replay_bytes(&mutated, RecoveryMode::Salvage).unwrap();
            prop_assert!(salvage.ops.len() <= golden.len());
            prop_assert_eq!(&salvage.ops[..], &golden[..salvage.ops.len()]);
        } else {
            // Mutating the magic may downgrade the file to v1 parsing,
            // which has no checksums by design; no-panic is the contract.
            let _ = strict;
            let _ = replay_bytes(&mutated, RecoveryMode::Salvage);
        }
    }

    #[test]
    fn adversarial_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut pos = 0;
        let _ = Op::decode_prefix(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
        let mut pos = 0;
        let _ = Value::decode_prefix(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
        // Both as a bare op stream (v1 parse) and behind a v2 magic.
        let _ = replay_bytes(&bytes, RecoveryMode::Strict);
        let _ = replay_bytes(&bytes, RecoveryMode::Salvage);
        let mut framed = V2_MAGIC.to_vec();
        framed.extend_from_slice(&bytes);
        let _ = replay_bytes(&framed, RecoveryMode::Strict);
        let _ = replay_bytes(&framed, RecoveryMode::Salvage);
    }

    #[test]
    fn v1_journal_opens_and_upgrades_to_v2(
        docs in prop::collection::vec(document_strategy(), 1..6),
    ) {
        let mem = Arc::new(MemStorage::new());
        let path = Path::new("legacy.journal");
        let ops: Vec<Op> = std::iter::once(Op::CreateCollection { name: "c".into() })
            .chain(docs.iter().enumerate().map(|(i, d)| Op::Insert {
                name: "c".into(),
                id: i as u64 + 1,
                doc: d.clone(),
            }))
            .collect();
        let mut v1 = String::new();
        for op in &ops {
            op.encode_into(&mut v1);
        }
        mem.install(path, v1.into_bytes());

        let parsed = replay_bytes(&mem.bytes(path).unwrap(), RecoveryMode::Strict).unwrap();
        prop_assert_eq!(parsed.version, JournalVersion::V1);
        prop_assert_eq!(&parsed.ops[..], &ops[..]);

        let mut db =
            Kdb::open_with(path, StoreOptions::with_storage(mem.clone())).unwrap();
        let before = db.fingerprint();
        db.snapshot().unwrap();
        let upgraded = replay_bytes(&mem.bytes(path).unwrap(), RecoveryMode::Strict).unwrap();
        prop_assert_eq!(upgraded.version, JournalVersion::V2);
        prop_assert!(!upgraded.truncated);

        let reopened = Kdb::open_with(path, StoreOptions::with_storage(mem)).unwrap();
        prop_assert_eq!(reopened.fingerprint(), before);
    }

    // Random interleavings of writes and snapshots on the sharded
    // store against a plain `Kdb` fed the same ops: a snapshot equals
    // the replay of exactly the prefix before it — later writes never
    // show — and two consecutive snapshots share the allocation of
    // every document no write touched between them.
    #[test]
    fn snapshots_are_isolated_and_share_untouched_documents(
        steps in prop::collection::vec(
            (0u8..6, 0usize..3, any::<u64>(), document_strategy()),
            1..60,
        ),
    ) {
        const COLLS: [&str; 3] = ["a", "b", "sessions"];
        let shared = SharedKdb::in_memory();
        let mut model = Kdb::in_memory();
        for name in COLLS {
            shared.create_collection(name).unwrap();
            model.create_collection(name).unwrap();
        }
        let live_id = |model: &Kdb, coll: &str, seed: u64| {
            let ids: Vec<u64> = model.collection(coll).unwrap().iter().map(|(id, _)| id).collect();
            (!ids.is_empty()).then(|| ids[seed as usize % ids.len()])
        };
        // Every snapshot with the model fingerprint of its prefix.
        let mut taken: Vec<(KdbSnapshot, u64)> = Vec::new();
        // (collection, id) written since the latest snapshot.
        let mut touched: Vec<(&str, u64)> = Vec::new();
        for (kind, coll, seed, doc) in steps {
            let coll = COLLS[coll];
            match kind {
                0 | 1 => {
                    let id = shared.insert(coll, doc.clone()).unwrap();
                    prop_assert_eq!(model.insert(coll, doc).unwrap(), id);
                    touched.push((coll, id));
                }
                2 => {
                    if let Some(id) = live_id(&model, coll, seed) {
                        shared.update(coll, id, doc.clone()).unwrap();
                        model.update(coll, id, doc).unwrap();
                        touched.push((coll, id));
                    }
                }
                3 => {
                    if let Some(id) = live_id(&model, coll, seed) {
                        shared.delete(coll, id).unwrap();
                        model.delete(coll, id).unwrap();
                        touched.push((coll, id));
                    }
                }
                4 => {
                    let path = ["k", "score", "session"][seed as usize % 3];
                    shared.ensure_index(coll, path).unwrap();
                    model.ensure_index(coll, path).unwrap();
                }
                _ => {
                    let snap = shared.read();
                    // The whole-state walk images every collection now.
                    prop_assert_eq!(snap.fingerprint(), model.fingerprint());
                    if let Some((prev, _)) = taken.last() {
                        for name in COLLS {
                            let (old, new) =
                                (prev.collection(name).unwrap(), snap.collection(name).unwrap());
                            for (id, _) in new.iter() {
                                let Some(before) = old.get_shared(id) else { continue };
                                prop_assert_eq!(
                                    Arc::ptr_eq(before, new.get_shared(id).unwrap()),
                                    !touched.contains(&(name, id)),
                                    "{}#{}", name, id
                                );
                            }
                        }
                    }
                    touched.clear();
                    taken.push((snap, model.fingerprint()));
                }
            }
        }
        for (snap, at_the_time) in &taken {
            prop_assert_eq!(snap.fingerprint(), *at_the_time);
        }
        // A reader that asks for one collection images only that one,
        // and pins it at that first access.
        let lazy = shared.read();
        let seen = lazy.collection("sessions").unwrap().len();
        prop_assert_eq!(lazy.imaged_collections(), vec!["sessions"]);
        shared.insert("sessions", Document::new().with("k", 1i64)).unwrap();
        prop_assert_eq!(lazy.collection("sessions").unwrap().len(), seen);
        prop_assert_eq!(shared.read().collection("sessions").unwrap().len(), seen + 1);
    }
}
