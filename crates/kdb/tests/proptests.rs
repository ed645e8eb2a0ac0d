//! Property tests: canonical encoding (and the codec against the
//! `to_string`/`parse` codec it replaced), query/index agreement,
//! journal replay equivalence, snapshot isolation and document sharing.

use std::path::Path;
use std::sync::Arc;

use ada_kdb::journal::{replay, replay_bytes, Journal, Op, RecoveryMode, V2_MAGIC};
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
        let mem = MemStorage::new();
        let path = Path::new("rw.journal");
        let ops: Vec<Op> = std::iter::once(Op::CreateCollection { name: "c".into() })
            .chain(docs.iter().enumerate().map(|(i, d)| Op::Insert {
                name: "c".into(),
                id: i as u64 + 1,
                doc: d.clone(),
            }))
            .collect();
        Journal::open_with(Arc::new(mem.clone()), path, None, 0)
            .unwrap()
            .rewrite(&ops)
            .unwrap();
        let replayed = replay_bytes(&mem.bytes(path).unwrap(), RecoveryMode::Strict).unwrap();
        prop_assert!(!replayed.truncated);
        prop_assert_eq!(replayed.ops, ops);
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
            let mut j = Journal::open_with(mem.clone(), path, None, 0).unwrap();
            for op in &golden {
                j.append(op).unwrap();
            }
        }
        let clean = mem.bytes(path).unwrap();
        let pos = (pos_seed as usize) % clean.len();
        let mut mutated = clean.clone();
        mutated[pos] = new_byte;

        // Anywhere, the magic included, a mutation must be rejected
        // loudly or leave a clean prefix of the golden ops — never
        // silently altered records.
        match replay_bytes(&mutated, RecoveryMode::Strict) {
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
    }

    #[test]
    fn adversarial_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut pos = 0;
        let _ = Op::decode_prefix(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
        let mut pos = 0;
        let _ = Value::decode_prefix(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
        // Both as they are (refused: no magic) and behind the magic.
        let _ = replay_bytes(&bytes, RecoveryMode::Strict);
        let _ = replay_bytes(&bytes, RecoveryMode::Salvage);
        let mut framed = V2_MAGIC.to_vec();
        framed.extend_from_slice(&bytes);
        let _ = replay_bytes(&framed, RecoveryMode::Strict);
        let _ = replay_bytes(&framed, RecoveryMode::Salvage);
    }

    #[test]
    fn bytes_without_the_magic_are_refused_and_never_erased(
        bytes in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        prop_assume!(!V2_MAGIC.starts_with(&bytes) && !bytes.starts_with(V2_MAGIC));
        let mem = MemStorage::new();
        let path = Path::new("foreign");
        mem.install(path, bytes.clone());
        let strict = Kdb::open_with(path, StoreOptions::with_storage(Arc::new(mem.clone())));
        let refused = matches!(strict, Err(KdbError::Corrupt { offset: 0, record: 0, .. }));
        prop_assert!(refused, "{:?}", strict.map(|_| ()));
        prop_assert_eq!(mem.bytes(path).unwrap(), bytes);
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

/// The `Document` codec as it stood before fields went flat and numbers
/// were written without temporaries: every number goes through
/// `to_string` / `str::parse`, and a document's fields through a
/// `BTreeMap`. The codec proptests below hold the real one to it byte
/// for byte and error for error.
mod oracle {
    use std::collections::BTreeMap;

    use ada_kdb::{KdbError, Value};

    /// A decoded value with nothing of the codec under test in it:
    /// floats by their bits (so NaN compares), fields in their order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Old {
        Null,
        Bool(bool),
        I64(i64),
        F64(u64),
        Str(String),
        Array(Vec<Old>),
        Doc(Vec<(String, Old)>),
    }

    impl From<&Value> for Old {
        fn from(value: &Value) -> Self {
            match value {
                Value::Null => Old::Null,
                Value::Bool(b) => Old::Bool(*b),
                Value::I64(v) => Old::I64(*v),
                // Every NaN prints as `NaN`, which parses to this one.
                Value::F64(v) if v.is_nan() => Old::F64(f64::NAN.to_bits()),
                Value::F64(v) => Old::F64(v.to_bits()),
                Value::Str(s) => Old::Str(s.clone()),
                Value::Array(items) => Old::Array(items.iter().map(Old::from).collect()),
                Value::Doc(doc) => Old::Doc(
                    doc.iter()
                        .map(|(k, v)| (k.to_owned(), Old::from(v)))
                        .collect(),
                ),
            }
        }
    }

    pub fn encode(value: &Old) -> String {
        let mut out = String::new();
        encode_into(value, &mut out);
        out
    }

    fn encode_into(value: &Old, out: &mut String) {
        match value {
            Old::Null => out.push('N'),
            Old::Bool(true) => out.push('T'),
            Old::Bool(false) => out.push('B'),
            Old::I64(v) => {
                out.push('I');
                out.push_str(&v.to_string());
                out.push(';');
            }
            Old::F64(bits) => {
                out.push('F');
                out.push_str(&f64::from_bits(*bits).to_string());
                out.push(';');
            }
            Old::Str(s) => {
                out.push('S');
                out.push_str(&s.len().to_string());
                out.push(':');
                out.push_str(s);
            }
            Old::Array(items) => {
                out.push('A');
                out.push_str(&items.len().to_string());
                out.push(':');
                for item in items {
                    encode_into(item, out);
                }
            }
            Old::Doc(fields) => {
                out.push('O');
                out.push_str(&fields.len().to_string());
                out.push(':');
                for (k, v) in fields {
                    out.push_str(&k.len().to_string());
                    out.push(':');
                    out.push_str(k);
                    encode_into(v, out);
                }
            }
        }
    }

    /// `Value::decode_prefix` as it was.
    pub fn decode_prefix(bytes: &[u8], pos: &mut usize) -> Result<Old, KdbError> {
        decode_value(bytes, pos)
    }

    fn take_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, KdbError> {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| KdbError::Decode(*pos, "unexpected end of input".into()))?;
        *pos += 1;
        Ok(b)
    }

    fn take_number(bytes: &[u8], pos: &mut usize, stop: u8) -> Result<usize, KdbError> {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != stop {
            *pos += 1;
        }
        if *pos >= bytes.len() {
            return Err(KdbError::Decode(start, "unterminated length".into()));
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| KdbError::Decode(start, "non-UTF-8 length".into()))?;
        let n: usize = text
            .parse()
            .map_err(|_| KdbError::Decode(start, format!("bad length {text:?}")))?;
        *pos += 1;
        Ok(n)
    }

    fn take_lstring(bytes: &[u8], pos: &mut usize) -> Result<String, KdbError> {
        let len = take_number(bytes, pos, b':')?;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| KdbError::Decode(*pos, "string length overruns input".into()))?;
        let s = std::str::from_utf8(&bytes[*pos..end])
            .map_err(|_| KdbError::Decode(*pos, "non-UTF-8 string".into()))?
            .to_owned();
        *pos = end;
        Ok(s)
    }

    fn take_scalar(bytes: &[u8], pos: &mut usize, what: &str) -> Result<String, KdbError> {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b';' {
            *pos += 1;
        }
        if *pos >= bytes.len() {
            return Err(KdbError::Decode(start, format!("unterminated {what}")));
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| KdbError::Decode(start, format!("non-UTF-8 {what}")))?;
        *pos += 1;
        Ok(text.to_owned())
    }

    fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Old, KdbError> {
        let tag = take_byte(bytes, pos)?;
        match tag {
            b'N' => Ok(Old::Null),
            b'T' => Ok(Old::Bool(true)),
            b'B' => Ok(Old::Bool(false)),
            b'I' => {
                let start = *pos;
                let text = take_scalar(bytes, pos, "integer")?;
                text.parse::<i64>()
                    .map(Old::I64)
                    .map_err(|_| KdbError::Decode(start, format!("bad integer {text:?}")))
            }
            b'F' => {
                let start = *pos;
                let text = take_scalar(bytes, pos, "float")?;
                text.parse::<f64>()
                    .map(|v| Old::F64(v.to_bits()))
                    .map_err(|_| KdbError::Decode(start, format!("bad float {text:?}")))
            }
            b'S' => Ok(Old::Str(take_lstring(bytes, pos)?)),
            b'A' => {
                let count = take_number(bytes, pos, b':')?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(decode_value(bytes, pos)?);
                }
                Ok(Old::Array(items))
            }
            b'O' => {
                let count = take_number(bytes, pos, b':')?;
                let mut fields = BTreeMap::new();
                for _ in 0..count {
                    let key = take_lstring(bytes, pos)?;
                    let value = decode_value(bytes, pos)?;
                    fields.insert(key, value);
                }
                Ok(Old::Doc(fields.into_iter().collect()))
            }
            other => Err(KdbError::Decode(
                *pos - 1,
                format!("unknown tag {:?}", other as char),
            )),
        }
    }
}

use oracle::Old;

/// A value as a writer builds it: fields in the order they are set,
/// repeats included.
#[derive(Debug, Clone)]
enum Built {
    Leaf(Value),
    Array(Vec<Built>),
    Doc(Vec<(String, Built)>),
}

impl Built {
    /// The value, built through `Document::set`.
    fn value(&self) -> Value {
        match self {
            Built::Leaf(v) => v.clone(),
            Built::Array(items) => Value::Array(items.iter().map(Built::value).collect()),
            Built::Doc(fields) => {
                let mut doc = Document::new();
                for (k, v) in fields {
                    doc.set(k.clone(), v.value());
                }
                Value::Doc(doc)
            }
        }
    }

    /// The value a `BTreeMap` would have kept: sorted keys, last set wins.
    fn model(&self) -> Old {
        match self {
            Built::Leaf(v) => Old::from(v),
            Built::Array(items) => Old::Array(items.iter().map(Built::model).collect()),
            Built::Doc(fields) => Old::Doc(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.model()))
                    .collect::<std::collections::BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            ),
        }
    }

    /// An encoding no writer produces: fields in the order they were
    /// set, repeats included, and each integer or length spelled by
    /// `number`.
    fn render(&self, number: &mut dyn FnMut(u64) -> String, out: &mut String) {
        match self {
            Built::Leaf(Value::I64(v)) => {
                let sign = if *v < 0 { "-" } else { "" };
                out.push_str(&format!("I{sign}{};", number(v.unsigned_abs())));
            }
            Built::Leaf(Value::Str(s)) => {
                out.push_str(&format!("S{}:{s}", number(s.len() as u64)));
            }
            Built::Leaf(leaf) => leaf.encode_into(out),
            Built::Array(items) => {
                out.push_str(&format!("A{}:", number(items.len() as u64)));
                for item in items {
                    item.render(number, out);
                }
            }
            Built::Doc(fields) => {
                out.push_str(&format!("O{}:", number(fields.len() as u64)));
                for (k, v) in fields {
                    out.push_str(&format!("{}:{k}", number(k.len() as u64)));
                    v.render(number, out);
                }
            }
        }
    }
}

/// One spelling of a non-negative number: the canonical digits, or one
/// that `str::parse` reads differently (or not at all) — a leading `+`
/// or `0`, zero-padded to 18, 19 or 20 digits, 18/19/20 nines (19 nines
/// overflow an `i64`, 20 a `u64`), `usize::MAX + 1`, or trailing junk.
fn spell(n: u64, choice: u8) -> String {
    match choice {
        0 => format!("+{n}"),
        1 => format!("0{n}"),
        2 => format!("{n:018}"),
        3 => format!("{n:019}"),
        4 => format!("{n:020}"),
        5 => "9".repeat(18),
        6 => "9".repeat(19),
        7 => "9".repeat(20),
        8 => "18446744073709551616".to_owned(),
        9 => format!("{n}a"),
        _ => n.to_string(),
    }
}

fn codec_leaf() -> impl Strategy<Value = Value> {
    let special = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE / 2.0),
        Just(-f64::from_bits(1)),
        Just(f64::MAX),
    ];
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(-1), Just(0)].prop_map(Value::I64),
        (-1_000_000i64..1_000_000).prop_map(Value::I64),
        any::<u64>().prop_map(|bits| Value::F64(f64::from_bits(bits))),
        special.prop_map(Value::F64),
        (1u64..1 << 52).prop_map(|bits| Value::F64(f64::from_bits(bits))),
        "\\PC{0,6}".prop_map(Value::Str),
        "[ -~:;]{0,8}".prop_map(Value::Str),
    ]
}

fn built_strategy() -> impl Strategy<Value = Built> {
    let key = prop_oneof![3 => "[a-d]{0,2}", 1 => "\\PC{0,3}"].boxed();
    codec_leaf()
        .prop_map(Built::Leaf)
        .prop_recursive(3, 32, 5, move |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..5).prop_map(Built::Array),
                prop::collection::vec((key.clone(), inner), 0..7).prop_map(Built::Doc),
            ]
        })
}

/// Both decoders' verdicts on `bytes`, whole-input.
fn both_decode(bytes: &[u8]) -> (Result<Old, KdbError>, Result<Old, KdbError>) {
    let whole = |pos: usize, value| match pos == bytes.len() {
        true => Ok(value),
        false => Err(KdbError::Decode(pos, "trailing bytes".into())),
    };
    let mut pos = 0;
    let new = Value::decode_prefix(bytes, &mut pos).and_then(|v| whole(pos, Old::from(&v)));
    let mut pos = 0;
    let old = oracle::decode_prefix(bytes, &mut pos).and_then(|v| whole(pos, v));
    (new, old)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn codec_matches_the_to_string_oracle(built in built_strategy()) {
        let value = built.value();
        let model = built.model();
        // Fields set in any order, repeats included, end up as a
        // `BTreeMap` would keep them.
        prop_assert_eq!(Old::from(&value), model.clone());
        // Byte-equal to the old encoder, and both decoders agree on it.
        let encoded = value.encode();
        prop_assert_eq!(&encoded, &oracle::encode(&model));
        let (new, old) = both_decode(encoded.as_bytes());
        prop_assert_eq!(&new, &Ok(model));
        prop_assert_eq!(new, old);
        if let Value::Doc(doc) = &value {
            prop_assert_eq!(doc.encode(), encoded.clone());
            prop_assert_eq!(Document::decode(&encoded).map(|d| Old::from(&Value::Doc(d))), new);
        }
    }

    #[test]
    fn decoders_agree_on_encodings_no_writer_produces(
        built in built_strategy(),
        spellings in prop::collection::vec(0u8..40, 1..24),
    ) {
        // Each integer and length takes the next spelling, cycled; a
        // spelling past those `spell` names is the canonical one.
        let mut next = spellings.iter().cycle();
        let mut mutated = String::new();
        built.render(&mut |n| spell(n, *next.next().unwrap()), &mut mutated);
        let (new, old) = both_decode(mutated.as_bytes());
        prop_assert_eq!(new, old, "{:?}", mutated);
    }
}

#[test]
fn decoders_agree_on_malformed_numbers() {
    // What `spell` never produces: no digits, signs alone, a non-ASCII
    // digit, float syntax, non-UTF-8 bytes and unterminated tokens.
    let tokens = ["", "-", "+", "--5", "-0", "٣", "1.5", "1e3", "inf", "NaN"];
    for token in tokens {
        for input in [
            format!("I{token};"),
            format!("F{token};"),
            format!("S{token}:abc"),
            format!("A{token}:NNN"),
            format!("O1:{token}:aN"),
        ] {
            let (new, old) = both_decode(input.as_bytes());
            assert_eq!(new, old, "{input:?}");
        }
    }
    let raw: [&[u8]; 8] = [
        b"I1\xff;",
        b"F\xff;",
        b"S\xff:",
        b"A1\xff:N",
        b"I12",
        b"F1",
        b"S3",
        b"O1:2",
    ];
    for input in raw {
        let (new, old) = both_decode(input);
        assert_eq!(new, old, "{input:?}");
    }
}

#[test]
fn debug_prints_what_the_btree_map_printed() {
    let doc = Document::new()
        .with("z", 1i64)
        .with(
            "a",
            Document::new()
                .with("s", "é\"x")
                .with("f", -0.5f64)
                .with("n", Value::Null),
        )
        .with(
            "l",
            vec![
                Value::Bool(true),
                Value::F64(f64::NAN),
                Value::Doc(Document::new()),
            ],
        );
    assert_eq!(
        format!("{doc:?}"),
        "Document { fields: {\"a\": Doc(Document { fields: {\"f\": F64(-0.5), \"n\": Null, \
         \"s\": Str(\"é\\\"x\")} }), \"l\": Array([Bool(true), F64(NaN), Doc(Document { fields: \
         {} })]), \"z\": I64(1)} }"
    );
    assert_eq!(
        format!("{doc:#?}"),
        r#"Document {
    fields: {
        "a": Doc(
            Document {
                fields: {
                    "f": F64(
                        -0.5,
                    ),
                    "n": Null,
                    "s": Str(
                        "é\"x",
                    ),
                },
            },
        ),
        "l": Array(
            [
                Bool(
                    true,
                ),
                F64(
                    NaN,
                ),
                Doc(
                    Document {
                        fields: {},
                    },
                ),
            ],
        ),
        "z": I64(
            1,
        ),
    },
}"#
    );
}
