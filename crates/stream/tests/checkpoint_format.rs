//! Checkpoint format compatibility: `stream_windows.records` is written
//! as one packed string, and checkpoints stored as the older flat
//! integer array still validate, replay and resume byte-identically —
//! alone or followed by packed windows.

use std::sync::Arc;

use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_dataset::{Date, ExamRecord, ExamTypeId, PatientId, StreamOrder};
use ada_kdb::schema::{self, names};
use ada_kdb::{Document, Filter, SharedKdb, Value};
use ada_obs::StreamMetrics;
use ada_stream::{StreamConfig, StreamEngine};

fn config() -> StreamConfig {
    StreamConfig::new("ward-3")
        .window_days(7)
        .lateness_days(7)
        .k(3)
        .min_rows(8)
        .update_iters(3)
        .refit_iters(30)
}

fn feed() -> Vec<ExamRecord> {
    let log = generate(
        &SyntheticConfig {
            num_patients: 80,
            num_exam_types: 24,
            target_records: 1_200,
            ..SyntheticConfig::small()
        },
        3,
    );
    StreamOrder::new(&log, 3, 5).collect()
}

fn open(store: &SharedKdb) -> (StreamEngine, u64) {
    StreamEngine::open(
        config(),
        Some(store.clone()),
        Arc::new(StreamMetrics::new()),
        None,
    )
    .expect("checkpoints replay cleanly")
}

/// VSM and model fingerprints, windows closed, records folded, re-fits.
type State = (u64, Option<u64>, u64, u64, u64);

fn state(engine: &StreamEngine) -> State {
    (
        engine.vsm_fingerprint(),
        engine.model_fingerprint(),
        engine.windows_closed(),
        engine.folded(),
        engine.refits(),
    )
}

/// The store's checkpoints for the test stream, in window order.
fn checkpoints(store: &SharedKdb) -> Vec<Document> {
    let mut docs: Vec<Document> = store
        .read()
        .find(names::STREAM_WINDOWS, &Filter::eq("stream", "ward-3"))
        .unwrap()
        .into_iter()
        .map(|(_, doc)| doc)
        .collect();
    docs.sort_by_key(|d| d.get("window").and_then(Value::as_i64));
    docs
}

/// `doc` in the shape checkpoints had before packing: `records` as a
/// flat array of four `Value::I64` per entry.
fn as_array_form(doc: &Document) -> Document {
    let flat = schema::stream_window_records(doc)
        .unwrap()
        .into_iter()
        .flatten()
        .map(Value::I64)
        .collect();
    doc.clone().with("records", Value::Array(flat))
}

/// A store holding `docs` verbatim, inserted without validation.
fn store_of(docs: impl IntoIterator<Item = Document>) -> SharedKdb {
    let kdb = SharedKdb::in_memory();
    schema::init_stream_schema(&kdb).unwrap();
    for doc in docs {
        kdb.insert(names::STREAM_WINDOWS, doc).unwrap();
    }
    kdb
}

/// One uninterrupted run: its final state and its (packed) checkpoints.
fn reference() -> (State, Vec<Document>) {
    let store = SharedKdb::in_memory();
    let (mut engine, _) = open(&store);
    engine.ingest(&feed()).unwrap();
    engine.seal().unwrap();
    (state(&engine), checkpoints(&store))
}

#[test]
fn new_checkpoints_are_packed() {
    let (_, docs) = reference();
    assert!(docs.len() > 10, "the feed spans many windows");
    for doc in &docs {
        assert!(
            matches!(doc.get("records"), Some(Value::Str(_))),
            "records are one packed string"
        );
        schema::validate_stream_window_doc(doc).unwrap();
    }
}

#[test]
fn array_form_checkpoints_resume_with_their_fingerprints() {
    let (expected, docs) = reference();
    let legacy: Vec<Document> = docs.iter().map(as_array_form).collect();
    for doc in &legacy {
        schema::validate_stream_window_doc(doc).unwrap();
    }
    let last = legacy.last().unwrap();
    let (engine, resumed) = open(&store_of(legacy.clone()));
    assert_eq!(resumed, legacy.len() as u64);
    assert_eq!(state(&engine), expected);
    let fp = |v: Option<u64>| v.map_or(String::new(), |fp| format!("{fp:016x}"));
    assert_eq!(
        last.get("vsm_fp").and_then(Value::as_str),
        Some(fp(Some(engine.vsm_fingerprint())).as_str())
    );
    assert_eq!(
        last.get("model_fp").and_then(Value::as_str),
        Some(fp(engine.model_fingerprint()).as_str())
    );
}

#[test]
fn array_form_history_followed_by_packed_windows_resumes_byte_identically() {
    let (expected, docs) = reference();
    // The first half of the history was written in array form; the
    // stream resumes from it, the source re-delivers the whole feed and
    // the rest of the windows are checkpointed packed.
    let half = docs.len() / 2;
    let store = store_of(docs[..half].iter().map(as_array_form));
    let (mut engine, resumed) = open(&store);
    assert_eq!(resumed, half as u64);
    engine.ingest(&feed()).unwrap();
    engine.seal().unwrap();
    assert_eq!(state(&engine), expected);
    drop(engine);

    let mixed = checkpoints(&store);
    assert_eq!(mixed.len(), docs.len());
    for (i, doc) in mixed.iter().enumerate() {
        let packed = matches!(doc.get("records"), Some(Value::Str(_)));
        assert_eq!(
            packed,
            i >= half,
            "window {i} kept the shape it was written in"
        );
        assert_eq!(
            schema::stream_window_records(doc).unwrap(),
            schema::stream_window_records(&docs[i]).unwrap()
        );
    }
    let (reopened, resumed) = open(&store);
    assert_eq!(resumed, docs.len() as u64);
    assert_eq!(state(&reopened), expected);
}

#[test]
fn a_five_thousand_entry_checkpoint_is_one_compact_value() {
    // Five thousand distinct (day, patient, exam) entries in one week,
    // with ids as wide as a 3×-paper cohort's (five-digit patients).
    let start = Date::new(2015, 3, 2).unwrap().days_since_epoch();
    let records: Vec<ExamRecord> = (0..5_000u32)
        .map(|i| {
            ExamRecord::new(
                PatientId(10_000 + i),
                ExamTypeId(100 + i % 59),
                Date::from_days_since_epoch(start + i64::from(i % 7)).unwrap(),
            )
        })
        .collect();
    let store = SharedKdb::in_memory();
    let (mut engine, _) = StreamEngine::open(
        config().mine_on_close(false),
        Some(store.clone()),
        Arc::new(StreamMetrics::new()),
        None,
    )
    .unwrap();
    engine.ingest(&records).unwrap();
    engine.seal().unwrap();
    let docs = checkpoints(&store);
    assert_eq!(docs.len(), 1, "one week, one checkpoint");
    let Some(Value::Str(packed)) = docs[0].get("records") else {
        panic!("records are one packed string");
    };
    assert!(
        packed.len() <= 20 * 5_000,
        "{} bytes for 5,000 entries",
        packed.len()
    );
    assert_eq!(
        schema::stream_window_records(&docs[0]).unwrap().len(),
        5_000
    );
}
