//! Listings splice each stored record's cached canonical text
//! (`ada_kdb::Stored`) instead of encoding it again. These tests hold
//! that cache to the fresh encoding: every `PastSessions` and
//! `TraceQuery` answer, unpaged and paged, is byte for byte the envelope
//! around `Document::encode` of each record — after an update and a
//! delete of a listed record, and while a writer races the listing — and
//! a listing is the only thing that fills the cache.

use std::sync::atomic::{AtomicBool, Ordering};

use ada_kdb::schema::names::SESSIONS;
use ada_kdb::{DocId, Document, KdbSnapshot, SharedKdb, Value};
use ada_net::proto::Response;
use ada_obs::{past_sessions, past_traces, Page};

const ID: u64 = 42;

/// A session record; every third one is sampled (carries a trace id).
fn record(i: usize) -> Document {
    let doc = Document::new()
        .with("session", format!("s-{}", i % 7).as_str())
        .with("state", "completed")
        .with("wall_ms", i as f64 * 0.5)
        .with(
            "spans",
            Value::Array(
                (0..3)
                    .map(|s| Value::Doc(Document::new().with("name", "stage").with("at", s)))
                    .collect(),
            ),
        );
    if i.is_multiple_of(3) {
        doc.with("trace_id", format!("{i:032x}").as_str())
    } else {
        doc
    }
}

fn store(records: usize) -> SharedKdb {
    let db = SharedKdb::in_memory();
    db.ensure_collection(SESSIONS).unwrap();
    for i in 0..records {
        db.insert(SESSIONS, record(i)).unwrap();
    }
    db
}

/// The oracle: the answer's envelope around a fresh `Document::encode`
/// of every record, written out by hand.
fn oracle(kind: &str, field: &str, docs: &[&Document]) -> Vec<u8> {
    let body: String = docs.iter().map(|doc| doc.encode()).collect();
    format!(
        "O3:2:idI{ID};4:kindS{}:{kind}{}:{field}A{}:{body}",
        kind.len(),
        field.len(),
        docs.len()
    )
    .into_bytes()
}

/// The records of `image` that `keep` selects, after `page.after`, at
/// most `page.limit` — found without the listing under test.
fn expected(image: &KdbSnapshot, page: Page, keep: impl Fn(&Document) -> bool) -> Vec<&Document> {
    let coll = image.collection(SESSIONS).unwrap();
    let mut ids: Vec<DocId> = coll.iter().map(|(id, _)| id).collect();
    ids.retain(|&id| id > page.after);
    ids.into_iter()
        .map(|id| coll.get(id).unwrap())
        .filter(|doc| keep(doc))
        .take(page.limit)
        .collect()
}

/// Every unpaged and paged answer of both listings over `image` equals
/// the oracle, twice (the second time from the filled cache).
fn check_all_answers(image: &KdbSnapshot) {
    let len = image.collection(SESSIONS).map_or(0, |c| c.len()) as u64;
    let mut pages = vec![Page::ALL];
    for after in [0, 1, len / 2, len, len + 5] {
        for limit in [0, 1, 3, 1_000] {
            pages.push(Page { after, limit });
        }
    }
    for _ in 0..2 {
        for &page in &pages {
            let sessions = Response::encode_past_sessions(ID, &past_sessions(image, page));
            let want = oracle(
                "past_sessions",
                "sessions",
                &expected(image, page, |_| true),
            );
            assert_eq!(sessions, want, "past_sessions {page:?}");
            for session in [None, Some("s-3"), Some("nobody")] {
                let traces = Response::encode_traces(ID, &past_traces(image, session, page));
                let keep = |doc: &Document| {
                    doc.get("trace_id").is_some()
                        && session
                            .is_none_or(|s| doc.get("session").and_then(Value::as_str) == Some(s))
                };
                let want = oracle("traces", "traces", &expected(image, page, keep));
                assert_eq!(traces, want, "traces {session:?} {page:?}");
            }
        }
    }
}

#[test]
fn every_listing_answer_is_the_fresh_encoding() {
    let db = store(40);
    check_all_answers(&db.read());

    // Rewrite and drop records the listings above have cached: the next
    // answers must carry the new record and lose the deleted one.
    db.update(SESSIONS, 4, record(1_000)).unwrap();
    db.delete(SESSIONS, 10).unwrap();
    db.update(SESSIONS, 13, record(13).with("wall_ms", -1.0))
        .unwrap();
    let image = db.read();
    let coll = image.collection(SESSIONS).unwrap();
    assert_eq!(coll.len(), 39);
    assert!(
        !coll.get_shared(4).unwrap().is_encoded(),
        "an update stores a fresh, unencoded record"
    );
    check_all_answers(&image);
    assert_eq!(coll.encoded_count(), 39);
}

#[test]
fn a_listing_racing_a_writer_is_the_fresh_encoding_of_its_image() {
    let db = store(30);
    let (listed, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        let writer = db.clone();
        let (listed, done) = (&listed, &done);
        scope.spawn(move || {
            // Start once the reader has cached the preloaded records, so
            // the updates below rewrite records whose text is cached.
            while !listed.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for i in 30..150usize {
                let id = writer.insert(SESSIONS, record(i)).unwrap();
                if i.is_multiple_of(4) {
                    let preloaded = (i % 25) as DocId + 1;
                    writer.update(SESSIONS, preloaded, record(i + 1)).unwrap();
                }
                if i.is_multiple_of(5) {
                    writer.delete(SESSIONS, id - 3).unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        // Until a round whose image was taken after the writer's last
        // write.
        let (mut rounds, mut finished) = (0, false);
        while !finished {
            finished = done.load(Ordering::Acquire);
            let image = db.read();
            let page = Page {
                after: rounds % 20,
                limit: 25,
            };
            for page in [Page::ALL, page] {
                let answer = Response::encode_past_sessions(ID, &past_sessions(&image, page));
                let want = oracle(
                    "past_sessions",
                    "sessions",
                    &expected(&image, page, |_| true),
                );
                assert_eq!(answer, want, "round {rounds} {page:?}");
                let answer = Response::encode_traces(ID, &past_traces(&image, None, page));
                let keep = |doc: &Document| doc.get("trace_id").is_some();
                assert_eq!(
                    answer,
                    oracle("traces", "traces", &expected(&image, page, keep))
                );
            }
            rounds += 1;
            listed.store(true, Ordering::Release);
        }
    });
    check_all_answers(&db.read());
}

#[test]
fn only_a_listing_fills_the_cache_and_images_share_it() {
    let db = store(25);
    let before = db.read();
    assert_eq!(before.collection(SESSIONS).unwrap().encoded_count(), 0);
    let page = Page {
        after: 5,
        limit: 10,
    };
    assert_eq!(past_sessions(&before, page).len(), 10);
    assert_eq!(
        before.collection(SESSIONS).unwrap().encoded_count(),
        0,
        "selecting encodes nothing"
    );
    Response::encode_past_sessions(ID, &past_sessions(&before, page));
    assert_eq!(before.collection(SESSIONS).unwrap().encoded_count(), 10);
    // A later image of the grown store shares the filled slots.
    db.insert(SESSIONS, record(99)).unwrap();
    let after = db.read();
    assert_eq!(after.collection(SESSIONS).unwrap().encoded_count(), 10);
    Response::encode_past_sessions(ID, &past_sessions(&after, Page::ALL));
    assert_eq!(after.collection(SESSIONS).unwrap().encoded_count(), 26);
}
