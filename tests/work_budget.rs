//! The work budget: counts of work that do not depend on the clock or
//! the host, pinned beside the line budget (`line_budget.rs`). Wall
//! time on a shared host cannot tell one allocation from none; a count
//! can.
//!
//! This binary installs its own counting global allocator. It counts
//! only on a thread that asked for it (see [`counted`]), so tests
//! running beside each other do not see each other's allocations.
//!
//! Pinned today: decoding a `PastSessions` answer allocates one block
//! per non-empty document, array and string value it returns, and none
//! per key or number; encoding a stored record allocates its output
//! and frees nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ada_health::kdb::{Document, SharedKdb, Value};
use ada_health::net::{CohortSpec, Response, WireJobSpec};
use ada_health::service::{AnalysisService, ServiceConfig, SessionState};

/// What the allocator saw on one thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    /// New blocks (`alloc`, `alloc_zeroed`).
    allocs: u64,
    /// Blocks grown or shrunk in place of a new one.
    reallocs: u64,
    /// Blocks freed.
    frees: u64,
}

thread_local! {
    /// `Some` while [`counted`] runs on this thread.
    static COUNTS: Cell<Option<Counts>> = const { Cell::new(None) };
}

fn tally(bump: impl FnOnce(&mut Counts)) {
    let _ = COUNTS.try_with(|cell| {
        if let Some(mut counts) = cell.get() {
            bump(&mut counts);
            cell.set(Some(counts));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the tally
// touches a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|c| c.allocs += 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(|c| c.allocs += 1);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|c| c.reallocs += 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|c| c.frees += 1);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it allocated on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|cell| cell.set(Some(Counts::default())));
    let out = f();
    let counts = COUNTS.with(|cell| cell.take()).expect("counting was on");
    (out, counts)
}

/// What a decoded value is made of.
#[derive(Debug, Default)]
struct Shape {
    /// Blocks the value owns: non-empty documents, arrays and strings,
    /// and keys too long to be held in place.
    owned: u64,
    keys: u64,
    numbers: u64,
}

impl Shape {
    fn of_doc(&mut self, doc: &Document) {
        self.owned += u64::from(!doc.is_empty());
        for (key, value) in doc.iter() {
            self.keys += 1;
            self.owned += u64::from(key.len() > 22);
            self.of(value);
        }
    }

    fn of(&mut self, value: &Value) {
        match value {
            Value::I64(_) | Value::F64(_) => self.numbers += 1,
            Value::Str(s) => self.owned += u64::from(!s.is_empty()),
            Value::Array(items) => {
                self.owned += u64::from(!items.is_empty());
                items.iter().for_each(|item| self.of(item));
            }
            Value::Doc(doc) => self.of_doc(doc),
            Value::Null | Value::Bool(_) => {}
        }
    }
}

/// The terminal records of a few quick sessions, as the `sessions`
/// collection holds them.
fn session_records() -> Vec<Document> {
    let service = AnalysisService::new(ServiceConfig::default(), SharedKdb::in_memory());
    for i in 0..2 {
        let spec = WireJobSpec::quick(format!("budget-{i}"), CohortSpec::small(i));
        let id = service
            .submit(spec.materialize())
            .expect("submission accepted");
        assert!(matches!(service.wait(id), Ok(SessionState::Completed(_))));
    }
    let records = service.past_sessions();
    service.shutdown();
    assert_eq!(records.len(), 2, "each session persists one record");
    records
}

/// What `Response::decode` allocates beyond the listing: the envelope
/// document's field list and its `kind` string, both freed on return.
/// The `sessions` array's block becomes the returned `Vec<Document>` in
/// place, shrunk once to the smaller element.
const ENVELOPE_ALLOCS: u64 = 2;

#[test]
fn decoding_a_listing_allocates_what_it_returns_and_nothing_per_key_or_number() {
    const RECORDS: usize = 40;
    let records: Vec<Document> = session_records()
        .into_iter()
        .cycle()
        .take(RECORDS)
        .collect();
    let payload = Response::PastSessions {
        sessions: records.clone(),
    }
    .encode(7);

    let (decoded, counts) = counted(|| Response::decode(&payload));
    let Ok((7, Response::PastSessions { sessions })) = decoded else {
        panic!("the listing did not decode: {decoded:?}");
    };
    assert_eq!(sessions, records);
    let mut shape = Shape::default();
    sessions.iter().for_each(|doc| shape.of_doc(doc));
    assert!(shape.keys > 1_000 && shape.numbers > 1_000, "{shape:?}");
    assert_eq!(
        counts.allocs,
        shape.owned + 1 + ENVELOPE_ALLOCS,
        "{counts:?} decoding {RECORDS} records of {shape:?}"
    );
    assert_eq!(
        (counts.reallocs, counts.frees),
        (1, ENVELOPE_ALLOCS),
        "{counts:?}"
    );
}

#[test]
fn encoding_a_stored_record_allocates_only_its_output() {
    for record in session_records() {
        let (text, counts) = counted(|| record.encode());
        assert!(text.len() > 1_000);
        assert_eq!(counts.allocs, 1, "{counts:?}");
        assert_eq!(counts.frees, 0, "{counts:?}");
    }
}
