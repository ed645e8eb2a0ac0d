//! K-DB bench: document-store operations.
//!
//! The paper hosts its knowledge base on "a cluster of MongoDBs"; the
//! embedded substitute must sustain the pipeline's access pattern —
//! bursts of knowledge-item inserts, filtered reads during ranking, and
//! journal replay on reopen. This bench tracks all three plus the
//! index-vs-scan ablation, and the read a client pays most for: a
//! 500-record `PastSessions` answer, decoded and checksummed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ada_kdb::journal::crc32;
use ada_kdb::{Document, Filter, Kdb, SharedKdb, Value};
use ada_net::{CohortSpec, Response, WireJobSpec};
use ada_service::{AnalysisService, ServiceConfig};

fn item(i: usize) -> Document {
    Document::new()
        .with("session", format!("s{}", i % 8))
        .with(
            "kind",
            if i.is_multiple_of(3) {
                "cluster"
            } else {
                "pattern"
            },
        )
        .with("score", (i % 100) as f64 / 100.0)
        .with("description", format!("knowledge item number {i}"))
}

fn populated(n: usize, indexed: bool) -> Kdb {
    let mut db = Kdb::in_memory();
    db.create_collection("items").unwrap();
    if indexed {
        db.create_index("items", "kind").unwrap();
        db.create_index("items", "score").unwrap();
    }
    for i in 0..n {
        db.insert("items", item(i)).unwrap();
    }
    db
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdb-insert");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("memory", n), &n, |b, &n| {
            b.iter(|| black_box(populated(n, false)))
        });
        group.bench_with_input(BenchmarkId::new("memory-indexed", n), &n, |b, &n| {
            b.iter(|| black_box(populated(n, true)))
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let scan_db = populated(20_000, false);
    let index_db = populated(20_000, true);
    let eq = Filter::eq("kind", "cluster");
    let range = Filter::Gt("score".into(), Value::F64(0.95));

    let mut group = c.benchmark_group("kdb-query");
    group.bench_function("eq-scan", |b| {
        b.iter(|| black_box(scan_db.collection("items").unwrap().find(&eq).len()))
    });
    group.bench_function("eq-indexed", |b| {
        b.iter(|| black_box(index_db.collection("items").unwrap().find(&eq).len()))
    });
    group.bench_function("range-scan", |b| {
        b.iter(|| black_box(scan_db.collection("items").unwrap().find(&range).len()))
    });
    group.bench_function("range-indexed", |b| {
        b.iter(|| black_box(index_db.collection("items").unwrap().find(&range).len()))
    });
    group.finish();
}

fn bench_journal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("ada_kdb_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut group = c.benchmark_group("kdb-journal");
    group.sample_size(10);
    group.bench_function("append-5k", |b| {
        b.iter(|| {
            let path = dir.join("append.kdb");
            std::fs::remove_file(&path).ok();
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("items").unwrap();
            for i in 0..5_000 {
                db.insert("items", item(i)).unwrap();
            }
            black_box(db)
        })
    });

    // Replay: open a pre-written 5k journal.
    let replay_path = dir.join("replay.kdb");
    {
        std::fs::remove_file(&replay_path).ok();
        let mut db = Kdb::open(&replay_path).unwrap();
        db.create_collection("items").unwrap();
        for i in 0..5_000 {
            db.insert("items", item(i)).unwrap();
        }
    }
    group.bench_function("replay-5k", |b| {
        b.iter(|| black_box(Kdb::open(&replay_path).unwrap()))
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

/// A 500-record `PastSessions` answer (two quick sessions' terminal
/// records, cycled), as its payload crosses the wire: the client
/// checksums it once and decodes it into documents.
fn bench_listing(c: &mut Criterion) {
    let service = AnalysisService::new(ServiceConfig::default(), SharedKdb::in_memory());
    for i in 0..2 {
        let spec = WireJobSpec::quick(format!("listing-{i}"), CohortSpec::small(i));
        let id = service.submit(spec.materialize()).unwrap();
        service.wait(id).unwrap();
    }
    let records = service.past_sessions();
    service.shutdown();
    let sessions = records.iter().cycle().take(500).cloned().collect();
    let payload = Response::PastSessions { sessions }.encode(1);
    println!("kdb-listing: 500 records, {} bytes", payload.len());

    let mut group = c.benchmark_group("kdb-listing");
    group.sample_size(50);
    group.bench_function("decode-500", |b| {
        b.iter(|| black_box(Response::decode(&payload).unwrap()))
    });
    group.bench_function("crc32-500", |b| b.iter(|| black_box(crc32(&payload))));
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_query,
    bench_journal,
    bench_listing
);
criterion_main!(benches);
