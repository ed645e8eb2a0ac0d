//! VSM bench: the data-transformation block.
//!
//! Measures the ExamLog → matrix build under each candidate weighting
//! (the transformation selector runs all of them).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ada_bench::bench_log;
use ada_vsm::{VsmBuilder, Weighting};

fn bench_build(c: &mut Criterion) {
    let log = bench_log();
    let mut group = c.benchmark_group("vsm-build");
    group.sample_size(20);
    for weighting in Weighting::ALL {
        group.bench_with_input(
            BenchmarkId::new("weighting", weighting),
            &weighting,
            |b, &w| b.iter(|| black_box(VsmBuilder::new().weighting(w).build(&log))),
        );
    }
    group.bench_function("top-32-features", |b| {
        b.iter(|| black_box(VsmBuilder::new().top_features(&log, 32).build(&log)))
    });
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
