//! Ablation bench: K-means backends.
//!
//! Compares the classic Lloyd iteration against Kanungo et al.'s kd-tree
//! filtering algorithm (the paper's reference \[3\]) across the K
//! values of the optimizer's inner loop. The filtering algorithm's
//! advantage grows with cluster separation and shrinks with
//! dimensionality — this bench documents where it pays off on VSM data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ada_bench::bench_log;
use ada_mining::kmeans::{KMeans, KMeansBackend};
use ada_vsm::VsmBuilder;

fn bench_backends(c: &mut Criterion) {
    let log = bench_log();
    // The optimizer's working set: the partial-mining subset.
    let pv = VsmBuilder::new().top_features(&log, 64).build(&log);

    let mut group = c.benchmark_group("kmeans");
    group.sample_size(10);
    for k in [6usize, 8, 12, 20] {
        group.bench_with_input(BenchmarkId::new("lloyd", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    KMeans::new(k)
                        .seed(1)
                        .backend(KMeansBackend::Lloyd)
                        .fit(&pv.matrix),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("filtering", k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    KMeans::new(k)
                        .seed(1)
                        .backend(KMeansBackend::Filtering)
                        .fit(&pv.matrix),
                )
            })
        });
    }
    group.finish();
}

fn bench_dimensionality(c: &mut Criterion) {
    // Lloyd vs filtering as the feature count grows: kd-tree pruning
    // weakens in high dimensions (the curse the paper's partial mining
    // side-steps by shrinking the feature space first).
    let log = bench_log();
    let mut group = c.benchmark_group("kmeans-dims");
    group.sample_size(10);
    for dims in [16usize, 32, 64, 159] {
        let pv = VsmBuilder::new().top_features(&log, dims).build(&log);
        group.bench_with_input(BenchmarkId::new("lloyd", dims), &pv, |b, pv| {
            b.iter(|| {
                black_box(
                    KMeans::new(8)
                        .seed(1)
                        .backend(KMeansBackend::Lloyd)
                        .fit(&pv.matrix),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("filtering", dims), &pv, |b, pv| {
            b.iter(|| {
                black_box(
                    KMeans::new(8)
                        .seed(1)
                        .backend(KMeansBackend::Filtering)
                        .fit(&pv.matrix),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backends, bench_dimensionality);
criterion_main!(benches);
