//! Partial-mining speed bench: the motivation for Section IV-B.
//!
//! "To avoid the expensive and resource-consuming procedure of mining
//! the entire dataset when not necessary" — this bench quantifies the
//! claim: clustering on the 20% / 40% exam-type subsets vs the full
//! matrix — each of the three rung shapes over dense rows and over the
//! non-zero view the miner actually passes — plus the full adaptive
//! strategy's end-to-end cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ada_bench::bench_log;
use ada_core::partial::HorizontalPartialMiner;
use ada_mining::kmeans::KMeans;
use ada_vsm::VsmBuilder;

fn bench_subset_clustering(c: &mut Criterion) {
    let log = bench_log();
    let n_types = log.num_exam_types();
    let mut group = c.benchmark_group("partial-clustering");
    group.sample_size(10);
    for fraction in [0.2f64, 0.4, 1.0] {
        let top = ((fraction * n_types as f64).ceil() as usize).min(n_types);
        // The miner's rung matrix: top-frequency features, unit rows.
        let pv = VsmBuilder::new()
            .normalize(true)
            .top_features(&log, top)
            .build(&log);
        let rung = format!("{:.0}%", fraction * 100.0);
        group.bench_with_input(
            BenchmarkId::new("kmeans8-dense-rows", &rung),
            &pv,
            |b, pv| b.iter(|| black_box(KMeans::new(8).seed(1).fit(&pv.matrix))),
        );
        group.bench_with_input(
            BenchmarkId::new("kmeans8-sparse-rows", &rung),
            &pv,
            |b, pv| {
                let rows = pv.matrix.sparse_rows();
                b.iter(|| black_box(KMeans::new(8).seed(1).fit_rows(&rows)))
            },
        );
    }
    group.finish();
}

fn bench_adaptive_strategy(c: &mut Criterion) {
    let log = bench_log();
    let mut group = c.benchmark_group("partial-adaptive");
    group.sample_size(10);
    group.bench_function("horizontal-default", |b| {
        b.iter(|| black_box(HorizontalPartialMiner::default().run(&log)))
    });
    group.bench_function("horizontal-single-k", |b| {
        b.iter(|| {
            black_box(
                HorizontalPartialMiner {
                    ks: vec![8],
                    restarts: 1,
                    ..Default::default()
                }
                .run(&log),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_subset_clustering, bench_adaptive_strategy);
criterion_main!(benches);
