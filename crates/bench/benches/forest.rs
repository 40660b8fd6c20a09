//! Criterion bench: the forest serving layer (experiment E12) — routed batch
//! queries against a mixed-scheme forest under Zipf-skewed tree popularity,
//! versus the naive per-query serving loop, plus the sharded driver and the
//! forest load path.
//!
//! CI runs this bench in fast mode as the forest smoke: a regression that
//! makes the routed engine stop compiling, panic, or disagree with the
//! per-query loop fails the pipeline here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use treelab_bench::workloads::{build_mixed_forest, forest_corpus, skewed_forest_queries};
use treelab_core::forest::{ForestStore, QueryStatus, RouteScratch};
use treelab_core::substrate::Parallelism;

fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(20);

    // Bench sizes stay CI-friendly; E12 in the experiments binary measures
    // the big corpus with the same `build_mixed_forest`.
    for &(trees, n_per_tree) in &[(8usize, 1usize << 10), (16, 1 << 12)] {
        let corpus = forest_corpus(trees, n_per_tree, 13);
        let forest = build_mixed_forest(&corpus);
        let batch = skewed_forest_queries(&corpus, 4096, 1.0, 17);
        let bytes = forest.to_bytes();
        let param = format!("{trees}x{n_per_tree}");

        // Sanity once per size: the three serving strategies agree.
        let (mut routed, mut sharded) = (Vec::new(), Vec::new());
        forest.try_route_distances_into(&batch, &mut RouteScratch::new(), &mut routed);
        let mut auto = RouteScratch::with_parallelism(Parallelism::Auto);
        forest.try_route_distances_into(&batch, &mut auto, &mut sharded);
        assert_eq!(routed, sharded, "sharded must equal routed");
        for (i, &(id, u, v)) in batch.iter().enumerate() {
            let want = forest.tree(id).unwrap().distance(u, v);
            assert_eq!(routed[i], QueryStatus::Ok(want));
        }

        // The naive per-query serving loop (arrival order, one dispatch and
        // one id lookup per query).
        group.bench_with_input(BenchmarkId::new("loop_4k", &param), &batch, |b, batch| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(id, u, v) in batch {
                    acc = acc.wrapping_add(forest.tree(id).unwrap().distance(u, v));
                }
                acc
            })
        });

        // The routed engine, serial then sharded over every core, scratch
        // and output reused across iterations (sharded equals routed on a
        // single-core host).
        for (name, par) in [
            ("routed_4k", Parallelism::Serial),
            ("sharded_4k", Parallelism::Auto),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &param), &batch, |b, batch| {
                let mut scratch = RouteScratch::with_parallelism(par);
                let mut out = Vec::with_capacity(batch.len());
                forest.try_route_distances_into(batch, &mut scratch, &mut out);
                b.iter(|| {
                    out.clear();
                    forest.try_route_distances_into(batch, &mut scratch, &mut out);
                    out.last().copied()
                })
            });
        }

        // Forest load, copy path (validates every inner frame once).
        group.bench_with_input(BenchmarkId::new("load", &param), &bytes, |b, bytes| {
            b.iter(|| ForestStore::from_bytes(bytes).expect("valid forest"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forest);
criterion_main!(benches);
