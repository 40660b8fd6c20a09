//! Criterion bench: serialization throughput — the store frame handoff of
//! the packed-native representation (whole-scheme serialize + validated
//! reload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use treelab_bench::workloads::Family;
use treelab_core::optimal::OptimalScheme;
use treelab_core::{DistanceScheme, SchemeStore};

fn bench_serialization(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_serialization");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(20);
    for &n in &[1usize << 12, 1 << 15] {
        let tree = Family::Comb.build(n, 5);
        let opt = OptimalScheme::build(&tree);

        // The native path: whole-scheme frame handoff + validated reload.
        group.bench_with_input(
            BenchmarkId::new("optimal_frame_serialize", n),
            &opt,
            |b, s| b.iter(|| SchemeStore::serialize(s).len()),
        );
        let frame = SchemeStore::serialize(&opt);
        group.bench_with_input(
            BenchmarkId::new("optimal_frame_load", n),
            &frame,
            |b, bytes| {
                b.iter(|| {
                    SchemeStore::<OptimalScheme>::from_bytes(bytes)
                        .unwrap()
                        .node_count()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serialization);
criterion_main!(benches);
