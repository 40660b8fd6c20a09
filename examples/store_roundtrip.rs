//! "Build once, serve many": serialize a whole scheme to disk, reload it in a
//! fresh (simulated) process, and serve batch distance queries straight from
//! the mapped bytes — no per-label decoding.
//!
//! ```text
//! cargo run --release --example store_roundtrip
//! ```
//!
//! CI runs this as the store round-trip smoke: it exercises every layer of
//! the store (serialize → file → from_bytes → batch queries) for all six
//! schemes and fails loudly on any mismatch against the in-memory labels.

use std::time::Instant;
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, NaiveScheme, OptimalScheme, SchemeStore,
    StoredScheme, Substrate, Tree, NO_DISTANCE,
};
use treelab_bench::ScratchDir;

fn pairs(n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|i| ((i * 7919 + 3) % n, (i * 104_729 + 11) % n))
        .collect()
}

/// Serialize → temp file → reload → batch query; checks every answer against
/// the in-memory scheme and prints one summary line.
fn roundtrip<S: StoredScheme>(tree: &Tree, scheme: &S, expected: impl Fn(usize, usize) -> u64) {
    let t0 = Instant::now();
    let bytes = scheme.as_store().to_bytes();
    let serialize_ms = t0.elapsed().as_secs_f64() * 1e3;

    let dir = ScratchDir::new("store-example");
    let path = dir.join("store.bin");
    std::fs::write(&path, &bytes).expect("write store");
    let read_back = std::fs::read(&path).expect("read store");

    let t1 = Instant::now();
    let store = SchemeStore::<S>::from_bytes(&read_back).expect("valid store");
    let load_us = t1.elapsed().as_secs_f64() * 1e6;

    let queries = pairs(tree.len(), 20_000);
    let t2 = Instant::now();
    let got = store.distances(&queries);
    let query_ns = t2.elapsed().as_nanos() as f64 / queries.len() as f64;

    for (i, &(u, v)) in queries.iter().enumerate() {
        assert_eq!(got[i], expected(u, v), "{}: query ({u},{v})", S::STORE_NAME);
    }
    println!(
        "{:<18} {:>9} bytes   serialize {serialize_ms:>6.1} ms   load {load_us:>7.1} µs   \
         store query {query_ns:>5.0} ns",
        S::STORE_NAME,
        bytes.len(),
    );
}

fn main() {
    let n = 1 << 14;
    let tree = gen::random_tree(n, 2017);
    let sub = Substrate::new(&tree);
    println!("# store round-trip, random tree n = {n}\n");

    let naive = NaiveScheme::build_with_substrate(&sub);
    roundtrip(&tree, &naive, |u, v| {
        naive.distance(tree.node(u), tree.node(v))
    });
    let da = DistanceArrayScheme::build_with_substrate(&sub);
    roundtrip(&tree, &da, |u, v| da.distance(tree.node(u), tree.node(v)));
    let opt = OptimalScheme::build_with_substrate(&sub);
    roundtrip(&tree, &opt, |u, v| opt.distance(tree.node(u), tree.node(v)));
    let kd = KDistanceScheme::build_with_substrate(&sub, 8);
    roundtrip(&tree, &kd, |u, v| {
        kd.distance(tree.node(u), tree.node(v))
            .unwrap_or(NO_DISTANCE)
    });
    let approx = ApproximateScheme::build_with_substrate(&sub, 0.25);
    roundtrip(&tree, &approx, |u, v| {
        approx.distance(tree.node(u), tree.node(v))
    });
    let la = LevelAncestorScheme::build_with_substrate(&sub);
    roundtrip(&tree, &la, |u, v| {
        DistanceScheme::distance(&la, tree.node(u), tree.node(v))
    });

    println!("\nall six schemes round-tripped bit-exactly");
}
