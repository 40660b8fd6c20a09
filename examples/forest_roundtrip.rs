//! "Many trees, one frame": build a mixed-scheme forest, serialize it to one
//! file, reload it in a fresh (simulated) process — opened from the file
//! (eagerly and lazily) and adopted from a copy of its words — and serve a
//! routed, Zipf-skewed query batch through the grouped engine and its
//! threaded helper.
//!
//! ```text
//! cargo run --release --example forest_roundtrip
//! ```
//!
//! CI runs this as the forest round-trip smoke: it exercises every layer of
//! the serving stack (builder → TLFRST01 frame → crash-safe
//! `ForestStore::publish` → `ForestStore::open` eager + lazy reloads and a
//! `ForestStore::from_words` reload → hot mutation (tombstone + append + republish) → per-tree
//! views → routed batch → threaded batch) and fails loudly on any
//! disagreement between the serving strategies.

use std::time::Instant;
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::tree::rng::SplitMix64;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, ForestStore, NaiveScheme, OptimalScheme, Parallelism,
    QueryStatus, RouteScratch, Substrate, Tree, ValidationPolicy,
};
use treelab_bench::ScratchDir;

const TREES: usize = 12;
const NODES_PER_TREE: usize = 2048;
const QUERIES: usize = 50_000;

fn main() {
    println!("# forest round-trip, {TREES} trees x {NODES_PER_TREE} nodes, mixed schemes\n");

    // Build: one substrate per tree, schemes assigned round-robin.
    let t0 = Instant::now();
    let corpus: Vec<(u64, Tree)> = (0..TREES as u64)
        .map(|id| (id, gen::random_tree(NODES_PER_TREE, 2017 + id)))
        .collect();
    let mut b = ForestStore::builder();
    for (i, (id, tree)) in corpus.iter().enumerate() {
        let sub = Substrate::new(tree);
        match i % 6 {
            0 => b.push_scheme(*id, &NaiveScheme::build_with_substrate(&sub)),
            1 => b.push_scheme(*id, &DistanceArrayScheme::build_with_substrate(&sub)),
            2 => b.push_scheme(*id, &OptimalScheme::build_with_substrate(&sub)),
            3 => b.push_scheme(*id, &KDistanceScheme::build_with_substrate(&sub, 8)),
            4 => b.push_scheme(*id, &ApproximateScheme::build_with_substrate(&sub, 0.25)),
            _ => b.push_scheme(*id, &LevelAncestorScheme::build_with_substrate(&sub)),
        }
        .expect("corpus ids are distinct");
    }
    // Assemble, then persist crash-safely; the building process keeps
    // serving from the assembled store without re-reading the file.
    let dir = ScratchDir::new("forest-example");
    let path = dir.join("forest.bin");
    let forest = b.finish().expect("forest builds");
    forest.publish(&path).expect("forest writes");
    println!(
        "built   {:>9} bytes in {:.1} ms ({} trees: {})",
        forest.size_bytes(),
        t0.elapsed().as_secs_f64() * 1e3,
        forest.tree_count(),
        forest
            .tree_ids()
            .map(|id| forest.tree(id).unwrap().scheme_name())
            .collect::<Vec<_>>()
            .join(", "),
    );

    // Reopen the file as a serving process would (served from its map on
    // 64-bit Unix) — once proving every inner frame up front, once deferring
    // them to first touch (the restart path treebench's `first_query_*`
    // metrics measure at scale).
    let t1 = Instant::now();
    let owned = ForestStore::open(&path).expect("valid forest file");
    assert_eq!(owned.as_words(), forest.as_words());
    println!(
        "loaded  (ForestStore::open, eager) in {:.1} ms",
        t1.elapsed().as_secs_f64() * 1e3
    );
    let t1 = Instant::now();
    let lazy =
        ForestStore::open_with(&path, ValidationPolicy::Lazy).expect("valid forest directory");
    let first = lazy.tree(0).expect("first touch validates").distance(0, 1);
    println!(
        "loaded  (ForestStore::open, lazy) + first query in {:.1} ms",
        t1.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(first, owned.tree(0).unwrap().distance(0, 1));
    drop(lazy);

    // Hot mutation while serving: retire one tree, append a fresh one, and
    // republish crash-safely (write-temp + fsync + atomic rename).  A pin
    // keeps the pre-mutation generation answering throughout.
    let retired = corpus[TREES - 1].0;
    let mut mutated = owned.clone();
    let pin = mutated.pin();
    mutated.tombstone(retired).expect("live tree retires");
    let extra = gen::random_tree(NODES_PER_TREE / 2, 777);
    mutated
        .append_scheme(TREES as u64, &NaiveScheme::build(&extra))
        .expect("fresh id appends");
    mutated.publish(&path).expect("atomic republish");
    let republished = ForestStore::open(&path).expect("republished frame");
    assert_eq!(republished.as_words(), mutated.as_words());
    assert!(republished.is_tombstoned(retired) && pin.tree(retired).is_some());
    println!(
        "mutated generation {} -> {}: tree {retired} tombstoned, tree {TREES} appended, republished",
        pin.generation(),
        mutated.generation(),
    );
    drop(dir);

    // Word path: adopt a copy of the words (as read from any source) and
    // validate it eagerly.
    let t2 = Instant::now();
    let adopted = ForestStore::from_words(owned.as_words().to_vec()).expect("word reload");
    println!(
        "loaded  (ForestStore::from_words, eager) in {:.1} ms",
        t2.elapsed().as_secs_f64() * 1e3
    );

    // A skewed routed batch: hot trees dominate, every tree appears.
    let mut rng = SplitMix64::seed_from_u64(42);
    let queries: Vec<(u64, usize, usize)> = (0..QUERIES)
        .map(|_| {
            let hot = !rng.next_u64().is_multiple_of(4);
            let id = if hot {
                rng.next_u64() % 3
            } else {
                rng.next_u64() % TREES as u64
            };
            let n = corpus[id as usize].1.len() as u64;
            (
                id,
                (rng.next_u64() % n) as usize,
                (rng.next_u64() % n) as usize,
            )
        })
        .collect();

    // Serve the batch three ways; all must agree, in arrival order.
    let t3 = Instant::now();
    let mut naive_loop = Vec::with_capacity(queries.len());
    for &(id, u, v) in &queries {
        let d = owned.tree(id).expect("known tree").distance(u, v);
        naive_loop.push(QueryStatus::Ok(d));
    }
    let loop_ns = t3.elapsed().as_nanos() as f64 / queries.len() as f64;

    let mut scratch = RouteScratch::new();
    let mut routed = Vec::with_capacity(queries.len());
    adopted.try_route_distances_into(&queries, &mut scratch, &mut routed); // warm
    routed.clear();
    let t4 = Instant::now();
    adopted.try_route_distances_into(&queries, &mut scratch, &mut routed);
    let routed_ns = t4.elapsed().as_nanos() as f64 / queries.len() as f64;

    // Threads are the caller's: the helper splits the batch over scoped
    // threads, each routing its chunk with a fresh scratch.
    let t5 = Instant::now();
    let sharded = owned.try_route_distances_sharded(&queries, Parallelism::Auto);
    let sharded_ns = t5.elapsed().as_nanos() as f64 / queries.len() as f64;

    assert_eq!(naive_loop, routed, "routed engine disagrees with the loop");
    assert_eq!(
        naive_loop, sharded,
        "sharded engine disagrees with the loop"
    );

    println!(
        "\nserved  {QUERIES} routed queries: loop {loop_ns:>5.0} ns/q   \
         routed {routed_ns:>5.0} ns/q   sharded {sharded_ns:>5.0} ns/q"
    );
    println!("\nall serving strategies agree, in arrival order");
}
