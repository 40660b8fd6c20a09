//! Proof that the forest's routed batch engine allocates nothing per query
//! once its one-time group scratch has grown to the batch working size —
//! the forest-side mirror of `tests/store_alloc.rs` — that the lazy
//! `tree(id)` path is allocation-free after a tree's first-touch
//! validation, and that a
//! store opened from a file (served from its map on 64-bit Unix) routes
//! without allocating once warm.
//!
//! The shared counting allocator (`tests/common`) counts the allocations of
//! the thread that routes (the router runs on the calling thread); after a
//! warm-up batch has sized the [`RouteScratch`] and the status buffer,
//! repeating the routed batch (same batch size, different query mix) must
//! leave the allocation counter untouched.  The scratch embeds the batch
//! kernels' structure-of-arrays planning buffers (`BatchPlan`, shared across
//! every per-tree group of a batch), and each group computes pair by pair
//! through the one-pair kernels, so the zero-allocation proof covers the SoA
//! planning stage *and* the compute loop — as must hammering
//! `tree(id)`/`try_tree` on a lazily-opened forest whose trees have all been
//! touched once.

mod common;

use common::counted;
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, ForestStore, NaiveScheme, OptimalScheme, QueryStatus,
    RouteScratch, Tree, ValidationPolicy,
};

/// A skewed routed query batch: most queries hit the first trees, every tree
/// gets some, long same-tree runs exercise the slot-resolution fast path.
fn batch(trees: &[(u64, Tree)], count: usize, salt: usize) -> Vec<(u64, usize, usize)> {
    (0..count)
        .map(|i| {
            let slot = (i * i + salt) % (trees.len() * 2) % trees.len();
            let (id, tree) = &trees[slot];
            let n = tree.len();
            (*id, (i * 31 + salt) % n, (i * 87 + 5) % n)
        })
        .collect()
}

#[test]
fn routed_batches_do_not_allocate_after_the_scratch_warms_up() {
    let trees: Vec<(u64, Tree)> = vec![
        (2, gen::random_tree(400, 61)),
        (3, gen::random_tree(300, 62)),
        (10, gen::comb(350)),
        (11, gen::random_binary(320, 63)),
        (20, gen::random_tree(280, 64)),
        (31, gen::random_tree(260, 65)),
    ];
    let mut b = ForestStore::builder();
    b.push_scheme(2, &NaiveScheme::build(&trees[0].1)).unwrap();
    b.push_scheme(3, &DistanceArrayScheme::build(&trees[1].1))
        .unwrap();
    b.push_scheme(10, &OptimalScheme::build(&trees[2].1))
        .unwrap();
    b.push_scheme(11, &KDistanceScheme::build(&trees[3].1, 8))
        .unwrap();
    b.push_scheme(20, &ApproximateScheme::build(&trees[4].1, 0.25))
        .unwrap();
    b.push_scheme(31, &LevelAncestorScheme::build(&trees[5].1))
        .unwrap();
    let forest = b.finish().expect("forest builds");

    let warmup = batch(&trees, 4096, 0);
    let storm1 = batch(&trees, 4096, 17);
    let storm2 = batch(&trees, 4096, 112);

    // Warm up (and sanity-check) outside the counted region: grows the
    // scratch and the output buffer to the batch working size.
    let route = |queries: &[(u64, usize, usize)]| {
        let mut out = Vec::new();
        forest.try_route_distances_into(queries, &mut RouteScratch::new(), &mut out);
        out
    };
    let mut scratch = RouteScratch::new();
    let mut out: Vec<QueryStatus> = Vec::new();
    assert!(forest
        .try_route_distances_into(&warmup, &mut scratch, &mut out)
        .all_ok());
    let expect1 = route(&storm1);
    out.clear();

    let ((), allocations) = counted(|| {
        forest.try_route_distances_into(&storm1, &mut scratch, &mut out);
        out.clear();
        forest.try_route_distances_into(&storm2, &mut scratch, &mut out);
    });
    assert_eq!(
        allocations, 0,
        "the routed batch engine allocated {allocations} times after warm-up"
    );
    assert_eq!(out, route(&storm2));
    assert_eq!(expect1, {
        let mut again = Vec::with_capacity(storm1.len());
        forest.try_route_distances_into(&storm1, &mut scratch, &mut again);
        again
    });

    // Failure statuses cost nothing either: once the status buffer has grown
    // to the batch size, routing a mixed batch (healthy queries, unknown
    // ids, out-of-range nodes) leaves the counter untouched.
    let mut mixed = batch(&trees, 4096, 23);
    mixed[7] = (999, 0, 0); // UnknownTree
    mixed[19] = (2, 100_000, 0); // NodeOutOfRange
    let mut statuses: Vec<QueryStatus> = Vec::new();
    forest.try_route_distances_into(&warmup, &mut scratch, &mut statuses);
    statuses.clear();
    let (outcome, allocations) =
        counted(|| forest.try_route_distances_into(&mixed, &mut scratch, &mut statuses));
    assert_eq!(
        allocations, 0,
        "the fallible routed engine allocated {allocations} times after warm-up"
    );
    assert_eq!(outcome.ok, mixed.len() - 2);
    assert_eq!(outcome.unknown_tree, 1);
    assert_eq!(outcome.out_of_range, 1);
    assert_eq!(statuses[7], QueryStatus::UnknownTree);
    assert_eq!(statuses[19], QueryStatus::NodeOutOfRange);

    // Lazy fast path: once every tree has been touched (validated) exactly
    // once, `tree(id)`/`try_tree` on a lazily-opened forest replay the cached
    // verdict and materialize the view without a single allocation.
    let bytes = forest.to_bytes();
    let lazy = ForestStore::from_bytes_with(&bytes, ValidationPolicy::Lazy)
        .expect("lazy open proves the directory");
    let ids: Vec<u64> = lazy.tree_ids().collect();
    let mut warm_sum = 0u64;
    for &id in &ids {
        // First touch: validation happens (and may allocate) here, outside
        // the counted region.
        warm_sum += lazy.tree(id).expect("valid tree").distance(0, 1);
    }
    let (sum, allocations) = counted(|| {
        let mut sum = 0u64;
        for _ in 0..64 {
            for &id in &ids {
                sum += lazy.tree(id).expect("cached verdict").distance(0, 1);
                assert!(lazy.try_tree(id).is_ok());
            }
        }
        sum
    });
    assert_eq!(
        allocations, 0,
        "the lazy tree(id) fast path allocated {allocations} times after first touch"
    );
    assert_eq!(sum, warm_sum * 64);

    // A store opened lazily from the published file routes warmed-up
    // batches without allocating: the read path never copies the words.
    let dir = treelab_bench::ScratchDir::new("forest-alloc");
    let path = dir.join("forest.bin");
    forest.publish(&path).expect("publish");
    let opened = ForestStore::open_with(&path, ValidationPolicy::Lazy).expect("lazy open");
    let mut scratch = RouteScratch::new();
    statuses.clear();
    assert!(opened
        .try_route_distances_into(&warmup, &mut scratch, &mut statuses)
        .all_ok());
    statuses.clear();
    let ((), allocations) = counted(|| {
        opened.try_route_distances_into(&storm1, &mut scratch, &mut statuses);
        statuses.clear();
        opened.try_route_distances_into(&storm2, &mut scratch, &mut statuses);
    });
    assert_eq!(
        allocations, 0,
        "routing on an opened file allocated {allocations} times after warm-up"
    );
    assert_eq!(statuses, route(&storm2));
}
