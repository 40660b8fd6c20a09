//! Proof that the packed-native query path allocates nothing.
//!
//! A counting global allocator wraps the system allocator and counts the
//! allocations of the thread that runs the queries; after the schemes and
//! the output buffer are set up, a query storm across all six schemes must
//! leave the allocation counter untouched — both through the scheme types'
//! own `distance` entry points (the schemes are thin owners of their packed
//! frames, so a single query is kernel arithmetic over the frame words) and
//! through the store's per-query, batch and iterator forms.  (This file holds
//! a single test on purpose: the counter is process-global, and a second test
//! running on another thread would pollute it.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, NaiveScheme, OptimalScheme, SchemeStore,
    StoredScheme, Substrate,
};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the thread under measurement: the code under test runs on
    /// it alone, and the test harness's own threads allocate at times of
    /// their choosing (a harness allocation landing inside a counted region
    /// used to fail this test under CPU contention).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: defers every operation to the system allocator unchanged; the
// counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn assert_alloc_free(name: &str, queries: impl FnOnce()) {
    COUNTING.set(true);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    queries();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.set(false);
    assert_eq!(
        after - before,
        0,
        "{name}: the query path allocated {} times",
        after - before
    );
}

/// Single-query storm through the scheme type's own `distance` (the
/// packed-native entry point every caller inherits).
fn scheme_storm<S, Q>(pairs: &[(usize, usize)], query: Q)
where
    S: StoredScheme,
    Q: Fn(usize, usize) -> u64,
{
    // Warm up (and sanity-check) outside the counted region.
    let mut acc = 0u64;
    for &(u, v) in &pairs[..16] {
        acc = acc.wrapping_add(query(u, v));
    }
    std::hint::black_box(acc);
    assert_alloc_free(&format!("{}::distance", S::STORE_NAME), || {
        let mut acc = 0u64;
        for &(u, v) in pairs {
            acc = acc.wrapping_add(query(u, v));
        }
        std::hint::black_box(acc);
    });
}

/// Store-side storm: refs, the batch engine and `Store::distance`.
fn storm<S: StoredScheme>(name: &str, store: &SchemeStore<S>, pairs: &[(usize, usize)]) {
    // Warm up (and sanity-check) outside the counted region.
    let mut out: Vec<u64> = Vec::with_capacity(pairs.len());
    store.distances_into(pairs, &mut out);
    assert_eq!(out.len(), pairs.len());
    out.clear();

    assert_alloc_free(name, || {
        // Individual queries through refs…
        let mut acc = 0u64;
        for &(u, v) in pairs {
            acc = acc.wrapping_add(S::distance_refs(store.label_ref(u), store.label_ref(v)));
        }
        std::hint::black_box(acc);
        // …and the batch engine into a pre-reserved buffer.  This is the
        // structure-of-arrays pipeline: its planning buffers (`BatchPlan`)
        // are fixed-size stack arrays, so the counter staying at zero here
        // proves the SoA plan heap-allocates nothing.
        store.distances_into(pairs, &mut out);
        // …and the store's own one-pair entry point.
        for &(u, v) in pairs {
            acc = acc.wrapping_add(store.distance(u, v));
        }
        std::hint::black_box(acc);
    });
}

#[test]
fn every_scheme_queries_without_allocating() {
    let tree = gen::random_tree(700, 11);
    let n = tree.len();
    let pairs: Vec<(usize, usize)> = (0..2000)
        .map(|i| ((i * 7919 + 3) % n, (i * 104_729 + 11) % n))
        .collect();
    let sub = Substrate::new(&tree);

    let naive = NaiveScheme::build_with_substrate(&sub);
    scheme_storm::<NaiveScheme, _>(&pairs, |u, v| naive.distance(tree.node(u), tree.node(v)));
    storm("naive", naive.as_store(), &pairs);

    let da = DistanceArrayScheme::build_with_substrate(&sub);
    scheme_storm::<DistanceArrayScheme, _>(&pairs, |u, v| da.distance(tree.node(u), tree.node(v)));
    storm("distance-array", da.as_store(), &pairs);

    let opt = OptimalScheme::build_with_substrate(&sub);
    scheme_storm::<OptimalScheme, _>(&pairs, |u, v| opt.distance(tree.node(u), tree.node(v)));
    storm("optimal", opt.as_store(), &pairs);

    let kd = KDistanceScheme::build_with_substrate(&sub, 8);
    scheme_storm::<KDistanceScheme, _>(&pairs, |u, v| {
        kd.distance(tree.node(u), tree.node(v)).unwrap_or(u64::MAX)
    });
    storm("k-distance", kd.as_store(), &pairs);

    let approx = ApproximateScheme::build_with_substrate(&sub, 0.25);
    scheme_storm::<ApproximateScheme, _>(&pairs, |u, v| {
        approx.distance(tree.node(u), tree.node(v))
    });
    storm("approximate", approx.as_store(), &pairs);

    let la = LevelAncestorScheme::build_with_substrate(&sub);
    scheme_storm::<LevelAncestorScheme, _>(&pairs, |u, v| {
        DistanceScheme::distance(&la, tree.node(u), tree.node(v))
    });
    storm("level-ancestor", la.as_store(), &pairs);
}
