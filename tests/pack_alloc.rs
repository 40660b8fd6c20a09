//! Proof that every scheme's pack allocates per arena, not per node: with
//! the substrate computed up front, each of the six `build_with_substrate`
//! packs over a 16,384-node random tree costs fewer than 0.01 allocations
//! per node.
//!
//! A counting global allocator wraps the system allocator and counts every
//! `alloc` and `realloc` the measured build makes on the calling thread (the
//! pack is serial).  (This file holds a single test on purpose: the counter
//! is process-global, and a second test running on another thread would
//! pollute it.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, NaiveScheme, OptimalScheme, StoredScheme, Substrate,
};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the thread under measurement (the test harness's own
    /// threads allocate at times of their choosing).
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

/// Runs `build` and returns its result with the allocations it made.
fn counted<T>(build: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.set(true);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = build();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.set(false);
    (out, after - before)
}

#[test]
fn every_pack_allocates_per_arena_not_per_node() {
    let tree = gen::random_tree(16_384, 1);
    let sub = Substrate::new(&tree);
    sub.precompute();
    let n = tree.len() as f64;
    let mut report = Vec::new();
    macro_rules! measure {
        ($name:literal, $build:expr) => {{
            let (scheme, allocations) = counted(|| $build);
            // Keep the build honest: the frame must exist and answer.
            assert!(scheme.as_store().label_region_bits() > 0, $name);
            drop(scheme);
            report.push(($name, allocations));
        }};
    }
    measure!("naive", NaiveScheme::build_with_substrate(&sub));
    measure!(
        "distance-array",
        DistanceArrayScheme::build_with_substrate(&sub)
    );
    measure!("optimal", OptimalScheme::build_with_substrate(&sub));
    measure!("k-distance", KDistanceScheme::build_with_substrate(&sub, 8));
    measure!(
        "approximate",
        ApproximateScheme::build_with_substrate(&sub, 0.25)
    );
    measure!(
        "level-ancestor",
        LevelAncestorScheme::build_with_substrate(&sub)
    );
    for (name, allocations) in &report {
        println!(
            "{name}: {allocations} allocations ({:.4} per node)",
            *allocations as f64 / n
        );
    }
    for (name, allocations) in report {
        let per_node = allocations as f64 / n;
        assert!(
            per_node < 0.01,
            "{name}: {allocations} allocations for {n} nodes ({per_node:.3} per node)"
        );
    }
}
