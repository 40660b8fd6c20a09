//! Proof that the build substrate allocates per heavy path arena, not per
//! node: the heavy-path decomposition and the Lemma 2.1 auxiliary labels of
//! a 16,384-node random tree — and of its §2 binarization — each cost fewer
//! than 0.01 allocations per node.
//!
//! A counting global allocator wraps the system allocator and counts every
//! `alloc` and `realloc` the measured constructor makes on the calling
//! thread (the constructors are serial).  (This file holds a
//! single test on purpose: the counter is process-global, and a second test
//! running on another thread would pollute it.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use treelab::core::hpath::HpathLabeling;
use treelab::tree::binarize::Binarized;
use treelab::{gen, HeavyPaths, Tree};

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

/// Runs `build` and returns its result with the allocations it made.
fn counted<T>(build: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.set(true);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = build();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.set(false);
    (out, after - before)
}

fn assert_per_node_below(what: &str, tree: &Tree, allocations: u64) {
    let per_node = allocations as f64 / tree.len() as f64;
    assert!(
        per_node < 0.01,
        "{what}: {allocations} allocations for {} nodes ({per_node:.3} per node)",
        tree.len()
    );
}

#[test]
fn substrate_components_allocate_per_arena_not_per_node() {
    let tree = gen::random_tree(16_384, 1);
    let bin = Binarized::try_new(&tree).expect("an unweighted tree binarizes");
    for (what, t) in [("original", &tree), ("binarized", bin.tree())] {
        let (hp, heavy_allocs) = counted(|| HeavyPaths::new(t));
        assert_per_node_below(&format!("{what}: HeavyPaths::new"), t, heavy_allocs);
        let (aux, aux_allocs) = counted(|| HpathLabeling::with_heavy_paths(t, &hp));
        assert_per_node_below(
            &format!("{what}: HpathLabeling::with_heavy_paths"),
            t,
            aux_allocs,
        );
        // The labels are views into the arenas: reading them allocates
        // nothing at all.
        let (depth, view_allocs) = counted(|| {
            t.nodes()
                .map(|u| aux.label(u).light_depth() as u64 + aux.label(u).pre())
                .sum::<u64>()
        });
        assert!(depth > 0);
        assert_eq!(view_allocs, 0, "{what}: label views allocated");
    }
}
