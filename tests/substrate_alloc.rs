//! Proof that the build substrate allocates per heavy path arena, not per
//! node: the heavy-path decomposition and the Lemma 2.1 auxiliary labels of
//! a 16,384-node random tree — and of its §2 binarization — each cost fewer
//! than 0.01 allocations per node.
//!
//! The shared counting allocator (`tests/common`) counts every `alloc` and
//! `realloc` the measured constructor makes on the calling thread (the
//! constructors are serial).

mod common;

use common::counted;
use treelab::core::hpath::HpathLabeling;
use treelab::tree::binarize::Binarized;
use treelab::{gen, HeavyPaths, Tree};

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
        let (bits, view_allocs) = counted(|| {
            t.nodes()
                .map(|u| aux.label(u).light_depth() + aux.label(u).bit_len())
                .sum::<usize>()
        });
        assert!(bits > 0);
        assert_eq!(view_allocs, 0, "{what}: label views allocated");
    }
}
