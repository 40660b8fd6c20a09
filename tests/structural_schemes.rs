//! Integration tests for the level-ancestor scheme, universal trees, the
//! heavy-path auxiliary labels and label serialization — the structural
//! machinery of §2, §3.5 and §3.6.  Property-style tests are driven by a
//! seeded in-repo generator (the build environment has no crates.io access,
//! so `proptest` is not available).

use std::collections::HashMap;
use treelab::core::hpath::{HpathLabel, HpathLabeling};
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::core::universal::{universal_from_parent_labels, universal_tree, verify_universal};
use treelab::tree::embed::{all_rooted_trees, embeds, embeds_at_root};
use treelab::tree::rng::SplitMix64;
use treelab::{gen, DistanceOracle, DistanceScheme, HeavyPaths, OptimalScheme};

#[test]
fn level_ancestor_walks_match_the_tree_across_families() {
    let trees = vec![
        gen::path(120),
        gen::star(120),
        gen::caterpillar(30, 3),
        gen::comb(400),
        gen::complete_kary(2, 7),
        gen::random_tree(350, 7),
        gen::random_recursive(300, 8),
    ];
    for tree in &trees {
        let scheme = LevelAncestorScheme::build(tree);
        let by_bits: HashMap<_, _> = tree
            .nodes()
            .map(|u| (scheme.label(u).to_bits(), u))
            .collect();
        let depths = tree.depths();
        for u in tree.nodes().step_by(3) {
            // Walk all the way to the root via repeated parent queries.
            let mut label = scheme.label(u);
            let mut expected = u;
            let mut steps = 0;
            while let Some(parent_label) = LevelAncestorScheme::parent(&label) {
                expected = tree.parent(expected).expect("label said there is a parent");
                assert_eq!(by_bits[&parent_label.to_bits()], expected);
                label = parent_label;
                steps += 1;
                assert!(steps <= tree.len(), "parent chain does not terminate");
            }
            assert!(tree.is_root(expected));
            assert_eq!(steps, depths[u.index()]);
            // Random level-ancestor jumps.
            for k in [1u64, 2, 3, 7, depths[u.index()] as u64] {
                let got = LevelAncestorScheme::level_ancestor(&scheme.label(u), k);
                if k <= depths[u.index()] as u64 {
                    let expect = tree.ancestors(u)[k as usize];
                    assert_eq!(by_bits[&got.expect("within depth").to_bits()], expect);
                } else {
                    assert!(got.is_none());
                }
            }
        }
    }
}

#[test]
fn level_ancestor_labels_cost_about_twice_the_distance_labels() {
    // Theorem 1.1 vs Theorem 1.2: distance labels are ~¼·log²n, level-ancestor
    // labels are ~½·log²n.  At finite n we only check the qualitative
    // relation: the level-ancestor array payload is never smaller than the
    // optimal scheme's payload on the comb family, and both are Θ(log²n)-ish.
    let tree = gen::comb(1 << 13);
    let la = LevelAncestorScheme::build(&tree);
    let opt = OptimalScheme::build(&tree);
    let la_max = la.max_label_bits();
    let opt_payload = tree
        .nodes()
        .map(|u| opt.array_payload_bits(u))
        .max()
        .unwrap();
    assert!(
        la_max > opt_payload,
        "level-ancestor {la_max} bits vs optimal payload {opt_payload} bits"
    );
}

#[test]
fn universal_trees_contain_all_small_trees_and_match_size_formula() {
    use treelab::core::universal::universal_tree_size;
    for n in 1..=6usize {
        let u = universal_tree(n);
        assert_eq!(u.len() as u64, universal_tree_size(n));
        assert!(verify_universal(&u, n), "U({n}) is not universal");
    }
    // The Lemma 3.6 route: a parent labeling yields a universal tree too.
    let converted = universal_from_parent_labels(4);
    for m in 1..=4usize {
        for t in all_rooted_trees(m) {
            assert!(embeds(&t, &converted.tree));
        }
    }
}

#[test]
fn universal_tree_grows_much_faster_than_any_label_count() {
    // The separation behind Theorem 1.2: log2(universal tree size) grows like
    // ½·log²n − log n·log log n, while the optimal distance labels only need
    // ~¼·log²n bits; the gap opens once log n clearly exceeds 4·log log n.
    use treelab::bounds;
    for n in [1usize << 20, 1 << 30, 1 << 40] {
        assert!(bounds::universal_tree_size_log2(n) > bounds::exact_upper(n));
    }
}

#[test]
fn hpath_labels_agree_with_oracle_structure() {
    for tree in [
        gen::random_tree(300, 41),
        gen::comb(300),
        gen::caterpillar(50, 4),
    ] {
        let hp = HeavyPaths::new(&tree);
        let labeling = HpathLabeling::with_heavy_paths(&tree, &hp);
        let oracle = DistanceOracle::new(&tree);
        let n = tree.len();
        for i in 0..400 {
            let u = tree.node((i * 17) % n);
            let v = tree.node((i * 53 + 29) % n);
            let (lu, lv) = (labeling.label(u), labeling.label(v));
            let nca = oracle.lca(u, v);
            assert_eq!(
                HpathLabel::common_light_depth(lu, lv),
                hp.light_depth(nca),
                "({u},{v})"
            );
            assert_eq!(HpathLabel::is_ancestor(lu, lv), oracle.is_ancestor(u, v));
        }
    }
}

#[test]
fn prop_parent_chain_has_depth_length() {
    let mut rng = SplitMix64::seed_from_u64(0x57A1);
    for case in 0..16 {
        let n = rng.gen_range(1usize..120);
        let seed = rng.gen_range(0u64..500);
        let tree = gen::random_tree(n, seed);
        let scheme = LevelAncestorScheme::build(&tree);
        let depths = tree.depths();
        for u in tree.nodes() {
            let mut label = scheme.label(u);
            let mut steps = 0usize;
            while let Some(next) = LevelAncestorScheme::parent(&label) {
                label = next;
                steps += 1;
                assert!(steps <= n, "case {case}: n={n} seed={seed} node {u}");
            }
            assert_eq!(
                steps,
                depths[u.index()],
                "case {case}: n={n} seed={seed} node {u}"
            );
        }
    }
}

/// Random trees always embed into the recursive universal tree of their size.
#[test]
fn prop_random_trees_embed_into_universal() {
    let mut rng = SplitMix64::seed_from_u64(0x57A2);
    for case in 0..16 {
        let n = rng.gen_range(1usize..9);
        let seed = rng.gen_range(0u64..200);
        let tree = gen::random_tree(n, seed);
        let u = universal_tree(n);
        assert!(embeds_at_root(&tree, &u), "case {case}: n={n} seed={seed}");
    }
}

/// Heavy-path auxiliary labels stay logarithmic on random trees.
#[test]
fn prop_hpath_labels_logarithmic() {
    let mut rng = SplitMix64::seed_from_u64(0x57A3);
    for case in 0..16 {
        let n = rng.gen_range(2usize..600);
        let seed = rng.gen_range(0u64..300);
        let tree = gen::random_tree(n, seed);
        let labeling = HpathLabeling::build(&tree);
        let bound = (14.0 * (n as f64).log2() + 80.0) as usize;
        assert!(
            labeling.max_label_bits() <= bound,
            "case {case}: n={n} seed={seed}: {} > {bound}",
            labeling.max_label_bits()
        );
    }
}
