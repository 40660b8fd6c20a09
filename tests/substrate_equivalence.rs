//! Equivalence of the build paths: for every scheme, `build` and
//! `build_with_substrate` (over a fresh substrate, or one whose components
//! were all computed up front) must produce the **bit-for-bit identical**
//! packed store frame (the scheme's native representation), and distances
//! answered from shared-substrate builds must match the isolated builds.
//!
//! Since the packed-native refactor this is a single `as_words()` comparison
//! per path — the frame *is* the label set, so frame equality subsumes the
//! old per-label bit comparisons.

use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceOracle, DistanceScheme, NaiveScheme, OptimalScheme,
    StoredScheme, Substrate, Tree,
};

/// The seeded corpus every equivalence check sweeps over.
fn corpus() -> Vec<Tree> {
    vec![
        Tree::singleton(),
        gen::random_tree(1500, 7),
        gen::comb(1200),
        gen::caterpillar(400, 3),
        gen::complete_kary(2, 10),
    ]
}

/// Asserts that `build` over a fresh substrate and over a precomputed one
/// reproduces the reference frame bit for bit.
fn check_frames<S, F>(name: &str, tree: &Tree, reference: &S, build: F)
where
    S: StoredScheme,
    F: Fn(&Substrate<'_>) -> S,
{
    for precompute in [false, true] {
        let sub = Substrate::new(tree);
        if precompute {
            sub.precompute();
        }
        let scheme = build(&sub);
        assert_eq!(
            scheme.as_store().as_words(),
            reference.as_store().as_words(),
            "{name}: frame differs (precomputed substrate: {precompute}, n = {})",
            tree.len()
        );
    }
}

#[test]
fn every_scheme_frame_is_identical_across_build_paths() {
    for tree in corpus() {
        let naive = NaiveScheme::build(&tree);
        check_frames("naive", &tree, &naive, NaiveScheme::build_with_substrate);

        let da = DistanceArrayScheme::build(&tree);
        check_frames(
            "distance-array",
            &tree,
            &da,
            DistanceArrayScheme::build_with_substrate,
        );

        let opt = OptimalScheme::build(&tree);
        check_frames("optimal", &tree, &opt, OptimalScheme::build_with_substrate);

        let kd = KDistanceScheme::build(&tree, 8);
        check_frames("k-distance", &tree, &kd, |sub| {
            KDistanceScheme::build_with_substrate(sub, 8)
        });

        let approx = ApproximateScheme::build(&tree, 0.25);
        check_frames("approximate", &tree, &approx, |sub| {
            ApproximateScheme::build_with_substrate(sub, 0.25)
        });

        let la = LevelAncestorScheme::build(&tree);
        check_frames(
            "level-ancestor",
            &tree,
            &la,
            LevelAncestorScheme::build_with_substrate,
        );
    }
}

#[test]
fn wire_sizes_are_identical_across_build_paths() {
    // The per-node wire-encoding sizes (the paper's label-size quantity) are
    // recorded at build time; they must not depend on the build path either.
    let tree = gen::random_tree(900, 11);
    let sub = Substrate::new(&tree);
    let a = OptimalScheme::build(&tree);
    let b = OptimalScheme::build_with_substrate(&sub);
    for u in tree.nodes() {
        assert_eq!(a.label_bits(u), b.label_bits(u), "node {u}");
    }
    assert_eq!(a.max_label_bits(), b.max_label_bits());
}

#[test]
fn shared_substrate_schemes_answer_identically() {
    // One substrate, all six schemes: the answers must agree with the oracle
    // (exact schemes) and respect their guarantees (bounded / approximate).
    let tree = gen::random_tree(700, 3);
    let sub = Substrate::new(&tree);
    let naive = NaiveScheme::build_with_substrate(&sub);
    let da = DistanceArrayScheme::build_with_substrate(&sub);
    let opt = OptimalScheme::build_with_substrate(&sub);
    let kd = KDistanceScheme::build_with_substrate(&sub, 9);
    let approx = ApproximateScheme::build_with_substrate(&sub, 0.5);
    let la = LevelAncestorScheme::build_with_substrate(&sub);
    let oracle = DistanceOracle::new(&tree);
    let n = tree.len();
    for i in 0..600 {
        let (u, v) = (tree.node((i * 19) % n), tree.node((i * 67 + 13) % n));
        let d = oracle.distance(u, v);
        assert_eq!(opt.distance(u, v), d);
        assert_eq!(da.distance(u, v), d);
        assert_eq!(naive.distance(u, v), d);
        assert_eq!(la.distance(u, v), d);
        if d <= 9 {
            assert_eq!(kd.distance(u, v), Some(d));
        } else {
            assert_eq!(kd.distance(u, v), None);
        }
        let est = approx.distance(u, v);
        assert!(est >= d && est as f64 <= 1.5 * d as f64 + 2.0);
    }
}
