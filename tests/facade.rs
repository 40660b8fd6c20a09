//! Facade smoke test: every top-level re-export of the `treelab` crate is
//! exercised at least once on a small random tree, so a broken re-export (or a
//! re-export whose crate-level API drifted) fails here before anything else.

use treelab::{
    bounds, from_newick, gen, stats, to_newick, ApproximateScheme, DistanceArrayScheme,
    DistanceOracle, DistanceScheme, HeavyPaths, KDistanceScheme, LevelAncestorScheme, NaiveScheme,
    NodeId, OptimalConfig, OptimalScheme, Tree, TreeBuilder, TreeMetrics,
};

/// One small random tree shared by the whole smoke test.
fn small_tree() -> Tree {
    gen::random_tree(120, 2017)
}

#[test]
fn every_exact_scheme_reexport_answers_queries() {
    let tree = small_tree();
    let oracle = DistanceOracle::new(&tree);
    let naive = NaiveScheme::build(&tree);
    let da = DistanceArrayScheme::build(&tree);
    let opt = OptimalScheme::build(&tree);
    for i in 0..60 {
        let (u, v) = (
            tree.node((i * 13) % tree.len()),
            tree.node((i * 37 + 5) % tree.len()),
        );
        let truth = oracle.distance(u, v);
        assert_eq!(naive.distance(u, v), truth);
        assert_eq!(da.distance(u, v), truth);
        assert_eq!(opt.distance(u, v), truth);
    }
    // The generic trait surface works through the re-export too.
    assert!(opt.max_label_bits() > 0);
    assert!(opt.label_bits(tree.node(0)) <= opt.max_label_bits());
    assert_eq!(OptimalScheme::name(), "optimal-quarter");
}

#[test]
fn optimal_config_reexport_builds_a_working_scheme() {
    let tree = small_tree();
    let oracle = DistanceOracle::new(&tree);
    let scheme = OptimalScheme::build_with_config(&tree, OptimalConfig::default());
    for i in 0..40 {
        let (u, v) = (
            tree.node((i * 11) % tree.len()),
            tree.node((i * 41 + 3) % tree.len()),
        );
        assert_eq!(scheme.distance(u, v), oracle.distance(u, v));
    }
}

#[test]
fn bounded_and_approximate_scheme_reexports_work() {
    let tree = small_tree();
    let oracle = DistanceOracle::new(&tree);
    let k = 6u64;
    let kd = KDistanceScheme::build(&tree, k);
    let approx = ApproximateScheme::build(&tree, 0.25);
    for i in 0..60 {
        let (u, v) = (
            tree.node((i * 7) % tree.len()),
            tree.node((i * 29 + 1) % tree.len()),
        );
        let d = oracle.distance(u, v);
        match kd.distance(u, v) {
            Some(got) => {
                assert!(d <= k);
                assert_eq!(got, d);
            }
            None => assert!(d > k),
        }
        let est = approx.distance(u, v);
        assert!(est >= d && est as f64 <= 1.25 * d as f64 + 2.0);
    }
}

#[test]
fn level_ancestor_reexport_walks_to_the_root() {
    let tree = small_tree();
    let scheme = LevelAncestorScheme::build(&tree);
    let depths = tree.depths();
    for u in tree.nodes().step_by(7) {
        let mut label = scheme.label(u);
        let mut steps = 0usize;
        while let Some(next) = LevelAncestorScheme::parent(&label) {
            label = next;
            steps += 1;
        }
        assert_eq!(steps, depths[u.index()]);
    }
}

#[test]
fn tree_substrate_reexports_work_together() {
    // TreeBuilder and NodeId.
    let mut b = TreeBuilder::new();
    let root: NodeId = b.root();
    let a = b.add_child(root, 1);
    let c = b.add_child(a, 2);
    b.add_child(root, 5);
    let tree = b.build();
    assert_eq!(tree.len(), 4);
    assert_eq!(tree.distance_naive(root, c), 3);

    // HeavyPaths and TreeMetrics on a larger tree.
    let t = small_tree();
    let hp = HeavyPaths::new(&t);
    assert!(hp.path_count() >= 1 && hp.path_count() <= t.len());
    let metrics = TreeMetrics::new(&t);
    assert_eq!(metrics.nodes, t.len());
    assert!(metrics.max_light_depth <= metrics.height);

    // DistanceOracle agrees with the naive walker.
    let oracle = DistanceOracle::new(&t);
    let (u, v) = (t.node(3), t.node(100));
    assert_eq!(oracle.distance(u, v), t.distance_naive(u, v));
}

#[test]
fn newick_reexports_roundtrip() {
    let tree = small_tree();
    let text = to_newick(&tree);
    let back = from_newick(&text).expect("parse back our own serialization");
    assert_eq!(back.len(), tree.len());
    // Newick preserves the distance structure (node ids may be renumbered,
    // but the root-to-all distance multiset must match).
    let mut d1: Vec<u64> = tree.root_distances();
    let mut d2: Vec<u64> = back.root_distances();
    d1.sort_unstable();
    d2.sort_unstable();
    assert_eq!(d1, d2);
}

#[test]
fn bounds_and_stats_reexports_are_consistent() {
    let n = 1 << 12;
    assert!(bounds::exact_upper(n) < bounds::distance_array_upper(n));
    assert!(bounds::exact_lower(n) <= bounds::exact_upper(n));
    let tree = small_tree();
    let opt = OptimalScheme::build(&tree);
    let s = stats::LabelStats::from_sizes(tree.nodes().map(|u| opt.label_bits(u)));
    assert_eq!(s.count, tree.len());
    assert_eq!(s.max_bits, opt.max_label_bits());
    assert!(s.mean_bits <= s.max_bits as f64);
    assert_eq!(s.total_bytes(), s.total_bits.div_ceil(8));
}

#[test]
fn module_reexports_are_reachable() {
    // The three implementation crates are re-exported as modules; touch one
    // item in each through the facade path.
    let mut w = treelab::bits::BitWriter::new();
    treelab::bits::codes::write_gamma(&mut w, 9);
    let bits = w.into_bitvec();
    assert!(!bits.is_empty());

    let t = treelab::tree::gen::path(5);
    assert_eq!(t.height(), 4);

    assert!(treelab::core::bounds::exact_upper(1 << 16) > 0.0);
}

#[test]
fn store_reexports_round_trip() {
    // SchemeStore / StoredScheme / StoreError / NO_DISTANCE are facade-level
    // re-exports; persist, reload and query through them.
    use treelab::{NaiveScheme, SchemeStore, StoreError, StoredScheme, NO_DISTANCE};
    let tree = small_tree();
    let scheme = NaiveScheme::build(&tree);
    // Persisting is a frame handoff: the scheme's native frame verbatim.
    let bytes = scheme.as_store().to_bytes();
    let store = SchemeStore::<NaiveScheme>::from_bytes(&bytes).expect("valid store");
    assert_eq!(store.node_count(), tree.len());
    assert_eq!(
        store.distance(0, tree.len() - 1),
        scheme.distance(tree.node(0), tree.node(tree.len() - 1))
    );
    assert_eq!(
        <NaiveScheme as StoredScheme>::STORE_NAME,
        "naive-fixed-width"
    );
    assert_ne!(NO_DISTANCE, 0);
    assert!(matches!(
        SchemeStore::<NaiveScheme>::from_bytes(&bytes[..8]),
        Err(StoreError::Truncated { .. })
    ));
}
