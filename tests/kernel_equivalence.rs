//! Kernel equivalence against ground truth: every query entry point — per
//! pair, batch, routed and sharded — must answer exactly what the tree's
//! [`DistanceOracle`] says, across all six schemes and a seeded corpus of
//! tree families and sizes.  Exact schemes are held to the true distance,
//! the bounded scheme to its `≤ k` window, the approximate scheme to its
//! `d ≤ d̃ ≤ (1+ε)·d + 2` guarantee.  Adversarial corrupt-frame inputs must
//! quarantine exactly the rotted tree while every healthy answer stays true.

use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceOracle, DistanceScheme, ForestStore, NaiveScheme,
    OptimalScheme, Parallelism, QueryStatus, RouteScratch, SchemeStore, StoredScheme, Tree,
    ValidationPolicy, NO_DISTANCE,
};

/// Deterministic pair sampler (xorshift64*), so the sweep is reproducible.
fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..count)
        .map(|_| (next() as usize % n, next() as usize % n))
        .collect()
}

/// The seeded corpus: every tree family the kernels see in practice, sized
/// to hit every scan regime — shallow light depths (the branchless 3-record
/// cascade), deep light depths (the tail record scan), short codeword
/// strings (the single-chunk LCP fast path) and long ones (the multi-chunk
/// LCP tail).
fn corpus() -> Vec<(String, Tree)> {
    let mut trees: Vec<(String, Tree)> = vec![
        ("path-64".into(), gen::path(64)),
        ("star-64".into(), gen::star(64)),
        ("comb-300".into(), gen::comb(300)),
        ("caterpillar".into(), gen::caterpillar(60, 4)),
        ("balanced-binary-511".into(), gen::balanced_binary(511)),
    ];
    for (n, seed) in [(2usize, 7u64), (9, 8), (64, 9), (300, 10), (1200, 11)] {
        trees.push((format!("random-{n}"), gen::random_tree(n, seed)));
    }
    for (n, seed) in [(300usize, 21u64), (1500, 22)] {
        trees.push((format!("binary-{n}"), gen::random_binary(n, seed)));
    }
    trees
}

/// Per-store equivalence sweep: the per-pair path and the batch engine must
/// agree on every sampled pair, and `ok(u, v, d)` — the scheme's guarantee
/// over the oracle distance — must accept the answer.
fn check_store<S: StoredScheme>(
    name: &str,
    store: &SchemeStore<S>,
    pairs: &[(usize, usize)],
    ok: &dyn Fn(usize, usize, u64) -> bool,
) {
    let batch = store.distances(pairs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let d = store.distance(u, v);
        assert_eq!(
            d, batch[i],
            "{name}: pair ({u}, {v}) diverges between per-pair and batch"
        );
        assert!(ok(u, v, d), "{name}: pair ({u}, {v}) answered {d}");
    }
}

/// Batch-length sweep: every prefix length `0..=pairs.len()` of the batch
/// must answer exactly like the per-pair path.
fn check_batch_lengths<S: StoredScheme>(
    name: &str,
    store: &SchemeStore<S>,
    pairs: &[(usize, usize)],
) {
    let single: Vec<u64> = pairs.iter().map(|&(u, v)| store.distance(u, v)).collect();
    for len in 0..=pairs.len() {
        assert_eq!(
            store.distances(&pairs[..len]),
            single[..len],
            "{name}: batch of {len} pairs diverges from per-pair answers"
        );
    }
}

/// Batches of every length 0..=130 cross the batch engine's edges: the
/// 8-pair straddle-prefetch window and the 64-pair plan blocks (63/64/65,
/// 128/129), for all six schemes on a shallow and a deep tree.
#[test]
fn every_batch_length_matches_the_per_pair_answers() {
    for tree in [gen::random_tree(1200, 11), gen::comb(300)] {
        let n = tree.len();
        let pairs = sample_pairs(n, 130, 0xBA7C4 ^ n as u64);
        let tag = |scheme: &str| format!("n={n}/{scheme}");
        check_batch_lengths(&tag("naive"), NaiveScheme::build(&tree).as_store(), &pairs);
        check_batch_lengths(
            &tag("distance-array"),
            DistanceArrayScheme::build(&tree).as_store(),
            &pairs,
        );
        check_batch_lengths(
            &tag("optimal"),
            OptimalScheme::build(&tree).as_store(),
            &pairs,
        );
        check_batch_lengths(
            &tag("k-distance"),
            KDistanceScheme::build(&tree, 8).as_store(),
            &pairs,
        );
        check_batch_lengths(
            &tag("approximate"),
            ApproximateScheme::build(&tree, 0.25).as_store(),
            &pairs,
        );
        check_batch_lengths(
            &tag("level-ancestor"),
            LevelAncestorScheme::build(&tree).as_store(),
            &pairs,
        );
    }
}

/// The full corpus sweep across all six schemes.  Exact schemes are held to
/// the tree's [`DistanceOracle`]; the bounded scheme to its `≤ k` window
/// over the same oracle; the approximate scheme to its `(1+ε)` guarantee —
/// and all of them to per-pair/batch equality.
#[test]
fn all_six_schemes_match_the_distance_oracle_across_the_corpus() {
    for (family, tree) in corpus() {
        let n = tree.len();
        let count = if n <= 16 { n * n } else { 600 };
        let pairs = sample_pairs(n, count, 0xC0FFEE ^ n as u64);
        let oracle = DistanceOracle::new(&tree);
        let truth = |u: usize, v: usize| oracle.distance(tree.node(u), tree.node(v));
        let exact = |u: usize, v: usize, d: u64| d == truth(u, v);

        let naive = NaiveScheme::build(&tree);
        check_store(&format!("{family}/naive"), naive.as_store(), &pairs, &exact);
        let da = DistanceArrayScheme::build(&tree);
        check_store(
            &format!("{family}/distance-array"),
            da.as_store(),
            &pairs,
            &exact,
        );
        let opt = OptimalScheme::build(&tree);
        check_store(&format!("{family}/optimal"), opt.as_store(), &pairs, &exact);
        let la = LevelAncestorScheme::build(&tree);
        check_store(
            &format!("{family}/level-ancestor"),
            la.as_store(),
            &pairs,
            &exact,
        );

        let k = 8;
        let kd = KDistanceScheme::build(&tree, k);
        let within_k = |u: usize, v: usize, got: u64| {
            let d = truth(u, v);
            got == if d <= k { d } else { NO_DISTANCE }
        };
        check_store(
            &format!("{family}/k-distance"),
            kd.as_store(),
            &pairs,
            &within_k,
        );

        let eps = 0.25;
        let approx = ApproximateScheme::build(&tree, eps);
        let within_eps = |u: usize, v: usize, est: u64| {
            let d = truth(u, v);
            est >= d && est as f64 <= (1.0 + eps) * d as f64 + 2.0
        };
        check_store(
            &format!("{family}/approximate"),
            approx.as_store(),
            &pairs,
            &within_eps,
        );
    }
}

/// Routed and sharded forest serving must agree with the per-tree stores
/// and with the distance oracle of each tree.
#[test]
fn routed_and_sharded_forest_answers_match_the_per_tree_stores() {
    let trees: Vec<(u64, Tree)> = vec![
        (2, gen::random_tree(400, 31)),
        (5, gen::comb(350)),
        (7, gen::random_binary(500, 32)),
        (11, gen::random_tree(250, 33)),
    ];
    let mut b = ForestStore::builder();
    b.push_scheme(2, &NaiveScheme::build(&trees[0].1)).unwrap();
    b.push_scheme(5, &OptimalScheme::build(&trees[1].1))
        .unwrap();
    b.push_scheme(7, &DistanceArrayScheme::build(&trees[2].1))
        .unwrap();
    b.push_scheme(11, &LevelAncestorScheme::build(&trees[3].1))
        .unwrap();
    let forest = b.finish().expect("forest builds");

    let queries: Vec<(u64, usize, usize)> = (0..4096)
        .map(|i| {
            let (id, tree) = &trees[(i * i + 3) % trees.len()];
            let n = tree.len();
            (*id, (i * 37 + 1) % n, (i * 101 + 5) % n)
        })
        .collect();

    let oracles: Vec<DistanceOracle> = trees.iter().map(|(_, t)| DistanceOracle::new(t)).collect();
    let routed = forest.route_distances(&queries);
    for (i, &(id, u, v)) in queries.iter().enumerate() {
        let view = forest.tree(id).expect("live tree");
        assert_eq!(routed[i], view.distance(u, v), "query {i} diverges");
        let t = trees.iter().position(|&(tid, _)| tid == id).unwrap();
        let tree = &trees[t].1;
        assert_eq!(
            routed[i],
            oracles[t].distance(tree.node(u), tree.node(v)),
            "query {i} is wrong"
        );
    }
    for threads in [1usize, 2, 4] {
        let sharded =
            forest.route_distances_sharded(&queries, Parallelism::from_thread_count(threads));
        assert_eq!(
            routed, sharded,
            "sharded answers diverge at {threads} threads"
        );
    }
}

/// Directory record word index, inner-frame offset and length for tree `id`
/// (v2 frame: 5 header words, then 4 words per record).
fn record_of(words: &[u64], id: u64) -> (usize, usize, usize) {
    let used = words[2] as usize;
    for i in 0..used {
        let rec = 5 + 4 * i;
        if words[rec] == id {
            return (rec, words[rec + 1] as usize, words[rec + 2] as usize);
        }
    }
    panic!("no directory record for tree {id}");
}

/// Adversarial corrupt-frame inputs: rot one tree's inner frame, open the
/// forest lazily, and run the fallible router.  Exactly the queries to the
/// rotted tree come back `CorruptTree`, the kernels never see the
/// quarantined tree, and the healthy tree answers like the pristine forest
/// and the distance oracle.
#[test]
fn corrupt_frame_verdicts_do_not_diverge_by_configuration() {
    let t_ok = gen::random_tree(200, 41);
    let t_bad = gen::random_tree(180, 42);
    let mut b = ForestStore::builder();
    b.push_scheme(1, &NaiveScheme::build(&t_ok)).unwrap();
    b.push_scheme(6, &OptimalScheme::build(&t_bad)).unwrap();
    let pristine = b.finish().expect("forest builds");

    // Rot a bit mid-way through tree 6's inner frame.  The outer (v2) CRC
    // covers only header + directory, so the lazy open succeeds and the
    // damage surfaces at first touch.
    let mut words: Vec<u64> = pristine.as_words().to_vec();
    let (_, off, len) = record_of(&words, 6);
    words[off + len / 2] ^= 1 << 21;
    let lazy = ForestStore::from_words_with(words, ValidationPolicy::Lazy)
        .expect("directory is intact, lazy open succeeds");

    let queries: Vec<(u64, usize, usize)> = (0..512)
        .map(|i| {
            let id = if i % 3 == 0 { 6 } else { 1 };
            (id, (i * 13 + 1) % 180, (i * 29 + 7) % 180)
        })
        .collect();
    let mut scratch = RouteScratch::new();
    let mut statuses = Vec::new();
    let outcome = lazy.try_route_distances_into(&queries, &mut scratch, &mut statuses);
    assert_eq!(outcome.corrupt, queries.len().div_ceil(3));
    assert_eq!(outcome.ok, queries.len() - outcome.corrupt);

    let healthy = pristine.tree(1).expect("live tree");
    let oracle = DistanceOracle::new(&t_ok);
    for (i, &(id, u, v)) in queries.iter().enumerate() {
        match (id, statuses[i]) {
            (6, QueryStatus::CorruptTree) => {}
            (1, QueryStatus::Ok(d)) => {
                assert_eq!(d, healthy.distance(u, v), "healthy answer {i} diverges");
                assert_eq!(
                    d,
                    oracle.distance(t_ok.node(u), t_ok.node(v)),
                    "healthy answer {i} is wrong"
                );
            }
            other => panic!("query {i} got an unexpected verdict: {other:?}"),
        }
    }

    // The sharded fallible router reaches the same verdicts.
    let sharded = lazy.try_route_distances_sharded(&queries, Parallelism::Auto);
    assert_eq!(statuses, sharded);
}
