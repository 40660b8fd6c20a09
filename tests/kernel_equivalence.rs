//! Kernel equivalence against ground truth: every query entry point — per
//! pair, batch, routed and sharded — must answer exactly what the tree's
//! [`DistanceOracle`] says, across all six schemes and a seeded corpus of
//! tree families and sizes.  Exact schemes are held to the true distance,
//! the bounded scheme to its `≤ k` window, the approximate scheme to its
//! `d ≤ d̃ ≤ (1+ε)·d + 2` guarantee.  Adversarial corrupt-frame inputs must
//! quarantine exactly the rotted tree while every healthy answer stays true.

use std::collections::HashMap;
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceOracle, DistanceScheme, ForestError, ForestStore,
    NaiveScheme, OptimalScheme, Parallelism, QueryStatus, RouteScratch, SchemeStore, StoredScheme,
    Tree, ValidationPolicy, NO_DISTANCE,
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

/// Labels of two different builds are bit strings no one build wrote: fed
/// to `StoredScheme::distance_refs` side by side, every kernel answers (a
/// distance or its corrupt verdict) and none panics, over all pairs of
/// small trees of different shapes.
#[test]
fn labels_of_different_builds_answer_without_a_panic() {
    fn cross<S: StoredScheme>(a: &SchemeStore<S>, b: &SchemeStore<S>) {
        for u in 0..a.node_count() {
            for v in 0..b.node_count() {
                // Any answer will do; a panic fails the test.
                let _ = S::distance_refs(a.label_ref(u), b.label_ref(v));
            }
        }
    }
    let trees = [
        gen::path(12),
        gen::star(12),
        gen::comb(16),
        gen::random_tree(24, 3),
        gen::random_binary(20, 4),
    ];
    for (i, ta) in trees.iter().enumerate() {
        for tb in trees.iter().skip(i + 1) {
            for (ta, tb) in [(ta, tb), (tb, ta)] {
                cross(
                    NaiveScheme::build(ta).as_store(),
                    NaiveScheme::build(tb).as_store(),
                );
                cross(
                    DistanceArrayScheme::build(ta).as_store(),
                    DistanceArrayScheme::build(tb).as_store(),
                );
                cross(
                    OptimalScheme::build(ta).as_store(),
                    OptimalScheme::build(tb).as_store(),
                );
                cross(
                    KDistanceScheme::build(ta, 3).as_store(),
                    KDistanceScheme::build(tb, 3).as_store(),
                );
                cross(
                    ApproximateScheme::build(ta, 0.5).as_store(),
                    ApproximateScheme::build(tb, 0.5).as_store(),
                );
                cross(
                    LevelAncestorScheme::build(ta).as_store(),
                    LevelAncestorScheme::build(tb).as_store(),
                );
            }
        }
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
    let mut routed = Vec::new();
    forest.try_route_distances_into(&queries, &mut RouteScratch::new(), &mut routed);
    for (i, &(id, u, v)) in queries.iter().enumerate() {
        let view = forest.tree(id).expect("live tree");
        assert_eq!(
            routed[i],
            QueryStatus::Ok(view.distance(u, v)),
            "query {i} diverges"
        );
        let t = trees.iter().position(|&(tid, _)| tid == id).unwrap();
        let tree = &trees[t].1;
        assert_eq!(
            routed[i],
            QueryStatus::Ok(oracles[t].distance(tree.node(u), tree.node(v))),
            "query {i} is wrong"
        );
    }
    for threads in [1usize, 2, 4] {
        let sharded =
            forest.try_route_distances_sharded(&queries, Parallelism::from_thread_count(threads));
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

/// What a forest tree's answers are held to: its oracle distance, exactly or
/// under the scheme's guarantee.
#[derive(Clone, Copy)]
enum Guarantee {
    Exact,
    WithinK(u64),
    WithinEps(f64),
}

/// The ground truth behind one forest tree.
struct TruthTree {
    tree: Tree,
    oracle: DistanceOracle,
    guarantee: Guarantee,
}

impl TruthTree {
    fn accepts(&self, u: usize, v: usize, got: u64) -> bool {
        let d = self.oracle.distance(self.tree.node(u), self.tree.node(v));
        match self.guarantee {
            Guarantee::Exact => got == d,
            Guarantee::WithinK(k) => got == if d <= k { d } else { NO_DISTANCE },
            Guarantee::WithinEps(eps) => got >= d && got as f64 <= (1.0 + eps) * d as f64 + 2.0,
        }
    }
}

/// A scheme's native frame, as a forest push or append takes it.
fn frame_of<S: StoredScheme>(scheme: &S) -> Vec<u64> {
    scheme.as_store().as_words().to_vec()
}

/// Tree `i` of the sparse forest: a small tree under scheme `i % 6`.
fn sparse_tree(i: usize) -> (TruthTree, Vec<u64>) {
    let tree = gen::random_tree(12 + (i * 37) % 50, 0x5EED ^ i as u64);
    let (frame, guarantee) = match i % 6 {
        0 => (frame_of(&NaiveScheme::build(&tree)), Guarantee::Exact),
        1 => (
            frame_of(&DistanceArrayScheme::build(&tree)),
            Guarantee::Exact,
        ),
        2 => (frame_of(&OptimalScheme::build(&tree)), Guarantee::Exact),
        3 => (
            frame_of(&KDistanceScheme::build(&tree, 6)),
            Guarantee::WithinK(6),
        ),
        4 => (
            frame_of(&ApproximateScheme::build(&tree, 0.25)),
            Guarantee::WithinEps(0.25),
        ),
        _ => (
            frame_of(&LevelAncestorScheme::build(&tree)),
            Guarantee::Exact,
        ),
    };
    let oracle = DistanceOracle::new(&tree);
    let truth = TruthTree {
        tree,
        oracle,
        guarantee,
    };
    (truth, frame)
}

/// The status the router owes query `q`, derived from the per-tree read
/// path alone.
fn expected_status(forest: &ForestStore, (id, u, v): (u64, usize, usize)) -> QueryStatus {
    match forest.try_tree(id) {
        Err(ForestError::UnknownTree { .. }) => QueryStatus::UnknownTree,
        Err(_) => QueryStatus::CorruptTree,
        Ok(view) if u >= view.node_count() || v >= view.node_count() => QueryStatus::NodeOutOfRange,
        Ok(view) => QueryStatus::Ok(view.distance(u, v)),
    }
}

/// Routes `queries` through the reused `scratch` and holds every status to
/// `try_tree` + `distance`, every answer to the oracle, and the threaded
/// helper at each of `threads` to the calling-thread answers.
fn check_routed(
    what: &str,
    forest: &ForestStore,
    truth: &HashMap<u64, TruthTree>,
    queries: &[(u64, usize, usize)],
    scratch: &mut RouteScratch,
    threads: &[usize],
) {
    let mut statuses = Vec::new();
    let outcome = forest.try_route_distances_into(queries, scratch, &mut statuses);
    assert_eq!(outcome.total(), queries.len(), "{what}");
    assert_eq!(
        outcome.ok,
        statuses.iter().filter(|s| s.is_ok()).count(),
        "{what}"
    );
    for (i, (&q, &status)) in queries.iter().zip(&statuses).enumerate() {
        assert_eq!(
            status,
            expected_status(forest, q),
            "{what}: query {i} {q:?}"
        );
        if let QueryStatus::Ok(d) = status {
            let (id, u, v) = q;
            assert!(
                truth[&id].accepts(u, v, d),
                "{what}: query {i} {q:?} answered {d}"
            );
        }
    }
    for &t in threads {
        let got = forest.try_route_distances_sharded(queries, Parallelism::from_thread_count(t));
        assert_eq!(got, statuses, "{what}: sharded at {t} threads");
    }
}

/// A batch over `focus` plus `1 + salt % 8` ids drawn from `ids`, with
/// repeated ids, unknown ids and out-of-range nodes mixed in.
fn sparse_batch(
    ids: &[u64],
    focus: Option<u64>,
    truth: &HashMap<u64, TruthTree>,
    salt: u64,
) -> Vec<(u64, usize, usize)> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize
    };
    let touched: Vec<u64> = (0..1 + salt as usize % 8)
        .map(|_| ids[next() % ids.len()])
        .chain(focus)
        .collect();
    let len = 1 + next() % 48;
    (0..len)
        .map(|i| {
            let id = touched[next() % touched.len()];
            let n = truth.get(&id).map_or(1, |t| t.tree.len());
            match (i + salt as usize) % 11 {
                // A neighbouring id (absent unless it is the appended
                // one) and an id past the end.
                3 => (id + 1, 0, 0),
                7 => (u64::MAX - 2, 0, 0),
                // A node index one past the tree.
                5 => (id, next() % n, n),
                _ => (id, next() % n, next() % n),
            }
        })
        .collect()
}

/// The routed engine groups over the slots a batch touches, on a reused
/// scratch whose per-slot counters must come back to zero after every
/// batch: non-dense ids across all six schemes, a tombstone, an append that
/// grows the directory mid-stream, a lazily opened forest with one rotted
/// tree, and a switch to a small forest and back — every status equal to the
/// per-tree read path and the oracle, the threaded helper equal to the
/// calling thread.
#[test]
fn sparse_routing_over_touched_slots_matches_the_per_tree_path() {
    const TREES: usize = 300;
    let id_of = |i: usize| 7 * i as u64 + 3;
    let mut truth: HashMap<u64, TruthTree> = HashMap::new();
    let mut b = ForestStore::builder();
    for i in 0..TREES {
        let (t, frame) = sparse_tree(i);
        b.push_frame(id_of(i), frame).unwrap();
        truth.insert(id_of(i), t);
    }
    let mut forest = b.finish().expect("forest builds");
    let mut ids: Vec<u64> = (0..TREES).map(id_of).collect();
    let mut scratch = RouteScratch::new();
    // Thread counts for the threaded helper; 0 is `Parallelism::Auto`.
    let threads = [1, 2, 4, 0];
    let mut salt = 0u64;
    let mut batches =
        |what: &str, forest: &ForestStore, focus, ids: &[u64], truth: &HashMap<_, _>| {
            for _ in 0..24 {
                salt += 1;
                let queries = sparse_batch(ids, focus, truth, salt);
                check_routed(what, forest, truth, &queries, &mut scratch, &threads);
            }
        };
    batches("fresh", &forest, None, &ids, &truth);

    // A tombstoned tree answers UnknownTree; the batches still name it.
    forest.tombstone(id_of(5)).unwrap();
    batches("tombstone", &forest, Some(id_of(5)), &ids, &truth);

    // An append mid-directory shifts every later slot and grows the count.
    let (t, frame) = sparse_tree(TREES);
    let mid = id_of(TREES / 2) + 1;
    forest.append_frame(mid, frame).unwrap();
    truth.insert(mid, t);
    ids.push(mid);
    batches("append", &forest, Some(mid), &ids, &truth);

    // A lazy open with one rotted tree: its queries come back CorruptTree.
    let mut lazy = ForestStore::from_bytes_with(&forest.to_bytes(), ValidationPolicy::Lazy)
        .expect("directory is intact, lazy open succeeds");
    let rotted = id_of(8);
    let extent = lazy.frame_extent(rotted).unwrap();
    lazy.corrupt_word(extent.start + extent.len() / 2, 1 << 29);
    batches("lazy+rot", &lazy, Some(rotted), &ids, &truth);
    let mut statuses = Vec::new();
    lazy.try_route_distances_into(&[(rotted, 0, 0)], &mut RouteScratch::new(), &mut statuses);
    assert_eq!(statuses, [QueryStatus::CorruptTree]);

    // A 4-tree forest on the same scratch, then back to the big one.
    let mut small_truth: HashMap<u64, TruthTree> = HashMap::new();
    let mut b = ForestStore::builder();
    for i in 0..4 {
        let (t, frame) = sparse_tree(i + 1);
        b.push_frame(i as u64, frame).unwrap();
        small_truth.insert(i as u64, t);
    }
    let small = b.finish().expect("small forest builds");
    batches("small", &small, None, &[0, 1, 2, 3], &small_truth);
    batches("back", &forest, None, &ids, &truth);
}
