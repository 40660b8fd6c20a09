//! Cross-configuration kernel equivalence: the dispatching query path (which
//! under `--features simd` runs the AVX2 codeword-LCP and record-scan
//! kernels) must agree **bit for bit** with the always-compiled scalar
//! oracle (`distance_scalar`), across all six schemes, a seeded corpus of
//! tree families and sizes, the per-pair / batch / routed entry points —
//! and adversarial corrupt-frame inputs, whose fault and quarantine
//! verdicts must not diverge by configuration either.
//!
//! CI runs this suite in the default (scalar) configuration and again under
//! `--features simd`: in the scalar build the two paths are the same code
//! (a cheap self-check), in the simd build the comparison is a real
//! oracle test of the vector kernels.

use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, ForestStore, NaiveScheme, OptimalScheme, Parallelism,
    QueryStatus, RouteScratch, SchemeStore, StoredScheme, Tree, ValidationPolicy, NO_DISTANCE,
};

/// Deterministic pair sampler (xorshift64*), so the sweep is reproducible
/// in every configuration.
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
/// cascade), deep light depths (the vectorized tail scan), short codeword
/// strings (the single-chunk LCP fast path) and long ones (the vector LCP
/// tail).
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

/// Per-store equivalence sweep: the dispatching per-pair path, the scalar
/// oracle and the batch engine must all agree on every sampled pair; when a
/// ground truth is supplied (the exact schemes), all of them must match it.
fn check_store<S: StoredScheme>(
    name: &str,
    store: &SchemeStore<S>,
    pairs: &[(usize, usize)],
    truth: Option<&dyn Fn(usize, usize) -> u64>,
) {
    let batch = store.distances(pairs);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let d = store.distance(u, v);
        let oracle = store.distance_scalar(u, v);
        assert_eq!(
            d, oracle,
            "{name}: pair ({u}, {v}) diverges from the scalar oracle"
        );
        assert_eq!(
            d, batch[i],
            "{name}: pair ({u}, {v}) diverges between per-pair and batch"
        );
        if let Some(truth) = truth {
            assert_eq!(d, truth(u, v), "{name}: pair ({u}, {v}) is wrong");
        }
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
/// the tree's naive distance oracle; the bounded scheme to its `≤ k` window
/// over the same oracle; the approximate scheme to its `(1+ε)` guarantee —
/// and all of them to scalar/batch bit-equality.
#[test]
fn all_six_schemes_match_the_scalar_oracle_across_the_corpus() {
    for (family, tree) in corpus() {
        let n = tree.len();
        let count = if n <= 16 { n * n } else { 600 };
        let pairs = sample_pairs(n, count, 0xC0FFEE ^ n as u64);
        let truth = |u: usize, v: usize| tree.distance_naive(tree.node(u), tree.node(v));

        let naive = NaiveScheme::build(&tree);
        check_store(
            &format!("{family}/naive"),
            naive.as_store(),
            &pairs,
            Some(&truth),
        );
        let da = DistanceArrayScheme::build(&tree);
        check_store(
            &format!("{family}/distance-array"),
            da.as_store(),
            &pairs,
            Some(&truth),
        );
        let opt = OptimalScheme::build(&tree);
        check_store(
            &format!("{family}/optimal"),
            opt.as_store(),
            &pairs,
            Some(&truth),
        );
        let la = LevelAncestorScheme::build(&tree);
        check_store(
            &format!("{family}/level-ancestor"),
            la.as_store(),
            &pairs,
            Some(&truth),
        );

        let k = 8;
        let kd = KDistanceScheme::build(&tree, k);
        let kd_truth = |u: usize, v: usize| {
            let d = truth(u, v);
            if d <= k {
                d
            } else {
                NO_DISTANCE
            }
        };
        check_store(
            &format!("{family}/k-distance"),
            kd.as_store(),
            &pairs,
            Some(&kd_truth),
        );

        let eps = 0.25;
        let approx = ApproximateScheme::build(&tree, eps);
        check_store(
            &format!("{family}/approximate"),
            approx.as_store(),
            &pairs,
            None,
        );
        for &(u, v) in &pairs {
            let d = truth(u, v);
            let est = approx.as_store().distance(u, v);
            assert!(
                est >= d && est as f64 <= (1.0 + eps) * d as f64 + 2.0,
                "{family}/approximate: estimate {est} breaks the (1+ε) bound for d = {d}"
            );
        }
    }
}

/// Routed and sharded forest serving must agree with the per-tree stores
/// (and therefore with the scalar oracle, which the store sweep pins) in
/// every configuration.
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

    let routed = forest.route_distances(&queries);
    for (i, &(id, u, v)) in queries.iter().enumerate() {
        let view = forest.tree(id).expect("live tree");
        assert_eq!(routed[i], view.distance(u, v), "query {i} diverges");
        assert_eq!(
            routed[i],
            view.distance_scalar(u, v),
            "query {i} diverges from the scalar oracle"
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
/// forest lazily, and run the fallible router.  The fault verdicts (which
/// queries come back `CorruptTree`) and every healthy answer must be
/// identical in every configuration — the vector kernels never see the
/// quarantined tree, and the healthy trees answer bit-identically to the
/// pristine forest.
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
    for (i, &(id, u, v)) in queries.iter().enumerate() {
        match (id, statuses[i]) {
            (6, QueryStatus::CorruptTree) => {}
            (1, QueryStatus::Ok(d)) => {
                assert_eq!(d, healthy.distance(u, v), "healthy answer {i} diverges");
                assert_eq!(
                    d,
                    healthy.distance_scalar(u, v),
                    "healthy answer {i} diverges from the scalar oracle"
                );
            }
            other => panic!("query {i} got an unexpected verdict: {other:?}"),
        }
    }

    // The sharded fallible router reaches the same verdicts.
    let sharded = lazy.try_route_distances_sharded(&queries, Parallelism::Auto);
    assert_eq!(statuses, sharded);
}

/// Direct primitive-level oracle checks, only meaningful under the `simd`
/// feature (in a scalar build both names resolve to the same loop): the
/// dispatching LCP and record scan must match their scalar twins on
/// synthetic buffers with planted divergences around every lane boundary.
#[cfg(feature = "simd")]
mod simd_primitives {
    use treelab::bits::bitslice::{
        common_prefix_len_raw, common_prefix_len_raw_scalar, scan_records_gt,
        scan_records_gt_scalar,
    };

    #[test]
    fn lcp_and_record_scan_match_their_scalar_twins() {
        // A 4096-bit pseudo-random stream and a copy displaced by 5 bits,
        // with a diff planted at every interesting position.
        let mut words = vec![0u64; 80];
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for w in words.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *w = s;
        }
        let base = words.clone();
        for &diff_at in &[0usize, 63, 64, 65, 255, 256, 257, 511, 1000, 2048, 4000] {
            let mut b = base.clone();
            b[diff_at / 64] ^= 1u64 << (diff_at % 64);
            for &(sa, sb) in &[(0usize, 0usize), (3, 3), (0, 5), (7, 64)] {
                let la = 4096 - sa.max(sb);
                let got = common_prefix_len_raw(&base, sa, la, &b, sa, la);
                let want = common_prefix_len_raw_scalar(&base, sa, la, &b, sa, la);
                assert_eq!(got, want, "lcp diverges (diff {diff_at}, start {sa}/{sb})");
                let _ = sb;
            }
        }

        // Packed records at several widths, thresholds around each record's
        // end value, scan starts crossing the 4-lane blocks.
        for &width in &[11usize, 23, 37, 48, 64] {
            let end_mask = if width >= 16 {
                (1u64 << 12) - 1
            } else {
                (1u64 << 6) - 1
            };
            let count = 61;
            for &base_bit in &[0usize, 17, 63] {
                for &start in &[0usize, 3, 4, 7, 60] {
                    for &threshold in &[0u64, 5, 40, end_mask] {
                        let got = scan_records_gt(
                            &base, base_bit, width, end_mask, threshold, start, count,
                        );
                        let want = scan_records_gt_scalar(
                            &base, base_bit, width, end_mask, threshold, start, count,
                        );
                        assert_eq!(
                            got, want,
                            "scan diverges (w {width}, base {base_bit}, start {start}, t {threshold})"
                        );
                    }
                }
            }
        }
    }
}
