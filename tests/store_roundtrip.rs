//! Store round-trips for all six schemes: `serialize` → `from_bytes` →
//! `distance` (through packed refs) must equal the in-memory `distance`, and
//! re-serializing a loaded store must reproduce the byte frame exactly —
//! through the owning path, the borrowed [`StoreRef`] path, and a
//! mixed-scheme [`ForestStore`].

use treelab::bits::frame;
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, AnyStoreRef, DistanceArrayScheme, DistanceScheme, ForestStore, NaiveScheme, OptimalScheme,
    Parallelism, QueryStatus, RouteScratch, SchemeStore, StoreError, StoreRef, StoredScheme,
    Substrate, Tree, NO_DISTANCE,
};

/// The seeded tree corpus every scheme round-trips over: the adversarial
/// shapes for each scheme plus random trees and the singleton edge case.
fn corpus() -> Vec<(&'static str, Tree)> {
    vec![
        ("singleton", Tree::singleton()),
        ("path", gen::path(180)),
        ("star", gen::star(180)),
        ("caterpillar", gen::caterpillar(60, 3)),
        ("comb", gen::comb(420)),
        ("complete-binary", gen::complete_kary(2, 7)),
        ("random-1", gen::random_tree(350, 1)),
        ("random-2", gen::random_tree(351, 2)),
        ("random-binary", gen::random_binary(300, 3)),
    ]
}

/// Deterministic pair sample covering the whole index range.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    let mut p: Vec<(usize, usize)> = (0..600.min(n * n))
        .map(|i| ((i * 37) % n, (i * 101 + 7) % n))
        .collect();
    p.push((0, 0));
    p.push((n - 1, 0));
    p
}

/// Serializes `scheme`, reloads it, and checks every sampled store query
/// against `expected` plus the frame's bit-exactness under re-serialization.
fn check_store<S: StoredScheme>(
    name: &str,
    tree: &Tree,
    scheme: &S,
    expected: impl Fn(usize, usize) -> u64,
) {
    let bytes = scheme.as_store().to_bytes();
    let loaded = SchemeStore::<S>::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{name}: from_bytes failed: {e}"));
    assert_eq!(
        loaded.to_bytes(),
        bytes,
        "{name}: reload must reproduce the frame bit-exactly"
    );
    assert_eq!(loaded.node_count(), tree.len(), "{name}: node count");

    let pairs = pairs(tree.len());
    let batch = loaded.distances(&pairs);
    // Borrow path: the same frame served without copying, through the typed
    // and the runtime-dispatched view.
    let view = StoreRef::<S>::from_words(loaded.as_words())
        .unwrap_or_else(|e| panic!("{name}: StoreRef::from_words failed: {e}"));
    let any = AnyStoreRef::from_words(loaded.as_words())
        .unwrap_or_else(|e| panic!("{name}: AnyStoreRef::from_words failed: {e}"));
    assert_eq!(any.tag(), S::TAG, "{name}: dispatched tag");
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let want = expected(u, v);
        assert_eq!(
            loaded.distance(u, v),
            want,
            "{name}: single query ({u},{v})"
        );
        assert_eq!(batch[i], want, "{name}: batch query ({u},{v})");
        assert_eq!(view.distance(u, v), want, "{name}: StoreRef ({u},{v})");
        assert_eq!(any.distance(u, v), want, "{name}: AnyStoreRef ({u},{v})");
    }
    // Per-label sizes are consistent with the region.
    let total: usize = (0..tree.len()).map(|u| loaded.label_bits(u)).sum();
    assert_eq!(total, loaded.label_region_bits(), "{name}: label sizes");
}

#[test]
fn exact_scheme_stores_round_trip() {
    for (family, tree) in corpus() {
        let sub = Substrate::new(&tree);
        let naive = NaiveScheme::build_with_substrate(&sub);
        check_store(&format!("naive/{family}"), &tree, &naive, |u, v| {
            naive.distance(tree.node(u), tree.node(v))
        });
        let da = DistanceArrayScheme::build_with_substrate(&sub);
        check_store(&format!("distance-array/{family}"), &tree, &da, |u, v| {
            da.distance(tree.node(u), tree.node(v))
        });
        let opt = OptimalScheme::build_with_substrate(&sub);
        check_store(&format!("optimal/{family}"), &tree, &opt, |u, v| {
            opt.distance(tree.node(u), tree.node(v))
        });
    }
}

#[test]
fn bounded_and_approximate_stores_round_trip() {
    for (family, tree) in corpus() {
        let sub = Substrate::new(&tree);
        for k in [2u64, 6] {
            let kd = KDistanceScheme::build_with_substrate(&sub, k);
            check_store(
                &format!("k-distance(k={k})/{family}"),
                &tree,
                &kd,
                |u, v| {
                    kd.distance(tree.node(u), tree.node(v))
                        .unwrap_or(NO_DISTANCE)
                },
            );
            // The typed bounded query agrees with the Option-returning one.
            let store = kd.as_store();
            for (u, v) in pairs(tree.len()) {
                assert_eq!(
                    store.distance_within_k(u, v),
                    kd.distance(tree.node(u), tree.node(v)),
                    "k-distance(k={k})/{family}: distance_within_k ({u},{v})"
                );
            }
        }
        for eps in [0.25f64, 0.5] {
            let approx = ApproximateScheme::build_with_substrate(&sub, eps);
            check_store(
                &format!("approximate(eps={eps})/{family}"),
                &tree,
                &approx,
                |u, v| approx.distance(tree.node(u), tree.node(v)),
            );
        }
    }
}

#[test]
fn level_ancestor_store_round_trips_and_matches_the_oracle() {
    for (family, tree) in corpus() {
        let la = LevelAncestorScheme::build(&tree);
        check_store(&format!("level-ancestor/{family}"), &tree, &la, |u, v| {
            DistanceScheme::distance(&la, tree.node(u), tree.node(v))
        });
        // The level-ancestor distance protocol is exact.
        let oracle = treelab::DistanceOracle::new(&tree);
        for (u, v) in pairs(tree.len()) {
            assert_eq!(
                DistanceScheme::distance(&la, tree.node(u), tree.node(v)),
                oracle.distance(tree.node(u), tree.node(v)),
                "level-ancestor/{family}: exactness ({u},{v})"
            );
        }
    }
}

/// All six schemes round-trip through one mixed-scheme [`ForestStore`]:
/// routed answers equal each scheme's in-memory `distance` after a
/// serialize → bytes → reload cycle, on both the owning and the borrow path,
/// serial and sharded.
#[test]
fn forest_of_all_six_schemes_round_trips() {
    let trees: Vec<(u64, Tree)> = vec![
        (2, gen::random_tree(260, 21)),
        (5, gen::random_tree(190, 22)),
        (7, gen::comb(240)),
        (13, gen::random_binary(210, 23)),
        (19, gen::caterpillar(60, 3)),
        (23, gen::random_tree(170, 24)),
    ];
    let subs: Vec<Substrate<'_>> = trees.iter().map(|(_, t)| Substrate::new(t)).collect();
    let naive = NaiveScheme::build_with_substrate(&subs[0]);
    let da = DistanceArrayScheme::build_with_substrate(&subs[1]);
    let opt = OptimalScheme::build_with_substrate(&subs[2]);
    let kd = KDistanceScheme::build_with_substrate(&subs[3], 8);
    let approx = ApproximateScheme::build_with_substrate(&subs[4], 0.25);
    let la = LevelAncestorScheme::build_with_substrate(&subs[5]);

    let mut b = ForestStore::builder();
    b.push_scheme(2, &naive).unwrap();
    b.push_scheme(5, &da).unwrap();
    b.push_scheme(7, &opt).unwrap();
    b.push_scheme(13, &kd).unwrap();
    b.push_scheme(19, &approx).unwrap();
    b.push_scheme(23, &la).unwrap();
    let forest = b.finish().expect("forest builds");
    assert_eq!(forest.tree_count(), 6);

    // Round-trip through both load paths: bytes (copy) and words (adopted).
    let bytes = forest.to_bytes();
    let owned = ForestStore::from_bytes(&bytes).expect("copy path loads");
    assert_eq!(owned.as_words(), forest.as_words());
    let adopted = ForestStore::from_words(owned.as_words().to_vec()).expect("word path loads");

    // Expected answer per tree, from the in-memory labels.
    let expected = |id: u64, u: usize, v: usize| -> u64 {
        let t = &trees.iter().find(|(i, _)| *i == id).unwrap().1;
        let (a, b) = (t.node(u), t.node(v));
        match id {
            2 => naive.distance(a, b),
            5 => da.distance(a, b),
            7 => opt.distance(a, b),
            13 => kd.distance(a, b).unwrap_or(NO_DISTANCE),
            19 => approx.distance(a, b),
            23 => DistanceScheme::distance(&la, a, b),
            _ => unreachable!(),
        }
    };

    let queries: Vec<(u64, usize, usize)> = (0..900)
        .map(|i| {
            let (id, tree) = &trees[(i * 5) % trees.len()];
            let n = tree.len();
            (*id, (i * 31) % n, (i * 87 + 5) % n)
        })
        .collect();
    let (mut routed, mut via_words) = (Vec::new(), Vec::new());
    owned.try_route_distances_into(&queries, &mut RouteScratch::new(), &mut routed);
    adopted.try_route_distances_into(&queries, &mut RouteScratch::new(), &mut via_words);
    let sharded = owned.try_route_distances_sharded(&queries, Parallelism::from_thread_count(3));
    for (i, &(id, u, v)) in queries.iter().enumerate() {
        let want = QueryStatus::Ok(expected(id, u, v));
        assert_eq!(routed[i], want, "routed: tree {id} ({u},{v})");
        assert_eq!(via_words[i], want, "adopted: tree {id} ({u},{v})");
        assert_eq!(sharded[i], want, "sharded: tree {id} ({u},{v})");
        assert_eq!(
            QueryStatus::Ok(owned.tree(id).unwrap().distance(u, v)),
            want,
            "tree(): tree {id} ({u},{v})"
        );
    }
}

/// The misalignment contract of the borrow path: an aligned byte buffer is
/// borrowed in place, an odd-offset one is refused with
/// [`StoreError::Misaligned`] (and loads fine through the copy path).
#[test]
fn borrow_path_refuses_misaligned_bytes_copy_path_accepts_them() {
    let tree = gen::random_tree(300, 31);
    let scheme = OptimalScheme::build(&tree);
    let store = scheme.as_store();

    // `cast_bytes` of a word buffer is guaranteed 8-byte aligned, so the
    // borrow path must succeed — and serve the owner's buffer in place.
    let aligned: &[u8] = frame::cast_bytes(store.as_words());
    let view = StoreRef::<OptimalScheme>::from_bytes(aligned).expect("aligned borrow");
    assert_eq!(view.distance(3, 250), store.distance(3, 250));
    assert!(AnyStoreRef::from_bytes(aligned).is_ok());

    // Slicing one byte in (and trimming the tail to keep a whole number of
    // words) is guaranteed misaligned: the borrow path refuses it with the
    // offset, instead of silently copying.
    let misaligned = &aligned[1..aligned.len() - 7];
    assert_eq!(frame::alignment_offset(misaligned), 1);
    assert!(matches!(
        StoreRef::<OptimalScheme>::from_bytes(misaligned),
        Err(StoreError::Misaligned { offset: 1 })
    ));
    assert!(matches!(
        AnyStoreRef::from_bytes(misaligned),
        Err(StoreError::Misaligned { offset: 1 })
    ));

    // The copy path does not care about alignment: the same frame staged at
    // an odd offset of a larger buffer loads via the explicit widening copy.
    let mut padded = vec![0u8; 1];
    padded.extend_from_slice(aligned);
    let loaded = SchemeStore::<OptimalScheme>::from_bytes(&padded[1..]).expect("copy path");
    assert_eq!(loaded.as_words(), store.as_words());
    // An odd *length* is rejected on both paths (it cannot be whole words).
    assert!(SchemeStore::<OptimalScheme>::from_bytes(&padded).is_err());
    assert!(StoreRef::<OptimalScheme>::from_bytes(&padded).is_err());
}

#[test]
fn stores_can_cross_threads() {
    // "Build once, serve many": one store queried from several threads via
    // the word-level hand-off (no re-serialization, no re-decode).
    let tree = gen::random_tree(500, 9);
    let scheme = OptimalScheme::build(&tree);
    let store = scheme.as_store();
    let words = store.as_words().to_vec();
    let expected: Vec<u64> = pairs(tree.len())
        .iter()
        .map(|&(u, v)| store.distance(u, v))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..3 {
            let words = words.clone();
            let expected = &expected;
            let tree = &tree;
            s.spawn(move || {
                let local = SchemeStore::<OptimalScheme>::from_words(words).unwrap();
                for (i, (u, v)) in pairs(tree.len()).into_iter().enumerate() {
                    assert_eq!(local.distance(u, v), expected[i]);
                }
            });
        }
    });
}
