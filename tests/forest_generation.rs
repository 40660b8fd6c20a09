//! Property tests for the v2 directory generation word, tombstones and
//! pinned readers: seeded random interleavings of append / tombstone /
//! repair / publish / pin against a model map, checking after every step
//! that
//!
//! * the written frame re-parses eagerly into the same ids, generation,
//!   tombstones and answers,
//! * the generation word counts mutations exactly (illegal ops don't bump),
//! * every pin stays **bit-identical** to the generation it pinned,
//! * tombstoned ids answer [`ForestError::UnknownTree`] forever (and are
//!   never resurrected — re-appending one is a [`ForestError::DuplicateTree`]),
//! * a crash-safe publish + reopen reproduces the live frame under both
//!   validation policies,
//!
//! plus the retired directory version 1, which every open path rejects, and
//! a fixed mutation script whose frame digests are pinned step by step.

use std::collections::BTreeMap;
use treelab::bits::crc;
use treelab::tree::rng::SplitMix64;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, Forest, ForestError, ForestPin, ForestStore,
    FrameWords, NaiveScheme, QueryStatus, RouteScratch, ScrubOutcome, Scrubber, SlotHealth,
    StoreError, StoredScheme, Tree, ValidationPolicy,
};
use treelab_bench::ScratchDir;

const POLICIES: [ValidationPolicy; 2] = [ValidationPolicy::Eager, ValidationPolicy::Lazy];

/// The forest's answer for `id` must match a freshly built scheme over the
/// model's tree — the forest serves exactly what was appended.
fn check_tree(forest_distance: u64, tree: &Tree) {
    let scheme = NaiveScheme::build(tree);
    assert_eq!(
        forest_distance,
        scheme.distance(tree.node(0), tree.node(tree.len() - 1))
    );
}

/// What the one read API reports about a forest, whatever owns its words:
/// the live ids, the generation, the `try_tree` answer for each of `ids`
/// (label count and the distance between its first and last node), the routed
/// statuses of `queries`, the slot health table and the verdict of one full
/// scrub pass.  Every id is touched before the health table is read, so a
/// lazily opened forest reports the same settled slots as an eager one.
#[allow(clippy::type_complexity)]
fn read_back<W: FrameWords>(
    forest: &Forest<W>,
    ids: &[u64],
    queries: &[(u64, usize, usize)],
    scratch: &mut RouteScratch,
) -> (
    Vec<u64>,
    u64,
    Vec<Result<(usize, u64), ForestError>>,
    Vec<QueryStatus>,
    Vec<(u64, SlotHealth)>,
    Result<ScrubOutcome, ForestError>,
) {
    let trees = ids
        .iter()
        .map(|&id| {
            forest.try_tree(id).map(|t| {
                let n = t.node_count();
                (n, t.distance(0, n - 1))
            })
        })
        .collect();
    let mut statuses = Vec::new();
    forest.try_route_distances_into(queries, scratch, &mut statuses);
    (
        forest.tree_ids().collect(),
        forest.generation(),
        trees,
        statuses,
        forest.health().slots().to_vec(),
        forest.scrub(usize::MAX, &mut Scrubber::new()),
    )
}

/// A CRC-valid version-1 directory (3 header words, records tiled in slot
/// order, whole-frame CRC) is refused with `UnsupportedVersion { found: 1 }`
/// by every open path: bytes and words, eager and lazy, and mapped.
#[test]
fn v1_frames_are_rejected_with_unsupported_version() {
    let frames = [
        (3u64, NaiveScheme::build(&gen::random_tree(50, 7))),
        (8, NaiveScheme::build(&gen::random_tree(40, 8))),
    ];
    let dir_end = 3 + 4 * frames.len();
    let mut words = vec![
        u64::from_le_bytes(*b"TLFRST01"),
        1 << 32,
        frames.len() as u64,
    ];
    let mut off = dir_end;
    for (id, scheme) in &frames {
        let inner = scheme.as_store().as_words();
        // Record: id, offset, length, scheme tag (low half of the inner
        // frame's word 1) << 32 | label count.
        words.extend([
            *id,
            off as u64,
            inner.len() as u64,
            inner[1] << 32 | inner[2],
        ]);
        off += inner.len();
    }
    for (_, scheme) in &frames {
        words.extend_from_slice(scheme.as_store().as_words());
    }
    words.push(crc::crc64_words(&words));
    let unsupported = ForestError::Frame(StoreError::UnsupportedVersion { found: 1 });

    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    for policy in POLICIES {
        assert_eq!(
            ForestStore::from_bytes_with(&bytes, policy).unwrap_err(),
            unsupported,
            "{policy:?}"
        );
    }
    assert_eq!(
        ForestStore::from_words(words.clone()).unwrap_err(),
        unsupported
    );

    let dir = ScratchDir::new("generation-v1");
    let path = dir.join("v1.bin");
    std::fs::write(&path, &bytes).unwrap();
    for policy in POLICIES {
        match ForestStore::open_with(&path, policy) {
            Err(treelab::ForestFileError::Forest(e)) => assert_eq!(e, unsupported, "{policy:?}"),
            other => panic!("a v1 file must be rejected, got {other:?}"),
        }
    }
}

/// Routing across mid-lifetime mutations: a tombstoned id vanishes from the
/// router (`UnknownTree`), an appended id becomes routable in the same batch
/// as old ids, and a pin taken before the mutations keeps routing the *pre-mutation* forest —
/// including the since-tombstoned tree.  Afterwards every owner of the
/// mutated frame — the store, a pin, a store adopting a copy of its words
/// and a store opened from its published file — reads it back identically
/// through the one read API.
/// The opened store keeps serving its generation after a newer frame is
/// published over the path, and its first mutation copies the words: the
/// new file stays as published, and a pin taken before keeps answering.
#[test]
fn routing_tracks_tombstones_appends_and_pinned_generations() {
    let trees: Vec<Tree> = (0..3)
        .map(|i| gen::random_tree(40 + 10 * i, 77 + i as u64))
        .collect();
    let mut b = ForestStore::builder();
    for (id, t) in trees.iter().enumerate() {
        b.push_scheme(id as u64, &NaiveScheme::build(t)).unwrap();
    }
    let mut forest = b.finish().expect("seed forest builds");

    // Baseline answers and a pin of the pre-mutation generation.
    let queries: Vec<(u64, usize, usize)> = (0..3u64)
        .map(|id| (id, 1, trees[id as usize].len() - 1))
        .collect();
    let mut scratch = RouteScratch::new();
    let mut before = Vec::new();
    forest.try_route_distances_into(&queries, &mut scratch, &mut before);
    assert!(before.iter().all(|s| s.is_ok()));
    let pin = forest.pin();

    // Tombstone tree 1, append tree 3.
    forest.tombstone(1).expect("live tree retires");
    let t3 = gen::random_tree(64, 123);
    forest
        .append_scheme(3, &NaiveScheme::build(&t3))
        .expect("fresh id appends");

    // Tombstone-then-route: id 1 is gone from the router's directory view.
    let mut statuses = Vec::new();
    forest.try_route_distances_into(&queries, &mut scratch, &mut statuses);
    assert_eq!(statuses, [before[0], QueryStatus::UnknownTree, before[2]]);

    // Append-then-route: the new id routes in the same batch as old ids,
    // with the answer a freshly built scheme gives.
    let scheme3 = NaiveScheme::build(&t3);
    let mixed = vec![(0u64, 1usize, trees[0].len() - 1), (3, 2, t3.len() - 1)];
    let mut appended = Vec::new();
    forest.try_route_distances_into(&mixed, &mut scratch, &mut appended);
    assert_eq!(
        appended,
        [
            before[0],
            QueryStatus::Ok(scheme3.distance(t3.node(2), t3.node(t3.len() - 1)))
        ]
    );

    // The pinned generation still routes the pre-mutation forest: tree 1
    // answers, tree 3 does not exist there.
    let mut pinned = Vec::new();
    pin.try_route_distances_into(&queries, &mut scratch, &mut pinned);
    assert_eq!(pinned, before);
    pinned.clear();
    pin.try_route_distances_into(&mixed, &mut scratch, &mut pinned);
    assert_eq!(pinned, [before[0], QueryStatus::UnknownTree]);

    // And the sharded driver agrees with the serial one on the mutated view.
    for threads in [1usize, 2, 4] {
        assert_eq!(
            forest.try_route_distances_sharded(
                &queries,
                treelab::Parallelism::from_thread_count(threads)
            ),
            statuses
        );
    }

    // One frame, four owners, one read API: all report the same forest.
    let ids = [0u64, 1, 2, 3, 4];
    let routed = [queries.as_slice(), mixed.as_slice(), &[(2, 0, 10_000)]].concat();
    let expected = read_back(&forest, &ids, &routed, &mut scratch);
    assert_eq!(expected.0, [0, 2, 3]);
    assert_eq!(expected.1, 2);
    assert_eq!(expected.5, Ok(ScrubOutcome::PassComplete));
    let pinned = forest.pin();
    assert_eq!(read_back(&pinned, &ids, &routed, &mut scratch), expected);
    let adopted = ForestStore::from_words(forest.as_words().to_vec()).expect("words load");
    assert_eq!(read_back(&adopted, &ids, &routed, &mut scratch), expected);
    let dir = ScratchDir::new("generation-owners");
    let path = dir.join("forest.bin");
    forest.publish(&path).expect("publish");
    let mut opened = ForestStore::open_with(&path, ValidationPolicy::Lazy).expect("open");
    assert_eq!(read_back(&opened, &ids, &routed, &mut scratch), expected);

    forest.tombstone(0).expect("live tree retires");
    forest.publish(&path).expect("publish over the served file");
    let published = std::fs::read(&path).expect("read the new file");
    assert_eq!(read_back(&opened, &ids, &routed, &mut scratch), expected);

    let pin = opened.pin();
    opened.tombstone(2).expect("live tree retires");
    assert_eq!(opened.generation(), expected.1 + 1);
    assert!(opened.tree(2).is_none() && opened.tree(0).is_some());
    assert_eq!(std::fs::read(&path).expect("reread"), published);
    assert_eq!(read_back(&pin, &ids, &routed, &mut scratch), expected);
}

#[test]
fn random_mutation_interleavings_respect_generations_pins_and_tombstones() {
    for seed in [1u64, 42, 2026] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let dir = ScratchDir::new("generation");
        let path = dir.join("forest.bin");

        // Seed forest: four trees, ids 0..4; the model maps live id → tree.
        let mut b = ForestStore::builder();
        let mut model: BTreeMap<u64, Tree> = BTreeMap::new();
        for id in 0..4u64 {
            let t = gen::random_tree(24 + (rng.next_u64() % 40) as usize, rng.next_u64());
            b.push_scheme(id, &NaiveScheme::build(&t)).unwrap();
            model.insert(id, t);
        }
        let mut forest = b.finish().expect("seed forest builds");
        let mut dead: Vec<u64> = Vec::new();
        let mut next_id = 4u64;
        let mut expected_gen = 0u64;
        let mut pins: Vec<(ForestPin, u64, Vec<u64>)> = Vec::new();

        for _step in 0..60 {
            match rng.next_u64() % 6 {
                // Append a fresh tree under a never-used id.
                0 => {
                    let t = gen::random_tree(16 + (rng.next_u64() % 48) as usize, rng.next_u64());
                    forest
                        .append_scheme(next_id, &NaiveScheme::build(&t))
                        .expect("fresh ids append");
                    model.insert(next_id, t);
                    next_id += 1;
                    expected_gen += 1;
                }
                // Tombstone a random live tree (keep at least one live).
                1 => {
                    if model.len() > 1 {
                        let keys: Vec<u64> = model.keys().copied().collect();
                        let id = keys[(rng.next_u64() as usize) % keys.len()];
                        forest.tombstone(id).expect("live trees retire");
                        model.remove(&id);
                        dead.push(id);
                        expected_gen += 1;
                    }
                }
                // Illegal mutations: structured errors, generation untouched.
                2 => {
                    assert!(matches!(
                        forest.tombstone(next_id + 100),
                        Err(ForestError::UnknownTree { .. })
                    ));
                    let t = gen::random_tree(16, rng.next_u64());
                    if let Some(&id) = dead.first() {
                        assert!(matches!(
                            forest.tombstone(id),
                            Err(ForestError::UnknownTree { .. })
                        ));
                        assert!(
                            matches!(
                                forest.append_scheme(id, &NaiveScheme::build(&t)),
                                Err(ForestError::DuplicateTree { .. })
                            ),
                            "tombstoned ids are never resurrected"
                        );
                    }
                    let live = *model.keys().next().expect("a live tree remains");
                    assert!(matches!(
                        forest.append_scheme(live, &NaiveScheme::build(&t)),
                        Err(ForestError::DuplicateTree { .. })
                    ));
                }
                // Repair a random live tree with a different scheme's frame
                // (another length, so every later extent shifts).
                5 => {
                    let keys: Vec<u64> = model.keys().copied().collect();
                    let id = keys[(rng.next_u64() as usize) % keys.len()];
                    let frame = DistanceArrayScheme::build(&model[&id]);
                    forest
                        .repair_frame(id, frame.as_store().as_words().to_vec())
                        .expect("live trees repair");
                    expected_gen += 1;
                }
                // Pin the current generation.
                3 => {
                    pins.push((
                        forest.pin(),
                        forest.generation(),
                        forest.as_words().to_vec(),
                    ));
                }
                // Crash-safe publish; reopen under both policies.
                _ => {
                    forest.publish(&path).expect("publish");
                    for policy in POLICIES {
                        let re = ForestStore::open_with(&path, policy).expect("reopen");
                        assert_eq!(re.as_words(), forest.as_words());
                        assert_eq!(re.generation(), forest.generation());
                    }
                }
            }

            // Invariants, after every step.  The written frame re-parses
            // eagerly into the same forest.
            let re = ForestStore::from_words(forest.as_words().to_vec()).expect("frame re-parses");
            assert_eq!(
                re.tree_ids().collect::<Vec<_>>(),
                forest.tree_ids().collect::<Vec<_>>()
            );
            assert_eq!(re.generation(), forest.generation());
            for &id in &dead {
                assert!(re.is_tombstoned(id));
            }
            for (&id, tree) in &model {
                let n = tree.len();
                assert_eq!(
                    re.tree(id).expect("live tree").distance(0, n - 1),
                    forest.tree(id).expect("live tree").distance(0, n - 1)
                );
            }
            assert_eq!(forest.generation(), expected_gen);
            assert_eq!(forest.tree_count(), model.len());
            for (&id, tree) in &model {
                check_tree(
                    forest
                        .tree(id)
                        .expect("live tree")
                        .distance(0, tree.len() - 1),
                    tree,
                );
            }
            for &id in &dead {
                assert!(forest.is_tombstoned(id));
                assert!(matches!(
                    forest.try_tree(id),
                    Err(ForestError::UnknownTree { .. })
                ));
            }
            for (pin, g, words) in &pins {
                assert_eq!(pin.generation(), *g);
                assert_eq!(
                    pin.as_words(),
                    &words[..],
                    "a pin must stay bit-identical to the generation it pinned"
                );
            }
        }

        // Compaction drops the tombstones (one more generation), keeps every
        // live answer, and still cannot resurrect a dead id.
        if !dead.is_empty() {
            forest.compact().expect("compact");
            expected_gen += 1;
            assert_eq!(forest.generation(), expected_gen);
            assert_eq!(forest.tree_count(), model.len());
            for &id in &dead {
                assert!(!forest.is_tombstoned(id), "compaction drops tombstones");
                assert!(forest.tree(id).is_none());
            }
            for (&id, tree) in &model {
                check_tree(
                    forest
                        .tree(id)
                        .expect("live tree")
                        .distance(0, tree.len() - 1),
                    tree,
                );
            }
            for (pin, g, words) in &pins {
                assert_eq!(pin.generation(), *g);
                assert_eq!(pin.as_words(), &words[..]);
            }
        }
    }
}

/// The CRC-64 of `as_words()` after each step of [`mutation_script`].  They
/// pin the bits every directory-writing path emits (assembly, append,
/// growth, tombstone, repair, compaction); a change that moves them on
/// purpose re-records them.
const SCRIPT_DIGESTS: [(&str, u64); 9] = [
    ("finish", 0x5418_2f6d_f93d_b2b1),
    ("append 40 (grows to 6)", 0x79d7_3a41_c49e_927b),
    ("append 50", 0x8e63_46b7_e9f1_f848),
    ("append 60", 0xc8c1_621d_a288_c89e),
    ("append 70 (grows to 12)", 0x0c8a_3d23_e19b_5876),
    ("tombstone 20", 0x1b4a_9426_d103_4204),
    ("repair 30", 0xa718_65e6_9368_0177),
    ("append 80", 0xb10f_7608_910a_3dbb),
    ("compact", 0xb165_87aa_ffd7_1106),
];

/// A fixed mutation script over three mixed-scheme trees: appends that force
/// two directory growths, a tombstone, a repair with a different scheme and
/// length (so every later extent shifts), one more append and a compaction.
/// Returns the frame's CRC-64 after every step.
fn mutation_script() -> Vec<(&'static str, u64)> {
    use treelab::{DistanceArrayScheme, LevelAncestorScheme, OptimalScheme};
    let digest = |forest: &ForestStore| crc::crc64_words(forest.as_words());
    let comb = gen::comb(50);
    let mut b = ForestStore::builder();
    b.push_scheme(10, &NaiveScheme::build(&gen::random_tree(60, 1)))
        .unwrap();
    b.push_scheme(20, &OptimalScheme::build(&gen::random_tree(80, 2)))
        .unwrap();
    b.push_scheme(30, &LevelAncestorScheme::build(&comb))
        .unwrap();
    let mut forest = b.finish().unwrap();
    let mut out = vec![("finish", digest(&forest))];
    for (id, name) in [
        (40u64, "append 40 (grows to 6)"),
        (50, "append 50"),
        (60, "append 60"),
        (70, "append 70 (grows to 12)"),
    ] {
        let tree = gen::random_tree(20 + id as usize, id);
        if id % 20 == 0 {
            forest
                .append_scheme(id, &DistanceArrayScheme::build(&tree))
                .unwrap();
        } else {
            forest
                .append_scheme(id, &NaiveScheme::build(&tree))
                .unwrap();
        }
        out.push((name, digest(&forest)));
    }
    forest.tombstone(20).unwrap();
    out.push(("tombstone 20", digest(&forest)));
    let replacement = NaiveScheme::build(&comb).as_store().as_words().to_vec();
    assert_ne!(replacement.len(), forest.frame_extent(30).unwrap().len());
    forest.repair_frame(30, replacement).unwrap();
    out.push(("repair 30", digest(&forest)));
    forest
        .append_scheme(80, &OptimalScheme::build(&gen::random_tree(33, 80)))
        .unwrap();
    out.push(("append 80", digest(&forest)));
    forest.compact().unwrap();
    out.push(("compact", digest(&forest)));
    assert_eq!(forest.generation(), 8);
    assert_eq!(
        forest.tree_ids().collect::<Vec<_>>(),
        [10, 30, 40, 50, 60, 70, 80]
    );
    assert_eq!(
        forest.tree(30).unwrap().distance(0, 49),
        NaiveScheme::build(&comb).distance(comb.node(0), comb.node(49))
    );
    out
}

#[test]
fn the_directory_writer_emits_pinned_frames_after_every_mutation() {
    let got = mutation_script();
    for (step, (&(name, want), &(_, digest))) in SCRIPT_DIGESTS.iter().zip(&got).enumerate() {
        assert_eq!(digest, want, "step {step} ({name}): {digest:#018x}");
    }
    assert_eq!(got.len(), SCRIPT_DIGESTS.len());
}
