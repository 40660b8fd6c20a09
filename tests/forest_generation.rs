//! Property tests for the v2 directory generation word, tombstones and
//! pinned readers: seeded random interleavings of append / tombstone /
//! publish / pin against a model map, checking after every step that
//!
//! * the generation word counts mutations exactly (illegal ops don't bump),
//! * every pin stays **bit-identical** to the generation it pinned,
//! * tombstoned ids answer [`ForestError::UnknownTree`] forever (and are
//!   never resurrected — re-appending one is a [`ForestError::DuplicateTree`]),
//! * a crash-safe publish + reopen reproduces the live frame under both
//!   validation policies,
//!
//! plus the v1 compatibility story: legacy frames still load, and the first
//! in-place mutation upgrades them to v2.

use std::collections::BTreeMap;
use treelab::tree::rng::SplitMix64;
use treelab::{
    gen, DistanceScheme, ForestError, ForestPin, ForestStore, NaiveScheme, QueryStatus,
    RouteScratch, Tree, ValidationPolicy,
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

#[test]
fn v1_frames_still_load_and_upgrade_on_first_mutation() {
    let t3 = gen::random_tree(50, 7);
    let t8 = gen::random_tree(40, 8);
    let mut b = ForestStore::builder();
    b.emit_v1();
    b.push_scheme(3, &NaiveScheme::build(&t3)).unwrap();
    b.push_scheme(8, &NaiveScheme::build(&t8)).unwrap();
    let v1 = b.finish().expect("v1 forest builds");
    assert_eq!(v1.as_words()[1] >> 32, 1, "header says format v1");
    assert_eq!(v1.generation(), 0);
    assert_eq!(v1.spare_slots(), 0);

    let bytes = v1.to_bytes();
    for policy in POLICIES {
        let loaded = ForestStore::from_bytes_with(&bytes, policy).expect("v1 loads");
        assert_eq!(loaded.generation(), 0);
        assert_eq!(
            loaded.tree(3).expect("live tree").distance(1, 2),
            v1.tree(3).unwrap().distance(1, 2)
        );
        loaded.verify().expect("v1 frame verifies in full");
    }

    // The first in-place mutation upgrades the layout: v2 header words,
    // generation 1, and the tombstone representable at all.
    let mut upgraded = v1.clone();
    upgraded.tombstone(8).expect("live tree retires");
    assert_eq!(upgraded.as_words()[1] >> 32, 2, "upgraded to format v2");
    assert_eq!(upgraded.generation(), 1);
    assert!(upgraded.is_tombstoned(8));
    for policy in POLICIES {
        let re = ForestStore::from_bytes_with(&upgraded.to_bytes(), policy).expect("v2 round-trip");
        assert!(re.is_tombstoned(8));
        assert!(re.tree(3).is_some());
        assert_eq!(re.generation(), 1);
    }

    // v1 emission cannot host spare slots — a structured refusal, at finish.
    let mut b = ForestStore::builder();
    b.reserve_slots(2).emit_v1();
    b.push_scheme(1, &NaiveScheme::build(&t3)).unwrap();
    assert!(matches!(b.finish(), Err(ForestError::Directory { .. })));
}

/// Routing across mid-lifetime mutations: a tombstoned id vanishes from the
/// router (`UnknownTree`), an appended id becomes routable in the same batch
/// as old ids, and a pin taken before the mutations keeps routing the *pre-mutation* forest —
/// including the since-tombstoned tree.
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
            match rng.next_u64() % 5 {
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

            // Invariants, after every step.
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
