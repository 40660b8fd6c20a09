//! Post-validation bit rot against the routed engine, with nothing on the
//! path to catch an unwind: every bit of a small tree's inner frame is
//! flipped on a clone of an eagerly validated one-tree forest (the slot's
//! cached verdict stays `Valid`), and every pair is routed through the
//! kernels.  A panic anywhere fails the test; each flip must instead answer
//! either all `Ok` or `CorruptTree` for the whole group.
//!
//! Per scheme the test pins two counts: flips whose group answered
//! `CorruptTree` (a kernel returned its corrupt verdict) and flips that
//! answered at least one wrong `Ok` (rot the kernels cannot see: a flipped
//! distance field still decodes as a distance).  The kernels use checked
//! arithmetic and hold each label's header counts to its index extent
//! before reading it, so a flipped count or index entry answers the
//! verdict, and both counts are the same in debug and release builds; CI
//! runs this test in both.

use treelab::tree::rng::SplitMix64;
use treelab::{
    gen, ApproximateScheme, DistanceArrayScheme, DistanceScheme, ForestStore, KDistanceScheme,
    LevelAncestorScheme, NaiveScheme, OptimalScheme, QueryStatus, RouteScratch, StoredScheme,
};

/// Nodes of the swept tree: every pair is routed for every flip.
const NODES: usize = 20;
/// Seeded multi-flip trials per scheme, and the bits each one flips.
const TRIALS: usize = 400;
const BITS_PER_TRIAL: usize = 3;

/// `(scheme, [single-flip CorruptTree, single-flip wrong Ok],
/// [multi-flip CorruptTree, multi-flip wrong Ok])`.
type Counts = (&'static str, [usize; 2], [usize; 2]);

const PINNED: [Counts; 6] = [
    ("naive", [972, 223], [316, 36]),
    ("distance-array", [972, 223], [316, 36]),
    ("optimal", [1386, 198], [339, 20]),
    ("k-distance", [922, 296], [296, 44]),
    ("approximate", [882, 275], [307, 43]),
    ("level-ancestor", [965, 140], [364, 13]),
];

/// A one-tree forest (tree id 1), eagerly validated.
fn forest_of<S: StoredScheme>(scheme: &S) -> ForestStore {
    let mut b = ForestStore::builder();
    b.push_scheme(1, scheme).unwrap();
    b.finish().expect("forest builds")
}

/// One forest per scheme over the same tree.
fn forests() -> Vec<(&'static str, ForestStore)> {
    let tree = gen::random_tree(NODES, 5);
    vec![
        ("naive", forest_of(&NaiveScheme::build(&tree))),
        (
            "distance-array",
            forest_of(&DistanceArrayScheme::build(&tree)),
        ),
        ("optimal", forest_of(&OptimalScheme::build(&tree))),
        ("k-distance", forest_of(&KDistanceScheme::build(&tree, 8))),
        (
            "approximate",
            forest_of(&ApproximateScheme::build(&tree, 0.25)),
        ),
        (
            "level-ancestor",
            forest_of(&LevelAncestorScheme::build(&tree)),
        ),
    ]
}

/// Routes every pair on a clone of `forest` with `flips` (word, mask)
/// applied and classifies the answers against `clean`: `[1, 0]` when some
/// query answered `CorruptTree`, `[0, 1]` when some answered a wrong `Ok`.
fn classify(
    forest: &ForestStore,
    flips: &[(usize, u64)],
    queries: &[(u64, usize, usize)],
    clean: &[QueryStatus],
    scratch: &mut RouteScratch,
    out: &mut Vec<QueryStatus>,
) -> [usize; 2] {
    let mut rot = forest.clone();
    for &(word, mask) in flips {
        rot.corrupt_word(word, mask);
    }
    out.clear();
    rot.try_route_distances_into(queries, scratch, out);
    let corrupt = out.contains(&QueryStatus::CorruptTree);
    if corrupt {
        // The verdict condemns the whole group, never single queries.
        assert!(out.iter().all(|&s| s == QueryStatus::CorruptTree));
    }
    let wrong = !corrupt && out != clean;
    [usize::from(corrupt), usize::from(wrong)]
}

#[test]
fn rotted_labels_answer_a_verdict_or_a_distance_and_never_panic() {
    let queries: Vec<(u64, usize, usize)> = (0..NODES * NODES)
        .map(|i| (1, i / NODES, i % NODES))
        .collect();
    let mut scratch = RouteScratch::new();
    let mut out = Vec::new();
    let mut measured = Vec::new();
    for (name, forest) in forests() {
        let mut clean = Vec::new();
        forest.try_route_distances_into(&queries, &mut scratch, &mut clean);
        assert!(clean.iter().all(|s| s.is_ok()), "{name}: clean forest");
        let extent = forest.frame_extent(1).expect("live tree");
        let add = |acc: [usize; 2], x: [usize; 2]| [acc[0] + x[0], acc[1] + x[1]];

        let mut single = [0, 0];
        for word in extent.clone() {
            for bit in 0..64 {
                let x = classify(
                    &forest,
                    &[(word, 1 << bit)],
                    &queries,
                    &clean,
                    &mut scratch,
                    &mut out,
                );
                single = add(single, x);
            }
        }

        let mut rng = SplitMix64::seed_from_u64(29);
        let mut multi = [0, 0];
        for _ in 0..TRIALS {
            let flips: Vec<(usize, u64)> = (0..BITS_PER_TRIAL)
                .map(|_| {
                    let word = rng.gen_range(extent.start..extent.end);
                    (word, 1u64 << rng.gen_range(0..64u32))
                })
                .collect();
            let x = classify(&forest, &flips, &queries, &clean, &mut scratch, &mut out);
            multi = add(multi, x);
        }
        eprintln!(
            "{name}: {} flips, single {single:?}, {TRIALS} x {BITS_PER_TRIAL}-flip trials {multi:?}",
            extent.len() * 64
        );
        measured.push((name, single, multi));
    }
    assert_eq!(measured, PINNED, "measured (left) vs pinned (right)");
}
