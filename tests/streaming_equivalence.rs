//! Chunk-streaming equivalence: the frame assembler may materialize rows in
//! bounded chunks (peak build memory O(chunk) instead of O(n)), and that
//! knob may not change a single frame *byte*.
//!
//! This is the contract that lets the giant-tree builds (ROADMAP scale-out)
//! reuse every existing test as an oracle: streaming is invisible in the
//! output.  Trees past 65,536 nodes also exercise the offset index's block
//! bases, which smaller frames never read.

use treelab::bits::crc;
use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceOracle, DistanceScheme, NaiveScheme, OptimalScheme,
    SchemeStore, StoreError, StoredScheme, Substrate, Tree,
};

/// Labels per offset-index block: entries from this position on are
/// relative to a u64 block base.
const BLOCK: usize = 1 << 16;

/// A substrate that packs `chunk` rows at a time (`0` means whole-tree, the
/// in-memory default).
fn chunked_substrate(tree: &Tree, chunk: usize) -> Substrate<'_> {
    let mut sub = Substrate::new(tree);
    sub.set_chunk_rows(chunk);
    sub
}

#[test]
fn chunked_builds_are_bit_identical_to_in_memory_builds() {
    // The small trees exercise chunk sizes larger than n and the chunk == 1
    // degenerate case.
    for tree in [
        gen::random_tree(9001, 21),
        gen::comb(1200),
        gen::random_recursive(257, 5),
        Tree::singleton(),
    ] {
        let n = tree.len();
        let reference = OptimalScheme::build(&tree);
        for chunk in [1usize, 7, 4096, n] {
            let sub = chunked_substrate(&tree, chunk);
            let scheme = OptimalScheme::build_with_substrate(&sub);
            assert_eq!(
                scheme.as_store().as_words(),
                reference.as_store().as_words(),
                "optimal: frame differs at chunk={chunk}, n={n}"
            );
        }
    }

    // Past 65,536 nodes the frame carries a block base, and the labels on
    // both sides of the block boundary must still answer exactly.
    let tree = gen::random_recursive(BLOCK + 3000, 23);
    let n = tree.len();
    let reference = OptimalScheme::build(&tree);
    let chunked = OptimalScheme::build_with_substrate(&chunked_substrate(&tree, 4096));
    let store = reference.as_store();
    assert_eq!(
        chunked.as_store().as_words(),
        store.as_words(),
        "optimal: frame differs at chunk=4096, n={n}"
    );
    let label_bits: usize = (0..n).map(|u| store.label_bits(u)).sum();
    assert_eq!(label_bits, store.label_region_bits());
    let oracle = DistanceOracle::new(&tree);
    let near = [0, 1, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, n - 1];
    let pairs: Vec<(usize, usize)> = near
        .iter()
        .flat_map(|&u| near.iter().map(move |&v| (u, v)))
        .chain((0..500).map(|i| ((i * 131) % n, BLOCK - 250 + i)))
        .collect();
    let batch = store.distances(&pairs);
    for (&(u, v), &got) in pairs.iter().zip(&batch) {
        let want = oracle.distance(tree.node(u), tree.node(v));
        assert_eq!(got, want, "batch d({u},{v})");
        assert_eq!(store.distance(u, v), want, "d({u},{v})");
    }
}

#[test]
fn all_six_schemes_stream_bit_identically() {
    let tree = gen::random_tree(1777, 13);
    let plain = Substrate::new(&tree);
    let chunked = chunked_substrate(&tree, 97);
    macro_rules! check {
        ($name:literal, $build:expr) => {{
            let build = $build;
            let a = build(&plain);
            let b = build(&chunked);
            assert_eq!(
                a.as_store().as_words(),
                b.as_store().as_words(),
                concat!($name, ": chunked frame differs")
            );
        }};
    }
    check!("naive", NaiveScheme::build_with_substrate);
    check!("distance-array", DistanceArrayScheme::build_with_substrate);
    check!("optimal", OptimalScheme::build_with_substrate);
    check!("k-distance", |s: &Substrate<'_>| {
        KDistanceScheme::build_with_substrate(s, 6)
    });
    check!("approximate", |s: &Substrate<'_>| {
        ApproximateScheme::build_with_substrate(s, 0.25)
    });
    check!("level-ancestor", LevelAncestorScheme::build_with_substrate);
}

#[test]
fn corrupt_base_tables_are_rejected_not_misread() {
    // A frame with two block bases under the decode_corruption treatment:
    // truncations, bit flips and CRC-resealed hostile bases must surface
    // typed errors, never a panic and never a silently wrong answer.
    let tree = gen::path(2 * BLOCK + 100);
    let n = tree.len();
    let scheme = LevelAncestorScheme::build(&tree);
    let words = scheme.as_store().as_words().to_vec();
    let bytes = scheme.as_store().to_bytes();
    let load = |w: &[u64]| SchemeStore::<LevelAncestorScheme>::from_words(w.to_vec());
    let typed = |err: StoreError| {
        matches!(
            err,
            StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch
                | StoreError::Malformed { .. }
                | StoreError::BadMagic
        )
    };

    // Where the index sits: entries after the header and meta, then the
    // two bases (the offsets of labels 65,536 and 131,072).
    let index = 5 + words[4] as usize;
    let bases = index + (n + 2) / 2;
    let entry_word = |p: usize| index + p / 2;
    assert_eq!(words[entry_word(BLOCK)] as u32, 0, "block starts are zero");
    let (b1, b2) = (words[bases], words[bases + 1]);
    assert!(0 < b1 && b1 < b2, "bases {b1}, {b2}");

    for cut in [0usize, 5, 16, 40, 48, 96, bytes.len() / 2, bytes.len() - 8] {
        let err = SchemeStore::<LevelAncestorScheme>::from_bytes(&bytes[..cut])
            .expect_err("truncated frame must be rejected");
        assert!(typed(err), "cut at {cut}: unexpected error {err:?}");
    }
    // Cut exactly after the entries and after the first base: both leave a
    // frame whose index claims more words than remain.
    for end in [bases, bases + 1] {
        let err = load(&words[..end]).unwrap_err();
        assert!(typed(err), "cut at word {end}: {err:?}");
    }

    // Flips across the header, the entries, both bases and the label
    // region all fail the CRC before any query can run.
    for pos in [
        17usize,
        8 * entry_word(BLOCK) + 1,
        8 * bases,
        8 * bases + 7,
        8 * (bases + 1) + 2,
        bytes.len() / 2,
        bytes.len() - 9,
    ] {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (pos % 8);
        assert!(
            matches!(
                SchemeStore::<LevelAncestorScheme>::from_bytes(&flipped),
                Err(StoreError::ChecksumMismatch)
            ),
            "flip at byte {pos} must be rejected"
        );
    }

    // Hostile bases, CRC resealed so the structural checks must catch them.
    type Edit<'a> = &'a dyn Fn(&mut [u64]);
    let reseal = |edit: Edit| {
        let mut w = words.clone();
        edit(&mut w);
        let last = w.len() - 1;
        w[last] = crc::crc64_words(&w[..last]);
        w
    };
    let label_bits = scheme.as_store().label_region_bits() as u64;
    let hostile: [(&str, Edit); 8] = [
        ("decreasing bases", &|w| w.swap(bases, bases + 1)),
        ("first base zero", &|w| w[bases] = 0),
        ("base past label_bits", &|w| w[bases + 1] = label_bits + 1),
        ("base that wraps", &|w| w[bases] = u64::MAX),
        ("last offset short", &|w| w[bases + 1] -= 1),
        // The same offsets, encoded off-canonically: a nonzero entry at a
        // block start with its base lowered to match.
        ("nonzero block-start entry", &|w| {
            w[entry_word(BLOCK)] += 1;
            w[bases] -= 1;
        }),
        ("nonzero first entry", &|w| w[index] += 1),
        // n + 1 is odd here, so the last entry word has an unused high half.
        ("nonzero padding entry", &|w| w[entry_word(n)] |= 1 << 32),
    ];
    for (what, edit) in hostile {
        let err = load(&reseal(edit)).expect_err(what);
        assert!(
            matches!(err, StoreError::Malformed { .. }),
            "{what}: unexpected error {err:?}"
        );
    }

    // The pristine frame loads and answers across both block boundaries.
    let store = load(&words).unwrap();
    let oracle = DistanceOracle::new(&tree);
    for (u, v) in [(BLOCK - 1, BLOCK), (0, 2 * BLOCK), (2 * BLOCK - 1, n - 1)] {
        let want = oracle.distance(tree.node(u), tree.node(v));
        assert_eq!(store.distance(u, v), want, "d({u},{v})");
    }
}
