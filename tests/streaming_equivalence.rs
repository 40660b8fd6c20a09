//! Chunk-streaming and clustered-layout equivalence: the frame assembler may
//! materialize rows in bounded chunks (peak build memory O(chunk) instead of
//! O(n)) and may lay labels out in heavy-path order — neither knob may change
//! what a query answers, and chunking may not change a single frame *byte*.
//!
//! This is the contract that lets the giant-tree builds (ROADMAP scale-out)
//! reuse every existing test as an oracle: streaming is invisible in the
//! output, clustering is invisible in the answers.

use treelab::core::approximate::ApproximateScheme;
use treelab::core::kdistance::KDistanceScheme;
use treelab::core::level_ancestor::LevelAncestorScheme;
use treelab::{
    gen, DistanceArrayScheme, DistanceScheme, IndexWidth, LabelLayout, NaiveScheme, OptimalScheme,
    SchemeStore, StoreError, StoredScheme, Substrate, Tree,
};

/// A substrate configured with (`chunk`, `layout`).  `chunk == 0` means
/// whole-tree (the in-memory default).
fn configured_substrate(tree: &Tree, chunk: usize, layout: LabelLayout) -> Substrate<'_> {
    let mut sub = Substrate::new(tree);
    sub.set_chunk_rows(chunk);
    sub.set_label_layout(layout);
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
            let sub = configured_substrate(&tree, chunk, LabelLayout::IdOrder);
            let scheme = OptimalScheme::build_with_substrate(&sub);
            assert_eq!(
                scheme.as_store().as_words(),
                reference.as_store().as_words(),
                "optimal: frame differs at chunk={chunk}, n={n}"
            );
        }
    }
}

#[test]
fn all_six_schemes_stream_bit_identically() {
    let tree = gen::random_tree(1777, 13);
    let plain = Substrate::new(&tree);
    let chunked = configured_substrate(&tree, 97, LabelLayout::IdOrder);
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
fn clustered_layout_answers_identically_and_streams_bit_identically() {
    for (tree, pairs) in [
        (gen::random_tree(2000, 3), 900usize),
        (gen::comb(800), 500),
        (gen::caterpillar(300, 4), 500),
        (gen::path(2), 4),
    ] {
        let n = tree.len();
        let id_sub = Substrate::new(&tree);
        let id_scheme = OptimalScheme::build_with_substrate(&id_sub);
        let cl_sub = configured_substrate(&tree, 0, LabelLayout::HeavyPath);
        let cl_scheme = OptimalScheme::build_with_substrate(&cl_sub);
        // The clustered frame carries its permutation in a v3 index.
        assert_eq!(
            cl_scheme.as_store().index_width(),
            IndexWidth::Succinct,
            "clustered frames must use the succinct index (n={n})"
        );
        // Same answers for every probed pair.
        for i in 0..pairs {
            let (u, v) = (tree.node((i * 29) % n), tree.node((i * 83 + 1) % n));
            assert_eq!(
                cl_scheme.distance(u, v),
                id_scheme.distance(u, v),
                "clustered answer differs at ({u},{v}), n={n}"
            );
        }
        // Chunked clustered build = in-memory clustered build, byte for byte.
        let sub = configured_substrate(&tree, 61, LabelLayout::HeavyPath);
        let scheme = OptimalScheme::build_with_substrate(&sub);
        assert_eq!(
            scheme.as_store().as_words(),
            cl_scheme.as_store().as_words(),
            "clustered frame differs when chunked (n={n})"
        );
        // The label region is a permutation of the id-order region: same
        // total bits, same node count, same meta.
        assert_eq!(
            cl_scheme.as_store().label_region_bits(),
            id_scheme.as_store().label_region_bits(),
            "clustering must not change the packed label sizes (n={n})"
        );
    }
}

#[test]
fn clustered_frames_round_trip_and_refuse_narrow_indexes() {
    let tree = gen::random_tree(1234, 17);
    let sub = configured_substrate(&tree, 0, LabelLayout::HeavyPath);
    let scheme = OptimalScheme::build_with_substrate(&sub);
    let store = scheme.as_store();
    // Byte round-trip preserves the frame exactly.
    let loaded = SchemeStore::<OptimalScheme>::from_bytes(&store.to_bytes()).unwrap();
    assert_eq!(loaded.as_words(), store.as_words());
    let n = tree.len();
    for i in 0..400 {
        let (u, v) = ((i * 7) % n, (i * 31 + 2) % n);
        assert_eq!(loaded.distance(u, v), store.distance(u, v));
    }
    // Dropping to a flat index would lose the permutation — typed error, not
    // a silently misaddressed frame.
    assert!(
        matches!(
            store.with_index_width(IndexWidth::U32),
            Err(StoreError::Malformed { .. })
        ),
        "the u32 index must be refused for clustered frames"
    );
    // Identity conversion is fine.
    let same = store.with_index_width(IndexWidth::Succinct).unwrap();
    assert_eq!(same.as_words(), store.as_words());
}

#[test]
fn u32_and_succinct_indexes_round_trip_both_ways() {
    let tree = gen::random_tree(600, 29);
    let scheme = NaiveScheme::build(&tree);
    let base = SchemeStore::build(&scheme); // v2 (u32) for a small frame
    assert_eq!(base.index_width(), IndexWidth::U32);
    let widths = [IndexWidth::U32, IndexWidth::Succinct];
    let versions = [2u32, 3];
    let n = tree.len();
    for (i, &from) in widths.iter().enumerate() {
        let a = base.with_index_width(from).unwrap();
        assert_eq!((a.as_words()[1] >> 32) as u32, versions[i], "{from:?}");
        // Serialized round-trip at this version.
        let loaded = SchemeStore::<NaiveScheme>::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(loaded.as_words(), a.as_words(), "{from:?} reload");
        for &to in &widths {
            // Conversion in every direction preserves answers, and converting
            // back reproduces the original frame bit for bit.
            let b = a.with_index_width(to).unwrap();
            let back = b.with_index_width(from).unwrap();
            assert_eq!(
                back.as_words(),
                a.as_words(),
                "{from:?} -> {to:?} -> {from:?} is not the identity"
            );
            for q in 0..300 {
                let (u, v) = ((q * 11) % n, (q * 89 + 5) % n);
                assert_eq!(b.distance(u, v), base.distance(u, v), "{from:?}->{to:?}");
            }
        }
    }
}

#[test]
fn corrupt_succinct_frames_are_rejected_not_misread() {
    // A v3 frame (the succinct index) under the decode_corruption treatment:
    // truncations and bit flips must surface typed errors, never a panic and
    // never a silently wrong answer.
    let tree = gen::random_tree(800, 41);
    let sub = configured_substrate(&tree, 0, LabelLayout::HeavyPath);
    let scheme = OptimalScheme::build_with_substrate(&sub);
    let bytes = scheme.as_store().to_bytes();

    for cut in [0usize, 5, 16, 40, 48, 96, bytes.len() / 2, bytes.len() - 8] {
        let err = SchemeStore::<OptimalScheme>::from_bytes(&bytes[..cut])
            .expect_err("truncated v3 frame must be rejected");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch
                    | StoreError::Malformed { .. }
                    | StoreError::BadMagic
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }

    // Flips across the header, descriptor, permutation, Elias–Fano low/high
    // regions and samples all fail the CRC (or a stricter structural check)
    // before any query can run.
    for pos in [
        17usize,
        41, // descriptor word region
        49,
        bytes.len() / 4,
        bytes.len() / 2,
        3 * bytes.len() / 4,
        bytes.len() - 9,
    ] {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (pos % 8);
        assert!(
            SchemeStore::<OptimalScheme>::from_bytes(&flipped).is_err(),
            "flip at byte {pos} must be rejected"
        );
    }

    // A version-word flip to the other *valid* version is still caught: the
    // CRC covers the version word, so a v3 frame cannot masquerade as v2.
    let mut vflip = bytes.clone();
    vflip[12] = 2; // low byte of the version half-word
    assert!(
        SchemeStore::<OptimalScheme>::from_bytes(&vflip).is_err(),
        "v3 frame relabelled as v2 must be rejected"
    );
}
