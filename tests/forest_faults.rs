//! Fault injection for the TLFRST01 serving stack: torn writes, crashes
//! between the temp write and the atomic rename, bit rot across the header
//! and directory, and inner-frame corruption under the lazy validation
//! policy.  Every fault must surface as a structured [`ForestError`] /
//! [`ForestFileError`] — never a panic, never a silently wrong answer — and
//! the lazy policy must report *exactly* the error an eager open would have,
//! just deferred to the first touch of the damaged tree.
//!
//! The sweeps run under both [`ValidationPolicy`] values; the mmap-backed
//! module at the bottom repeats the key cases through
//! [`ForestStore::open_mmap`] when the `mmap` feature is on.

use treelab::{gen, DistanceArrayScheme, DistanceScheme, NaiveScheme, OptimalScheme};
use treelab::{
    ForestError, ForestFileError, ForestStore, ScrubOutcome, Scrubber, SlotHealth,
    ValidationPolicy, VerifyCursor,
};
use treelab_bench::ScratchDir;

const POLICIES: [ValidationPolicy; 2] = [ValidationPolicy::Eager, ValidationPolicy::Lazy];

/// Three live trees with gaps in the id space, three different schemes.
fn small_forest() -> ForestStore {
    let mut b = ForestStore::builder();
    b.push_scheme(1, &NaiveScheme::build(&gen::random_tree(60, 11)))
        .unwrap();
    b.push_scheme(5, &OptimalScheme::build(&gen::random_tree(80, 12)))
        .unwrap();
    b.push_scheme(9, &DistanceArrayScheme::build(&gen::random_tree(70, 13)))
        .unwrap();
    b.finish().expect("forest builds")
}

/// Directory record word index, inner-frame offset and length for tree `id`.
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

/// Re-serializes a word frame the way `to_bytes` would (only the mapped
/// module needs to put corrupted words back on disk).
#[cfg_attr(not(all(feature = "mmap", unix)), allow(dead_code))]
fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// A copy of the forest's words with one bit flipped mid-way through tree
/// `id`'s inner frame.  On a v2 frame the outer CRC covers only the header
/// and directory, so no re-checksum is needed: the *inner* frame's own CRC
/// is what must catch the rot.
fn flip_inner(words: &[u64], id: u64) -> Vec<u64> {
    let (_, off, len) = record_of(words, id);
    let mut out = words.to_vec();
    out[off + len / 2] ^= 1 << 21;
    out
}

/// A torn write truncated the file: every possible prefix — byte-level, so
/// the sweep crosses every header word, directory record, inner-frame and
/// checksum boundary, plus all the odd lengths in between — must be rejected
/// under both policies.
#[test]
fn truncation_at_every_byte_boundary_is_rejected() {
    let bytes = small_forest().to_bytes();
    for policy in POLICIES {
        for cut in 0..bytes.len() {
            assert!(
                ForestStore::from_bytes_with(&bytes[..cut], policy).is_err(),
                "truncation to {cut} of {} bytes must fail under {policy:?}",
                bytes.len()
            );
        }
    }
}

/// Bit rot anywhere in the header, the directory (live records, spare slots
/// and the generation word included) or the trailing checksum word must be
/// caught at open time under both policies — the directory-scoped CRC is
/// verified even by the lazy policy.
#[test]
fn bit_flips_across_header_and_directory_are_caught_under_both_policies() {
    let mut forest = small_forest();
    forest.tombstone(5).expect("live tree retires"); // a tombstone in the mix
    let words: Vec<u64> = forest.as_words().to_vec();
    let capacity = (words[3] >> 32) as usize;
    let dir_end = 5 + 4 * capacity;
    let last = words.len() - 1;
    for policy in POLICIES {
        for w in (0..dir_end).chain([last]) {
            for bit in [0, 17, 33, 63] {
                let mut flipped = words.clone();
                flipped[w] ^= 1u64 << bit;
                assert!(
                    ForestStore::from_words_with(flipped, policy).is_err(),
                    "flipping bit {bit} of word {w} must fail under {policy:?}"
                );
            }
        }
    }
}

/// A crash can strike between writing the `.tmp` sibling and the atomic
/// rename.  Openers must ignore the stale temp entirely, and the next
/// [`ForestStore::publish`] must clear it and land the new frame atomically.
#[test]
fn a_crash_between_temp_write_and_rename_leaves_a_recoverable_state() {
    let dir = ScratchDir::new("faults");
    let path = dir.join("publish.bin");
    let tmp = dir.join("publish.bin.tmp");

    // Crash before the first publish ever renamed: a garbage temp exists,
    // the real file does not.  The open reports the missing file as plain
    // I/O 'not found' — it never even looks at the temp.
    let forest = small_forest();
    std::fs::write(&tmp, b"torn garbage from a writer that died").unwrap();
    match ForestStore::open(&path) {
        Err(ForestFileError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("open of a missing file must be Io(NotFound), got {other:?}"),
    }
    forest.publish(&path).expect("publish over a stale temp");
    assert!(!tmp.exists(), "publish must remove/consume the stale temp");
    assert_eq!(
        ForestStore::open(&path)
            .expect("published frame")
            .as_words(),
        forest.as_words()
    );

    // Crash mid-republish: the temp holds a *torn prefix of a newer frame*,
    // the destination still holds the old one.  Readers keep seeing the old
    // frame, and re-running the publish recovers.
    let mut newer = forest.clone();
    newer.tombstone(1).expect("live tree retires");
    let newer_bytes = newer.to_bytes();
    std::fs::write(&tmp, &newer_bytes[..newer_bytes.len() / 2]).unwrap();
    assert_eq!(
        ForestStore::open(&path)
            .expect("old frame intact")
            .as_words(),
        forest.as_words(),
        "a reader must never observe the torn temp"
    );
    newer
        .publish(&path)
        .expect("republish clears the torn temp");
    assert!(!tmp.exists());
    for policy in POLICIES {
        let re = ForestStore::open_with(&path, policy).expect("recovered frame");
        assert_eq!(re.as_words(), newer.as_words());
        assert!(re.is_tombstoned(1));
    }
}

/// The lazy adversary: one inner frame is corrupt.  An eager open fails with
/// [`ForestError::Tree`]; a lazy open succeeds, serves every healthy tree
/// bit-identically, and fails only on the first touch of the damaged one —
/// with the *same* error the eager open reported, replayed verbatim on every
/// later touch.
#[test]
fn lazy_open_defers_inner_corruption_to_first_touch_with_the_eager_error() {
    let forest = small_forest();
    let corrupt = flip_inner(forest.as_words(), 5);

    let eager_err = match ForestStore::from_words_with(corrupt.clone(), ValidationPolicy::Eager) {
        Err(e @ ForestError::Tree { id: 5, .. }) => e,
        other => panic!("eager open must blame tree 5, got {other:?}"),
    };
    let lazy = ForestStore::from_words_with(corrupt, ValidationPolicy::Lazy)
        .expect("the directory is intact, so the lazy open succeeds");

    // Healthy trees answer exactly as the pristine forest does.
    for id in [1u64, 9] {
        assert_eq!(
            lazy.tree(id).expect("healthy tree").distance(2, 7),
            forest.tree(id).unwrap().distance(2, 7)
        );
    }
    // First touch of the damaged tree: the eager error, exactly.
    assert_eq!(lazy.try_tree(5).unwrap_err(), eager_err);
    // Second touch: the cached verdict replays, identically.
    assert_eq!(lazy.try_tree(5).unwrap_err(), eager_err);
    assert!(lazy.tree(5).is_none());
    assert_eq!(lazy.tree_count(), 3, "corruption is not a tombstone");

    // Full and chunked verification surface the same error.
    assert_eq!(lazy.verify().unwrap_err(), eager_err);
    let mut cursor = VerifyCursor::new();
    let chunked = loop {
        match lazy.verify_chunked(64, &mut cursor) {
            Ok(true) => break Ok(()),
            Ok(false) => {}
            Err(e) => break Err(e),
        }
    };
    assert_eq!(chunked.unwrap_err(), eager_err);
}

/// A directory record that *lies about its scheme tag* (re-checksummed, so
/// the CRC passes) is caught by the cross-check between the record and the
/// inner frame — eagerly at open, lazily at first touch, same error.
#[test]
fn a_scheme_tag_lie_is_caught_by_the_directory_cross_check() {
    let forest = small_forest();
    let mut words: Vec<u64> = forest.as_words().to_vec();
    let (rec_1, _, _) = record_of(&words, 1);
    let (rec_9, _, _) = record_of(&words, 9);
    // Give tree 1 tree 9's (valid, but wrong) scheme tag and refresh the
    // outer CRC so only the cross-check can object.
    let lied = (words[rec_9 + 3] >> 32 << 32) | (words[rec_1 + 3] & 0xFFFF_FFFF);
    words[rec_1 + 3] = lied;
    let capacity = (words[3] >> 32) as usize;
    let last = words.len() - 1;
    words[last] = treelab::bits::crc::crc64_words(&words[..5 + 4 * capacity]);

    let eager_err = match ForestStore::from_words_with(words.clone(), ValidationPolicy::Eager) {
        Err(e @ ForestError::Tree { id: 1, .. }) => e,
        other => panic!("eager open must blame tree 1, got {other:?}"),
    };
    let lazy =
        ForestStore::from_words_with(words, ValidationPolicy::Lazy).expect("directory is intact");
    assert!(lazy.tree(5).is_some());
    assert_eq!(lazy.try_tree(1).unwrap_err(), eager_err);
}

/// Routing a batch across a tree whose deferred validation fails is a caller
/// bug (the routed engine's contract is validated trees); it must die with a
/// message naming the tree, not a wrong answer.
#[test]
#[should_panic(expected = "failed validation")]
fn routing_over_a_corrupt_tree_under_lazy_panics_with_context() {
    let forest = small_forest();
    let lazy =
        ForestStore::from_words_with(flip_inner(forest.as_words(), 5), ValidationPolicy::Lazy)
            .expect("directory is intact");
    let _ = lazy.route_distances(&[(1, 0, 3), (5, 0, 1)]);
}

/// Scrubber/lazy equivalence on the corruption sweep: for every choice of
/// victim tree, a budgeted scrub driven to pass completion must reach
/// *exactly* the verdict an eager open reports — the same
/// [`ForestError::Tree`] for the victim, and settled-`Valid` slots serving
/// bit-identical answers for everyone else.  The tiny budget forces each
/// pass to span many calls, so the cursor-resume path is what's tested.
#[test]
fn a_full_budgeted_scrub_reaches_the_eager_verdict_for_every_slot() {
    let forest = small_forest();
    for victim in [1u64, 5, 9] {
        let corrupt = flip_inner(forest.as_words(), victim);
        let eager_err = match ForestStore::from_words_with(corrupt.clone(), ValidationPolicy::Eager)
        {
            Err(e @ ForestError::Tree { .. }) => e,
            other => panic!("eager open must blame tree {victim}, got {other:?}"),
        };
        let lazy = ForestStore::from_words_with(corrupt, ValidationPolicy::Lazy)
            .expect("directory is intact");

        let mut scrubber = Scrubber::new();
        let mut faults = Vec::new();
        loop {
            match lazy.scrub(7, &mut scrubber).expect("outer frame is intact") {
                ScrubOutcome::Fault { id, error } => faults.push((id, error)),
                ScrubOutcome::InProgress => {}
                ScrubOutcome::PassComplete => break,
            }
        }

        let ForestError::Tree { id, error } = &eager_err else {
            unreachable!("matched above")
        };
        assert_eq!(
            faults,
            vec![(*id, *error)],
            "scrub verdict == eager verdict"
        );
        assert_eq!(
            lazy.try_tree(victim).unwrap_err(),
            eager_err,
            "the quarantined slot replays the eager error"
        );
        assert!(matches!(
            lazy.slot_health(victim),
            Some(SlotHealth::Quarantined(_))
        ));
        for id in [1u64, 5, 9].into_iter().filter(|&i| i != victim) {
            assert!(
                matches!(lazy.slot_health(id), Some(SlotHealth::Valid)),
                "scrub settles deferred healthy slots"
            );
            assert_eq!(
                lazy.tree(id).expect("healthy tree").distance(2, 7),
                forest.tree(id).unwrap().distance(2, 7)
            );
        }
        assert_eq!(scrubber.stats().faults_found, 1);
        assert_eq!(scrubber.stats().passes_completed, 1);
    }
}

/// The same faults through the zero-copy mapped path: `open_mmap` must agree
/// with the copying opens on both the happy path and every rejection.
#[cfg(all(feature = "mmap", unix))]
mod mapped {
    use super::*;

    #[test]
    fn mapped_forest_serves_and_rejects_the_same_faults() {
        let dir = ScratchDir::new("faults");
        let path = dir.join("mmap.bin");
        let forest = small_forest();
        forest.publish(&path).expect("publish");

        // Pristine file: both policies map, serve and verify identically.
        for policy in POLICIES {
            let mapped = ForestStore::open_mmap(&path, policy).expect("pristine map");
            assert_eq!(mapped.as_words(), forest.as_words());
            assert_eq!(mapped.generation(), forest.generation());
            assert_eq!(
                mapped.tree(5).expect("live tree").distance(1, 40),
                forest.tree(5).unwrap().distance(1, 40)
            );
            assert_eq!(
                mapped.route_distances(&[(9, 0, 4), (1, 2, 3)]),
                forest.route_distances(&[(9, 0, 4), (1, 2, 3)])
            );
            mapped.verify().expect("pristine frame verifies");
        }

        // Inner corruption on disk: the eager map rejects at open, the lazy
        // map serves healthy trees and defers the same error to first touch.
        std::fs::write(&path, words_to_bytes(&flip_inner(forest.as_words(), 5))).unwrap();
        match ForestStore::open_mmap(&path, ValidationPolicy::Eager) {
            Err(ForestFileError::Forest(ForestError::Tree { id: 5, .. })) => {}
            other => panic!("eager map must blame tree 5, got {other:?}"),
        }
        let lazy = ForestStore::open_mmap(&path, ValidationPolicy::Lazy).expect("lazy map");
        assert_eq!(
            lazy.tree(9).expect("healthy tree").distance(0, 9),
            forest.tree(9).unwrap().distance(0, 9)
        );
        assert!(matches!(
            lazy.try_tree(5),
            Err(ForestError::Tree { id: 5, .. })
        ));
        drop(lazy);

        // Torn file: a structured error from the map path, never a panic —
        // including an odd length the word view must refuse.
        let bytes = forest.to_bytes();
        for cut in [bytes.len() / 2, bytes.len() - 8, bytes.len() - 3] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            for policy in POLICIES {
                assert!(
                    ForestStore::open_mmap(&path, policy).is_err(),
                    "mapping a {cut}-byte torn file must fail under {policy:?}"
                );
            }
        }
    }

    /// The scrubber over a lazily-mapped file reaches the same verdicts as
    /// an eager map of the same bytes — the mmap leg of the scrubber/lazy
    /// equivalence sweep.
    #[test]
    fn a_budgeted_scrub_over_a_mapped_forest_matches_the_eager_verdict() {
        let dir = ScratchDir::new("faults");
        let path = dir.join("mmap-scrub.bin");
        let forest = small_forest();
        for victim in [1u64, 5, 9] {
            std::fs::write(
                &path,
                words_to_bytes(&flip_inner(forest.as_words(), victim)),
            )
            .unwrap();
            let eager_err = match ForestStore::open_mmap(&path, ValidationPolicy::Eager) {
                Err(ForestFileError::Forest(e @ ForestError::Tree { .. })) => e,
                other => panic!("eager map must blame tree {victim}, got {other:?}"),
            };
            let lazy = ForestStore::open_mmap(&path, ValidationPolicy::Lazy).expect("lazy map");

            let mut scrubber = Scrubber::new();
            let mut faults = Vec::new();
            loop {
                match lazy.scrub(11, &mut scrubber).expect("outer frame intact") {
                    ScrubOutcome::Fault { id, error } => faults.push((id, error)),
                    ScrubOutcome::InProgress => {}
                    ScrubOutcome::PassComplete => break,
                }
            }
            let ForestError::Tree { id, error } = &eager_err else {
                unreachable!("matched above")
            };
            assert_eq!(faults, vec![(*id, *error)]);
            assert_eq!(lazy.try_tree(victim).unwrap_err(), eager_err);
            assert!(matches!(
                lazy.slot_health(victim),
                Some(SlotHealth::Quarantined(_))
            ));
            for id in [1u64, 5, 9].into_iter().filter(|&i| i != victim) {
                assert!(matches!(lazy.slot_health(id), Some(SlotHealth::Valid)));
                assert_eq!(
                    lazy.tree(id).expect("healthy tree").distance(2, 7),
                    forest.tree(id).unwrap().distance(2, 7)
                );
            }
        }
    }
}
