//! Shared negative tests: every load path must return `Err` — never panic,
//! and never attempt an absurd allocation — on truncated, bit-flipped or
//! otherwise corrupt input.
//!
//! One layer is attacked: the **store/forest frames**, the only
//! representation anything reads back (queries are served by the packed
//! kernels; the self-delimiting label encodings are write-only).

use treelab::bits::{crc, frame};
use treelab::{gen, DistanceScheme, NaiveScheme, OptimalScheme};
use treelab::{
    AnyStoreRef, ForestError, ForestStore, QueryStatus, RouteScratch, SchemeStore, StoreError,
    StoreRef, StoredScheme,
};

/// The whole-scheme store frame must reject bad magic, truncation (including
/// a truncated offset index) and bit rot with a [`StoreError`], never a panic
/// or a bogus answer.
#[test]
fn corrupt_scheme_stores_are_rejected() {
    let tree = gen::random_tree(160, 17);
    let scheme = OptimalScheme::build(&tree);
    let bytes = scheme.as_store().to_bytes();

    // Pristine frame loads and answers.
    let store = SchemeStore::<OptimalScheme>::from_bytes(&bytes).expect("valid frame");
    assert_eq!(
        store.distance(3, 150),
        scheme.distance(tree.node(3), tree.node(150))
    );

    // Bad magic.
    let mut bad_magic = bytes.clone();
    bad_magic[3] ^= 0x55;
    assert!(matches!(
        SchemeStore::<OptimalScheme>::from_bytes(&bad_magic),
        Err(StoreError::BadMagic)
    ));

    // Truncations at every layer of the frame: header, meta, offset index,
    // label region, checksum.  Every cut must fail — either as a short/odd
    // buffer or as a checksum mismatch — and never panic.
    for cut in [
        0,
        5,
        16,
        40,
        41,
        64,
        bytes.len() / 2,
        bytes.len() - 8,
        bytes.len() - 1,
    ] {
        let err = SchemeStore::<OptimalScheme>::from_bytes(&bytes[..cut])
            .expect_err("truncated frame must be rejected");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch
                    | StoreError::Malformed { .. }
                    | StoreError::BadMagic
            ),
            "cut at {cut} bytes: unexpected error {err:?}"
        );
    }

    // A flipped bit in the version/tag word is reported as the specific
    // mismatch (those fields are checked before the CRC).  Version 4 is the
    // only valid one.
    let mut vflip = bytes.clone();
    vflip[12] ^= 0x02; // a bit of the version half (4 -> 6)
    assert!(matches!(
        SchemeStore::<OptimalScheme>::from_bytes(&vflip),
        Err(StoreError::UnsupportedVersion { found: 6 })
    ));
    // The retired versions 1–3 are refused even in a CRC-valid frame,
    // through the owning, the borrowed and the runtime-dispatched paths.
    for found in 1..=3u32 {
        let mut old = frame::words_from_bytes(&bytes).unwrap();
        old[1] = u64::from(found) << 32 | (old[1] & 0xFFFF_FFFF);
        let last = old.len() - 1;
        old[last] = crc::crc64_words(&old[..last]);
        let retired = StoreError::UnsupportedVersion { found };
        assert_eq!(
            StoreRef::<OptimalScheme>::from_words(&old).unwrap_err(),
            retired
        );
        assert_eq!(AnyStoreRef::from_words(&old).unwrap_err(), retired);
        assert_eq!(
            SchemeStore::<OptimalScheme>::from_words(old).unwrap_err(),
            retired
        );
    }
    let mut tflip = bytes.clone();
    tflip[8] ^= 0x02; // a tag bit
    assert!(matches!(
        SchemeStore::<OptimalScheme>::from_bytes(&tflip),
        Err(StoreError::SchemeMismatch { .. })
    ));

    // A flipped bit anywhere past the typed header fails the CRC — including
    // inside the offset index (bit rot that would otherwise silently
    // misaddress every label after the flip).
    for pos in [
        17usize,
        33,
        47,
        bytes.len() / 3,
        2 * bytes.len() / 3,
        bytes.len() - 2,
    ] {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (pos % 8);
        assert!(
            matches!(
                SchemeStore::<OptimalScheme>::from_bytes(&flipped),
                Err(StoreError::ChecksumMismatch)
            ),
            "flip at byte {pos}"
        );
    }

    // A frame of one scheme refuses to load as another.
    assert!(matches!(
        SchemeStore::<NaiveScheme>::from_bytes(&bytes),
        Err(StoreError::SchemeMismatch { .. })
    ));

    // Crafted frames — corrupted *and* re-checksummed, so the CRC passes —
    // must still be rejected by the structural checks: the per-label extent
    // validation catches label words whose counts no longer describe the
    // label's extent, and header fields are range-checked before use.
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let recrc = |mut w: Vec<u64>| -> Vec<u64> {
        let last = w.len() - 1;
        w[last] = treelab::bits::crc::crc64_words(&w[..last]);
        w
    };
    // Clobber a span of words in the middle of the label region, long enough
    // to cover at least one packed label's header (inflating its counts past
    // its extent).  A single flipped *payload* word inside one label cannot
    // be caught without per-label checksums — that is the documented threat
    // model: the CRC authenticates integrity, not provenance.
    let mut crafted = words.clone();
    let mid = words.len() * 2 / 3;
    for w in crafted[mid..mid + 16].iter_mut() {
        *w = u64::MAX;
    }
    assert!(
        SchemeStore::<OptimalScheme>::from_words(recrc(crafted)).is_err(),
        "re-checksummed frame with clobbered label words must be rejected"
    );
    // n = u64::MAX must come back as an error, not an overflow panic.
    let mut huge_n = words.clone();
    huge_n[2] = u64::MAX;
    assert!(SchemeStore::<OptimalScheme>::from_words(recrc(huge_n)).is_err());
}

/// The forest frame must reject its own adversaries — truncated directory,
/// duplicate tree ids, overlapping extents, and inner frames that were
/// corrupted *and* re-checksummed so every CRC passes — with a
/// [`ForestError`], never a panic.
#[test]
fn corrupt_forest_frames_are_rejected() {
    use treelab::DistanceArrayScheme;
    let t0 = gen::random_tree(120, 51);
    let t1 = gen::random_tree(90, 52);
    let t2 = gen::random_tree(150, 53);
    let mut b = ForestStore::builder();
    b.push_scheme(4, &NaiveScheme::build(&t0)).unwrap();
    b.push_scheme(9, &OptimalScheme::build(&t1)).unwrap();
    b.push_scheme(12, &DistanceArrayScheme::build(&t2)).unwrap();
    let forest = b.finish().expect("valid forest");
    let words: Vec<u64> = forest.as_words().to_vec();
    let bytes = forest.to_bytes();

    // Pristine frame loads and routes.
    let loaded = ForestStore::from_bytes(&bytes).expect("pristine frame");
    let mut statuses = Vec::new();
    loaded.try_route_distances_into(&[(9, 3, 80)], &mut RouteScratch::new(), &mut statuses);
    assert_eq!(
        statuses,
        [QueryStatus::Ok(loaded.tree(9).unwrap().distance(3, 80))]
    );

    // Re-checksum helper: fixes the *outer* CRC — which on a v2 frame covers
    // exactly the header + directory — so the structural checks, not the
    // checksum, are what reject the crafted frames.
    let recrc = |mut w: Vec<u64>| -> Vec<u64> {
        let capacity = (w[3] >> 32) as usize;
        let dir_end = 5 + 4 * capacity;
        let last = w.len() - 1;
        w[last] = treelab::bits::crc::crc64_words(&w[..dir_end]);
        w
    };
    // Directory layout (v2): header is 5 words (magic, version, T,
    // capacity, generation), then 4 words per record
    // (id, offset, length, tag<<32 | n).
    let rec = |i: usize| 5 + 4 * i;

    // Bad magic.
    let mut bad_magic = bytes.clone();
    bad_magic[2] ^= 0x40;
    assert!(matches!(
        ForestStore::from_bytes(&bad_magic),
        Err(ForestError::Frame(StoreError::BadMagic))
    ));

    // Truncations at every layer: header, mid-directory, mid-inner-frame,
    // checksum.  Every cut must produce an error, never a panic.
    for cut in [
        0,
        8,
        16,
        24,
        40,              // header ends
        rec(1) * 8 + 4,  // inside the second directory record
        rec(3) * 8,      // directory ends
        bytes.len() / 2, // inside an inner frame
        bytes.len() - 8, // missing checksum
        bytes.len() - 3, // odd length
    ] {
        assert!(
            ForestStore::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} bytes must be rejected"
        );
    }

    // Duplicate tree ids (record 1's id overwritten with record 0's).
    let mut dup = words.clone();
    dup[rec(1)] = dup[rec(0)];
    assert!(matches!(
        ForestStore::from_words(recrc(dup)),
        Err(ForestError::Directory { .. })
    ));

    // Overlapping extents: record 1 claims the same offset as record 0.
    let mut overlap = words.clone();
    overlap[rec(1) + 1] = overlap[rec(0) + 1];
    assert!(matches!(
        ForestStore::from_words(recrc(overlap)),
        Err(ForestError::Directory { .. })
    ));

    // An extent running past the buffer.
    let mut runaway = words.clone();
    runaway[rec(2) + 2] = u64::MAX;
    assert!(matches!(
        ForestStore::from_words(recrc(runaway)),
        Err(ForestError::Directory { .. })
    ));

    // Absurd tree count: must come back as an error, not an overflow panic.
    let mut huge_t = words.clone();
    huge_t[2] = u64::MAX;
    assert!(matches!(
        ForestStore::from_words(recrc(huge_t)),
        Err(ForestError::Directory { .. })
    ));

    // A crafted, re-checksummed *inner* frame: bump tree 4's label count in
    // the inner header and refresh the inner CRC *and* the outer CRC, so
    // every checksum passes — the inner structural validation must still
    // reject it (and report which tree).
    let off = words[rec(0) + 1] as usize;
    let len = words[rec(0) + 2] as usize;
    let mut crafted = words.clone();
    crafted[off + 2] += 1; // inner n
    let inner_crc = treelab::bits::crc::crc64_words(&crafted[off..off + len - 1]);
    crafted[off + len - 1] = inner_crc;
    match ForestStore::from_words(recrc(crafted)) {
        Err(ForestError::Tree { id: 4, .. }) => {}
        other => panic!("crafted inner frame must be rejected as tree 4, got {other:?}"),
    }

    // Directory/inner disagreement: the directory's scheme tag for tree 4 is
    // rewritten to the optimal scheme's tag (inner frame untouched and still
    // internally valid), outer CRC refreshed.
    let mut tag_lie = words.clone();
    let dir_meta = tag_lie[rec(0) + 3];
    tag_lie[rec(0) + 3] = (3u64 << 32) | (dir_meta & 0xFFFF_FFFF);
    assert!(matches!(
        ForestStore::from_words(recrc(tag_lie)),
        Err(ForestError::Tree { id: 4, .. })
    ));
}
