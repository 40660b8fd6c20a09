//! Shared negative tests: every load path must return `Err` — never panic,
//! and never attempt an absurd allocation — on truncated, bit-flipped or
//! otherwise corrupt input, and a frame whose labels or index entries were
//! rewritten (and re-checksummed) must load and answer the corrupt verdict
//! for exactly the queries that read a rewritten label.
//!
//! One layer is attacked: the **store/forest frames**, the only
//! representation anything reads back (queries are served by the packed
//! kernels; the self-delimiting label encodings are write-only).

use treelab::bits::{bitslice, crc, frame};
use treelab::{gen, DistanceScheme, NaiveScheme, OptimalScheme};
use treelab::{
    AnyStoreRef, ApproximateScheme, DistanceArrayScheme, ForestError, ForestStore, KDistanceScheme,
    LevelAncestorScheme, QueryStatus, RouteScratch, SchemeStore, StoreError, StoreRef,
    StoredScheme, CORRUPT_LABEL,
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

    // Crafted frames — corrupted *and* re-checksummed, so the CRC passes.
    // Header fields are range-checked before use, at load; a label's
    // counts are held to its index extent by every query that reads it.
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let recrc = |mut w: Vec<u64>| -> Vec<u64> {
        let last = w.len() - 1;
        w[last] = treelab::bits::crc::crc64_words(&w[..last]);
        w
    };
    // Clobber a span of words in the middle of the label region.  The frame
    // loads (the load visits no label), and every label wholly inside the
    // span — its counts now all ones, past its extent — answers the corrupt
    // verdict with every partner.  A clobbered tail behind an intact header
    // still decodes: catching that needs per-label checksums, which is the
    // documented threat model (the CRC authenticates integrity, not
    // provenance).  No pair may panic.
    let mut crafted = words.clone();
    let mid = words.len() * 2 / 3;
    for w in crafted[mid..mid + 16].iter_mut() {
        *w = u64::MAX;
    }
    let crafted = SchemeStore::<OptimalScheme>::from_words(recrc(crafted))
        .expect("a frame with clobbered label words loads");
    let n = crafted.node_count();
    let label_base = label_base(&words);
    assert!(mid > label_base, "the span lies in the label region");
    let span = (mid - label_base) * 64..(mid + 16 - label_base) * 64;
    let mut end = 0;
    let clobbered: Vec<usize> = (0..n)
        .filter(|&u| {
            let start = end;
            end += store.label_bits(u);
            span.start <= start && end <= span.end
        })
        .collect();
    assert!(!clobbered.is_empty(), "the span covers whole labels");
    for u in 0..n {
        for v in 0..n {
            let d = OptimalScheme::distance_refs(crafted.label_ref(u), crafted.label_ref(v));
            if clobbered.contains(&u) || clobbered.contains(&v) {
                assert_eq!(d, CORRUPT_LABEL, "({u}, {v})");
            }
        }
    }
    // n = u64::MAX must come back as an error, not an overflow panic.
    let mut huge_n = words.clone();
    huge_n[2] = u64::MAX;
    assert!(SchemeStore::<OptimalScheme>::from_words(recrc(huge_n)).is_err());
}

/// First word of a `TLSTOR01` frame's label region (frames under 65,536
/// labels have no block bases): header, meta, then `⌈(n + 1) / 2⌉` index
/// words.
fn label_base(words: &[u64]) -> usize {
    5 + words[4] as usize + (words[2] as usize + 2) / 2
}

/// The u32 offset-index entry `p` of a frame under 65,536 labels.
fn entry(words: &[u64], p: usize) -> u32 {
    (words[5 + words[4] as usize + p / 2] >> (p % 2 * 32)) as u32
}

fn set_entry(words: &mut [u64], p: usize, e: u32) {
    let (w, sh) = (5 + words[4] as usize + p / 2, p % 2 * 32);
    words[w] = words[w] & !(0xFFFF_FFFF << sh) | u64::from(e) << sh;
}

/// Bit offset and width, within every label's header, of the first count
/// the header holds (the packed layouts of `treelab::core::kernel`, with
/// the widths read from the frame's meta words): the record count after
/// the root distance (prefix-sum pair, optimal), the significant-ancestor
/// count that opens a `k`-distance header, the exponent count after the
/// root distance (approximate), and the light depth after the depth and
/// head offset (level ancestor).
fn header_count(words: &[u64]) -> (usize, usize) {
    let meta = &words[5..5 + words[4] as usize];
    let byte = |w: u64, i: u32| (w >> (8 * i) & 0xFF) as usize;
    match words[1] as u32 {
        1..=3 => (byte(meta[0], 0), byte(meta[1], 0)),
        4 => (0, byte(meta[0], 1)),
        5 => (byte(meta[0], 0), byte(meta[0], 1)),
        6 => (byte(meta[0], 0) + byte(meta[0], 1), byte(meta[0], 2)),
        tag => panic!("unknown scheme tag {tag}"),
    }
}

/// Two rewritten, re-checksummed copies of `clean`'s frame — one label's
/// first header count raised by one, and two adjacent offset entries
/// swapped — must each load, as a store and inside a forest.  Every query
/// that reads a rewritten label (whose header no longer describes its
/// index extent) answers `CORRUPT_LABEL` through `distance_refs` and
/// `CorruptTree` through the router; every other query answers exactly
/// as on the clean frame.
fn rewritten_frames_answer_the_verdict<S: StoredScheme>(name: &str, clean: &SchemeStore<S>) {
    let words = clean.as_words();
    let n = clean.node_count();
    let label_bit = |p: usize| label_base(words) * 64 + entry(words, p) as usize;
    let (off, width) = header_count(words);
    let count = |p: usize| bitslice::read_lsb(words, label_bit(p) + off, width);
    let p = (n / 2..n)
        .find(|&p| count(p) + 1 < 1 << width)
        .expect("a label whose count can grow");
    let mut inflated = words.to_vec();
    let pos = label_bit(p) + off;
    for b in 0..width {
        let (w, bit) = ((pos + b) / 64, (pos + b) % 64);
        let x = (count(p) + 1) >> b & 1;
        inflated[w] = inflated[w] & !(1 << bit) | x << bit;
    }
    let q = n / 2;
    let mut swapped = words.to_vec();
    set_entry(&mut swapped, q, entry(words, q + 1));
    set_entry(&mut swapped, q + 1, entry(words, q));

    let mut scratch = RouteScratch::new();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    let clean_forest = {
        let mut b = ForestStore::builder();
        b.push_frame(7, words.to_vec()).unwrap();
        b.finish().unwrap()
    };
    for (what, mut w, bad) in [
        ("an inflated count", inflated, vec![p]),
        ("swapped entries", swapped, vec![q - 1, q, q + 1]),
    ] {
        let last = w.len() - 1;
        w[last] = crc::crc64_words(&w[..last]);
        let store = SchemeStore::<S>::from_words(w.clone())
            .unwrap_or_else(|e| panic!("{name}, {what}: the frame must load, got {e}"));
        let mut b = ForestStore::builder();
        b.push_frame(7, w).unwrap();
        let forest = b
            .finish()
            .unwrap_or_else(|e| panic!("{name}, {what}: the forest must load, got {e}"));
        for u in 0..n {
            for v in 0..n {
                let reads_bad = bad.contains(&u) || bad.contains(&v);
                let d = S::distance_refs(store.label_ref(u), store.label_ref(v));
                let expect = if reads_bad {
                    CORRUPT_LABEL
                } else {
                    clean.distance(u, v)
                };
                assert_eq!(d, expect, "{name}, {what}: ({u}, {v})");
                want.clear();
                got.clear();
                clean_forest.try_route_distances_into(&[(7, u, v)], &mut scratch, &mut want);
                forest.try_route_distances_into(&[(7, u, v)], &mut scratch, &mut got);
                if reads_bad {
                    want = vec![QueryStatus::CorruptTree];
                }
                assert_eq!(got, want, "{name}, {what}: routed ({u}, {v})");
            }
        }
    }
}

#[test]
fn rewritten_labels_load_and_answer_the_corrupt_verdict() {
    let tree = gen::random_tree(60, 23);
    rewritten_frames_answer_the_verdict("naive", NaiveScheme::build(&tree).as_store());
    rewritten_frames_answer_the_verdict(
        "distance-array",
        DistanceArrayScheme::build(&tree).as_store(),
    );
    rewritten_frames_answer_the_verdict("optimal", OptimalScheme::build(&tree).as_store());
    rewritten_frames_answer_the_verdict("k-distance", KDistanceScheme::build(&tree, 6).as_store());
    rewritten_frames_answer_the_verdict(
        "approximate",
        ApproximateScheme::build(&tree, 0.25).as_store(),
    );
    rewritten_frames_answer_the_verdict(
        "level-ancestor",
        LevelAncestorScheme::build(&tree).as_store(),
    );
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
