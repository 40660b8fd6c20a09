//! Golden frames: for every scheme over the seeded corpus, the packed frame
//! and the wire-size accounting equal the values recorded while the direct
//! pack path was still asserted bit-equal to the historical
//! struct-then-serialize pipeline.
//!
//! Each scheme × tree is pinned by its frame's CRC-64 trailer word (every
//! header, index and label bit), `Σ label_bits` and `max_label_bits` — the
//! table in `treelab_bench::golden`.  The encoded bits of the level-ancestor
//! and heavy-path labels are pinned by the table's wire digest.  CI runs
//! these tests under the release profile too.

use treelab_bench::golden::{compare, measure_corpus, wire_digest, GOLDEN_FRAMES, GOLDEN_WIRE};

#[test]
fn every_frame_and_wire_size_matches_the_golden_table() {
    let measured = measure_corpus();
    assert_eq!(measured.len(), 6 * 9, "six schemes x nine corpus trees");
    if let Err(e) = compare(&measured, GOLDEN_FRAMES) {
        panic!("golden frame drift: {e}");
    }
}

#[test]
fn encoded_label_bits_match_the_golden_wire_digest() {
    let (crc, words) = wire_digest();
    assert_eq!(
        (crc, words),
        GOLDEN_WIRE,
        "wire digest drift: measured crc {crc:#018x} over {words} words"
    );
}
