//! Golden frames: the regression pin of every scheme's packed frame and
//! wire-size accounting over a seeded corpus.
//!
//! For each scheme × corpus tree, [`measure_corpus`] builds the scheme and
//! records three numbers: the frame's CRC-64 trailer word (a hash of every
//! header, index and label bit), `Σ label_bits` and `max_label_bits` (the
//! closed-form wire sizes E1–E6 report).  [`GOLDEN_FRAMES`] holds the values
//! recorded when the direct pack path was still asserted bit-equal to the
//! historical struct-then-serialize pipeline (the CRC column re-recorded
//! for store format version 4, whose frames differ from those version-2
//! frames in the version word alone), and [`compare`] holds any
//! measurement to them.  The golden-frame test (`tests/legacy_equivalence.rs`)
//! reads this table, in both the debug and the release profile.
//!
//! A change that moves a frame bit or a wire size on purpose must re-record
//! the table (print [`measure_corpus`]) and say why in the change log.
//!
//! The table pins wire *lengths* only; [`GOLDEN_WIRE`] pins the wire *bits*
//! of the two self-delimiting encodings (the level-ancestor label and the
//! heavy-path label, both carrying a Lemma 2.2 sequence), as digested by
//! [`wire_digest`].

use treelab_bits::{crc, BitVec, BitWriter};
use treelab_core::approximate::ApproximateScheme;
use treelab_core::distance_array::DistanceArrayScheme;
use treelab_core::hpath::HpathLabeling;
use treelab_core::kdistance::KDistanceScheme;
use treelab_core::level_ancestor::LevelAncestorScheme;
use treelab_core::naive::NaiveScheme;
use treelab_core::optimal::OptimalScheme;
use treelab_core::store::StoredScheme;
use treelab_core::substrate::Substrate;
use treelab_core::DistanceScheme;
use treelab_tree::{gen, Tree};

/// The `k` of the k-distance frames in the corpus.
pub const K: u64 = 6;

/// The ε of the approximate frames in the corpus.
pub const EPSILON: f64 = 0.25;

/// One scheme × tree measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRow {
    /// The scheme's store name.
    pub scheme: &'static str,
    /// The corpus tree's name.
    pub tree: &'static str,
    /// The frame's last word: the CRC-64 over everything before it.
    pub crc: u64,
    /// `Σ label_bits(u)` over every node.
    pub label_bits_sum: u64,
    /// `max_label_bits()`.
    pub max_label_bits: u64,
}

const fn row(
    scheme: &'static str,
    tree: &'static str,
    crc: u64,
    label_bits_sum: u64,
    max_label_bits: u64,
) -> GoldenRow {
    GoldenRow {
        scheme,
        tree,
        crc,
        label_bits_sum,
        max_label_bits,
    }
}

/// The seeded corpus: adversarial shapes plus random trees and the singleton.
pub fn corpus() -> Vec<(&'static str, Tree)> {
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

/// Measures all six schemes on one tree, in a fixed scheme order.
pub fn measure(name: &'static str, tree: &Tree) -> Vec<GoldenRow> {
    fn measured<S: StoredScheme>(
        scheme: &S,
        tree: &'static str,
        bits: impl Fn(usize) -> usize,
        max: usize,
    ) -> GoldenRow {
        let store = scheme.as_store();
        GoldenRow {
            scheme: S::STORE_NAME,
            tree,
            crc: *store.as_words().last().expect("a frame ends in its CRC"),
            label_bits_sum: (0..store.node_count()).map(|u| bits(u) as u64).sum(),
            max_label_bits: max as u64,
        }
    }
    fn exact<S: DistanceScheme>(sub: &Substrate<'_>, tree: &'static str) -> GoldenRow {
        let s = S::build_with_substrate(sub);
        let bits = |u| s.label_bits(sub.tree().node(u));
        measured(&s, tree, bits, s.max_label_bits())
    }

    let sub = Substrate::new(tree);
    let kd = KDistanceScheme::build_with_substrate(&sub, K);
    let approx = ApproximateScheme::build_with_substrate(&sub, EPSILON);
    vec![
        exact::<NaiveScheme>(&sub, name),
        exact::<DistanceArrayScheme>(&sub, name),
        exact::<OptimalScheme>(&sub, name),
        measured(
            &kd,
            name,
            |u| kd.label_bits(tree.node(u)),
            kd.max_label_bits(),
        ),
        measured(
            &approx,
            name,
            |u| approx.label_bits(tree.node(u)),
            approx.max_label_bits(),
        ),
        exact::<LevelAncestorScheme>(&sub, name),
    ]
}

/// Measures every scheme × tree of [`corpus`].
pub fn measure_corpus() -> Vec<GoldenRow> {
    corpus()
        .into_iter()
        .flat_map(|(name, tree)| measure(name, &tree))
        .collect()
}

/// The recorded [`wire_digest`]: its CRC-64 and the number of words it
/// hashes.
pub const GOLDEN_WIRE: (u64, usize) = (0x783e092ed32171dd, 5519);

/// Digest of the encoded wire bits of every level-ancestor and heavy-path
/// label of three seeded trees.
///
/// For `random_tree(500, 3)`, `comb(300)` and `caterpillar(100, 2)`, node by
/// node, it appends the bit length and then the words of the node's
/// level-ancestor label (`to_bits`), then the same for its heavy-path label
/// (`encode`).  Returns the CRC-64 of the appended words and their count.
pub fn wire_digest() -> (u64, usize) {
    fn append(words: &mut Vec<u64>, bits: &BitVec) {
        words.push(bits.len() as u64);
        words.extend_from_slice(bits.words());
    }
    let mut words = Vec::new();
    for tree in [
        gen::random_tree(500, 3),
        gen::comb(300),
        gen::caterpillar(100, 2),
    ] {
        let la = LevelAncestorScheme::build(&tree);
        let hp = HpathLabeling::build(&tree);
        for u in tree.nodes() {
            append(&mut words, &la.label(u).to_bits());
            let mut w = BitWriter::new();
            hp.label(u).encode(&mut w);
            append(&mut words, &w.into_bitvec());
        }
    }
    (crc::crc64_words(&words), words.len())
}

/// Holds `measured` to `golden`: every golden row must be measured with
/// identical values, and nothing else may be measured.
///
/// # Errors
///
/// Describes the first missing, differing or unexpected row.
pub fn compare(measured: &[GoldenRow], golden: &[GoldenRow]) -> Result<(), String> {
    let key = |r: &GoldenRow| (r.scheme, r.tree);
    for g in golden {
        let m = measured
            .iter()
            .find(|m| key(m) == key(g))
            .ok_or_else(|| format!("{}/{}: no frame was measured", g.scheme, g.tree))?;
        if m != g {
            return Err(format!(
                "{}/{}: measured crc {:#018x}, Σ label_bits {}, max {}; golden crc {:#018x}, \
                 Σ label_bits {}, max {}",
                g.scheme,
                g.tree,
                m.crc,
                m.label_bits_sum,
                m.max_label_bits,
                g.crc,
                g.label_bits_sum,
                g.max_label_bits
            ));
        }
    }
    match measured
        .iter()
        .find(|m| !golden.iter().any(|g| key(g) == key(m)))
    {
        Some(m) => Err(format!("{}/{}: no golden row", m.scheme, m.tree)),
        None => Ok(()),
    }
}

/// The recorded scheme × tree table (see the module documentation).
pub const GOLDEN_FRAMES: &[GoldenRow] = &[
    row("naive-fixed-width", "singleton", 0x07b5561e0346d7b1, 19, 19),
    row("distance-array", "singleton", 0x7791516562155085, 11, 11),
    row("optimal-quarter", "singleton", 0xe87ef6001e446297, 19, 19),
    row("k-distance", "singleton", 0x64d2acab135b49a6, 39, 39),
    row("approximate", "singleton", 0xc46e34860acc81e1, 16, 16),
    row("level-ancestor", "singleton", 0xe3d2c6faa7fb6152, 4, 4),
    row("naive-fixed-width", "path", 0x382a154a79a049f6, 20069, 198),
    row("distance-array", "path", 0x6ac9f8009342b553, 18690, 179),
    row("optimal-quarter", "path", 0xf2a0216398b574e2, 21837, 180),
    row("k-distance", "path", 0xc657ae26f56030b6, 23734, 159),
    row("approximate", "path", 0xc3ac59e88b92775e, 12148, 124),
    row("level-ancestor", "path", 0x7b3f1db17d3f34fb, 6988, 98),
    row("naive-fixed-width", "star", 0xf33b44885406690a, 18783, 188),
    row("distance-array", "star", 0xa3dff4e04949d978, 15040, 127),
    row("optimal-quarter", "star", 0x22df7da84a2c75e8, 17801, 147),
    row("k-distance", "star", 0xd80928557db9e4dc, 21640, 129),
    row("approximate", "star", 0x8927010a51260037, 14233, 85),
    row("level-ancestor", "star", 0x7d5c4bfc020d6270, 6806, 38),
    row(
        "naive-fixed-width",
        "caterpillar",
        0x991e6021b8069956,
        26598,
        197,
    ),
    row(
        "distance-array",
        "caterpillar",
        0xc43ba02acf97e30d,
        23991,
        169,
    ),
    row(
        "optimal-quarter",
        "caterpillar",
        0x842b8a73d2537297,
        28027,
        175,
    ),
    row("k-distance", "caterpillar", 0x1e4c2f86b0fe5ab1, 39367, 195),
    row("approximate", "caterpillar", 0xb2072487434f43b6, 22290, 140),
    row(
        "level-ancestor",
        "caterpillar",
        0xbaba6456e72efcb5,
        12860,
        96,
    ),
    row("naive-fixed-width", "comb", 0xca71bf231d391be0, 54869, 216),
    row("distance-array", "comb", 0x71e38e9f93f96a78, 50254, 186),
    row("optimal-quarter", "comb", 0x4e216b970e790270, 60074, 227),
    row("k-distance", "comb", 0xa413f8c9d87c00d6, 60969, 188),
    row("approximate", "comb", 0x88b1aea547edd1f4, 33483, 136),
    row("level-ancestor", "comb", 0x5642514512b1b7f8, 19510, 100),
    row(
        "naive-fixed-width",
        "complete-binary",
        0x2c77bf09b9500f43,
        49313,
        207,
    ),
    row(
        "distance-array",
        "complete-binary",
        0xb241d0290ab38d2a,
        38567,
        164,
    ),
    row(
        "optimal-quarter",
        "complete-binary",
        0xc3ee871ba8f2fb8b,
        45907,
        210,
    ),
    row(
        "k-distance",
        "complete-binary",
        0x0ff5e490bd8d256d,
        44030,
        186,
    ),
    row(
        "approximate",
        "complete-binary",
        0xee454db596602a49,
        34515,
        152,
    ),
    row(
        "level-ancestor",
        "complete-binary",
        0x7f249167c234edd0,
        16902,
        75,
    ),
    row(
        "naive-fixed-width",
        "random-1",
        0x61b86aaf312cba76,
        50614,
        210,
    ),
    row("distance-array", "random-1", 0xb58609ddb998aa1c, 42879, 170),
    row(
        "optimal-quarter",
        "random-1",
        0x5758c17ea00fd2b3,
        51169,
        191,
    ),
    row("k-distance", "random-1", 0x12ba5c08e3a92716, 60721, 210),
    row("approximate", "random-1", 0xfadaa1ba0642d821, 37896, 146),
    row("level-ancestor", "random-1", 0xad8653857703ca5b, 22317, 98),
    row(
        "naive-fixed-width",
        "random-2",
        0x316d9319eb3250c9,
        50282,
        214,
    ),
    row("distance-array", "random-2", 0x626fc821b77a841a, 42554, 178),
    row(
        "optimal-quarter",
        "random-2",
        0x82c198165c301773,
        52099,
        198,
    ),
    row("k-distance", "random-2", 0x6b7b768519df8c5b, 61985, 223),
    row("approximate", "random-2", 0x2a31b916f1803c2e, 37273, 153),
    row("level-ancestor", "random-2", 0xc846729a10f6ef92, 22029, 107),
    row(
        "naive-fixed-width",
        "random-binary",
        0xbfe69f8e549ff137,
        48815,
        208,
    ),
    row(
        "distance-array",
        "random-binary",
        0x4cff868c7c2f4d87,
        37792,
        159,
    ),
    row(
        "optimal-quarter",
        "random-binary",
        0xaf6c1d1da953d81f,
        46254,
        182,
    ),
    row(
        "k-distance",
        "random-binary",
        0xdc14126aa3ad99b6,
        51701,
        199,
    ),
    row(
        "approximate",
        "random-binary",
        0xc029744be77ad890,
        35105,
        144,
    ),
    row(
        "level-ancestor",
        "random-binary",
        0x8da1ee236cfa34dc,
        19302,
        90,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<GoldenRow> {
        measure("path", &gen::path(40))
    }

    #[test]
    fn a_wrong_crc_word_fails_the_comparison() {
        let golden = table();
        let mut measured = golden.clone();
        measured[2].crc ^= 1;
        let err = compare(&measured, &golden).unwrap_err();
        assert!(err.starts_with("optimal-quarter/path:"), "{err}");
    }

    #[test]
    fn a_missing_scheme_row_fails_the_comparison() {
        let golden = table();
        let mut measured = golden.clone();
        measured.retain(|r| r.scheme != "k-distance");
        let err = compare(&measured, &golden).unwrap_err();
        assert!(
            err.contains("k-distance/path: no frame was measured"),
            "{err}"
        );
        // ...and in the other direction: a row the table does not know.
        let err = compare(&golden, &measured).unwrap_err();
        assert!(err.contains("k-distance/path: no golden row"), "{err}");
    }
}
