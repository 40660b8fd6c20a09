//! Golden frames: the regression pin of every scheme's packed frame and
//! wire-size accounting over a seeded corpus.
//!
//! For each scheme × corpus tree, [`measure_corpus`] builds the scheme and
//! records three numbers: the frame's CRC-64 trailer word (a hash of every
//! header, index and label bit), `Σ label_bits` and `max_label_bits` (the
//! closed-form wire sizes E1–E6 report).  [`GOLDEN_FRAMES`] holds the values
//! recorded when the direct pack path was still asserted bit-equal to the
//! historical struct-then-serialize pipeline, and [`compare`] holds any
//! measurement to them.  The golden-frame test (`tests/legacy_equivalence.rs`)
//! reads this table, in both the debug and the release profile.
//!
//! A change that moves a frame bit or a wire size on purpose must re-record
//! the table (print [`measure_corpus`]) and say why in the change log.

use treelab_core::approximate::ApproximateScheme;
use treelab_core::distance_array::DistanceArrayScheme;
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
    row("naive-fixed-width", "singleton", 0xa389910d2e891c41, 19, 19),
    row("distance-array", "singleton", 0xd3ad96764fda9b75, 11, 11),
    row("optimal-quarter", "singleton", 0x4c423113338ba967, 19, 19),
    row("k-distance", "singleton", 0xec0a82aa07faaebb, 39, 39),
    row("approximate", "singleton", 0x6052f39527034a11, 16, 16),
    row("level-ancestor", "singleton", 0xe0466debdf7f5cfc, 4, 4),
    row("naive-fixed-width", "path", 0x42688cf7acccfe09, 20069, 198),
    row("distance-array", "path", 0x108b61bd462e02ac, 18690, 179),
    row("optimal-quarter", "path", 0xbd4ff25036d69cb7, 21837, 180),
    row("k-distance", "path", 0x2c17553647f3440b, 23734, 159),
    row("approximate", "path", 0x44d48f07b6d4163a, 12148, 124),
    row("level-ancestor", "path", 0xadf265fbd406f1c5, 6988, 98),
    row("naive-fixed-width", "star", 0x55c6162fd725be85, 18783, 188),
    row("distance-array", "star", 0x0522a647ca6a0ef7, 15040, 127),
    row("optimal-quarter", "star", 0x6d77ecf33d7a1318, 17801, 147),
    row("k-distance", "star", 0x40612f4daca01da4, 21640, 129),
    row("approximate", "star", 0x6dd0c765dcf6f67a, 14233, 85),
    row("level-ancestor", "star", 0x1f5de99123451983, 6806, 38),
    row(
        "naive-fixed-width",
        "caterpillar",
        0x94f0c682e51ee3e5,
        26598,
        197,
    ),
    row(
        "distance-array",
        "caterpillar",
        0xc9d50689928f99be,
        23991,
        169,
    ),
    row(
        "optimal-quarter",
        "caterpillar",
        0x46f9f01c89b3d3e7,
        28027,
        175,
    ),
    row("k-distance", "caterpillar", 0xbfe4c7f6de441e91, 39367, 195),
    row("approximate", "caterpillar", 0x836747ea424d8c0b, 22290, 140),
    row(
        "level-ancestor",
        "caterpillar",
        0xa09d09c4ebcae3ea,
        12860,
        96,
    ),
    row("naive-fixed-width", "comb", 0x2b937755b7d33ae2, 54869, 216),
    row("distance-array", "comb", 0x900146e939134b7a, 50254, 186),
    row("optimal-quarter", "comb", 0xcb0b52f7dedb2ada, 60074, 227),
    row("k-distance", "comb", 0xd4b4129b573a5d17, 60969, 188),
    row("approximate", "comb", 0x42992e8ea4d1cfb6, 33483, 136),
    row("level-ancestor", "comb", 0xbef7153b078bfa04, 19510, 100),
    row(
        "naive-fixed-width",
        "complete-binary",
        0x576bb9b86f17e566,
        49313,
        207,
    ),
    row(
        "distance-array",
        "complete-binary",
        0xc95dd698dcf4670f,
        38567,
        164,
    ),
    row(
        "optimal-quarter",
        "complete-binary",
        0x08be8ce0d210524b,
        45907,
        210,
    ),
    row(
        "k-distance",
        "complete-binary",
        0x6dfdc98b3a39bf4c,
        44030,
        186,
    ),
    row(
        "approximate",
        "complete-binary",
        0xc29a3d1e049f80c6,
        34515,
        152,
    ),
    row(
        "level-ancestor",
        "complete-binary",
        0x2c5ed74a0c7376c8,
        16902,
        75,
    ),
    row(
        "naive-fixed-width",
        "random-1",
        0xf50aac288bfc032f,
        50614,
        210,
    ),
    row("distance-array", "random-1", 0x2134cf5a03481345, 42879, 170),
    row(
        "optimal-quarter",
        "random-1",
        0xb09ceca70ffd0113,
        51169,
        191,
    ),
    row("k-distance", "random-1", 0xeb88db33dc25996f, 60721, 210),
    row("approximate", "random-1", 0xfe31538b816bee36, 37896, 146),
    row("level-ancestor", "random-1", 0x4837e63e83c8be3e, 22317, 98),
    row(
        "naive-fixed-width",
        "random-2",
        0xb33341bc9c7e4b5f,
        50282,
        214,
    ),
    row("distance-array", "random-2", 0xe0311a84c0369f8c, 42554, 178),
    row(
        "optimal-quarter",
        "random-2",
        0x5f5fd114a3552ed1,
        52099,
        198,
    ),
    row("k-distance", "random-2", 0x6fb382019ae0f408, 61985, 223),
    row("approximate", "random-2", 0x5d25c298dfa82747, 37273, 153),
    row("level-ancestor", "random-2", 0x161b11a6a855c634, 22029, 107),
    row(
        "naive-fixed-width",
        "random-binary",
        0xbe244f428c4a8943,
        48815,
        208,
    ),
    row(
        "distance-array",
        "random-binary",
        0x4d3d5640a4fa35f3,
        37792,
        159,
    ),
    row(
        "optimal-quarter",
        "random-binary",
        0x5274fe03d337773d,
        46254,
        182,
    ),
    row(
        "k-distance",
        "random-binary",
        0x569b12768fdb0699,
        51701,
        199,
    ),
    row(
        "approximate",
        "random-binary",
        0x1145acbef73547f5,
        35105,
        144,
    ),
    row(
        "level-ancestor",
        "random-binary",
        0x412628455e1cefce,
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
