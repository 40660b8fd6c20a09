//! The named tree families every experiment sweeps over, plus the
//! forest workload family: a seeded corpus of many trees, the mixed-scheme
//! forest built over it, and a skewed (Zipf-popularity) routed query mix.

use treelab_core::approximate::ApproximateScheme;
use treelab_core::distance_array::DistanceArrayScheme;
use treelab_core::forest::ForestStore;
use treelab_core::kdistance::KDistanceScheme;
use treelab_core::level_ancestor::LevelAncestorScheme;
use treelab_core::naive::NaiveScheme;
use treelab_core::optimal::OptimalScheme;
use treelab_core::substrate::Substrate;
use treelab_core::DistanceScheme;
use treelab_tree::rng::SplitMix64;
use treelab_tree::{gen, Tree};

/// A named workload generator at a target size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Uniformly random labeled tree (random Prüfer sequence).
    Random,
    /// Random binary tree.
    RandomBinary,
    /// A path (one long heavy path, no light edges).
    Path,
    /// A star (one light edge per node).
    Star,
    /// A caterpillar with three leaves per spine node.
    Caterpillar,
    /// A broom: path ending in a large star.
    Broom,
    /// Complete binary tree.
    CompleteBinary,
    /// The comb family (fat subtrees with large offsets at every level) —
    /// the adversarial shape for exact label sizes.
    Comb,
    /// A subdivided `(h, M)`-tree with `h ≈ log n / 2` (the lower-bound family).
    SubdividedHm,
}

impl Family {
    /// All families, in presentation order.
    pub fn all() -> &'static [Family] {
        &[
            Family::Random,
            Family::RandomBinary,
            Family::Path,
            Family::Star,
            Family::Caterpillar,
            Family::Broom,
            Family::CompleteBinary,
            Family::Comb,
            Family::SubdividedHm,
        ]
    }

    /// Short name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Random => "random",
            Family::RandomBinary => "random-binary",
            Family::Path => "path",
            Family::Star => "star",
            Family::Caterpillar => "caterpillar",
            Family::Broom => "broom",
            Family::CompleteBinary => "complete-binary",
            Family::Comb => "comb",
            Family::SubdividedHm => "hm-subdivided",
        }
    }

    /// Builds an instance with roughly `n` nodes (exact for most families).
    pub fn build(self, n: usize, seed: u64) -> Tree {
        let n = n.max(2);
        match self {
            Family::Random => gen::random_tree(n, seed),
            Family::RandomBinary => gen::random_binary(n, seed),
            Family::Path => gen::path(n),
            Family::Star => gen::star(n),
            Family::Caterpillar => gen::caterpillar(n.div_ceil(4), 3),
            Family::Broom => gen::broom(n / 2, n - n / 2),
            Family::CompleteBinary => gen::balanced_binary(n),
            Family::Comb => gen::comb(n),
            Family::SubdividedHm => {
                // Choose h ≈ log2(n)/2 and M so the subdivided size is ≈ n.
                let h = ((n as f64).log2() / 2.0).round().max(1.0) as u32;
                let m = ((n as u64) / (1u64 << (h + 1))).max(2);
                gen::subdivide(&gen::hm_tree_random(h, m, seed)).0
            }
        }
    }
}

/// The unweighted families a forest corpus cycles through (every scheme —
/// including the exact trio, which needs the §2 binarization — can label
/// every corpus tree).
const FOREST_FAMILIES: &[Family] = &[
    Family::Random,
    Family::RandomBinary,
    Family::Caterpillar,
    Family::Broom,
    Family::CompleteBinary,
    Family::Comb,
];

/// A seeded forest corpus: `trees` trees of roughly `nodes_per_tree` nodes,
/// ids `0..trees`, shapes cycling through the unweighted families.
///
/// Deterministic given `(trees, nodes_per_tree, seed)` — the substrate of
/// the chaos harness and treebench's forest.
pub fn forest_corpus(trees: usize, nodes_per_tree: usize, seed: u64) -> Vec<(u64, Tree)> {
    (0..trees as u64)
        .map(|id| {
            let family = FOREST_FAMILIES[(id as usize) % FOREST_FAMILIES.len()];
            (
                id,
                family.build(nodes_per_tree, seed ^ (id.wrapping_mul(0x9E37_79B9))),
            )
        })
        .collect()
}

/// Builds the mixed-scheme forest over a corpus: tree `i` gets the
/// `i mod 6`-th scheme (paper-default parameters: `k = 8`, `ε = 0.25`), so
/// the routed engine exercises every scheme's `Ref` path.  Shared by the
/// chaos harness and treebench; treebench's tests prove its forest is this
/// one.
pub fn build_mixed_forest(corpus: &[(u64, Tree)]) -> ForestStore {
    let mut b = ForestStore::builder();
    for (i, (id, tree)) in corpus.iter().enumerate() {
        let sub = Substrate::new(tree);
        match i % 6 {
            0 => b.push_scheme(*id, &NaiveScheme::build_with_substrate(&sub)),
            1 => b.push_scheme(*id, &DistanceArrayScheme::build_with_substrate(&sub)),
            2 => b.push_scheme(*id, &OptimalScheme::build_with_substrate(&sub)),
            3 => b.push_scheme(*id, &KDistanceScheme::build_with_substrate(&sub, 8)),
            4 => b.push_scheme(*id, &ApproximateScheme::build_with_substrate(&sub, 0.25)),
            _ => b.push_scheme(*id, &LevelAncestorScheme::build_with_substrate(&sub)),
        }
        .expect("corpus ids are distinct");
    }
    b.finish().expect("corpus forest builds")
}

/// A routed query batch over a forest corpus with Zipf(`skew`) tree
/// popularity: tree rank `r` (in corpus order) is drawn with probability
/// ∝ 1/(r+1)^skew — the traffic shape of a serving tier, where a few hot
/// trees dominate but the long tail stays warm.  Node pairs are uniform per
/// tree.  Deterministic given the corpus and `seed`.
pub fn skewed_forest_queries(
    corpus: &[(u64, Tree)],
    count: usize,
    skew: f64,
    seed: u64,
) -> Vec<(u64, usize, usize)> {
    assert!(!corpus.is_empty(), "queries need a non-empty corpus");
    // Cumulative Zipf weights over the corpus ranks.
    let mut cum: Vec<f64> = Vec::with_capacity(corpus.len());
    let mut total = 0.0f64;
    for r in 0..corpus.len() {
        total += 1.0 / ((r + 1) as f64).powf(skew);
        cum.push(total);
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (0..count)
        .map(|_| {
            let x = unit() * total;
            let slot = cum.partition_point(|&c| c < x).min(corpus.len() - 1);
            let (id, tree) = &corpus[slot];
            let n = tree.len();
            let u = (unit() * n as f64) as usize % n;
            let v = (unit() * n as f64) as usize % n;
            (*id, u, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_corpus_and_queries_are_deterministic_and_in_range() {
        let corpus = forest_corpus(7, 120, 3);
        assert_eq!(corpus.len(), 7);
        assert_eq!(
            corpus.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        let q1 = skewed_forest_queries(&corpus, 500, 1.0, 9);
        assert_eq!(q1, skewed_forest_queries(&corpus, 500, 1.0, 9));
        for &(id, u, v) in &q1 {
            let tree = &corpus[id as usize].1;
            assert!(u < tree.len() && v < tree.len(), "({id},{u},{v})");
        }
        // The skew makes earlier trees hotter: tree 0 gets more than an even
        // share, the coldest tree still appears.
        let hits0 = q1.iter().filter(|&&(id, _, _)| id == 0).count();
        assert!(hits0 > 500 / 7, "tree 0 got {hits0} of 500");
        // Different corpora at the same ids differ (per-tree seeds).
        assert_ne!(corpus[0].1, corpus[6].1);
    }

    #[test]
    fn every_family_builds_at_roughly_the_requested_size() {
        for &f in Family::all() {
            for n in [64usize, 1024] {
                let t = f.build(n, 1);
                assert!(t.len() >= n / 4, "{} too small: {}", f.name(), t.len());
                assert!(t.len() <= 4 * n, "{} too large: {}", f.name(), t.len());
                assert!(!f.name().is_empty());
            }
        }
    }

    #[test]
    fn families_are_deterministic_given_a_seed() {
        for &f in Family::all() {
            assert_eq!(f.build(256, 9), f.build(256, 9));
        }
    }
}
