//! The serving workloads' inputs: the seeded corpus, the mixed-scheme forest
//! over it, Zipf-routed traffic, and the oracle every answer is checked
//! against.
//!
//! Corpus, forest and traffic are those of `treelab_bench::workloads`
//! (`forest_corpus`, `build_mixed_forest`, `skewed_forest_queries`); the
//! tests below prove it.  They are rebuilt here so the benchmark binary links
//! the library crates with their default features only, and so the build can
//! be split into traced steps.

use treelab_core::approximate::ApproximateScheme;
use treelab_core::distance_array::DistanceArrayScheme;
use treelab_core::forest::{ForestBuilder, ForestError, ForestStore, QueryStatus};
use treelab_core::kdistance::KDistanceScheme;
use treelab_core::level_ancestor::LevelAncestorScheme;
use treelab_core::naive::NaiveScheme;
use treelab_core::optimal::OptimalScheme;
use treelab_core::store::NO_DISTANCE;
use treelab_core::substrate::Substrate;
use treelab_core::DistanceScheme;
use treelab_tree::lca::DistanceOracle;
use treelab_tree::rng::SplitMix64;
use treelab_tree::{gen, Tree};

use crate::trace::Trace;

/// The `k` of every k-distance tree.
pub const K: u64 = 8;
/// The `ε` of every approximate tree.
pub const EPSILON: f64 = 0.25;

/// Corpus tree `id` of roughly `nodes` nodes; shapes cycle through the six
/// unweighted families of the forest corpus.
pub fn corpus_tree(id: u64, nodes: usize, seed: u64) -> Tree {
    let n = nodes.max(2);
    let seed = seed ^ id.wrapping_mul(0x9E37_79B9);
    match id % 6 {
        0 => gen::random_tree(n, seed),
        1 => gen::random_binary(n, seed),
        2 => gen::caterpillar(n.div_ceil(4), 3),
        3 => gen::broom(n / 2, n - n / 2),
        4 => gen::balanced_binary(n),
        _ => gen::comb(n),
    }
}

/// The six schemes; tree `i` of a mixed forest uses `Kind::ALL[i % 6]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Naive,
    DistanceArray,
    Optimal,
    KDistance,
    Approximate,
    LevelAncestor,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Naive,
        Kind::DistanceArray,
        Kind::Optimal,
        Kind::KDistance,
        Kind::Approximate,
        Kind::LevelAncestor,
    ];

    /// The scheme of tree `id` in a mixed forest.
    pub fn of_tree(id: u64) -> Kind {
        Kind::ALL[(id % 6) as usize]
    }

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Naive => "naive",
            Kind::DistanceArray => "distance-array",
            Kind::Optimal => "optimal",
            Kind::KDistance => "k-distance",
            Kind::Approximate => "approximate",
            Kind::LevelAncestor => "level-ancestor",
        }
    }

    /// Whether `answer` keeps this scheme's contract for true distance `d`:
    /// exact for the exact trio and level-ancestor, exact within `k` and
    /// [`NO_DISTANCE`] beyond it for k-distance, `d ≤ answer ≤ (1+ε)d + 2`
    /// for approximate.
    pub fn accepts(self, d: u64, answer: u64) -> bool {
        match self {
            Kind::KDistance if d > K => answer == NO_DISTANCE,
            Kind::Approximate => {
                answer >= d && answer <= ((1.0 + EPSILON) * d as f64).floor() as u64 + 2
            }
            _ => answer == d,
        }
    }
}

/// A built scheme of any kind.
// Built once per tree and consumed right away; boxing the variants buys
// nothing.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Naive(NaiveScheme),
    DistanceArray(DistanceArrayScheme),
    Optimal(OptimalScheme),
    KDistance(KDistanceScheme),
    Approximate(ApproximateScheme),
    LevelAncestor(LevelAncestorScheme),
}

macro_rules! each_built {
    ($built:expr, $s:ident => $body:expr) => {
        match $built {
            Built::Naive($s) => $body,
            Built::DistanceArray($s) => $body,
            Built::Optimal($s) => $body,
            Built::KDistance($s) => $body,
            Built::Approximate($s) => $body,
            Built::LevelAncestor($s) => $body,
        }
    };
}

impl Built {
    pub fn new(kind: Kind, sub: &Substrate<'_>) -> Built {
        match kind {
            Kind::Naive => Built::Naive(NaiveScheme::build_with_substrate(sub)),
            Kind::DistanceArray => {
                Built::DistanceArray(DistanceArrayScheme::build_with_substrate(sub))
            }
            Kind::Optimal => Built::Optimal(OptimalScheme::build_with_substrate(sub)),
            Kind::KDistance => Built::KDistance(KDistanceScheme::build_with_substrate(sub, K)),
            Kind::Approximate => {
                Built::Approximate(ApproximateScheme::build_with_substrate(sub, EPSILON))
            }
            Kind::LevelAncestor => {
                Built::LevelAncestor(LevelAncestorScheme::build_with_substrate(sub))
            }
        }
    }

    pub fn push(&self, builder: &mut ForestBuilder, id: u64) -> Result<(), ForestError> {
        each_built!(self, s => builder.push_scheme(id, s).map(|_| ()))
    }

    pub fn append(&self, forest: &mut ForestStore, id: u64) -> Result<(), ForestError> {
        each_built!(self, s => forest.append_scheme(id, s))
    }
}

/// Builds the mixed-scheme forest over `corpus` (tree `i` gets scheme
/// `i mod 6`), recording one span per step under span `parent`.
pub fn build_forest(
    corpus: &[Tree],
    trace: &mut Trace,
    request: u32,
    parent: u32,
) -> Result<ForestStore, ForestError> {
    let mut builder = ForestStore::builder();
    for (id, tree) in (0u64..).zip(corpus) {
        let kind = Kind::of_tree(id);
        let s = trace.open(request, parent, "build", "substrate", "", 1);
        let sub = Substrate::new(tree);
        sub.precompute();
        trace.close(s);
        let s = trace.open(request, parent, "build", "pack", kind.name(), 1);
        let scheme = Built::new(kind, &sub);
        trace.close(s);
        let s = trace.open(request, parent, "forest", "push", kind.name(), 1);
        scheme.push(&mut builder, id)?;
        trace.close(s);
    }
    let s = trace.open(request, parent, "forest", "finish", "", corpus.len() as u64);
    let forest = builder.finish();
    trace.close(s);
    forest
}

/// Routed traffic: tree rank `r` drawn with probability ∝ 1/(r+1)^skew
/// (`skew = 0` is uniform), node pairs uniform within the tree.
pub struct Traffic {
    cum: Vec<f64>,
    total: f64,
    sizes: Vec<usize>,
    rng: SplitMix64,
}

impl Traffic {
    pub fn new(sizes: &[usize], skew: f64, seed: u64) -> Traffic {
        let mut cum = Vec::with_capacity(sizes.len());
        let mut total = 0.0f64;
        for r in 0..sizes.len() {
            total += 1.0 / ((r + 1) as f64).powf(skew);
            cum.push(total);
        }
        Traffic {
            cum,
            total,
            sizes: sizes.to_vec(),
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    fn unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn next_query(&mut self) -> (u64, usize, usize) {
        let x = self.unit() * self.total;
        let slot = self
            .cum
            .partition_point(|&c| c < x)
            .min(self.sizes.len() - 1);
        let n = self.sizes[slot];
        let u = (self.unit() * n as f64) as usize % n;
        let v = (self.unit() * n as f64) as usize % n;
        (slot as u64, u, v)
    }
}

/// Query batches with the true distance of every query.
pub struct Pool {
    pub batches: Vec<Vec<(u64, usize, usize)>>,
    truth: Vec<Vec<u64>>,
}

impl Pool {
    /// Draws `count` batches of `size` queries; tree ids index `corpus`.
    pub fn draw(
        traffic: &mut Traffic,
        corpus: &[Tree],
        oracles: &[DistanceOracle],
        count: usize,
        size: usize,
    ) -> Pool {
        let batches: Vec<Vec<(u64, usize, usize)>> = (0..count)
            .map(|_| (0..size).map(|_| traffic.next_query()).collect())
            .collect();
        let truth = batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&(id, u, v)| {
                        let tree = &corpus[id as usize];
                        oracles[id as usize].distance(tree.node(u), tree.node(v))
                    })
                    .collect()
            })
            .collect();
        Pool { batches, truth }
    }

    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Statuses of batch `b` that are not `Ok` with an answer inside the
    /// scheme's contract; a missing or extra status counts as wrong too.
    pub fn wrong(&self, b: usize, statuses: &[QueryStatus]) -> u64 {
        let (queries, truth) = (&self.batches[b], &self.truth[b]);
        let checked = queries.iter().zip(truth).zip(statuses);
        let bad = checked
            .filter(|&((&(id, _, _), &d), &status)| match status {
                QueryStatus::Ok(a) => !Kind::of_tree(id).accepts(d, a),
                _ => true,
            })
            .count();
        (bad + queries.len().abs_diff(statuses.len())) as u64
    }

    /// Mean distinct trees per batch: the router's group count.
    pub fn groups_per_batch(&self) -> f64 {
        let groups: usize = self
            .batches
            .iter()
            .map(|b| {
                let mut ids: Vec<u64> = b.iter().map(|q| q.0).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            })
            .sum();
        groups as f64 / self.batches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_bench::workloads;
    use treelab_core::forest::RouteScratch;

    fn small_corpus() -> Vec<Tree> {
        (0..12).map(|id| corpus_tree(id, 300, 5)).collect()
    }

    #[test]
    fn corpus_forest_and_traffic_match_the_bench_workloads() {
        let corpus = small_corpus();
        let theirs = workloads::forest_corpus(12, 300, 5);
        assert!(corpus.iter().zip(&theirs).all(|(a, (_, b))| a == b));
        let mut trace = Trace::new();
        let forest = build_forest(&corpus, &mut trace, 0, crate::trace::NO_PARENT).unwrap();
        let reference = workloads::build_mixed_forest(&theirs);
        assert_eq!(forest.as_words(), reference.as_words());
        let sizes: Vec<usize> = corpus.iter().map(Tree::len).collect();
        for skew in [1.0, 0.0] {
            let mut traffic = Traffic::new(&sizes, skew, 9);
            let ours: Vec<_> = (0..500).map(|_| traffic.next_query()).collect();
            assert_eq!(
                ours,
                workloads::skewed_forest_queries(&theirs, 500, skew, 9)
            );
        }
    }

    #[test]
    fn planted_wrong_answers_are_counted() {
        let corpus = small_corpus();
        let oracles: Vec<DistanceOracle> = corpus.iter().map(DistanceOracle::new).collect();
        let mut trace = Trace::new();
        let forest = build_forest(&corpus, &mut trace, 0, crate::trace::NO_PARENT).unwrap();
        let sizes: Vec<usize> = corpus.iter().map(Tree::len).collect();
        let pool = Pool::draw(&mut Traffic::new(&sizes, 0.0, 3), &corpus, &oracles, 2, 600);
        let mut out = Vec::new();
        forest.try_route_distances_into(&pool.batches[0], &mut RouteScratch::new(), &mut out);
        assert_eq!(pool.wrong(0, &out), 0, "the forest answers correctly");

        // One answer off by one on an exact tree.
        let exact = pool.batches[0]
            .iter()
            .position(|q| Kind::of_tree(q.0) == Kind::Optimal)
            .expect("the batch reaches an optimal tree");
        let mut planted = out.clone();
        planted[exact] = QueryStatus::Ok(out[exact].ok().unwrap() + 1);
        assert_eq!(pool.wrong(0, &planted), 1);

        // A refused query, a k-distance answer beyond k, a lost answer.
        let mut planted = out.clone();
        planted[exact] = QueryStatus::CorruptTree;
        assert_eq!(pool.wrong(0, &planted), 1);
        let far = (0..out.len())
            .find(|&i| {
                Kind::of_tree(pool.batches[0][i].0) == Kind::KDistance && pool.truth[0][i] > K
            })
            .expect("the batch holds a k-distance query beyond k");
        let mut planted = out.clone();
        planted[far] = QueryStatus::Ok(pool.truth[0][far]);
        assert_eq!(pool.wrong(0, &planted), 1);
        assert_eq!(pool.wrong(0, &out[..out.len() - 1]), 1);
    }

    #[test]
    fn scheme_contracts() {
        assert!(Kind::Optimal.accepts(5, 5) && !Kind::Optimal.accepts(5, 6));
        assert!(Kind::KDistance.accepts(K, K) && Kind::KDistance.accepts(K + 1, NO_DISTANCE));
        assert!(!Kind::KDistance.accepts(K + 1, K + 1));
        assert!(Kind::Approximate.accepts(10, 14) && !Kind::Approximate.accepts(10, 15));
        assert!(!Kind::Approximate.accepts(10, 9));
    }
}
