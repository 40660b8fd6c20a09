//! Shared build substrate: compute the tree decompositions once, build every
//! scheme from them.
//!
//! Every labeling scheme in this crate needs the same preprocessing before the
//! first label bit is produced: the §2 heavy-path decomposition
//! ([`HeavyPaths`]), the Lemma 2.1 auxiliary labels ([`HpathLabeling`]) and —
//! for the exact schemes — the §2 binarization ([`Binarized`]) with its own
//! decomposition and auxiliary labels.  Building six schemes over one tree the
//! naive way would repeat the identical substrate work six times.
//!
//! [`Substrate`] computes each component **once, on first use** (components are
//! cached in [`OnceLock`]s, so a scheme that never binarizes never pays for the
//! binarization) and every scheme exposes a `build_with_substrate` constructor
//! next to its plain `build`.  The plain `build`s are now thin wrappers that
//! create a private substrate, so single-scheme callers are unaffected.
//!
//! The components are built serially, each into a few flat arrays (no
//! per-node allocation; per-path data lives in arenas).  Only the pack's
//! per-node rows fan out over worker threads ([`build_vec`], behind the
//! [`Parallelism`] knob), and only for trees of at least 1,024 nodes.  Rows
//! are split into contiguous ranges, so the frames are **bit-for-bit
//! identical** for every thread count, including [`Parallelism::Serial`].
//!
//! # Example
//!
//! ```
//! use treelab_tree::gen;
//! use treelab_core::substrate::Substrate;
//! use treelab_core::naive::NaiveScheme;
//! use treelab_core::optimal::OptimalScheme;
//! use treelab_core::DistanceScheme;
//!
//! let tree = gen::random_tree(400, 7);
//! let sub = Substrate::new(&tree);
//! // The two schemes share one binarization + decomposition + aux labeling.
//! let naive = NaiveScheme::build_with_substrate(&sub);
//! let optimal = OptimalScheme::build_with_substrate(&sub);
//! let (u, v) = (tree.node(3), tree.node(250));
//! assert_eq!(naive.distance(u, v), optimal.distance(u, v));
//! ```

use crate::hpath::HpathLabeling;
use crate::layout::{LabelLayout, Layout};
use crate::store::StoredScheme;
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use treelab_bits::BitWriter;
use treelab_tree::binarize::Binarized;
use treelab_tree::heavy::HeavyPaths;
use treelab_tree::lca::DistanceOracle;
use treelab_tree::Tree;

/// The pack side of the store contract: a source of per-node label data that
/// can be packed **directly** into a `TLSTOR01` frame, with the pack-time
/// width planning (the scan for the store-global field widths the frame's
/// meta words record) happening here, at build time.
///
/// This is the build-side counterpart of [`StoredScheme`] (the query side).
/// Every scheme's `build_with_substrate` implements this trait over the
/// shared substrate — typically borrowing the substrate's auxiliary labels
/// instead of cloning them — and hands the source to
/// `SchemeStore::from_source_with`, which assembles the frame in two chunked
/// passes (plan, then pack; see `store::build_frame`).
///
/// The trait is row-oriented so the frame assembler — not the scheme — owns
/// the materialization schedule: [`PackSource::make_row`] produces one node's
/// intermediate data *purely* (it may be called more than once per node, in
/// any order, from worker threads), planning folds rows serially in node-id
/// order, and packing consumes rows in label-layout order.  A source must
/// therefore keep `make_row` deterministic and free of shared mutable state;
/// everything order-sensitive belongs in [`PackSource::Plan`].
///
/// No intermediate per-node label structs exist on this path: rows are
/// packed straight into the frame, and golden frames (the CRC-64 trailer
/// words recorded in `treelab_bench::golden`) pin the result.
pub(crate) trait PackSource<S: StoredScheme>: Sync {
    /// Per-node intermediate data: everything needed to size and pack one
    /// node's label once the meta words exist.
    type Row: Send;

    /// Accumulator for the id-order planning pass (field-width maxima and
    /// other store-global reductions).
    type Plan: Default;

    /// Number of labelled nodes.
    fn node_count(&self) -> usize;

    /// Scheme-wide parameter recorded in the header (`k`, the bits of ε, or
    /// 0).
    fn store_param(&self) -> u64 {
        0
    }

    /// Builds node `u`'s row.  Must be a pure function of `u` — the chunked
    /// build calls it up to twice per node (once to plan, once to pack) and
    /// fans calls out over worker threads.
    fn make_row(&self, u: usize) -> Self::Row;

    /// Folds node `u`'s row into the plan.  Called exactly once per node, in
    /// node-id order, on the calling thread.
    fn plan_row(&self, plan: &mut Self::Plan, u: usize, row: &Self::Row);

    /// Pack-time width planning: computes the store meta words from the
    /// completed plan.
    fn meta_words(&self, plan: &Self::Plan) -> Vec<u64>;

    /// Exact packed size of a row's label in bits (used to pre-reserve the
    /// label region in one allocation on the whole-tree path).
    fn packed_label_bits(&self, meta: &S::Meta, row: &Self::Row) -> usize;

    /// Appends the packed form of a row's label.
    fn pack_label(&self, meta: &S::Meta, row: &Self::Row, w: &mut BitWriter);
}

/// How the frame assembler schedules a [`PackSource`]: thread fan-out, row
/// chunking, and the label-region layout.
///
/// The default is the historical in-memory build — serial, one chunk
/// covering the whole tree, id-order labels — and every combination of knobs
/// produces a frame whose **label bytes are bit-identical** for a fixed
/// layout (chunking and threading change memory behaviour, never output).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackConfig<'a> {
    /// Worker-thread fan-out for row materialization.
    pub(crate) par: Parallelism,
    /// Rows materialized at a time; `usize::MAX` keeps the whole tree in
    /// memory (and skips the second row computation).
    pub(crate) chunk: usize,
    /// Label-region order; `None` is node-id order.
    pub(crate) layout: Option<&'a Layout>,
}

impl Default for PackConfig<'_> {
    fn default() -> Self {
        PackConfig {
            par: Parallelism::Serial,
            chunk: usize::MAX,
            layout: None,
        }
    }
}

/// How many worker threads the pack's row materialization may use.
///
/// It is the only fan-out in a build: the substrate components are serial,
/// and rows fan out only for trees of at least 1,024 nodes (smaller ones
/// stay on the calling thread whatever the setting, without resolving the
/// thread count).  The default ([`Parallelism::Auto`]) uses all available
/// cores.  Every setting produces bit-for-bit identical frames;
/// [`Parallelism::Serial`] exists so determinism tests and benchmarks can
/// pin the single-threaded path explicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Build labels on the calling thread only.
    Serial,
    /// Use [`std::thread::available_parallelism`] worker threads.
    #[default]
    Auto,
    /// Use exactly this many worker threads.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// The number of worker threads this setting resolves to on this machine.
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Parallelism::Threads(t) => t.get(),
        }
    }

    /// Convenience constructor: `0` means [`Parallelism::Auto`], `1` means
    /// [`Parallelism::Serial`], anything else is an explicit thread count.
    pub fn from_thread_count(threads: usize) -> Self {
        match threads {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            t => Parallelism::Threads(NonZeroUsize::new(t).expect("t >= 2")),
        }
    }
}

/// Below this many items the fan-out overhead outweighs the work; stay serial.
const MIN_PARALLEL_ITEMS: usize = 1024;

/// Builds `vec![f(0), f(1), …, f(n − 1)]`, fanning the index range out over
/// scoped worker threads according to `par`.
///
/// The output is identical to the serial `(0..n).map(f).collect()` for every
/// `par` — each index is computed exactly once and results are concatenated in
/// index order — which is what makes parallel scheme construction bit-for-bit
/// reproducible.
///
/// # Panics
///
/// Propagates a panic from `f` (the panic of the first failing worker).
pub fn build_vec<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // `n` first: resolving `Auto` asks the OS, which costs more than a small
    // tree's rows.
    let threads = if n < MIN_PARALLEL_ITEMS {
        1
    } else {
        par.thread_count().min(n)
    };
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                // Re-raise with the original payload so callers see the same
                // panic message the serial path would produce.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// The binarization-side substrate shared by the exact schemes
/// ([`crate::naive`], [`crate::distance_array`], [`crate::optimal`]): the §2
/// reduction plus the decomposition and auxiliary labels of the *binarized*
/// tree.
#[derive(Debug)]
pub struct BinarizedSubstrate {
    bin: Binarized,
    heavy: HeavyPaths,
    aux: HpathLabeling,
}

impl BinarizedSubstrate {
    /// The §2 reduction (binary `{0,1}`-weighted tree + proxy-leaf mapping).
    pub fn binarized(&self) -> &Binarized {
        &self.bin
    }

    /// Heavy-path decomposition of the binarized tree.
    pub fn heavy_paths(&self) -> &HeavyPaths {
        &self.heavy
    }

    /// Lemma 2.1 auxiliary labels of the binarized tree.
    pub fn aux_labels(&self) -> &HpathLabeling {
        &self.aux
    }
}

/// Shared, lazily-computed build substrate for one tree.
///
/// See the [module documentation](self) for the motivation; components are
/// computed at most once per substrate, on first access, and are safe to use
/// from the pack's worker threads.
#[derive(Debug)]
pub struct Substrate<'t> {
    tree: &'t Tree,
    par: Parallelism,
    chunk: usize,
    layout_kind: LabelLayout,
    layout: OnceLock<Option<Layout>>,
    heavy: OnceLock<HeavyPaths>,
    aux: OnceLock<HpathLabeling>,
    oracle: OnceLock<DistanceOracle>,
    depths: OnceLock<Vec<usize>>,
    root_distances: OnceLock<Vec<u64>>,
    bin: OnceLock<Option<BinarizedSubstrate>>,
}

impl<'t> Substrate<'t> {
    /// Creates an empty substrate for `tree` with default parallelism
    /// ([`Parallelism::Auto`]).  Nothing is computed until first use.
    pub fn new(tree: &'t Tree) -> Self {
        Self::with_parallelism(tree, Parallelism::default())
    }

    /// Creates an empty substrate with an explicit [`Parallelism`] setting.
    pub fn with_parallelism(tree: &'t Tree, par: Parallelism) -> Self {
        Substrate {
            tree,
            par,
            chunk: usize::MAX,
            layout_kind: LabelLayout::default(),
            layout: OnceLock::new(),
            heavy: OnceLock::new(),
            aux: OnceLock::new(),
            oracle: OnceLock::new(),
            depths: OnceLock::new(),
            root_distances: OnceLock::new(),
            bin: OnceLock::new(),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &'t Tree {
        self.tree
    }

    /// The parallelism setting every `build_with_substrate` constructor's pack
    /// uses.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Caps how many per-node rows the frame assembler materializes at a
    /// time, making peak build memory O(rows) instead of O(n) — see the
    /// chunk-streaming notes on `store::build_frame`.  `0` restores the
    /// default whole-tree (in-memory) build.  The produced frames are
    /// bit-identical at every setting.
    pub fn set_chunk_rows(&mut self, rows: usize) {
        self.chunk = if rows == 0 { usize::MAX } else { rows };
    }

    /// The current chunk cap (`usize::MAX` means whole-tree).
    pub fn chunk_rows(&self) -> usize {
        self.chunk
    }

    /// Selects the label-region layout every subsequent
    /// `build_with_substrate` uses (see [`LabelLayout`]).  Defaults to
    /// [`LabelLayout::IdOrder`], which reproduces the historical frames
    /// byte-for-byte; [`LabelLayout::HeavyPath`] clusters each heavy path's
    /// labels contiguously and switches the frame to the succinct (v3)
    /// offset index, which carries the permutation.
    pub fn set_label_layout(&mut self, kind: LabelLayout) {
        self.layout_kind = kind;
        self.layout = OnceLock::new();
    }

    /// The currently selected label-region layout.
    pub fn label_layout(&self) -> LabelLayout {
        self.layout_kind
    }

    /// The pack schedule every `build_with_substrate` constructor hands to
    /// the frame assembler (computes the layout permutation on first use).
    pub(crate) fn pack_config(&self) -> PackConfig<'_> {
        PackConfig {
            par: self.par,
            chunk: self.chunk,
            layout: self
                .layout
                .get_or_init(|| match self.layout_kind {
                    LabelLayout::IdOrder => None,
                    // A one-node tree only has the identity layout (and its
                    // permutation entries would need zero bits, colliding
                    // with the frame's identity sentinel).
                    LabelLayout::HeavyPath => (self.tree.len() > 1)
                        .then(|| Layout::heavy_path(self.tree, self.heavy_paths())),
                })
                .as_ref(),
        }
    }

    /// Heavy-path decomposition of the original tree (computed once).
    pub fn heavy_paths(&self) -> &HeavyPaths {
        self.heavy.get_or_init(|| HeavyPaths::new(self.tree))
    }

    /// Lemma 2.1 auxiliary labels of the original tree (computed once).
    pub fn aux_labels(&self) -> &HpathLabeling {
        self.aux
            .get_or_init(|| HpathLabeling::with_heavy_paths(self.tree, self.heavy_paths()))
    }

    /// Ground-truth LCA/distance oracle of the original tree (computed once).
    ///
    /// The schemes themselves never consult it; it is part of the substrate
    /// because every experiment and validation pass needs it alongside the
    /// schemes, and it is as expensive to rebuild as the decomposition.
    pub fn oracle(&self) -> &DistanceOracle {
        self.oracle.get_or_init(|| DistanceOracle::new(self.tree))
    }

    /// Unweighted depth of every node (computed once).
    pub fn depths(&self) -> &[usize] {
        self.depths.get_or_init(|| self.tree.depths())
    }

    /// Weighted root distance of every node (computed once).
    pub fn root_distances(&self) -> &[u64] {
        self.root_distances
            .get_or_init(|| self.tree.root_distances())
    }

    /// The binarization-side substrate, or `None` when the tree is weighted
    /// (the §2 reduction is defined for unweighted trees only).
    ///
    /// Computed once; exact schemes built from the same substrate share one
    /// binarization, one decomposition and one auxiliary labeling.
    pub fn binarized(&self) -> Option<&BinarizedSubstrate> {
        self.bin
            .get_or_init(|| {
                Binarized::try_new(self.tree).map(|bin| {
                    let heavy = HeavyPaths::new(bin.tree());
                    let aux = HpathLabeling::with_heavy_paths(bin.tree(), &heavy);
                    BinarizedSubstrate { bin, heavy, aux }
                })
            })
            .as_ref()
    }

    /// Like [`Substrate::binarized`], with the panic message the exact schemes
    /// share.
    ///
    /// # Panics
    ///
    /// Panics if the tree is weighted.
    pub(crate) fn binarized_expect(&self) -> &BinarizedSubstrate {
        self.binarized()
            .expect("the exact schemes expect an unweighted tree (the §2 binarization)")
    }

    /// Forces every substrate component to be computed now.
    ///
    /// Useful for timing the substrate separately from the schemes (the
    /// experiments do), or for paying the whole preprocessing cost up front
    /// before serving queries.
    pub fn precompute(&self) {
        self.heavy_paths();
        self.aux_labels();
        self.oracle();
        self.depths();
        self.root_distances();
        self.binarized();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::gen;

    #[test]
    fn build_vec_matches_serial_for_every_parallelism() {
        let f = |i: usize| (i * 37) ^ (i >> 3);
        let serial: Vec<usize> = (0..5000).map(f).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::from_thread_count(2),
            Parallelism::from_thread_count(7),
        ] {
            assert_eq!(build_vec(par, 5000, f), serial, "{par:?}");
        }
        // Small inputs take the serial fast path but stay correct.
        assert_eq!(
            build_vec(Parallelism::from_thread_count(4), 3, f),
            vec![f(0), f(1), f(2)]
        );
        assert!(build_vec(Parallelism::Auto, 0, f).is_empty());
    }

    #[test]
    fn parallelism_thread_counts() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::from_thread_count(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_thread_count(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_thread_count(5).thread_count(), 5);
        assert!(Parallelism::Auto.thread_count() >= 1);
    }

    #[test]
    fn substrate_components_are_computed_once_and_agree_with_direct_builds() {
        let tree = gen::random_tree(300, 11);
        let sub = Substrate::with_parallelism(&tree, Parallelism::Serial);
        // Same component twice: same allocation (OnceLock caching).
        assert!(std::ptr::eq(sub.heavy_paths(), sub.heavy_paths()));
        assert!(std::ptr::eq(sub.aux_labels(), sub.aux_labels()));
        assert!(std::ptr::eq(sub.oracle(), sub.oracle()));
        // Components agree with the direct constructions.
        let direct = HeavyPaths::new(&tree);
        for u in tree.nodes() {
            assert_eq!(sub.heavy_paths().pre(u), direct.pre(u));
            assert_eq!(sub.depths()[u.index()], tree.depths()[u.index()]);
            assert_eq!(
                sub.root_distances()[u.index()],
                tree.root_distances()[u.index()]
            );
        }
        sub.precompute();
        assert!(sub.binarized().is_some());
    }

    #[test]
    fn weighted_trees_have_no_binarized_substrate() {
        let weighted = gen::hm_tree_random(3, 5, 1);
        let sub = Substrate::new(&weighted);
        assert!(sub.binarized().is_none());
        // The unweighted-side components still work.
        assert_eq!(sub.heavy_paths().len(), weighted.len());
        sub.precompute();
    }
}
