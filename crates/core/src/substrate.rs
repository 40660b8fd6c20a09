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
//! per-node allocation; per-path data lives in arenas).  The pack is one
//! serial pass too: each node's row keeps its variable-length parts in a
//! row arena of flat word arrays that the frame assembler clears per chunk
//! and reuses across trees, so a build allocates per arena, not per node, and
//! the streaming build stays O(chunk).  Frames are **bit-for-bit identical**
//! at every chunk size.
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
use crate::store::StoredScheme;
use std::cell::RefCell;
use std::sync::OnceLock;
use treelab_bits::BitWriter;
use treelab_tree::binarize::Binarized;
use treelab_tree::heavy::HeavyPaths;
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
/// intermediate data *purely* (it may be called more than once per node),
/// and planning and packing both consume rows in node-id order, on the
/// calling thread.  A row is a small fixed-size value; its variable-length
/// parts live in the assembler's [`RowArena`] as [`Span`]s, so building a
/// row allocates nothing once the arena has grown.
/// A source must keep `make_row` deterministic; everything order-sensitive
/// belongs in [`PackSource::Plan`].
///
/// No intermediate per-node label structs exist on this path: rows are
/// packed straight into the frame, and golden frames (the CRC-64 trailer
/// words recorded in `treelab_bench::golden`) pin the result.
pub(crate) trait PackSource<S: StoredScheme> {
    /// Per-node intermediate data: everything needed to size and pack one
    /// node's label once the meta words exist (variable-length parts as
    /// spans of the arena `make_row` filled).
    type Row;

    /// Accumulator for the planning pass (field-width maxima and
    /// other store-global reductions).
    type Plan: Default;

    /// Number of labelled nodes.
    fn node_count(&self) -> usize;

    /// Scheme-wide parameter recorded in the header (`k`, the bits of ε, or
    /// 0).
    fn store_param(&self) -> u64 {
        0
    }

    /// Builds node `u`'s row, appending its variable-length parts to
    /// `arena`.  Must be a pure function of `u` — the chunked build calls it
    /// up to twice per node (once to plan, once to pack).
    fn make_row(&self, u: usize, arena: &mut RowArena) -> Self::Row;

    /// Folds node `u`'s row into the plan.  Called exactly once per node, in
    /// node-id order.
    fn plan_row(&self, plan: &mut Self::Plan, u: usize, row: &Self::Row, arena: &RowArena);

    /// Pack-time width planning: computes the store meta words from the
    /// completed plan.
    fn meta_words(&self, plan: &Self::Plan) -> Vec<u64>;

    /// Exact packed size of a row's label in bits (used to pre-reserve the
    /// label region in one allocation on the whole-tree path).
    fn packed_label_bits(&self, meta: &S::Meta, row: &Self::Row, arena: &RowArena) -> usize;

    /// Appends the packed form of a row's label.
    fn pack_label(&self, meta: &S::Meta, row: &Self::Row, arena: &RowArena, w: &mut BitWriter);
}

/// A run of entries in one of a [`RowArena`]'s arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        let narrow =
            |x: usize| u32::try_from(x).expect("a row arena holds fewer than 2^32 entries");
        Span {
            start: narrow(start),
            end: narrow(end),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Number of entries.
    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// The pack's row storage: the variable-length parts of every row of a chunk
/// in two flat arrays (`u64` words and `u32` ids), each row holding
/// [`Span`]s into them instead of owning `Vec`s.
///
/// The frame assembler keeps one arena per thread ([`RowArena::with`]),
/// clears it per chunk and reuses its capacity across trees.
#[derive(Debug, Default)]
pub(crate) struct RowArena {
    words: Vec<u64>,
    ids: Vec<u32>,
}

thread_local! {
    static ROW_ARENA: RefCell<RowArena> = RefCell::default();
}

/// Entries above which a finished build hands its arena back to the
/// allocator instead of keeping it for the next tree, so a whole-tree build
/// of a giant tree does not leave its rows resident.
const ARENA_KEEP_ENTRIES: usize = 1 << 20;

impl RowArena {
    /// Runs `f` on this thread's arena, then clears it (or frees it, past
    /// [`ARENA_KEEP_ENTRIES`]).
    pub(crate) fn with<T>(f: impl FnOnce(&mut RowArena) -> T) -> T {
        ROW_ARENA.with_borrow_mut(|arena| {
            let out = f(arena);
            if arena.words.capacity() + arena.ids.capacity() > ARENA_KEEP_ENTRIES {
                *arena = RowArena::default();
            } else {
                arena.clear();
            }
            out
        })
    }

    /// Drops every row's parts, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.ids.clear();
    }

    /// Appends `items` to the word array.
    pub(crate) fn push_words(&mut self, items: impl IntoIterator<Item = u64>) -> Span {
        let start = self.words.len();
        self.words.extend(items);
        Span::new(start, self.words.len())
    }

    /// Appends `items` to the word array in reverse order (for sequences a
    /// builder walks bottom-up but packs top-down).
    pub(crate) fn push_words_rev(&mut self, items: impl IntoIterator<Item = u64>) -> Span {
        let span = self.push_words(items);
        self.words[span.range()].reverse();
        span
    }

    /// Appends `len` zero words for the caller to fill through
    /// [`RowArena::words_mut`].
    pub(crate) fn alloc_words(&mut self, len: usize) -> Span {
        let start = self.words.len();
        self.words.resize(start + len, 0);
        Span::new(start, start + len)
    }

    /// Appends `items` to the id array in reverse order.
    pub(crate) fn push_ids_rev(&mut self, items: impl IntoIterator<Item = u32>) -> Span {
        let start = self.ids.len();
        self.ids.extend(items);
        self.ids[start..].reverse();
        Span::new(start, self.ids.len())
    }

    /// The words of `span`.
    pub(crate) fn words(&self, span: Span) -> &[u64] {
        &self.words[span.range()]
    }

    /// The words of `span`, writable.
    pub(crate) fn words_mut(&mut self, span: Span) -> &mut [u64] {
        &mut self.words[span.range()]
    }

    /// The ids of `span`.
    pub(crate) fn ids(&self, span: Span) -> &[u32] {
        &self.ids[span.range()]
    }
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
/// computed at most once per substrate, on first access.
#[derive(Debug)]
pub struct Substrate<'t> {
    tree: &'t Tree,
    chunk: usize,
    heavy: OnceLock<HeavyPaths>,
    aux: OnceLock<HpathLabeling>,
    depths: OnceLock<Vec<usize>>,
    root_distances: OnceLock<Vec<u64>>,
    bin: OnceLock<Option<BinarizedSubstrate>>,
}

impl<'t> Substrate<'t> {
    /// Creates an empty substrate for `tree`.  Nothing is computed until
    /// first use.
    pub fn new(tree: &'t Tree) -> Self {
        Substrate {
            tree,
            chunk: usize::MAX,
            heavy: OnceLock::new(),
            aux: OnceLock::new(),
            depths: OnceLock::new(),
            root_distances: OnceLock::new(),
            bin: OnceLock::new(),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &'t Tree {
        self.tree
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

    /// Heavy-path decomposition of the original tree (computed once).
    pub fn heavy_paths(&self) -> &HeavyPaths {
        self.heavy.get_or_init(|| HeavyPaths::new(self.tree))
    }

    /// Lemma 2.1 auxiliary labels of the original tree (computed once).
    pub fn aux_labels(&self) -> &HpathLabeling {
        self.aux
            .get_or_init(|| HpathLabeling::with_heavy_paths(self.tree, self.heavy_paths()))
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
    /// before serving queries.  The substrate holds only what labels are
    /// built from; a ground-truth [`DistanceOracle`](treelab_tree::lca::DistanceOracle)
    /// for checking answers is the caller's to build.
    pub fn precompute(&self) {
        self.heavy_paths();
        self.aux_labels();
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
    fn substrate_components_are_computed_once_and_agree_with_direct_builds() {
        let tree = gen::random_tree(300, 11);
        let sub = Substrate::new(&tree);
        // Same component twice: same allocation (OnceLock caching).
        assert!(std::ptr::eq(sub.heavy_paths(), sub.heavy_paths()));
        assert!(std::ptr::eq(sub.aux_labels(), sub.aux_labels()));
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
