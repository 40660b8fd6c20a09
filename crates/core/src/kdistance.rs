//! `k`-distance labeling (§4.3–§4.4, Theorem 1.3): report `d(u,v)` when it is
//! at most `k`, otherwise report "more than `k`".
//!
//! # Label contents
//!
//! For a node `u` with significant ancestors `u = u₀, u₁, u₂, …` (§4.3: the
//! ancestors `w` whose light range `L_w` contains `pre(u)`), let `u_r` be the
//! last one within distance `k` (the *top* significant ancestor).  The label
//! stores:
//!
//! * `pre(u)` and the heavy-path auxiliary label;
//! * the monotone sequence of light-range heights `height(L_{u₀}) ≤ … ≤
//!   height(L_{u_r})` (Lemma 2.2), from which the numeric range identifiers
//!   `id(L_{uᵢ})` of Observation 4.2 are reconstructed using `pre(u)` alone;
//! * the increasing sequence of distances `d(u, uᵢ) ≤ k`;
//! * `α = d(u_r, head)` — the offset of the top significant ancestor within
//!   its heavy path, capped at `2k+1` in the small-`k` regime (`k < log n`)
//!   and stored exactly in the large-`k` regime;
//! * in the small-`k` regime, the Lemma 4.5 tables for the top ancestor's
//!   heavy path `q₁ … q_s`: `i mod (k+1)` and the 2-approximations
//!   `⌊id(L_{q_{i+t}}) − id(L_{q_i})⌋₂` and `⌊id(L_{q_i}) − id(L_{q_{i−t}})⌋₂`
//!   for `t = 1, …, k` (exponents only, in a Lemma 2.2 structure).
//!
//! # Query
//!
//! The query decomposes `d(u,v) = d(u,u') + d(u',v') + d(v,v')` where `u'`,
//! `v'` are the deepest ancestors of `u`, `v` on the heavy path of the NCA —
//! implemented once, over packed views, in [`crate::kernel::kdistance`].
//!
//! # Deviation from the paper (documented in DESIGN.md)
//!
//! The paper finds the common heavy path through the *nearest common
//! significant ancestor* alone.  When `u` and `v` hang off **different** light
//! children of that ancestor there is no common heavy path below it, a case
//! the id/height data cannot distinguish from the common-path case; we
//! therefore carry the heavy-path auxiliary label (as the paper itself does in
//! its `k ≥ log n` regime and in the approximate scheme) and use it to find
//! `lightdepth(NCA)` directly.  This keeps the `O(k·log((log n)/k))`
//! `k`-dependence intact and adds `O(log n)` bits to the leading term.  The
//! paper's NCSA computation is implemented as
//! [`KDistanceScheme::ncsa_light_depth`] and cross-checked in the tests.

use crate::hpath::{AuxWidths, HpathLabel, HpathLabeling};
use crate::kernel::kdistance::{self as kernel, KDistanceLabelRef, KDistanceMeta};
use crate::store::{SchemeStore, StoreError, StoredScheme, CORRUPT_LABEL, NO_DISTANCE};
use crate::substrate::{PackSource, RowArena, Span, Substrate};
use treelab_bits::wordram::{range_height, range_id_from_member, two_approx_exp};
use treelab_bits::{codes, monotone, BitSlice, BitWriter};
use treelab_tree::heavy::HeavyPaths;
use treelab_tree::{NodeId, Tree};

/// One node's build-time row: the per-node sequences of Theorem 1.3 (as
/// spans of the row arena), borrowing the substrate's auxiliary label.
struct KdRow<'a> {
    aux: HpathLabel<'a>,
    heights: Span,
    dists: Span,
    alpha: u64,
    alpha_exact: bool,
    top_pos_mod: u64,
    up_exps: Span,
    down_exps: Span,
    wire_bits: u32,
}

/// The `k`-distance labeling scheme of Theorem 1.3, a thin owner of its
/// packed [`SchemeStore`] frame.
#[derive(Debug, Clone)]
pub struct KDistanceScheme {
    k: u64,
    store: SchemeStore<KDistanceScheme>,
    /// Per-node wire-encoding sizes (the paper's label-size quantity).
    wire_bits: Vec<u32>,
}

impl KDistanceScheme {
    /// Builds `k`-distance labels for every node of an unweighted tree.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the tree is weighted.
    pub fn build(tree: &Tree, k: u64) -> Self {
        Self::build_with_substrate(&Substrate::new(tree), k)
    }

    /// Builds the scheme from a shared [`Substrate`] (same frame as
    /// [`KDistanceScheme::build`], bit for bit).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the tree is weighted.
    pub fn build_with_substrate(sub: &Substrate<'_>, k: u64) -> Self {
        let src = KdSource::new(sub, k);
        let (store, plan) = SchemeStore::from_source_with(&src, sub.chunk_rows());
        KDistanceScheme {
            k,
            store,
            wire_bits: plan.wire_bits,
        }
    }

    fn pre_width(sub: &Substrate<'_>) -> u32 {
        codes::bit_len(sub.tree().len().saturating_sub(1) as u64) as u32
    }

    /// The distance bound `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Returns `Some(d(u,v))` if the distance is at most `k`, and `None`
    /// otherwise — one [`crate::kernel::kdistance`] call over the packed
    /// labels, with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u64> {
        self.store.distance_within_k(u.index(), v.index())
    }

    /// The paper's nearest-common-significant-ancestor computation (§4.3):
    /// aligns the two stored significant-ancestor sequences by light depth
    /// and returns the light depth of the deepest pair with equal range
    /// identifiers, or `None` when no stored ancestors match.
    ///
    /// Provided for the figure reproduction and cross-checked against the
    /// decomposition in the tests; the distance query itself uses the
    /// auxiliary labels (see the module documentation).
    pub fn ncsa_light_depth(&self, u: NodeId, v: NodeId) -> Option<usize> {
        kernel::ncsa_light_depth_refs(
            &self.store.label_ref(u.index()),
            &self.store.label_ref(v.index()),
        )
    }

    /// Size in bits of the (wire-encoded) label of `u`.
    pub fn label_bits(&self, u: NodeId) -> usize {
        self.wire_bits[u.index()] as usize
    }

    /// Maximum wire-encoded label size in bits.
    pub fn max_label_bits(&self) -> usize {
        self.wire_bits.iter().copied().max().unwrap_or(0) as usize
    }
}

/// The pack source of the `k`-distance scheme: rows are built on demand over
/// the shared substrate.
struct KdSource<'s> {
    tree: &'s Tree,
    hp: &'s HeavyPaths,
    aux: &'s HpathLabeling,
    depths: &'s [usize],
    k: u64,
    width: u32,
    small_k: bool,
}

impl<'s> KdSource<'s> {
    fn new(sub: &'s Substrate<'_>, k: u64) -> Self {
        let tree = sub.tree();
        assert!(k >= 1, "k must be at least 1");
        assert!(
            tree.is_unit_weighted(),
            "k-distance labeling expects an unweighted tree"
        );
        KdSource {
            tree,
            hp: sub.heavy_paths(),
            aux: sub.aux_labels(),
            depths: sub.depths(),
            k,
            width: KDistanceScheme::pre_width(sub),
            small_k: (k as f64) < (tree.len() as f64).log2().max(1.0),
        }
    }
}

/// Plan of the `k`-distance pack: the per-row width maxima plus the wire
/// sizes the scheme reports, folded in node-id order.
#[derive(Default)]
struct KdPlan {
    w_sc: u8,
    w_d: u8,
    w_h: u8,
    w_al: u8,
    w_tpm: u8,
    w_ue: u8,
    w_de: u8,
    w_uc: u8,
    w_dc: u8,
    aux_w: AuxWidths,
    wire_bits: Vec<u32>,
}

impl<'s> PackSource<KDistanceScheme> for KdSource<'s> {
    type Row = KdRow<'s>;
    type Plan = KdPlan;

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn store_param(&self) -> u64 {
        self.k
    }

    fn make_row(&self, ui: usize, arena: &mut RowArena) -> KdRow<'s> {
        let (hp, k, width) = (self.hp, self.k, self.width);
        // id(L_q) / height(L_q) per node (cheap, and used for the tables).
        let id_of = |q: NodeId| -> u64 {
            let (lo, hi) = hp.light_range(q);
            let h = range_height(lo as u64, (hi - 1) as u64, width);
            range_id_from_member(lo as u64, h)
        };
        let height_of = |q: NodeId| -> u64 {
            let (lo, hi) = hp.light_range(q);
            range_height(lo as u64, (hi - 1) as u64, width) as u64
        };

        let u = self.tree.node(ui);
        let dist_to = |a: NodeId| (self.depths[u.index()] - self.depths[a.index()]) as u64;
        // Distances grow strictly up the significant ancestors, so the ones
        // within k (u itself at least) are a prefix; its last is the top.
        let stored = || hp.significant_ancestors(u).take_while(|&a| dist_to(a) <= k);
        let dists = arena.push_words(stored().map(dist_to));
        let heights = arena.push_words(stored().map(height_of));
        let top = stored().last().expect("d(u,u)=0 <= k");
        let q_path = hp.path_of(top);
        let pos = hp.pos_in_path(top) as u64;
        let alpha_true = hp.head_offset(top); // == pos in an unweighted tree
        let (alpha, alpha_exact) = if self.small_k && alpha_true > 2 * k {
            (2 * k + 1, false)
        } else {
            (alpha_true, true)
        };
        let (up_exps, down_exps) = if self.small_k {
            let nodes = hp.path_nodes(q_path);
            let i = hp.pos_in_path(top);
            let base = id_of(top);
            let up = arena.push_words(
                (1..=k as usize)
                    .take_while(|t| i + t < nodes.len())
                    .map(|t| u64::from(two_approx_exp(id_of(nodes[i + t]) - base))),
            );
            let down = arena.push_words(
                (1..=k as usize)
                    .take_while(|t| *t <= i)
                    .map(|t| u64::from(two_approx_exp(base - id_of(nodes[i - t])))),
            );
            (up, down)
        } else {
            (Span::default(), Span::default())
        };

        let row = KdRow {
            aux: self.aux.label(u),
            heights,
            dists,
            alpha,
            alpha_exact,
            top_pos_mod: pos % (k + 1),
            up_exps,
            down_exps,
            wire_bits: 0,
        };
        // Closed-form wire size (no encoding pass; the test-only encoder
        // pins it to the real encoding bit for bit).
        let seq = |span: Span| monotone::encoded_len(arena.words(span));
        let wire_bits = (codes::gamma_nz_len(k)
            + codes::gamma_nz_len(u64::from(width))
            + codes::delta_nz_len(hp.pre(u) as u64)
            + row.aux.bit_len()
            + seq(row.heights)
            + seq(row.dists)
            + codes::delta_nz_len(row.alpha)
            + 1
            + codes::gamma_nz_len(row.top_pos_mod)
            + seq(row.up_exps)
            + seq(row.down_exps)) as u32;
        KdRow { wire_bits, ..row }
    }

    fn plan_row(&self, plan: &mut KdPlan, _u: usize, r: &KdRow<'s>, arena: &RowArena) {
        let w = |x: u64| codes::bit_len(x) as u8;
        // Every sequence is non-decreasing; its last entry bounds it.
        let last = |span: Span| arena.words(span).last().copied().unwrap_or(0);
        plan.w_sc = plan.w_sc.max(w(r.dists.len() as u64));
        plan.w_d = plan.w_d.max(w(last(r.dists)));
        plan.w_h = plan.w_h.max(w(last(r.heights)));
        plan.w_al = plan.w_al.max(w(r.alpha));
        plan.w_tpm = plan.w_tpm.max(w(r.top_pos_mod));
        plan.w_uc = plan.w_uc.max(w(r.up_exps.len() as u64));
        plan.w_dc = plan.w_dc.max(w(r.down_exps.len() as u64));
        plan.w_ue = plan.w_ue.max(w(last(r.up_exps)));
        plan.w_de = plan.w_de.max(w(last(r.down_exps)));
        plan.aux_w.observe(r.aux);
        plan.wire_bits.push(r.wire_bits);
    }

    fn meta_words(&self, plan: &KdPlan) -> Vec<u64> {
        // The k-distance query uses the aux label only for the preorder
        // (same-node test) and the common light depth; domination order and
        // subtree size are packed at width 0.
        let mut aux_w = plan.aux_w;
        aux_w.dom = 0;
        aux_w.sub = 0;
        KDistanceMeta::with_widths(
            self.k, self.width, plan.w_sc, plan.w_d, plan.w_h, plan.w_al, plan.w_tpm, plan.w_ue,
            plan.w_de, plan.w_uc, plan.w_dc, aux_w,
        )
        .words()
    }

    fn packed_label_bits(&self, meta: &KDistanceMeta, r: &KdRow<'s>, _: &RowArena) -> usize {
        meta.hdr_total
            + r.dists.len() * (meta.d_w + meta.h_w)
            + r.up_exps.len() * meta.ue_w
            + r.down_exps.len() * meta.de_w
            + meta.aux_w.packed_bits(r.aux)
    }

    fn pack_label(&self, meta: &KDistanceMeta, r: &KdRow<'s>, arena: &RowArena, w: &mut BitWriter) {
        w.write_bits_lsb(r.dists.len() as u64, usize::from(meta.w_sc));
        w.write_bits_lsb(r.up_exps.len() as u64, usize::from(meta.w_uc));
        w.write_bits_lsb(r.down_exps.len() as u64, usize::from(meta.w_dc));
        w.write_bits_lsb(r.alpha, usize::from(meta.w_al));
        w.write_bit(r.alpha_exact);
        w.write_bits_lsb(r.top_pos_mod, usize::from(meta.w_tpm));
        w.write_bits_lsb(r.aux.codewords_len() as u64, usize::from(meta.aux_w.end));
        for (span, width) in [
            (r.dists, meta.w_d),
            (r.heights, meta.w_h),
            (r.up_exps, meta.w_ue),
            (r.down_exps, meta.w_de),
        ] {
            for &x in arena.words(span) {
                w.write_bits_lsb(x, usize::from(width));
            }
        }
        meta.aux_w.pack(r.aux, w);
    }
}

impl StoredScheme for KDistanceScheme {
    const TAG: u32 = 4;
    const STORE_NAME: &'static str = "k-distance";
    type Meta = KDistanceMeta;
    type Ref<'a> = KDistanceLabelRef<'a>;

    fn as_store(&self) -> &SchemeStore<KDistanceScheme> {
        &self.store
    }

    fn parse_meta(param: u64, words: &[u64]) -> Result<KDistanceMeta, StoreError> {
        KDistanceMeta::parse(param, words)
    }

    fn label_ref<'a>(
        slice: BitSlice<'a>,
        start: usize,
        end: usize,
        meta: &'a KDistanceMeta,
    ) -> KDistanceLabelRef<'a> {
        KDistanceLabelRef::new(slice, start, end, meta)
    }

    /// The Theorem 1.3 protocol over packed views; "more than `k`" is
    /// [`NO_DISTANCE`].
    fn distance_refs(a: KDistanceLabelRef<'_>, b: KDistanceLabelRef<'_>) -> u64 {
        kernel::distance_refs(&a, &b).unwrap_or(CORRUPT_LABEL)
    }
}

impl SchemeStore<KDistanceScheme> {
    /// Typed form of the bounded query: `Some(d(u, v))` when the distance is
    /// at most `k`, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics as [`Store::distance`](crate::store::Store::distance) does:
    /// on an index out of range or a corrupt label pair.
    pub fn distance_within_k(&self, u: usize, v: usize) -> Option<u64> {
        Some(self.distance(u, v)).filter(|&d| d != NO_DISTANCE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::gen;
    use treelab_tree::lca::DistanceOracle;

    fn check_k_scheme(tree: &Tree, k: u64) {
        let scheme = KDistanceScheme::build(tree, k);
        let oracle = DistanceOracle::new(tree);
        let n = tree.len();
        let pairs: Vec<(usize, usize)> = if n <= 30 {
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
        } else {
            (0..1200)
                .map(|i| ((i * 29) % n, (i * 83 + 17) % n))
                .collect()
        };
        for (x, y) in pairs {
            let (u, v) = (tree.node(x), tree.node(y));
            let d = oracle.distance(u, v);
            let got = scheme.distance(u, v);
            if d <= k {
                assert_eq!(got, Some(d), "k={k}: ({u},{v}) at distance {d}, n={n}");
            } else {
                assert_eq!(got, None, "k={k}: ({u},{v}) at distance {d} > k, n={n}");
            }
        }
    }

    #[test]
    fn correctness_on_fixed_shapes_small_k() {
        for k in [1u64, 2, 3, 5] {
            check_k_scheme(&Tree::singleton(), k);
            check_k_scheme(&gen::path(50), k);
            check_k_scheme(&gen::star(50), k);
            check_k_scheme(&gen::caterpillar(20, 2), k);
            check_k_scheme(&gen::broom(12, 8), k);
            check_k_scheme(&gen::spider(6, 10), k);
            check_k_scheme(&gen::complete_kary(2, 6), k);
            check_k_scheme(&gen::comb(200), k);
        }
    }

    #[test]
    fn correctness_on_deep_trees_exercises_lemma_4_5() {
        // Deep caterpillars and combs force the top significant ancestors far
        // from their heavy-path heads, so alpha is capped and the Lemma 4.5
        // tables carry the query.
        for k in [2u64, 4, 7] {
            check_k_scheme(&gen::caterpillar(300, 1), k);
            check_k_scheme(&gen::caterpillar(150, 3), k);
            check_k_scheme(&gen::comb(800), k);
            check_k_scheme(&gen::spider(4, 200), k);
        }
    }

    #[test]
    fn correctness_on_random_trees() {
        for seed in 0..4u64 {
            for k in [1u64, 3, 8] {
                check_k_scheme(&gen::random_tree(160, seed), k);
                check_k_scheme(&gen::random_recursive(160, seed), k);
                check_k_scheme(&gen::random_binary(160, seed), k);
            }
        }
    }

    #[test]
    fn correctness_in_large_k_regime() {
        // k >= log n: alpha is stored exactly and the tables are empty.
        for k in [64u64, 200] {
            check_k_scheme(&gen::caterpillar(100, 2), k);
            check_k_scheme(&gen::random_tree(200, 9), k);
            check_k_scheme(&gen::comb(300), k);
        }
    }

    #[test]
    fn adjacency_special_case() {
        // k = 1 is adjacency labeling: Some(1) for tree edges, Some(0) on the
        // diagonal, None otherwise.
        let tree = gen::random_tree(120, 5);
        let scheme = KDistanceScheme::build(&tree, 1);
        for u in tree.nodes() {
            for &c in tree.children(u) {
                assert_eq!(scheme.distance(u, c), Some(1));
            }
            assert_eq!(scheme.distance(u, u), Some(0));
        }
    }

    #[test]
    fn label_growth_with_k_is_sublinear_in_the_small_regime() {
        // log n + O(k log(log n / k)): going from k=2 to k=16 must cost far
        // less than 8x.
        let tree = gen::random_tree(1 << 12, 7);
        let s2 = KDistanceScheme::build(&tree, 2).max_label_bits();
        let s16 = KDistanceScheme::build(&tree, 16).max_label_bits();
        assert!(s16 < 4 * s2, "k=2: {s2} bits, k=16: {s16} bits");
    }

    #[test]
    fn ncsa_matches_ground_truth_when_stored() {
        let tree = gen::random_tree(200, 13);
        let hp = treelab_tree::heavy::HeavyPaths::new(&tree);
        let k = 1_000_000; // everything stored
        let scheme = KDistanceScheme::build(&tree, k);
        let n = tree.len();
        for i in 0..800 {
            let u = tree.node((i * 31) % n);
            let v = tree.node((i * 73 + 7) % n);
            // Ground truth: deepest common significant ancestor.
            let set: std::collections::HashSet<_> = hp.significant_ancestors(v).collect();
            let truth = hp.significant_ancestors(u).find(|a| set.contains(a));
            let got = scheme.ncsa_light_depth(u, v);
            assert_eq!(got, truth.map(|w| hp.light_depth(w)), "u={u} v={v}");
        }
    }

    /// The self-delimiting wire encoding of one label: `k`, the preorder
    /// width, `pre(u)`, the auxiliary label, the height and distance
    /// sequences, `α` with its exactness flag, the position mod `k+1` and the
    /// two Lemma 4.5 exponent tables.
    fn wire_encode(
        w: &mut BitWriter,
        src: &KdSource<'_>,
        pre: u64,
        row: &KdRow<'_>,
        arena: &RowArena,
    ) {
        codes::write_gamma_nz(w, src.k);
        codes::write_gamma_nz(w, u64::from(src.width));
        codes::write_delta_nz(w, pre);
        row.aux.encode(w);
        monotone::write(w, arena.words(row.heights));
        monotone::write(w, arena.words(row.dists));
        codes::write_delta_nz(w, row.alpha);
        w.write_bit(row.alpha_exact);
        codes::write_gamma_nz(w, row.top_pos_mod);
        monotone::write(w, arena.words(row.up_exps));
        monotone::write(w, arena.words(row.down_exps));
    }

    #[test]
    fn label_bits_is_the_wire_encoding_length() {
        // Small k (capped α, Lemma 4.5 tables) and large k (exact α, no
        // tables) on a deep caterpillar and a random tree.
        for tree in [
            Tree::singleton(),
            gen::caterpillar(60, 2),
            gen::random_tree(150, 4),
        ] {
            let sub = Substrate::new(&tree);
            for k in [1u64, 5, 64] {
                let scheme = KDistanceScheme::build_with_substrate(&sub, k);
                let src = KdSource::new(&sub, k);
                let mut arena = RowArena::default();
                for u in tree.nodes() {
                    let row = src.make_row(u.index(), &mut arena);
                    let mut w = BitWriter::new();
                    let pre = sub.heavy_paths().pre(u) as u64;
                    wire_encode(&mut w, &src, pre, &row, &arena);
                    assert_eq!(w.len(), scheme.label_bits(u), "k={k}: node {u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_k_zero() {
        KDistanceScheme::build(&gen::path(5), 0);
    }
}
