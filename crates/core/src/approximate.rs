//! `(1+ε)`-approximate distance labeling (§5.2, Theorem 1.4):
//! `O(log(1/ε)·log n)`-bit labels.
//!
//! The label of a node `v` stores its root distance, the heavy-path auxiliary
//! label (Lemma 2.1), and — for every significant ancestor `vᵢ` of `v` — the
//! distance `d(v, vᵢ)` rounded **up** to the next power of `1 + ε/2`.  Only the
//! rounding *exponents* are stored, and because they form a non-decreasing
//! sequence of `O(log n)` integers bounded by `O(log n / ε)`, the Lemma 2.2
//! structure stores them in `O(log(1/ε)·log n)` bits — this is precisely the
//! improvement over the unary encoding of the original Alstrup et al. scheme,
//! which needed `O(1/ε·log n)` bits.
//!
//! A query finds `w = NCA(u, v)` structurally (via the auxiliary labels),
//! identifies the side for which `w` is a significant ancestor, and returns
//! `rd(u) + rd(v) − 2·(rd(x) − ⌈d(x, w)⌉)` for that side `x`, which lies in
//! `[d(u,v), (1+ε)·d(u,v) + 2]` (the `+2` is integer-rounding slack that
//! vanishes for distances `≥ 2/ε`; the paper works with real-valued rounding).
//! The query protocol lives in [`crate::kernel::approximate`]; this module
//! owns the build and the packed frame.

use crate::hpath::{AuxWidths, HpathLabel, HpathLabeling};
use crate::kernel::approximate::{
    self as kernel, ApproximateLabelRef, ApproximateMeta, RoundingTable,
};
use crate::store::{SchemeStore, StoreError, StoredScheme, CORRUPT_LABEL};
use crate::substrate::{PackSource, RowArena, Span, Substrate};
use treelab_bits::{codes, monotone, BitSlice, BitWriter};
use treelab_tree::heavy::HeavyPaths;
use treelab_tree::{NodeId, Tree};

/// One node's build-time row (the exponents as a span of the row arena).
struct ApproxRow<'a> {
    rd: u64,
    aux: HpathLabel<'a>,
    exponents: Span,
    wire_bits: u32,
}

/// The `(1+ε)`-approximate distance labeling scheme of §5.2, a thin owner of
/// its packed [`SchemeStore`] frame.
#[derive(Debug, Clone)]
pub struct ApproximateScheme {
    store: SchemeStore<ApproximateScheme>,
    /// Per-node wire-encoding sizes (the paper's label-size quantity).
    wire_bits: Vec<u32>,
}

impl ApproximateScheme {
    /// Builds `(1+ε)`-approximate labels for every node of `tree` (which may be
    /// weighted).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε ≤ 1` (the regime of Theorem 1.4).
    pub fn build(tree: &Tree, epsilon: f64) -> Self {
        Self::build_with_substrate(&Substrate::new(tree), epsilon)
    }

    /// Builds the scheme from a shared [`Substrate`] (same frame as
    /// [`ApproximateScheme::build`], bit for bit).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε ≤ 1` (the regime of Theorem 1.4).
    pub fn build_with_substrate(sub: &Substrate<'_>, epsilon: f64) -> Self {
        let src = ApproxSource::new(sub, epsilon);
        let (store, plan) = SchemeStore::from_source_with(&src, sub.chunk_rows());
        ApproximateScheme {
            store,
            wire_bits: plan.wire_bits,
        }
    }

    /// Returns an estimate `d̃` with `d(u,v) ≤ d̃ ≤ (1+ε)·d(u,v) + 2`,
    /// computed from the two packed labels alone — one
    /// [`crate::kernel::approximate`] call, with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn distance(&self, u: NodeId, v: NodeId) -> u64 {
        self.store.distance(u.index(), v.index())
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

/// The pack source of the approximate scheme: rows are built on demand over
/// the shared substrate.
struct ApproxSource<'s> {
    tree: &'s Tree,
    hp: &'s HeavyPaths,
    aux: &'s HpathLabeling,
    rd: &'s [u64],
    epsilon: f64,
    /// Rounding to powers of `1 + ε/2`, up to the largest root distance.
    rounding: RoundingTable,
}

impl<'s> ApproxSource<'s> {
    fn new(sub: &'s Substrate<'_>, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must lie in (0, 1], got {epsilon}"
        );
        let rd = sub.root_distances();
        ApproxSource {
            tree: sub.tree(),
            hp: sub.heavy_paths(),
            aux: sub.aux_labels(),
            rd,
            epsilon,
            // Internal rounding uses ε/2 so the final estimate is
            // (1+ε)-accurate.  A stored distance is a root-distance
            // difference, so the largest root distance bounds the table.
            rounding: RoundingTable::new(epsilon / 2.0, rd.iter().copied().max().unwrap_or(0)),
        }
    }

    /// `⌈1/ε⌉`: the wire form of the scheme-wide ε, which keeps each wire
    /// label self-contained.
    fn inv_epsilon(&self) -> u64 {
        (1.0 / self.epsilon).ceil() as u64
    }
}

/// Plan of the approximate pack: the per-row width maxima plus the wire
/// sizes the scheme reports, folded in node-id order.
#[derive(Default)]
struct ApproxPlan {
    w_rd: u8,
    w_ec: u8,
    w_e: u8,
    aux_w: AuxWidths,
    wire_bits: Vec<u32>,
}

impl<'s> PackSource<ApproximateScheme> for ApproxSource<'s> {
    type Row = ApproxRow<'s>;
    type Plan = ApproxPlan;

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn store_param(&self) -> u64 {
        self.epsilon.to_bits()
    }

    fn make_row(&self, i: usize, arena: &mut RowArena) -> ApproxRow<'s> {
        let v = self.tree.node(i);
        let rd = self.rd[v.index()];
        // Skip v itself; store exponents for v₁, …, v_k.
        let exponents = arena.push_words(self.hp.significant_ancestors(v).skip(1).map(|a| {
            let d = rd - self.rd[a.index()];
            if d == 0 {
                0
            } else {
                // Reserve exponent 0 for "distance 0" (possible with
                // 0-weight edges) by shifting real exponents up by 1.
                self.rounding.exponent(d) + 1
            }
        }));
        // The sequence must be non-decreasing for Lemma 2.2; distances
        // to higher significant ancestors only grow, and the 0-shift
        // preserves order.
        let aux = self.aux.label(v);
        // Closed-form wire size (no encoding pass; the test-only encoder
        // pins it to the real encoding bit for bit).
        let wire_bits = (codes::gamma_nz_len(self.inv_epsilon())
            + codes::delta_nz_len(rd)
            + aux.bit_len()
            + monotone::encoded_len(arena.words(exponents))) as u32;
        ApproxRow {
            rd,
            aux,
            exponents,
            wire_bits,
        }
    }

    fn plan_row(&self, plan: &mut ApproxPlan, _u: usize, r: &ApproxRow<'s>, arena: &RowArena) {
        let w = |x: u64| codes::bit_len(x) as u8;
        let exponents = arena.words(r.exponents);
        plan.w_rd = plan.w_rd.max(w(r.rd));
        plan.w_ec = plan.w_ec.max(w(exponents.len() as u64));
        // Exponents are non-decreasing, so the last bounds them all.
        plan.w_e = plan.w_e.max(w(exponents.last().copied().unwrap_or(0)));
        plan.aux_w.observe(r.aux);
        plan.wire_bits.push(r.wire_bits);
    }

    fn meta_words(&self, plan: &ApproxPlan) -> Vec<u64> {
        // The approximate query never consults the domination order (side
        // selection reads the divergence bit instead), so the field is packed
        // at width 0.
        let mut aux_w = plan.aux_w;
        aux_w.dom = 0;
        ApproximateMeta::with_widths(plan.w_rd, plan.w_ec, plan.w_e, aux_w, self.epsilon).words()
    }

    fn packed_label_bits(&self, meta: &ApproximateMeta, r: &ApproxRow<'s>, _: &RowArena) -> usize {
        meta.hdr_total + r.exponents.len() * meta.e_w + meta.aux_w.packed_bits(r.aux)
    }

    fn pack_label(
        &self,
        meta: &ApproximateMeta,
        r: &ApproxRow<'s>,
        arena: &RowArena,
        w: &mut BitWriter,
    ) {
        w.write_bits_lsb(r.rd, usize::from(meta.w_rd));
        w.write_bits_lsb(r.exponents.len() as u64, usize::from(meta.w_ec));
        w.write_bits_lsb(r.aux.codewords_len() as u64, usize::from(meta.aux_w.end));
        for &e in arena.words(r.exponents) {
            w.write_bits_lsb(e, usize::from(meta.w_e));
        }
        meta.aux_w.pack(r.aux, w);
    }
}

impl StoredScheme for ApproximateScheme {
    const TAG: u32 = 5;
    const STORE_NAME: &'static str = "approximate";
    type Meta = ApproximateMeta;
    type Ref<'a> = ApproximateLabelRef<'a>;

    fn as_store(&self) -> &SchemeStore<ApproximateScheme> {
        &self.store
    }

    fn parse_meta(param: u64, words: &[u64]) -> Result<ApproximateMeta, StoreError> {
        ApproximateMeta::parse(param, words)
    }

    fn label_ref<'a>(
        slice: BitSlice<'a>,
        start: usize,
        end: usize,
        meta: &'a ApproximateMeta,
    ) -> ApproximateLabelRef<'a> {
        ApproximateLabelRef::new(slice, start, end, meta)
    }

    /// The Theorem 1.4 protocol over packed views, estimate for estimate
    /// (same ε, same rounding).
    fn distance_refs(a: ApproximateLabelRef<'_>, b: ApproximateLabelRef<'_>) -> u64 {
        kernel::distance_refs(a, b).unwrap_or(CORRUPT_LABEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::gen;
    use treelab_tree::lca::DistanceOracle;

    fn check_approx(tree: &Tree, eps: f64) {
        let scheme = ApproximateScheme::build(tree, eps);
        let oracle = DistanceOracle::new(tree);
        let n = tree.len();
        let pairs: Vec<(usize, usize)> = if n <= 25 {
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
        } else {
            (0..800)
                .map(|i| ((i * 37) % n, (i * 101 + 3) % n))
                .collect()
        };
        for (xu, xv) in pairs {
            let (u, v) = (tree.node(xu), tree.node(xv));
            let d = oracle.distance(u, v);
            let est = scheme.distance(u, v);
            assert!(
                est >= d,
                "estimate {est} below true {d} for ({u},{v}), eps={eps}"
            );
            let upper = ((1.0 + eps) * d as f64).floor() as u64 + 2;
            assert!(
                est <= upper,
                "estimate {est} above (1+{eps})·{d}+2 = {upper} for ({u},{v})"
            );
        }
    }

    #[test]
    fn approximation_guarantee_on_shapes() {
        for eps in [1.0, 0.5, 0.25, 0.125] {
            check_approx(&Tree::singleton(), eps);
            check_approx(&gen::path(40), eps);
            check_approx(&gen::star(40), eps);
            check_approx(&gen::caterpillar(8, 3), eps);
            check_approx(&gen::broom(9, 7), eps);
            check_approx(&gen::comb(300), eps);
            check_approx(&gen::complete_kary(2, 6), eps);
        }
    }

    #[test]
    fn approximation_guarantee_on_random_and_weighted_trees() {
        for seed in 0..4u64 {
            check_approx(&gen::random_tree(150, seed), 0.5);
            check_approx(&gen::random_recursive(150, seed), 0.25);
            // Weighted trees (the rounding handles arbitrary weights).
            check_approx(&gen::hm_tree_random(4, 9, seed), 0.5);
        }
    }

    #[test]
    fn exact_when_epsilon_is_tiny_relative_to_diameter() {
        // With a very small ε the rounding never rounds up across a power
        // boundary for small distances, so the estimates for short paths are
        // exact.
        let tree = gen::path(20);
        let scheme = ApproximateScheme::build(&tree, 0.01);
        let oracle = DistanceOracle::new(&tree);
        for u in tree.nodes() {
            for v in tree.nodes() {
                let d = oracle.distance(u, v);
                let est = scheme.distance(u, v);
                assert!(est >= d && est <= d + 2);
            }
        }
    }

    #[test]
    fn label_size_scales_with_log_inverse_epsilon() {
        // O(log(1/ε)·log n): halving ε repeatedly should grow labels roughly
        // additively (by ~log n bits per halving), not multiplicatively.
        let tree = gen::random_tree(2048, 11);
        let sizes: Vec<usize> = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
            .iter()
            .map(|&e| ApproximateScheme::build(&tree, e).max_label_bits())
            .collect();
        for w in sizes.windows(2) {
            assert!(w[1] >= w[0], "smaller epsilon cannot shrink labels");
        }
        // The growth from ε=1 to ε=1/32 (5 halvings) stays far below the
        // Θ(1/ε) blow-up of the unary encoding (which would be ~32x).
        assert!(
            sizes[5] < 4 * sizes[0],
            "sizes {sizes:?} grow too fast with 1/ε"
        );
    }

    /// The self-delimiting wire encoding of one label: `⌈1/ε⌉`, the root
    /// distance, the auxiliary label and the rounding exponents.
    fn wire_encode(
        w: &mut BitWriter,
        src: &ApproxSource<'_>,
        row: &ApproxRow<'_>,
        arena: &RowArena,
    ) {
        codes::write_gamma_nz(w, src.inv_epsilon());
        codes::write_delta_nz(w, row.rd);
        row.aux.encode(w);
        monotone::write(w, arena.words(row.exponents));
    }

    #[test]
    fn label_bits_is_the_wire_encoding_length() {
        let weighted = gen::hm_tree_random(4, 9, 2);
        for tree in [Tree::singleton(), gen::random_tree(120, 3), weighted] {
            let sub = Substrate::new(&tree);
            for eps in [1.0, 0.25, 0.03] {
                let scheme = ApproximateScheme::build_with_substrate(&sub, eps);
                let src = ApproxSource::new(&sub, eps);
                let mut arena = RowArena::default();
                for u in tree.nodes() {
                    let row = src.make_row(u.index(), &mut arena);
                    let mut w = BitWriter::new();
                    wire_encode(&mut w, &src, &row, &arena);
                    assert_eq!(w.len(), scheme.label_bits(u), "eps={eps}: node {u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1]")]
    fn rejects_bad_epsilon() {
        ApproximateScheme::build(&gen::path(5), 1.5);
    }

    #[test]
    #[should_panic(expected = "epsilon too small")]
    fn rejects_an_epsilon_the_rounding_cannot_resolve() {
        ApproximateScheme::build(&gen::path(5), 1e-17);
    }

    #[test]
    fn rounding_helpers_are_consistent() {
        use crate::kernel::approximate::{exponent_value, round_up_exponent};
        for eps in [0.5f64, 0.25, 0.1] {
            for d in 1..500u64 {
                let e = round_up_exponent(d, eps);
                let v = exponent_value(e, eps);
                assert!(v >= d);
                if e > 0 {
                    assert!(exponent_value(e - 1, eps) < d);
                    assert!(
                        (v as f64) <= (1.0 + eps) * d as f64 + 1.0,
                        "v={v} d={d} eps={eps}"
                    );
                }
            }
        }
    }
}
