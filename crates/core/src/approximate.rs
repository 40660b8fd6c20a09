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
    self as kernel, round_up_exponent, ApproximateLabelRef, ApproximateMeta,
};
use crate::store::{SchemeStore, StoreError, StoredScheme};
use crate::substrate::{PackSource, Substrate};
use treelab_bits::{codes, monotone::MonotoneSeq, BitSlice, BitWriter};
use treelab_tree::heavy::HeavyPaths;
use treelab_tree::{NodeId, Tree};

/// Writes the self-delimiting wire encoding of one label (the format
/// [`ApproximateLabel::decode`] reads).  ε is a scheme-wide parameter,
/// carried as the integer `⌈1/ε⌉` so the wire label is self-contained.
#[cfg(feature = "legacy-labels")]
pub(crate) fn wire_encode(
    w: &mut BitWriter,
    epsilon: f64,
    root_distance: u64,
    aux: &HpathLabel,
    exponents: &[u64],
) {
    codes::write_gamma_nz(w, (1.0 / epsilon).ceil() as u64);
    codes::write_delta_nz(w, root_distance);
    aux.encode(w);
    MonotoneSeq::new(exponents).encode(w);
}

/// One node's build-time row.
struct ApproxRow<'a> {
    rd: u64,
    aux: &'a HpathLabel,
    exponents: Vec<u64>,
    wire_bits: u32,
}

/// The `(1+ε)`-approximate distance labeling scheme of §5.2, a thin owner of
/// its packed [`SchemeStore`] frame.
#[derive(Debug, Clone)]
pub struct ApproximateScheme {
    epsilon: f64,
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
        let src = ApproxSource::new(sub, epsilon, true);
        let (store, plan) = SchemeStore::from_source_with(&src, &sub.pack_config());
        ApproximateScheme {
            epsilon,
            store,
            wire_bits: plan.wire_bits,
        }
    }

    /// Builds every row in memory (the legacy struct-label pipeline; the
    /// packed build streams rows through [`ApproxSource`] instead).
    #[cfg(feature = "legacy-labels")]
    fn build_rows<'s>(sub: &'s Substrate<'_>, epsilon: f64, with_wire: bool) -> Vec<ApproxRow<'s>> {
        let src = ApproxSource::new(sub, epsilon, with_wire);
        crate::substrate::build_vec(sub.parallelism(), sub.tree().len(), |i| src.make_row(i))
    }

    /// The ε this scheme was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
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
    half: f64,
    with_wire: bool,
}

impl<'s> ApproxSource<'s> {
    fn new(sub: &'s Substrate<'_>, epsilon: f64, with_wire: bool) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must lie in (0, 1], got {epsilon}"
        );
        ApproxSource {
            tree: sub.tree(),
            hp: sub.heavy_paths(),
            aux: sub.aux_labels(),
            rd: sub.root_distances(),
            epsilon,
            // Internal rounding uses ε/2 so the final estimate is
            // (1+ε)-accurate.
            half: epsilon / 2.0,
            with_wire,
        }
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

    fn make_row(&self, i: usize) -> ApproxRow<'s> {
        let v = self.tree.node(i);
        let sig = self.hp.significant_ancestors(v);
        // Skip sig[0] = v itself; store exponents for v₁, …, v_k.
        let exponents: Vec<u64> = sig[1..]
            .iter()
            .map(|&a| {
                let d = self.rd[v.index()] - self.rd[a.index()];
                if d == 0 {
                    0
                } else {
                    // Reserve exponent 0 for "distance 0" (possible with
                    // 0-weight edges) by shifting real exponents up by 1.
                    round_up_exponent(d, self.half) + 1
                }
            })
            .collect();
        // The sequence must be non-decreasing for Lemma 2.2; distances
        // to higher significant ancestors only grow, and the 0-shift
        // preserves order.
        let mut row = ApproxRow {
            rd: self.rd[v.index()],
            aux: self.aux.label(v),
            exponents,
            wire_bits: 0,
        };
        if self.with_wire {
            // Closed-form wire size (no encoding pass; the feature-gated
            // legacy tests pin it to the real encoder bit for bit).
            row.wire_bits = (codes::gamma_nz_len((1.0 / self.epsilon).ceil() as u64)
                + codes::delta_nz_len(row.rd)
                + row.aux.bit_len()
                + MonotoneSeq::encoded_len(&row.exponents)) as u32;
        }
        row
    }

    fn plan_row(&self, plan: &mut ApproxPlan, _u: usize, r: &ApproxRow<'s>) {
        let w = |x: u64| codes::bit_len(x) as u8;
        plan.w_rd = plan.w_rd.max(w(r.rd));
        plan.w_ec = plan.w_ec.max(w(r.exponents.len() as u64));
        // Exponents are non-decreasing, so the last bounds them all.
        plan.w_e = plan.w_e.max(w(r.exponents.last().copied().unwrap_or(0)));
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

    fn packed_label_bits(&self, meta: &ApproximateMeta, r: &ApproxRow<'s>) -> usize {
        meta.hdr_total + r.exponents.len() * meta.e_w + meta.aux_w.packed_bits(r.aux)
    }

    fn pack_label(&self, meta: &ApproximateMeta, r: &ApproxRow<'s>, w: &mut BitWriter) {
        w.write_bits_lsb(r.rd, usize::from(meta.w_rd));
        w.write_bits_lsb(r.exponents.len() as u64, usize::from(meta.w_ec));
        w.write_bits_lsb(r.aux.codewords_len() as u64, usize::from(meta.aux_w.end));
        for &e in &r.exponents {
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
        meta: &'a ApproximateMeta,
    ) -> ApproximateLabelRef<'a> {
        ApproximateLabelRef::new(slice, start, meta)
    }

    /// The Theorem 1.4 protocol over packed views, estimate for estimate
    /// (same ε, same rounding).
    fn distance_refs(a: ApproximateLabelRef<'_>, b: ApproximateLabelRef<'_>) -> u64 {
        kernel::distance_refs(a, b)
    }

    fn check_label(slice: BitSlice<'_>, start: usize, end: usize, meta: &ApproximateMeta) -> bool {
        kernel::check_label(slice, start, end, meta)
    }
}

// ---------------------------------------------------------------------------
// Legacy wire-format labels (feature-gated)
// ---------------------------------------------------------------------------

/// Label of the `(1+ε)`-approximate scheme in its historical struct form —
/// kept for the self-delimiting wire format and its decode adversaries.
#[cfg(feature = "legacy-labels")]
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateLabel {
    /// The ε the scheme was built with.
    epsilon: f64,
    /// Weighted distance from the root.
    root_distance: u64,
    /// Heavy-path auxiliary label.
    aux: HpathLabel,
    /// Rounding exponents of `d(v, vᵢ)` for the significant ancestors
    /// `v₁, …, v_k` (deepest first).
    exponents: Vec<u64>,
}

#[cfg(feature = "legacy-labels")]
impl ApproximateLabel {
    /// Weighted distance from the root.
    pub fn root_distance(&self) -> u64 {
        self.root_distance
    }

    /// The rounding exponents.
    pub fn exponents(&self) -> &[u64] {
        &self.exponents
    }

    /// Serializes the label.
    pub fn encode(&self, w: &mut BitWriter) {
        wire_encode(
            w,
            self.epsilon,
            self.root_distance,
            &self.aux,
            &self.exponents,
        );
    }

    /// Deserializes a label written by [`ApproximateLabel::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`treelab_bits::DecodeError`] on truncated or malformed
    /// input.
    pub fn decode(r: &mut treelab_bits::BitReader<'_>) -> Result<Self, treelab_bits::DecodeError> {
        use treelab_bits::DecodeError;
        let inv_eps = codes::read_gamma_nz(r)?;
        if inv_eps == 0 {
            return Err(DecodeError::Malformed {
                what: "epsilon reciprocal is zero",
            });
        }
        let root_distance = codes::read_delta_nz(r)?;
        let aux = HpathLabel::decode(r)?;
        let exponents = MonotoneSeq::decode(r)?.to_vec();
        Ok(ApproximateLabel {
            epsilon: 1.0 / inv_eps as f64,
            root_distance,
            aux,
            exponents,
        })
    }

    /// Size of the serialized label in bits.
    pub fn bit_len(&self) -> usize {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.len()
    }
}

#[cfg(feature = "legacy-labels")]
impl ApproximateScheme {
    /// Builds the historical struct labels from a shared substrate.
    ///
    /// Note: the wire format rounds ε to `1/⌈1/ε⌉`, so labels decoded from
    /// the wire carry the rounded ε (exactly as the historical decoder did).
    pub fn legacy_labels(sub: &Substrate<'_>, epsilon: f64) -> Vec<ApproximateLabel> {
        Self::build_rows(sub, epsilon, false)
            .into_iter()
            .map(|row| ApproximateLabel {
                epsilon,
                root_distance: row.rd,
                aux: row.aux.clone(),
                exponents: row.exponents,
            })
            .collect()
    }

    /// The historical struct-then-serialize pipeline (bit-for-bit identical
    /// to the direct pack path; asserted by the equivalence tests).
    pub fn store_from_legacy(
        labels: &[ApproximateLabel],
        epsilon: f64,
    ) -> SchemeStore<ApproximateScheme> {
        struct LegacySource<'a> {
            labels: &'a [ApproximateLabel],
            epsilon: f64,
        }
        impl PackSource<ApproximateScheme> for LegacySource<'_> {
            type Row = usize;
            type Plan = ();
            fn node_count(&self) -> usize {
                self.labels.len()
            }
            fn store_param(&self) -> u64 {
                self.epsilon.to_bits()
            }
            fn make_row(&self, u: usize) -> usize {
                u
            }
            fn plan_row(&self, (): &mut (), _u: usize, _row: &usize) {}
            fn meta_words(&self, (): &()) -> Vec<u64> {
                let (mut w_rd, mut w_ec, mut w_e) = (0u8, 0u8, 0u8);
                let mut aux_w = AuxWidths::default();
                let w = |x: u64| codes::bit_len(x) as u8;
                for l in self.labels {
                    w_rd = w_rd.max(w(l.root_distance));
                    w_ec = w_ec.max(w(l.exponents.len() as u64));
                    w_e = w_e.max(w(l.exponents.last().copied().unwrap_or(0)));
                    aux_w.observe(&l.aux);
                }
                aux_w.dom = 0;
                ApproximateMeta::with_widths(w_rd, w_ec, w_e, aux_w, self.epsilon).words()
            }
            fn packed_label_bits(&self, meta: &ApproximateMeta, &u: &usize) -> usize {
                let l = &self.labels[u];
                meta.hdr_total + l.exponents.len() * meta.e_w + meta.aux_w.packed_bits(&l.aux)
            }
            fn pack_label(&self, meta: &ApproximateMeta, &u: &usize, w: &mut BitWriter) {
                let l = &self.labels[u];
                w.write_bits_lsb(l.root_distance, usize::from(meta.w_rd));
                w.write_bits_lsb(l.exponents.len() as u64, usize::from(meta.w_ec));
                w.write_bits_lsb(l.aux.codewords_len() as u64, usize::from(meta.aux_w.end));
                for &e in &l.exponents {
                    w.write_bits_lsb(e, usize::from(meta.w_e));
                }
                meta.aux_w.pack(&l.aux, w);
            }
        }
        SchemeStore::from_source(&LegacySource { labels, epsilon })
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

    #[cfg(feature = "legacy-labels")]
    #[test]
    fn legacy_labels_roundtrip() {
        use treelab_bits::BitReader;
        let tree = gen::random_tree(120, 3);
        let sub = Substrate::new(&tree);
        let scheme = ApproximateScheme::build_with_substrate(&sub, 0.25);
        let labels = ApproximateScheme::legacy_labels(&sub, 0.25);
        for (i, label) in labels.iter().enumerate() {
            let mut w = BitWriter::new();
            label.encode(&mut w);
            let bits = w.into_bitvec();
            assert_eq!(bits.len(), label.bit_len());
            assert_eq!(bits.len(), scheme.label_bits(tree.node(i)));
            let back = ApproximateLabel::decode(&mut BitReader::new(&bits)).unwrap();
            assert_eq!(back.root_distance, label.root_distance);
            assert_eq!(back.exponents, label.exponents);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in (0, 1]")]
    fn rejects_bad_epsilon() {
        ApproximateScheme::build(&gen::path(5), 1.5);
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
