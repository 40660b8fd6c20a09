//! Fixed-width distance-array labeling — the `Θ(log²n)` baseline.
//!
//! This is the scheme the paper's introduction attributes to Peleg: every node
//! stores, for each of the `O(log n)` light edges on its root path, the
//! distance from the head of the corresponding heavy path to the branch point,
//! using a *fixed* `⌈log₂ n⌉`-bit field per entry.  Together with the
//! heavy-path auxiliary label this answers exact distance queries, but the
//! label costs essentially `log²n` bits — the baseline both the
//! [`crate::distance_array`] (½·log²n) and [`crate::optimal`] (¼·log²n)
//! schemes are measured against in the experiments.
//!
//! The scheme operates on the §2 binarized tree and labels the proxy leaf of
//! every original node; the reduction is hidden behind [`NaiveScheme::build`].
//!
//! The native representation is the packed store frame: `build` packs every
//! label straight into a `TLSTOR01` frame and queries run through the shared
//! prefix-sum kernel ([`crate::kernel::psum`]).  [`NaiveScheme::label_bits`]
//! still reports the size of the historical self-delimiting *wire* encoding —
//! the quantity the paper's `Θ(log²n)` analysis is about — whose
//! encoder/decoder pair survives behind the `legacy-labels` feature.

use crate::hpath::{HpathLabel, HpathLabeling};
use crate::kernel::psum::{self, PsumMeasure, PsumMeta, PsumRef};
use crate::store::{SchemeStore, StoreError, StoredScheme};
use crate::substrate::{PackSource, Substrate};
use crate::DistanceScheme;
use treelab_bits::{codes, BitSlice, BitWriter};
use treelab_tree::binarize::Binarized;
use treelab_tree::heavy::{HeavyPaths, LightEdge};
use treelab_tree::{NodeId, Tree};

/// Writes the fixed-width wire encoding of one label (the format
/// [`NaiveLabel::decode`] reads): root distance, the entry field width, the
/// auxiliary label, then `count` fixed-width `(dᵢ, tᵢ)` entries.
///
/// Shared by the legacy encoder and the build-time wire-size accounting, so
/// the two can never drift apart.
#[cfg(feature = "legacy-labels")]
pub(crate) fn wire_encode(
    w: &mut BitWriter,
    root_distance: u64,
    width: u8,
    aux: &HpathLabel,
    entries: impl Iterator<Item = (u64, bool)>,
    count: usize,
) {
    codes::write_delta_nz(w, root_distance);
    w.write_bits(u64::from(width), 8);
    aux.encode(w);
    codes::write_gamma_nz(w, count as u64);
    for (d, t) in entries {
        w.write_bits(d, usize::from(width));
        w.write_bit(t);
    }
}

/// One node's build-time row: everything the packer needs, borrowing the
/// substrate's auxiliary label instead of cloning it.
pub(crate) struct PsumRow<'a> {
    pub(crate) rd: u64,
    pub(crate) edges: Vec<LightEdge>,
    pub(crate) aux: &'a HpathLabel,
    /// Size in bits of the node's self-delimiting wire encoding.
    pub(crate) wire_bits: u32,
}

impl PsumRow<'_> {
    /// The `(dᵢ, tᵢ)` sequence of the prefix-sum protocol.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.edges
            .iter()
            .map(|e| (e.branch_offset + e.edge_weight, e.edge_weight))
    }

    /// `Σᵢ dᵢ` (bounds the packed prefix-sum field width).
    pub(crate) fn entry_total(&self) -> u64 {
        self.edges
            .iter()
            .map(|e| e.branch_offset + e.edge_weight)
            .sum()
    }
}

/// Builds the per-node rows of the two prefix-sum schemes over the shared
/// substrate, computing each node's wire size with `wire_len` (the legacy
/// struct-label pipeline; the packed build streams rows through
/// [`PsumSource`] instead).
#[cfg(feature = "legacy-labels")]
pub(crate) fn build_psum_rows<'s>(
    sub: &'s Substrate<'_>,
    wire_len: impl Fn(&PsumRow<'s>) -> usize + Sync,
) -> Vec<PsumRow<'s>> {
    let src = PsumSource::new(sub, wire_len, false);
    crate::substrate::build_vec(sub.parallelism(), sub.tree().len(), |i| {
        PackSource::<NaiveScheme>::make_row(&src, i)
    })
}

/// The pack source shared by the two prefix-sum schemes (they differ only in
/// their wire encodings; the packed layout is identical).  Rows are built on
/// demand from the shared substrate so the chunk-streaming frame assembler
/// never holds more than one chunk of them.
pub(crate) struct PsumSource<'s, F> {
    tree: &'s Tree,
    bin: &'s Binarized,
    hp: &'s HeavyPaths,
    aux: &'s HpathLabeling,
    wire_len: F,
    /// Also accumulate per-node δ-payload bits (the distance-array scheme's
    /// `Σᵢ ⌈log d(ℓᵢ)⌉` reporting quantity) into the plan.
    collect_payload: bool,
}

impl<'s, F> PsumSource<'s, F> {
    pub(crate) fn new(sub: &'s Substrate<'_>, wire_len: F, collect_payload: bool) -> Self {
        let bs = sub.binarized_expect();
        PsumSource {
            tree: sub.tree(),
            bin: bs.binarized(),
            hp: bs.heavy_paths(),
            aux: bs.aux_labels(),
            wire_len,
            collect_payload,
        }
    }
}

/// Plan of the prefix-sum pack: the width scan plus the per-node wire (and
/// optionally payload) sizes the owning schemes report, folded in node-id
/// order so streaming builds don't need the rows afterwards.
#[derive(Default)]
pub(crate) struct PsumPlan {
    measure: PsumMeasure,
    pub(crate) wire_bits: Vec<u32>,
    pub(crate) payload_bits: Vec<u32>,
}

impl<'s, S, F> PackSource<S> for PsumSource<'s, F>
where
    S: StoredScheme<Meta = PsumMeta>,
    F: Fn(&PsumRow<'s>) -> usize + Sync,
{
    type Row = PsumRow<'s>;
    type Plan = PsumPlan;

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn make_row(&self, u: usize) -> PsumRow<'s> {
        let leaf = self.bin.proxy(self.tree.node(u));
        let mut row = PsumRow {
            rd: self.hp.root_distance(leaf),
            edges: self.hp.light_edges_to(leaf),
            aux: self.aux.label(leaf),
            wire_bits: 0,
        };
        row.wire_bits = (self.wire_len)(&row) as u32;
        row
    }

    fn plan_row(&self, plan: &mut PsumPlan, _u: usize, row: &PsumRow<'s>) {
        plan.measure.observe(row.rd, row.entry_total(), row.aux);
        plan.wire_bits.push(row.wire_bits);
        if self.collect_payload {
            plan.payload_bits
                .push(row.entries().map(|(d, _)| codes::bit_len(d) as u32).sum());
        }
    }

    fn meta_words(&self, plan: &PsumPlan) -> Vec<u64> {
        plan.measure.finish().words()
    }

    fn packed_label_bits(&self, meta: &PsumMeta, row: &PsumRow<'s>) -> usize {
        meta.label_bits(row.edges.len(), row.aux)
    }

    fn pack_label(&self, meta: &PsumMeta, row: &PsumRow<'s>, w: &mut BitWriter) {
        meta.pack(row.rd, row.aux, row.entries(), w);
    }
}

/// The fixed-width `Θ(log²n)` exact distance labeling scheme, a thin owner
/// of its packed [`SchemeStore`] frame.
#[derive(Debug, Clone)]
pub struct NaiveScheme {
    store: SchemeStore<NaiveScheme>,
    /// Per-node wire-encoding sizes (the paper's label-size quantity).
    wire_bits: Vec<u32>,
}

/// Entry field width of the wire encoding: `⌈log₂ n⌉` of the binarized tree.
fn wire_width(sub: &Substrate<'_>) -> u8 {
    codes::bit_len(sub.binarized_expect().binarized().tree().len() as u64) as u8
}

impl DistanceScheme for NaiveScheme {
    fn build(tree: &Tree) -> Self {
        Self::build_with_substrate(&Substrate::new(tree))
    }

    fn build_with_substrate(sub: &Substrate<'_>) -> Self {
        let width = wire_width(sub);
        // Closed-form wire size (no encoding pass; the feature-gated legacy
        // tests pin it to the real encoder bit for bit).
        let src = PsumSource::new(
            sub,
            move |row: &PsumRow<'_>| {
                codes::delta_nz_len(row.rd)
                    + 8
                    + row.aux.bit_len()
                    + codes::gamma_nz_len(row.edges.len() as u64)
                    + row.edges.len() * (usize::from(width) + 1)
            },
            false,
        );
        let (store, plan) = SchemeStore::from_source_with(&src, &sub.pack_config());
        NaiveScheme {
            store,
            wire_bits: plan.wire_bits,
        }
    }

    fn label_bits(&self, u: NodeId) -> usize {
        self.wire_bits[u.index()] as usize
    }

    fn max_label_bits(&self) -> usize {
        self.wire_bits.iter().copied().max().unwrap_or(0) as usize
    }

    fn name() -> &'static str {
        "naive-fixed-width"
    }
}

/// Borrowed view of one packed label of this scheme inside a
/// [`SchemeStore`] buffer.
#[derive(Debug, Clone, Copy)]
pub struct NaiveLabelRef<'a>(pub(crate) PsumRef<'a>);

impl StoredScheme for NaiveScheme {
    const TAG: u32 = 1;
    const STORE_NAME: &'static str = "naive-fixed-width";
    type Meta = PsumMeta;
    type Ref<'a> = NaiveLabelRef<'a>;

    fn as_store(&self) -> &SchemeStore<NaiveScheme> {
        &self.store
    }

    fn parse_meta(_param: u64, words: &[u64]) -> Result<PsumMeta, StoreError> {
        PsumMeta::parse(words)
    }

    fn label_ref<'a>(slice: BitSlice<'a>, start: usize, meta: &'a PsumMeta) -> NaiveLabelRef<'a> {
        NaiveLabelRef(PsumRef::new(slice, start, meta))
    }

    fn check_label(slice: BitSlice<'_>, start: usize, end: usize, meta: &PsumMeta) -> bool {
        psum::check_label(slice, start, end, meta)
    }

    fn distance_refs(a: NaiveLabelRef<'_>, b: NaiveLabelRef<'_>) -> u64 {
        psum::distance_refs(&a.0, &b.0)
    }

    fn distance_refs_scalar(a: NaiveLabelRef<'_>, b: NaiveLabelRef<'_>) -> u64 {
        psum::distance_refs_scalar(&a.0, &b.0)
    }
}

// ---------------------------------------------------------------------------
// Legacy wire-format labels (feature-gated)
// ---------------------------------------------------------------------------

/// Label of the fixed-width baseline scheme in its historical struct form —
/// kept for the self-delimiting wire format and its decode adversaries.
#[cfg(feature = "legacy-labels")]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveLabel {
    /// Distance from the root (of the binarized tree, which equals the
    /// distance in the original tree).
    root_distance: u64,
    /// Heavy-path auxiliary label (of the proxy leaf in the binarized tree).
    aux: HpathLabel,
    /// Fixed field width used for the entries (⌈log₂ n⌉ of the binarized tree).
    width: u8,
    /// Per light edge `i` (top-down): `d_i = branch_offset + edge_weight`.
    entries: Vec<u64>,
    /// Per light edge `i`: the weight (0 or 1) of the light edge itself.
    weights: Vec<u8>,
}

#[cfg(feature = "legacy-labels")]
impl NaiveLabel {
    /// Root distance stored in the label.
    pub fn root_distance(&self) -> u64 {
        self.root_distance
    }

    /// The embedded heavy-path auxiliary label.
    pub fn aux(&self) -> &HpathLabel {
        &self.aux
    }

    /// Serializes the label.
    pub fn encode(&self, w: &mut BitWriter) {
        wire_encode(
            w,
            self.root_distance,
            self.width,
            &self.aux,
            self.entries
                .iter()
                .zip(&self.weights)
                .map(|(&d, &t)| (d, t == 1)),
            self.entries.len(),
        );
    }

    /// Deserializes a label written by [`NaiveLabel::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`treelab_bits::DecodeError`] on truncated or malformed
    /// input.
    pub fn decode(r: &mut treelab_bits::BitReader<'_>) -> Result<Self, treelab_bits::DecodeError> {
        use treelab_bits::DecodeError;
        let root_distance = codes::read_delta_nz(r)?;
        let width = r.read_bits(8)? as u8;
        if width > 64 {
            return Err(DecodeError::Malformed {
                what: "entry width exceeds 64 bits",
            });
        }
        let aux = HpathLabel::decode(r)?;
        let count = codes::read_gamma_nz(r)? as usize;
        // Each entry consumes width + 1 bits; reject counts the remaining
        // input cannot hold before allocating (corrupt counts used to abort
        // with a capacity overflow instead of returning an error).
        if count > r.remaining() {
            return Err(DecodeError::Malformed {
                what: "entry count exceeds remaining input",
            });
        }
        let mut entries = Vec::with_capacity(count);
        let mut weights = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(r.read_bits(usize::from(width))?);
            weights.push(u8::from(r.read_bit()?));
        }
        Ok(NaiveLabel {
            root_distance,
            aux,
            width,
            entries,
            weights,
        })
    }

    /// Size of the serialized label in bits.
    pub fn bit_len(&self) -> usize {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.len()
    }

    /// The struct-side distance protocol of the historical implementation
    /// (the packed-native kernel in [`crate::kernel::psum`] replaces it;
    /// kept so the feature-gated equivalence tests can cross-check).
    pub fn legacy_distance(a: &NaiveLabel, b: &NaiveLabel) -> u64 {
        legacy_psum_distance(
            a.root_distance,
            &a.aux,
            b.root_distance,
            &b.aux,
            |side, j| {
                let l = if side == 0 { a } else { b };
                (l.entries[j], u64::from(l.weights[j]))
            },
        )
    }
}

/// Shared query logic of the legacy struct-backed prefix-sum labels
/// (Lemma 3.1's domination argument): if `u` dominates `v` and
/// `j = lightdepth(NCA)`, the NCA is the branch point of `u`'s `(j+1)`-st
/// light edge, so its root distance is `Σ_{i ≤ j+1} dᵢ(u) − t_{j+1}(u)`.
#[cfg(feature = "legacy-labels")]
pub(crate) fn legacy_psum_distance(
    rd_a: u64,
    aux_a: &HpathLabel,
    rd_b: u64,
    aux_b: &HpathLabel,
    entry: impl Fn(usize, usize) -> (u64, u64),
) -> u64 {
    if HpathLabel::same_node(aux_a, aux_b) {
        return 0;
    }
    if HpathLabel::is_ancestor(aux_a, aux_b) || HpathLabel::is_ancestor(aux_b, aux_a) {
        return rd_a.abs_diff(rd_b);
    }
    let j = HpathLabel::common_light_depth(aux_a, aux_b);
    let side = usize::from(!HpathLabel::dominates(aux_a, aux_b));
    let mut sum = 0u64;
    for i in 0..=j {
        sum += entry(side, i).0;
    }
    let t = entry(side, j).1;
    let rd_nca = sum - t;
    rd_a + rd_b - 2 * rd_nca
}

#[cfg(feature = "legacy-labels")]
impl NaiveScheme {
    /// Builds the historical struct labels (the wire-format view of this
    /// scheme) from a shared substrate.
    pub fn legacy_labels(sub: &Substrate<'_>) -> Vec<NaiveLabel> {
        let width = wire_width(sub);
        build_psum_rows(sub, |_| 0)
            .into_iter()
            .map(|row| NaiveLabel {
                root_distance: row.rd,
                aux: row.aux.clone(),
                width,
                entries: row.entries().map(|(d, _)| d).collect(),
                weights: row.entries().map(|(_, t)| t as u8).collect(),
            })
            .collect()
    }

    /// The historical struct-then-serialize pipeline: packs legacy labels
    /// into a store frame.  Bit-for-bit identical to the direct pack path of
    /// [`DistanceScheme::build`] (asserted by the equivalence tests).
    pub fn store_from_legacy(labels: &[NaiveLabel]) -> SchemeStore<NaiveScheme> {
        struct LegacySource<'a>(&'a [NaiveLabel]);
        impl PackSource<NaiveScheme> for LegacySource<'_> {
            // The labels already exist in memory; rows are just indices.
            type Row = usize;
            type Plan = ();
            fn node_count(&self) -> usize {
                self.0.len()
            }
            fn make_row(&self, u: usize) -> usize {
                u
            }
            fn plan_row(&self, _plan: &mut (), _u: usize, _row: &usize) {}
            fn meta_words(&self, _plan: &()) -> Vec<u64> {
                PsumMeta::measure(
                    self.0
                        .iter()
                        .map(|l| (l.root_distance, l.entries.iter().sum(), &l.aux)),
                )
                .words()
            }
            fn packed_label_bits(&self, meta: &PsumMeta, &u: &usize) -> usize {
                let l = &self.0[u];
                meta.label_bits(l.entries.len(), &l.aux)
            }
            fn pack_label(&self, meta: &PsumMeta, &u: &usize, w: &mut BitWriter) {
                let l = &self.0[u];
                meta.pack(
                    l.root_distance,
                    &l.aux,
                    l.entries
                        .iter()
                        .zip(&l.weights)
                        .map(|(&d, &t)| (d, u64::from(t))),
                    w,
                );
            }
        }
        SchemeStore::from_source(&LegacySource(labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_exact_scheme;
    use treelab_tree::gen;

    #[test]
    fn exact_on_fixed_shapes() {
        for tree in [
            Tree::singleton(),
            gen::path(2),
            gen::path(33),
            gen::star(33),
            gen::caterpillar(8, 3),
            gen::broom(7, 9),
            gen::spider(5, 6),
            gen::complete_kary(2, 5),
            gen::complete_kary(3, 3),
            gen::balanced_binary(64),
        ] {
            check_exact_scheme::<NaiveScheme>(&tree);
        }
    }

    #[test]
    fn exact_on_random_trees() {
        for seed in 0..6u64 {
            check_exact_scheme::<NaiveScheme>(&gen::random_tree(180, seed));
            check_exact_scheme::<NaiveScheme>(&gen::random_recursive(140, seed));
            check_exact_scheme::<NaiveScheme>(&gen::random_binary(160, seed));
        }
    }

    #[test]
    fn label_size_is_order_log_squared() {
        let tree = gen::random_tree(1 << 12, 3);
        let scheme = NaiveScheme::build(&tree);
        let log_n = ((tree.len() * 4) as f64).log2();
        // Θ(log² n): between (a fraction of) log²n on adversarial shapes and a
        // constant multiple of it on any shape.
        assert!(
            (scheme.max_label_bits() as f64) <= 4.0 * log_n * log_n + 40.0 * log_n,
            "max label {} bits",
            scheme.max_label_bits()
        );
    }

    #[test]
    fn build_is_the_packed_frame() {
        // The scheme's native representation is its frame: serialize is a
        // handoff of the very words the build produced.
        let tree = gen::random_tree(120, 8);
        let scheme = NaiveScheme::build(&tree);
        assert_eq!(
            SchemeStore::serialize(&scheme),
            scheme.as_store().to_bytes()
        );
        assert_eq!(scheme.as_store().node_count(), tree.len());
        // Wire sizes are recorded per node and bound the packed region only
        // loosely (different encodings), but both must be present.
        assert!(scheme.label_bits(tree.node(0)) > 0);
        assert!(scheme.as_store().label_region_bits() > 0);
    }

    #[cfg(feature = "legacy-labels")]
    #[test]
    fn labels_roundtrip() {
        use treelab_bits::BitReader;
        let tree = gen::random_tree(120, 8);
        let scheme = NaiveScheme::build(&tree);
        let labels = NaiveScheme::legacy_labels(&Substrate::new(&tree));
        for (i, label) in labels.iter().enumerate() {
            let mut w = BitWriter::new();
            label.encode(&mut w);
            let bits = w.into_bitvec();
            assert_eq!(bits.len(), label.bit_len());
            // The build-time wire accounting matches the legacy encoder.
            assert_eq!(bits.len(), scheme.label_bits(tree.node(i)));
            let mut r = BitReader::new(&bits);
            let back = NaiveLabel::decode(&mut r).unwrap();
            assert_eq!(&back, label);
        }
        // Decoded labels answer queries identically to the packed kernel.
        let (u, v) = (tree.node(5), tree.node(100));
        assert_eq!(
            NaiveLabel::legacy_distance(&labels[5], &labels[100]),
            scheme.distance(u, v)
        );
        assert_eq!(scheme.distance(u, v), tree.distance_naive(u, v));
    }
}
