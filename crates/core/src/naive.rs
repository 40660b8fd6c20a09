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
//! reports the size of the self-delimiting fixed-width *wire* encoding — the
//! quantity the paper's `Θ(log²n)` analysis is about — in closed form; a
//! test-only encoder over the build rows pins it bit for bit.

use crate::hpath::{HpathLabel, HpathLabeling};
use crate::kernel::psum::{self, PsumMeasure, PsumMeta, PsumRef};
use crate::store::{SchemeStore, StoreError, StoredScheme};
use crate::substrate::{PackSource, Substrate};
use crate::DistanceScheme;
use treelab_bits::{codes, BitSlice, BitWriter};
use treelab_tree::binarize::Binarized;
use treelab_tree::heavy::{HeavyPaths, LightEdge};
use treelab_tree::{NodeId, Tree};

/// One node's build-time row: everything the packer needs, borrowing the
/// substrate's auxiliary label instead of cloning it.
pub(crate) struct PsumRow<'a> {
    pub(crate) rd: u64,
    pub(crate) edges: Vec<LightEdge>,
    pub(crate) aux: HpathLabel<'a>,
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
        // Closed-form wire size (no encoding pass; the test-only encoder
        // pins it to the real encoding bit for bit).
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

    /// The fixed-width wire encoding of one label: root distance, the entry
    /// field width, the auxiliary label, then `count` fixed-width `(dᵢ, tᵢ)`
    /// entries.
    fn wire_encode(w: &mut BitWriter, row: &PsumRow<'_>, width: u8) {
        codes::write_delta_nz(w, row.rd);
        w.write_bits(u64::from(width), 8);
        row.aux.encode(w);
        codes::write_gamma_nz(w, row.edges.len() as u64);
        for (d, t) in row.entries() {
            w.write_bits(d, usize::from(width));
            w.write_bit(t == 1);
        }
    }

    #[test]
    fn label_bits_is_the_wire_encoding_length() {
        for tree in [Tree::singleton(), gen::random_tree(120, 8), gen::comb(300)] {
            let sub = Substrate::new(&tree);
            let scheme = NaiveScheme::build_with_substrate(&sub);
            let src = PsumSource::new(&sub, |_: &PsumRow<'_>| 0, false);
            for u in tree.nodes() {
                let row = PackSource::<NaiveScheme>::make_row(&src, u.index());
                let mut w = BitWriter::new();
                wire_encode(&mut w, &row, wire_width(&sub));
                assert_eq!(w.len(), scheme.label_bits(u), "node {u}");
            }
        }
    }
}
