//! Distance-array labeling — the `½·log²n + O(log n·log log n)` baseline
//! (§3.1, the scheme of Alstrup, Gørtz, Halvorsen and Porat that the paper's
//! optimal scheme improves on).
//!
//! The framework is Lemma 3.1: for each node `u`, consider the light edges
//! `ℓ₁(u), …, ℓ_k(u)` on its root path and let `d(ℓᵢ(u))` be the distance from
//! the head of the heavy path the edge branches from to the head of the heavy
//! path it leads into.  The *distance array* `D(u) = [d(ℓ₁(u)), …, d(ℓ_k(u))]`,
//! the node's root distance and the Lemma 2.1 auxiliary label suffice to answer
//! any distance query.
//!
//! The wire entries are encoded with self-delimiting Elias δ codes.  Because
//! the hanging-subtree sizes at least halve with every light edge,
//! `Σᵢ log d(ℓᵢ(u)) ≤ Σᵢ log(n/2^{i-1}) = ½·log²n + O(log n)`, which is where
//! the `½` comes from — [`DistanceArrayScheme::label_bits`] reports exactly
//! this wire size in closed form (a test-only encoder over the build rows pins
//! it bit for bit), while the *native* representation is the packed store
//! frame shared with [`crate::naive`] (the prefix-sum kernel,
//! [`crate::kernel::psum`]).  The optimal scheme ([`crate::optimal`]) halves
//! the wire cost again by splitting each entry between the label of the node
//! itself and the labels of the nodes it dominates.

use crate::kernel::psum::{self, PsumMeta, PsumRef};
use crate::naive::{PsumRow, PsumSource};
use crate::store::{SchemeStore, StoreError, StoredScheme, CORRUPT_LABEL};
use crate::substrate::{RowArena, Substrate};
use crate::DistanceScheme;
use treelab_bits::{codes, BitSlice};
use treelab_tree::{NodeId, Tree};

/// The distance-array (½·log²n + O(log n·log log n)) exact scheme, a thin
/// owner of its packed [`SchemeStore`] frame.
#[derive(Debug, Clone)]
pub struct DistanceArrayScheme {
    store: SchemeStore<DistanceArrayScheme>,
    /// Per-node wire-encoding sizes (the paper's label-size quantity).
    wire_bits: Vec<u32>,
    /// Per-node distance-array payload bits: `Σᵢ ⌈log d(ℓᵢ)⌉`.
    payload_bits: Vec<u32>,
}

impl DistanceArrayScheme {
    /// Number of *payload* bits of node `u`'s distance array:
    /// `Σᵢ ⌈log d(ℓᵢ)⌉`.
    ///
    /// This is the quantity the `½·log²n` analysis bounds (the
    /// self-delimiting and auxiliary parts are the lower-order
    /// `O(log n·log log n)` terms); the experiments report it alongside the
    /// total label size.
    pub fn array_payload_bits(&self, u: NodeId) -> usize {
        self.payload_bits[u.index()] as usize
    }
}

impl DistanceScheme for DistanceArrayScheme {
    fn build(tree: &Tree) -> Self {
        Self::build_with_substrate(&Substrate::new(tree))
    }

    fn build_with_substrate(sub: &Substrate<'_>) -> Self {
        // Closed-form wire size (no encoding pass; the test-only encoder
        // pins it to the real encoding bit for bit).
        let src = PsumSource::new(
            sub,
            |row: &PsumRow<'_>, arena: &RowArena| {
                codes::delta_nz_len(row.rd)
                    + row.aux.bit_len()
                    + codes::gamma_nz_len(row.edge_count() as u64)
                    + row
                        .entries(arena)
                        .map(|(d, _)| codes::delta_nz_len(d) + 1)
                        .sum::<usize>()
            },
            true,
        );
        let (store, plan) = SchemeStore::from_source_with(&src, sub.chunk_rows());
        DistanceArrayScheme {
            store,
            wire_bits: plan.wire_bits,
            payload_bits: plan.payload_bits,
        }
    }

    fn label_bits(&self, u: NodeId) -> usize {
        self.wire_bits[u.index()] as usize
    }

    fn max_label_bits(&self) -> usize {
        self.wire_bits.iter().copied().max().unwrap_or(0) as usize
    }

    fn name() -> &'static str {
        "distance-array"
    }
}

/// Borrowed view of one packed label of this scheme inside a
/// [`SchemeStore`] buffer.
#[derive(Debug, Clone, Copy)]
pub struct DistanceArrayLabelRef<'a>(PsumRef<'a>);

impl StoredScheme for DistanceArrayScheme {
    const TAG: u32 = 2;
    const STORE_NAME: &'static str = "distance-array";
    type Meta = PsumMeta;
    type Ref<'a> = DistanceArrayLabelRef<'a>;

    fn as_store(&self) -> &SchemeStore<DistanceArrayScheme> {
        &self.store
    }

    fn parse_meta(_param: u64, words: &[u64]) -> Result<PsumMeta, StoreError> {
        PsumMeta::parse(words)
    }

    fn label_ref<'a>(
        slice: BitSlice<'a>,
        start: usize,
        end: usize,
        meta: &'a PsumMeta,
    ) -> DistanceArrayLabelRef<'a> {
        DistanceArrayLabelRef(PsumRef::new(slice, start, end, meta))
    }

    fn distance_refs(a: DistanceArrayLabelRef<'_>, b: DistanceArrayLabelRef<'_>) -> u64 {
        psum::distance_refs(&a.0, &b.0).unwrap_or(CORRUPT_LABEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveScheme;
    use crate::substrate::PackSource;
    use crate::test_support::check_exact_scheme;
    use treelab_bits::BitWriter;
    use treelab_tree::gen;

    #[test]
    fn exact_on_fixed_shapes() {
        for tree in [
            Tree::singleton(),
            gen::path(2),
            gen::path(40),
            gen::star(40),
            gen::caterpillar(9, 3),
            gen::broom(8, 11),
            gen::spider(6, 5),
            gen::complete_kary(2, 6),
            gen::complete_kary(3, 3),
            gen::balanced_binary(100),
        ] {
            check_exact_scheme::<DistanceArrayScheme>(&tree);
        }
    }

    #[test]
    fn exact_on_random_trees() {
        for seed in 0..6u64 {
            check_exact_scheme::<DistanceArrayScheme>(&gen::random_tree(170, seed));
            check_exact_scheme::<DistanceArrayScheme>(&gen::random_recursive(150, seed));
            check_exact_scheme::<DistanceArrayScheme>(&gen::random_binary(160, seed));
        }
    }

    #[test]
    fn smaller_than_naive_on_balanced_trees() {
        // The δ-coded wire entries exploit the geometric decay of subtree
        // sizes, so the distance-array wire labels must be (considerably)
        // smaller than the fixed-width baseline on trees with many light
        // edges.  (The *packed* frames of the two schemes are identical by
        // design — the separation lives in the wire encodings.)
        let tree = gen::complete_kary(2, 12); // 8191 nodes, log-depth heavy paths
        let da = DistanceArrayScheme::build(&tree);
        let naive = NaiveScheme::build(&tree);
        assert!(
            da.max_label_bits() < naive.max_label_bits(),
            "distance-array {} bits vs naive {} bits",
            da.max_label_bits(),
            naive.max_label_bits()
        );
        assert_eq!(
            da.as_store().label_region_bits(),
            naive.as_store().label_region_bits(),
            "the packed layouts coincide"
        );
    }

    #[test]
    fn label_size_tracks_half_log_squared() {
        // ½ log²n + O(log n log log n) with the binarized n; assert with an
        // explicit constant on the lower-order term.
        for (n, seed) in [(1 << 11, 1u64), (1 << 12, 2), (1 << 13, 3)] {
            let tree = gen::random_tree(n, seed);
            let scheme = DistanceArrayScheme::build(&tree);
            let n_bin = (4 * n) as f64;
            let log_n = n_bin.log2();
            let bound = 0.5 * log_n * log_n + 40.0 * log_n * log_n.log2() + 200.0;
            assert!(
                (scheme.max_label_bits() as f64) <= bound,
                "n={n}: {} bits > {bound}",
                scheme.max_label_bits()
            );
        }
    }

    /// The δ-coded wire encoding of one label: root distance, the auxiliary
    /// label, then `count` self-delimiting `(dᵢ, tᵢ)` entries.
    fn wire_encode(w: &mut BitWriter, row: &PsumRow<'_>, arena: &RowArena) {
        codes::write_delta_nz(w, row.rd);
        row.aux.encode(w);
        codes::write_gamma_nz(w, row.edge_count() as u64);
        for (d, t) in row.entries(arena) {
            codes::write_delta_nz(w, d);
            w.write_bit(t == 1);
        }
    }

    #[test]
    fn label_bits_is_the_wire_encoding_length() {
        for tree in [Tree::singleton(), gen::random_tree(130, 4), gen::comb(300)] {
            let sub = Substrate::new(&tree);
            let scheme = DistanceArrayScheme::build_with_substrate(&sub);
            let src = PsumSource::new(&sub, |_: &PsumRow<'_>, _: &RowArena| 0, false);
            let mut arena = RowArena::default();
            for u in tree.nodes() {
                let row = PackSource::<DistanceArrayScheme>::make_row(&src, u.index(), &mut arena);
                let mut w = BitWriter::new();
                wire_encode(&mut w, &row, &arena);
                assert_eq!(w.len(), scheme.label_bits(u), "node {u}");
            }
        }
    }
}
