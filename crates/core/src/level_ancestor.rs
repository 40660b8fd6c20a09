//! Parent / level-ancestor labeling (§3.6) — the "effective" scheme whose
//! optimality (Theorem 1.2) separates level-ancestor labeling from distance
//! labeling.
//!
//! A *level-ancestor* labeling assigns a **distinct** label to every node so
//! that, given the label of `u` and a number `k`, the label of the `k`-th
//! ancestor of `u` can be produced (or "no such ancestor" reported) — without
//! ever looking at the tree.  The paper shows (Lemma 3.6 + the
//! Goldberg–Livshits bound) that any such scheme needs `½·log²n − log n·log log n`
//! bits, i.e. the `¼·log²n` distance labels of [`crate::optimal`] are provably
//! impossible here; and that the scheme below (a re-phrasing of the Alstrup et
//! al. distance labels) is optimal up to lower-order terms.
//!
//! The label of a node `u` on heavy path `P` stores its depth, its offset from
//! `head(P)`, the identity of `P` (as the sequence of light-edge codewords used
//! throughout this crate), and the branch offsets of all light edges on the
//! root path — everything needed to *rewrite the label in place* when moving to
//! the parent: either the offset decreases by one, or the last light edge is
//! popped and the offset becomes that edge's branch offset.
//!
//! The native representation is the packed store frame (the
//! [`crate::kernel::level_ancestor`] kernel answers distance queries from it
//! directly); [`LevelAncestorScheme::label`] materializes the walkable
//! [`LevelAncestorLabel`] of any node from the frame on demand.
//!
//! This scheme works directly on the original (unweighted) tree; no
//! binarization is involved.

use crate::hpath::HpathLabeling;
use crate::kernel::level_ancestor::{self as kernel, LevelAncestorLabelRef, LevelAncestorMeta};
use crate::store::{SchemeStore, StoreError, StoredScheme};
use crate::substrate::{PackSource, Substrate};
use crate::DistanceScheme;
use treelab_bits::{
    codes, monotone::MonotoneSeq, BitReader, BitSlice, BitVec, BitWriter, DecodeError,
};
use treelab_tree::heavy::{HeavyPaths, PathId};
use treelab_tree::{NodeId, Tree};

/// Label of the level-ancestor scheme.
///
/// Labels are distinct across the nodes of one tree and are closed under the
/// [`LevelAncestorScheme::parent`] operation.  They are materialized from the
/// scheme's packed frame on demand ([`LevelAncestorScheme::label`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LevelAncestorLabel {
    /// Depth of the node (number of edges from the root).
    depth: u64,
    /// Distance from the head of the node's heavy path.
    head_offset: u64,
    /// Concatenated light-edge codewords identifying the node's heavy path.
    codewords: BitVec,
    /// End position of each codeword within `codewords`.
    ends: Vec<u32>,
    /// Branch offset of each light edge on the root path: the distance from
    /// the head of the heavy path the edge branches from to the branch node.
    branch_offsets: Vec<u64>,
}

impl LevelAncestorLabel {
    /// Depth of the labelled node.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Distance from the head of the labelled node's heavy path.
    pub fn head_offset(&self) -> u64 {
        self.head_offset
    }

    /// Light depth (number of light edges on the root path).
    pub fn light_depth(&self) -> usize {
        self.branch_offsets.len()
    }

    /// Serializes the label.
    pub fn encode(&self, w: &mut BitWriter) {
        codes::write_delta_nz(w, self.depth);
        codes::write_delta_nz(w, self.head_offset);
        let ends: Vec<u64> = self.ends.iter().map(|&e| e as u64).collect();
        MonotoneSeq::new(&ends).encode(w);
        codes::write_gamma_nz(w, self.codewords.len() as u64);
        w.write_bitvec(&self.codewords);
        for &b in &self.branch_offsets {
            codes::write_delta_nz(w, b);
        }
    }

    /// Deserializes a label written by [`LevelAncestorLabel::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    pub fn decode(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        let depth = codes::read_delta_nz(r)?;
        let head_offset = codes::read_delta_nz(r)?;
        let ends = crate::hpath::decode_codeword_ends(&MonotoneSeq::decode(r)?)?;
        let cw_len = codes::read_gamma_nz(r)? as usize;
        if ends.last().map(|&e| e as usize).unwrap_or(0) != cw_len {
            return Err(DecodeError::Malformed {
                what: "codeword length mismatch in level-ancestor label",
            });
        }
        if cw_len > r.remaining() {
            return Err(DecodeError::Malformed {
                what: "codeword payload exceeds remaining input",
            });
        }
        let mut codewords = BitVec::with_capacity(cw_len);
        for _ in 0..cw_len {
            codewords.push(r.read_bit()?);
        }
        let mut branch_offsets = Vec::with_capacity(ends.len());
        for _ in 0..ends.len() {
            branch_offsets.push(codes::read_delta_nz(r)?);
        }
        Ok(LevelAncestorLabel {
            depth,
            head_offset,
            codewords,
            ends,
            branch_offsets,
        })
    }

    /// Size of the serialized label in bits.
    pub fn bit_len(&self) -> usize {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.len()
    }

    /// A canonical bit-string form of the label (used by the Lemma 3.6
    /// conversion, which works with labels as opaque distinct strings).
    pub fn to_bits(&self) -> BitVec {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.into_bitvec()
    }
}

/// One node's build-time row: `(depth, head_offset, path)` — the codeword
/// prefixes, ends and branch offsets are shared per heavy path.
type LaRow = (u64, u64, usize);

/// The level-ancestor / parent labeling scheme of §3.6, a thin owner of its
/// packed [`SchemeStore`] frame.
#[derive(Debug, Clone)]
pub struct LevelAncestorScheme {
    store: SchemeStore<LevelAncestorScheme>,
    /// Per-node wire-encoding sizes (the paper's label-size quantity).
    wire_bits: Vec<u32>,
}

impl LevelAncestorScheme {
    /// Builds labels for every node of an unweighted tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not unit-weighted (depths would no longer count
    /// ancestors).
    pub fn build(tree: &Tree) -> Self {
        Self::build_with_substrate(&Substrate::new(tree))
    }

    /// Builds the scheme from a shared [`Substrate`] (same frame as
    /// [`LevelAncestorScheme::build`], bit for bit).
    ///
    /// # Panics
    ///
    /// Panics if the tree is not unit-weighted (depths would no longer count
    /// ancestors).
    pub fn build_with_substrate(sub: &Substrate<'_>) -> Self {
        let src = LaSource::new(sub);
        let (store, plan) = SchemeStore::from_source_with(&src, &sub.pack_config());
        LevelAncestorScheme {
            store,
            wire_bits: plan.wire_bits,
        }
    }

    /// Materializes the walkable label of node `u` from the packed frame.
    ///
    /// The result carries the node's codewords, ends and branch offsets, so
    /// [`LevelAncestorLabel::to_bits`] interning and
    /// [`LevelAncestorScheme::parent`] chains work on it directly.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn label(&self, u: NodeId) -> LevelAncestorLabel {
        let r = self.store.label_ref(u.index());
        let (depth, head_offset, ld, cwl) = r.header();
        let codewords = BitVec::from_bools((0..cwl).map(|i| r.cw_bit(i)));
        let mut ends = Vec::with_capacity(ld);
        let mut branch_offsets = Vec::with_capacity(ld);
        let mut prev_sum = 0u64;
        for i in 0..ld {
            let (end, depth_sum) = r.record(cwl, i);
            ends.push(end as u32);
            branch_offsets.push(depth_sum - prev_sum - 1);
            prev_sum = depth_sum;
        }
        LevelAncestorLabel {
            depth,
            head_offset,
            codewords,
            ends,
            branch_offsets,
        }
    }

    /// Maximum serialized (wire) label size in bits.
    pub fn max_label_bits(&self) -> usize {
        self.wire_bits.iter().copied().max().unwrap_or(0) as usize
    }

    /// Computes the label of the parent of the node labelled `label`, or
    /// `None` if it is the root — **from the label alone**.
    pub fn parent(label: &LevelAncestorLabel) -> Option<LevelAncestorLabel> {
        if label.depth == 0 {
            return None;
        }
        let mut out = label.clone();
        out.depth -= 1;
        if label.head_offset > 0 {
            // Parent lies on the same heavy path.
            out.head_offset -= 1;
        } else {
            // The node is the head of its heavy path; the parent is the branch
            // node on the parent heavy path: pop the last light edge.
            let branch = out
                .branch_offsets
                .pop()
                .expect("non-root head has a light edge");
            out.head_offset = branch;
            let last_end = out.ends.pop().expect("ends match branch offsets");
            let new_len = out.ends.last().copied().unwrap_or(0) as usize;
            debug_assert!(new_len <= last_end as usize);
            out.codewords = out.codewords.slice(0, new_len).expect("prefix in range");
        }
        Some(out)
    }

    /// Computes the label of the `k`-th ancestor of the node labelled `label`
    /// (`k = 0` returns a copy of the label itself), or `None` if the node is
    /// not that deep — from the label alone, in `O(light depth)` steps.
    pub fn level_ancestor(label: &LevelAncestorLabel, k: u64) -> Option<LevelAncestorLabel> {
        if k > label.depth {
            return None;
        }
        let mut cur = label.clone();
        let mut remaining = k;
        while remaining > 0 {
            if cur.head_offset >= remaining {
                // Jump up along the current heavy path in one step.
                cur.head_offset -= remaining;
                cur.depth -= remaining;
                remaining = 0;
            } else {
                // Jump to the head of the current path, then to its parent.
                let step = cur.head_offset + 1;
                cur.depth -= cur.head_offset;
                cur.head_offset = 0;
                cur = Self::parent(&cur).expect("depth bound checked above");
                remaining -= step;
            }
        }
        Some(cur)
    }
}

/// The pack source of the level-ancestor scheme: per-node `(depth,
/// head_offset, path)` rows built on demand over the shared per-path
/// codeword prefixes of the substrate's auxiliary labels (which stay
/// resident — they are `O(total codeword bits)`, not `O(n·label)`).
struct LaSource<'s> {
    tree: &'s Tree,
    hp: &'s HeavyPaths,
    depths: &'s [usize],
    aux: &'s HpathLabeling,
    /// Branch offset of every light edge on the way down to each path,
    /// aligned with the auxiliary labels' codeword ends
    /// ([`HpathLabeling::edge_range`]).
    branches: Vec<u64>,
}

impl<'s> LaSource<'s> {
    fn new(sub: &'s Substrate<'_>) -> Self {
        let tree = sub.tree();
        assert!(
            tree.is_unit_weighted(),
            "level-ancestor labeling expects an unweighted tree"
        );
        let hp = sub.heavy_paths();
        let aux = sub.aux_labels();
        // A path's branch offsets are its parent's plus its own light edge's
        // (parents have smaller ids, so one forward pass fills the table).
        let mut branches = vec![0u64; aux.edge_range(hp.path_count() - 1).end];
        for p in 1..hp.path_count() {
            let parent = hp.collapsed_parent(p).expect("child path has a parent");
            let (from, to) = (aux.edge_range(parent), aux.edge_range(p));
            branches.copy_within(from, to.start);
            branches[to.end - 1] =
                hp.head_offset(hp.branch_node(p).expect("child path has branch node"));
        }
        LaSource {
            tree,
            hp,
            depths: sub.depths(),
            aux,
            branches,
        }
    }

    /// Path `p`'s codeword string, codeword ends and branch offsets.
    fn path(&self, p: PathId) -> (BitSlice<'s>, &'s [u32], &[u64]) {
        let (bits, ends) = self.aux.path_prefix(p);
        (bits, ends, &self.branches[self.aux.edge_range(p)])
    }
}

/// Plan of the level-ancestor pack: the per-row width maxima plus the wire
/// sizes the scheme reports, folded in node-id order.
#[derive(Default)]
struct LaPlan {
    w_d: u8,
    w_ho: u8,
    w_ld: u8,
    w_end: u8,
    w_bs: u8,
    wire_bits: Vec<u32>,
}

impl PackSource<LevelAncestorScheme> for LaSource<'_> {
    type Row = (LaRow, u32);
    type Plan = LaPlan;

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn make_row(&self, i: usize) -> (LaRow, u32) {
        let u = self.tree.node(i);
        let p = self.hp.path_of(u);
        let row = (self.depths[u.index()] as u64, self.hp.head_offset(u), p);
        // Closed-form wire size (no encoding pass; the encode/decode
        // round-trip test pins it to the real encoder bit for bit).
        let (bits, ends, branches) = self.path(p);
        let cwl = bits.len();
        let wire = codes::delta_nz_len(row.0)
            + codes::delta_nz_len(row.1)
            + MonotoneSeq::encoded_len_parts(
                ends.len(),
                u64::from(ends.last().copied().unwrap_or(0)),
            )
            + codes::gamma_nz_len(cwl as u64)
            + cwl
            + branches
                .iter()
                .map(|&b| codes::delta_nz_len(b))
                .sum::<usize>();
        (row, wire as u32)
    }

    fn plan_row(&self, plan: &mut LaPlan, _u: usize, &((depth, ho, p), wire): &(LaRow, u32)) {
        let w = |x: u64| codes::bit_len(x) as u8;
        plan.w_d = plan.w_d.max(w(depth));
        plan.w_ho = plan.w_ho.max(w(ho));
        let (bits, _, branches) = self.path(p);
        plan.w_ld = plan.w_ld.max(w(branches.len() as u64));
        plan.w_end = plan.w_end.max(w(bits.len() as u64));
        let depth_sum: u64 = branches.iter().map(|&o| o + 1).sum();
        plan.w_bs = plan.w_bs.max(w(depth_sum));
        plan.wire_bits.push(wire);
    }

    fn meta_words(&self, plan: &LaPlan) -> Vec<u64> {
        LevelAncestorMeta::with_widths(plan.w_d, plan.w_ho, plan.w_ld, plan.w_end, plan.w_bs)
            .words()
    }

    fn packed_label_bits(&self, meta: &LevelAncestorMeta, &((_, _, p), _): &(LaRow, u32)) -> usize {
        let (bits, _, branches) = self.path(p);
        meta.hdr_total + bits.len() + branches.len() * meta.rec_w
    }

    fn pack_label(&self, meta: &LevelAncestorMeta, row: &(LaRow, u32), w: &mut BitWriter) {
        let ((depth, ho, p), _) = *row;
        let (bits, ends, branches) = self.path(p);
        debug_assert_eq!(ends.len(), branches.len());
        w.write_bits_lsb(depth, usize::from(meta.w_d));
        w.write_bits_lsb(ho, usize::from(meta.w_ho));
        w.write_bits_lsb(branches.len() as u64, usize::from(meta.w_ld));
        w.write_bits_lsb(bits.len() as u64, usize::from(meta.w_end));
        w.write_bitslice(bits);
        let mut depth_sum = 0u64;
        for (i, &o) in branches.iter().enumerate() {
            depth_sum += o + 1;
            w.write_bits_lsb(u64::from(ends[i]), usize::from(meta.w_end));
            w.write_bits_lsb(depth_sum, usize::from(meta.w_bs));
        }
    }
}

/// The level-ancestor labels double as exact distance labels: a label carries
/// its node's depth, the identity of its heavy path (the codeword sequence)
/// and every branch offset on the root path — enough to locate the NCA of two
/// labelled nodes and read off the distance, from the two labels alone.
///
/// This is exactly the observation behind §3.6 (the scheme is a re-phrasing
/// of the Alstrup et al. distance labels), and it is what lets the packed
/// store serve distance queries for all six schemes uniformly.
impl DistanceScheme for LevelAncestorScheme {
    fn build(tree: &Tree) -> Self {
        LevelAncestorScheme::build(tree)
    }

    fn build_with_substrate(sub: &Substrate<'_>) -> Self {
        LevelAncestorScheme::build_with_substrate(sub)
    }

    fn label_bits(&self, u: NodeId) -> usize {
        self.wire_bits[u.index()] as usize
    }

    fn max_label_bits(&self) -> usize {
        LevelAncestorScheme::max_label_bits(self)
    }

    fn name() -> &'static str {
        "level-ancestor"
    }
}

impl StoredScheme for LevelAncestorScheme {
    const TAG: u32 = 6;
    const STORE_NAME: &'static str = "level-ancestor";
    type Meta = LevelAncestorMeta;
    type Ref<'a> = LevelAncestorLabelRef<'a>;

    fn as_store(&self) -> &SchemeStore<LevelAncestorScheme> {
        &self.store
    }

    fn parse_meta(_param: u64, words: &[u64]) -> Result<LevelAncestorMeta, StoreError> {
        LevelAncestorMeta::parse(words)
    }

    fn label_ref<'a>(
        slice: BitSlice<'a>,
        start: usize,
        meta: &'a LevelAncestorMeta,
    ) -> LevelAncestorLabelRef<'a> {
        LevelAncestorLabelRef::new(slice, start, meta)
    }

    /// The §3.6 distance protocol over packed views — one
    /// [`crate::kernel::level_ancestor`] call.
    fn distance_refs(a: LevelAncestorLabelRef<'_>, b: LevelAncestorLabelRef<'_>) -> u64 {
        kernel::distance_refs(a, b)
    }

    fn check_label(
        slice: BitSlice<'_>,
        start: usize,
        end: usize,
        meta: &LevelAncestorMeta,
    ) -> bool {
        kernel::check_label(slice, start, end, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use treelab_tree::gen;

    fn workloads() -> Vec<Tree> {
        vec![
            Tree::singleton(),
            gen::path(30),
            gen::star(30),
            gen::caterpillar(8, 3),
            gen::broom(7, 9),
            gen::comb(200),
            gen::complete_kary(2, 6),
            gen::random_tree(150, 1),
            gen::random_tree(151, 2),
            gen::random_recursive(120, 3),
        ]
    }

    #[test]
    fn labels_are_distinct() {
        for tree in workloads() {
            let scheme = LevelAncestorScheme::build(&tree);
            let mut seen = std::collections::HashSet::new();
            for u in tree.nodes() {
                assert!(
                    seen.insert(scheme.label(u).to_bits()),
                    "label of {u} collides (n={})",
                    tree.len()
                );
            }
        }
    }

    #[test]
    fn parent_matches_tree() {
        for tree in workloads() {
            let scheme = LevelAncestorScheme::build(&tree);
            // Map label bits -> node, to identify the returned labels.
            let by_bits: HashMap<_, _> = tree
                .nodes()
                .map(|u| (scheme.label(u).to_bits(), u))
                .collect();
            for u in tree.nodes() {
                match LevelAncestorScheme::parent(&scheme.label(u)) {
                    None => assert!(tree.is_root(u)),
                    Some(parent_label) => {
                        let p = by_bits
                            .get(&parent_label.to_bits())
                            .unwrap_or_else(|| panic!("parent label of {u} is not a real label"));
                        assert_eq!(tree.parent(u), Some(*p), "parent of {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn level_ancestor_matches_tree() {
        for tree in workloads() {
            let scheme = LevelAncestorScheme::build(&tree);
            let by_bits: HashMap<_, _> = tree
                .nodes()
                .map(|u| (scheme.label(u).to_bits(), u))
                .collect();
            let depths = tree.depths();
            for u in tree.nodes() {
                let ancestors = tree.ancestors(u);
                let label = scheme.label(u);
                for (k, &expect) in ancestors.iter().enumerate() {
                    let got = LevelAncestorScheme::level_ancestor(&label, k as u64)
                        .unwrap_or_else(|| panic!("{k}-th ancestor of {u} missing"));
                    assert_eq!(by_bits[&got.to_bits()], expect, "{k}-th ancestor of {u}");
                }
                assert!(
                    LevelAncestorScheme::level_ancestor(&label, depths[u.index()] as u64 + 1)
                        .is_none()
                );
            }
        }
    }

    #[test]
    fn label_size_is_order_log_squared() {
        let tree = gen::random_tree(1 << 12, 4);
        let scheme = LevelAncestorScheme::build(&tree);
        let log_n = (tree.len() as f64).log2();
        assert!(
            (scheme.max_label_bits() as f64) <= 2.0 * log_n * log_n + 40.0 * log_n,
            "{} bits",
            scheme.max_label_bits()
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let tree = gen::comb(150);
        let scheme = LevelAncestorScheme::build(&tree);
        for u in tree.nodes() {
            let label = scheme.label(u);
            let bits = label.to_bits();
            assert_eq!(bits.len(), label.bit_len());
            // The build-time wire accounting matches the encoder.
            assert_eq!(bits.len(), DistanceScheme::label_bits(&scheme, u));
            let back = LevelAncestorLabel::decode(&mut BitReader::new(&bits)).unwrap();
            assert_eq!(back, label);
        }
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn rejects_weighted_trees() {
        let t = Tree::from_parents_weighted(&[None, Some(0)], Some(&[0, 3]));
        LevelAncestorScheme::build(&t);
    }
}
