//! The `O(log n)`-bit heavy-path auxiliary label (the Lemma 2.1 substrate).
//!
//! Every distance-labeling scheme in this crate needs to answer, from two
//! labels alone, a small set of structural questions about the queried nodes:
//!
//! * the **light depth of their nearest common ancestor** (`lightdepth(u,v)`
//!   in the paper's notation) — equivalently, how many heavy paths the two
//!   root-to-node paths share;
//! * which of the two nodes **dominates** the other (Observations (1)–(2) of
//!   §2), i.e. which one branches off the shared heavy path closer to its
//!   head;
//! * whether one node is an **ancestor** of the other.
//!
//! The paper obtains these from the nearest-common-ancestor labeling of
//! Alstrup–Halvorsen–Larsen (Lemma 2.1).  We realize the same interface with a
//! self-contained construction: for every heavy path we build an
//! order-preserving Gilbert–Moore code over its light edges, weighted by the
//! sizes of the hanging subtrees (see [`treelab_bits::alphabetic`]).  A node's
//! label concatenates the codewords of the light edges on its root-to-node
//! path; because a light subtree holds at most half of its instance, the
//! codeword lengths telescope to `O(log n)` bits in total.  Matching codewords
//! prefix-by-prefix recovers `lightdepth(NCA)`, lexicographic comparison of the
//! first differing codeword recovers branch order, and an explicitly stored
//! preorder/subtree-size pair gives ancestry.
//!
//! # Arena plus views
//!
//! All nodes of a heavy path share its codeword string, so [`HpathLabeling`]
//! stores it once per path, in one word arena plus one `u32` arena of end
//! positions, filled in a single forward pass over path ids (parents come
//! first; a path's prefix is its parent's plus one closed-form codeword).
//! [`HpathLabeling::label`] returns a `Copy` view into the arenas.

use crate::store::StoreError;
use crate::Tree;
use std::cmp::Ordering;
use treelab_bits::alphabetic::gilbert_moore_codeword;
use treelab_bits::bitslice::{common_prefix_len_raw, read_lsb};
use treelab_bits::{codes, monotone::MonotoneSeq, BitSlice, BitWriter, DecodeError};
use treelab_tree::heavy::{HeavyPaths, PathId};
use treelab_tree::NodeId;

/// Heavy-path auxiliary label of a single node: a `Copy` view into an
/// [`HpathLabeling`]'s arenas.
///
/// See the module documentation for what it encodes and why.
#[derive(Debug, Clone, Copy)]
pub struct HpathLabel<'a> {
    /// Concatenated light-edge codewords (one per light edge, root side first).
    codewords: BitSlice<'a>,
    /// `ends[i]` = end position (exclusive) of the `i`-th codeword in `codewords`.
    ends: &'a [u32],
    /// Domination order of the node's heavy path (post-order of `C(T)`;
    /// smaller dominates).
    dom_order: u64,
    /// Preorder number of the node (heavy child last), in `[0, n)`.
    pre: u64,
    /// Size of the node's subtree.
    subtree_size: u64,
}

impl<'a> HpathLabel<'a> {
    /// Number of light edges on the root-to-node path.
    pub fn light_depth(&self) -> usize {
        self.ends.len()
    }

    /// Preorder number of the node.
    pub fn pre(&self) -> u64 {
        self.pre
    }

    /// Subtree size of the node.
    pub fn subtree_size(&self) -> u64 {
        self.subtree_size
    }

    /// Domination order of the node's heavy path (smaller dominates).
    pub fn dom_order(&self) -> u64 {
        self.dom_order
    }

    /// End positions of the codewords (for the store packers).
    pub(crate) fn end_positions(&self) -> &'a [u32] {
        self.ends
    }

    /// Total codeword length in bits (for the store packers).
    pub(crate) fn codewords_len(&self) -> usize {
        self.codewords.len()
    }

    /// Start/end bit positions of the `i`-th (0-based) codeword.
    fn codeword_span(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (start, self.ends[i] as usize)
    }

    /// Number of leading codewords shared by `a` and `b`: the light depth of
    /// their nearest common ancestor (Lemma 2.1's `lightdepth(u, v)`).
    pub fn common_light_depth(a: HpathLabel<'_>, b: HpathLabel<'_>) -> usize {
        let max = a.light_depth().min(b.light_depth());
        for i in 0..max {
            let (sa, ea) = a.codeword_span(i);
            let (sb, eb) = b.codeword_span(i);
            if ea - sa != eb - sb || !a.codewords.eq_range(sa, &b.codewords, sb, ea - sa) {
                return i;
            }
        }
        max
    }

    /// Returns `true` if `a` dominates `b` (Observation (1)/(2) of §2).
    pub fn dominates(a: HpathLabel<'_>, b: HpathLabel<'_>) -> bool {
        a.dom_order < b.dom_order
    }

    /// Returns `true` if `a` labels an ancestor of (or the same node as) the
    /// node labelled by `b`.
    pub fn is_ancestor(a: HpathLabel<'_>, b: HpathLabel<'_>) -> bool {
        a.pre <= b.pre && b.pre < a.pre + a.subtree_size
    }

    /// Returns `true` if the two labels belong to the same node.
    pub fn same_node(a: HpathLabel<'_>, b: HpathLabel<'_>) -> bool {
        a.pre == b.pre
    }

    /// Lexicographically compares the `i`-th codewords of `a` and `b`.
    ///
    /// When both nodes branch off the same heavy path (their first `i`
    /// codewords agree), `Less` means `a` branches at a node at least as close
    /// to the head of that path as `b` does (strictly closer, or at the same
    /// branch node through an earlier light edge).
    ///
    /// Returns `None` if either label has fewer than `i + 1` codewords.
    pub fn branch_cmp(a: HpathLabel<'_>, b: HpathLabel<'_>, i: usize) -> Option<Ordering> {
        if i >= a.light_depth() || i >= b.light_depth() {
            return None;
        }
        let (sa, ea) = a.codeword_span(i);
        let (sb, eb) = b.codeword_span(i);
        let (la, lb) = (ea - sa, eb - sb);
        // Lexicographic comparison without materializing either codeword:
        // equal-width MSB-first chunks compare like bit strings.
        let common = la.min(lb);
        let mut off = 0;
        while off < common {
            let w = (common - off).min(64);
            let ca = a.codewords.get_bits(sa + off, w).expect("span in range");
            let cb = b.codewords.get_bits(sb + off, w).expect("span in range");
            match ca.cmp(&cb) {
                Ordering::Equal => off += w,
                diff => return Some(diff),
            }
        }
        Some(la.cmp(&lb))
    }

    /// Serializes the label.
    pub fn encode(&self, w: &mut BitWriter) {
        codes::write_gamma_nz(w, self.light_depth() as u64);
        codes::write_delta_nz(w, self.dom_order);
        codes::write_delta_nz(w, self.pre);
        codes::write_delta_nz(w, self.subtree_size);
        let ends: Vec<u64> = self.ends.iter().map(|&e| e as u64).collect();
        MonotoneSeq::new(&ends).encode(w);
        codes::write_gamma_nz(w, self.codewords.len() as u64);
        w.write_bitslice(self.codewords);
    }

    /// Size of the serialized label in bits — closed form, no encoding pass
    /// (a unit test pins it to [`HpathLabel::encode`]'s actual output).
    pub fn bit_len(&self) -> usize {
        codes::gamma_nz_len(self.light_depth() as u64)
            + codes::delta_nz_len(self.dom_order)
            + codes::delta_nz_len(self.pre)
            + codes::delta_nz_len(self.subtree_size)
            + MonotoneSeq::encoded_len_parts(
                self.ends.len(),
                self.ends.last().copied().unwrap_or(0) as u64,
            )
            + codes::gamma_nz_len(self.codewords.len() as u64)
            + self.codewords.len()
    }
}

/// Converts a decoded codeword-end sequence to `u32` positions, rejecting
/// values a real label can never contain (they would silently wrap and leave
/// the label internally inconsistent).
pub(crate) fn decode_codeword_ends(ends: &MonotoneSeq) -> Result<Vec<u32>, DecodeError> {
    ends.to_vec()
        .iter()
        .map(|&e| {
            u32::try_from(e).map_err(|_| DecodeError::Malformed {
                what: "codeword end position exceeds 32 bits",
            })
        })
        .collect()
}

/// Fixed field widths of the packed (store) form of [`HpathLabel`], shared by
/// every label of one scheme store.
///
/// The store trades the self-delimiting wire encoding ([`HpathLabel::encode`])
/// for a fixed-width layout with O(1) random access:
///
/// ```text
/// [light_depth][dom_order][pre][subtree_size][ends[0..ld]][codeword bits]
/// ```
///
/// Widths are the global maxima over all labels of the scheme, chosen at
/// serialize time and recorded in the store header, so a [`HpathRef`] can
/// address any field with one shifted word read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct AuxWidths {
    /// Width of the light-depth field.
    pub(crate) ld: u8,
    /// Width of the domination-order field.
    pub(crate) dom: u8,
    /// Width of the preorder field.
    pub(crate) pre: u8,
    /// Width of the subtree-size field.
    pub(crate) sub: u8,
    /// Width of each codeword-end position.
    pub(crate) end: u8,
}

impl AuxWidths {
    /// Grows the widths to accommodate `label`.
    pub(crate) fn observe(&mut self, label: HpathLabel<'_>) {
        let w = |x: u64| codes::bit_len(x) as u8;
        self.ld = self.ld.max(w(label.light_depth() as u64));
        self.dom = self.dom.max(w(label.dom_order));
        self.pre = self.pre.max(w(label.pre));
        self.sub = self.sub.max(w(label.subtree_size));
        self.end = self.end.max(w(label.codewords.len() as u64));
    }

    /// Packs the five widths into one store meta word.
    pub(crate) fn to_word(self) -> u64 {
        u64::from(self.ld)
            | u64::from(self.dom) << 8
            | u64::from(self.pre) << 16
            | u64::from(self.sub) << 24
            | u64::from(self.end) << 32
    }

    /// Decodes a meta word written by [`AuxWidths::to_word`].
    pub(crate) fn from_word(word: u64) -> Result<Self, StoreError> {
        let widths = AuxWidths {
            ld: (word & 0xFF) as u8,
            dom: (word >> 8 & 0xFF) as u8,
            pre: (word >> 16 & 0xFF) as u8,
            sub: (word >> 24 & 0xFF) as u8,
            end: (word >> 32 & 0xFF) as u8,
        };
        if word >> 40 != 0
            || [widths.ld, widths.dom, widths.pre, widths.sub, widths.end]
                .iter()
                .any(|&w| w > 64)
        {
            return Err(StoreError::Malformed {
                what: "auxiliary-label field width exceeds 64 bits",
            });
        }
        Ok(widths)
    }

    /// Total width of the four leading scalar fields.
    #[inline]
    pub(crate) fn scalar_bits(self) -> usize {
        usize::from(self.ld) + usize::from(self.dom) + usize::from(self.pre) + usize::from(self.sub)
    }

    /// Packed size of `label` in bits under these widths.
    pub(crate) fn packed_bits(self, label: HpathLabel<'_>) -> usize {
        self.scalar_bits() + label.light_depth() * usize::from(self.end) + label.codewords.len()
    }

    /// Packed size of the *core* form (scalars + codeword bits, no end
    /// positions) of `label` in bits.
    pub(crate) fn packed_bits_core(self, label: HpathLabel<'_>) -> usize {
        self.scalar_bits() + label.codewords.len()
    }

    /// Writes a scalar truncated to its field width — fields a scheme's
    /// query provably never reads are packed at width 0 (see the per-scheme
    /// `measure` functions), which drops them from the store entirely.
    fn put(w: &mut BitWriter, value: u64, width: u8) {
        let masked = if width >= 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        w.write_bits_lsb(masked, usize::from(width));
    }

    /// Appends the core packed form of `label`: the four scalars and the
    /// codeword bits.  Schemes that keep the per-level end positions in their
    /// own fused records (and the total codeword length in their header) use
    /// this instead of [`AuxWidths::pack`].
    pub(crate) fn pack_core(self, label: HpathLabel<'_>, w: &mut BitWriter) {
        Self::put(w, label.light_depth() as u64, self.ld);
        Self::put(w, label.dom_order, self.dom);
        Self::put(w, label.pre, self.pre);
        Self::put(w, label.subtree_size, self.sub);
        w.write_bitslice(label.codewords);
    }

    /// Appends the packed form of `label` (LSB-first fields, so reads skip
    /// the bit reversal; the codeword bits are copied verbatim).
    pub(crate) fn pack(self, label: HpathLabel<'_>, w: &mut BitWriter) {
        Self::put(w, label.light_depth() as u64, self.ld);
        Self::put(w, label.dom_order, self.dom);
        Self::put(w, label.pre, self.pre);
        Self::put(w, label.subtree_size, self.sub);
        for &e in label.ends {
            w.write_bits_lsb(u64::from(e), usize::from(self.end));
        }
        w.write_bitslice(label.codewords);
    }
}

/// All-ones mask of the low `w` bits (shared by the scheme metas' derived
/// shift/mask tables; shift-overflow-safe for `w = 64`).
#[inline]
pub(crate) fn width_mask(w: usize) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// [`AuxWidths`] with every query-time derived quantity — field offsets,
/// split shifts, masks, the fused-read flag — precomputed once at store-parse
/// time, so the per-query scalar load is one raw word read plus three
/// shift-and-mask splits with zero data-dependent branching.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuxDims {
    pub(crate) widths: AuxWidths,
    /// Total width of the four scalar fields.
    scalar_total: usize,
    /// All four scalars fit one 64-bit read.
    fused: bool,
    dom_sh: u32,
    pre_sh: u32,
    sub_sh: u32,
    ld_mask: u64,
    dom_mask: u64,
    pre_mask: u64,
    /// Width of each codeword-end position, as a `usize`.
    end_w: usize,
}

impl AuxDims {
    pub(crate) fn new(widths: AuxWidths) -> Self {
        let (ld, dom, pre, sub) = (
            usize::from(widths.ld),
            usize::from(widths.dom),
            usize::from(widths.pre),
            usize::from(widths.sub),
        );
        let scalar_total = ld + dom + pre + sub;
        AuxDims {
            widths,
            scalar_total,
            fused: scalar_total <= 64,
            dom_sh: ld as u32,
            pre_sh: (ld + dom) as u32,
            sub_sh: (ld + dom + pre) as u32,
            ld_mask: width_mask(ld),
            dom_mask: width_mask(dom),
            pre_mask: width_mask(pre),
            end_w: usize::from(widths.end),
        }
    }
}

/// The four scalar fields of one packed aux label, loaded in (at most) one
/// word read per label and then compared in registers.
///
/// Every structural predicate of Lemma 2.1 (`same_node`, `dominates`,
/// `is_ancestor`) is a pure function of these four values, so the query hot
/// path loads them once per side instead of re-reading fields per predicate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuxScalars {
    pub(crate) ld: usize,
    pub(crate) dom: u64,
    pub(crate) pre: u64,
    pub(crate) sub: u64,
}

impl AuxScalars {
    /// Mirrors [`HpathLabel::same_node`].
    #[inline]
    pub(crate) fn same_node(a: &Self, b: &Self) -> bool {
        a.pre == b.pre
    }

    /// Mirrors [`HpathLabel::dominates`].
    #[inline]
    pub(crate) fn dominates(a: &Self, b: &Self) -> bool {
        a.dom < b.dom
    }

    /// Mirrors [`HpathLabel::is_ancestor`].
    #[inline]
    pub(crate) fn is_ancestor(a: &Self, b: &Self) -> bool {
        a.pre <= b.pre && b.pre < a.pre + a.sub
    }
}

/// Borrowed view of a packed [`HpathLabel`] inside a scheme store's shared
/// buffer: a bit slice, the label's base offset and the store-global
/// [`AuxWidths`].
///
/// Mirrors the query interface of [`HpathLabel`] (`same_node`, `is_ancestor`,
/// `dominates`, `common_light_depth`, `branch_cmp`) reading every field
/// straight out of the buffer — no decoding, no allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HpathRef<'a> {
    s: BitSlice<'a>,
    base: usize,
    d: &'a AuxDims,
}

/// Loads the four scalar fields of a packed aux block (one fused word read
/// when they fit) — shared by the full and core aux views.
#[inline]
pub(crate) fn read_aux_scalars(s: &BitSlice<'_>, base: usize, d: &AuxDims) -> AuxScalars {
    let words = s.words();
    if d.fused {
        let raw = read_lsb(words, base, d.scalar_total);
        AuxScalars {
            ld: (raw & d.ld_mask) as usize,
            dom: raw >> d.dom_sh & d.dom_mask,
            pre: raw >> d.pre_sh & d.pre_mask,
            sub: raw >> d.sub_sh,
        }
    } else {
        let w = &d.widths;
        let (lw, dw, pw) = (usize::from(w.ld), usize::from(w.dom), usize::from(w.pre));
        AuxScalars {
            ld: read_lsb(words, base, lw) as usize,
            dom: read_lsb(words, base + lw, usize::from(w.dom)),
            pre: read_lsb(words, base + lw + dw, usize::from(w.pre)),
            sub: read_lsb(words, base + lw + dw + pw, usize::from(w.sub)),
        }
    }
}

/// The two-cursor twin of [`read_aux_scalars`]: loads both query sides' aux
/// scalar blocks from the same store buffer as one planned load pair
/// ([`treelab_bits::bitslice::read_lsb_pair`] on the fused fast path), so the
/// two sides' decode chains overlap in the out-of-order window instead of
/// serializing.  Bit-identical to two [`read_aux_scalars`] calls.
#[inline]
pub(crate) fn read_aux_scalars_pair(
    s: &BitSlice<'_>,
    base_a: usize,
    base_b: usize,
    d: &AuxDims,
) -> (AuxScalars, AuxScalars) {
    if d.fused {
        let (raw_a, raw_b) =
            treelab_bits::bitslice::read_lsb_pair(s.words(), base_a, base_b, d.scalar_total);
        let unpack = |raw: u64| AuxScalars {
            ld: (raw & d.ld_mask) as usize,
            dom: raw >> d.dom_sh & d.dom_mask,
            pre: raw >> d.pre_sh & d.pre_mask,
            sub: raw >> d.sub_sh,
        };
        (unpack(raw_a), unpack(raw_b))
    } else {
        (
            read_aux_scalars(s, base_a, d),
            read_aux_scalars(s, base_b, d),
        )
    }
}

impl<'a> HpathRef<'a> {
    /// Creates a view of the packed aux label starting at bit `base`.
    pub(crate) fn new(s: BitSlice<'a>, base: usize, d: &'a AuxDims) -> Self {
        HpathRef { s, base, d }
    }

    /// Loads the four scalar fields (one fused word read when they fit).
    #[inline]
    pub(crate) fn scalars(&self) -> AuxScalars {
        read_aux_scalars(&self.s, self.base, self.d)
    }

    /// [`HpathRef::scalars`] of two views over the same buffer as one planned
    /// load pair (falls back to two reads across distinct buffers).
    #[inline]
    pub(crate) fn scalars_pair(a: &Self, b: &Self) -> (AuxScalars, AuxScalars) {
        if std::ptr::eq(a.s.words(), b.s.words()) {
            read_aux_scalars_pair(&a.s, a.base, b.base, a.d)
        } else {
            (a.scalars(), b.scalars())
        }
    }

    /// End position (exclusive, within the codeword region) of codeword `i`.
    #[inline]
    fn end(&self, i: usize) -> usize {
        read_lsb(
            self.s.words(),
            self.base + self.d.scalar_total + i * self.d.end_w,
            self.d.end_w,
        ) as usize
    }

    /// Absolute bit offset of the codeword region, given the light depth.
    #[inline]
    fn cw_base(&self, light_depth: usize) -> usize {
        self.base + self.d.scalar_total + light_depth * self.d.end_w
    }

    /// Load-time extent check: returns `(total_bits, cw_len)` of this full
    /// aux block when its scalar region, end positions and codeword bits all
    /// fit within `avail` bits, `None` otherwise.
    pub(crate) fn extent_bits(&self, avail: usize) -> Option<(usize, usize)> {
        let d = self.d;
        if avail < d.scalar_total {
            return None;
        }
        let ld = self.scalars().ld;
        let with_ends = d.scalar_total.checked_add(ld.checked_mul(d.end_w)?)?;
        if avail < with_ends {
            return None;
        }
        let cw = if ld == 0 { 0 } else { self.end(ld - 1) };
        let total = with_ends.checked_add(cw)?;
        (total <= avail).then_some((total, cw))
    }

    /// Mirrors [`HpathLabel::common_light_depth`], with the scalars of both
    /// sides already loaded.
    ///
    /// Computed as one word-level longest-common-prefix over the whole
    /// concatenated codeword strings, followed by a single-sided scan of the
    /// end positions: because each level's codewords come from one
    /// prefix-free code, the strings diverge strictly inside the first
    /// differing codeword, so `lightdepth(NCA)` is exactly the number of end
    /// positions at or before the divergence point.
    pub(crate) fn common_light_depth(
        a: &Self,
        sa: &AuxScalars,
        la: usize,
        b: &Self,
        sb: &AuxScalars,
        lb: usize,
    ) -> usize {
        Self::common_light_depth_lcp(a, sa, la, b, sb, lb).0
    }

    /// [`HpathRef::common_light_depth`] that also hands back the bit position
    /// of the codeword-string divergence (callers that need the branch order
    /// at level `j` can read the single differing bit instead of running a
    /// lexicographic comparison).  `la`/`lb` are the total codeword lengths,
    /// carried in the schemes' fused headers.
    pub(crate) fn common_light_depth_lcp(
        a: &Self,
        sa: &AuxScalars,
        la: usize,
        b: &Self,
        sb: &AuxScalars,
        lb: usize,
    ) -> (usize, usize) {
        let max = sa.ld.min(sb.ld);
        if max == 0 {
            return (0, 0);
        }
        let lcp = common_prefix_len_raw(
            a.s.words(),
            a.cw_base(sa.ld),
            la,
            b.s.words(),
            b.cw_base(sb.ld),
            lb,
        );
        // Branchless over the first three levels (out-of-range lanes are
        // masked by `i < max`; the reads stay inside the end/codeword
        // regions), with a tail loop for deeper common paths.
        let (e0, e1, e2) = (a.end(0), a.end(1.min(max - 1)), a.end(2.min(max - 1)));
        let c0 = usize::from(e0 <= lcp);
        let c1 = c0 & usize::from(max > 1 && e1 <= lcp);
        let c2 = c1 & usize::from(max > 2 && e2 <= lcp);
        let mut j = c0 + c1 + c2;
        if j == 3 {
            while j < max && a.end(j) <= lcp {
                j += 1;
            }
        }
        (j, lcp)
    }

    /// The codeword bit at absolute string position `pos` (used for the
    /// branch-order test at the divergence point).
    #[inline]
    pub(crate) fn cw_bit(&self, ld: usize, pos: usize) -> u64 {
        read_lsb(self.s.words(), self.cw_base(ld) + pos, 1)
    }
}

/// Borrowed view of a *core* packed aux block (scalars + codeword length +
/// codeword bits, no end positions): the variant used by schemes that carry
/// the per-level end positions inside their own fused records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuxCoreRef<'a> {
    s: BitSlice<'a>,
    base: usize,
    d: &'a AuxDims,
}

impl<'a> AuxCoreRef<'a> {
    /// Creates a view of the core packed aux block starting at bit `base`.
    pub(crate) fn new(s: BitSlice<'a>, base: usize, d: &'a AuxDims) -> Self {
        AuxCoreRef { s, base, d }
    }

    /// Loads the four scalar fields (one fused word read when they fit).
    #[inline]
    pub(crate) fn scalars(&self) -> AuxScalars {
        read_aux_scalars(&self.s, self.base, self.d)
    }

    /// Loads both query sides' scalar blocks as one planned load pair — the
    /// fused meta read of the distance kernels, bit-identical to calling
    /// [`AuxCoreRef::scalars`] on each side.  Falls back to two independent
    /// reads when the views borrow different buffers (never on the store hot
    /// path, where both labels live in one frame).
    #[inline]
    pub(crate) fn scalars_pair(a: &Self, b: &Self) -> (AuxScalars, AuxScalars) {
        if std::ptr::eq(a.s.words(), b.s.words()) {
            read_aux_scalars_pair(&a.s, a.base, b.base, a.d)
        } else {
            (a.scalars(), b.scalars())
        }
    }

    /// Absolute bit offset of the codeword region.
    #[inline]
    pub(crate) fn cw_base(&self) -> usize {
        self.base + self.d.scalar_total
    }

    /// Total packed size in bits of this core aux block, given the codeword
    /// length from the scheme header.
    #[inline]
    pub(crate) fn core_bits(&self, cw_len: usize) -> usize {
        self.d.scalar_total + cw_len
    }

    /// Longest common prefix (in bits) of the two codeword strings; the
    /// scheme's own record scan converts it into `lightdepth(NCA)`.
    #[inline]
    pub(crate) fn codeword_lcp(a: &Self, cwl_a: usize, b: &Self, cwl_b: usize) -> usize {
        common_prefix_len_raw(
            a.s.words(),
            a.cw_base(),
            cwl_a,
            b.s.words(),
            b.cw_base(),
            cwl_b,
        )
    }
}

/// Per-node scalars of an [`HpathLabeling`].
#[derive(Debug, Clone, Copy)]
struct NodeAux {
    path: u32,
    pre: u32,
    sub: u32,
}

/// Per-path arena offsets of an [`HpathLabeling`]: path `p`'s prefix is
/// `bits[paths[p].bits_at..paths[p + 1].bits_at]` and its codeword ends
/// `ends[paths[p].ends_at..paths[p + 1].ends_at]` (one sentinel entry closes
/// the last path).
#[derive(Debug, Clone, Copy)]
struct PathAux {
    bits_at: u32,
    ends_at: u32,
    dom: u32,
}

/// An arena offset as `u32`, checked: release builds would wrap silently.
fn arena_offset(x: usize) -> u32 {
    u32::try_from(x).expect("auxiliary-label arena exceeds u32 offsets")
}

/// ORs the `len` low bits of `value`, MSB-first (the `BitVec::push_bits`
/// order), into bit `at` of the zero-tailed, word-aligned region of `words`
/// that starts at word `base`, growing it by the word the bits spill into.
fn append_bits(words: &mut Vec<u64>, base: usize, at: usize, value: u64, len: usize) {
    let rev = value.reverse_bits() >> (64 - len);
    let (word, off) = (base + at / 64, at % 64);
    if word == words.len() {
        words.push(0);
    }
    words[word] |= rev << off;
    if off + len > 64 {
        words.push(rev >> (64 - off));
    }
}

/// Heavy-path auxiliary labels for every node of a tree, stored once per
/// heavy path (see the module documentation's "Arena plus views").
#[derive(Debug, Clone)]
pub struct HpathLabeling {
    nodes: Vec<NodeAux>,
    paths: Vec<PathAux>,
    /// Every path's codeword prefix, word-aligned, bits past its end zero.
    bits: Vec<u64>,
    /// Every path's codeword end positions.
    ends: Vec<u32>,
}

impl HpathLabeling {
    /// Builds the labels using an existing heavy-path decomposition: one
    /// serial forward pass over path ids, each path's prefix being its
    /// parent's plus its own Gilbert–Moore codeword.
    pub fn with_heavy_paths(tree: &Tree, hp: &HeavyPaths) -> Self {
        let path_count = hp.path_count();
        // Each path's codeword (value, length) in its parent's code, written
        // when the parent is visited; parents precede children.
        let mut codeword = vec![(0u64, 0usize); path_count];
        let edge_total: usize = (0..path_count).map(|p| hp.path_light_depth(p)).sum();
        let mut paths = Vec::with_capacity(path_count + 1);
        let mut bits: Vec<u64> = Vec::with_capacity(path_count);
        let mut ends: Vec<u32> = Vec::with_capacity(edge_total);
        for p in 0..path_count {
            let base = bits.len();
            paths.push(PathAux {
                bits_at: arena_offset(base),
                ends_at: arena_offset(ends.len()),
                dom: hp.domination_order(hp.head(p)) as u32,
            });
            if let Some(q) = hp.collapsed_parent(p) {
                let (from, to) = (paths[q], paths[q + 1]);
                bits.extend_from_within(from.bits_at as usize..to.bits_at as usize);
                ends.extend_from_within(from.ends_at as usize..to.ends_at as usize);
                let at = ends[paths[p].ends_at as usize..]
                    .last()
                    .map_or(0, |&e| e as usize);
                let (value, len) = codeword[p];
                append_bits(&mut bits, base, at, value, len);
                ends.push(arena_offset(at + len));
            }
            let children = hp.collapsed_children(p);
            let total: u64 = children.iter().map(|&c| hp.instance_size(c) as u64).sum();
            let mut before = 0u64;
            for &c in children {
                let w = hp.instance_size(c) as u64;
                codeword[c] = gilbert_moore_codeword(before, w, total);
                before += w;
            }
        }
        paths.push(PathAux {
            bits_at: arena_offset(bits.len()),
            ends_at: arena_offset(ends.len()),
            dom: 0,
        });
        // `HeavyPaths::new` caps n at `u32::MAX`: these casts cannot truncate.
        let nodes = tree
            .nodes()
            .map(|u| NodeAux {
                path: hp.path_of(u) as u32,
                pre: hp.pre(u) as u32,
                sub: hp.subtree_size(u) as u32,
            })
            .collect();
        HpathLabeling {
            nodes,
            paths,
            bits,
            ends,
        }
    }

    /// Builds the labels for `tree` (computing a heavy-path decomposition
    /// internally).
    pub fn build(tree: &Tree) -> Self {
        let hp = HeavyPaths::new(tree);
        Self::with_heavy_paths(tree, &hp)
    }

    /// Builds a fresh labeling from a shared [`Substrate`]'s decomposition,
    /// without recomputing it.
    ///
    /// [`Substrate`]: crate::substrate::Substrate
    pub fn build_with_substrate(sub: &crate::substrate::Substrate<'_>) -> Self {
        Self::with_heavy_paths(sub.tree(), sub.heavy_paths())
    }

    /// Heavy path `p`'s codeword string and codeword end positions.
    pub(crate) fn path_prefix(&self, p: PathId) -> (BitSlice<'_>, &[u32]) {
        let ends = &self.ends[self.edge_range(p)];
        let words = &self.bits[self.paths[p].bits_at as usize..self.paths[p + 1].bits_at as usize];
        let len = ends.last().map_or(0, |&e| e as usize);
        (BitSlice::new(words, len), ends)
    }

    /// The range of path `p`'s codeword ends in the ends arena, one entry per
    /// light edge on the way down to `p`: the index space of per-edge side
    /// tables.
    pub(crate) fn edge_range(&self, p: PathId) -> std::ops::Range<usize> {
        self.paths[p].ends_at as usize..self.paths[p + 1].ends_at as usize
    }

    /// Label of node `u`: a view into the arenas, built without allocation.
    pub fn label(&self, u: NodeId) -> HpathLabel<'_> {
        let node = self.nodes[u.index()];
        let (codewords, ends) = self.path_prefix(node.path as usize);
        HpathLabel {
            codewords,
            ends,
            dom_order: u64::from(self.paths[node.path as usize].dom),
            pre: u64::from(node.pre),
            subtree_size: u64::from(node.sub),
        }
    }

    /// Number of labelled nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false` (trees are non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maximum serialized label size in bits.
    pub fn max_label_bits(&self) -> usize {
        (0..self.len())
            .map(|i| self.label(NodeId(i)).bit_len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::gen;
    use treelab_tree::lca::DistanceOracle;

    fn workloads() -> Vec<Tree> {
        vec![
            Tree::singleton(),
            gen::path(50),
            gen::star(50),
            gen::caterpillar(10, 3),
            gen::broom(8, 12),
            gen::complete_kary(2, 6),
            gen::random_tree(200, 1),
            gen::random_tree(201, 2),
            gen::random_binary(180, 3),
            gen::random_recursive(150, 4),
        ]
    }

    #[test]
    fn common_light_depth_matches_ground_truth() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            let labeling = HpathLabeling::with_heavy_paths(&tree, &hp);
            let oracle = DistanceOracle::new(&tree);
            let n = tree.len();
            for i in 0..800 {
                let u = tree.node((i * 31) % n);
                let v = tree.node((i * 67 + 5) % n);
                let nca = oracle.lca(u, v);
                assert_eq!(
                    HpathLabel::common_light_depth(labeling.label(u), labeling.label(v)),
                    hp.light_depth(nca),
                    "u={u} v={v} nca={nca} (n={n})"
                );
            }
        }
    }

    #[test]
    fn domination_and_ancestry_match_decomposition() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            let labeling = HpathLabeling::with_heavy_paths(&tree, &hp);
            let n = tree.len();
            for i in 0..600 {
                let u = tree.node((i * 13) % n);
                let v = tree.node((i * 41 + 7) % n);
                let (lu, lv) = (labeling.label(u), labeling.label(v));
                if hp.path_of(u) != hp.path_of(v) {
                    assert_eq!(HpathLabel::dominates(lu, lv), hp.dominates(u, v));
                }
                assert_eq!(HpathLabel::is_ancestor(lu, lv), tree.is_ancestor(u, v));
                assert_eq!(HpathLabel::same_node(lu, lv), u == v);
            }
        }
    }

    #[test]
    fn branch_cmp_identifies_higher_branch() {
        // For nodes u, v whose NCA lies on a common heavy path from which both
        // branch via light edges, the lexicographically smaller next codeword
        // belongs to the side branching closer to the head.
        for tree in workloads().into_iter().filter(|t| t.len() > 10) {
            let hp = HeavyPaths::new(&tree);
            let labeling = HpathLabeling::with_heavy_paths(&tree, &hp);
            let oracle = DistanceOracle::new(&tree);
            let n = tree.len();
            for i in 0..600 {
                let u = tree.node((i * 29) % n);
                let v = tree.node((i * 59 + 3) % n);
                if u == v || tree.is_ancestor(u, v) || tree.is_ancestor(v, u) {
                    continue;
                }
                let (lu, lv) = (labeling.label(u), labeling.label(v));
                let j = HpathLabel::common_light_depth(lu, lv);
                if lu.light_depth() <= j || lv.light_depth() <= j {
                    continue;
                }
                let eu = &hp.light_edges_to(u)[j];
                let ev = &hp.light_edges_to(v)[j];
                let nca = oracle.lca(u, v);
                match HpathLabel::branch_cmp(lu, lv, j).expect("both sides branch") {
                    Ordering::Less => assert_eq!(eu.branch_node, nca),
                    Ordering::Greater => assert_eq!(ev.branch_node, nca),
                    Ordering::Equal => panic!("distinct light edges share a codeword"),
                }
            }
        }
    }

    #[test]
    fn labels_are_logarithmic() {
        // Max label size must be O(log n); assert a concrete constant that has
        // plenty of slack but still scales logarithmically.
        for n in [64usize, 256, 1024, 4096] {
            for seed in 0..3u64 {
                let tree = gen::random_tree(n, seed);
                let labeling = HpathLabeling::build(&tree);
                let log_n = (n as f64).log2();
                let bound = (14.0 * log_n + 64.0) as usize;
                assert!(
                    labeling.max_label_bits() <= bound,
                    "n={n} seed={seed}: {} bits > bound {bound}",
                    labeling.max_label_bits()
                );
            }
        }
        // Paths and stars, the extreme shapes, are also logarithmic.
        for n in [1024usize, 4096] {
            for tree in [gen::path(n), gen::star(n), gen::caterpillar(n / 2, 1)] {
                let labeling = HpathLabeling::build(&tree);
                let bound = (14.0 * (n as f64).log2() + 64.0) as usize;
                assert!(labeling.max_label_bits() <= bound, "n={n}");
            }
        }
    }

    #[test]
    fn bit_len_is_the_encoding_length() {
        let tree = gen::random_tree(150, 9);
        let labeling = HpathLabeling::build(&tree);
        for u in tree.nodes() {
            let label = labeling.label(u);
            let mut w = BitWriter::new();
            label.encode(&mut w);
            assert_eq!(label.bit_len(), w.len());
        }
    }

    #[test]
    fn singleton_tree_label() {
        let tree = Tree::singleton();
        let labeling = HpathLabeling::build(&tree);
        let l = labeling.label(tree.root());
        assert_eq!(l.light_depth(), 0);
        assert_eq!(HpathLabel::common_light_depth(l, l), 0);
        assert!(HpathLabel::is_ancestor(l, l));
        assert!(labeling.max_label_bits() > 0);
    }
}
