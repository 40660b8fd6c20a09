//! The `k`-distance kernel (Theorem 1.3, §4.3–§4.4): packed layout and query
//! engine of [`crate::kdistance::KDistanceScheme`].
//!
//! Packed layout:
//!
//! ```text
//! [count | up_count | down_count | alpha | alpha_exact | top_pos_mod | codeword length]
//! [dists[0..count]][heights[0..count]][up_exps][down_exps][aux label]
//! ```
//!
//! The query decomposes `d(u,v) = d(u,u') + d(u',v') + d(v,v')` where `u'`,
//! `v'` are the deepest ancestors of `u`, `v` on the NCA's heavy path; the
//! along-the-path term comes from exact offsets when available and from the
//! Lemma 4.5 two-approximation tables when both offsets were capped.

use crate::hpath::{AuxDims, AuxScalars, AuxWidths, HpathRef};
use crate::store::StoreError;
use treelab_bits::wordram::{range_id_from_member, two_approx_exp};
use treelab_bits::BitSlice;

/// Offset of a node within the common heavy path, as reconstructible from a
/// single label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathOffset {
    /// The exact offset.
    Exact(u64),
    /// Only known to be at least `2k+1` (the capped case).
    CappedLarge,
}

/// Store meta of the `k`-distance scheme: `k` (the header parameter), the
/// preorder width, and the global field widths of the packed layout.
#[derive(Debug, Clone, Copy)]
pub struct KDistanceMeta {
    pub(crate) k: u64,
    width: u32,
    pub(crate) w_sc: u8,
    pub(crate) w_d: u8,
    pub(crate) w_h: u8,
    pub(crate) w_al: u8,
    pub(crate) w_tpm: u8,
    pub(crate) w_ue: u8,
    pub(crate) w_de: u8,
    pub(crate) w_uc: u8,
    pub(crate) w_dc: u8,
    pub(crate) aux_w: AuxWidths,
    // Query-side quantities, precomputed once at parse time.
    pub(crate) d_w: usize,
    pub(crate) h_w: usize,
    pub(crate) ue_w: usize,
    pub(crate) de_w: usize,
    pub(crate) hdr_total: usize,
    hdr_fused: bool,
    sc_mask: u64,
    uc_sh: u32,
    uc_mask: u64,
    dc_sh: u32,
    dc_mask: u64,
    al_sh: u32,
    al_mask: u64,
    exact_sh: u32,
    tpm_sh: u32,
    tpm_mask: u64,
    cwl_sh: u32,
    pub(crate) aux: AuxDims,
}

impl KDistanceMeta {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_widths(
        k: u64,
        width: u32,
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
    ) -> Self {
        let mask = |w: u8| crate::hpath::width_mask(usize::from(w));
        let hdr_total = usize::from(w_sc)
            + usize::from(w_uc)
            + usize::from(w_dc)
            + usize::from(w_al)
            + 1
            + usize::from(w_tpm)
            + usize::from(aux_w.end);
        KDistanceMeta {
            k,
            width,
            w_sc,
            w_d,
            w_h,
            w_al,
            w_tpm,
            w_ue,
            w_de,
            w_uc,
            w_dc,
            aux_w,
            d_w: usize::from(w_d),
            h_w: usize::from(w_h),
            ue_w: usize::from(w_ue),
            de_w: usize::from(w_de),
            hdr_total,
            hdr_fused: hdr_total <= 64,
            sc_mask: mask(w_sc),
            uc_sh: u32::from(w_sc),
            uc_mask: mask(w_uc),
            dc_sh: u32::from(w_sc) + u32::from(w_uc),
            dc_mask: mask(w_dc),
            al_sh: u32::from(w_sc) + u32::from(w_uc) + u32::from(w_dc),
            al_mask: mask(w_al),
            exact_sh: u32::from(w_sc) + u32::from(w_uc) + u32::from(w_dc) + u32::from(w_al),
            tpm_sh: u32::from(w_sc) + u32::from(w_uc) + u32::from(w_dc) + u32::from(w_al) + 1,
            tpm_mask: mask(w_tpm),
            cwl_sh: u32::from(w_sc)
                + u32::from(w_uc)
                + u32::from(w_dc)
                + u32::from(w_al)
                + 1
                + u32::from(w_tpm),
            aux: AuxDims::new(aux_w),
        }
    }

    /// Splits a fused header word into the six scalar header fields plus the
    /// codeword length.
    #[inline]
    fn unpack_header(&self, raw: u64) -> (usize, usize, usize, u64, bool, u64, usize) {
        (
            (raw & self.sc_mask) as usize,
            (raw >> self.uc_sh & self.uc_mask) as usize,
            (raw >> self.dc_sh & self.dc_mask) as usize,
            raw >> self.al_sh & self.al_mask,
            raw >> self.exact_sh & 1 == 1,
            raw >> self.tpm_sh & self.tpm_mask,
            (raw >> self.cwl_sh) as usize,
        )
    }

    pub(crate) fn words(self) -> Vec<u64> {
        vec![
            u64::from(self.width)
                | u64::from(self.w_sc) << 8
                | u64::from(self.w_d) << 16
                | u64::from(self.w_h) << 24
                | u64::from(self.w_al) << 32
                | u64::from(self.w_tpm) << 40
                | u64::from(self.w_ue) << 48
                | u64::from(self.w_de) << 56,
            u64::from(self.w_uc) | u64::from(self.w_dc) << 8,
            self.aux_w.to_word(),
        ]
    }

    pub(crate) fn parse(param: u64, words: &[u64]) -> Result<Self, StoreError> {
        let &[w0, w1, w2] = words else {
            return Err(StoreError::Malformed {
                what: "k-distance scheme meta must be three words",
            });
        };
        if param == 0 {
            return Err(StoreError::Malformed {
                what: "k-distance scheme parameter k must be at least 1",
            });
        }
        let width = (w0 & 0xFF) as u32;
        if width > 63 {
            return Err(StoreError::Malformed {
                what: "k-distance preorder width exceeds 63 bits",
            });
        }
        let widths = [
            (w0 >> 8 & 0xFF) as u8,
            (w0 >> 16 & 0xFF) as u8,
            (w0 >> 24 & 0xFF) as u8,
            (w0 >> 32 & 0xFF) as u8,
            (w0 >> 40 & 0xFF) as u8,
            (w0 >> 48 & 0xFF) as u8,
            (w0 >> 56) as u8,
            (w1 & 0xFF) as u8,
            (w1 >> 8 & 0xFF) as u8,
        ];
        if w1 >> 16 != 0 || widths.iter().any(|&x| x > 64) {
            return Err(StoreError::Malformed {
                what: "k-distance field width exceeds 64 bits",
            });
        }
        let [w_sc, w_d, w_h, w_al, w_tpm, w_ue, w_de, w_uc, w_dc] = widths;
        Ok(Self::with_widths(
            param,
            width,
            w_sc,
            w_d,
            w_h,
            w_al,
            w_tpm,
            w_ue,
            w_de,
            w_uc,
            w_dc,
            AuxWidths::from_word(w2)?,
        ))
    }
}

/// Borrowed view of a packed `k`-distance label inside a store buffer.
#[derive(Debug, Clone, Copy)]
pub struct KDistanceLabelRef<'a> {
    s: BitSlice<'a>,
    start: usize,
    m: &'a KDistanceMeta,
}

/// Derived bit offsets of one packed `k`-distance label (computed once per
/// query side).
#[derive(Debug, Clone, Copy)]
struct KdLayout {
    sc: usize,
    uc: usize,
    dc: usize,
    alpha: u64,
    alpha_exact: bool,
    top_pos_mod: u64,
    cwl: usize,
    dists_base: usize,
    heights_base: usize,
    ups_base: usize,
    downs_base: usize,
    aux_base: usize,
}

impl<'a> KDistanceLabelRef<'a> {
    pub(crate) fn new(s: BitSlice<'a>, start: usize, m: &'a KDistanceMeta) -> Self {
        KDistanceLabelRef { s, start, m }
    }

    #[inline]
    fn get(&self, pos: usize, width: usize) -> u64 {
        treelab_bits::bitslice::read_lsb(self.s.words(), pos, width)
    }

    fn layout(&self) -> KdLayout {
        let m = self.m;
        // One fused read covers all six scalar header fields when they fit.
        let fields = if m.hdr_fused {
            let raw = self.get(self.start, m.hdr_total);
            m.unpack_header(raw)
        } else {
            let mut pos = self.start;
            let mut take = |width: u8| {
                let v = self.get(pos, usize::from(width));
                pos += usize::from(width);
                v
            };
            let sc = take(m.w_sc) as usize;
            let uc = take(m.w_uc) as usize;
            let dc = take(m.w_dc) as usize;
            let alpha = take(m.w_al);
            let exact = take(1) == 1;
            let tpm = take(m.w_tpm);
            let cwl = take(m.aux_w.end) as usize;
            (sc, uc, dc, alpha, exact, tpm, cwl)
        };
        self.layout_from_fields(fields)
    }

    /// Derives the array base offsets from the decoded header fields.
    #[inline]
    fn layout_from_fields(
        &self,
        (sc, uc, dc, alpha, alpha_exact, top_pos_mod, cwl): (
            usize,
            usize,
            usize,
            u64,
            bool,
            u64,
            usize,
        ),
    ) -> KdLayout {
        let m = self.m;
        let dists_base = self.start + m.hdr_total;
        let heights_base = dists_base + sc * m.d_w;
        let ups_base = heights_base + sc * m.h_w;
        let downs_base = ups_base + uc * m.ue_w;
        let aux_base = downs_base + dc * m.de_w;
        KdLayout {
            sc,
            uc,
            dc,
            alpha,
            alpha_exact,
            top_pos_mod,
            cwl,
            dists_base,
            heights_base,
            ups_base,
            downs_base,
            aux_base,
        }
    }

    /// [`KDistanceLabelRef::layout`] of both query sides, with the two fused
    /// header reads issued as one planned load pair (bit-identical; falls
    /// back across distinct buffers or unfused headers).
    #[inline]
    fn layout_pair(a: &Self, b: &Self) -> (KdLayout, KdLayout) {
        let m = a.m;
        if m.hdr_fused && std::ptr::eq(a.s.words(), b.s.words()) {
            let (ra, rb) =
                treelab_bits::bitslice::read_lsb_pair(a.s.words(), a.start, b.start, m.hdr_total);
            (
                a.layout_from_fields(m.unpack_header(ra)),
                b.layout_from_fields(m.unpack_header(rb)),
            )
        } else {
            (a.layout(), b.layout())
        }
    }

    #[inline]
    fn aux(&self, l: &KdLayout) -> HpathRef<'a> {
        HpathRef::new(self.s, l.aux_base, &self.m.aux)
    }

    #[inline]
    fn dist(&self, l: &KdLayout, i: usize) -> u64 {
        self.get(l.dists_base + i * self.m.d_w, self.m.d_w)
    }

    #[inline]
    fn height(&self, l: &KdLayout, i: usize) -> u64 {
        self.get(l.heights_base + i * self.m.h_w, self.m.h_w)
    }

    #[inline]
    fn up_exp(&self, l: &KdLayout, i: usize) -> u64 {
        self.get(l.ups_base + i * self.m.ue_w, self.m.ue_w)
    }

    #[inline]
    fn down_exp(&self, l: &KdLayout, i: usize) -> u64 {
        self.get(l.downs_base + i * self.m.de_w, self.m.de_w)
    }

    /// Numeric range identifier `id(L_{uᵢ})` of the `i`-th stored significant
    /// ancestor, reconstructed from the aux label's preorder and the stored
    /// height (Observation 4.2.1).
    #[inline]
    fn ancestor_id(&self, l: &KdLayout, pre: u64, i: usize) -> u64 {
        range_id_from_member(pre, self.height(l, i) as u32)
    }

    /// Offset of this side's ancestor on the common heavy path, where `idx`
    /// is that ancestor's index in the stored sequences.
    #[inline]
    fn path_offset(&self, l: &KdLayout, idx: usize) -> PathOffset {
        if idx + 1 < l.sc {
            PathOffset::Exact(self.dist(l, idx + 1) - self.dist(l, idx) - 1)
        } else if l.alpha_exact {
            PathOffset::Exact(l.alpha)
        } else {
            PathOffset::CappedLarge
        }
    }
}

/// Distance along the common heavy path between the two ancestors, via
/// Lemma 4.5 (both offsets capped; both ancestors are top significant
/// ancestors on the same heavy path).  `None` means "more than `k`".
#[allow(clippy::too_many_arguments)]
fn lemma_4_5(
    a: &KDistanceLabelRef<'_>,
    la: &KdLayout,
    pre_a: u64,
    ia: usize,
    b: &KDistanceLabelRef<'_>,
    lb: &KdLayout,
    pre_b: u64,
    ib: usize,
) -> Option<u64> {
    let k = a.m.k;
    let id_a = a.ancestor_id(la, pre_a, ia);
    let id_b = b.ancestor_id(lb, pre_b, ib);
    if id_a == id_b {
        return Some(0);
    }
    // x = the side whose ancestor is closer to the head (smaller id).
    let (x, lx, y, ly, id_x, id_y) = if id_a < id_b {
        (a, la, b, lb, id_a, id_b)
    } else {
        (b, lb, a, la, id_b, id_a)
    };
    let modulus = k + 1;
    let t = (ly.top_pos_mod + modulus - lx.top_pos_mod) % modulus;
    if t == 0 {
        // Positions congruent but identifiers differ: the gap is at least
        // k + 1.
        return None;
    }
    let t_idx = (t - 1) as usize;
    if t_idx >= lx.uc || t_idx >= ly.dc {
        // The table does not extend to t: the true gap cannot equal t, so
        // it is at least t + k + 1 > k.
        return None;
    }
    let up = x.up_exp(lx, t_idx);
    let down = y.down_exp(ly, t_idx);
    let whole = u64::from(two_approx_exp(id_y - id_x));
    if up == whole && down == whole {
        Some(t)
    } else {
        None
    }
}

/// The Theorem 1.3 bounded-distance protocol over packed views:
/// `Some(d(u,v))` when the distance is at most `k`, `None` otherwise.
pub(crate) fn distance_refs(a: &KDistanceLabelRef<'_>, b: &KDistanceLabelRef<'_>) -> Option<u64> {
    // Both headers and both aux scalar blocks decode as planned load pairs.
    let (la, lb) = KDistanceLabelRef::layout_pair(a, b);
    let (aa, ab) = (a.aux(&la), b.aux(&lb));
    let (sa, sb) = HpathRef::scalars_pair(&aa, &ab);
    if AuxScalars::same_node(&sa, &sb) {
        return Some(0);
    }
    let j = HpathRef::common_light_depth(&aa, &sa, la.cwl, &ab, &sb, lb.cwl);
    let k = a.m.k;
    // Index of each side's deepest ancestor on the NCA's heavy path.
    let ia = sa.ld - j;
    let ib = sb.ld - j;
    if ia >= la.sc || ib >= lb.sc {
        // The walk to the common heavy path alone exceeds k.
        return None;
    }
    let du = a.dist(&la, ia);
    let dv = b.dist(&lb, ib);
    let along = match (a.path_offset(&la, ia), b.path_offset(&lb, ib)) {
        (PathOffset::Exact(x), PathOffset::Exact(y)) => x.abs_diff(y),
        (PathOffset::CappedLarge, PathOffset::Exact(e))
        | (PathOffset::Exact(e), PathOffset::CappedLarge) => {
            // The capped side is at offset ≥ 2k+1.  If the exact side's
            // offset is ≤ k the gap exceeds k; otherwise both sides are top
            // significant ancestors and Lemma 4.5 applies.
            if e <= k {
                return None;
            }
            lemma_4_5(a, &la, sa.pre, ia, b, &lb, sb.pre, ib)?
        }
        (PathOffset::CappedLarge, PathOffset::CappedLarge) => {
            lemma_4_5(a, &la, sa.pre, ia, b, &lb, sb.pre, ib)?
        }
    };
    let total = du + dv + along;
    if total <= k {
        Some(total)
    } else {
        None
    }
}

/// The paper's nearest-common-significant-ancestor computation (§4.3) over
/// packed views: aligns the two stored significant-ancestor sequences by
/// light depth and returns the light depth of the deepest pair with equal
/// range identifiers, or `None` when no stored ancestors match.
pub(crate) fn ncsa_light_depth_refs(
    a: &KDistanceLabelRef<'_>,
    b: &KDistanceLabelRef<'_>,
) -> Option<usize> {
    let (la, lb) = (a.layout(), b.layout());
    let (sa, sb) = (a.aux(&la).scalars(), b.aux(&lb).scalars());
    let mut best: Option<usize> = None;
    for i in 0..la.sc {
        let depth_a = sa.ld.checked_sub(i)?;
        // b's ancestor at the same light depth has index ldb - depth_a.
        let Some(jj) = sb.ld.checked_sub(depth_a) else {
            continue;
        };
        if jj >= lb.sc {
            continue;
        }
        let (ha, hb) = (a.height(&la, i), b.height(&lb, jj));
        let ida = a.ancestor_id(&la, sa.pre, i);
        let idb = b.ancestor_id(&lb, sb.pre, jj);
        if ida == idb && ha == hb {
            best = Some(best.map_or(depth_a, |d: usize| d.max(depth_a)));
        }
    }
    best
}

/// Load-time extent check of the `k`-distance scheme's packed labels.
pub(crate) fn check_label(
    slice: BitSlice<'_>,
    start: usize,
    end: usize,
    meta: &KDistanceMeta,
) -> bool {
    let len = end - start;
    if len < meta.hdr_total {
        return false;
    }
    // Checked re-derivation of the array extents (layout() itself uses
    // unchecked address arithmetic, safe only for validated labels).
    let r = KDistanceLabelRef::new(slice, start, meta);
    let sc = r.get(start, usize::from(meta.w_sc)) as usize;
    let uc = r.get(start + usize::from(meta.w_sc), usize::from(meta.w_uc)) as usize;
    let dc = r.get(
        start + usize::from(meta.w_sc) + usize::from(meta.w_uc),
        usize::from(meta.w_dc),
    ) as usize;
    let cwl = r.get(
        start + meta.hdr_total - usize::from(meta.aux_w.end),
        usize::from(meta.aux_w.end),
    ) as usize;
    let fixed = meta
        .hdr_total
        .checked_add(sc.saturating_mul(meta.d_w + meta.h_w))
        .and_then(|x| x.checked_add(uc.checked_mul(meta.ue_w)?))
        .and_then(|x| x.checked_add(dc.checked_mul(meta.de_w)?));
    let Some(fixed) = fixed.filter(|&f| f <= len) else {
        return false;
    };
    let aux = HpathRef::new(slice, start + fixed, &meta.aux);
    match aux.extent_bits(len - fixed) {
        Some((total, cw)) => fixed + total == len && cw == cwl,
        None => false,
    }
}
