//! The level-ancestor kernel (§3.6): packed layout and query engine of
//! [`crate::level_ancestor::LevelAncestorScheme`], queried as an exact
//! distance scheme (the §3.6 labeling is a re-phrasing of the Alstrup et al.
//! distance labels).
//!
//! Packed layout:
//!
//! ```text
//! [depth | head_offset | count | codeword length][codewords]
//! [records: count × (end | depth_sum)]
//! ```
//!
//! `depth_sum[i] = Σ_{t ≤ i} (branch_offsets[t] + 1)` — the depth of the
//! heavy-path head below light edge `i` — and each record fuses it with the
//! codeword end position, so one LCP over the codeword strings plus one
//! record scan yields the NCA depth with no per-level two-sided comparison.

use crate::store::StoreError;
use treelab_bits::BitSlice;

/// Store meta of the level-ancestor scheme: global field widths of the
/// packed layout plus the query-side shift/mask tables.
#[derive(Debug, Clone, Copy)]
pub struct LevelAncestorMeta {
    pub(crate) w_d: u8,
    pub(crate) w_ho: u8,
    pub(crate) w_ld: u8,
    pub(crate) w_end: u8,
    pub(crate) w_bs: u8,
    // Query-side quantities, precomputed once at parse time.
    pub(crate) hdr_total: usize,
    hdr_fused: bool,
    d_mask: u64,
    ho_sh: u32,
    ho_mask: u64,
    ld_sh: u32,
    ld_mask: u64,
    cwl_sh: u32,
    pub(crate) rec_w: usize,
    rec_fused: bool,
    end_mask: u64,
    bs_sh: u32,
}

impl LevelAncestorMeta {
    pub(crate) fn with_widths(w_d: u8, w_ho: u8, w_ld: u8, w_end: u8, w_bs: u8) -> Self {
        let mask = |w: u8| crate::hpath::width_mask(usize::from(w));
        let hdr_total =
            usize::from(w_d) + usize::from(w_ho) + usize::from(w_ld) + usize::from(w_end);
        let rec_w = usize::from(w_end) + usize::from(w_bs);
        LevelAncestorMeta {
            w_d,
            w_ho,
            w_ld,
            w_end,
            w_bs,
            hdr_total,
            hdr_fused: hdr_total <= 64,
            d_mask: mask(w_d),
            ho_sh: u32::from(w_d),
            ho_mask: mask(w_ho),
            ld_sh: u32::from(w_d) + u32::from(w_ho),
            ld_mask: mask(w_ld),
            cwl_sh: u32::from(w_d) + u32::from(w_ho) + u32::from(w_ld),
            rec_w,
            rec_fused: rec_w <= 64,
            end_mask: mask(w_end),
            bs_sh: u32::from(w_end),
        }
    }

    pub(crate) fn words(self) -> Vec<u64> {
        vec![
            u64::from(self.w_d)
                | u64::from(self.w_ho) << 8
                | u64::from(self.w_ld) << 16
                | u64::from(self.w_end) << 24
                | u64::from(self.w_bs) << 32,
        ]
    }

    pub(crate) fn parse(words: &[u64]) -> Result<Self, StoreError> {
        let &[w0] = words else {
            return Err(StoreError::Malformed {
                what: "level-ancestor scheme meta must be one word",
            });
        };
        let widths = [
            (w0 & 0xFF) as u8,
            (w0 >> 8 & 0xFF) as u8,
            (w0 >> 16 & 0xFF) as u8,
            (w0 >> 24 & 0xFF) as u8,
            (w0 >> 32 & 0xFF) as u8,
        ];
        if w0 >> 40 != 0 || widths.iter().any(|&x| x > 64) {
            return Err(StoreError::Malformed {
                what: "level-ancestor field width exceeds 64 bits",
            });
        }
        let [w_d, w_ho, w_ld, w_end, w_bs] = widths;
        Ok(Self::with_widths(w_d, w_ho, w_ld, w_end, w_bs))
    }

    /// Splits one fused header word into
    /// `(depth, head_offset, light_depth, cwl)`.
    #[inline]
    fn unpack_header(&self, raw: u64) -> (u64, u64, usize, usize) {
        (
            raw & self.d_mask,
            raw >> self.ho_sh & self.ho_mask,
            (raw >> self.ld_sh & self.ld_mask) as usize,
            (raw >> self.cwl_sh) as usize,
        )
    }
}

/// Record counts at or below this bound scan branchlessly (fixed-trip
/// mask-accumulate over the label's own records); deeper labels keep the
/// 3-record cascade + serial tail.
const SCAN_SHORT: usize = 8;

/// Borrowed view of a packed level-ancestor label inside a store buffer.
#[derive(Debug, Clone, Copy)]
pub struct LevelAncestorLabelRef<'a> {
    s: BitSlice<'a>,
    start: usize,
    m: &'a LevelAncestorMeta,
}

/// One decoded label header: `(depth, head_offset, light_depth, codeword
/// length)` — the tuple [`LevelAncestorLabelRef::header`] returns.
type LaHeader = (u64, u64, usize, usize);

impl<'a> LevelAncestorLabelRef<'a> {
    pub(crate) fn new(s: BitSlice<'a>, start: usize, m: &'a LevelAncestorMeta) -> Self {
        LevelAncestorLabelRef { s, start, m }
    }

    #[inline]
    fn get(&self, pos: usize, width: usize) -> u64 {
        treelab_bits::bitslice::read_lsb(self.s.words(), pos, width)
    }

    /// `(depth, head_offset, light_depth, codeword length)` — one fused read
    /// when the widths fit.
    #[inline]
    pub(crate) fn header(&self) -> (u64, u64, usize, usize) {
        let m = self.m;
        if m.hdr_fused {
            m.unpack_header(self.get(self.start, m.hdr_total))
        } else {
            let (dw, how, ldw) = (usize::from(m.w_d), usize::from(m.w_ho), usize::from(m.w_ld));
            (
                self.get(self.start, dw),
                self.get(self.start + dw, how),
                self.get(self.start + dw + how, ldw) as usize,
                self.get(self.start + dw + how + ldw, usize::from(m.w_end)) as usize,
            )
        }
    }

    /// Both query sides' headers as one planned load pair
    /// ([`treelab_bits::bitslice::read_lsb_pair`] on the fused fast path) —
    /// bit-identical to two [`LevelAncestorLabelRef::header`] calls.
    #[inline]
    fn header_pair(a: &Self, b: &Self) -> (LaHeader, LaHeader) {
        let m = a.m;
        if m.hdr_fused && std::ptr::eq(a.s.words(), b.s.words()) {
            let (ra, rb) =
                treelab_bits::bitslice::read_lsb_pair(a.s.words(), a.start, b.start, m.hdr_total);
            (m.unpack_header(ra), m.unpack_header(rb))
        } else {
            (a.header(), b.header())
        }
    }

    /// Absolute bit offset of the codeword region (fixed).
    #[inline]
    fn cw_base(&self) -> usize {
        self.start + self.m.hdr_total
    }

    /// The raw codeword bit at position `pos` of the codeword string
    /// (MSB-first stream order, used by the label materializer).
    #[inline]
    pub(crate) fn cw_bit(&self, pos: usize) -> bool {
        self.get(self.cw_base() + pos, 1) == 1
    }

    /// `(end, depth_sum)` of record `i` (used by the label materializer).
    #[inline]
    pub(crate) fn record(&self, cwl: usize, i: usize) -> (usize, u64) {
        let m = self.m;
        let pos = self.cw_base() + cwl + i * m.rec_w;
        if m.rec_fused {
            let raw = self.get(pos, m.rec_w);
            ((raw & m.end_mask) as usize, raw >> m.bs_sh)
        } else {
            (
                self.get(pos, usize::from(m.w_end)) as usize,
                self.get(pos + usize::from(m.w_end), usize::from(m.w_bs)),
            )
        }
    }

    /// Scans the records for the first end position past `lcp`, returning
    /// `(level, depth_sum[level − 1], depth_sum[level])`; the third value is
    /// `None` when every end position is within the prefix (`level == ld`).
    #[inline]
    fn scan_records(&self, ld: usize, rec_base: usize, lcp: usize) -> (usize, u64, Option<u64>) {
        let m = self.m;
        if m.rec_fused {
            // Short scans run fully branchless: end positions are monotone,
            // so the level is the count of ends ≤ lcp — a fixed-trip
            // mask-accumulate loop (no data-dependent exit) plus indexed
            // re-reads for the two depth sums the protocol needs.
            if ld <= SCAN_SHORT {
                let mut j = 0usize;
                for i in 0..ld {
                    let r = self.get(rec_base + i * m.rec_w, m.rec_w);
                    j += usize::from((r & m.end_mask) as usize <= lcp);
                }
                let prev = if j > 0 {
                    self.get(rec_base + (j - 1) * m.rec_w, m.rec_w) >> m.bs_sh
                } else {
                    0
                };
                if j >= ld {
                    return (ld, prev, None);
                }
                let cur = self.get(rec_base + j * m.rec_w, m.rec_w) >> m.bs_sh;
                return (j, prev, Some(cur));
            }
            // Branchless fast path over the first three records (see the
            // prefix-sum kernel); the tail loop handles deeper levels.
            let r0 = self.get(rec_base, m.rec_w);
            let r1 = self.get(rec_base + m.rec_w, m.rec_w);
            let r2 = self.get(rec_base + 2 * m.rec_w, m.rec_w);
            let e = |r: u64| (r & m.end_mask) as usize;
            let bs = |r: u64| r >> m.bs_sh;
            let c0 = usize::from(ld > 0 && e(r0) <= lcp);
            let c1 = c0 & usize::from(ld > 1 && e(r1) <= lcp);
            let c2 = c1 & usize::from(ld > 2 && e(r2) <= lcp);
            let j = c0 + c1 + c2;
            if j < 3 {
                let prev = [0, bs(r0), bs(r1)][j];
                if j >= ld {
                    return (ld, prev, None);
                }
                return (j, prev, Some(bs([r0, r1, r2][j])));
            }
            let mut prev = bs(r2);
            let mut i = 3;
            while i < ld {
                let raw = self.get(rec_base + i * m.rec_w, m.rec_w);
                if e(raw) > lcp {
                    return (i, prev, Some(bs(raw)));
                }
                prev = bs(raw);
                i += 1;
            }
            (ld, prev, None)
        } else {
            let mut prev = 0u64;
            let mut i = 0;
            while i < ld {
                let pos = rec_base + i * m.rec_w;
                let end = self.get(pos, usize::from(m.w_end)) as usize;
                let bsum = self.get(pos + usize::from(m.w_end), usize::from(m.w_bs));
                if end > lcp {
                    return (i, prev, Some(bsum));
                }
                prev = bsum;
                i += 1;
            }
            (ld, prev, None)
        }
    }

    /// `depth_sum[level]` by direct index (the other side's single read).
    #[inline]
    fn depth_sum_at(&self, rec_base: usize, level: usize) -> u64 {
        let m = self.m;
        self.get(
            rec_base + level * m.rec_w + usize::from(m.w_end),
            usize::from(m.w_bs),
        )
    }
}

/// The §3.6 distance protocol over packed views: one codeword LCP, one
/// record scan on side `a`, one indexed read on side `b` (the shared
/// `depth_sum[j − 1]` makes the exits symmetric).
pub(crate) fn distance_refs(a: LevelAncestorLabelRef<'_>, b: LevelAncestorLabelRef<'_>) -> u64 {
    // Both headers decode as one planned load pair — the two sides' field
    // chains are independent, so their loads overlap.
    let ((depth_a, ho_a, lda, cwl_a), (depth_b, ho_b, ldb, cwl_b)) =
        LevelAncestorLabelRef::header_pair(&a, &b);
    let lcp = treelab_bits::bitslice::common_prefix_len_raw(
        a.s.words(),
        a.cw_base(),
        cwl_a,
        b.s.words(),
        b.cw_base(),
        cwl_b,
    );
    let rec_base_a = a.cw_base() + cwl_a;
    let (j, head_depth, bsum_a_j) = a.scan_records(lda, rec_base_a, lcp);
    // Both sides share the first j light edges, so depth_sum[j − 1] is
    // common; each side's exit is its level-j branch offset, or its own
    // head offset when it ends on the common path.
    let exit_a = match bsum_a_j {
        Some(bs) => bs - head_depth - 1,
        None => ho_a,
    };
    let exit_b = if j < ldb {
        b.depth_sum_at(b.cw_base() + cwl_b, j) - head_depth - 1
    } else {
        ho_b
    };
    let nca_depth = head_depth + exit_a.min(exit_b);
    depth_a + depth_b - 2 * nca_depth
}

/// Load-time extent check of the level-ancestor scheme's packed labels.
pub(crate) fn check_label(
    slice: BitSlice<'_>,
    start: usize,
    end: usize,
    meta: &LevelAncestorMeta,
) -> bool {
    let len = end - start;
    if len < meta.hdr_total {
        return false;
    }
    let r = LevelAncestorLabelRef::new(slice, start, meta);
    let (_, _, ld, cwl) = r.header();
    matches!(
        ld.checked_mul(meta.rec_w)
            .and_then(|recs| recs.checked_add(meta.hdr_total + cwl)),
        Some(total) if total == len
    )
}
