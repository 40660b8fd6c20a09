//! The modified-distance-array kernel (Theorem 1.1, §3.2–§3.3): packed
//! layout and query engine of [`crate::optimal::OptimalScheme`], completing
//! the codeword-LCP trio of exact schemes.
//!
//! Packed layout:
//!
//! ```text
//! [root_distance | count | frag_count | codeword length][aux scalars | codewords]
//! [fragments][records: count × (end | flag | weight | frag_idx | pushed | kept | acc_end)]
//! [accumulator bits]
//! ```
//!
//! Every per-level record fuses the codeword end position with the modified
//! distance-array entry *and* the accumulator end position (a prefix sum of
//! the per-level accumulator lengths), so the scan over the dominating side's
//! records yields `lightdepth(NCA)`, the entry and the accumulator offset in
//! one pass of fused word reads.

use crate::hpath::{AuxCoreRef, AuxDims, AuxScalars, AuxWidths};
use crate::store::StoreError;
use treelab_bits::BitSlice;

/// Width of the packed `pushed` field: `pushed ≤ 64` always fits in 7 bits.
pub(crate) const W_PUSHED: usize = 7;

/// One entry of a modified distance array (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimalEntry {
    /// The light edge is the exceptional edge of its heavy path; its value is
    /// never needed at query time and is not stored.
    Exceptional,
    /// A regular (thin or fat) light edge.
    Regular {
        /// Weight of the light edge (0 or 1 in the binarized tree).
        weight: u8,
        /// Index into the fragment distance array `F(u)` of the fragment head
        /// this entry's value is relative to.
        frag_idx: u32,
        /// Number of low-order bits pushed into the accumulators of dominated
        /// labels (0 for thin subtrees).
        pushed: u32,
        /// The kept (most significant) part of the value: `value >> pushed`.
        kept: u64,
    },
}

/// Store meta of the optimal scheme: global field widths of the packed
/// layout plus the query-side shift/mask tables, precomputed at parse time.
#[derive(Debug, Clone, Copy)]
pub struct OptimalMeta {
    pub(crate) w_rd: u8,
    pub(crate) w_fc: u8,
    pub(crate) w_frag: u8,
    pub(crate) w_fi: u8,
    pub(crate) w_kept: u8,
    pub(crate) w_ae: u8,
    pub(crate) aux_w: AuxWidths,
    rd_w: usize,
    pub(crate) frag_w: usize,
    pub(crate) hdr_total: usize,
    hdr_fused: bool,
    rd_mask: u64,
    ld_sh: u32,
    ld_mask: u64,
    fc_sh: u32,
    fc_mask: u64,
    cwl_sh: u32,
    pub(crate) rec_w: usize,
    rec_fused: bool,
    end_mask: u64,
    flag_sh: u32,
    weight_sh: u32,
    fi_sh: u32,
    fi_mask: u64,
    pushed_sh: u32,
    kept_sh: u32,
    kept_mask: u64,
    ae_sh: u32,
    aux: AuxDims,
}

impl OptimalMeta {
    pub(crate) fn with_widths(
        w_rd: u8,
        w_fc: u8,
        w_frag: u8,
        w_fi: u8,
        w_kept: u8,
        w_ae: u8,
        aux_w: AuxWidths,
    ) -> Self {
        let mask = |w: u8| crate::hpath::width_mask(usize::from(w));
        let hdr_total =
            usize::from(w_rd) + usize::from(aux_w.ld) + usize::from(w_fc) + usize::from(aux_w.end);
        let end_w = u32::from(aux_w.end);
        let rec_w = usize::from(aux_w.end)
            + 2
            + usize::from(w_fi)
            + W_PUSHED
            + usize::from(w_kept)
            + usize::from(w_ae);
        OptimalMeta {
            w_rd,
            w_fc,
            w_frag,
            w_fi,
            w_kept,
            w_ae,
            aux_w,
            rd_w: usize::from(w_rd),
            frag_w: usize::from(w_frag),
            hdr_total,
            hdr_fused: hdr_total <= 64,
            rd_mask: mask(w_rd),
            ld_sh: u32::from(w_rd),
            ld_mask: mask(aux_w.ld),
            fc_sh: u32::from(w_rd) + u32::from(aux_w.ld),
            fc_mask: mask(w_fc),
            cwl_sh: u32::from(w_rd) + u32::from(aux_w.ld) + u32::from(w_fc),
            rec_w,
            rec_fused: rec_w <= 64,
            end_mask: mask(aux_w.end),
            flag_sh: end_w,
            weight_sh: end_w + 1,
            fi_sh: end_w + 2,
            fi_mask: mask(w_fi),
            pushed_sh: end_w + 2 + u32::from(w_fi),
            kept_sh: end_w + 2 + u32::from(w_fi) + W_PUSHED as u32,
            kept_mask: mask(w_kept),
            ae_sh: end_w + 2 + u32::from(w_fi) + W_PUSHED as u32 + u32::from(w_kept),
            aux: AuxDims::new(aux_w),
        }
    }

    pub(crate) fn words(self) -> Vec<u64> {
        vec![
            u64::from(self.w_rd)
                | u64::from(self.w_fc) << 8
                | u64::from(self.w_frag) << 16
                | u64::from(self.w_fi) << 24
                | u64::from(self.w_kept) << 32
                | u64::from(self.w_ae) << 40,
            self.aux_w.to_word(),
        ]
    }

    pub(crate) fn parse(words: &[u64]) -> Result<Self, StoreError> {
        let &[w0, w1] = words else {
            return Err(StoreError::Malformed {
                what: "optimal scheme meta must be two words",
            });
        };
        let widths = [
            (w0 & 0xFF) as u8,
            (w0 >> 8 & 0xFF) as u8,
            (w0 >> 16 & 0xFF) as u8,
            (w0 >> 24 & 0xFF) as u8,
            (w0 >> 32 & 0xFF) as u8,
            (w0 >> 40 & 0xFF) as u8,
        ];
        if w0 >> 48 != 0 || widths.iter().any(|&x| x > 64) {
            return Err(StoreError::Malformed {
                what: "optimal scheme field width exceeds 64 bits",
            });
        }
        let [w_rd, w_fc, w_frag, w_fi, w_kept, w_ae] = widths;
        Ok(Self::with_widths(
            w_rd,
            w_fc,
            w_frag,
            w_fi,
            w_kept,
            w_ae,
            AuxWidths::from_word(w1)?,
        ))
    }

    /// Splits one fused header word into `(root_distance, count, fc, cwl)`.
    #[inline]
    fn unpack_header(&self, raw: u64) -> (u64, usize, usize, usize) {
        (
            raw & self.rd_mask,
            (raw >> self.ld_sh & self.ld_mask) as usize,
            (raw >> self.fc_sh & self.fc_mask) as usize,
            (raw >> self.cwl_sh) as usize,
        )
    }
}

/// Borrowed view of a packed optimal-scheme label inside a store buffer.
#[derive(Debug, Clone, Copy)]
pub struct OptimalLabelRef<'a> {
    s: BitSlice<'a>,
    start: usize,
    m: &'a OptimalMeta,
}

/// One decoded per-level record (minus the end position, consumed by the
/// scan).
#[derive(Debug, Clone, Copy)]
struct OptimalRecord {
    exceptional: bool,
    weight: u64,
    frag_idx: usize,
    pushed: u32,
    kept: u64,
    acc_end: usize,
}

/// One decoded label header: `(root_distance, count, frag_count, codeword
/// length)` — the tuple [`OptimalLabelRef::header`] returns.
type OptHeader = (u64, usize, usize, usize);

impl<'a> OptimalLabelRef<'a> {
    pub(crate) fn new(s: BitSlice<'a>, start: usize, m: &'a OptimalMeta) -> Self {
        OptimalLabelRef { s, start, m }
    }

    #[inline]
    fn get(&self, pos: usize, width: usize) -> u64 {
        treelab_bits::bitslice::read_lsb(self.s.words(), pos, width)
    }

    /// `(root_distance, count, frag_count, codeword length)` — one fused read
    /// when the widths fit.
    #[inline]
    fn header(&self) -> (u64, usize, usize, usize) {
        let m = self.m;
        if m.hdr_fused {
            m.unpack_header(self.get(self.start, m.hdr_total))
        } else {
            let ld_w = usize::from(m.aux_w.ld);
            let fc_w = usize::from(m.w_fc);
            (
                self.get(self.start, m.rd_w),
                self.get(self.start + m.rd_w, ld_w) as usize,
                self.get(self.start + m.rd_w + ld_w, fc_w) as usize,
                self.get(self.start + m.rd_w + ld_w + fc_w, usize::from(m.aux_w.end)) as usize,
            )
        }
    }

    /// Both query sides' headers as one planned load pair
    /// ([`treelab_bits::bitslice::read_lsb_pair`] on the fused fast path) —
    /// bit-identical to two [`OptimalLabelRef::header`] calls.
    #[inline]
    fn header_pair(a: &Self, b: &Self) -> (OptHeader, OptHeader) {
        let m = a.m;
        if m.hdr_fused && std::ptr::eq(a.s.words(), b.s.words()) {
            let (ra, rb) =
                treelab_bits::bitslice::read_lsb_pair(a.s.words(), a.start, b.start, m.hdr_total);
            (m.unpack_header(ra), m.unpack_header(rb))
        } else {
            (a.header(), b.header())
        }
    }

    /// The embedded core aux block (at a fixed offset).
    #[inline]
    fn aux(&self) -> AuxCoreRef<'a> {
        AuxCoreRef::new(self.s, self.start + self.m.hdr_total, &self.m.aux)
    }

    /// Decodes the non-end fields of the raw record word(s) at `pos`.
    #[inline]
    fn record_fields(&self, pos: usize, raw: u64) -> OptimalRecord {
        let m = self.m;
        if m.rec_fused {
            OptimalRecord {
                exceptional: raw >> m.flag_sh & 1 == 1,
                weight: raw >> m.weight_sh & 1,
                frag_idx: (raw >> m.fi_sh & m.fi_mask) as usize,
                pushed: (raw >> m.pushed_sh & 0x7F) as u32,
                kept: raw >> m.kept_sh & m.kept_mask,
                acc_end: (raw >> m.ae_sh) as usize,
            }
        } else {
            let base = pos + usize::from(m.aux_w.end);
            let flags = self.get(base, 2);
            let fi_w = usize::from(m.w_fi);
            let kept_w = usize::from(m.w_kept);
            OptimalRecord {
                exceptional: flags & 1 == 1,
                weight: flags >> 1,
                frag_idx: self.get(base + 2, fi_w) as usize,
                pushed: self.get(base + 2 + fi_w, W_PUSHED) as u32,
                kept: self.get(base + 2 + fi_w + W_PUSHED, kept_w),
                acc_end: self.get(base + 2 + fi_w + W_PUSHED + kept_w, usize::from(m.w_ae))
                    as usize,
            }
        }
    }

    /// Scans the records for the first end position past `lcp`, returning
    /// `(level, record, acc_end[level − 1])`.
    ///
    /// # Panics
    ///
    /// Panics when every end position is within the prefix — for labels of
    /// one build the dominating side always leaves the common heavy path.
    #[inline]
    fn scan_records(
        &self,
        ld: usize,
        rec_base: usize,
        lcp: usize,
    ) -> (usize, OptimalRecord, usize) {
        let m = self.m;
        let mut prev_acc = 0usize;
        let mut i = 0;
        while i < ld {
            let pos = rec_base + i * m.rec_w;
            let (end, raw) = if m.rec_fused {
                let raw = self.get(pos, m.rec_w);
                ((raw & m.end_mask) as usize, raw)
            } else {
                (self.get(pos, usize::from(m.aux_w.end)) as usize, 0)
            };
            let rec = self.record_fields(pos, raw);
            if end > lcp {
                return (i, rec, prev_acc);
            }
            prev_acc = rec.acc_end;
            i += 1;
        }
        panic!("dominating label leaves the common heavy path");
    }

    /// `acc_end[level]` by direct index (`0` for level `-1`).
    #[inline]
    fn acc_end_at(&self, rec_base: usize, level: usize) -> usize {
        let m = self.m;
        if m.rec_fused {
            let raw = self.get(rec_base + level * m.rec_w, m.rec_w);
            (raw >> m.ae_sh) as usize
        } else {
            self.record_fields(rec_base + level * m.rec_w, 0).acc_end
        }
    }

    #[inline]
    fn frag(&self, frag_base: usize, i: usize) -> u64 {
        self.get(frag_base + i * self.m.frag_w, self.m.frag_w)
    }
}

/// The Theorem 1.1 distance protocol over packed views (including its panics
/// on labels of different builds): one codeword LCP, one record scan on the
/// dominating side, and — only when bits were pushed — two reads into the
/// dominated side's records and accumulator region.
pub(crate) fn distance_refs(a: OptimalLabelRef<'_>, b: OptimalLabelRef<'_>) -> u64 {
    // Both headers and both aux scalar blocks decode as planned load pairs.
    let ((rd_a, lda, fca, cwl_a), (rd_b, ldb, fcb, cwl_b)) = OptimalLabelRef::header_pair(&a, &b);
    let (aa, ab) = (a.aux(), b.aux());
    let (sa, sb) = AuxCoreRef::scalars_pair(&aa, &ab);
    // Equal nodes fall under the ancestor case (|rd_a − rd_b| = 0).
    if AuxScalars::is_ancestor(&sa, &sb) || AuxScalars::is_ancestor(&sb, &sa) {
        return rd_a.abs_diff(rd_b);
    }
    let lcp = AuxCoreRef::codeword_lcp(&aa, cwl_a, &ab, cwl_b);
    // Bit pushing is asymmetric: the dominating side holds the kept bits,
    // the dominated side the pushed bits, so the domination test stays —
    // but as an index select rather than a 50/50 mispredicted branch.
    let di = usize::from(!AuxScalars::dominates(&sa, &sb));
    let refs = [&a, &b];
    let lds = [lda, ldb];
    let fcs = [fca, fcb];
    let frag_bases = [
        a.start + a.m.hdr_total + aa.core_bits(cwl_a),
        b.start + b.m.hdr_total + ab.core_bits(cwl_b),
    ];
    let (dom, dom_ld, dom_fc, dom_frag_base) = (refs[di], lds[di], fcs[di], frag_bases[di]);
    let (other, other_ld, other_fc, other_frag_base) =
        (refs[1 - di], lds[1 - di], fcs[1 - di], frag_bases[1 - di]);
    let dom_rec_base = dom_frag_base + dom_fc * dom.m.frag_w;
    let (j, rec, dom_prev_acc) = dom.scan_records(dom_ld, dom_rec_base, lcp);
    assert!(
        !rec.exceptional,
        "dominating side's entry is never exceptional for labels of one tree"
    );
    let pushed_value = if rec.pushed > 0 {
        // offset = |dom's accumulator at level j|; the dominated label's
        // level-j accumulator carries the pushed bits right after it.
        let other_rec_base = other_frag_base + other_fc * other.m.frag_w;
        let other_prev = if j == 0 {
            0
        } else {
            other.acc_end_at(other_rec_base, j - 1)
        };
        let other_acc_base = other_rec_base + other_ld * other.m.rec_w;
        let offset = rec.acc_end - dom_prev_acc;
        // Accumulator bits are a verbatim copy of the label's BitVec, so
        // the pushed value is MSB-first within the stream: reverse the
        // raw LSB-first chunk back into a value.
        let raw = other.get(other_acc_base + other_prev + offset, rec.pushed as usize);
        raw.reverse_bits() >> (64 - rec.pushed)
    } else {
        0
    };
    let value = (rec.kept << rec.pushed) | pushed_value;
    let head_rd = dom.frag(dom_frag_base, rec.frag_idx) + value;
    let rd_nca = head_rd - rec.weight;
    rd_a + rd_b - 2 * rd_nca
}

/// Load-time extent check of the optimal scheme's packed labels.
pub(crate) fn check_label(
    slice: BitSlice<'_>,
    start: usize,
    end: usize,
    meta: &OptimalMeta,
) -> bool {
    let len = end - start;
    if len < meta.hdr_total {
        return false;
    }
    let r = OptimalLabelRef::new(slice, start, meta);
    let (_, ld, fc, cwl) = r.header();
    // Fixed parts first (header, aux core, fragments, records), then the
    // accumulator total read from the last record — only once the records
    // are known to lie inside the label.
    let upto_records = meta
        .hdr_total
        .checked_add(meta.aux.widths.scalar_bits() + cwl)
        .and_then(|x| x.checked_add(fc.checked_mul(meta.frag_w)?))
        .and_then(|x| x.checked_add(ld.checked_mul(meta.rec_w)?));
    let Some(upto_records) = upto_records.filter(|&x| x <= len) else {
        return false;
    };
    let rec_base = start + upto_records - ld * meta.rec_w;
    // Range-check every record's `pushed` field (7 packed bits can claim up
    // to 127): the query shifts by `64 − pushed` and reads `pushed` bits, so
    // an inflated count in a CRC-consistent crafted frame must be rejected
    // at load time — exactly as the legacy wire decoder rejects it.
    for i in 0..ld {
        let pos = rec_base + i * meta.rec_w;
        let raw = if meta.rec_fused {
            r.get(pos, meta.rec_w)
        } else {
            0
        };
        if r.record_fields(pos, raw).pushed > 64 {
            return false;
        }
    }
    let acc_total = if ld == 0 {
        0
    } else {
        r.acc_end_at(rec_base, ld - 1)
    };
    upto_records.checked_add(acc_total) == Some(len)
}
