//! The prefix-sum kernel: the shared packed layout and query engine of the
//! two prefix-sum exact schemes — the Peleg-style fixed-width baseline
//! ([`crate::naive::NaiveScheme`]) and the Alstrup et al. distance arrays of
//! Lemma 3.1 ([`crate::distance_array::DistanceArrayScheme`]).
//!
//! Both schemes store, per light edge `i` on the root path, the head-to-head
//! distance `d_i` and the light-edge weight `t_i`; they differ only in their
//! wire encodings (and so in `label_bits`).  Packed, they share one layout
//!
//! ```text
//! [root_distance | count | codeword length][aux scalars | codewords]
//! [records: count × (end | branch_rd)]
//! ```
//!
//! where each per-level record fuses the codeword end position with
//! `branch_rd[i] = Σ_{t ≤ i} d_t − t_i` — the root distance of the node's
//! level-`i` branch node.  Storing the branch distance directly makes the
//! query *symmetric*: both sides branch off the NCA's heavy path, the NCA is
//! the higher of the two branch nodes, so `rd(NCA) = min(branch_rd_a[j],
//! branch_rd_b[j])` and the domination test of the historical struct-backed
//! query (a 50/50 mispredicted branch on random pairs) disappears.

use crate::hpath::{AuxCoreRef, AuxDims, AuxScalars, AuxWidths, HpathLabel};
use crate::store::StoreError;
use treelab_bits::{codes, BitSlice, BitWriter};

/// Store meta of the prefix-sum pair: the global field widths of the packed
/// layout plus every query-side shift/mask, precomputed once at parse time so
/// the hot path is pure shift-and-mask arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct PsumMeta {
    w_rd: u8,
    w_ps: u8,
    aux_w: AuxWidths,
    rd_w: usize,
    ps_w: usize,
    hdr_total: usize,
    hdr_fused: bool,
    rd_mask: u64,
    ld_mask: u64,
    cwl_sh: u32,
    rec_w: usize,
    rec_fused: bool,
    end_mask: u64,
    ps_sh: u32,
    aux: AuxDims,
}

impl PsumMeta {
    fn with_widths(w_rd: u8, w_ps: u8, aux_w: AuxWidths) -> Self {
        let mask = |w: u8| crate::hpath::width_mask(usize::from(w));
        let hdr_total = usize::from(w_rd) + usize::from(aux_w.ld) + usize::from(aux_w.end);
        let rec_w = usize::from(aux_w.end) + usize::from(w_ps);
        PsumMeta {
            w_rd,
            w_ps,
            aux_w,
            rd_w: usize::from(w_rd),
            ps_w: usize::from(w_ps),
            hdr_total,
            hdr_fused: hdr_total <= 64,
            rd_mask: mask(w_rd),
            ld_mask: mask(aux_w.ld),
            cwl_sh: u32::from(w_rd) + u32::from(aux_w.ld),
            rec_w,
            rec_fused: rec_w <= 64,
            end_mask: mask(aux_w.end),
            ps_sh: u32::from(aux_w.end),
            aux: AuxDims::new(aux_w),
        }
    }

    pub(crate) fn words(self) -> Vec<u64> {
        vec![
            u64::from(self.w_rd) | u64::from(self.w_ps) << 8,
            self.aux_w.to_word(),
        ]
    }

    pub(crate) fn parse(words: &[u64]) -> Result<Self, StoreError> {
        let &[w0, w1] = words else {
            return Err(StoreError::Malformed {
                what: "prefix-sum scheme meta must be two words",
            });
        };
        let (w_rd, w_ps) = ((w0 & 0xFF) as u8, (w0 >> 8 & 0xFF) as u8);
        if w0 >> 16 != 0 || w_rd > 64 || w_ps > 64 {
            return Err(StoreError::Malformed {
                what: "prefix-sum field width exceeds 64 bits",
            });
        }
        Ok(Self::with_widths(w_rd, w_ps, AuxWidths::from_word(w1)?))
    }

    /// Bits a label spans whose header reads `ld` records and a `cwl`-bit
    /// codeword string (`None` when that overflows).
    #[inline]
    fn extent(&self, ld: usize, cwl: usize) -> Option<usize> {
        (self.hdr_total + self.aux.widths.scalar_bits())
            .checked_add(cwl)?
            .checked_add(ld.checked_mul(self.rec_w)?)
    }

    /// Exact packed size in bits of a label with `entries_len` light edges.
    pub(crate) fn label_bits(&self, entries_len: usize, aux: HpathLabel<'_>) -> usize {
        self.hdr_total + self.aux_w.packed_bits_core(aux) + entries_len * self.rec_w
    }

    /// Splits one fused header word into `(root_distance, count, cwl)`.
    #[inline]
    fn unpack_header(&self, raw: u64) -> (u64, usize, usize) {
        (
            raw & self.rd_mask,
            (raw >> self.rd_w & self.ld_mask) as usize,
            (raw >> self.cwl_sh) as usize,
        )
    }

    /// Packs one label: header, core aux block, then one fused record per
    /// light edge from the `(d_i, t_i)` sequence.
    pub(crate) fn pack<I>(&self, rd: u64, aux: HpathLabel<'_>, entries: I, w: &mut BitWriter)
    where
        I: Iterator<Item = (u64, u64)>,
    {
        w.write_bits_lsb(rd, usize::from(self.w_rd));
        w.write_bits_lsb(aux.light_depth() as u64, usize::from(self.aux_w.ld));
        w.write_bits_lsb(aux.codewords_len() as u64, usize::from(self.aux_w.end));
        self.aux_w.pack_core(aux, w);
        let mut sum = 0u64;
        let ends = aux.end_positions();
        let mut count = 0usize;
        for (i, (d, t)) in entries.enumerate() {
            sum += d;
            w.write_bits_lsb(u64::from(ends[i]), usize::from(self.aux_w.end));
            // Root distance of the level-i branch node.
            w.write_bits_lsb(sum - t, usize::from(self.w_ps));
            count += 1;
        }
        debug_assert_eq!(count, aux.light_depth());
    }
}

/// Pack-time width planning: the fold over `(root_distance, Σ entries, aux)`
/// that the chunk-streaming build accumulates row by row (field-width maxima
/// are associative, so every chunking produces identical meta words).
#[derive(Debug, Default)]
pub(crate) struct PsumMeasure {
    w_rd: u8,
    w_ps: u8,
    aux_w: AuxWidths,
}

impl PsumMeasure {
    /// Grows the widths to accommodate one node.
    pub(crate) fn observe(&mut self, rd: u64, entry_total: u64, aux: HpathLabel<'_>) {
        self.w_rd = self.w_rd.max(codes::bit_len(rd) as u8);
        self.w_ps = self.w_ps.max(codes::bit_len(entry_total) as u8);
        self.aux_w.observe(aux);
    }

    /// Finishes the scan into the query-ready meta.
    pub(crate) fn finish(&self) -> PsumMeta {
        // The symmetric min-of-branch-distances query never consults the
        // domination order, so the field is packed at width 0.
        let mut aux_w = self.aux_w;
        aux_w.dom = 0;
        PsumMeta::with_widths(self.w_rd, self.w_ps, aux_w)
    }
}

/// Record counts at or below this bound scan branchlessly (fixed-trip
/// mask-accumulate over the label's own records); deeper labels keep the
/// 3-record cascade + tail record scan.
const SCAN_SHORT: usize = 8;

/// Borrowed view of one packed prefix-sum label inside a store buffer: its
/// offset-index extent `[start, end)`.
#[derive(Debug, Clone, Copy)]
pub struct PsumRef<'a> {
    s: BitSlice<'a>,
    start: usize,
    end: usize,
    m: &'a PsumMeta,
}

impl<'a> PsumRef<'a> {
    pub(crate) fn new(s: BitSlice<'a>, start: usize, end: usize, m: &'a PsumMeta) -> Self {
        PsumRef { s, start, end, m }
    }

    #[inline]
    fn get(&self, off: usize, width: usize) -> u64 {
        treelab_bits::bitslice::read_lsb(self.s.words(), self.start + off, width)
    }

    /// `(root_distance, entry count, codeword length)` — one fused read when
    /// the widths fit.
    #[inline]
    fn header(&self) -> (u64, usize, usize) {
        let m = self.m;
        if m.hdr_fused {
            m.unpack_header(self.get(0, m.hdr_total))
        } else {
            let ld_w = usize::from(m.aux_w.ld);
            (
                self.get(0, m.rd_w),
                self.get(m.rd_w, ld_w) as usize,
                self.get(m.rd_w + ld_w, usize::from(m.aux_w.end)) as usize,
            )
        }
    }

    /// Both query sides' headers as one planned load pair
    /// ([`treelab_bits::bitslice::read_lsb_pair`] on the fused fast path) —
    /// bit-identical to two [`PsumRef::header`] calls, but the two sides'
    /// field decodes share the out-of-order window.
    #[inline]
    fn header_pair(a: &Self, b: &Self) -> ((u64, usize, usize), (u64, usize, usize)) {
        let m = a.m;
        if m.hdr_fused && std::ptr::eq(a.s.words(), b.s.words()) {
            let (ra, rb) =
                treelab_bits::bitslice::read_lsb_pair(a.s.words(), a.start, b.start, m.hdr_total);
            (m.unpack_header(ra), m.unpack_header(rb))
        } else {
            (a.header(), b.header())
        }
    }

    /// The embedded core aux block (at a fixed offset: no dependent reads).
    #[inline]
    fn aux(&self) -> AuxCoreRef<'a> {
        AuxCoreRef::new(self.s, self.start + self.m.hdr_total, &self.m.aux)
    }

    /// Scans this side's records for the first end position past `lcp`,
    /// returning `(level, branch_rd)` of that record — `level` is
    /// `lightdepth(NCA)` and `branch_rd` is this side's branch-node distance
    /// — or `None` when every end lies within the prefix, which no
    /// non-ancestor label of one build does.
    #[inline]
    fn scan_records(&self, ld: usize, aux_bits: usize, lcp: usize) -> Option<(usize, u64)> {
        let m = self.m;
        let base = m.hdr_total + aux_bits;
        if m.rec_fused {
            // Short scans run fully branchless: end positions are monotone,
            // so the level is the *count* of ends ≤ lcp — a fixed-trip
            // mask-accumulate loop over the label's own records (every read
            // in-label, no data-dependent exit to mispredict) plus one
            // indexed re-read, instead of an early-`break` scan.
            if ld <= SCAN_SHORT {
                let mut j = 0usize;
                for i in 0..ld {
                    let r = self.get(base + i * m.rec_w, m.rec_w);
                    j += usize::from((r & m.end_mask) as usize <= lcp);
                }
                if j >= ld {
                    return None;
                }
                let r = self.get(base + j * m.rec_w, m.rec_w);
                return Some((j, r >> m.ps_sh));
            }
            // Branchless fast path: read the first three records
            // unconditionally (memory-safe thanks to the store's guard pad;
            // out-of-range lanes are masked by `i < ld`) and derive the level
            // as a comparison cascade — the scan's data-dependent trip count
            // is a mispredicted branch on random pairs otherwise.
            let r0 = self.get(base, m.rec_w);
            let r1 = self.get(base + m.rec_w, m.rec_w);
            let r2 = self.get(base + 2 * m.rec_w, m.rec_w);
            let e = |r: u64| (r & m.end_mask) as usize;
            let c0 = usize::from(ld > 0 && e(r0) <= lcp);
            let c1 = c0 & usize::from(ld > 1 && e(r1) <= lcp);
            let c2 = c1 & usize::from(ld > 2 && e(r2) <= lcp);
            let j = c0 + c1 + c2;
            if j < 3 {
                // ld > SCAN_SHORT, so record j exists.
                return Some((j, [r0, r1, r2][j] >> m.ps_sh));
            }
            // Deep common paths: the tail scan over records 3.. is the
            // record-scan primitive (the store's guard pad covers the last
            // straddle word).
            treelab_bits::bitslice::scan_records_gt(
                self.s.words(),
                self.start + base,
                m.rec_w,
                m.end_mask,
                lcp as u64,
                3,
                ld,
            )
            .map(|(i, raw)| (i, raw >> m.ps_sh))
        } else {
            // Oversized records: read the end field and payload separately.
            let mut i = 0;
            while i < ld {
                let pos = base + i * m.rec_w;
                if self.get(pos, usize::from(m.aux_w.end)) as usize > lcp {
                    return Some((i, self.get(pos + usize::from(m.aux_w.end), m.ps_w)));
                }
                i += 1;
            }
            None
        }
    }

    /// `branch_rd` of the record at `level` (the other side's single indexed
    /// read).
    #[inline]
    fn branch_rd_at(&self, aux_bits: usize, level: usize) -> u64 {
        let m = self.m;
        let pos = m.hdr_total + aux_bits + level * m.rec_w + usize::from(m.aux_w.end);
        self.get(pos, m.ps_w)
    }
}

/// The prefix-sum distance protocol over packed label views: the shared
/// `distance_refs` of the two prefix-sum schemes (Lemma 3.1, made
/// symmetric).  `None` is the corrupt verdict (see [`crate::kernel`]).
pub(crate) fn distance_refs(a: &PsumRef<'_>, b: &PsumRef<'_>) -> Option<u64> {
    let len_a = super::extent_len(a.s, a.start, a.end, a.m.hdr_total)?;
    let len_b = super::extent_len(b.s, b.start, b.end, b.m.hdr_total)?;
    // Both headers and both aux scalar blocks decode as planned load pairs:
    // the two sides' field chains are independent, so issuing their loads
    // together overlaps what used to be two serial decodes.
    let ((rd_a, lda, cwl_a), (rd_b, ldb, cwl_b)) = PsumRef::header_pair(a, b);
    super::exact(a.m.extent(lda, cwl_a), len_a)?;
    super::exact(b.m.extent(ldb, cwl_b), len_b)?;
    let (aa, ab) = (a.aux(), b.aux());
    let (sa, sb) = AuxCoreRef::scalars_pair(&aa, &ab);
    // Equal nodes fall under the ancestor case (|rd_a − rd_b| = 0), so no
    // separate same-node branch is needed.
    if AuxScalars::is_ancestor(&sa, &sb) || AuxScalars::is_ancestor(&sb, &sa) {
        return Some(rd_a.abs_diff(rd_b));
    }
    // One LCP over the concatenated codeword strings replaces the per-level
    // two-sided comparison; one record scan turns it into lightdepth(NCA)
    // plus this side's branch distance, and a single indexed read fetches the
    // other side's.  min() of the two is rd(NCA) — no domination branch.
    let lcp = AuxCoreRef::codeword_lcp(&aa, cwl_a, &ab, cwl_b);
    let (j, branch_a) = a.scan_records(lda, aa.core_bits(cwl_a), lcp)?;
    if j >= ldb {
        return None;
    }
    let branch_b = b.branch_rd_at(ab.core_bits(cwl_b), j);
    rd_a.checked_add(rd_b)?
        .checked_sub(branch_a.min(branch_b).checked_mul(2)?)
}
