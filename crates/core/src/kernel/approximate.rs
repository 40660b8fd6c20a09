//! The `(1+ε)`-approximate kernel (Theorem 1.4, §5.2): packed layout and
//! query engine of [`crate::approximate::ApproximateScheme`].
//!
//! Packed layout: `[root_distance][count][exponents[0..count]][aux label]`,
//! with the exact ε carried bit-exact through the store header so packed
//! queries reproduce the in-memory estimates digit for digit.

use crate::hpath::{AuxDims, AuxScalars, AuxWidths, HpathRef};
use crate::store::StoreError;
use treelab_bits::BitSlice;

/// Rounds `d ≥ 1` up to the smallest value of the form `⌈(1+eps)^e⌉` and
/// returns the exponent `e`.  Deterministic, shared by packer and query.
pub(crate) fn round_up_exponent(d: u64, eps: f64) -> u64 {
    debug_assert!(d >= 1);
    let mut e = 0u64;
    while exponent_value(e, eps) < d {
        e += 1;
    }
    e
}

/// The value represented by exponent `e`: `⌈(1+eps)^e⌉`.
pub(crate) fn exponent_value(e: u64, eps: f64) -> u64 {
    (1.0 + eps).powi(e as i32).ceil() as u64
}

/// Entries in the precomputed exponent-value table.
const EXP_TABLE: usize = 128;

/// Store meta of the approximate scheme: global field widths of the packed
/// layout plus the exact ε and a precomputed rounding table.
#[derive(Debug, Clone, Copy)]
pub struct ApproximateMeta {
    pub(crate) w_rd: u8,
    pub(crate) w_ec: u8,
    pub(crate) w_e: u8,
    pub(crate) aux_w: AuxWidths,
    epsilon: f64,
    // Query-side quantities, precomputed once at parse time.
    rd_w: usize,
    pub(crate) e_w: usize,
    pub(crate) hdr_total: usize,
    hdr_fused: bool,
    rd_mask: u64,
    ec_mask: u64,
    cwl_sh: u32,
    pub(crate) aux: AuxDims,
    /// `⌈(1 + ε/2)^t⌉` for `t = 0 … 127`, precomputed at parse time so the
    /// query's rounding lookup is one indexed load instead of a serial
    /// floating-point `powi` chain (exponents above the table fall back).
    exp_table: [u64; EXP_TABLE],
}

impl ApproximateMeta {
    pub(crate) fn with_widths(w_rd: u8, w_ec: u8, w_e: u8, aux_w: AuxWidths, epsilon: f64) -> Self {
        let hdr_total = usize::from(w_rd) + usize::from(w_ec) + usize::from(aux_w.end);
        let mut exp_table = [0u64; EXP_TABLE];
        for (t, slot) in exp_table.iter_mut().enumerate() {
            *slot = exponent_value(t as u64, epsilon / 2.0);
        }
        ApproximateMeta {
            w_rd,
            w_ec,
            w_e,
            aux_w,
            epsilon,
            rd_w: usize::from(w_rd),
            e_w: usize::from(w_e),
            hdr_total,
            hdr_fused: hdr_total <= 64,
            rd_mask: crate::hpath::width_mask(usize::from(w_rd)),
            ec_mask: crate::hpath::width_mask(usize::from(w_ec)),
            cwl_sh: u32::from(w_rd) + u32::from(w_ec),
            aux: AuxDims::new(aux_w),
            exp_table,
        }
    }

    /// `exponent_value(e, ε/2)` through the table (bit-identical fallback
    /// beyond it).
    #[inline]
    fn exponent_value_cached(&self, e: u64) -> u64 {
        if (e as usize) < EXP_TABLE {
            self.exp_table[e as usize]
        } else {
            exponent_value(e, self.epsilon / 2.0)
        }
    }

    pub(crate) fn words(self) -> Vec<u64> {
        vec![
            u64::from(self.w_rd) | u64::from(self.w_ec) << 8 | u64::from(self.w_e) << 16,
            self.aux_w.to_word(),
        ]
    }

    /// Splits a fused header word into `(root_distance, count, cw_len)`.
    #[inline]
    fn unpack_header(&self, raw: u64) -> (u64, usize, usize) {
        (
            raw & self.rd_mask,
            (raw >> self.rd_w & self.ec_mask) as usize,
            (raw >> self.cwl_sh) as usize,
        )
    }

    pub(crate) fn parse(param: u64, words: &[u64]) -> Result<Self, StoreError> {
        let &[w0, w1] = words else {
            return Err(StoreError::Malformed {
                what: "approximate scheme meta must be two words",
            });
        };
        let epsilon = f64::from_bits(param);
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(StoreError::Malformed {
                what: "approximate scheme ε outside (0, 1]",
            });
        }
        let widths = [
            (w0 & 0xFF) as u8,
            (w0 >> 8 & 0xFF) as u8,
            (w0 >> 16 & 0xFF) as u8,
        ];
        if w0 >> 24 != 0 || widths.iter().any(|&x| x > 64) {
            return Err(StoreError::Malformed {
                what: "approximate scheme field width exceeds 64 bits",
            });
        }
        let [w_rd, w_ec, w_e] = widths;
        Ok(Self::with_widths(
            w_rd,
            w_ec,
            w_e,
            AuxWidths::from_word(w1)?,
            epsilon,
        ))
    }
}

/// Borrowed view of a packed approximate-scheme label inside a store buffer.
#[derive(Debug, Clone, Copy)]
pub struct ApproximateLabelRef<'a> {
    s: BitSlice<'a>,
    start: usize,
    m: &'a ApproximateMeta,
}

impl<'a> ApproximateLabelRef<'a> {
    pub(crate) fn new(s: BitSlice<'a>, start: usize, m: &'a ApproximateMeta) -> Self {
        ApproximateLabelRef { s, start, m }
    }

    #[inline]
    fn get(&self, pos: usize, width: usize) -> u64 {
        treelab_bits::bitslice::read_lsb(self.s.words(), pos, width)
    }

    /// `(root_distance, exponent count, codeword length)` — one fused read
    /// when the widths fit.
    #[inline]
    fn header(&self) -> (u64, usize, usize) {
        let m = self.m;
        if m.hdr_fused {
            let raw = self.get(self.start, m.hdr_total);
            m.unpack_header(raw)
        } else {
            let ec_w = usize::from(m.w_ec);
            (
                self.get(self.start, m.rd_w),
                self.get(self.start + m.rd_w, ec_w) as usize,
                self.get(self.start + m.rd_w + ec_w, usize::from(m.aux_w.end)) as usize,
            )
        }
    }

    /// [`ApproximateLabelRef::header`] of both query sides as one planned
    /// load pair (bit-identical; falls back across distinct buffers).
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

    #[inline]
    fn exponent(&self, i: usize) -> u64 {
        let base = self.start + self.m.hdr_total;
        self.get(base + i * self.m.e_w, self.m.e_w)
    }

    #[inline]
    fn aux(&self, count: usize) -> HpathRef<'a> {
        let base = self.start + self.m.hdr_total + count * self.m.e_w;
        HpathRef::new(self.s, base, &self.m.aux)
    }
}

/// The Theorem 1.4 estimate protocol over packed views: an estimate `d̃` with
/// `d(u,v) ≤ d̃ ≤ (1+ε)·d(u,v) + 2`, same ε and same rounding as the build.
pub(crate) fn distance_refs(a: ApproximateLabelRef<'_>, b: ApproximateLabelRef<'_>) -> u64 {
    // Both headers and both aux scalar blocks decode as planned load pairs.
    let ((rd_a, ca, cwl_a), (rd_b, cb, cwl_b)) = ApproximateLabelRef::header_pair(&a, &b);
    let (aa, ab) = (a.aux(ca), b.aux(cb));
    let (sa, sb) = HpathRef::scalars_pair(&aa, &ab);
    // Equal nodes fall under the ancestor case (|rd_a − rd_b| = 0).
    if AuxScalars::is_ancestor(&sa, &sb) || AuxScalars::is_ancestor(&sb, &sa) {
        return rd_a.abs_diff(rd_b);
    }
    let (j, lcp) = HpathRef::common_light_depth_lcp(&aa, &sa, cwl_a, &ab, &sb, cwl_b);
    let a_branches = sa.ld > j;
    let b_branches = sb.ld > j;
    let use_a = match (a_branches, b_branches) {
        (true, false) => true,
        (false, true) => false,
        // Both branch: their codeword strings diverge at bit `lcp`,
        // strictly inside codeword j, and the lexicographically smaller
        // side (a 0 bit there) branches closer to the head — one bit read
        // replaces the chunked lexicographic comparison.
        (true, true) => aa.cw_bit(sa.ld, lcp) == 0,
        (false, false) => {
            unreachable!("non-ancestor nodes cannot both lie on the NCA's heavy path")
        }
    };
    let (x, x_ld, x_rd) = if use_a {
        (&a, sa.ld, rd_a)
    } else {
        (&b, sb.ld, rd_b)
    };
    let y_rd = if use_a { rd_b } else { rd_a };
    let idx = x_ld - j; // ≥ 1
    let e = x.exponent(idx - 1);
    let rounded = if e == 0 {
        0
    } else {
        x.m.exponent_value_cached(e - 1)
    };
    (y_rd + 2 * rounded).saturating_sub(x_rd)
}

/// Load-time extent check of the approximate scheme's packed labels.
pub(crate) fn check_label(
    slice: BitSlice<'_>,
    start: usize,
    end: usize,
    meta: &ApproximateMeta,
) -> bool {
    let len = end - start;
    if len < meta.hdr_total {
        return false;
    }
    let r = ApproximateLabelRef::new(slice, start, meta);
    let (_, ec, cwl) = r.header();
    let fixed = match ec.checked_mul(meta.e_w).map(|x| x + meta.hdr_total) {
        Some(f) if f <= len => f,
        _ => return false,
    };
    match r.aux(ec).extent_bits(len - fixed) {
        Some((total, cw)) => fixed + total == len && cw == cwl,
        None => false,
    }
}
