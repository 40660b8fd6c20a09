//! Borrowed, word-level views over packed bit buffers.
//!
//! A [`BitSlice`] is to a [`BitVec`] what `&[T]` is to
//! `Vec<T>`: a `Copy`-able view over someone else's `u64` words that can read
//! single bits and MSB-first integers without owning (or copying) anything.
//! It is the substrate of the zero-copy scheme store in `treelab-core`: a
//! whole labeling scheme is one contiguous word buffer, and every per-label
//! `*Ref` view is a `BitSlice` plus a bit offset.
//!
//! Bit addressing and integer semantics are identical to [`BitVec`]:
//! bit `i` lives at `words[i / 64] >> (i % 64)`, and multi-bit integers are
//! MSB-first (the first bit of the range is the most significant bit of the
//! returned value), so `BitSlice::get_bits` over a buffer written by
//! [`BitVec::push_bits`] returns exactly the written values.
//!
//! [`BitVec`]: crate::BitVec
//! [`BitVec::push_bits`]: crate::BitVec::push_bits

use crate::BitVec;

/// A borrowed view over `len` bits stored in `u64` words.
///
/// # Example
///
/// ```
/// use treelab_bits::{BitSlice, BitVec};
///
/// let mut bv = BitVec::new();
/// bv.push_bits(0b1011, 4);
/// bv.push_bits(0xFEED, 16);
/// let s = bv.as_bitslice();
/// assert_eq!(s.len(), 20);
/// assert_eq!(s.get_bits(0, 4), Some(0b1011));
/// assert_eq!(s.get_bits(4, 16), Some(0xFEED));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BitSlice<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> BitSlice<'a> {
    /// Creates a view over the first `len` bits of `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn new(words: &'a [u64], len: usize) -> Self {
        assert!(
            len <= words.len().saturating_mul(64),
            "bit length {len} exceeds {} words",
            words.len()
        );
        BitSlice { words, len }
    }

    /// Number of bits in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying words (bits beyond [`BitSlice::len`] may be garbage and
    /// must be ignored).
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Reads the bit at `index`, or `None` if out of range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Reads `width ≤ 64` bits starting at `start`, MSB-first (matching
    /// [`BitVec::push_bits`](crate::BitVec::push_bits)), or `None` if the
    /// range is out of bounds.
    #[inline]
    pub fn get_bits(&self, start: usize, width: usize) -> Option<u64> {
        if width > 64 || start > self.len || width > self.len - start {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        let word = start / 64;
        let off = start % 64;
        let mut raw = self.words[word] >> off;
        if off + width > 64 {
            raw |= self.words[word + 1] << (64 - off);
        }
        Some(raw.reverse_bits() >> (64 - width))
    }

    /// Reads `width ≤ 64` bits starting at `start` in **stream order** (the
    /// first bit of the range is the least significant bit of the result),
    /// or `None` if the range is out of bounds.
    ///
    /// This is the raw-chunk read: unlike [`BitSlice::get_bits`] it performs
    /// no bit reversal (`reverse_bits` is a dozen instructions on x86), which
    /// makes it the right primitive for fixed-width packed formats — the
    /// scheme store writes every field with
    /// [`BitVec::push_bits_lsb`](crate::BitVec::push_bits_lsb) and reads it
    /// back with this.
    #[inline]
    pub fn get_bits_lsb(&self, start: usize, width: usize) -> Option<u64> {
        if width > 64 || start > self.len || width > self.len - start {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        let word = start / 64;
        let off = start % 64;
        let mut raw = self.words[word] >> off;
        if off + width > 64 {
            raw |= self.words[word + 1] << (64 - off);
        }
        if width < 64 {
            raw &= (1u64 << width) - 1;
        }
        Some(raw)
    }

    /// Compares `len` bits of `self` starting at `sa` with `len` bits of
    /// `other` starting at `sb`, 64 bits at a time, without allocating.
    ///
    /// Returns `false` when either range is out of bounds.
    #[inline]
    pub fn eq_range(&self, sa: usize, other: &BitSlice<'_>, sb: usize, len: usize) -> bool {
        if sa > self.len || len > self.len - sa || sb > other.len || len > other.len - sb {
            return false;
        }
        // Single-chunk fast path: codeword spans are almost always ≤ 64 bits.
        if len <= 64 {
            return self.get_bits_lsb(sa, len) == other.get_bits_lsb(sb, len);
        }
        let mut i = 0;
        while i < len {
            let w = (len - i).min(64);
            if self.get_bits_lsb(sa + i, w) != other.get_bits_lsb(sb + i, w) {
                return false;
            }
            i += w;
        }
        true
    }
}

impl BitVec {
    /// A borrowed [`BitSlice`] view over this vector's bits.
    pub fn as_bitslice(&self) -> BitSlice<'_> {
        BitSlice::new(self.words(), self.len())
    }
}

/// Low-level LSB-first field read over raw words, for *validated* packed
/// formats: `width ≤ 64` bits starting at bit `start`, first bit least
/// significant (the inverse of [`BitVec::push_bits_lsb`]).
///
/// Unlike [`BitSlice::get_bits_lsb`] there is no per-read range validation —
/// the caller vouches that the field lies inside the buffer (the scheme store
/// validates all offsets once, at load time, and then issues millions of
/// these).  Memory safety is preserved regardless: an out-of-range `start`
/// panics on the slice index.
///
/// The word *after* the field's first word must exist (`start / 64 + 1 <
/// words.len()`): the straddle is handled with an unconditional second load
/// instead of a data-dependent branch, which costs a mispredict about once
/// per read on random-width formats.  Buffers backing packed formats should
/// carry one zero guard word at the end (the scheme store does).
///
/// # Panics
///
/// Panics if `start / 64 + 1` is not a valid index into `words`.
#[inline]
pub fn read_lsb(words: &[u64], start: usize, width: usize) -> u64 {
    debug_assert!(width <= 64);
    if width == 0 {
        return 0;
    }
    let word = start >> 6;
    let off = (start & 63) as u32;
    let lo = words[word] >> off;
    // Branchless straddle: `(hi << 1) << (63 - off)` is 0 when off == 0 and
    // the straddled high bits otherwise, with no shift-by-64 anywhere.
    let hi = (words[word + 1] << 1) << (63 - off);
    let raw = lo | hi;
    if width < 64 {
        raw & ((1u64 << width) - 1)
    } else {
        raw
    }
}

/// Two same-width [`read_lsb`] fields from two cursors of the same buffer,
/// issued as one planned load pair: both fields' word loads are computed
/// before either mask is applied, so the two straddle reads sit in the
/// out-of-order window together instead of serializing behind one field's
/// shift/mask chain.  This is the fused *meta read* of the distance kernels —
/// a query touches two labels of the same store, and their headers always
/// share a width.
///
/// Same trusted-range contract as [`read_lsb`] (each cursor's word — and the
/// word after it — must be in bounds; packed buffers carry a guard word).
///
/// # Panics
///
/// Panics if `start_a / 64 + 1` or `start_b / 64 + 1` is not a valid index
/// into `words`.
#[inline]
pub fn read_lsb_pair(words: &[u64], start_a: usize, start_b: usize, width: usize) -> (u64, u64) {
    debug_assert!(width <= 64);
    if width == 0 {
        return (0, 0);
    }
    let (wa, wb) = (start_a >> 6, start_b >> 6);
    let (oa, ob) = ((start_a & 63) as u32, (start_b & 63) as u32);
    // All four word loads are issued before either result is masked.
    let (lo_a, lo_b) = (words[wa], words[wb]);
    let (hi_a, hi_b) = (words[wa + 1], words[wb + 1]);
    let raw_a = (lo_a >> oa) | ((hi_a << 1) << (63 - oa));
    let raw_b = (lo_b >> ob) | ((hi_b << 1) << (63 - ob));
    if width < 64 {
        let mask = (1u64 << width) - 1;
        (raw_a & mask, raw_b & mask)
    } else {
        (raw_a, raw_b)
    }
}

/// Length of the longest common prefix of the bit ranges `[sa, sa + la)` of
/// `a` and `[sb, sb + lb)` of `b`, over raw words: one XOR plus a
/// trailing-zero count locates the first differing bit inside a chunk, so
/// comparing two packed codeword strings costs a couple of word operations
/// instead of a per-field loop.  Trusted-range ([`read_lsb`]) addressing.
///
/// # Panics
///
/// Panics if either range's words lie outside its buffer.
#[inline]
pub fn common_prefix_len_raw(
    a: &[u64],
    sa: usize,
    la: usize,
    b: &[u64],
    sb: usize,
    lb: usize,
) -> usize {
    let max = la.min(lb);
    // Fast path: almost every comparison is decided inside the first 64
    // bits, so read one chunk unconditionally and only loop beyond it when
    // the strings agree that far.
    let w = max.min(64);
    let diff = read_lsb(a, sa, w) ^ read_lsb(b, sb, w);
    if diff != 0 {
        return diff.trailing_zeros() as usize;
    }
    if max <= 64 {
        return max;
    }
    let mut i = 64;
    while i < max {
        let w = (max - i).min(64);
        let diff = read_lsb(a, sa + i, w) ^ read_lsb(b, sb + i, w);
        if diff != 0 {
            return i + diff.trailing_zeros() as usize;
        }
        i += w;
    }
    max
}

/// Scans a packed array of fused records for the first one whose *end* field
/// exceeds `threshold`: record `i` is the `width ≤ 64` bits at bit
/// `base + i * width` of `words` (trusted-range [`read_lsb`] addressing, LSB
/// first), its end field is `record & end_mask`, and the scan tests indices
/// `start..count` in order.  Returns `(i, record)` of the first hit, or
/// `None` when every record's end field is `≤ threshold`.
///
/// This is the record-scan primitive of the prefix-sum distance kernels
/// (`treelab-core`): their per-level records fuse a codeword end position
/// with a branch distance, and the level of the NCA is the first end
/// position past the codeword LCP.
///
/// # Panics
///
/// Panics ([`read_lsb`]'s contract) if any scanned record's first word — or
/// the word after it — lies outside `words`.  Callers keep a guard word
/// after the record region, as the scheme store's frame pad does.
#[inline]
pub fn scan_records_gt(
    words: &[u64],
    base: usize,
    width: usize,
    end_mask: u64,
    threshold: u64,
    start: usize,
    count: usize,
) -> Option<(usize, u64)> {
    let mut i = start;
    while i < count {
        let rec = read_lsb(words, base + i * width, width);
        if rec & end_mask > threshold {
            return Some((i, rec));
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> BitVec {
        BitVec::from_bools((0..n as u64).map(|i| (i * 2654435761) % 7 < 3))
    }

    #[test]
    fn get_and_get_bits_match_bitvec() {
        let bv = sample(300);
        let s = bv.as_bitslice();
        assert_eq!(s.len(), 300);
        for i in 0..300 {
            assert_eq!(s.get(i), bv.get(i), "bit {i}");
        }
        assert_eq!(s.get(300), None);
        for &(start, width) in &[
            (0usize, 0usize),
            (0, 64),
            (1, 64),
            (63, 2),
            (63, 64),
            (130, 17),
            (299, 1),
            (300, 0),
        ] {
            assert_eq!(s.get_bits(start, width), bv.get_bits(start, width));
        }
        assert_eq!(s.get_bits(290, 20), None);
        assert_eq!(s.get_bits(0, 65), None);
        assert_eq!(s.get_bits(usize::MAX, 2), None);
    }

    #[test]
    fn get_bits_lsb_round_trips_push_bits_lsb() {
        let mut bv = BitVec::new();
        let values: Vec<(u64, usize)> = (0..120u64)
            .map(|i| {
                let w = (i as usize * 7) % 65;
                let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (if w == 64 { v } else { v & ((1u64 << w) - 1) }, w)
            })
            .collect();
        let mut positions = Vec::new();
        for &(v, w) in &values {
            positions.push(bv.len());
            bv.push_bits_lsb(v, w);
        }
        let s = bv.as_bitslice();
        for (i, &(v, w)) in values.iter().enumerate() {
            assert_eq!(s.get_bits_lsb(positions[i], w), Some(v), "field {i}");
        }
        // LSB read is the bit-reversal of the MSB read.
        let msb = s.get_bits(positions[3], values[3].1).unwrap();
        let w3 = values[3].1;
        if w3 > 0 {
            assert_eq!(msb.reverse_bits() >> (64 - w3), values[3].0);
        }
        assert_eq!(s.get_bits_lsb(bv.len(), 1), None);
        assert_eq!(s.get_bits_lsb(0, 65), None);
    }

    /// The pair reader against the single-cursor primitive: a seeded sweep
    /// over every width 1..=64 with cursor positions planted at
    /// word-straddling offsets (63/64/65 boundaries included).
    #[test]
    fn read_lsb_pair_matches_the_single_cursor_reads() {
        // 64 words of seeded xorshift64* noise + one zero guard word (the
        // trusted-range contract the packed stores uphold).
        let mut x = 0x0BAD_5EED_0BAD_5EEDu64;
        let mut words = [0u64; 65];
        for w in words.iter_mut().take(64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        let max_start = 64 * 64 - 64; // any width stays inside the guard
        let mut pos = 1u64;
        let mut next_start = |salt: u64| -> usize {
            pos ^= pos << 13;
            pos ^= pos >> 7;
            pos ^= pos << 17;
            let r = (pos.wrapping_add(salt) % (max_start as u64)) as usize;
            // Every third cursor is planted right at a word boundary so the
            // straddle path (off = 63, 0, 1) is hit for every width.
            match salt % 3 {
                0 => r / 64 * 64 + 63,
                1 => r / 64 * 64 + 64,
                _ => r,
            }
            .min(max_start)
        };
        for width in 1usize..=64 {
            for round in 0..8u64 {
                let starts = [
                    next_start(round * 4),
                    next_start(round * 4 + 1),
                    next_start(round * 4 + 2),
                    next_start(round * 4 + 3),
                ];
                let expect: Vec<u64> = starts.iter().map(|&s| read_lsb(&words, s, width)).collect();
                for (i, j) in [(0, 1), (2, 3), (1, 2)] {
                    let got = read_lsb_pair(&words, starts[i], starts[j], width);
                    assert_eq!(got, (expect[i], expect[j]), "pair w={width}");
                }
            }
        }
        // Width 0 reads nothing from any cursor.
        assert_eq!(read_lsb_pair(&words, 17, 4000, 0), (0, 0));
    }

    #[test]
    fn eq_range_matches_bitwise_comparison() {
        let bv = sample(400);
        let s = bv.as_bitslice();
        for &(sa, sb, len) in &[(0usize, 128usize, 64usize), (3, 67, 130), (10, 10, 0)] {
            let expect = (0..len).all(|i| bv.get(sa + i) == bv.get(sb + i));
            assert_eq!(s.eq_range(sa, &s, sb, len), expect, "({sa},{sb},{len})");
        }
        // Identical ranges always compare equal.
        assert!(s.eq_range(37, &s, 37, 200));
        // Out-of-bounds ranges compare unequal rather than panicking.
        assert!(!s.eq_range(390, &s, 0, 20));
    }

    #[test]
    fn common_prefix_len_raw_matches_bitwise_reference() {
        let bv = sample(400);
        let w = bv.words();
        for &(sa, la, sb, lb) in &[
            (0usize, 100usize, 200usize, 100usize),
            (3, 200, 77, 150),
            (5, 0, 9, 30),
            (10, 64, 10, 64),
            (0, 128, 64, 128),
        ] {
            let max = la.min(lb);
            let expect = (0..max)
                .position(|i| bv.get(sa + i) != bv.get(sb + i))
                .unwrap_or(max);
            assert_eq!(
                common_prefix_len_raw(w, sa, la, w, sb, lb),
                expect,
                "({sa},{la}) vs ({sb},{lb})"
            );
        }
        // Identical ranges share everything.
        assert_eq!(common_prefix_len_raw(w, 13, 300, w, 13, 250), 250);
    }

    /// Planted long common prefixes at assorted misalignments: exercises the
    /// multi-chunk tail against a bitwise reference.
    #[test]
    fn common_prefix_len_raw_long_prefixes_match_bitwise_reference() {
        let mut bv = BitVec::new();
        // 4096 deterministic pseudo-random bits.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bv.push_bits_lsb(x, 64);
        }
        let n = bv.len();
        // A displaced copy of the same stream, with a guard-word tail for the
        // unconditional straddle loads near the end.
        let mut shifted = BitVec::new();
        shifted.push_bits_lsb(0b101, 3);
        for i in 0..n {
            shifted.push(bv.get(i).unwrap());
        }
        for _ in 0..4 {
            shifted.push_bits_lsb(0, 64);
        }
        let mut padded = bv.clone();
        for _ in 0..4 {
            padded.push_bits_lsb(0, 64);
        }
        let (a, b) = (padded.words(), shifted.words());
        for &(sa, sb, la, lb) in &[
            (0usize, 3usize, n, n), // full-length agreement
            (7, 10, n - 7, n - 7),  // word-misaligned both sides
            (64, 67, 2048, 1111),   // length-limited
            (130, 133, 700, 700),   // mid-stream
            (0, 4, 600, 600),       // disagreement at bit 0 region
        ] {
            let got = common_prefix_len_raw(a, sa, la, b, sb, lb);
            let max = la.min(lb);
            let expect = (0..max)
                .position(|i| padded.get(sa + i) != shifted.get(sb + i))
                .unwrap_or(max);
            assert_eq!(got, expect, "({sa},{la}) vs ({sb},{lb}) vs bitwise");
        }
        // Planted first-difference positions across several 64-bit chunks.
        for plant in [64usize, 65, 127, 128, 191, 255, 256, 300, 511, 512, 1000] {
            let mut c = padded.clone();
            c.set(7 + plant, !c.get(7 + plant).unwrap());
            let got = common_prefix_len_raw(c.words(), 7, 2048, a, 7, 2048);
            assert_eq!(got, plant, "planted diff at {plant}");
        }
    }

    /// The packed-record scan primitive against a brute-force reference,
    /// across straddling widths and thresholds.
    #[test]
    fn scan_records_gt_matches_reference() {
        for &(width, count, base) in &[
            (11usize, 40usize, 0usize),
            (23, 17, 5),
            (37, 33, 63),
            (64, 9, 1),
            (48, 100, 130),
        ] {
            // end field = low half of the record (rounded down).
            let end_w = width / 2;
            let end_mask = if end_w == 0 { 0 } else { (1u64 << end_w) - 1 };
            let mut bv = BitVec::new();
            bv.push_bits_lsb(0, base.min(64));
            for _ in 0..(base.saturating_sub(64)) {
                bv.push(false);
            }
            let recs: Vec<u64> = (0..count as u64)
                .map(|i| {
                    i.wrapping_mul(0xA076_1D64_78BD_642F)
                        & if width < 64 {
                            (1u64 << width) - 1
                        } else {
                            u64::MAX
                        }
                })
                .collect();
            for &r in &recs {
                bv.push_bits_lsb(r, width);
            }
            // Guard word for the unconditional straddle load.
            bv.push_bits_lsb(0, 64);
            let words = bv.words();
            for threshold in [0u64, 1, end_mask / 2, end_mask, u64::MAX >> 2] {
                for start in [0usize, 1, 3, count / 2, count] {
                    let expect = recs[..]
                        .iter()
                        .enumerate()
                        .skip(start)
                        .find(|&(_, &r)| r & end_mask > threshold)
                        .map(|(i, &r)| (i, r));
                    let got =
                        scan_records_gt(words, base, width, end_mask, threshold, start, count);
                    assert_eq!(got, expect, "w={width} t={threshold} s={start}");
                }
            }
        }
    }

    #[test]
    fn eq_range_is_overflow_safe() {
        let bv = sample(130);
        let s = bv.as_bitslice();
        // Degenerate offsets must report unequal, not wrap the bounds guard.
        assert!(!s.eq_range(usize::MAX, &s, usize::MAX, 2));
        assert!(!s.eq_range(0, &s, usize::MAX, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn new_rejects_oversized_length() {
        let words = [0u64; 2];
        BitSlice::new(&words, 129);
    }
}
