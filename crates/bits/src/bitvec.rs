//! Append-only bit vectors and their streaming writer.
//!
//! A label produced by any scheme in this workspace is ultimately a [`BitVec`].
//! The conventions used throughout the workspace:
//!
//! * bits are addressed from 0 (the first bit appended);
//! * multi-bit integers are written **most significant bit first**, so that the
//!   lexicographic order of bit strings matches numeric order for equal widths
//!   (this is what makes the alphabetic codes of [`crate::alphabetic`]
//!   order-preserving);
//! * all sizes are reported in bits, never bytes — the paper's bounds are in
//!   bits and the experiments compare against them directly.

use std::fmt;

/// A growable sequence of bits backed by `u64` words.
///
/// # Example
///
/// ```
/// use treelab_bits::BitVec;
///
/// let mut bv = BitVec::new();
/// bv.push(true);
/// bv.push(false);
/// bv.push_bits(0b1011, 4);
/// assert_eq!(bv.len(), 6);
/// assert_eq!(bv.get(0), Some(true));
/// assert_eq!(bv.get(1), Some(false));
/// assert_eq!(bv.get_bits(2, 4), Some(0b1011));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with capacity for at least `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Builds a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Appends the `width` low bits of `value`, most significant of those bits
    /// first.
    ///
    /// Word-level: the bits land with two shift/or operations rather than a
    /// per-bit loop (serializing a whole scheme into one buffer is dominated
    /// by this call).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width must be at most 64, got {width}");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        // MSB-first: bit (width-1) of `value` is appended first, i.e. vector
        // bit (len + j) is bit (width-1-j) of `value` — the reversed low bits.
        let rev = value.reverse_bits() >> (64 - width);
        let word = self.len / 64;
        let off = self.len % 64;
        self.len += width;
        self.words.resize(self.len.div_ceil(64), 0);
        self.words[word] |= rev << off;
        if off + width > 64 {
            self.words[word + 1] |= rev >> (64 - off);
        }
    }

    /// Appends the `width` low bits of `value` in **stream order** (least
    /// significant of those bits first), the inverse of
    /// [`BitSlice::get_bits_lsb`](crate::BitSlice::get_bits_lsb).
    ///
    /// The MSB-first [`BitVec::push_bits`] is the right call for
    /// self-delimiting wire encodings (lexicographic order matters there);
    /// this variant is the right call for fixed-width packed formats such as
    /// the scheme store, where reads must not pay the bit reversal.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn push_bits_lsb(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width must be at most 64, got {width}");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        if width == 0 {
            return;
        }
        let word = self.len / 64;
        let off = self.len % 64;
        self.len += width;
        self.words.resize(self.len.div_ceil(64), 0);
        self.words[word] |= value << off;
        if off + width > 64 {
            self.words[word + 1] |= value >> (64 - off);
        }
    }

    /// Appends all bits of `other` (word-at-a-time; labels concatenate many
    /// codeword/accumulator vectors, so this is an encode/build hot path).
    pub fn extend_from(&mut self, other: &BitVec) {
        if other.len == 0 {
            return;
        }
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Splice each source word across the current partial word and a
            // fresh one.  Source bits beyond `other.len` are zero (invariant),
            // so no garbage is shifted in.
            self.words.reserve(other.words.len());
            for (carry_idx, &w) in (self.words.len() - 1..).zip(other.words.iter()) {
                self.words[carry_idx] |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Reads the bit at `index`, or `None` if out of range.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        let word = index / 64;
        let off = index % 64;
        Some((self.words[word] >> off) & 1 == 1)
    }

    /// Reads `width ≤ 64` bits starting at `start` (MSB-first, matching
    /// [`BitVec::push_bits`]), or `None` if the range is out of bounds.
    pub fn get_bits(&self, start: usize, width: usize) -> Option<u64> {
        if width > 64 || start > self.len || width > self.len - start {
            return None;
        }
        if width == 0 {
            return Some(0);
        }
        // Bit `start + i` lives at words[(start+i)/64] >> ((start+i)%64); pack
        // the run into one word with vector order = ascending significance …
        let word = start / 64;
        let off = start % 64;
        let mut raw = self.words[word] >> off;
        if off + width > 64 {
            raw |= self.words[word + 1] << (64 - off);
        }
        // … then reverse so the first vector bit becomes the MSB of the value.
        Some(raw.reverse_bits() >> (64 - width))
    }

    /// Extracts the sub-vector `[start, start + width)`.
    ///
    /// Returns `None` when the range is out of bounds.
    pub fn slice(&self, start: usize, width: usize) -> Option<BitVec> {
        if start + width > self.len {
            return None;
        }
        let mut out = BitVec::with_capacity(width);
        for i in 0..width {
            out.push(self.get(start + i).expect("checked range"));
        }
        Some(out)
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bv: self, pos: 0 }
    }

    /// The underlying words (little-endian bit order inside each word).
    ///
    /// Exposed for word-level consumers (packing, digests); the last word's bits beyond
    /// [`BitVec::len`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Consumes the vector, returning its words (the last word's bits beyond
    /// [`BitVec::len`] are zero).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(128) {
            write!(f, "{}", u8::from(self.get(i).unwrap_or(false)))?;
        }
        if self.len > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bv: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        let b = self.bv.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bv.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Streaming writer that appends bits and integers to a [`BitVec`].
///
/// A thin convenience wrapper so that encoders can be written as a linear
/// sequence of `write_*` calls and then converted into the final label with
/// [`BitWriter::into_bitvec`].
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for at least `bits` bits.
    ///
    /// Serializers that know (or can bound) their output size up front — the
    /// whole-scheme store does — should use this so a multi-megabyte encode
    /// pays one allocation instead of repeated growth reallocations.
    pub fn with_capacity(bits: usize) -> Self {
        BitWriter {
            bits: BitVec::with_capacity(bits),
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the `width` low bits of `value`, MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        self.bits.push_bits(value, width);
    }

    /// Appends all bits of a [`BitVec`].
    pub fn write_bitvec(&mut self, bv: &BitVec) {
        self.bits.extend_from(bv);
    }

    /// Appends all bits of a borrowed [`BitSlice`](crate::BitSlice), 64 at a
    /// time.
    pub fn write_bitslice(&mut self, s: crate::BitSlice<'_>) {
        self.write_bit_range(s, 0, s.len());
    }

    /// Appends bits `start .. start + len` of a borrowed
    /// [`BitSlice`](crate::BitSlice), 64 at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the end of `s`.
    pub fn write_bit_range(&mut self, s: crate::BitSlice<'_>, start: usize, len: usize) {
        let mut i = 0;
        while i < len {
            let w = (len - i).min(64);
            let chunk = s
                .get_bits_lsb(start + i, w)
                .expect("chunk lies inside the slice");
            self.bits.push_bits_lsb(chunk, w);
            i += w;
        }
    }

    /// Appends the `width` low bits of `value` in stream order (LSB first);
    /// see [`BitVec::push_bits_lsb`].
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits_lsb(&mut self, value: u64, width: usize) {
        self.bits.push_bits_lsb(value, width);
    }

    /// Current length in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Consumes the writer, returning the written bits.
    pub fn into_bitvec(self) -> BitVec {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), Some(b), "bit {i}");
        }
        assert_eq!(bv.get(200), None);
    }

    #[test]
    fn push_bits_msb_first() {
        let mut bv = BitVec::new();
        bv.push_bits(0b1101, 4);
        assert_eq!(bv.get(0), Some(true));
        assert_eq!(bv.get(1), Some(true));
        assert_eq!(bv.get(2), Some(false));
        assert_eq!(bv.get(3), Some(true));
        assert_eq!(bv.get_bits(0, 4), Some(0b1101));
    }

    #[test]
    fn push_bits_full_width() {
        let mut bv = BitVec::new();
        bv.push_bits(u64::MAX, 64);
        bv.push_bits(0, 64);
        assert_eq!(bv.get_bits(0, 64), Some(u64::MAX));
        assert_eq!(bv.get_bits(64, 64), Some(0));
        // Straddling a word boundary.
        assert_eq!(bv.get_bits(32, 64), Some(0xFFFF_FFFF_0000_0000));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_bits_rejects_oversized_value() {
        let mut bv = BitVec::new();
        bv.push_bits(16, 4);
    }

    #[test]
    fn slice_and_extend() {
        let bv = BitVec::from_bools((0..50).map(|i| i % 2 == 0));
        let s = bv.slice(10, 20).unwrap();
        assert_eq!(s.len(), 20);
        for i in 0..20 {
            assert_eq!(s.get(i), bv.get(10 + i));
        }
        assert!(bv.slice(40, 20).is_none());

        let mut ext = BitVec::new();
        ext.extend_from(&s);
        ext.extend_from(&s);
        assert_eq!(ext.len(), 40);
        for i in 0..40 {
            assert_eq!(ext.get(i), s.get(i % 20));
        }
    }

    #[test]
    fn iterator_matches_get() {
        let bv = BitVec::from_bools((0..130).map(|i| (i * 7) % 5 < 2));
        let collected: Vec<bool> = bv.iter().collect();
        assert_eq!(collected.len(), 130);
        for (i, b) in collected.iter().enumerate() {
            assert_eq!(Some(*b), bv.get(i));
        }
        assert_eq!(bv.iter().len(), 130);
    }

    #[test]
    fn writer_appends_msb_first() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(0xDEAD, 16);
        w.write_bits(0x1, 1);
        w.write_bits(0b101010, 6);
        assert_eq!(w.len(), 24);
        let bv = w.into_bitvec();
        assert_eq!(bv.get(0), Some(true));
        assert_eq!(bv.get_bits(1, 16), Some(0xDEAD));
        assert_eq!(bv.get_bits(17, 1), Some(1));
        assert_eq!(bv.get_bits(18, 6), Some(0b101010));
        assert_eq!(bv.get(24), None);
    }

    #[test]
    fn debug_format_is_bounded() {
        let bv = BitVec::from_bools((0..300).map(|i| i % 2 == 0));
        let s = format!("{bv:?}");
        assert!(s.contains("BitVec[300;"));
        assert!(s.contains('…'));
    }

    #[test]
    fn from_iterator_and_extend_trait() {
        let bv: BitVec = vec![true, true, false].into_iter().collect();
        assert_eq!(bv.len(), 3);
        let mut bv2 = bv.clone();
        bv2.extend(vec![false, true]);
        assert_eq!(bv2.len(), 5);
        assert_eq!(bv2.get(4), Some(true));
    }

    #[test]
    fn get_bits_matches_bitwise_reference() {
        let bv = BitVec::from_bools((0..400).map(|i| (i * 2654435761u64) % 7 < 3));
        for &(start, width) in &[
            (0usize, 0usize),
            (0, 1),
            (0, 64),
            (1, 64),
            (63, 2),
            (63, 64),
            (64, 64),
            (65, 63),
            (127, 64),
            (130, 17),
            (336, 64),
            (399, 1),
            (400, 0),
        ] {
            let expect = {
                let mut v = 0u64;
                for i in 0..width {
                    v = (v << 1) | u64::from(bv.get(start + i).unwrap());
                }
                v
            };
            assert_eq!(bv.get_bits(start, width), Some(expect), "({start},{width})");
        }
        assert_eq!(bv.get_bits(400, 1), None);
        assert_eq!(bv.get_bits(350, 64), None);
        assert_eq!(bv.get_bits(usize::MAX, 2), None);
    }

    #[test]
    fn extend_from_matches_bit_by_bit_reference() {
        for a_len in [0usize, 1, 5, 63, 64, 65, 130] {
            for b_len in [0usize, 1, 7, 64, 100, 129] {
                let a = BitVec::from_bools((0..a_len).map(|i| i % 3 != 1));
                let b = BitVec::from_bools((0..b_len).map(|i| (i * 5) % 4 == 0));
                let mut fast = a.clone();
                fast.extend_from(&b);
                let mut slow = a.clone();
                for i in 0..b.len() {
                    slow.push(b.get(i).unwrap());
                }
                assert_eq!(fast, slow, "a_len={a_len} b_len={b_len}");
                assert_eq!(fast.words().len(), fast.len().div_ceil(64));
                // Appending after an extend keeps the tail invariant intact.
                fast.push(true);
                slow.push(true);
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn push_bits_matches_bit_by_bit_reference() {
        // The word-level push_bits must agree with the per-bit definition at
        // every alignment and width, including the 64-bit full-word cases.
        let mut fast = BitVec::new();
        let mut slow = BitVec::new();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for step in 0..200usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let width = step % 65;
            let value = if width == 64 {
                state
            } else {
                state & ((1u64 << width) - 1)
            };
            fast.push_bits(value, width);
            for i in (0..width).rev() {
                slow.push((value >> i) & 1 == 1);
            }
            assert_eq!(fast, slow, "step {step} width {width}");
        }
        assert_eq!(fast.words().len(), fast.len().div_ceil(64));
        // Tail invariant survives: appending single bits still works.
        fast.push(true);
        slow.push(true);
        assert_eq!(fast, slow);
    }

    #[test]
    fn with_capacity_does_not_change_contents() {
        let mut w = BitWriter::with_capacity(1 << 16);
        w.write_bits(0xAB, 8);
        w.write_bits(0xCD, 8);
        let bv = w.into_bitvec();
        assert_eq!(bv.get_bits(0, 16), Some(0xABCD));
        assert!(BitVec::with_capacity(10).is_empty());
        let words = bv.into_words();
        assert_eq!(words.len(), 1);
        assert_eq!(words[0] & 0xFFFF, 0xABCDu64.reverse_bits() >> 48);
    }

    #[test]
    fn bits_past_the_length_are_zero() {
        let mut bv = BitVec::new();
        bv.push_bits(0b111, 3);
        assert_eq!(bv.words(), [0b111]);
    }
}
