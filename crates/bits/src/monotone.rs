//! The Lemma 2.2 structure: succinct monotone integer sequences.
//!
//! Lemma 2.2 of the paper: a monotone sequence of `s` integers in `[0, M]` can
//! be encoded with `O(s · max(1, log(M/s)))` bits so that we can
//!
//! 1. extract the `k`-th number,
//! 2. find the position of the successor of a given integer, and
//! 3. given two sequences, find the longest common suffix of two specified
//!    prefixes,
//!
//! with operation (1) in constant time and (2), (3) in constant time when both
//! `s` and `M` are `O(log n)` (which is how the labels use it: the sequences
//! they store — codeword-length prefix sums, significant-ancestor heights,
//! capped distances, 2-approximation exponents — all have `O(log n)` entries
//! bounded by `O(log n)` or `O(n)`).
//!
//! The implementation is the classic high/low-bit split (Elias–Fano): each
//! value is split into `⌊log(M/s)⌋` low bits stored verbatim and a high part
//! stored as unary gaps in a bit vector equipped with [`RankSelect`]; this is
//! exactly the `x_i mod b` / `x_i div b` decomposition in the paper's proof.

use crate::codes;
use crate::rank_select::RankSelect;
use crate::{BitReader, BitVec, BitWriter, DecodeError};

/// Elias–Fano representation of a non-decreasing sequence of `u64` values.
///
/// # Example
///
/// ```
/// use treelab_bits::MonotoneSeq;
///
/// let seq = MonotoneSeq::new(&[0, 3, 3, 7, 20, 20, 21]);
/// assert_eq!(seq.len(), 7);
/// assert_eq!(seq.get(3), Some(7));
/// assert_eq!(seq.successor(4), Some(3));     // first index with value >= 4
/// assert_eq!(seq.successor(22), None);
/// assert!(seq.bit_size() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MonotoneSeq {
    len: usize,
    low_width: usize,
    /// `len * low_width` bits of low parts, in order.
    low: BitVec,
    /// Unary-gap encoding of the high parts with a select structure.
    high: RankSelect,
}

impl MonotoneSeq {
    /// Builds the structure from a non-decreasing slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not non-decreasing.
    pub fn new(values: &[u64]) -> Self {
        for w in values.windows(2) {
            assert!(
                w[0] <= w[1],
                "MonotoneSeq requires a non-decreasing sequence"
            );
        }
        let len = values.len();
        let max = values.last().copied().unwrap_or(0);
        let low_width = Self::low_width_for(len, max);

        let mut low = BitVec::with_capacity(len * low_width);
        let mut high_bits = BitVec::new();
        let mut prev_high = 0u64;
        for &v in values {
            if low_width > 0 {
                low.push_bits(v & ((1u64 << low_width) - 1), low_width);
            }
            let h = v >> low_width;
            // Unary gap: (h - prev_high) zeros then a one.
            high_bits.push_repeat(false, (h - prev_high) as usize);
            high_bits.push(true);
            prev_high = h;
        }
        MonotoneSeq {
            len,
            low_width,
            low,
            high: RankSelect::new(high_bits),
        }
    }

    /// Low width ⌊log₂(M/s)⌋: the standard Elias–Fano parameter choice
    /// (the `x mod b` / `x div b` split of the Lemma 2.2 proof).  Any value
    /// in [0, 63] is correct; this one realizes the space bound.  Shared by
    /// [`MonotoneSeq::new`] and the closed-form
    /// [`MonotoneSeq::encoded_len_parts`], so the two can never disagree.
    fn low_width_for(len: usize, max: u64) -> usize {
        if len == 0 || max == 0 {
            0
        } else {
            let ratio = max / len as u64;
            if ratio <= 1 {
                0
            } else {
                codes::bit_len(ratio) - 1
            }
        }
        .min(63)
    }

    /// Closed-form length in bits of [`MonotoneSeq::encode`]'s output for a
    /// non-decreasing sequence with `len` values whose last (largest) value
    /// is `last` — without building the structure or writing a bit.
    ///
    /// The encoded size depends only on `(len, last)`: the header codes, the
    /// `len + (last >> low_width)` high bits and the `len · low_width` low
    /// bits.  The label builders use this for their wire-size accounting;
    /// their test-only encoders assert it against [`MonotoneSeq::encode`]
    /// bit for bit.
    pub fn encoded_len_parts(len: usize, last: u64) -> usize {
        let mut total = codes::gamma_nz_len(len as u64);
        if len == 0 {
            return total;
        }
        let low_width = Self::low_width_for(len, last);
        let high_len = len + (last >> low_width) as usize;
        total += codes::gamma_nz_len(low_width as u64);
        total += codes::gamma_nz_len(high_len as u64);
        total += high_len + len * low_width;
        total
    }

    /// [`MonotoneSeq::encoded_len_parts`] over a slice (the last element is
    /// the largest for a non-decreasing sequence).
    pub fn encoded_len(values: &[u64]) -> usize {
        Self::encoded_len_parts(values.len(), values.last().copied().unwrap_or(0))
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `k`-th (0-indexed) value, or `None` if `k >= len`.
    pub fn get(&self, k: usize) -> Option<u64> {
        if k >= self.len {
            return None;
        }
        let pos = self.high.select1(k + 1).expect("k-th one exists");
        let high = (pos - k) as u64; // number of zeros before the (k+1)-th one
        let low = if self.low_width > 0 {
            self.low
                .get_bits(k * self.low_width, self.low_width)
                .expect("low bits in range")
        } else {
            0
        };
        Some((high << self.low_width) | low)
    }

    /// The last value, or `None` if empty.
    pub fn last(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            self.get(self.len - 1)
        }
    }

    /// Index of the first element `≥ x` (the *successor*), or `None` if every
    /// element is `< x`.
    pub fn successor(&self, x: u64) -> Option<usize> {
        if self.len == 0 || self.get(self.len - 1).expect("non-empty") < x {
            return None;
        }
        let mut lo = 0usize; // invariant: values[lo] might be >= x
        let mut hi = self.len - 1; // values[hi] >= x
                                   // Binary search: O(log s); with s = O(log n) this is the O(1)-ish
                                   // word-RAM regime the paper works in.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.get(mid).expect("in range") >= x {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Index of the last element `≤ x` (the *predecessor*), or `None` if every
    /// element is `> x`.
    pub fn predecessor(&self, x: u64) -> Option<usize> {
        if self.len == 0 || self.get(0).expect("non-empty") > x {
            return None;
        }
        let mut lo = 0usize; // values[lo] <= x
        let mut hi = self.len - 1;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.get(mid).expect("in range") <= x {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// Length of the longest common suffix of `self[..prefix_self]` and
    /// `other[..prefix_other]` (operation (3) of Lemma 2.2).
    ///
    /// # Panics
    ///
    /// Panics if either prefix length exceeds the corresponding sequence length.
    pub fn common_suffix_of_prefixes(
        &self,
        prefix_self: usize,
        other: &MonotoneSeq,
        prefix_other: usize,
    ) -> usize {
        assert!(prefix_self <= self.len && prefix_other <= other.len);
        let max = prefix_self.min(prefix_other);
        let mut t = 0;
        while t < max {
            let a = self.get(prefix_self - 1 - t).expect("in range");
            let b = other.get(prefix_other - 1 - t).expect("in range");
            if a != b {
                break;
            }
            t += 1;
        }
        t
    }

    /// Collects the values back into a vector (mainly for tests and debugging).
    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.len)
            .map(|k| self.get(k).expect("in range"))
            .collect()
    }

    /// Size of the encoded structure in bits, as produced by [`MonotoneSeq::encode`].
    ///
    /// This is the number the experiments charge to a label that embeds the
    /// structure.
    pub fn bit_size(&self) -> usize {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.len()
    }

    /// Serializes the structure (self-delimiting) into a bit stream.
    pub fn encode(&self, w: &mut BitWriter) {
        codes::write_gamma_nz(w, self.len as u64);
        if self.len == 0 {
            return;
        }
        codes::write_gamma_nz(w, self.low_width as u64);
        codes::write_gamma_nz(w, self.high.len() as u64);
        w.write_bitvec(self.high.bits());
        w.write_bitvec(&self.low);
    }

    /// Deserializes a structure written by [`MonotoneSeq::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the stream is truncated or malformed.
    pub fn decode(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        let len = codes::read_gamma_nz(r)? as usize;
        if len == 0 {
            return Ok(MonotoneSeq {
                len: 0,
                low_width: 0,
                low: BitVec::new(),
                high: RankSelect::new(BitVec::new()),
            });
        }
        // Every element needs at least one (terminating-one) bit in the high
        // part, so a length beyond the remaining input is malformed.  Checking
        // *before* allocating keeps corrupt inputs from requesting huge
        // buffers (a crash, not a DecodeError).
        if len > r.remaining() {
            return Err(DecodeError::Malformed {
                what: "monotone sequence length exceeds remaining input",
            });
        }
        let low_width = codes::read_gamma_nz(r)? as usize;
        if low_width > 63 {
            return Err(DecodeError::Malformed {
                what: "monotone sequence low width exceeds 63",
            });
        }
        let high_len = codes::read_gamma_nz(r)? as usize;
        if high_len > r.remaining() {
            return Err(DecodeError::Malformed {
                what: "monotone sequence high part exceeds remaining input",
            });
        }
        let mut high_bits = BitVec::with_capacity(high_len);
        for _ in 0..high_len {
            high_bits.push(r.read_bit()?);
        }
        let mut low = BitVec::with_capacity(len * low_width);
        for _ in 0..len * low_width {
            low.push(r.read_bit()?);
        }
        let high = RankSelect::new(high_bits);
        if high.count_ones() < len {
            return Err(DecodeError::Malformed {
                what: "monotone sequence high part has too few elements",
            });
        }
        Ok(MonotoneSeq {
            len,
            low_width,
            low,
            high,
        })
    }
}

impl PartialEq for MonotoneSeq {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.to_vec() == other.to_vec()
    }
}

impl Eq for MonotoneSeq {}

impl FromIterator<u64> for MonotoneSeq {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let values: Vec<u64> = iter.into_iter().collect();
        MonotoneSeq::new(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_roundtrip(values: &[u64]) {
        let seq = MonotoneSeq::new(values);
        assert_eq!(seq.len(), values.len());
        assert_eq!(seq.to_vec(), values);
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(seq.get(k), Some(v), "index {k}");
        }
        assert_eq!(seq.get(values.len()), None);

        // encode/decode roundtrip
        let mut w = BitWriter::new();
        seq.encode(&mut w);
        // Append sentinel bits to make sure the decoder stops at the right place.
        w.write_bits(0b101, 3);
        let bv = w.into_bitvec();
        let mut r = BitReader::new(&bv);
        let back = MonotoneSeq::decode(&mut r).unwrap();
        assert_eq!(back.to_vec(), values);
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn roundtrip_various_sequences() {
        check_roundtrip(&[]);
        check_roundtrip(&[0]);
        check_roundtrip(&[5]);
        check_roundtrip(&[0, 0, 0, 0]);
        check_roundtrip(&[0, 1, 2, 3, 4, 5]);
        check_roundtrip(&[0, 3, 3, 7, 20, 20, 21]);
        check_roundtrip(&[1_000_000, 1_000_000, 2_000_000]);
        check_roundtrip(&(0..200).map(|i| i * i).collect::<Vec<_>>());
        check_roundtrip(&[u64::MAX >> 2, u64::MAX >> 2, (u64::MAX >> 2) + 5]);
    }

    #[test]
    fn successor_and_predecessor_match_naive() {
        let values: Vec<u64> = vec![2, 2, 5, 9, 9, 9, 14, 27, 27, 31];
        let seq = MonotoneSeq::new(&values);
        for x in 0..40u64 {
            let naive_succ = values.iter().position(|&v| v >= x);
            let naive_pred = values.iter().rposition(|&v| v <= x);
            assert_eq!(seq.successor(x), naive_succ, "successor of {x}");
            assert_eq!(seq.predecessor(x), naive_pred, "predecessor of {x}");
        }
    }

    #[test]
    fn successor_on_empty_and_singleton() {
        let empty = MonotoneSeq::new(&[]);
        assert_eq!(empty.successor(0), None);
        assert_eq!(empty.predecessor(10), None);
        assert_eq!(empty.last(), None);

        let one = MonotoneSeq::new(&[7]);
        assert_eq!(one.successor(7), Some(0));
        assert_eq!(one.successor(8), None);
        assert_eq!(one.predecessor(6), None);
        assert_eq!(one.predecessor(7), Some(0));
        assert_eq!(one.last(), Some(7));
    }

    #[test]
    fn common_suffix_of_prefixes_cases() {
        let a = MonotoneSeq::new(&[1, 2, 3, 5, 8, 9]);
        let b = MonotoneSeq::new(&[0, 2, 3, 5, 8, 9]);
        // Full prefixes: common suffix is 5 (everything but the first element).
        assert_eq!(a.common_suffix_of_prefixes(6, &b, 6), 5);
        // Prefix of length 4 each: [1,2,3,5] vs [0,2,3,5] -> suffix 3.
        assert_eq!(a.common_suffix_of_prefixes(4, &b, 4), 3);
        // Misaligned prefixes: [1,2,3] vs [0,2,3,5] -> suffixes [3] vs [5] differ... -> 0
        assert_eq!(a.common_suffix_of_prefixes(3, &b, 4), 0);
        // Identical sequence compared with itself.
        assert_eq!(a.common_suffix_of_prefixes(6, &a, 6), 6);
        // Empty prefixes.
        assert_eq!(a.common_suffix_of_prefixes(0, &b, 6), 0);
    }

    #[test]
    fn space_bound_is_respected() {
        // Lemma 2.2: O(s * max(1, log(M/s))) bits.  Check with a generous
        // constant (16) across shapes that previously caught regressions.
        let shapes: Vec<Vec<u64>> = vec![
            (0..64u64).collect(),                   // s = M
            (0..64u64).map(|i| i * 1000).collect(), // M >> s
            vec![0; 100],                           // all zeros
            (0..200u64).map(|i| i / 10).collect(),  // lots of repeats
        ];
        for values in shapes {
            let s = values.len() as u64;
            let m = *values.last().unwrap_or(&0);
            let seq = MonotoneSeq::new(&values);
            let bound = 16
                * (s as usize)
                * std::cmp::max(1, codes::bit_len(m.checked_div(s).unwrap_or(0).max(1)))
                + 64;
            assert!(
                seq.bit_size() <= bound,
                "s={s} M={m} size={} bound={bound}",
                seq.bit_size()
            );
        }
    }

    #[test]
    fn decode_rejects_truncated_stream() {
        let seq = MonotoneSeq::new(&[1, 5, 100, 1000]);
        let mut w = BitWriter::new();
        seq.encode(&mut w);
        let bv = w.into_bitvec();
        for cut in [1, bv.len() / 2, bv.len() - 1] {
            let truncated = bv.slice(0, cut).unwrap();
            let mut r = BitReader::new(&truncated);
            assert!(MonotoneSeq::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    /// Streams whose headers announce far more elements than the input holds
    /// used to crash with a capacity overflow (`Vec::with_capacity` of a
    /// corrupt count) — they must produce a `DecodeError` instead.
    #[test]
    fn decode_rejects_absurd_counts_before_allocating() {
        let encoded = |f: &dyn Fn(&mut BitWriter)| {
            let mut w = BitWriter::new();
            f(&mut w);
            w.into_bitvec()
        };
        // A sequence claiming 2^40 elements.
        let huge_len = encoded(&|w| codes::write_gamma_nz(w, 1 << 40));
        assert!(MonotoneSeq::decode(&mut BitReader::new(&huge_len)).is_err());

        // A plausible length but a 2^40-bit high part.
        let huge_high = encoded(&|w| {
            codes::write_gamma_nz(w, 4); // len
            codes::write_gamma_nz(w, 0); // low width
            codes::write_gamma_nz(w, 1 << 40); // high part length
        });
        assert!(MonotoneSeq::decode(&mut BitReader::new(&huge_high)).is_err());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_input() {
        MonotoneSeq::new(&[3, 2]);
    }

    #[test]
    fn from_iterator() {
        let seq: MonotoneSeq = (0u64..10).collect();
        assert_eq!(seq.to_vec(), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn equality_is_value_based() {
        let a = MonotoneSeq::new(&[1, 2, 3]);
        let b: MonotoneSeq = vec![1u64, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        let c = MonotoneSeq::new(&[1, 2, 4]);
        assert_ne!(a, c);
    }
}
