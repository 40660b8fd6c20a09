//! Rank and select over static bit vectors.
//!
//! Lemma 2.2 augments its encodings with the rank structure of Jacobson and the
//! select structure of Clark, both adding `o(L)` bits on top of an `L`-bit
//! vector.  [`RankSelect`] follows the same two-level (superblock / word) design:
//! cumulative counts per 512-bit superblock plus per-word counts inside each
//! superblock, giving O(1) `rank` and O(log n) `select` (a binary search over
//! superblocks followed by a word scan — a constant number of word probes for
//! the `O(log n)`-bit vectors the labels actually use).

use crate::BitVec;

const WORDS_PER_SUPERBLOCK: usize = 8; // 512-bit superblocks

/// Static rank/select structure built over a snapshot of a [`BitVec`].
///
/// # Example
///
/// ```
/// use treelab_bits::{BitVec, RankSelect};
///
/// let bv = BitVec::from_bools([true, false, true, true, false]);
/// let rs = RankSelect::new(bv);
/// assert_eq!(rs.rank1(0), 0);
/// assert_eq!(rs.rank1(3), 2);      // ones strictly before position 3
/// assert_eq!(rs.select1(1), Some(0));
/// assert_eq!(rs.select1(3), Some(3));
/// assert_eq!(rs.select1(4), None);
/// ```
#[derive(Debug, Clone)]
pub struct RankSelect {
    bits: BitVec,
    /// `superblock_ranks[i]` = number of ones strictly before superblock `i`.
    superblock_ranks: Vec<u64>,
    total_ones: usize,
}

impl RankSelect {
    /// Builds the structure, taking ownership of the bit vector.
    pub fn new(bits: BitVec) -> Self {
        let words = bits.words();
        let n_super = words.len().div_ceil(WORDS_PER_SUPERBLOCK) + 1;
        let mut superblock_ranks = Vec::with_capacity(n_super);
        let mut running = 0u64;
        for chunk_start in (0..words.len()).step_by(WORDS_PER_SUPERBLOCK) {
            superblock_ranks.push(running);
            for w in &words[chunk_start..(chunk_start + WORDS_PER_SUPERBLOCK).min(words.len())] {
                running += u64::from(w.count_ones());
            }
        }
        superblock_ranks.push(running);
        let total_ones = running as usize;
        RankSelect {
            bits,
            superblock_ranks,
            total_ones,
        }
    }

    /// The underlying bit vector.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Length of the underlying bit vector, in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the underlying bit vector is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    /// Total number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.bits.len() - self.total_ones
    }

    /// Number of set bits strictly before position `pos` (`pos` may equal `len`).
    ///
    /// # Panics
    ///
    /// Panics if `pos > len`.
    pub fn rank1(&self, pos: usize) -> usize {
        assert!(pos <= self.bits.len(), "rank position out of range");
        let words = self.bits.words();
        let word_idx = pos / 64;
        let super_idx = word_idx / WORDS_PER_SUPERBLOCK;
        let mut r = self.superblock_ranks[super_idx] as usize;
        for w in &words[super_idx * WORDS_PER_SUPERBLOCK..word_idx] {
            r += w.count_ones() as usize;
        }
        let off = pos % 64;
        if off > 0 && word_idx < words.len() {
            let mask = (1u64 << off) - 1;
            r += (words[word_idx] & mask).count_ones() as usize;
        }
        r
    }

    /// Number of clear bits strictly before position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len`.
    pub fn rank0(&self, pos: usize) -> usize {
        pos - self.rank1(pos)
    }

    /// Position of the `k`-th (1-indexed) set bit, or `None` if there are fewer
    /// than `k` set bits.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k == 0 || k > self.total_ones {
            return None;
        }
        // Binary search for the superblock containing the k-th one.
        let mut lo = 0usize;
        let mut hi = self.superblock_ranks.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if (self.superblock_ranks[mid] as usize) < k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let words = self.bits.words();
        let mut remaining = k - self.superblock_ranks[lo] as usize;
        let start_word = lo * WORDS_PER_SUPERBLOCK;
        for (i, w) in words[start_word..].iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining <= ones {
                return Some((start_word + i) * 64 + select_in_word(*w, remaining));
            }
            remaining -= ones;
        }
        None
    }

    /// Position of the `k`-th (1-indexed) clear bit, or `None` if there are
    /// fewer than `k` clear bits.
    pub fn select0(&self, k: usize) -> Option<usize> {
        if k == 0 || k > self.count_zeros() {
            return None;
        }
        // Binary search on rank0 over bit positions (rank0 is monotone).
        let mut lo = 0usize; // rank0(lo) < k
        let mut hi = self.bits.len(); // rank0(hi) >= k
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.rank0(mid) < k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// Position (0-based) of the `k`-th (1-indexed) set bit inside a word.
fn select_in_word(mut w: u64, mut k: usize) -> usize {
    debug_assert!(k >= 1 && k <= w.count_ones() as usize);
    let mut pos = 0usize;
    loop {
        let tz = w.trailing_zeros() as usize;
        pos += tz;
        w >>= tz;
        k -= 1;
        if k == 0 {
            return pos;
        }
        w >>= 1;
        pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank1(bv: &BitVec, pos: usize) -> usize {
        (0..pos).filter(|&i| bv.get(i) == Some(true)).count()
    }

    fn naive_select1(bv: &BitVec, k: usize) -> Option<usize> {
        let mut count = 0;
        for i in 0..bv.len() {
            if bv.get(i) == Some(true) {
                count += 1;
                if count == k {
                    return Some(i);
                }
            }
        }
        None
    }

    fn naive_select0(bv: &BitVec, k: usize) -> Option<usize> {
        let mut count = 0;
        for i in 0..bv.len() {
            if bv.get(i) == Some(false) {
                count += 1;
                if count == k {
                    return Some(i);
                }
            }
        }
        None
    }

    fn pattern(len: usize, f: impl Fn(usize) -> bool) -> BitVec {
        BitVec::from_bools((0..len).map(f))
    }

    #[test]
    fn rank_matches_naive_on_various_patterns() {
        let patterns = vec![
            pattern(0, |_| false),
            pattern(1, |_| true),
            pattern(63, |i| i % 2 == 0),
            pattern(64, |i| i % 3 == 0),
            pattern(65, |i| i % 5 == 1),
            pattern(1000, |i| (i * i) % 7 < 3),
            pattern(1537, |i| i % 64 == 63),
            pattern(2048, |_| true),
            pattern(2048, |_| false),
        ];
        for bv in patterns {
            let rs = RankSelect::new(bv.clone());
            for pos in 0..=bv.len() {
                assert_eq!(
                    rs.rank1(pos),
                    naive_rank1(&bv, pos),
                    "len={} pos={pos}",
                    bv.len()
                );
                assert_eq!(rs.rank0(pos), pos - naive_rank1(&bv, pos));
            }
        }
    }

    #[test]
    fn select_matches_naive() {
        let bv = pattern(3000, |i| (i * 31 + 7) % 11 < 4);
        let rs = RankSelect::new(bv.clone());
        let ones = rs.count_ones();
        let zeros = rs.count_zeros();
        for k in 1..=ones {
            assert_eq!(rs.select1(k), naive_select1(&bv, k), "k={k}");
        }
        for k in 1..=zeros {
            assert_eq!(rs.select0(k), naive_select0(&bv, k), "k={k}");
        }
        assert_eq!(rs.select1(0), None);
        assert_eq!(rs.select1(ones + 1), None);
        assert_eq!(rs.select0(zeros + 1), None);
    }

    #[test]
    fn rank_select_inverse_relationship() {
        let bv = pattern(777, |i| i % 13 < 5);
        let rs = RankSelect::new(bv);
        for k in 1..=rs.count_ones() {
            let p = rs.select1(k).unwrap();
            assert_eq!(rs.rank1(p), k - 1);
            assert_eq!(rs.rank1(p + 1), k);
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let rs = RankSelect::new(BitVec::new());
        assert!(rs.is_empty());
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(1), None);
        assert_eq!(rs.select0(1), None);
        assert_eq!(rs.count_ones(), 0);

        let rs = RankSelect::new(BitVec::from_bools([true]));
        assert_eq!(rs.rank1(1), 1);
        assert_eq!(rs.select1(1), Some(0));
        assert_eq!(rs.select0(1), None);
    }

    #[test]
    fn select_in_word_exhaustive_small() {
        for w in [0b1u64, 0b1010, 0b1111, 0xF0F0, u64::MAX, 1 << 63] {
            let ones = w.count_ones() as usize;
            for k in 1..=ones {
                let p = select_in_word(w, k);
                assert_eq!((w & ((1 << p) - 1)).count_ones() as usize, k - 1);
                assert_eq!(w >> p & 1, 1);
            }
        }
    }

    #[test]
    fn large_vector_superblock_boundaries() {
        // Exercise positions around every superblock boundary.
        let bv = pattern(4096 + 17, |i| i % 2 == 1);
        let rs = RankSelect::new(bv.clone());
        for sb in 0..9 {
            for delta in [-2i64, -1, 0, 1, 2] {
                let pos = (sb as i64 * 512 + delta).clamp(0, bv.len() as i64) as usize;
                assert_eq!(rs.rank1(pos), naive_rank1(&bv, pos));
            }
        }
    }
}
