//! Order-preserving (alphabetic) prefix codes, Gilbert–Moore style.
//!
//! The heavy-path auxiliary labels (the Lemma 2.1 substrate implemented in
//! `treelab-core::hpath`) need, for every heavy path, a prefix-free code over
//! the light edges hanging off that path with two extra properties:
//!
//! 1. **weight-sensitivity** — a light edge leading to a subtree with `w` of the
//!    instance's `W` nodes gets a codeword of length `≤ ⌈log₂(W/w)⌉ + 2`, so the
//!    codeword lengths telescope to `O(log n)` along any root-to-leaf path; and
//! 2. **order preservation** — codewords compare lexicographically in the same
//!    order as the light edges appear along the heavy path (top to bottom),
//!    so comparing two labels' codewords reveals which node branches off
//!    closer to the head (the ingredient behind domination and the
//!    approximate-scheme side selection).
//!
//! The classic Gilbert–Moore construction provides exactly this: symbol `i`
//! with probability `p_i` is assigned the first `⌈log₂(1/p_i)⌉ + 1` bits of the
//! binary expansion of the cumulative midpoint `P_{i-1} + p_i/2`.

use crate::BitVec;

/// An order-preserving prefix code over `m` weighted symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlphabeticCode {
    codewords: Vec<BitVec>,
}

impl AlphabeticCode {
    /// Builds the Gilbert–Moore code for the given positive weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is zero, or the total weight
    /// exceeds `2^62` (far beyond any tree size used here).
    pub fn new(weights: &[u64]) -> Self {
        assert!(
            !weights.is_empty(),
            "alphabetic code needs at least one symbol"
        );
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let total: u64 = weights.iter().sum();
        assert!(total <= 1 << 62, "total weight too large");

        let mut codewords = Vec::with_capacity(weights.len());
        let mut prefix_sum: u64 = 0;
        for &w in weights {
            let (value, len) = gilbert_moore_codeword(prefix_sum, w, total);
            let mut cw = BitVec::with_capacity(len);
            cw.push_bits(value, len);
            codewords.push(cw);
            prefix_sum += w;
        }
        AlphabeticCode { codewords }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.codewords.len()
    }

    /// Returns `true` if the code has no symbols (never constructed).
    pub fn is_empty(&self) -> bool {
        self.codewords.is_empty()
    }

    /// Codeword of symbol `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn codeword(&self, i: usize) -> &BitVec {
        &self.codewords[i]
    }

    /// All codewords, in symbol order.
    pub fn codewords(&self) -> &[BitVec] {
        &self.codewords
    }

    /// Decodes the symbol whose codeword is a prefix of `bits[start..]`,
    /// returning `(symbol, codeword_length)`.
    ///
    /// Linear in the number of symbols; used by tests and by the level-ancestor
    /// scheme's label reconstruction (which has the code table available), not
    /// by distance queries.
    pub fn decode_at(&self, bits: &BitVec, start: usize) -> Option<(usize, usize)> {
        for (i, cw) in self.codewords.iter().enumerate() {
            if cw.len() + start <= bits.len() {
                let window = bits.slice(start, cw.len()).expect("checked range");
                if &window == cw {
                    return Some((i, cw.len()));
                }
            }
        }
        None
    }
}

/// One Gilbert–Moore codeword in closed form: the symbol of weight `w` whose
/// predecessors weigh `prefix` in total, in a code of total weight `total`.
///
/// Returns `(value, len)`: `len = ⌈log₂(total / w)⌉ + 1`, and `value` holds
/// the first `len` bits of the binary expansion of the cumulative midpoint
/// `(2·prefix + w) / (2·total)`, MSB-first — that is,
/// `⌊(2·prefix + w)·2^len / (2·total)⌋` — exactly the bits
/// [`AlphabeticCode::new`] assigns (append them with
/// [`BitVec::push_bits`]).  Requires `0 < w`, `prefix + w ≤ total ≤ 2^62`.
pub fn gilbert_moore_codeword(prefix: u64, w: u64, total: u64) -> (u64, usize) {
    debug_assert!(w > 0 && prefix + w <= total && total <= 1 << 62);
    // Codeword length: ceil(log2(total / w)) + 1.
    let mut len = 1usize;
    let mut pow = 1u128;
    while pow * u128::from(w) < u128::from(total) {
        pow <<= 1;
        len += 1;
    }
    let numerator = 2 * u128::from(prefix) + u128::from(w);
    let value = (numerator << len) / (2 * u128::from(total));
    (value as u64, len)
}

/// Convenience wrapper: just the codewords for the given weights.
pub fn gilbert_moore(weights: &[u64]) -> Vec<BitVec> {
    AlphabeticCode::new(weights).codewords.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::bit_len;
    use std::cmp::Ordering;

    fn check_code(weights: &[u64]) {
        let code = AlphabeticCode::new(weights);
        let total: u64 = weights.iter().sum();
        assert_eq!(code.len(), weights.len());

        // Length bound: |c_i| <= ceil(log2(W / w_i)) + 1  (we assert the
        // paper-facing bound of +2 with the exact internal bound too).
        for (i, &w) in weights.iter().enumerate() {
            let bound = if w >= total {
                1
            } else {
                let ratio = total.div_ceil(w);
                bit_len(ratio - 1) + 1
            };
            assert!(
                code.codeword(i).len() <= bound + 1,
                "symbol {i}: len {} > bound {}",
                code.codeword(i).len(),
                bound + 1
            );
        }

        // Prefix-freeness.
        for i in 0..weights.len() {
            for j in 0..weights.len() {
                if i != j {
                    assert!(
                        !code.codeword(i).starts_with(code.codeword(j))
                            || code.codeword(i) == code.codeword(j),
                        "codeword {j} is a prefix of codeword {i}"
                    );
                    assert_ne!(
                        code.codeword(i),
                        code.codeword(j),
                        "codewords must be distinct"
                    );
                }
            }
        }

        // Order preservation: lexicographic order == symbol order.
        for i in 0..weights.len() {
            for j in (i + 1)..weights.len() {
                assert_eq!(
                    code.codeword(i).lex_cmp(code.codeword(j)),
                    Ordering::Less,
                    "codeword {i} must be lexicographically before codeword {j}"
                );
            }
        }

        // decode_at identifies every codeword.
        for (i, cw) in code.codewords().iter().enumerate() {
            let mut padded = cw.clone();
            padded.push(true);
            padded.push(false);
            assert_eq!(code.decode_at(&padded, 0), Some((i, cw.len())));
        }
    }

    #[test]
    fn uniform_weights() {
        check_code(&[1]);
        check_code(&[1, 1]);
        check_code(&[1, 1, 1]);
        check_code(&[1; 17]);
        check_code(&[1; 64]);
    }

    #[test]
    fn skewed_weights() {
        check_code(&[100, 1]);
        check_code(&[1, 100]);
        check_code(&[1, 1000, 1, 1000, 1]);
        check_code(&[1 << 40, 1, 1 << 20, 7]);
        check_code(&[5, 4, 3, 2, 1]);
        check_code(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn kraft_style_total_length_bound() {
        // Sum over symbols of w_i * |c_i| <= W * (H(w) + 2) — checked loosely:
        // every codeword respects its individual bound, which is what the
        // telescoping argument in hpath labeling needs.
        let weights: Vec<u64> = (1..=50).map(|i| i * i).collect();
        let total: u64 = weights.iter().sum();
        let code = AlphabeticCode::new(&weights);
        for (i, &w) in weights.iter().enumerate() {
            let ratio = (total as f64) / (w as f64);
            assert!(
                (code.codeword(i).len() as f64) <= ratio.log2() + 2.0 + 1e-9,
                "symbol {i}"
            );
        }
    }

    #[test]
    fn single_dominant_symbol_gets_short_code() {
        let code = AlphabeticCode::new(&[1_000_000, 1, 1]);
        assert!(code.codeword(0).len() <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one symbol")]
    fn empty_weights_rejected() {
        AlphabeticCode::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_weight_rejected() {
        AlphabeticCode::new(&[3, 0, 1]);
    }

    #[test]
    fn gilbert_moore_helper_matches_struct() {
        let weights = [3u64, 1, 4, 1, 5];
        let cws = gilbert_moore(&weights);
        let code = AlphabeticCode::new(&weights);
        assert_eq!(cws.len(), code.len());
        for (i, cw) in cws.iter().enumerate() {
            assert_eq!(cw, code.codeword(i));
        }
    }

    #[test]
    fn closed_form_codewords_match_the_binary_expansion() {
        // Reference: emit the midpoint's binary expansion bit by bit.
        for weights in [
            vec![1u64],
            vec![3, 1, 4, 1, 5, 9, 2, 6],
            vec![1, 1000, 1, 1],
            vec![1 << 40, 1, 1 << 20],
        ] {
            let total: u64 = weights.iter().sum();
            let mut prefix = 0;
            for &w in &weights {
                let (value, len) = gilbert_moore_codeword(prefix, w, total);
                let ceil_log = 64 - ((total - 1) / w).leading_zeros() as usize;
                assert_eq!(len, ceil_log + 1, "w={w}");
                let (mut num, den) = (
                    2 * u128::from(prefix) + u128::from(w),
                    2 * u128::from(total),
                );
                for j in (0..len).rev() {
                    num *= 2;
                    assert_eq!(value >> j & 1 == 1, num >= den, "w={w} bit {j}");
                    num %= den;
                }
                prefix += w;
            }
        }
    }

    #[test]
    fn decode_at_with_offset_and_missing() {
        let code = AlphabeticCode::new(&[2, 3, 5]);
        let mut bits = BitVec::new();
        bits.push(true); // garbage leading bit
        let target = code.codeword(2).clone();
        bits.extend_from(&target);
        assert_eq!(code.decode_at(&bits, 1), Some((2, target.len())));
        // Reading past the end finds nothing.
        assert_eq!(code.decode_at(&bits, bits.len()), None);
    }
}
