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

/// One Gilbert–Moore codeword in closed form: the symbol of weight `w` whose
/// predecessors weigh `prefix` in total, in a code of total weight `total`.
///
/// Returns `(value, len)`: `len = ⌈log₂(total / w)⌉ + 1`, and `value` holds
/// the first `len` bits of the binary expansion of the cumulative midpoint
/// `(2·prefix + w) / (2·total)`, MSB-first — that is,
/// `⌊(2·prefix + w)·2^len / (2·total)⌋` (append them with
/// [`BitVec::push_bits`](crate::BitVec::push_bits)).  Requires `0 < w`,
/// `prefix + w ≤ total ≤ 2^62`.
///
/// Taken over the symbols in order, with `prefix` the running sum of the
/// weights before each, the codewords are prefix-free, increase
/// lexicographically, and satisfy `len ≤ ⌈log₂(W/w)⌉ + 2`; the crate's
/// property tests check all three.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn single_dominant_symbol_gets_short_code() {
        assert!(gilbert_moore_codeword(0, 1_000_000, 1_000_002).1 <= 2);
    }
}
