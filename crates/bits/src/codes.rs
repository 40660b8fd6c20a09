//! Self-delimiting integer codes: unary, Elias γ and Elias δ (write side).
//!
//! The paper (§2, "Encoding integers") stores single integers with Elias δ
//! codes (`log x + O(log log x)` bits) and sequences of differences with Elias
//! γ codes (Lemma 2.2).  Both are *self-delimiting*: multiple values can be
//! concatenated and decoded back without any external length information,
//! which is how labels are assembled from heterogeneous parts.
//!
//! Conventions: γ and δ encode integers `x ≥ 1`; the `*_nz` helpers shift by
//! one so that 0 can be stored too (`x + 1` is encoded).  All encoders write
//! MSB-first through [`BitWriter`], and each has a closed-form length
//! (the crate's property tests decode them with a test-local reader).

use crate::BitWriter;

/// Number of bits in the minimal binary representation of `x` (and 1 for `x = 0`).
///
/// `bit_len(0) = 1`, `bit_len(1) = 1`, `bit_len(5) = 3`.
pub fn bit_len(x: u64) -> usize {
    if x == 0 {
        1
    } else {
        64 - x.leading_zeros() as usize
    }
}

/// Writes `x` in unary: `x` zero bits followed by a single one bit.
pub fn write_unary(w: &mut BitWriter, x: u64) {
    for _ in 0..x {
        w.write_bit(false);
    }
    w.write_bit(true);
}

/// Length in bits of the Elias γ code of `x ≥ 1`: `2⌊log x⌋ + 1`.
pub fn gamma_len(x: u64) -> usize {
    assert!(x >= 1, "gamma codes encode integers >= 1");
    2 * (bit_len(x) - 1) + 1
}

/// Writes the Elias γ code of `x ≥ 1`.
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn write_gamma(w: &mut BitWriter, x: u64) {
    assert!(x >= 1, "gamma codes encode integers >= 1");
    let n = bit_len(x) - 1; // number of bits after the leading 1
    write_unary(w, n as u64);
    if n > 0 {
        w.write_bits(x & ((1u64 << n) - 1), n);
    }
}

/// Length in bits of the Elias δ code of `x ≥ 1`.
pub fn delta_len(x: u64) -> usize {
    assert!(x >= 1, "delta codes encode integers >= 1");
    let n = bit_len(x) - 1;
    gamma_len(n as u64 + 1) + n
}

/// Writes the Elias δ code of `x ≥ 1` (γ-coded length, then the low bits).
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn write_delta(w: &mut BitWriter, x: u64) {
    assert!(x >= 1, "delta codes encode integers >= 1");
    let n = bit_len(x) - 1;
    write_gamma(w, n as u64 + 1);
    if n > 0 {
        w.write_bits(x & ((1u64 << n) - 1), n);
    }
}

/// Writes `x + 1` as an Elias γ code so that `x = 0` is representable.
pub fn write_gamma_nz(w: &mut BitWriter, x: u64) {
    write_gamma(w, x.checked_add(1).expect("gamma_nz overflow"));
}

/// Writes `x + 1` as an Elias δ code so that `x = 0` is representable.
pub fn write_delta_nz(w: &mut BitWriter, x: u64) {
    write_delta(w, x.checked_add(1).expect("delta_nz overflow"));
}

/// Length of [`write_gamma_nz`] output.
pub fn gamma_nz_len(x: u64) -> usize {
    gamma_len(x + 1)
}

/// Length of [`write_delta_nz`] output.
pub fn delta_nz_len(x: u64) -> usize {
    delta_len(x + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_len_values() {
        assert_eq!(bit_len(0), 1);
        assert_eq!(bit_len(1), 1);
        assert_eq!(bit_len(2), 2);
        assert_eq!(bit_len(3), 2);
        assert_eq!(bit_len(4), 3);
        assert_eq!(bit_len(255), 8);
        assert_eq!(bit_len(256), 9);
        assert_eq!(bit_len(u64::MAX), 64);
    }

    #[test]
    fn gamma_len_formula() {
        // |gamma(x)| = 2*floor(log2 x) + 1
        assert_eq!(gamma_len(1), 1);
        assert_eq!(gamma_len(2), 3);
        assert_eq!(gamma_len(3), 3);
        assert_eq!(gamma_len(4), 5);
        assert_eq!(gamma_len(1 << 20), 41);
    }

    #[test]
    fn delta_is_asymptotically_shorter_than_gamma() {
        for shift in [10u32, 20, 30, 40, 50] {
            let x = 1u64 << shift;
            assert!(delta_len(x) < gamma_len(x), "x = 2^{shift}");
        }
    }

    #[test]
    #[should_panic(expected = "encode integers >= 1")]
    fn gamma_rejects_zero() {
        let mut w = BitWriter::new();
        write_gamma(&mut w, 0);
    }
}
