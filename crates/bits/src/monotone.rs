//! The Lemma 2.2 encoding: succinct monotone integer sequences, write side.
//!
//! Lemma 2.2 of the paper: a monotone sequence of `s` integers in `[0, M]` can
//! be encoded with `O(s · max(1, log(M/s)))` bits.  The labels embed such
//! sequences — codeword-length prefix sums, significant-ancestor heights,
//! capped distances, 2-approximation exponents — and the experiments (E1–E6)
//! charge their encoded length to every label.
//!
//! Queries never read this encoding: they are served by the packed
//! fixed-width kernels of `treelab-core`.  So the module is write-only:
//! [`encoded_len`] gives the closed-form length, and [`write()`] emits the
//! bits.
//!
//! The encoding is the classic high/low-bit split (Elias–Fano): each value is
//! split into `⌊log(M/s)⌋` low bits stored verbatim and a high part stored as
//! unary gaps; this is exactly the `x_i mod b` / `x_i div b` decomposition in
//! the paper's proof.  On the wire, in order:
//!
//! ```text
//! γ(len) [γ(low width) γ(high length) high gaps low bits]
//! ```
//!
//! where the bracketed part is absent for an empty sequence, the high gaps
//! are one unary code `0^(h_i − h_{i−1}) 1` per value, and the low bits are
//! `len · low width` bits, MSB-first per value.

use crate::codes;
use crate::BitWriter;

/// Low width ⌊log₂(M/s)⌋: the standard Elias–Fano parameter choice (the
/// `x mod b` / `x div b` split of the Lemma 2.2 proof).  Any value in
/// [0, 63] is correct; this one realizes the space bound.  Shared by
/// [`write()`] and [`encoded_len`], so the two can never disagree.
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

/// Closed-form length in bits of [`write()`]'s output for a non-decreasing
/// sequence, without writing a bit.
///
/// The size depends only on the length `len` and the last (largest) value
/// `last`: the header codes, the `len + (last >> low_width)` high bits and the
/// `len · low_width` low bits.  The label builders use this for their
/// wire-size accounting; their test-only encoders assert it against
/// [`write()`] bit for bit.
pub fn encoded_len<T: Copy + Into<u64>>(values: &[T]) -> usize {
    let len = values.len();
    let mut total = codes::gamma_nz_len(len as u64);
    let Some(&last) = values.last() else {
        return total;
    };
    let last: u64 = last.into();
    let low_width = low_width_for(len, last);
    let high_len = len + (last >> low_width) as usize;
    total += codes::gamma_nz_len(low_width as u64);
    total += codes::gamma_nz_len(high_len as u64);
    total += high_len + len * low_width;
    total
}

/// Writes a non-decreasing sequence in the Lemma 2.2 encoding (see the
/// module documentation for the layout); the output is self-delimiting and
/// exactly [`encoded_len`] bits long.
///
/// # Example
///
/// ```
/// use treelab_bits::{monotone, BitWriter};
///
/// let values: [u32; 7] = [0, 3, 3, 7, 20, 20, 21];
/// let mut w = BitWriter::new();
/// monotone::write(&mut w, &values);
/// assert_eq!(w.len(), monotone::encoded_len(&values));
/// ```
///
/// # Panics
///
/// Panics if the slice is not non-decreasing.
pub fn write<T: Copy + Into<u64>>(w: &mut BitWriter, values: &[T]) {
    let len = values.len();
    codes::write_gamma_nz(w, len as u64);
    if len == 0 {
        return;
    }
    let last: u64 = values[len - 1].into();
    let low_width = low_width_for(len, last);
    codes::write_gamma_nz(w, low_width as u64);
    codes::write_gamma_nz(w, (len + (last >> low_width) as usize) as u64);
    let mut prev = 0u64;
    for &v in values {
        let v: u64 = v.into();
        assert!(
            prev <= v,
            "a Lemma 2.2 sequence must be non-decreasing ({prev} > {v})"
        );
        codes::write_unary(w, (v >> low_width) - (prev >> low_width));
        prev = v;
    }
    if low_width > 0 {
        let mask = (1u64 << low_width) - 1;
        for &v in values {
            w.write_bits(v.into() & mask, low_width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(values: &[u64]) -> usize {
        let mut w = BitWriter::new();
        write(&mut w, values);
        w.len()
    }

    #[test]
    fn written_length_matches_the_closed_form() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![5],
            vec![0, 0, 0, 0],
            vec![0, 3, 3, 7, 20, 20, 21],
            vec![1_000_000, 1_000_000, 2_000_000],
            (0..200).map(|i| i * i).collect(),
            vec![u64::MAX >> 2, u64::MAX >> 2, (u64::MAX >> 2) + 5],
        ];
        for values in shapes {
            assert_eq!(written(&values), encoded_len(&values), "{values:?}");
        }
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
            let size = written(&values);
            let bound = 16
                * (s as usize)
                * std::cmp::max(1, codes::bit_len(m.checked_div(s).unwrap_or(0).max(1)))
                + 64;
            assert!(size <= bound, "s={s} M={m} size={size} bound={bound}");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_input() {
        written(&[3, 2]);
    }
}
