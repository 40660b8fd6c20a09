//! Word-RAM helpers used by the constant-time query procedures.
//!
//! The paper's query algorithms (§3.4, §4.3–4.4) lean on a handful of standard
//! word-RAM operations: most-significant-bit, longest common binary prefixes,
//! the 2-approximation `⌊x⌋₂ = 2^⌊log x⌋` of Lemma 4.4/4.5, and dyadic range
//! identifiers built from a binary trie over `[1, n]` (Observation 4.2).  They
//! are all collected here with exhaustive unit tests, because subtle off-by-one
//! errors in these primitives produce wrong distances that are hard to track
//! down from the scheme level.

/// Hints the CPU to pull `words[idx]`'s cache line toward L1 ahead of a
/// random access — the memory-level-parallelism primitive of the batch
/// engine's planning stage (`treelab-core`): while one query computes, the
/// next queries' label lines are already in flight.
///
/// Out-of-range indices are ignored (a prefetch must never widen the
/// touched footprint past the buffer).  On every x86-64 build this issues a
/// real `prefetcht0` — baseline SSE, so it needs no cargo feature and no
/// runtime detection.  It adds no dependency, no stall and no architectural
/// read.  On
/// other architectures it degrades to an early demand load (`black_box`
/// keeps the optimizer from deleting it), which costs one issued load but
/// still overlaps the miss with useful work.
#[inline(always)]
#[allow(unsafe_code)] // audited: in-bounds pointer, PREFETCHT0 never faults
pub fn prefetch_word(words: &[u64], idx: usize) {
    if idx >= words.len() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `idx` is in bounds, so the pointer is valid; `_mm_prefetch`
    // performs no architectural memory access and cannot fault.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            words.as_ptr().add(idx) as *const i8,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::hint::black_box(words[idx]);
    }
}

/// Index (0-based, from the least-significant end) of the most significant set
/// bit of `x`, or `None` for `x = 0`.
pub fn msb(x: u64) -> Option<u32> {
    if x == 0 {
        None
    } else {
        Some(63 - x.leading_zeros())
    }
}

/// Index (0-based) of the least significant set bit of `x`, or `None` for 0.
pub fn lsb(x: u64) -> Option<u32> {
    if x == 0 {
        None
    } else {
        Some(x.trailing_zeros())
    }
}

/// `⌊log₂ x⌋` for `x ≥ 1`.
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn floor_log2(x: u64) -> u32 {
    msb(x).expect("floor_log2 of zero is undefined")
}

/// `⌈log₂ x⌉` for `x ≥ 1`.
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        floor_log2(x - 1) + 1
    }
}

/// The 2-approximation `⌊x⌋₂ = 2^{⌊log₂ x⌋}` of §4.3: the largest power of two
/// not exceeding `x`.
///
/// # Panics
///
/// Panics if `x == 0` (the paper only applies it to positive interval lengths).
pub fn two_approx(x: u64) -> u64 {
    1u64 << floor_log2(x)
}

/// Exponent of the 2-approximation: `⌊log₂ x⌋`, i.e. `two_approx(x).trailing_zeros()`.
///
/// Labels store these exponents (numbers in `[0, log n]`) rather than the
/// powers themselves so they can go into a Lemma 2.2 monotone structure.
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn two_approx_exp(x: u64) -> u32 {
    floor_log2(x)
}

/// Lemma 4.4: for open intervals `A, B ⊆ C` with `A ∩ B = ∅`, at least one of
/// `⌊|A|⌋₂, ⌊|B|⌋₂` differs from `⌊|C|⌋₂`.
///
/// This helper checks the *conclusion* for given interval lengths and is used
/// by property tests of the k-distance decoder; the decoder itself only needs
/// [`two_approx`].
pub fn lemma_4_4_holds(len_a: u64, len_b: u64, len_c: u64) -> bool {
    if len_a == 0 || len_b == 0 || len_c == 0 {
        return true; // degenerate intervals are excluded by the lemma statement
    }
    two_approx(len_a) != two_approx(len_c) || two_approx(len_b) != two_approx(len_c)
}

/// Length of the longest common prefix of the `width`-bit binary expansions of
/// `a` and `b` (MSB-first).
///
/// # Panics
///
/// Panics if `width > 64` or either value does not fit in `width` bits.
pub fn common_prefix_len(a: u64, b: u64, width: u32) -> u32 {
    assert!(width <= 64);
    if width < 64 {
        assert!(
            a < (1u64 << width) && b < (1u64 << width),
            "values must fit in width"
        );
    }
    let x = a ^ b;
    if x == 0 {
        width
    } else {
        let highest_diff = msb(x).expect("x != 0");
        // Bits are compared from position width-1 down to 0.
        width - 1 - highest_diff
    }
}

/// Number of low-order bits that must be cleared from both `a` and `b` so that
/// they become equal (i.e. `width - common_prefix_len`), the `ℓ` of §4.4.
pub fn diverging_suffix_len(a: u64, b: u64, width: u32) -> u32 {
    width - common_prefix_len(a, b, width)
}

/// Dyadic range identifiers over the universe `[0, 2^width)` — the
/// `id(A)`/`height(A)` machinery of Observation 4.2.
///
/// Think of a complete binary trie of depth `width` whose leaves are the
/// integers `0..2^width`.  For a range `A = [a, b]`, `height(A)` is the height
/// of the trie node `NCA(a, b)` (0 when `a = b`), and `id(A)` is a numeric
/// representative of that trie node: the common prefix of `a` and `b` followed
/// by a `1` and then zeros.  Two key properties proved in §4:
///
/// * the identifier of `A` lies in `(min A, max A]` (so identifiers of disjoint
///   increasing ranges are strictly increasing), and
/// * `id(A)` is computable from *any* `x ∈ A` together with `height(A)` alone
///   ([`range_id_from_member`]), which is what lets a label reconstruct the
///   identifiers of all its significant ancestors from its own preorder number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeId {
    /// Numeric representative of the trie node (see module docs).
    pub id: u64,
    /// Height of the trie node: `0` for a singleton range.
    pub height: u32,
}

/// Height of the trie NCA of the range `[a, b]` in a trie over `width`-bit keys.
///
/// # Panics
///
/// Panics if `a > b`.
pub fn range_height(a: u64, b: u64, width: u32) -> u32 {
    assert!(a <= b, "range_height requires a <= b");
    diverging_suffix_len(a, b, width)
}

/// Identifier of the range `[a, b]` (see [`RangeId`]).
///
/// # Panics
///
/// Panics if `a > b`.
pub fn range_id(a: u64, b: u64, width: u32) -> RangeId {
    let height = range_height(a, b, width);
    RangeId {
        id: range_id_from_member(a, height),
        height,
    }
}

/// Reconstructs the numeric identifier of a range of height `height` from any
/// member `x` of the range: clear the `height` low bits of `x` and, when
/// `height > 0`, set bit `height − 1`.
pub fn range_id_from_member(x: u64, height: u32) -> u64 {
    if height == 0 {
        x
    } else if height >= 64 {
        1u64 << 63 // degenerate: whole universe; callers never exceed width ≤ 63
    } else {
        ((x >> height) << height) | (1u64 << (height - 1))
    }
}

/// Ceiling of the integer division `a / b`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn div_ceil(a: u64, b: u64) -> u64 {
    assert!(b != 0, "division by zero");
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msb_lsb_basics() {
        assert_eq!(msb(0), None);
        assert_eq!(lsb(0), None);
        assert_eq!(msb(1), Some(0));
        assert_eq!(msb(2), Some(1));
        assert_eq!(msb(3), Some(1));
        assert_eq!(msb(u64::MAX), Some(63));
        assert_eq!(lsb(8), Some(3));
        assert_eq!(lsb(12), Some(2));
        assert_eq!(lsb(u64::MAX), Some(0));
    }

    #[test]
    fn log2_helpers() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(1024), 10);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn two_approx_properties() {
        for x in 1..10_000u64 {
            let t = two_approx(x);
            assert!(t <= x && x < 2 * t, "x = {x}, t = {t}");
            assert!(t.is_power_of_two());
            assert_eq!(1u64 << two_approx_exp(x), t);
        }
        // Monotone: x <= y  =>  ⌊x⌋₂ <= ⌊y⌋₂  and ⌊x⌋₂ < ⌊2x⌋₂.
        for x in 1..2_000u64 {
            for y in x..(x + 50) {
                assert!(two_approx(x) <= two_approx(y));
            }
            assert!(two_approx(x) < two_approx(2 * x));
        }
    }

    #[test]
    fn lemma_4_4_exhaustive_small() {
        // For all disjoint sub-intervals A, B of C with |A|+|B| <= |C|,
        // the conclusion of Lemma 4.4 holds.
        for len_c in 2..128u64 {
            for len_a in 1..len_c {
                for len_b in 1..=(len_c - len_a) {
                    assert!(
                        lemma_4_4_holds(len_a, len_b, len_c),
                        "lenA={len_a} lenB={len_b} lenC={len_c}"
                    );
                }
            }
        }
    }

    #[test]
    fn common_prefix_len_cases() {
        assert_eq!(common_prefix_len(0b1010, 0b1010, 4), 4);
        assert_eq!(common_prefix_len(0b1010, 0b1011, 4), 3);
        assert_eq!(common_prefix_len(0b1010, 0b0010, 4), 0);
        assert_eq!(common_prefix_len(0, 0, 64), 64);
        assert_eq!(common_prefix_len(u64::MAX, u64::MAX - 1, 64), 63);
        assert_eq!(diverging_suffix_len(0b1010, 0b1011, 4), 1);
        assert_eq!(diverging_suffix_len(5, 5, 10), 0);
    }

    #[test]
    fn range_height_matches_naive_trie() {
        // Naive reference: walk up from both leaves until the dyadic blocks match.
        fn naive_height(a: u64, b: u64, width: u32) -> u32 {
            let mut h = 0;
            while (a >> h) != (b >> h) {
                h += 1;
                assert!(h <= width);
            }
            h
        }
        let width = 10;
        for a in 0..128u64 {
            for b in a..128u64 {
                assert_eq!(
                    range_height(a, b, width),
                    naive_height(a, b, width),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn range_id_is_in_half_open_interval_and_monotone() {
        // id(A) ∈ (min A, max A] for non-singleton A, == a for singletons;
        // and identifiers of disjoint increasing ranges strictly increase.
        let width = 12;
        let ranges = [(3u64, 4u64), (5, 6), (7, 20), (21, 21), (22, 63), (64, 100)];
        let mut prev = 0u64;
        for (i, &(a, b)) in ranges.iter().enumerate() {
            let rid = range_id(a, b, width);
            if a == b {
                assert_eq!(rid.id, a);
                assert_eq!(rid.height, 0);
            } else {
                assert!(rid.id > a && rid.id <= b, "range ({a},{b}) id {}", rid.id);
            }
            if i > 0 {
                assert!(rid.id > prev, "identifiers must strictly increase");
            }
            prev = rid.id;
        }
    }

    #[test]
    fn range_id_reconstructible_from_any_member() {
        let width = 10;
        for a in 0..200u64 {
            for b in a..(a + 40).min(1 << width) {
                let rid = range_id(a, b, width);
                for x in a..=b {
                    assert_eq!(
                        range_id_from_member(x, rid.height),
                        rid.id,
                        "a={a} b={b} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_ranges_have_distinct_trie_nodes() {
        // Observation 4.2.2: A ∩ B = ∅  =>  id(A) != id(B) (as trie nodes,
        // i.e. (id, height) pairs).
        let width = 8;
        let intervals: Vec<(u64, u64)> = (0..40).map(|i| (i * 6, i * 6 + 5)).collect();
        for (i, &(a1, b1)) in intervals.iter().enumerate() {
            for &(a2, b2) in &intervals[i + 1..] {
                let r1 = range_id(a1, b1, width + 2);
                let r2 = range_id(a2, b2, width + 2);
                assert_ne!((r1.id, r1.height), (r2.id, r2.height));
            }
        }
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 3), 0);
        assert_eq!(div_ceil(1, 3), 1);
        assert_eq!(div_ceil(3, 3), 1);
        assert_eq!(div_ceil(4, 3), 2);
        assert_eq!(div_ceil(u64::MAX, 1), u64::MAX);
    }
}
