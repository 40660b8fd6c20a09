//! Property-style tests for the bit substrate: every structure is compared
//! against a straightforward reference implementation on randomized inputs.
//!
//! The build environment has no access to crates.io, so instead of `proptest`
//! these tests drive the same properties with the workspace's seeded SplitMix64
//! generator (`treelab_tree::rng`, a dev-dependency here): each property runs
//! over many independently-seeded random cases, which keeps the checks
//! deterministic and dependency-free while still exploring a wide input space.
//!
//! The crate is write-only, so decodability is proven here against
//! [`Reader`], a test-local MSB-first reader.

use treelab_bits::alphabetic::gilbert_moore_codeword;
use treelab_bits::wordram::{range_height, range_id_from_member, two_approx_exp};
use treelab_bits::{codes, monotone, BitVec, BitWriter};
use treelab_tree::rng::SplitMix64;

/// Seeded generator with a short local alias for the sampling call.
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(SplitMix64::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.gen_range(lo..hi)
    }
}

const CASES: u64 = 60;

/// MSB-first reader of the self-delimiting codes; `None` past the end.
struct Reader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bits: &'a BitVec) -> Self {
        Reader { bits, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    fn bits(&mut self, width: usize) -> Option<u64> {
        let v = self.bits.get_bits(self.pos, width)?;
        self.pos += width;
        Some(v)
    }

    fn unary(&mut self) -> Option<u64> {
        let mut zeros = 0;
        while self.bits(1)? == 0 {
            zeros += 1;
        }
        Some(zeros)
    }

    fn gamma(&mut self) -> Option<u64> {
        let n = self.unary()? as usize;
        Some(1u64.checked_shl(n as u32)? | self.bits(n)?)
    }

    fn delta(&mut self) -> Option<u64> {
        let n = self.gamma()? as usize - 1;
        Some(1u64.checked_shl(n as u32)? | self.bits(n)?)
    }
}

/// Edge values of every code: 1, `2^k − 1` and `2^k` for every `k`, and
/// `u64::MAX`.
fn edge_values() -> impl Iterator<Item = u64> {
    (1..64)
        .flat_map(|k| [(1u64 << k) - 1, 1 << k])
        .chain([1, u64::MAX])
}

#[test]
fn codes_round_trip_through_a_reference_reader() {
    let exhaustive = 1..2000u64;
    let mut rng = Rng::new(0xC0DE);
    let random: Vec<u64> = (0..2000).map(|_| rng.below(1, u64::MAX)).collect();
    let values: Vec<u64> = exhaustive.chain(edge_values()).chain(random).collect();
    let mut w = BitWriter::new();
    for &v in &values {
        codes::write_gamma(&mut w, v);
        codes::write_delta(&mut w, v);
        codes::write_unary(&mut w, v % 70);
        codes::write_gamma_nz(&mut w, v - 1);
        codes::write_delta_nz(&mut w, v - 1);
    }
    let bits = w.into_bitvec();
    let mut r = Reader::new(&bits);
    for &v in &values {
        assert_eq!(r.gamma(), Some(v), "gamma {v}");
        assert_eq!(r.delta(), Some(v), "delta {v}");
        assert_eq!(r.unary(), Some(v % 70), "unary {v}");
        assert_eq!(r.gamma().map(|x| x - 1), Some(v - 1), "gamma_nz {v}");
        assert_eq!(r.delta().map(|x| x - 1), Some(v - 1), "delta_nz {v}");
    }
    assert_eq!(r.remaining(), 0);
    // A truncated code reads as the end of the stream, never as a value.
    let mut w = BitWriter::new();
    codes::write_delta(&mut w, 1_000_000);
    let whole = w.into_bitvec();
    let truncated = whole.slice(0, whole.len() - 5).unwrap();
    assert_eq!(Reader::new(&truncated).delta(), None);
}

#[test]
fn every_writer_length_matches_its_closed_form() {
    fn written(write: impl FnOnce(&mut BitWriter)) -> usize {
        let mut w = BitWriter::new();
        write(&mut w);
        w.len()
    }
    let mut rng = Rng::new(0x1E57);
    let random: Vec<u64> = (0..CASES * 100)
        .map(|_| rng.next_u64() >> rng.below(0, 64))
        .collect();
    for x in edge_values().chain(random).filter(|&x| x >= 1) {
        assert_eq!(written(|w| codes::write_gamma(w, x)), codes::gamma_len(x));
        assert_eq!(written(|w| codes::write_delta(w, x)), codes::delta_len(x));
        let z = x - 1;
        assert_eq!(
            written(|w| codes::write_gamma_nz(w, z)),
            codes::gamma_nz_len(z)
        );
        assert_eq!(
            written(|w| codes::write_delta_nz(w, z)),
            codes::delta_nz_len(z)
        );
    }
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_mul(0x5EED).wrapping_add(5));
        let len = rng.below(0, 300) as usize;
        let max = 1u64 << rng.below(0, 63);
        let mut values: Vec<u64> = (0..len).map(|_| rng.below(0, max)).collect();
        values.sort_unstable();
        assert_eq!(
            written(|w| monotone::write(w, &values)),
            monotone::encoded_len(&values),
            "seed {seed}"
        );
    }
}

#[test]
fn bitvec_get_bits_matches_push_bits() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_mul(0x51ED).wrapping_add(1));
        let chunks: Vec<(u64, usize)> = (0..rng.below(0, 50))
            .map(|_| (rng.next_u64(), rng.below(1, 65) as usize))
            .collect();
        let mut bv = BitVec::new();
        let mut expected = Vec::new();
        for &(value, width) in &chunks {
            let masked = if width == 64 {
                value
            } else {
                value & ((1u64 << width) - 1)
            };
            bv.push_bits(masked, width);
            expected.push((masked, width));
        }
        let mut pos = 0;
        for (value, width) in expected {
            assert_eq!(
                bv.get_bits(pos, width),
                Some(value),
                "seed {seed} pos {pos}"
            );
            pos += width;
        }
    }
}

/// Reads the Lemma 2.2 encoding: the three γ header codes, one unary gap per
/// value, then the low bits.
fn read_monotone(r: &mut Reader<'_>) -> Vec<u64> {
    let len = r.gamma().unwrap() as usize - 1;
    if len == 0 {
        return Vec::new();
    }
    let low_width = r.gamma().unwrap() as usize - 1;
    let high_len = r.gamma().unwrap() as usize - 1;
    let high_start = r.pos;
    let mut high = 0;
    let highs: Vec<u64> = (0..len)
        .map(|_| {
            high += r.unary().unwrap();
            high
        })
        .collect();
    assert_eq!(r.pos - high_start, high_len, "high part length");
    highs
        .into_iter()
        .map(|h| (h << low_width) | r.bits(low_width).unwrap())
        .collect()
}

#[test]
fn monotone_writer_round_trips_through_a_reference_reader() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_mul(0x9137).wrapping_add(3));
        let len = rng.below(0, 300) as usize;
        let mut values: Vec<u64> = (0..len).map(|_| rng.below(0, 1_000_000)).collect();
        values.sort_unstable();
        let mut w = BitWriter::new();
        monotone::write(&mut w, &values);
        assert_eq!(w.len(), monotone::encoded_len(&values), "seed {seed}");
        // Sentinel bits: the reader must stop exactly before them.
        w.write_bits(0b101, 3);
        let bits = w.into_bitvec();
        let mut r = Reader::new(&bits);
        assert_eq!(read_monotone(&mut r), values, "seed {seed}");
        assert_eq!(r.remaining(), 3, "seed {seed}");
        assert_eq!(r.bits(3), Some(0b101), "seed {seed}");
    }
}

/// Checks the Gilbert–Moore code of `weights` (codewords taken in order from
/// [`gilbert_moore_codeword`]): prefix-free, lexicographically increasing,
/// and within the paper's `log₂(W/w) + 2` bits per symbol.
fn check_gilbert_moore(weights: &[u64]) {
    let total: u64 = weights.iter().sum();
    let mut prefix = 0;
    let code: Vec<(u64, usize)> = weights
        .iter()
        .map(|&w| {
            let cw = gilbert_moore_codeword(prefix, w, total);
            prefix += w;
            cw
        })
        .collect();
    for (i, (&w, &(_, len))) in weights.iter().zip(&code).enumerate() {
        let bound = (total as f64 / w as f64).log2() + 2.0;
        assert!(
            len as f64 <= bound,
            "{weights:?}: symbol {i} has {len} bits"
        );
    }
    // Left-aligned in 128 bits, an MSB-first codeword compares like its bit
    // string, and `a` is a prefix of `b` iff `b`'s first |a| bits equal `a`.
    let aligned = |(v, len): (u64, usize)| u128::from(v) << (128 - len);
    for i in 0..code.len() {
        for j in i + 1..code.len() {
            let ((vi, li), (vj, lj)) = (code[i], code[j]);
            let (short, long) = if li <= lj {
                ((vi, li), (vj, lj))
            } else {
                ((vj, lj), (vi, li))
            };
            assert_ne!(
                long.0 >> (long.1 - short.1),
                short.0,
                "{weights:?}: codewords {i} and {j} are not prefix-free"
            );
            assert!(
                aligned(code[i]) < aligned(code[j]),
                "{weights:?}: codeword {i} must precede codeword {j}"
            );
        }
    }
}

#[test]
fn gilbert_moore_codes_are_prefix_free_ordered_and_short() {
    for weights in [
        &[1][..],
        &[1, 1],
        &[1, 1, 1],
        &[1; 17],
        &[1; 64],
        &[100, 1],
        &[1, 100],
        &[1, 1000, 1, 1000, 1],
        &[1 << 40, 1, 1 << 20, 7],
        &[5, 4, 3, 2, 1],
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    ] {
        check_gilbert_moore(weights);
    }
    check_gilbert_moore(&(1..=50).map(|i| i * i).collect::<Vec<_>>());
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_mul(0x77F1).wrapping_add(11));
        let len = rng.below(1, 40) as usize;
        let weights: Vec<u64> = (0..len).map(|_| rng.below(1, 10_000)).collect();
        check_gilbert_moore(&weights);
    }
}

#[test]
fn two_approx_brackets_its_argument() {
    let mut rng = Rng::new(0xDECAF);
    let random: Vec<u64> = (0..2000).map(|_| rng.below(1, u64::MAX / 2)).collect();
    // Edge values no random sweep is guaranteed to hit.
    let edges = [1u64, 2, 3, 4, (1 << 40) - 1, 1 << 40, u64::MAX / 2];
    for x in random.into_iter().chain(edges) {
        let t = 1u64 << two_approx_exp(x);
        assert!(t <= x && x < 2 * t, "⌊{x}⌋₂ = {t}");
    }
}

#[test]
fn range_ids_reconstruct_from_members() {
    let mut rng = Rng::new(0xC0FFEE);
    for case in 0..2000 {
        let a = rng.below(0, 50_000);
        let len = rng.below(0, 5_000);
        let b = a + len;
        let height = range_height(a, b, 17);
        let id = range_id_from_member(a, height);
        // Identifier lies in (a, b] for non-singletons and is reconstructible
        // from both endpoints.
        if len > 0 {
            assert!(id > a && id <= b, "case {case}: [{a}, {b}] -> {id}");
        } else {
            assert_eq!((id, height), (a, 0), "case {case}");
        }
        assert_eq!(
            range_id_from_member(b, height),
            id,
            "case {case} from b={b}"
        );
    }
}
