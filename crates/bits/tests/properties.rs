//! Property-style tests for the bit substrate: every structure is compared
//! against a straightforward reference implementation on randomized inputs.
//!
//! The build environment has no access to crates.io, so instead of `proptest`
//! these tests drive the same properties with the workspace's seeded SplitMix64
//! generator (`treelab_tree::rng`, a dev-dependency here): each property runs
//! over many independently-seeded random cases, which keeps the checks
//! deterministic and dependency-free while still exploring a wide input space.

use treelab_bits::alphabetic::AlphabeticCode;
use treelab_bits::wordram::{range_id, range_id_from_member, two_approx};
use treelab_bits::{codes, monotone, BitReader, BitVec, BitWriter};
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

#[test]
fn gamma_delta_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.below(0, 200) as usize;
        let values: Vec<u64> = (0..len).map(|_| rng.below(1, u64::MAX / 2)).collect();
        let mut w = BitWriter::new();
        for &v in &values {
            codes::write_gamma(&mut w, v.min(1 << 40));
            codes::write_delta(&mut w, v);
        }
        let bits = w.into_bitvec();
        let mut r = BitReader::new(&bits);
        for &v in &values {
            assert_eq!(codes::read_gamma(&mut r).unwrap(), v.min(1 << 40));
            assert_eq!(codes::read_delta(&mut r).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0, "seed {seed}");
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

/// Test-local reader of the Lemma 2.2 encoding (the crate is write-only):
/// the three γ header codes, one unary gap per value, then the low bits.
fn read_monotone(r: &mut BitReader<'_>) -> Vec<u64> {
    let len = codes::read_gamma_nz(r).unwrap() as usize;
    if len == 0 {
        return Vec::new();
    }
    let low_width = codes::read_gamma_nz(r).unwrap() as usize;
    let high_len = codes::read_gamma_nz(r).unwrap() as usize;
    let high_start = r.position();
    let mut high = 0;
    let highs: Vec<u64> = (0..len)
        .map(|_| {
            high += codes::read_unary(r).unwrap();
            high
        })
        .collect();
    assert_eq!(r.position() - high_start, high_len, "high part length");
    highs
        .into_iter()
        .map(|h| match low_width {
            0 => h,
            w => (h << w) | r.read_bits(w).unwrap(),
        })
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
        let mut r = BitReader::new(&bits);
        assert_eq!(read_monotone(&mut r), values, "seed {seed}");
        assert_eq!(r.remaining(), 3, "seed {seed}");
        assert_eq!(r.read_bits(3).unwrap(), 0b101, "seed {seed}");
    }
}

#[test]
fn alphabetic_code_is_prefix_free_and_ordered() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed.wrapping_mul(0x77F1).wrapping_add(11));
        let len = rng.below(1, 40) as usize;
        let weights: Vec<u64> = (0..len).map(|_| rng.below(1, 10_000)).collect();
        let code = AlphabeticCode::new(&weights);
        for i in 0..weights.len() {
            for j in (i + 1)..weights.len() {
                assert!(
                    !code.codeword(i).starts_with(code.codeword(j)),
                    "seed {seed} ({i},{j})"
                );
                assert!(
                    !code.codeword(j).starts_with(code.codeword(i)),
                    "seed {seed} ({i},{j})"
                );
                assert_eq!(
                    code.codeword(i).lex_cmp(code.codeword(j)),
                    std::cmp::Ordering::Less,
                    "seed {seed} ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn two_approx_brackets_its_argument() {
    let mut rng = Rng::new(0xDECAF);
    for case in 0..2000 {
        let x = rng.below(1, u64::MAX / 2);
        let t = two_approx(x);
        assert!(t.is_power_of_two(), "case {case}: two_approx({x}) = {t}");
        assert!(t <= x, "case {case}: two_approx({x}) = {t}");
        assert!(x < 2 * t, "case {case}: two_approx({x}) = {t}");
    }
    // Edge values no random sweep is guaranteed to hit.
    for x in [1u64, 2, 3, 4, (1 << 40) - 1, 1 << 40, u64::MAX / 2] {
        let t = two_approx(x);
        assert!(t.is_power_of_two() && t <= x && x < 2 * t, "x = {x}");
    }
}

#[test]
fn range_ids_reconstruct_from_members() {
    let mut rng = Rng::new(0xC0FFEE);
    for case in 0..2000 {
        let a = rng.below(0, 50_000);
        let len = rng.below(0, 5_000);
        let b = a + len;
        let width = 17;
        let rid = range_id(a, b, width);
        // Identifier lies in (a, b] for non-singletons and is reconstructible
        // from both endpoints.
        if len > 0 {
            assert!(
                rid.id > a && rid.id <= b,
                "case {case}: [{a}, {b}] -> {}",
                rid.id
            );
        } else {
            assert_eq!(rid.id, a, "case {case}");
        }
        assert_eq!(
            range_id_from_member(a, rid.height),
            rid.id,
            "case {case} from a={a}"
        );
        assert_eq!(
            range_id_from_member(b, rid.height),
            rid.id,
            "case {case} from b={b}"
        );
    }
}
