//! Seeded property tests for [`treelab_bits::rank_select`]: every query is
//! checked against a naive bit-scan oracle, with the bit patterns chosen to
//! stress word boundaries (runs that start/end at multiples of 64, all-zero
//! and all-one words, isolated bits next to the sample grid).

use treelab_bits::rank_select::RankSelect;
use treelab_bits::BitVec;

/// SplitMix64 — a tiny deterministic generator so failures reproduce.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic test corpus: patterns that hit the classic rank/select
/// edge cases plus seeded random fills at several densities.
fn corpus() -> Vec<(String, Vec<bool>)> {
    let mut out: Vec<(String, Vec<bool>)> = vec![
        ("empty".into(), vec![]),
        ("one-zero".into(), vec![false]),
        ("one-one".into(), vec![true]),
        ("all-zero-191".into(), vec![false; 191]),
        ("all-one-192".into(), vec![true; 192]),
        ("all-one-64".into(), vec![true; 64]),
        // A single set bit at every position near a word boundary.
        (
            "boundary-bits".into(),
            (0..256)
                .map(|i| [63, 64, 65, 127, 128, 191].contains(&i))
                .collect(),
        ),
        // Alternating runs whose lengths straddle word boundaries.
        (
            "runs-63-65".into(),
            (0..520).map(|i| (i / 63) % 2 == 0).collect(),
        ),
        (
            "runs-64".into(),
            (0..512).map(|i| (i / 64) % 2 == 0).collect(),
        ),
        // Dense head, empty tail and vice versa (exercises select fallbacks
        // past the last sample).
        ("dense-head".into(), (0..400).map(|i| i < 130).collect()),
        ("dense-tail".into(), (0..400).map(|i| i >= 270).collect()),
    ];
    for (seed, density_num, len) in [
        (1u64, 1u64, 300usize),
        (2, 32, 300),
        (3, 63, 300),
        (4, 8, 1024),
        (5, 56, 1000),
        (6, 32, 4096),
    ] {
        let mut st = seed;
        let bits: Vec<bool> = (0..len)
            .map(|_| splitmix64(&mut st) % 64 < density_num)
            .collect();
        out.push((format!("random-s{seed}-d{density_num}-n{len}"), bits));
    }
    out
}

#[test]
fn rank_matches_naive_oracle_at_every_position() {
    for (name, bits) in corpus() {
        let rs = RankSelect::new(BitVec::from_bools(bits.iter().copied()));
        let mut ones = 0usize;
        for pos in 0..=bits.len() {
            assert_eq!(rs.rank1(pos), ones, "{name}: rank1({pos})");
            assert_eq!(rs.rank0(pos), pos - ones, "{name}: rank0({pos})");
            if pos < bits.len() && bits[pos] {
                ones += 1;
            }
        }
        assert_eq!(rs.count_ones(), ones, "{name}: count_ones");
        assert_eq!(rs.count_zeros(), bits.len() - ones, "{name}: count_zeros");
    }
}

#[test]
fn select_matches_naive_oracle_for_every_k() {
    for (name, bits) in corpus() {
        let rs = RankSelect::new(BitVec::from_bools(bits.iter().copied()));
        let one_positions: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        let zero_positions: Vec<usize> = (0..bits.len()).filter(|&i| !bits[i]).collect();
        for (k, &pos) in one_positions.iter().enumerate() {
            assert_eq!(rs.select1(k + 1), Some(pos), "{name}: select1({})", k + 1);
            // select and rank invert each other.
            assert_eq!(rs.rank1(pos), k, "{name}: rank1∘select1 at k={}", k + 1);
        }
        for (k, &pos) in zero_positions.iter().enumerate() {
            assert_eq!(rs.select0(k + 1), Some(pos), "{name}: select0({})", k + 1);
        }
        assert_eq!(rs.select1(one_positions.len() + 1), None, "{name}");
        assert_eq!(rs.select0(zero_positions.len() + 1), None, "{name}");
        assert_eq!(rs.select1(one_positions.len() + 1000), None, "{name}");
    }
}
