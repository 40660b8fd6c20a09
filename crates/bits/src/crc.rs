//! Word-level CRC-64 framing for persisted bit structures.
//!
//! The scheme store in `treelab-core` serializes a whole labeling scheme into
//! one contiguous `u64` buffer and frames it with a checksum, so a store read
//! back from disk (or received from another process) can be validated *once*
//! and then queried without any further per-label decoding.  This module
//! provides that checksum: the CRC-64/XZ polynomial (reflected
//! `0x42F0E1EBA9EA3693`), computed **one 64-bit word per step** with
//! slice-by-8 tables.
//!
//! One slice-by-8 chain carries a dependency from word to word (eight
//! table loads and their XOR tree per step), which held it to 1.1–1.25 GiB/s
//! on a shared 2-vCPU x86-64 host.  [`Crc64::update_words`] therefore
//! splits its input into blocks of four lanes of 64 words each and runs the
//! same step on the four lanes interleaved, so four independent chains
//! overlap.  The CRC is linear over GF(2), so a lane started from a zero
//! state holds its words' contribution, and the block's state is recovered
//! by Horner's rule: shift the running state past one lane (multiply by
//! x^(64·64) mod P, a constant built at compile time by GF(2)
//! multiply-and-square and applied through a 4-bit table), then XOR in the
//! next lane.  Words that do not fill a block take the serial step.  On the
//! same host this runs at 2.7–3.8 GiB/s from 600-word frames up to 20 MiB
//! (×0.31–×0.44 of the serial time); two lanes took ×0.53–×0.63 of it and
//! eight ×0.53–×0.66 (EXPERIMENTS.md E28).  The digest is the serial one,
//! bit for bit.
//!
//! `crc64_words` over a word buffer equals `crc64_bytes` over the same words
//! serialized little-endian, which is exactly the byte order the store's
//! `to_bytes`/`from_bytes` use — the two sides can checksum whichever
//! representation they already hold.

/// The CRC-64/XZ generator polynomial, reflected.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Byte-at-a-time table: `BYTE_TABLE[b]` is the CRC state after absorbing the
/// single byte `b` into a zero state.
const fn byte_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u64;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
}

/// Slice-by-8 tables: `TABLES[k][b]` advances the contribution of byte `b` by
/// `k` further bytes, so one 64-bit word is absorbed with eight independent
/// table lookups (no loop-carried dependency within the word).
const fn slice_tables() -> [[u64; 256]; 8] {
    let byte = byte_table();
    let mut tables = [[0u64; 256]; 8];
    tables[0] = byte;
    let mut k = 1;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = byte[(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u64; 256]; 8] = slice_tables();

/// Independent CRC streams [`Crc64::update_words`] keeps in flight (its
/// loop is written out for four).
const LANES: usize = 4;

/// Words per lane; a block is `LANES * LANE_WORDS` words.
const LANE_WORDS: usize = 64;

/// `a · x mod P` in the reflected representation (bit 63 holds the
/// coefficient of x⁰): one zero bit shifted through the CRC register.
const fn mul_x(a: u64) -> u64 {
    (a >> 1) ^ (POLY & (a & 1).wrapping_neg())
}

/// `a · b mod P` over GF(2), one bit of `a` at a time.
const fn gf_mul(a: u64, mut b: u64) -> u64 {
    let mut r = 0;
    let mut i = 0;
    while i < 64 {
        r ^= b & ((a >> (63 - i)) & 1).wrapping_neg();
        b = mul_x(b);
        i += 1;
    }
    r
}

/// `x^e mod P` by multiply-and-square.
const fn x_pow(mut e: usize) -> u64 {
    let (mut r, mut base) = (1u64 << 63, 1u64 << 62);
    while e > 0 {
        if e & 1 == 1 {
            r = gf_mul(r, base);
        }
        base = gf_mul(base, base);
        e >>= 1;
    }
    r
}

/// The fold constant x^(64·`LANE_WORDS`) mod P: multiplying a CRC state by
/// it advances the state past one lane of zero words.
const LANE_SHIFT: u64 = x_pow(64 * LANE_WORDS);

/// `FOLD[k][v]` is `(v << 4k) · LANE_SHIFT mod P`, so a state is shifted
/// past a lane with sixteen lookups, one per nibble.
const fn fold_table() -> [[u64; 16]; 16] {
    let mut table = [[0u64; 16]; 16];
    let mut k = 0;
    while k < 16 {
        let mut v = 0;
        while v < 16 {
            table[k][v] = gf_mul((v as u64) << (4 * k), LANE_SHIFT);
            v += 1;
        }
        k += 1;
    }
    table
}

static FOLD: [[u64; 16]; 16] = fold_table();

/// Absorbs one word into `crc` (slice-by-8).
#[inline(always)]
fn step(crc: u64, w: u64) -> u64 {
    let x = crc ^ w;
    TABLES[7][(x & 0xFF) as usize]
        ^ TABLES[6][((x >> 8) & 0xFF) as usize]
        ^ TABLES[5][((x >> 16) & 0xFF) as usize]
        ^ TABLES[4][((x >> 24) & 0xFF) as usize]
        ^ TABLES[3][((x >> 32) & 0xFF) as usize]
        ^ TABLES[2][((x >> 40) & 0xFF) as usize]
        ^ TABLES[1][((x >> 48) & 0xFF) as usize]
        ^ TABLES[0][(x >> 56) as usize]
}

/// `crc · LANE_SHIFT mod P`: the state after a further lane of zero words.
#[inline(always)]
fn shift_lane(crc: u64) -> u64 {
    let mut r = 0;
    for (k, row) in FOLD.iter().enumerate() {
        r ^= row[((crc >> (4 * k)) & 0xF) as usize];
    }
    r
}

/// CRC-64/XZ of a byte slice (byte-at-a-time reference implementation).
///
/// Matches the standard check value: `crc64_bytes(b"123456789")` is
/// `0x995D_C9BB_DF19_39FA`.
pub fn crc64_bytes(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// CRC-64/XZ of a word buffer, one word per step (slice-by-8, four lanes
/// at a time).
///
/// Equal to [`crc64_bytes`] over the words serialized in little-endian byte
/// order.
pub fn crc64_words(words: &[u64]) -> u64 {
    let mut crc = Crc64::new();
    crc.update_words(words);
    crc.finish()
}

/// Streaming CRC-64/XZ over words: feed any number of chunks through
/// [`Crc64::update_words`] and read the digest with [`Crc64::finish`].
///
/// `Crc64::new().update_words(w).finish()` equals [`crc64_words`]`(w)` for
/// any chunking of `w`, which is what lets a serving process verify a
/// multi-gigabyte frame checksum *incrementally* in the background instead
/// of stalling its first query on one monolithic scan.
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// A fresh CRC state (no words absorbed yet).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc64 { state: !0u64 }
    }

    /// Absorbs `words`: whole blocks of four interleaved lanes, then the
    /// remaining words one at a time (see the module documentation).
    pub fn update_words(&mut self, words: &[u64]) {
        let mut crc = self.state;
        let mut blocks = words.chunks_exact(LANES * LANE_WORDS);
        for block in &mut blocks {
            let (a, rest) = block.split_at(LANE_WORDS);
            let (b, rest) = rest.split_at(LANE_WORDS);
            let (c, d) = rest.split_at(LANE_WORDS);
            let (mut sa, mut sb, mut sc, mut sd) = (crc, 0, 0, 0);
            for i in 0..LANE_WORDS {
                sa = step(sa, a[i]);
                sb = step(sb, b[i]);
                sc = step(sc, c[i]);
                sd = step(sd, d[i]);
            }
            crc = shift_lane(shift_lane(shift_lane(sa) ^ sb) ^ sc) ^ sd;
        }
        for &w in blocks.remainder() {
            crc = step(crc, w);
        }
        self.state = crc;
    }

    /// The digest of everything absorbed so far (the state itself is not
    /// consumed; more words may be absorbed after reading it).
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::rng::SplitMix64;

    #[test]
    fn matches_the_standard_check_value() {
        // The CRC-64/XZ check value over the ASCII digits "123456789".
        assert_eq!(crc64_bytes(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytes(b""), 0);
    }

    const BLOCK: usize = LANES * LANE_WORDS;

    fn random_words(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn words_and_bytes_agree_on_little_endian_serialization() {
        // Every length from empty to two blocks and three tail words.
        let words = random_words(2 * BLOCK + 3, 26);
        let bytes = le_bytes(&words);
        for n in 0..=words.len() {
            assert_eq!(
                crc64_words(&words[..n]),
                crc64_bytes(&bytes[..8 * n]),
                "length {n}"
            );
        }
    }

    #[test]
    fn streaming_state_matches_the_one_shot_digest_for_any_chunking() {
        let words = random_words(2 * 65_536 + 3 * LANE_WORDS + 5, 27);
        let expect = crc64_bytes(&le_bytes(&words));
        assert_eq!(crc64_words(&words), expect);
        let l = LANE_WORDS;
        for chunk in [1, l - 1, l, 4 * l - 1, 4 * l + 1, 65_536] {
            let mut crc = Crc64::new();
            for c in words.chunks(chunk) {
                crc.update_words(c);
            }
            assert_eq!(crc.finish(), expect, "chunk size {chunk}");
        }
        // finish() is non-consuming: reading mid-stream is allowed.
        let mut crc = Crc64::new();
        crc.update_words(&words[..BLOCK + 1]);
        assert_eq!(crc.finish(), crc64_words(&words[..BLOCK + 1]));
        crc.update_words(&words[BLOCK + 1..]);
        assert_eq!(crc.finish(), expect);
    }

    #[test]
    fn detects_single_bit_flips() {
        let words = random_words(BLOCK + 7, 28);
        let base = crc64_words(&words);
        let mut flips: Vec<(usize, u32)> = (0..LANES)
            .flat_map(|lane| {
                [
                    (lane * LANE_WORDS, 0),
                    (lane * LANE_WORDS + LANE_WORDS - 1, 63),
                ]
            })
            .collect();
        flips.extend([(BLOCK, 17), (BLOCK + 6, 40)]);
        for (i, bit) in flips {
            let mut corrupt = words.clone();
            corrupt[i] ^= 1u64 << bit;
            let digest = crc64_words(&corrupt);
            assert_ne!(digest, base, "flip word {i} bit {bit}");
            assert_eq!(digest, crc64_bytes(&le_bytes(&corrupt)), "word {i}");
        }
    }

    #[test]
    fn the_fold_constant_is_x_to_the_lane_bits() {
        // x^(64·LANE_WORDS) by one multiplication by x per bit, from 1.
        let one_bit_at_a_time = (0..64 * LANE_WORDS).fold(1u64 << 63, |a, _| mul_x(a));
        assert_eq!(LANE_SHIFT, one_bit_at_a_time);
        // Shifting a state past a lane equals a lane of zero-word steps.
        for s in random_words(16, 29) {
            let serial = (0..LANE_WORDS).fold(s, |c, _| step(c, 0));
            assert_eq!(shift_lane(s), serial);
            assert_eq!(shift_lane(s), gf_mul(s, LANE_SHIFT));
        }
    }
}
