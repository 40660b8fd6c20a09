//! # treelab-bits
//!
//! Bit-level substrate for the tree distance-labeling schemes of
//! *Optimal Distance Labeling Schemes for Trees* (PODC 2017).
//!
//! The labeling schemes in [`treelab-core`](../treelab_core/index.html) are, at
//! their heart, exercises in squeezing variable-length integers into as few bits
//! as possible while keeping decoding cheap.  This crate provides every encoding
//! primitive the paper relies on:
//!
//! * [`BitVec`] and [`BitWriter`] — append-only bit buffers with
//!   word-at-a-time access (the labels themselves are `BitVec`s).
//! * [`codes`] — unary, Elias γ and Elias δ encoders with their closed-form
//!   lengths (the paper's self-delimiting encodings, §2 "Encoding integers").
//! * [`monotone`] — the Lemma 2.2 encoding: a monotone sequence of `s`
//!   integers from `[0, M]` written in `O(s·max(1, log(M/s)))` bits, with its
//!   closed-form length.  It is write-only: queries are served by the packed
//!   fixed-width kernels of `treelab-core`, which never read it.
//! * [`wordram`] — word-RAM helpers: most-significant-bit, 2-approximations
//!   `⌊x⌋₂` (Lemma 4.4/4.5), longest common prefixes, dyadic range
//!   identifiers (Observation 4.2).
//! * [`alphabetic`] — order-preserving (Gilbert–Moore) prefix codes with
//!   code length `≤ ⌈log(W/w)⌉ + 2`, the substrate behind the `O(log n)`-bit
//!   heavy-path/NCA auxiliary labels (Lemma 2.1).
//! * [`bitslice`] — borrowed, `Copy`-able word-level views over packed bit
//!   buffers, the substrate of the zero-copy scheme store.
//! * [`crc`] — word-level CRC-64/XZ framing (slice-by-8, four interleaved
//!   lanes) for persisted structures.
//! * [`frame`] — alignment-checked casts and explicit copies between byte
//!   buffers and little-endian word frames (the borrow path behind
//!   mmap-style store loading), plus — on 64-bit Unix — a raw-syscall
//!   read-only file mapping (`frame::Mmap`).
//!
//! # Example
//!
//! The crate is write-only: labels are assembled here and read back by the
//! packed fixed-width kernels of `treelab-core`.  Every encoder has a
//! closed-form length, which is what the label-size tables charge.
//!
//! ```
//! use treelab_bits::{codes, BitWriter};
//!
//! let mut w = BitWriter::new();
//! codes::write_gamma(&mut w, 41);
//! codes::write_delta(&mut w, 1_000_003);
//! assert_eq!(w.len(), codes::gamma_len(41) + codes::delta_len(1_000_003));
//!
//! // γ(41) is ⌊log 41⌋ = 5 zeros, then 41 in binary.
//! let bits = w.into_bitvec();
//! assert_eq!(bits.get_bits(0, 11), Some(0b00000_101001));
//! ```

// `deny` rather than `forbid`: the audited casts in [`frame`] and
// `wordram::prefetch_word` carry scoped `#[allow]`s (reinterpreting aligned
// bytes as words and issuing the `prefetcht0` intrinsic are the two things
// the zero-copy load path and the batch planner cannot do in safe Rust);
// everything else in the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitvec;

pub mod alphabetic;
pub mod bitslice;
pub mod codes;
pub mod crc;
pub mod frame;
pub mod monotone;
pub mod simd;
pub mod wordram;

pub use bitslice::BitSlice;
pub use bitvec::{BitVec, BitWriter};
