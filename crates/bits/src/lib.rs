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
//! * [`BitVec`], [`BitWriter`] and [`BitReader`] — append-only bit buffers with
//!   word-at-a-time access (the labels themselves are `BitVec`s).
//! * [`codes`] — unary, Elias γ, Elias δ and fixed-width integer codes
//!   (the paper's self-delimiting encodings, §2 "Encoding integers").
//! * [`monotone`] — the Lemma 2.2 encoding: a monotone sequence of `s`
//!   integers from `[0, M]` written in `O(s·max(1, log(M/s)))` bits, with its
//!   closed-form length.  It is write-only: queries are served by the packed
//!   fixed-width kernels of `treelab-core`, which never read it.
//! * [`wordram`] — word-RAM helpers: most-significant-bit, 2-approximations
//!   `⌊x⌋₂` (Lemma 4.4/4.5), longest common prefixes, dyadic range identifiers.
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
//! ```
//! use treelab_bits::{BitWriter, BitReader, codes};
//!
//! # fn main() -> Result<(), treelab_bits::DecodeError> {
//! let mut w = BitWriter::new();
//! codes::write_gamma(&mut w, 41);
//! codes::write_delta(&mut w, 1_000_003);
//! let bits = w.into_bitvec();
//!
//! let mut r = BitReader::new(&bits);
//! assert_eq!(codes::read_gamma(&mut r)?, 41);
//! assert_eq!(codes::read_delta(&mut r)?, 1_000_003);
//! # Ok(())
//! # }
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
mod error;

pub mod alphabetic;
pub mod bitslice;
pub mod codes;
pub mod crc;
pub mod frame;
pub mod monotone;
pub mod simd;
pub mod wordram;

pub use bitslice::BitSlice;
pub use bitvec::{BitReader, BitVec, BitWriter};
pub use error::DecodeError;
