//! Zero-copy scheme store: a whole labeling scheme as one contiguous,
//! checksummed buffer, with borrowed views, runtime scheme dispatch and an
//! allocation-free batch query engine.
//!
//! # Why
//!
//! The paper's point is that distance queries are answerable from tiny labels
//! alone.  Since the packed-native refactor the `TLSTOR01` frame is the
//! **native representation** of every scheme: `build` packs straight into a
//! frame (no intermediate per-node label structs), the public scheme types
//! are thin owners of a [`SchemeStore`], and persisting one is a copy-free
//! frame handoff ([`SchemeStore::to_bytes`] of [`StoredScheme::as_store`]:
//! "build once, serve many") — the byte buffer can be persisted, mapped, or handed to
//! another thread or process, and the load path brings it back **without
//! re-decoding a single label**: it validates the frame (magic word, version,
//! scheme tag, CRC-64) once and keeps the labels packed.  Queries run through
//! borrowed [`StoredScheme::Ref`] views that read fields straight out of the
//! shared buffer through the [`crate::kernel`] query kernels, with zero
//! per-query allocation.
//!
//! # One store type
//!
//! [`Store<W, S>`](Store) is the one store type: a validated frame of scheme
//! `S` whose words are held by `W`.  Its query API — label access,
//! [`Store::distance`], the batch forms — is one generic impl for every
//! `W: AsRef<[u64]>`; the two word owners in use are aliases with their own
//! constructors, [`StoreRef`] (`&[u64]`, borrowed and `Copy`) and
//! [`SchemeStore`] (`Vec<u64>`, owned).
//!
//! # The three load paths
//!
//! * [`StoreRef::from_words`] — the **borrow path**: validate a caller-held
//!   `&[u64]` once and serve from it forever.  Nothing is copied, so the same
//!   frame words can back any number of concurrent readers (or come straight
//!   from a memory map via [`treelab_bits::frame::try_cast_words`]).
//!   [`StoreRef::from_bytes`] is the byte-slice form; it *refuses* misaligned
//!   input with [`StoreError::Misaligned`] instead of silently copying.
//! * [`SchemeStore::from_bytes`] / [`SchemeStore::from_words`] — the
//!   **owning path**: a [`SchemeStore`] owns its frame words (`from_bytes`
//!   performs one explicit widening copy for alignment; `from_words` adopts
//!   the vector without copying) and answers through the same query
//!   methods.
//! * [`AnyStoreRef::from_words`] — the **runtime-dispatch path**: reads the
//!   scheme tag from the frame header and returns the right `StoreRef`
//!   variant, so heterogeneous frames (a forest of mixed schemes, see
//!   [`crate::forest`]) load without compile-time scheme knowledge.
//!
//! # Frame layout
//!
//! Everything is 64-bit words, serialized little-endian (`FORMAT.md` at the
//! repository root specifies the layout bit for bit):
//!
//! ```text
//! word 0      magic "TLSTOR01"
//! word 1      format version (high 32) | scheme tag (low 32)
//! word 2      n — number of labels
//! word 3      scheme parameter (k, ε bits, or 0)
//! word 4      m — number of scheme meta words
//! 5 .. 5+m    scheme meta (field widths chosen at serialize time)
//! ..          offset index: bit offset of each label in the label region
//!             (entry n is the total bit length), two u32 entries per word,
//!             each relative to its 65,536-entry block; then one u64 base per
//!             block after the first (the offset of the block's first
//!             label).  Versions 1–3 are retired and rejected with
//!             `UnsupportedVersion`.
//! ..          label region: the packed labels, fixed-width fields,
//!             plus four zero guard words (for branchless straddle reads)
//! last word   CRC-64/XZ of every preceding word
//! ```
//!
//! The per-label packing is *not* the self-delimiting wire encoding of the
//! individual `*Label::encode` methods: inside a store, every field width is a
//! store-global maximum recorded in the meta words, so any array entry of any
//! label is one shifted word read away — that O(1) random access is what makes
//! the [`StoredScheme::distance_refs`] hot path faster than querying the
//! heap-structured labels, not just equal to it.
//!
//! # Example
//!
//! ```
//! use treelab_core::store::{AnyStoreRef, SchemeStore, StoreRef, StoredScheme};
//! use treelab_core::naive::NaiveScheme;
//! use treelab_core::DistanceScheme;
//! use treelab_tree::gen;
//!
//! let tree = gen::random_tree(300, 7);
//! let scheme = NaiveScheme::build(&tree);               // packs a frame directly
//! let store: &SchemeStore<_> = scheme.as_store();       // the scheme *is* that frame
//! let expect = scheme.distance(tree.node(12), tree.node(250));
//! assert_eq!(store.distance(12, 250), expect);
//!
//! // Borrow path: validate caller-held words once, copy nothing.
//! let view = StoreRef::<NaiveScheme>::from_words(store.as_words()).unwrap();
//! assert_eq!(view.distance(12, 250), expect);
//!
//! // Runtime dispatch: no compile-time scheme type needed.
//! let any = AnyStoreRef::from_words(store.as_words()).unwrap();
//! assert_eq!(any.distance(12, 250), expect);
//!
//! // Batch form: one call, one output vector, no per-query allocation.
//! let d = store.distances(&[(12, 250), (0, 299)]);
//! assert_eq!(d[0], expect);
//! ```

use std::fmt;
use treelab_bits::{crc, frame, BitSlice, BitWriter};

use crate::approximate::ApproximateScheme;
use crate::distance_array::DistanceArrayScheme;
use crate::kdistance::KDistanceScheme;
use crate::kernel::approximate::ApproximateMeta;
use crate::kernel::kdistance::KDistanceMeta;
use crate::kernel::level_ancestor::LevelAncestorMeta;
use crate::kernel::optimal::OptimalMeta;
use crate::kernel::psum::PsumMeta;
use crate::level_ancestor::LevelAncestorScheme;
use crate::naive::NaiveScheme;
use crate::optimal::OptimalScheme;
use crate::substrate::{PackSource, RowArena};

/// Sentinel returned by [`Store::distance`] for scheme/pair combinations
/// with no reportable distance (the `k`-distance scheme's "more than `k`").
pub const NO_DISTANCE: u64 = u64::MAX;

/// The kernels' corrupt verdict: what [`StoredScheme::distance_refs`]
/// returns, instead of panicking, for labels no one build wrote (see
/// [`crate::kernel`]).  The forest router answers `CorruptTree` for it; the
/// trusted [`Store::distance`] and [`Store::distances_into`] panic on it.
pub const CORRUPT_LABEL: u64 = u64::MAX - 1;

/// `b"TLSTOR01"` as a little-endian word.
const MAGIC: u64 = u64::from_le_bytes(*b"TLSTOR01");

/// The frame format version: two u32 offset entries per word, each
/// relative to its block's u64 base (see [`BLOCK_BITS`]).
const VERSION: u32 = 4;

/// log₂ of the entries per offset-index block.  Entry `p` stores
/// `o_p − B[p >> BLOCK_BITS]`, and one u64 base per block after the first
/// follows the entries.  A label is O(log² n) bits, so 65,536 consecutive
/// labels span far less than the 2³² bits a u32 entry can address, while
/// the whole label region has no cap.
const BLOCK_BITS: u32 = 16;

/// Words before the scheme meta region.
const HEADER_WORDS: usize = 5;

/// Zero guard words after the label region, so the hot-path raw reads
/// ([`treelab_bits::bitslice::read_lsb`]) can issue their straddle load
/// unconditionally, and the branchless record scans can read a couple of
/// records past the last label without a range branch.
const PAD_WORDS: usize = 4;

/// Pairs per SoA planning block of the batch engine's two-stage pipeline:
/// the planner resolves one block's label offsets (issuing a prefetch per
/// label) while the compute stage drains the previous block, so a block is
/// also the prefetch distance.  64 pairs touch ≤ 128 label lines (8 KiB) —
/// deep enough to hide DRAM latency, small enough to stay L1-resident.
const PLAN_BLOCK: usize = 64;

/// How many queries ahead the compute stage touches the *straddle* line of
/// an upcoming label inside the current block (labels are compact but not
/// always line-aligned; the planner prefetched each label's first line
/// only).  This is the per-scheme software pipelining depth: 4–8 queries are
/// in flight between a label's lines arriving and its distance being
/// computed.
const PIPE: usize = 8;

/// Error returned when a store frame fails validation.
///
/// Stores travel between machines, so every load path must reject every
/// malformed input with an error rather than a panic.
///
/// The type is `Copy` on purpose: the forest's lazy-validation state table
/// caches one `Result<_, StoreError>` per tree and replays it on every later
/// touch of a corrupt tree, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The buffer is shorter than a minimal frame.
    Truncated {
        /// Minimum number of bytes a frame needs.
        expected: usize,
        /// Number of bytes found.
        found: usize,
    },
    /// The first word is not the store magic.
    BadMagic,
    /// The frame was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The frame holds a different scheme than the one requested.
    SchemeMismatch {
        /// Tag of the requested scheme.
        expected: u32,
        /// Tag found in the header.
        found: u32,
    },
    /// The frame's scheme tag is not one this build knows
    /// (runtime-dispatch path, [`AnyStoreRef::from_words`]).
    UnknownScheme {
        /// Tag found in the header.
        found: u32,
    },
    /// The CRC-64 framing check failed (bit rot or truncation).
    ChecksumMismatch,
    /// The byte buffer is not 8-byte aligned, so the zero-copy borrow path
    /// cannot reinterpret it as words.  Re-align the buffer or take the
    /// explicit copy path ([`SchemeStore::from_bytes`]).
    Misaligned {
        /// How many bytes past the previous 8-byte boundary the buffer
        /// starts (1–7).
        offset: usize,
    },
    /// The frame is structurally invalid.
    Malformed {
        /// Human-readable description of the violated expectation.
        what: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated { expected, found } => write!(
                f,
                "store buffer truncated: need at least {expected} bytes, found {found}"
            ),
            StoreError::BadMagic => write!(f, "not a scheme store (bad magic word)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::SchemeMismatch { expected, found } => write!(
                f,
                "store holds scheme tag {found}, but scheme tag {expected} was requested"
            ),
            StoreError::UnknownScheme { found } => {
                write!(f, "store holds unknown scheme tag {found}")
            }
            StoreError::ChecksumMismatch => write!(f, "store checksum mismatch (corrupt frame)"),
            StoreError::Misaligned { offset } => write!(
                f,
                "byte buffer starts {offset} bytes past an 8-byte boundary; \
                 the borrow path cannot cast it (use the copying from_bytes)"
            ),
            StoreError::Malformed { what } => write!(f, "malformed store: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<frame::CastError> for StoreError {
    fn from(e: frame::CastError) -> Self {
        match e {
            frame::CastError::Misaligned { offset } => StoreError::Misaligned { offset },
            frame::CastError::Length { .. } => StoreError::Malformed {
                what: "store length is not a multiple of 8 bytes",
            },
            frame::CastError::BigEndianHost => StoreError::Malformed {
                what: "cannot borrow little-endian frame words on a big-endian host",
            },
            _ => StoreError::Malformed {
                what: "byte buffer cannot be cast to frame words",
            },
        }
    }
}

/// The POD description of a validated frame: where the index, meta and label
/// regions sit.  Everything a [`Store`] needs besides the words themselves
/// and the parsed scheme meta — kept `Copy` so owning containers (stores,
/// forest directories) can cache it without borrowing the words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawParts {
    pub(crate) n: usize,
    pub(crate) param: u64,
    pub(crate) label_base: usize,
    pub(crate) label_bits: usize,
    /// First word of the packed u32 entries.
    pub(crate) index: usize,
    /// First word of the block bases (`B[1]` onward).
    pub(crate) bases: usize,
}

impl RawParts {
    /// The u32 index entry of label `p`: its offset relative to its block.
    #[inline(always)]
    fn entry(&self, words: &[u64], p: usize) -> u32 {
        (words[self.index + p / 2] >> ((p & 1) * 32)) as u32
    }

    /// Bit offset of label `p` (entry `n` is the total label-region bit
    /// length): its u32 entry plus its block's base.  Frames under 65,536
    /// labels never read a base; a rotted one wraps (in every profile) to
    /// an offset the kernels refuse.
    #[inline(always)]
    fn offset_at(&self, words: &[u64], p: usize) -> usize {
        let entry = self.entry(words, p) as usize;
        match p >> BLOCK_BITS {
            0 => entry,
            b => entry.wrapping_add(words[self.bases + b - 1] as usize),
        }
    }

    /// The index extent `[offset(p), offset(p + 1))` of label `p`: two
    /// adjacent entries.  Unchecked — the kernels hold it to the label's
    /// header and to the label region before they read the label.
    #[inline(always)]
    fn extent_at(&self, words: &[u64], p: usize) -> (usize, usize) {
        (self.offset_at(words, p), self.offset_at(words, p + 1))
    }

    /// [`offset_at`](Self::offset_at) for an unvalidated index: a block's
    /// first entry must be zero (every block starts at its base, which keeps
    /// the frame canonical), and the base is added checked, so a hostile
    /// base cannot wrap.
    fn checked_offset(&self, words: &[u64], p: usize) -> Result<u64, StoreError> {
        let entry = u64::from(self.entry(words, p));
        if p.is_multiple_of(1 << BLOCK_BITS) && entry != 0 {
            return Err(StoreError::Malformed {
                what: "offset index block does not start at its base",
            });
        }
        match p >> BLOCK_BITS {
            0 => Ok(entry),
            b => words[self.bases + b - 1]
                .checked_add(entry)
                .ok_or(StoreError::Malformed {
                    what: "offset index overflows 64 bits",
                }),
        }
    }

    /// Prefetches the first cache line of node `u`'s label — the forest
    /// router's cross-group look-ahead, issued before the group that reads
    /// the label is planned.
    #[inline]
    pub(crate) fn prefetch_label(&self, words: &[u64], u: usize) {
        treelab_bits::wordram::prefetch_word(
            words,
            self.label_base + self.offset_at(words, u) / 64,
        );
    }
}

/// The index region's layout for `n` labels when it starts at word `index`:
/// the first base word and the first label-region word.
fn index_layout(n: usize, index: usize) -> (usize, usize) {
    let bases = index + (n + 2) / 2;
    (bases, bases + (n >> BLOCK_BITS))
}

/// Appends the offset index of the monotone `offsets` (`n + 1` entries, the
/// last the label region's bit length) to `out`: the packed u32 entries,
/// each relative to its block's first offset, then those block bases.
///
/// # Panics
///
/// Panics if a block spans 2³² or more bits.
fn emit_index(out: &mut Vec<u64>, offsets: &[u64]) {
    let entry = |p: usize| {
        let rel = offsets[p] - offsets[p >> BLOCK_BITS << BLOCK_BITS];
        assert!(
            rel <= u64::from(u32::MAX),
            "an offset-index block spans 2^32 or more label bits"
        );
        rel
    };
    let mut entries = (0..offsets.len()).map(entry);
    while let Some(lo) = entries.next() {
        out.push(lo | entries.next().unwrap_or(0) << 32);
    }
    out.extend(offsets.iter().step_by(1 << BLOCK_BITS).skip(1));
}

/// A scheme type whose native representation is a packed [`SchemeStore`]
/// frame, queried zero-copy through borrowed label views.
///
/// Since the packed-native refactor, this trait is the *query side* of the
/// store contract: the frame format constants, the parsed meta, the borrowed
/// label view, and the [`crate::kernel`] entry points the store machinery
/// dispatches to.  The *pack side* (width planning + direct frame packing at
/// build time) lives in the crate-internal `substrate::PackSource` trait,
/// which the scheme builders drive; every public scheme type owns the frame
/// it built, exposed through [`StoredScheme::as_store`].
///
/// Implementations exist for all six schemes of this crate (the exact trio,
/// `k`-distance, `(1+ε)`-approximate, level-ancestor).  The contract every
/// implementation upholds:
///
/// * `parse_meta` accepts the meta words its builder emitted and describes
///   the packed layout;
/// * `distance_refs` computes the scheme's answer from two packed views alone
///   (with [`NO_DISTANCE`] standing in for "no answer"), allocating nothing
///   and panicking on no bits: it holds each view's header to the view's
///   index extent before reading the label, and answers [`CORRUPT_LABEL`]
///   when they disagree.
pub trait StoredScheme: Sized {
    /// Scheme tag recorded in the frame header.
    const TAG: u32;

    /// Human-readable scheme name (used in tables and error messages).
    const STORE_NAME: &'static str;

    /// Parsed store meta: the fixed field widths (plus scheme constants) every
    /// label of the store shares.
    type Meta: fmt::Debug + Copy + Send + Sync;

    /// Borrowed, `Copy`-able view of one packed label inside the store buffer.
    type Ref<'a>: Copy;

    /// The scheme's native frame: `build` packs straight into a
    /// [`SchemeStore`], and this is it.  Serialization, store hand-off and
    /// every query entry point route through this store.
    fn as_store(&self) -> &SchemeStore<Self>;

    /// Parses meta words back into [`StoredScheme::Meta`], validating them.
    /// `param` is the scheme parameter word of the header (`k`, the bits of
    /// ε, or 0).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the meta words are malformed.
    fn parse_meta(param: u64, words: &[u64]) -> Result<Self::Meta, StoreError>;

    /// Creates a borrowed view of the label whose offset-index extent is
    /// bits `[start, end)` of the label region.  The extent is unchecked
    /// here: [`StoredScheme::distance_refs`] holds it to the label region
    /// and to the label's own header counts before reading the label, so
    /// the load paths need not visit every label.
    fn label_ref<'a>(
        slice: BitSlice<'a>,
        start: usize,
        end: usize,
        meta: &'a Self::Meta,
    ) -> Self::Ref<'a>;

    /// Distance from two borrowed label views alone — the zero-allocation hot
    /// path, one [`crate::kernel`] call.  Schemes whose query can decline to
    /// answer (the `k`-distance scheme) return [`NO_DISTANCE`].  Labels no
    /// one build wrote (rotted, of two builds, or with header counts that
    /// disagree with their index extent) answer [`CORRUPT_LABEL`] — or,
    /// when the rot still decodes, a wrong distance — never a panic.
    fn distance_refs(a: Self::Ref<'_>, b: Self::Ref<'_>) -> u64;
}

/// Validates a frame held in `words` and returns its parsed description.
///
/// This is the single validation pass every load path funnels through:
/// magic, version, scheme tag, CRC-64, the header, meta and index sizes,
/// the last offset against the buffer, and one step per 65,536-label
/// block: its zero start entry, its base, and the labels on both sides of
/// the block boundary (plus the last label), held to their extents.  No
/// other label is visited: each query holds the two labels it reads to
/// their index extents (see [`StoredScheme::label_ref`]), so a frame whose
/// index entries or label counts were rewritten and re-checksummed loads,
/// and the queries that read such a label answer [`CORRUPT_LABEL`].
fn parse_frame<S: StoredScheme>(words: &[u64]) -> Result<(RawParts, S::Meta), StoreError> {
    // Minimal frame: header, empty meta, a one-word 1-label index, an empty
    // label region with its guard pad, and the CRC.
    let min_words = HEADER_WORDS + 1 + PAD_WORDS + 1;
    if words.len() < min_words {
        return Err(StoreError::Truncated {
            expected: min_words * 8,
            found: words.len() * 8,
        });
    }
    if words[0] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = (words[1] >> 32) as u32;
    let tag = words[1] as u32;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    if tag != S::TAG {
        return Err(StoreError::SchemeMismatch {
            expected: S::TAG,
            found: tag,
        });
    }
    let (body, checksum) = words.split_at(words.len() - 1);
    if crc::crc64_words(body) != checksum[0] {
        return Err(StoreError::ChecksumMismatch);
    }

    // The CRC vouches for integrity; the structural checks below vouch
    // for *this code's* expectations, so no later query can index out of
    // the buffer.  All size arithmetic is checked u64 math compared against
    // the buffer length, so a hostile header cannot overflow its way past a
    // bound.
    let n64 = words[2];
    let m64 = words[4];
    if n64 == 0 {
        return Err(StoreError::Malformed {
            what: "store holds no labels",
        });
    }
    let wlen = words.len() as u64;
    let malformed = StoreError::Malformed {
        what: "header claims more meta/index words than the buffer holds",
    };
    let meta_end = (HEADER_WORDS as u64)
        .checked_add(m64)
        .filter(|&x| x < wlen)
        .ok_or(malformed)?;
    // The index region (entries, then bases) must end inside the buffer.
    n64.checked_add(2)
        .map(|x| x / 2 + (n64 >> BLOCK_BITS))
        .and_then(|x| meta_end.checked_add(x))
        .filter(|&x| x < wlen)
        .ok_or(malformed)?;
    let n = n64 as usize;
    let (bases, label_base) = index_layout(n, meta_end as usize);
    let raw = RawParts {
        n,
        param: words[3],
        label_base,
        label_bits: 0, // patched below from the last offset
        index: meta_end as usize,
        bases,
    };
    // An odd entry count leaves the last word's high half zero (this keeps
    // the frame canonical).
    if n.is_multiple_of(2) && raw.entry(words, n + 1) != 0 {
        return Err(StoreError::Malformed {
            what: "offset index padding is not zero",
        });
    }
    // The last offset is the label region's length, so the region is sized
    // against the buffer before any label is read.
    let label_bits = raw.checked_offset(words, n)?;
    if label_base as u64 + label_bits.div_ceil(64) + PAD_WORDS as u64 + 1 != wlen {
        return Err(StoreError::Malformed {
            what: "label region length disagrees with the buffer size",
        });
    }
    let raw = RawParts {
        label_bits: label_bits as usize,
        ..raw
    };
    let meta = S::parse_meta(raw.param, &words[HEADER_WORDS..meta_end as usize])?;
    // One step per block boundary, from the last down: every block starts
    // at a zero entry (one encoding per frame), and its base may neither
    // fall below the offset before it nor pass the next boundary's (the
    // last offset, for the last block), so no base wraps an offset.  A
    // base addresses a whole block, so the labels on both sides of every
    // boundary, and the last label, are held to their extents here by the
    // kernels' own per-side check (a self-query answers the corrupt
    // verdict when it fails).  The labels inside a block are left to the
    // queries that read them.
    let slice = BitSlice::new(
        &words[raw.label_base..raw.label_base + raw.label_bits.div_ceil(64) + PAD_WORDS],
        raw.label_bits,
    );
    let misplaced = |p: usize| {
        let (start, end) = raw.extent_at(words, p);
        let r = S::label_ref(slice, start, end, &meta);
        S::distance_refs(r, r) == CORRUPT_LABEL
    };
    let mut next = label_bits;
    for p in (0..n).step_by(1 << BLOCK_BITS).rev() {
        let base = raw.checked_offset(words, p)?;
        let before = match p {
            0 => 0,
            _ => raw.checked_offset(words, p - 1)?,
        };
        if before > base || base > next {
            return Err(StoreError::Malformed {
                what: "offset index is not monotone",
            });
        }
        if misplaced(p) || p > 0 && misplaced(p - 1) {
            return Err(StoreError::Malformed {
                what: "a block-boundary label's counts disagree with its extent",
            });
        }
        next = before;
    }
    if misplaced(n - 1) {
        return Err(StoreError::Malformed {
            what: "the last label's counts disagree with its extent",
        });
    }
    Ok((raw, meta))
}

/// Packs a [`PackSource`] into a fresh frame, returning the words, their
/// parsed description (writer and reader agree by construction), and the
/// plan the source accumulated over the planning pass.  This is the one
/// frame assembler behind every scheme's `build`.
///
/// The build runs serially, in two passes over node-range chunks of
/// `chunk` rows:
///
/// 1. **Plan** — rows are materialized chunk by chunk and folded into the
///    source's [`PackSource::Plan`], which yields the store-global meta
///    (field-width maxima are associative, so chunking cannot change them).
/// 2. **Pack** — rows are re-materialized chunk by chunk and appended to the
///    label region.  The packed bits of a label depend only on its row and
///    the meta, so the frame is bit-identical at every chunk size.
///
/// Rows keep their variable-length parts in this thread's [`RowArena`],
/// cleared per chunk, and one row buffer serves every chunk.  When one chunk
/// covers the whole tree, the plan pass's rows are kept and the pack pass
/// reuses them (no re-materialization — the historical in-memory path);
/// otherwise peak row memory is O(chunk), at the price of computing each row
/// twice.
fn build_frame<S: StoredScheme, P: PackSource<S>>(
    src: &P,
    chunk: usize,
) -> (Vec<u64>, RawParts, S::Meta, P::Plan) {
    let n = src.node_count();
    assert!(n > 0, "cannot store an empty scheme");
    let param = src.store_param();
    let chunk = chunk.clamp(1, n);

    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let (plan, meta_words, meta, label_words) = RowArena::with(|arena| {
        // Plan pass, chunk by chunk.
        let mut plan = P::Plan::default();
        let mut rows: Vec<P::Row> = Vec::with_capacity(chunk);
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            arena.clear();
            rows.clear();
            rows.extend((lo..hi).map(|u| src.make_row(u, arena)));
            for (u, row) in (lo..hi).zip(&rows) {
                src.plan_row(&mut plan, u, row, arena);
            }
            lo = hi;
        }
        let meta_words = src.meta_words(&plan);
        let meta = S::parse_meta(param, &meta_words).expect("self-produced meta must parse");

        // Pack pass, chunk by chunk.
        let label_words = if chunk == n {
            // The plan pass's rows cover the whole tree: reuse them.  Exact
            // size hint: the label region is written into a single
            // pre-reserved buffer, so multi-megabyte stores pay one
            // allocation instead of repeated growth reallocations.
            let total_bits: usize = rows
                .iter()
                .map(|r| src.packed_label_bits(&meta, r, arena))
                .sum();
            let mut w = BitWriter::with_capacity(total_bits);
            for (u, row) in rows.iter().enumerate() {
                offsets.push(w.len() as u64);
                src.pack_label(&meta, row, arena, &mut w);
                debug_assert_eq!(
                    w.len() - offsets[u] as usize,
                    src.packed_label_bits(&meta, row, arena),
                    "{}: packed_label_bits disagrees with pack_label for node {u}",
                    S::STORE_NAME,
                );
            }
            offsets.push(w.len() as u64);
            w.into_bitvec().into_words()
        } else {
            let mut w = BitWriter::new();
            let mut lo = 0;
            while lo < n {
                let hi = (lo + chunk).min(n);
                arena.clear();
                rows.clear();
                rows.extend((lo..hi).map(|u| src.make_row(u, arena)));
                for row in &rows {
                    offsets.push(w.len() as u64);
                    src.pack_label(&meta, row, arena, &mut w);
                }
                lo = hi;
            }
            offsets.push(w.len() as u64);
            w.into_bitvec().into_words()
        };
        (plan, meta_words, meta, label_words)
    });
    let label_bits = offsets[n] as usize;

    let m = meta_words.len();
    let index = HEADER_WORDS + m;
    let (bases, label_base) = index_layout(n, index);
    let mut words = Vec::with_capacity(label_base + label_words.len() + PAD_WORDS + 1);
    words.push(MAGIC);
    words.push(u64::from(VERSION) << 32 | u64::from(S::TAG));
    words.push(n as u64);
    words.push(param);
    words.push(m as u64);
    words.extend_from_slice(&meta_words);
    emit_index(&mut words, &offsets);
    debug_assert_eq!(words.len(), label_base);
    words.extend_from_slice(&label_words);
    words.extend(std::iter::repeat_n(0u64, PAD_WORDS));
    let checksum = crc::crc64_words(&words);
    words.push(checksum);

    let raw = RawParts {
        n,
        param,
        label_base,
        label_bits,
        index,
        bases,
    };
    (words, raw, meta, plan)
}

/// One SoA planning block of the batch pipeline: the resolved label bit
/// offsets of up to [`PLAN_BLOCK`] pairs, stored column-wise (structure of
/// arrays) so the compute stage reads them as two dense, cache-resident
/// arrays instead of chasing the offset index pair by pair.
#[derive(Debug, Clone, Copy)]
struct PlanBlock {
    /// Left-label start bit offsets, one per planned pair.
    sa: [usize; PLAN_BLOCK],
    /// Right-label start bit offsets, one per planned pair.
    sb: [usize; PLAN_BLOCK],
}

impl Default for PlanBlock {
    fn default() -> Self {
        PlanBlock {
            sa: [0; PLAN_BLOCK],
            sb: [0; PLAN_BLOCK],
        }
    }
}

/// The reusable SoA planning buffers of the batch engine: two
/// [`PlanBlock`]s, double-buffered — the planning stage resolves block
/// `k + 1`'s label offsets (offset-index reads) and issues one prefetch per
/// label while the compute stage drains block `k`, so the compute loop's
/// label reads land on lines that are already resident or in flight.
///
/// The buffers are fixed-size and heap-free (2 KiB of plain arrays), so the
/// batch path is allocation-free by construction: [`Store`] plants one on
/// the stack per call, and the forest router keeps one in its
/// `RouteScratch` and shares it across every group of a batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchPlan {
    blocks: [PlanBlock; 2],
}

/// A validated scheme-store frame whose words are held by `W` — the one
/// store type and the query engine of the store stack.
///
/// "Validate once, serve forever": every constructor runs the frame
/// validation (magic/version/tag/CRC/structure, visiting O(n / 65,536)
/// labels), and the store then answers every query by reading its words in
/// place; each query holds the two labels it reads to their index extents.
/// The query methods are one impl for every `W: AsRef<[u64]>`; the word
/// owners in use are the aliases [`StoreRef`] and [`SchemeStore`], each
/// with its own constructors.
///
/// See the [module documentation](self) for the frame layout and an example.
pub struct Store<W, S: StoredScheme> {
    /// The full frame (header, meta, offset index, label region, CRC).
    words: W,
    raw: RawParts,
    meta: S::Meta,
}

/// A borrowed, validated view of a scheme-store frame (see [`Store`]):
/// `Copy`, zero-copy, and freely handed to worker threads.
pub type StoreRef<'a, S> = Store<&'a [u64], S>;

/// A whole labeling scheme as one owned, contiguous, checksummed word buffer
/// (see [`Store`]) — the native representation of every scheme type.
pub type SchemeStore<S> = Store<Vec<u64>, S>;

// Manual impls: `derive` would demand `S: Clone` / `S: Copy`, but only the
// words and the meta are copied (for an owned store, one buffer memcpy and
// no re-packing).
impl<W: Clone, S: StoredScheme> Clone for Store<W, S> {
    fn clone(&self) -> Self {
        Store {
            words: self.words.clone(),
            raw: self.raw,
            meta: self.meta,
        }
    }
}
impl<W: Copy, S: StoredScheme> Copy for Store<W, S> {}

impl<W: AsRef<[u64]>, S: StoredScheme> fmt::Debug for Store<W, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("scheme", &S::STORE_NAME)
            .field("n", &self.raw.n)
            .field("bytes", &self.size_bytes())
            .field("meta", &self.meta)
            .finish()
    }
}

impl<'a, S: StoredScheme> StoreRef<'a, S> {
    /// Validates a frame held in caller-owned words and borrows it — the
    /// zero-copy load path.  `words` must be exactly one frame.
    ///
    /// No label is decoded and **no word is copied**: after the
    /// magic/version/tag/CRC checks and the structural checks of the
    /// header, meta and index (which visit only the labels at block
    /// boundaries), queries read the caller's buffer in place.
    ///
    /// The CRC authenticates *integrity*, not provenance: every accidentally
    /// corrupted frame is rejected, but a frame deliberately crafted to pass
    /// all checks may still make queries return wrong distances or panic
    /// ([`Store::distance`]) — load stores from writers you trust, as you
    /// would any index file.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] describing the first failed validation.
    pub fn from_words(words: &'a [u64]) -> Result<Self, StoreError> {
        let (raw, meta) = parse_frame::<S>(words)?;
        Ok(Store { words, raw, meta })
    }

    /// [`StoreRef::from_words`] over a byte buffer — the borrow path for
    /// mapped files.  The buffer must be 8-byte aligned and a whole number
    /// of words long; misaligned input is refused with
    /// [`StoreError::Misaligned`] (take the copying
    /// [`SchemeStore::from_bytes`] instead), never silently copied.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] describing the failed cast or validation.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, StoreError> {
        Self::from_words(frame::try_cast_words(bytes)?)
    }

    /// The raw frame words, for the borrowed lifetime.
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }
}

impl<W: AsRef<[u64]>, S: StoredScheme> Store<W, S> {
    /// Number of labelled nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.raw.n
    }

    /// The scheme parameter recorded in the header.
    pub fn param(&self) -> u64 {
        self.raw.param
    }

    /// Total frame size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.as_ref().len() * 8
    }

    /// Bit length of the packed label region.
    pub fn label_region_bits(&self) -> usize {
        self.raw.label_bits
    }

    #[inline]
    fn label_slice(&self) -> BitSlice<'_> {
        // Includes the guard word(s), so raw straddle reads stay in range.
        BitSlice::new(
            &self.words.as_ref()[self.raw.label_base
                ..self.raw.label_base + self.raw.label_bits.div_ceil(64) + PAD_WORDS],
            self.raw.label_bits,
        )
    }

    /// Borrowed view of node `u`'s packed label.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn label_ref(&self, u: usize) -> S::Ref<'_> {
        assert!(
            u < self.raw.n,
            "node index {u} out of range (n = {})",
            self.raw.n
        );
        let (start, end) = self.raw.extent_at(self.words.as_ref(), u);
        S::label_ref(self.label_slice(), start, end, &self.meta)
    }

    /// Bit length of node `u`'s packed label: its offset-index extent.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range, or if the index gives the label a
    /// negative extent (a frame whose index was rewritten and
    /// re-checksummed — its queries on `u` answer [`CORRUPT_LABEL`]).
    pub fn label_bits(&self, u: usize) -> usize {
        assert!(
            u < self.raw.n,
            "node index {u} out of range (n = {})",
            self.raw.n
        );
        let (start, end) = self.raw.extent_at(self.words.as_ref(), u);
        end.checked_sub(start)
            .unwrap_or_else(|| panic!("label {u} has a negative index extent (corrupt index)"))
    }

    /// Distance between nodes `u` and `v`, answered from the packed labels
    /// with zero allocation ([`NO_DISTANCE`] when the scheme declines).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or on the [`CORRUPT_LABEL`]
    /// verdict.  A frame that loads can still hold labels whose counts
    /// disagree with their index extent (the load does not visit labels),
    /// so this is the trusted entry point: route frames that can rot or
    /// come from untrusted writers through a forest, whose router answers
    /// `CorruptTree` instead, or call [`StoredScheme::distance_refs`]
    /// on [`Store::label_ref`]s.
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> u64 {
        assert!(
            u < self.raw.n && v < self.raw.n,
            "pair ({u}, {v}) out of range (n = {})",
            self.raw.n
        );
        let words = self.words.as_ref();
        let slice = self.label_slice();
        let (sa, ea) = self.raw.extent_at(words, u);
        let (sb, eb) = self.raw.extent_at(words, v);
        let d = S::distance_refs(
            S::label_ref(slice, sa, ea, &self.meta),
            S::label_ref(slice, sb, eb, &self.meta),
        );
        assert!(d != CORRUPT_LABEL, "pair ({u}, {v}) has corrupt labels");
        d
    }

    /// Batch query: the distance of every pair, in order.
    ///
    /// One output allocation for the whole batch; see
    /// [`Store::distances_into`] to amortize even that across batches.
    ///
    /// # Panics
    ///
    /// As [`Store::distances_into`].
    pub fn distances(&self, pairs: &[(usize, usize)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(pairs.len());
        self.distances_into(pairs, &mut out);
        out
    }

    /// Appends the distance of every pair to `out` (allocation-free when
    /// `out` has capacity).
    ///
    /// Bounds checks are amortized: indices are validated in one pass up
    /// front, and the hot loop reads label offsets a few pairs ahead so the
    /// random label accesses overlap their cache misses.
    ///
    /// # Panics
    ///
    /// As [`Store::distance`], for any pair.
    pub fn distances_into(&self, pairs: &[(usize, usize)], out: &mut Vec<u64>) {
        let n = self.raw.n;
        if let Some(&(u, v)) = pairs.iter().find(|&&(u, v)| u >= n || v >= n) {
            panic!("pair ({u}, {v}) out of range (n = {n})");
        }
        let base = out.len();
        out.resize(base + pairs.len(), 0);
        self.distances_write(pairs, &mut out[base..]);
        assert!(
            !out[base..].contains(&CORRUPT_LABEL),
            "a pair of the batch has corrupt labels"
        );
    }

    /// The batch hot loop: writes `pairs[i]`'s distance (or verdict) to
    /// `out[i]`.  Indices must already be validated (callers panic on bad
    /// input first).
    ///
    /// Structure-of-arrays execution in two pipelined stages over
    /// [`PLAN_BLOCK`]-sized blocks (see [`BatchPlan`]): *plan* block `k + 1`
    /// — resolve both labels' bit offsets into the SoA buffers and prefetch
    /// each label's first line — while *computing* block `k` from offsets
    /// planned (and lines prefetched) one stage earlier.  The plan lives on
    /// the stack, so the call is allocation-free; the forest router passes
    /// its own reusable plan through [`Store::distances_write_with`].
    pub(crate) fn distances_write(&self, pairs: &[(usize, usize)], out: &mut [u64]) {
        let mut plan = BatchPlan::default();
        self.distances_write_with(pairs, &mut plan, out);
    }

    /// [`Store::distances_write`] with a caller-owned [`BatchPlan`] (the
    /// forest router shares one across all groups of a batch).  Every
    /// planned pair computes through the one-pair kernel
    /// ([`StoredScheme::distance_refs`]), so batch and per-pair answers come
    /// from the same code.
    pub(crate) fn distances_write_with(
        &self,
        pairs: &[(usize, usize)],
        plan: &mut BatchPlan,
        out: &mut [u64],
    ) {
        debug_assert_eq!(pairs.len(), out.len());
        if pairs.is_empty() {
            return;
        }
        let blocks = pairs.len().div_ceil(PLAN_BLOCK);
        let [b0, b1] = &mut plan.blocks;
        self.plan_block(pairs, 0, b0);
        for k in 0..blocks {
            let (cur, next) = if k % 2 == 0 {
                (&*b0, &mut *b1)
            } else {
                (&*b1, &mut *b0)
            };
            if k + 1 < blocks {
                self.plan_block(pairs, k + 1, next);
            }
            let base = k * PLAN_BLOCK;
            let len = (pairs.len() - base).min(PLAN_BLOCK);
            self.compute_block(&pairs[base..base + len], cur, &mut out[base..base + len]);
        }
    }

    /// Stage 1 of the batch pipeline: resolves block `k`'s label offsets
    /// into the SoA buffers and prefetches each label's first line — the
    /// index walk and the label-region misses of block `k` overlap the
    /// compute of block `k - 1`.
    #[inline]
    fn plan_block(&self, pairs: &[(usize, usize)], k: usize, blk: &mut PlanBlock) {
        let words = self.words.as_ref();
        let label_words = self.label_slice().words();
        let base = k * PLAN_BLOCK;
        let len = (pairs.len() - base).min(PLAN_BLOCK);
        for (j, &(u, v)) in pairs[base..base + len].iter().enumerate() {
            let sa = self.raw.offset_at(words, u);
            let sb = self.raw.offset_at(words, v);
            blk.sa[j] = sa;
            blk.sb[j] = sb;
            treelab_bits::wordram::prefetch_word(label_words, sa / 64);
            treelab_bits::wordram::prefetch_word(label_words, sb / 64);
        }
    }

    /// Stage 2 of the batch pipeline: computes one planned block one pair
    /// at a time through [`StoredScheme::distance_refs`], keeping [`PIPE`]
    /// queries in flight — before pair `j` runs, pair `j + PIPE` gets its
    /// labels' straddle lines touched (the planner fetched first lines only;
    /// multi-line labels would otherwise stall on their second line).  Each
    /// label's end offset is the index entry after its start, which the
    /// planner's read left in cache; reading it here rather than planning it
    /// keeps the plan buffers at two columns.
    #[inline]
    fn compute_block(&self, pairs: &[(usize, usize)], blk: &PlanBlock, out: &mut [u64]) {
        let words = self.words.as_ref();
        let slice = self.label_slice();
        let label_words = slice.words();
        for (j, &(u, v)) in pairs.iter().enumerate() {
            if j + PIPE < out.len() {
                treelab_bits::wordram::prefetch_word(label_words, blk.sa[j + PIPE] / 64 + 1);
                treelab_bits::wordram::prefetch_word(label_words, blk.sb[j + PIPE] / 64 + 1);
            }
            let ea = self.raw.offset_at(words, u + 1);
            let eb = self.raw.offset_at(words, v + 1);
            let a = S::label_ref(slice, blk.sa[j], ea, &self.meta);
            let b = S::label_ref(slice, blk.sb[j], eb, &self.meta);
            out[j] = S::distance_refs(a, b);
        }
    }
}

impl<S: StoredScheme> SchemeStore<S> {
    /// Packs a [`PackSource`] directly into a fresh frame, materializing
    /// `chunk` rows at a time (`usize::MAX` keeps the whole tree in memory).
    /// Returns the plan the source accumulated over the planning pass
    /// (wire-size side tables the schemes harvest), so streaming builds need
    /// not keep rows around.
    ///
    /// The frame is bit-identical at every chunk size.
    pub(crate) fn from_source_with<P: PackSource<S>>(src: &P, chunk: usize) -> (Self, P::Plan) {
        let (words, raw, meta, plan) = build_frame(src, chunk);
        (SchemeStore { words, raw, meta }, plan)
    }

    /// The frame as bytes (words serialized little-endian) — the
    /// persistable form.  A scheme's native representation already *is* its
    /// frame, so `scheme.as_store().to_bytes()` only widens the words (no
    /// label is re-encoded, no meta is re-measured).
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::words_to_bytes(&self.words)
    }

    /// Validates and adopts a frame produced by [`SchemeStore::to_bytes`] —
    /// the **copy path**: the bytes are widened into an owned word buffer
    /// once (a bulk copy for alignment, not a per-label decode), so it works
    /// at any byte alignment.  For the zero-copy alternative over an aligned
    /// buffer, use [`StoreRef::from_bytes`]; to adopt words without any
    /// copy, use [`SchemeStore::from_words`].
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] describing the first failed validation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_words(frame::words_from_bytes(bytes)?)
    }

    /// [`SchemeStore::from_bytes`] for a caller that already holds words
    /// (e.g. a store handed over from another thread) — genuinely zero-copy.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] describing the first failed validation.
    pub fn from_words(words: Vec<u64>) -> Result<Self, StoreError> {
        let (raw, meta) = parse_frame::<S>(&words)?;
        Ok(SchemeStore { words, raw, meta })
    }

    /// Consumes the store and returns its frame words (for hand-off into a
    /// forest builder or across threads without a copy).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// The raw frame words (for hand-off to another thread via
    /// [`SchemeStore::from_words`], borrowing via [`StoreRef::from_words`],
    /// or word-level inspection).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// The parsed scheme meta of any of the six schemes — the type-erased
/// counterpart of [`StoredScheme::Meta`], kept `Copy` so forest directories
/// can cache one per tree without borrowing the frame.
// Variant sizes differ by what each scheme's meta holds; boxing the large
// ones would cost an allocation and an indirection on the zero-copy hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnyMeta {
    Naive(PsumMeta),
    DistanceArray(PsumMeta),
    Optimal(OptimalMeta),
    KDistance(KDistanceMeta),
    Approximate(ApproximateMeta),
    LevelAncestor(LevelAncestorMeta),
}

/// The POD description of a validated frame of *some* scheme: [`RawParts`]
/// plus the type-erased meta.  [`AnyStoreRef::from_parts`] rebuilds a view
/// from this in O(1), which is how a forest serves `tree(id)` without
/// re-validating the inner frame per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnyParts {
    pub(crate) raw: RawParts,
    pub(crate) meta: AnyMeta,
}

/// Dispatches `$body` with `$r` bound to the inner [`StoreRef`] of whichever
/// scheme the view holds.
macro_rules! any_dispatch {
    ($any:expr, $r:ident => $body:expr) => {
        match $any {
            AnyStoreRef::Naive($r) => $body,
            AnyStoreRef::DistanceArray($r) => $body,
            AnyStoreRef::Optimal($r) => $body,
            AnyStoreRef::KDistance($r) => $body,
            AnyStoreRef::Approximate($r) => $body,
            AnyStoreRef::LevelAncestor($r) => $body,
        }
    };
}

/// A borrowed store view of *whichever* scheme a frame holds, dispatched on
/// the frame's scheme tag at runtime.
///
/// This is how heterogeneous frames load without compile-time generics: a
/// forest file packs frames of different schemes side by side, and
/// [`AnyStoreRef::from_words`] reads the tag word and returns the matching
/// [`StoreRef`] variant.  Query methods dispatch once per call (or once per
/// *batch* for [`AnyStoreRef::distances_into`] — the per-pair hot loop is the
/// monomorphized scheme loop either way).
// Variant sizes differ with each scheme's meta; boxing would break `Copy`
// and put an allocation on the zero-copy serving path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum AnyStoreRef<'a> {
    /// A `naive` fixed-width ancestor-table frame.
    Naive(StoreRef<'a, NaiveScheme>),
    /// An Alstrup-et-al. distance-array frame.
    DistanceArray(StoreRef<'a, DistanceArrayScheme>),
    /// A modified-distance-array (Theorem 1.1) frame.
    Optimal(StoreRef<'a, OptimalScheme>),
    /// A `k`-distance frame.
    KDistance(StoreRef<'a, KDistanceScheme>),
    /// A `(1+ε)`-approximate frame.
    Approximate(StoreRef<'a, ApproximateScheme>),
    /// A level-ancestor frame.
    LevelAncestor(StoreRef<'a, LevelAncestorScheme>),
}

impl<'a> AnyStoreRef<'a> {
    /// Validates a frame of *any* known scheme and borrows it, dispatching on
    /// the scheme tag in the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownScheme`] when the tag is not one of the six
    /// schemes of this crate; otherwise whatever [`StoreRef::from_words`]
    /// reports for the dispatched scheme.
    pub fn from_words(words: &'a [u64]) -> Result<Self, StoreError> {
        if words.len() < 2 {
            return Err(StoreError::Truncated {
                expected: (HEADER_WORDS + 1 + PAD_WORDS + 1) * 8,
                found: words.len() * 8,
            });
        }
        if words[0] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        match words[1] as u32 {
            NaiveScheme::TAG => StoreRef::from_words(words).map(AnyStoreRef::Naive),
            DistanceArrayScheme::TAG => StoreRef::from_words(words).map(AnyStoreRef::DistanceArray),
            OptimalScheme::TAG => StoreRef::from_words(words).map(AnyStoreRef::Optimal),
            KDistanceScheme::TAG => StoreRef::from_words(words).map(AnyStoreRef::KDistance),
            ApproximateScheme::TAG => StoreRef::from_words(words).map(AnyStoreRef::Approximate),
            LevelAncestorScheme::TAG => StoreRef::from_words(words).map(AnyStoreRef::LevelAncestor),
            found => Err(StoreError::UnknownScheme { found }),
        }
    }

    /// [`AnyStoreRef::from_words`] over an aligned byte buffer (borrow path;
    /// misaligned input is refused with [`StoreError::Misaligned`]).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] describing the failed cast or validation.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, StoreError> {
        Self::from_words(frame::try_cast_words(bytes)?)
    }

    /// Rebuilds a view from a cached frame description in O(1) — no
    /// re-validation.  `words` must be the exact frame slice the parts were
    /// parsed from (the forest directory guarantees this).
    pub(crate) fn from_parts(words: &'a [u64], parts: AnyParts) -> Self {
        let raw = parts.raw;
        match parts.meta {
            AnyMeta::Naive(meta) => AnyStoreRef::Naive(StoreRef { words, raw, meta }),
            AnyMeta::DistanceArray(meta) => {
                AnyStoreRef::DistanceArray(StoreRef { words, raw, meta })
            }
            AnyMeta::Optimal(meta) => AnyStoreRef::Optimal(StoreRef { words, raw, meta }),
            AnyMeta::KDistance(meta) => AnyStoreRef::KDistance(StoreRef { words, raw, meta }),
            AnyMeta::Approximate(meta) => AnyStoreRef::Approximate(StoreRef { words, raw, meta }),
            AnyMeta::LevelAncestor(meta) => {
                AnyStoreRef::LevelAncestor(StoreRef { words, raw, meta })
            }
        }
    }

    /// The cached frame description ([`AnyStoreRef::from_parts`] inverts it).
    pub(crate) fn parts(&self) -> AnyParts {
        match self {
            AnyStoreRef::Naive(r) => AnyParts {
                raw: r.raw,
                meta: AnyMeta::Naive(r.meta),
            },
            AnyStoreRef::DistanceArray(r) => AnyParts {
                raw: r.raw,
                meta: AnyMeta::DistanceArray(r.meta),
            },
            AnyStoreRef::Optimal(r) => AnyParts {
                raw: r.raw,
                meta: AnyMeta::Optimal(r.meta),
            },
            AnyStoreRef::KDistance(r) => AnyParts {
                raw: r.raw,
                meta: AnyMeta::KDistance(r.meta),
            },
            AnyStoreRef::Approximate(r) => AnyParts {
                raw: r.raw,
                meta: AnyMeta::Approximate(r.meta),
            },
            AnyStoreRef::LevelAncestor(r) => AnyParts {
                raw: r.raw,
                meta: AnyMeta::LevelAncestor(r.meta),
            },
        }
    }

    /// Scheme tag of the frame.
    pub fn tag(&self) -> u32 {
        match self {
            AnyStoreRef::Naive(_) => NaiveScheme::TAG,
            AnyStoreRef::DistanceArray(_) => DistanceArrayScheme::TAG,
            AnyStoreRef::Optimal(_) => OptimalScheme::TAG,
            AnyStoreRef::KDistance(_) => KDistanceScheme::TAG,
            AnyStoreRef::Approximate(_) => ApproximateScheme::TAG,
            AnyStoreRef::LevelAncestor(_) => LevelAncestorScheme::TAG,
        }
    }

    /// Human-readable scheme name of the frame.
    pub fn scheme_name(&self) -> &'static str {
        match self {
            AnyStoreRef::Naive(_) => NaiveScheme::STORE_NAME,
            AnyStoreRef::DistanceArray(_) => DistanceArrayScheme::STORE_NAME,
            AnyStoreRef::Optimal(_) => OptimalScheme::STORE_NAME,
            AnyStoreRef::KDistance(_) => KDistanceScheme::STORE_NAME,
            AnyStoreRef::Approximate(_) => ApproximateScheme::STORE_NAME,
            AnyStoreRef::LevelAncestor(_) => LevelAncestorScheme::STORE_NAME,
        }
    }

    /// Number of labelled nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        any_dispatch!(self, r => r.node_count())
    }

    /// The scheme parameter recorded in the header.
    pub fn param(&self) -> u64 {
        any_dispatch!(self, r => r.param())
    }

    /// Total frame size in bytes.
    pub fn size_bytes(&self) -> usize {
        any_dispatch!(self, r => r.size_bytes())
    }

    /// Bit length of the packed label region.
    pub fn label_region_bits(&self) -> usize {
        any_dispatch!(self, r => r.label_region_bits())
    }

    /// The raw frame words.
    pub fn as_words(&self) -> &'a [u64] {
        any_dispatch!(self, r => r.as_words())
    }

    /// Distance between nodes `u` and `v` ([`NO_DISTANCE`] when the scheme
    /// declines), dispatched on the frame's scheme.
    ///
    /// # Panics
    ///
    /// As [`Store::distance`].
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> u64 {
        any_dispatch!(self, r => r.distance(u, v))
    }

    /// Batch query: the distance of every pair, in order (one dispatch for
    /// the whole batch).
    ///
    /// # Panics
    ///
    /// As [`Store::distances_into`].
    pub fn distances(&self, pairs: &[(usize, usize)]) -> Vec<u64> {
        any_dispatch!(self, r => r.distances(pairs))
    }

    /// Appends the distance of every pair to `out` (allocation-free when
    /// `out` has capacity; one dispatch for the whole batch).
    ///
    /// # Panics
    ///
    /// As [`Store::distances_into`].
    pub fn distances_into(&self, pairs: &[(usize, usize)], out: &mut Vec<u64>) {
        any_dispatch!(self, r => r.distances_into(pairs, out))
    }

    /// The validated-input batch hot loop with a caller-owned [`BatchPlan`]:
    /// the forest router threads one plan through every per-tree group of a
    /// routed batch so the planning buffers are shared across groups (see
    /// [`Store::distances_write_with`]).
    pub(crate) fn distances_write_with(
        &self,
        pairs: &[(usize, usize)],
        plan: &mut BatchPlan,
        out: &mut [u64],
    ) {
        any_dispatch!(self, r => r.distances_write_with(pairs, plan, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveScheme;
    use crate::DistanceScheme;
    use treelab_tree::gen;

    fn sample_store() -> (treelab_tree::Tree, NaiveScheme, SchemeStore<NaiveScheme>) {
        let tree = gen::random_tree(240, 5);
        let scheme = NaiveScheme::build(&tree);
        let store = scheme.as_store().clone();
        (tree, scheme, store)
    }

    #[test]
    fn frame_round_trips_bit_exactly() {
        let (_, _, store) = sample_store();
        let bytes = store.to_bytes();
        let back = SchemeStore::<NaiveScheme>::from_bytes(&bytes).unwrap();
        assert_eq!(store.as_words(), back.as_words());
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.node_count(), store.node_count());
        // from_words is the no-copy path for same-process hand-off.
        let again = SchemeStore::<NaiveScheme>::from_words(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
        .unwrap();
        assert_eq!(again.as_words(), store.as_words());
    }

    #[test]
    fn the_index_addresses_label_regions_past_2_32_bits() {
        // Synthetic offsets over three full blocks and a partial fourth,
        // 5.9·10⁹ bits in all: no label region is needed to drive the
        // emitter and `offset_at` past the u32 range.
        let n = 3 * (1 << BLOCK_BITS) + 5;
        let offsets: Vec<u64> = (0..=n as u64).map(|p| p * 30_011 + p % 3).collect();
        assert!(offsets[n] > u64::from(u32::MAX));
        let mut words = Vec::new();
        emit_index(&mut words, &offsets);
        let (bases, label_base) = index_layout(n, 0);
        assert_eq!((bases, label_base), ((n + 2) / 2, (n + 2) / 2 + 3));
        assert_eq!(words.len(), label_base);
        let raw = RawParts {
            n,
            param: 0,
            label_base,
            label_bits: offsets[n] as usize,
            index: 0,
            bases,
        };
        for (p, &o) in offsets.iter().enumerate() {
            assert_eq!(raw.offset_at(&words, p) as u64, o, "offset {p}");
        }
        // Each base is its block's first offset, stored as a zero entry.
        for b in 1..=3 {
            let p = b << BLOCK_BITS;
            assert_eq!(words[bases + b - 1], offsets[p]);
            assert_eq!(words[p / 2], (offsets[p + 1] - offsets[p]) << 32);
        }
    }

    #[test]
    #[should_panic(expected = "spans 2^32 or more label bits")]
    fn the_writer_refuses_a_block_spanning_2_32_bits() {
        emit_index(&mut Vec::new(), &[0, 1 << 32]);
    }

    #[test]
    fn store_ref_borrows_without_copying() {
        let (tree, _scheme, store) = sample_store();
        let view = StoreRef::<NaiveScheme>::from_words(store.as_words()).unwrap();
        // The view reads the owner's buffer in place.
        assert!(std::ptr::eq(view.as_words(), store.as_words()));
        assert_eq!(view.node_count(), store.node_count());
        let n = tree.len();
        for i in 0..200usize {
            let (u, v) = ((i * 13) % n, (i * 57 + 3) % n);
            assert_eq!(view.distance(u, v), store.distance(u, v));
        }
        // AnyStoreRef dispatches to the same frame at runtime.
        let any = AnyStoreRef::from_words(store.as_words()).unwrap();
        assert_eq!(any.tag(), <NaiveScheme as StoredScheme>::TAG);
        assert_eq!(any.scheme_name(), NaiveScheme::STORE_NAME);
        assert_eq!(any.node_count(), store.node_count());
        assert_eq!(any.distance(3, 119), store.distance(3, 119));
        let pairs = [(0usize, 1usize), (5, 200), (239, 0)];
        assert_eq!(any.distances(&pairs), store.distances(&pairs));
        // parts() → from_parts() is the O(1) rebuild the forest uses.
        let again = AnyStoreRef::from_parts(store.as_words(), any.parts());
        assert_eq!(again.distance(3, 119), store.distance(3, 119));
    }

    #[test]
    fn queries_match_the_in_memory_scheme() {
        let (tree, scheme, store) = sample_store();
        let n = tree.len();
        let pairs: Vec<(usize, usize)> =
            (0..500).map(|i| ((i * 31) % n, (i * 87 + 5) % n)).collect();
        let batch = store.distances(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let expect = scheme.distance(tree.node(u), tree.node(v));
            assert_eq!(store.distance(u, v), expect, "({u},{v})");
            assert_eq!(batch[i], expect, "batch ({u},{v})");
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let (_, _, store) = sample_store();
        let bytes = store.to_bytes();

        // Odd length.
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_bytes(&bytes[..bytes.len() - 3]),
            Err(StoreError::Malformed { .. })
        ));
        // Truncation to a whole word boundary: CRC no longer matches.
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_bytes(&bytes[..bytes.len() - 8]),
            Err(StoreError::ChecksumMismatch)
        ));
        // Tiny buffer.
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_bytes(&bytes[..16]),
            Err(StoreError::Truncated { .. })
        ));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_bytes(&bad),
            Err(StoreError::BadMagic)
        ));
        assert!(matches!(
            AnyStoreRef::from_bytes(&frame::words_to_bytes(
                &frame::words_from_bytes(&bad).unwrap()
            )),
            Err(StoreError::BadMagic) | Err(StoreError::Misaligned { .. })
        ));
        // Flipped payload bit.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_bytes(&flipped),
            Err(StoreError::ChecksumMismatch)
        ));
        // Unknown version (CRC refreshed so the version check is what fires).
        let mut vbad: Vec<u64> = store.as_words().to_vec();
        vbad[1] = (99u64 << 32) | u64::from(<NaiveScheme as StoredScheme>::TAG);
        let last = vbad.len() - 1;
        vbad[last] = crc::crc64_words(&vbad[..last]);
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_words(vbad),
            Err(StoreError::UnsupportedVersion { found: 99 })
        ));
        // Wrong scheme tag.
        assert!(matches!(
            SchemeStore::<crate::optimal::OptimalScheme>::from_bytes(&bytes),
            Err(StoreError::SchemeMismatch { .. })
        ));
        // A tag no scheme owns: the typed path reports a mismatch, the
        // runtime-dispatch path reports the unknown tag.
        let mut unknown: Vec<u64> = store.as_words().to_vec();
        unknown[1] = (u64::from(VERSION) << 32) | 0xBEEF;
        let last = unknown.len() - 1;
        unknown[last] = crc::crc64_words(&unknown[..last]);
        assert!(matches!(
            AnyStoreRef::from_words(&unknown),
            Err(StoreError::UnknownScheme { found: 0xBEEF })
        ));
        // A moved last-label offset (CRC refreshed, so the structural
        // checks are what fire) is refused at load: the last label is held
        // to its extent like every block-boundary label.
        assert!(matches!(
            SchemeStore::<NaiveScheme>::from_words(wild_entry(&store, store.raw.n - 1, 1)),
            Err(StoreError::Malformed { .. })
        ));
        // Errors display something useful.
        assert!(StoreError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(StoreError::Misaligned { offset: 3 }
            .to_string()
            .contains("3"));
    }

    /// `store`'s words with index entry `p` replaced by `entry` and the
    /// CRC resealed.
    fn wild_entry(store: &SchemeStore<NaiveScheme>, p: usize, entry: u64) -> Vec<u64> {
        let mut w = store.as_words().to_vec();
        let (word, shift) = (store.raw.index + p / 2, (p & 1) * 32);
        w[word] = (w[word] & !(0xFFFF_FFFF << shift)) | (entry << shift);
        let last = w.len() - 1;
        w[last] = crc::crc64_words(&w[..last]);
        w
    }

    #[test]
    fn a_non_monotone_index_answers_the_corrupt_verdict() {
        // An offset far past the label region, CRC resealed: the frame
        // loads (of a one-block frame the load visits only the first and
        // last label), and exactly the two labels whose extents the entry
        // bounds answer the corrupt verdict.
        let (_, _, store) = sample_store();
        let p = store.raw.n / 2;
        let wild = SchemeStore::<NaiveScheme>::from_words(wild_entry(&store, p, 0xFFFF_FFF0))
            .expect("the load does not walk the index");
        assert_eq!(
            wild.label_bits(p - 1),
            0xFFFF_FFF0 - store.raw.offset_at(store.as_words(), p - 1)
        );
        let n = store.raw.n;
        for u in 0..n {
            for v in [0, p - 1, p, p + 1, n - 1] {
                let d = NaiveScheme::distance_refs(wild.label_ref(u), wild.label_ref(v));
                if [u, v].iter().any(|&x| x == p - 1 || x == p) {
                    assert_eq!(d, CORRUPT_LABEL, "({u}, {v})");
                } else {
                    assert_eq!(d, store.distance(u, v), "({u}, {v})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "label 120 has a negative index extent")]
    fn label_bits_refuses_a_negative_extent() {
        let (_, _, store) = sample_store();
        let wild = SchemeStore::<NaiveScheme>::from_words(wild_entry(&store, 120, 0xFFFF_FFF0))
            .expect("the load does not walk the index");
        wild.label_bits(120);
    }

    #[test]
    fn an_inflated_pushed_field_answers_the_corrupt_verdict() {
        // The optimal scheme's packed `pushed` field occupies 7 bits (values
        // up to 127), but the query protocol shifts by `64 − pushed`: a
        // CRC-consistent crafted frame claiming pushed > 64 loads, and the
        // queries that read that record answer the corrupt verdict.
        use crate::optimal::OptimalScheme;
        use crate::DistanceScheme;
        let tree = gen::comb(300);
        let scheme = OptimalScheme::build(&tree);
        let store = scheme.as_store();
        let (raw, meta) = (store.raw, store.meta);
        let words = store.as_words();
        let lsb = |pos: usize, width: usize| {
            treelab_bits::bitslice::read_lsb(&words[raw.label_base..], pos, width)
        };
        // Find a node whose label carries at least one record.
        let (u, _ld, cwl) = (0..raw.n)
            .map(|u| {
                let start = raw.offset_at(words, u);
                let ld = lsb(start + usize::from(meta.w_rd), usize::from(meta.aux_w.ld)) as usize;
                let cwl = lsb(
                    start
                        + usize::from(meta.w_rd)
                        + usize::from(meta.aux_w.ld)
                        + usize::from(meta.w_fc),
                    usize::from(meta.aux_w.end),
                ) as usize;
                (u, ld, cwl)
            })
            .find(|&(_, ld, _)| ld > 0)
            .expect("comb labels have light edges");
        let start = raw.offset_at(words, u);
        let fc = lsb(
            start + usize::from(meta.w_rd) + usize::from(meta.aux_w.ld),
            usize::from(meta.w_fc),
        ) as usize;
        // Absolute bit position of record 0's 7-bit `pushed` field.
        let rec0 = start
            + meta.hdr_total
            + meta.aux_w.scalar_bits()
            + cwl
            + fc * meta.frag_w
            + usize::from(meta.aux_w.end)
            + 2
            + usize::from(meta.w_fi);
        let mut crafted = words.to_vec();
        for b in 0..7usize {
            let bit = (100u64 >> b) & 1;
            let abs = raw.label_base * 64 + rec0 + b;
            let (w, off) = (abs / 64, abs % 64);
            crafted[w] = (crafted[w] & !(1u64 << off)) | (bit << off);
        }
        let last = crafted.len() - 1;
        crafted[last] = crc::crc64_words(&crafted[..last]);
        let crafted = SchemeStore::<OptimalScheme>::from_words(crafted).expect("loads");
        let mut corrupt = 0;
        for v in 0..raw.n {
            for (x, y) in [(u, v), (v, u)] {
                let d = OptimalScheme::distance_refs(crafted.label_ref(x), crafted.label_ref(y));
                if d == CORRUPT_LABEL {
                    corrupt += 1;
                } else {
                    assert_eq!(d, store.distance(x, y), "({x}, {y})");
                }
            }
        }
        assert!(corrupt > 0, "some query reads the inflated record");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_rejects_out_of_range_pairs() {
        let (_, _, store) = sample_store();
        store.distances(&[(0, 1), (0, 10_000)]);
    }
}
