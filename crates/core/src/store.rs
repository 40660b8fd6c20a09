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
//! are thin owners of a [`SchemeStore`], and
//! [`SchemeStore::serialize`] is a copy-free frame handoff ("build once,
//! serve many") — the byte buffer can be persisted, mapped, or handed to
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
//!   the vector without copying) and answers through the same query methods;
//!   [`SchemeStore::as_store_ref`] lends a `Copy` view of it.
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
//!             (entry n is the total bit length).  Version 2 packs two u32
//!             entries per word (emitted whenever the label region is under
//!             2³² bits); the retired version 1 (one u64 per entry) is
//!             rejected with `UnsupportedVersion`.  Version 3 is the
//!             *succinct* index: an Elias–Fano split of the monotone offset
//!             sequence (dense low bits + a unary bucket bitvector with
//!             select samples, ~log(L/n)+3 bits per entry) plus an optional
//!             node→position permutation for frames whose label region is
//!             laid out in heavy-path order instead of node id order.  It
//!             is emitted automatically whenever the label region outgrows
//!             the u32 index or a clustered layout is requested, so giant
//!             trees never hit a width ceiling.
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
//! use treelab_core::store::{AnyStoreRef, SchemeStore, StoreRef};
//! use treelab_core::naive::NaiveScheme;
//! use treelab_core::DistanceScheme;
//! use treelab_tree::gen;
//!
//! let tree = gen::random_tree(300, 7);
//! let scheme = NaiveScheme::build(&tree);               // packs a frame directly
//! let store = SchemeStore::build(&scheme);              // owned copy of that frame
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
use crate::substrate::{PackConfig, PackSource, RowArena};

/// Sentinel returned by [`Store::distance`] for scheme/pair combinations
/// with no reportable distance (the `k`-distance scheme's "more than `k`").
pub const NO_DISTANCE: u64 = u64::MAX;

/// `b"TLSTOR01"` as a little-endian word.
const MAGIC: u64 = u64::from_le_bytes(*b"TLSTOR01");

/// Frame format version with two u32 offset entries packed per word — half
/// the index footprint, emitted whenever the label region fits.
const VERSION_NARROW: u32 = 2;

/// Frame format version with the succinct (Elias–Fano) offset index and an
/// optional label-layout permutation — emitted whenever the label region is
/// 2³² bits or larger, or the labels are packed in heavy-path-clustered
/// order.
const VERSION_SUCCINCT: u32 = 3;

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
    /// The label region is too large for the requested offset-index width
    /// (the packed u32 index cannot address 2³² or more label bits).  Build
    /// with the automatic width — which switches to the succinct index —
    /// instead of pinning [`IndexWidth::U32`].
    IndexOverflow {
        /// Bit length of the label region that failed to fit.
        label_bits: usize,
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
            StoreError::IndexOverflow { label_bits } => write!(
                f,
                "label region of {label_bits} bits does not fit the packed u32 \
                 offset index (use the automatic or succinct index width)"
            ),
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

/// Width of the offset-index entries in a store frame.
///
/// The automatic build picks [`IndexWidth::U32`] whenever the label region is
/// under 2³² bits (two entries per word — half the index footprint and memory
/// traffic) and switches to [`IndexWidth::Succinct`] when it isn't, or when
/// the frame carries a clustered label layout;
/// [`SchemeStore::with_index_width`] re-frames a store with either width.
/// Frame version 1 (one u64 per entry) is rejected as unsupported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexWidth {
    /// Two u32 entries packed per word (frame version 2).
    U32,
    /// Elias–Fano split of the monotone offset sequence (frame version 3):
    /// `⌊log(L/(n+1))⌋` dense low bits per entry plus a unary bucket
    /// bitvector with one select sample per 64 entries — about
    /// `log(L/n) + 3` bits per entry with O(1) amortized access, and no
    /// width ceiling on the label region.
    Succinct,
}

/// Frame format version word for an index width.
fn version_of(width: IndexWidth) -> u32 {
    match width {
        IndexWidth::U32 => VERSION_NARROW,
        IndexWidth::Succinct => VERSION_SUCCINCT,
    }
}

/// Where (and how) a validated frame's offset index lives — the one
/// abstraction every offset read goes through, so all six schemes stay on a
/// single query path regardless of frame version.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OffsetIndex {
    /// Two packed u32 entries per word starting at `base` (version 2).
    U32 {
        /// First word of the entry array.
        base: usize,
    },
    /// Elias–Fano regions of the version-3 succinct index.
    Ef {
        /// First word of the packed low-bits array (unused when `low_w` is 0).
        low_base: usize,
        /// Dense low bits per entry (≤ 63).
        low_w: u8,
        /// First word of the unary bucket bitvector.
        high_base: usize,
        /// Word length of the bucket bitvector.
        high_words: usize,
        /// First word of the select samples (one per 64 entries).
        sample_base: usize,
    },
}

impl OffsetIndex {
    /// The public width tag of this index.
    pub(crate) fn width(&self) -> IndexWidth {
        match self {
            OffsetIndex::U32 { .. } => IndexWidth::U32,
            OffsetIndex::Ef { .. } => IndexWidth::Succinct,
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
    pub(crate) index: OffsetIndex,
    /// First word of the node→position permutation (0 when `perm_w == 0`).
    pub(crate) perm_base: usize,
    /// Bits per permutation entry; 0 means the identity (id-order) layout.
    pub(crate) perm_w: u8,
}

impl RawParts {
    /// Layout position of node `u`'s label (identity unless the frame
    /// carries a clustered-layout permutation).
    #[inline(always)]
    fn pos(&self, words: &[u64], u: usize) -> usize {
        if self.perm_w == 0 {
            u
        } else {
            // A non-empty region always follows the permutation words, so the
            // branchless straddle read stays in bounds.
            treelab_bits::bitslice::read_lsb(
                words,
                self.perm_base * 64 + u * self.perm_w as usize,
                self.perm_w as usize,
            ) as usize
        }
    }

    /// Bit offset of the label at layout *position* `p` (entry `n` is the
    /// total label-region bit length).
    #[inline(always)]
    fn offset_at(&self, words: &[u64], p: usize) -> usize {
        match self.index {
            OffsetIndex::U32 { base } => ((words[base + p / 2] >> ((p & 1) * 32)) as u32) as usize,
            OffsetIndex::Ef {
                low_base,
                low_w,
                high_base,
                high_words,
                sample_base,
            } => {
                let (j, rem) = (p / 64, p % 64);
                let s = words[sample_base + j] as usize;
                let hp = if rem == 0 {
                    s
                } else {
                    treelab_bits::rank_select::select1_after(
                        &words[high_base..high_base + high_words],
                        s,
                        rem,
                    )
                    .expect("validated EF high region holds n + 1 ones")
                };
                let lw = low_w as usize;
                let low = treelab_bits::bitslice::read_lsb(words, low_base * 64 + p * lw, lw);
                ((hp - p) << lw) | low as usize
            }
        }
    }

    /// Bit offset of *node* `u`'s label in the label region.
    #[inline(always)]
    fn offset(&self, words: &[u64], u: usize) -> usize {
        self.offset_at(words, self.pos(words, u))
    }

    /// Prefetches the first cache line of node `u`'s label — the forest
    /// router's cross-group look-ahead, issued before the group that reads
    /// the label is planned.
    #[inline]
    pub(crate) fn prefetch_label(&self, words: &[u64], u: usize) {
        treelab_bits::wordram::prefetch_word(words, self.label_base + self.offset(words, u) / 64);
    }

    /// Start and end bit offsets of node `u`'s label.
    #[inline]
    fn extent(&self, words: &[u64], u: usize) -> (usize, usize) {
        let p = self.pos(words, u);
        (self.offset_at(words, p), self.offset_at(words, p + 1))
    }
}

/// Dense low bits per entry of the succinct index: `⌊log₂(L/(n+1))⌋`, the
/// standard Elias–Fano split (0 when the region is smaller than the entry
/// count).
fn ef_low_width(n: usize, label_bits: usize) -> u32 {
    ((label_bits as u64) / (n as u64 + 1))
        .checked_ilog2()
        .unwrap_or(0)
}

/// Computes the index layout for a frame being *written*: the parsed
/// [`OffsetIndex`], the permutation base word, and the first label-region
/// word, given the index region's first word `base`.  `pw` is the
/// permutation entry width (0 for id-order frames; only meaningful for
/// [`IndexWidth::Succinct`]).
fn index_layout(
    n: usize,
    label_bits: usize,
    width: IndexWidth,
    pw: usize,
    base: usize,
) -> (OffsetIndex, usize, usize) {
    match width {
        IndexWidth::U32 => (OffsetIndex::U32 { base }, 0, base + (n + 2) / 2),
        IndexWidth::Succinct => {
            let l = ef_low_width(n, label_bits) as usize;
            let perm_base = base + 2;
            let low_base = perm_base + (n * pw).div_ceil(64);
            let high_base = low_base + ((n + 1) * l).div_ceil(64);
            let high_words = ((label_bits >> l) + n + 1).div_ceil(64);
            let sample_base = high_base + high_words;
            let label_base = sample_base + (n + 1).div_ceil(64);
            (
                OffsetIndex::Ef {
                    low_base,
                    low_w: l as u8,
                    high_base,
                    high_words,
                    sample_base,
                },
                perm_base,
                label_base,
            )
        }
    }
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
///   (with [`NO_DISTANCE`] standing in for "no answer"), allocating nothing.
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

    /// Creates a borrowed view of the label starting at bit `start` of the
    /// label region (packed labels are self-describing, so no end offset is
    /// needed — one offset load per side on the hot path).
    fn label_ref<'a>(slice: BitSlice<'a>, start: usize, meta: &'a Self::Meta) -> Self::Ref<'a>;

    /// Returns `true` when the packed label spanning bits `[start, end)`
    /// is self-consistent: the counts in its header must describe exactly
    /// `end − start` bits.  The load paths run this for every label, so a
    /// frame whose counts were inflated (which would make later queries scan
    /// past the label) is rejected at load time.
    fn check_label(slice: BitSlice<'_>, start: usize, end: usize, meta: &Self::Meta) -> bool;

    /// Distance from two borrowed label views alone — the zero-allocation hot
    /// path, one [`crate::kernel`] call.  Schemes whose query can decline to
    /// answer (the `k`-distance scheme) return [`NO_DISTANCE`].
    fn distance_refs(a: Self::Ref<'_>, b: Self::Ref<'_>) -> u64;
}

/// Validates a frame held in `words` and returns its parsed description.
///
/// This is the single validation pass every load path funnels through:
/// magic, version, scheme tag, CRC-64, structural bounds, offset-index
/// monotonicity, and the per-label extent check.
fn parse_frame<S: StoredScheme>(words: &[u64]) -> Result<(RawParts, S::Meta), StoreError> {
    // Minimal frame: header, empty meta, a narrow 1-label index, an empty
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
    if !matches!(version, VERSION_NARROW | VERSION_SUCCINCT) {
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
    let raw = if version == VERSION_SUCCINCT {
        parse_succinct_index(words, n64, meta_end)?
    } else {
        let label_base = n64
            .checked_add(2)
            .map(|x| x / 2)
            .and_then(|x| meta_end.checked_add(x))
            .filter(|&x| x < wlen)
            .ok_or(malformed)?;
        let n = n64 as usize;
        let raw = RawParts {
            n,
            param: words[3],
            label_base: label_base as usize,
            label_bits: 0, // patched below once the index is readable
            index: OffsetIndex::U32 {
                base: meta_end as usize,
            },
            perm_base: 0,
            perm_w: 0,
        };
        if (0..n).any(|p| raw.offset_at(words, p) > raw.offset_at(words, p + 1)) {
            return Err(StoreError::Malformed {
                what: "offset index is not monotone",
            });
        }
        let label_bits = raw.offset_at(words, n);
        let label_words = (label_bits as u64).div_ceil(64) + PAD_WORDS as u64;
        if label_base + label_words + 1 != wlen {
            return Err(StoreError::Malformed {
                what: "label region length disagrees with the buffer size",
            });
        }
        RawParts { label_bits, ..raw }
    };
    let meta = S::parse_meta(raw.param, &words[HEADER_WORDS..meta_end as usize])?;
    // Per-label extent check: every label's internal counts must describe
    // exactly its offset-index extent, so no query scan can leave the
    // label region because of an inflated count.  Positions enumerate the
    // label region in layout order, which visits every label exactly once
    // whether or not the frame carries a permutation.
    let label_bits = raw.label_bits;
    let slice = BitSlice::new(
        &words[raw.label_base..raw.label_base + label_bits.div_ceil(64) + PAD_WORDS],
        label_bits,
    );
    for p in 0..raw.n {
        if !S::check_label(
            slice,
            raw.offset_at(words, p),
            raw.offset_at(words, p + 1),
            &meta,
        ) {
            return Err(StoreError::Malformed {
                what: "a packed label's counts disagree with its extent",
            });
        }
    }
    Ok((raw, meta))
}

/// `x.div_ceil(64)` without the `+ 63` overflow hazard of hostile inputs.
fn div_ceil64(x: u64) -> u64 {
    x / 64 + u64::from(!x.is_multiple_of(64))
}

/// Validates the version-3 succinct index region (descriptor, optional
/// layout permutation, Elias–Fano low/high/sample arrays) and returns the
/// fully-described [`RawParts`].
///
/// One streaming pass over the bucket bitvector validates everything the
/// query path later relies on: exactly `n + 1` ones, none beyond the
/// declared bit length, exact select samples, monotone offsets, and a last
/// offset equal to the declared label bit length.  The permutation, when
/// present, is checked to be a bijection on `0..n`.
fn parse_succinct_index(words: &[u64], n64: u64, meta_end: u64) -> Result<RawParts, StoreError> {
    let wlen = words.len() as u64;
    let malformed = StoreError::Malformed {
        what: "header claims more meta/index words than the buffer holds",
    };
    if meta_end + 2 > wlen - 1 {
        return Err(malformed);
    }
    let desc = words[meta_end as usize];
    let label_bits64 = words[meta_end as usize + 1];
    let l = desc & 0xFF;
    let pw = (desc >> 8) & 0xFF;
    if desc >> 16 != 0 {
        return Err(StoreError::Malformed {
            what: "reserved succinct-descriptor bits are set",
        });
    }
    if l > 63 {
        return Err(StoreError::Malformed {
            what: "succinct index low width exceeds 63 bits",
        });
    }
    if pw > 0
        && (n64 < 2 || n64 > u64::from(u32::MAX) || pw != u64::from(64 - (n64 - 1).leading_zeros()))
    {
        return Err(StoreError::Malformed {
            what: "layout permutation width disagrees with the node count",
        });
    }
    let entries = n64.checked_add(1).ok_or(malformed)?;
    let perm_words = n64.checked_mul(pw).map(div_ceil64).ok_or(malformed)?;
    let low_words = entries.checked_mul(l).map(div_ceil64).ok_or(malformed)?;
    let high_bits = (label_bits64 >> l).checked_add(entries).ok_or(malformed)?;
    let high_words = div_ceil64(high_bits);
    let sample_words = div_ceil64(entries);
    let label_base64 = (meta_end + 2)
        .checked_add(perm_words)
        .and_then(|x| x.checked_add(low_words))
        .and_then(|x| x.checked_add(high_words))
        .and_then(|x| x.checked_add(sample_words))
        .filter(|&x| x < wlen)
        .ok_or(malformed)?;
    if label_base64 + div_ceil64(label_bits64) + PAD_WORDS as u64 + 1 != wlen {
        return Err(StoreError::Malformed {
            what: "label region length disagrees with the buffer size",
        });
    }

    // Every count now fits comfortably in usize (each region lies inside
    // the buffer).
    let n = n64 as usize;
    let perm_base = meta_end as usize + 2;
    let low_base = perm_base + perm_words as usize;
    let high_base = low_base + low_words as usize;
    let sample_base = high_base + high_words as usize;

    // Trailing bits of the permutation and low regions must be zero — the
    // frame is canonical, so re-encoding a parsed frame reproduces it bit
    // for bit.
    let tail_zero = |base: usize, nwords: u64, used_bits: u64| {
        nwords == 0 || {
            let rem = (used_bits % 64) as u32;
            rem == 0 || words[base + nwords as usize - 1] >> rem == 0
        }
    };
    if !tail_zero(perm_base, perm_words, n64 * pw) {
        return Err(StoreError::Malformed {
            what: "layout permutation region has trailing garbage bits",
        });
    }
    if !tail_zero(low_base, low_words, entries * l) {
        return Err(StoreError::Malformed {
            what: "succinct index low region has trailing garbage bits",
        });
    }

    let lw = l as usize;
    let mut k = 0u64;
    let mut prev = 0u64;
    for (wi, &word) in words[high_base..sample_base].iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let hp = wi as u64 * 64 + u64::from(word.trailing_zeros());
            if hp >= high_bits || k >= entries {
                return Err(StoreError::Malformed {
                    what: "succinct index bucket bitvector holds stray ones",
                });
            }
            let low = treelab_bits::bitslice::read_lsb(words, low_base * 64 + k as usize * lw, lw);
            let off = ((hp - k) << l) | low;
            if off < prev {
                return Err(StoreError::Malformed {
                    what: "offset index is not monotone",
                });
            }
            if k.is_multiple_of(64) && words[sample_base + (k / 64) as usize] != hp {
                return Err(StoreError::Malformed {
                    what: "succinct index select sample is wrong",
                });
            }
            prev = off;
            k += 1;
            word &= word - 1;
        }
    }
    if k != entries {
        return Err(StoreError::Malformed {
            what: "succinct index bucket bitvector does not hold n + 1 ones",
        });
    }
    if prev != label_bits64 {
        return Err(StoreError::Malformed {
            what: "declared label bit length disagrees with the offset index",
        });
    }

    if pw > 0 {
        let pwu = pw as usize;
        let mut seen = vec![0u64; n.div_ceil(64)];
        for u in 0..n {
            let p = treelab_bits::bitslice::read_lsb(words, perm_base * 64 + u * pwu, pwu) as usize;
            if p >= n || seen[p / 64] >> (p % 64) & 1 == 1 {
                return Err(StoreError::Malformed {
                    what: "layout permutation is not a bijection",
                });
            }
            seen[p / 64] |= 1u64 << (p % 64);
        }
    }

    Ok(RawParts {
        n,
        param: words[3],
        label_base: label_base64 as usize,
        label_bits: label_bits64 as usize,
        index: OffsetIndex::Ef {
            low_base,
            low_w: l as u8,
            high_base,
            high_words: high_words as usize,
            sample_base,
        },
        perm_base,
        perm_w: pw as u8,
    })
}

/// Packs an iterator of `width`-bit values LSB-first into whole words
/// appended to `out` (trailing bits of the last word zero).  `width` must be
/// 1–63.
fn push_lsb_region(out: &mut Vec<u64>, values: impl Iterator<Item = u64>, width: usize) {
    debug_assert!((1..64).contains(&width));
    let mut acc = 0u64;
    let mut fill = 0usize;
    for v in values {
        debug_assert!(v < 1u64 << width);
        acc |= v << fill;
        fill += width;
        if fill >= 64 {
            out.push(acc);
            fill -= 64;
            acc = if fill == 0 { 0 } else { v >> (width - fill) };
        }
    }
    if fill > 0 {
        out.push(acc);
    }
}

/// Appends the offset index (and, for succinct frames, the layout
/// permutation) to `out` — the one index emitter shared by [`build_frame`]
/// and the re-framing path, so the two assemblers cannot drift.
///
/// `offset_at(p)` is the bit offset of the label at layout position `p`
/// (entry `n` is the label region's total bit length); `pos_of(u)`, when
/// given, is node `u`'s layout position.
fn emit_index(
    out: &mut Vec<u64>,
    n: usize,
    label_bits: usize,
    offset_at: &dyn Fn(usize) -> u64,
    width: IndexWidth,
    pos_of: Option<&dyn Fn(usize) -> u64>,
) {
    match width {
        IndexWidth::U32 => {
            let mut p = 0;
            while p <= n {
                let lo = offset_at(p);
                let hi = if p < n { offset_at(p + 1) } else { 0 };
                out.push(lo | hi << 32);
                p += 2;
            }
        }
        IndexWidth::Succinct => {
            let l = ef_low_width(n, label_bits);
            let pw = pos_of.as_ref().map_or(0, |_| {
                debug_assert!(n > 1 && n <= u32::MAX as usize);
                64 - ((n - 1) as u64).leading_zeros()
            });
            out.push(u64::from(l) | u64::from(pw) << 8);
            out.push(label_bits as u64);
            if let Some(pos) = pos_of {
                push_lsb_region(out, (0..n).map(pos), pw as usize);
            }
            if l > 0 {
                let mask = (1u64 << l) - 1;
                push_lsb_region(out, (0..=n).map(|p| offset_at(p) & mask), l as usize);
            }
            let high_bits = (label_bits >> l) + n + 1;
            let mut high = vec![0u64; high_bits.div_ceil(64)];
            let mut samples = Vec::with_capacity((n + 1).div_ceil(64));
            for p in 0..=n {
                let hp = (offset_at(p) >> l) as usize + p;
                if p % 64 == 0 {
                    samples.push(hp as u64);
                }
                high[hp / 64] |= 1u64 << (hp % 64);
            }
            out.extend_from_slice(&high);
            out.extend_from_slice(&samples);
        }
    }
}

/// Packs a [`PackSource`] into a fresh frame, returning the words, their
/// parsed description (writer and reader agree by construction), and the
/// plan the source accumulated over the id-order planning pass.  This is the
/// one frame assembler behind every scheme's `build`.
///
/// The build runs serially, in two passes over fixed-size node-range chunks:
///
/// 1. **Plan** — rows are materialized chunk by chunk *in node-id order*
///    and folded into the source's [`PackSource::Plan`], which yields the
///    store-global meta (field-width maxima are associative, so chunking
///    cannot change them).
/// 2. **Pack** — rows are re-materialized chunk by chunk *in layout order*
///    and appended to the label region.  The packed bits of a label depend
///    only on its row and the meta, so the frame is bit-identical at every
///    chunk size.
///
/// Rows keep their variable-length parts in this thread's [`RowArena`],
/// cleared per chunk, and one row buffer serves every chunk.  When one chunk
/// covers the whole tree, the plan pass's rows are kept and the pack pass
/// reuses them (no re-materialization — the historical in-memory path);
/// otherwise peak row memory is O(chunk), at the price of computing each row
/// twice.
fn build_frame<S: StoredScheme, P: PackSource<S>>(
    src: &P,
    cfg: &PackConfig<'_>,
) -> (Vec<u64>, RawParts, S::Meta, P::Plan) {
    let n = src.node_count();
    assert!(n > 0, "cannot store an empty scheme");
    if let Some(layout) = cfg.layout {
        assert_eq!(
            layout.len(),
            n,
            "layout permutation length disagrees with the pack source"
        );
    }
    // A one-node tree has only the identity layout (and a permutation entry
    // would need 0 bits, colliding with the identity sentinel).
    let layout = cfg.layout.filter(|_| n > 1);
    let param = src.store_param();
    let chunk = cfg.chunk.max(1).min(n);

    let node_at = |p: usize| layout.map_or(p, |l| l.node_at(p));
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let (plan, meta_words, meta, label_words) = RowArena::with(|arena| {
        // Plan pass: id order, chunk by chunk.
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

        // Pack pass: layout order, chunk by chunk.
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
            for p in 0..n {
                let row = &rows[node_at(p)];
                offsets.push(w.len() as u64);
                src.pack_label(&meta, row, arena, &mut w);
                debug_assert_eq!(
                    w.len() - offsets[p] as usize,
                    src.packed_label_bits(&meta, row, arena),
                    "{}: packed_label_bits disagrees with pack_label for node {}",
                    S::STORE_NAME,
                    node_at(p)
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
                rows.extend((lo..hi).map(|p| src.make_row(node_at(p), arena)));
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
    let label_bits = *offsets.last().unwrap() as usize;

    // A clustered layout needs the permutation (only version 3 carries one);
    // an oversized label region needs the width lift.  Everything else keeps
    // the packed u32 index — existing small frames stay byte-identical.
    let index = if layout.is_some() || label_bits > u32::MAX as usize {
        IndexWidth::Succinct
    } else {
        IndexWidth::U32
    };
    let pw = layout.map_or(0, |_| {
        usize::try_from(64 - ((n - 1) as u64).leading_zeros()).unwrap()
    });

    let m = meta_words.len();
    let index_base = HEADER_WORDS + m;
    let (index_parts, perm_base, label_base) = index_layout(n, label_bits, index, pw, index_base);
    let mut words = Vec::with_capacity(label_base + label_words.len() + PAD_WORDS + 1);
    words.push(MAGIC);
    words.push(u64::from(version_of(index)) << 32 | u64::from(S::TAG));
    words.push(n as u64);
    words.push(param);
    words.push(m as u64);
    words.extend_from_slice(&meta_words);
    let pos_closure = layout.map(|l| move |u: usize| l.pos_of(u) as u64);
    emit_index(
        &mut words,
        n,
        label_bits,
        &|p| offsets[p],
        index,
        pos_closure.as_ref().map(|f| f as &dyn Fn(usize) -> u64),
    );
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
        index: index_parts,
        perm_base: if pw > 0 { perm_base } else { 0 },
        perm_w: pw as u8,
    };
    (words, raw, meta, plan)
}

/// One SoA planning block of the batch pipeline: the resolved label bit
/// offsets of up to [`PLAN_BLOCK`] pairs, stored column-wise (structure of
/// arrays) so the compute stage reads them as two dense, cache-resident
/// arrays instead of chasing the offset index pair by pair.
#[derive(Debug, Clone, Copy)]
struct PlanBlock {
    /// Left-label bit offsets, one per planned pair.
    sa: [usize; PLAN_BLOCK],
    /// Right-label bit offsets, one per planned pair.
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
/// `k + 1`'s label offsets (offset-index reads, permutation lookups, EF
/// selects) and issues one prefetch per label while the compute stage drains
/// block `k`, so the compute loop's label reads land on lines that are
/// already resident or in flight.
///
/// The buffers are fixed-size and heap-free (2 KiB of plain arrays), so the
/// batch path is allocation-free by construction: [`Store`] plants one on
/// the stack per call, and the forest router keeps one per shard in its
/// `RouteScratch` and shares it across every group that shard runs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchPlan {
    blocks: [PlanBlock; 2],
}

/// A validated scheme-store frame whose words are held by `W` — the one
/// store type and the query engine of the store stack.
///
/// "Validate once, serve forever": every constructor runs the full frame
/// validation (magic/version/tag/CRC/structure/per-label extents), and the
/// store then answers every query by reading its words in place.  The query
/// methods are one impl for every `W: AsRef<[u64]>`; the word owners in use
/// are the aliases [`StoreRef`] and [`SchemeStore`], each with its own
/// constructors.
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
    /// magic/version/tag/CRC checks and an O(n) pass over the offset index
    /// and per-label extents, queries read the caller's buffer in place.
    ///
    /// The CRC authenticates *integrity*, not provenance: every accidentally
    /// corrupted frame is rejected, but a frame deliberately crafted to pass
    /// all checks may still make queries return wrong distances or panic —
    /// load stores from writers you trust, as you would any index file.
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

    /// Lazy iterator form of [`Store::distances`].
    ///
    /// # Panics
    ///
    /// The returned iterator panics (on `next`) for out-of-range indices.
    pub fn distances_iter<I>(self, pairs: I) -> impl Iterator<Item = u64> + 'a
    where
        S: 'a,
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: 'a,
    {
        pairs.into_iter().map(move |(u, v)| self.distance(u, v))
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

    /// Width of the frame's offset-index entries (version 2 packs two u32
    /// entries per word; version 3 is the succinct Elias–Fano index).
    pub fn index_width(&self) -> IndexWidth {
        self.raw.index.width()
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
        S::label_ref(
            self.label_slice(),
            self.raw.offset(self.words.as_ref(), u),
            &self.meta,
        )
    }

    /// Bit length of node `u`'s packed label.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn label_bits(&self, u: usize) -> usize {
        assert!(
            u < self.raw.n,
            "node index {u} out of range (n = {})",
            self.raw.n
        );
        let (start, end) = self.raw.extent(self.words.as_ref(), u);
        end - start
    }

    /// Distance between nodes `u` and `v`, answered from the packed labels
    /// with zero allocation ([`NO_DISTANCE`] when the scheme declines).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> u64 {
        assert!(
            u < self.raw.n && v < self.raw.n,
            "pair ({u}, {v}) out of range (n = {})",
            self.raw.n
        );
        let words = self.words.as_ref();
        let slice = self.label_slice();
        S::distance_refs(
            S::label_ref(slice, self.raw.offset(words, u), &self.meta),
            S::label_ref(slice, self.raw.offset(words, v), &self.meta),
        )
    }

    /// Batch query: the distance of every pair, in order.
    ///
    /// One output allocation for the whole batch; see
    /// [`Store::distances_into`] to amortize even that across batches.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
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
    /// Panics if any index is out of range.
    pub fn distances_into(&self, pairs: &[(usize, usize)], out: &mut Vec<u64>) {
        let n = self.raw.n;
        if let Some(&(u, v)) = pairs.iter().find(|&&(u, v)| u >= n || v >= n) {
            panic!("pair ({u}, {v}) out of range (n = {n})");
        }
        let base = out.len();
        out.resize(base + pairs.len(), 0);
        self.distances_write(pairs, &mut out[base..]);
    }

    /// The batch hot loop: writes `pairs[i]`'s distance to `out[i]`.
    /// Indices must already be validated (callers panic on bad input first).
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
            self.compute_block(cur, &mut out[base..base + len]);
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
            let sa = self.raw.offset(words, u);
            let sb = self.raw.offset(words, v);
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
    /// multi-line labels would otherwise stall on their second line).
    #[inline]
    fn compute_block(&self, blk: &PlanBlock, out: &mut [u64]) {
        let slice = self.label_slice();
        let label_words = slice.words();
        for j in 0..out.len() {
            if j + PIPE < out.len() {
                treelab_bits::wordram::prefetch_word(label_words, blk.sa[j + PIPE] / 64 + 1);
                treelab_bits::wordram::prefetch_word(label_words, blk.sb[j + PIPE] / 64 + 1);
            }
            let a = S::label_ref(slice, blk.sa[j], &self.meta);
            let b = S::label_ref(slice, blk.sb[j], &self.meta);
            out[j] = S::distance_refs(a, b);
        }
    }
}

impl<S: StoredScheme> SchemeStore<S> {
    /// Packs a [`PackSource`] directly into a fresh frame under a
    /// [`PackConfig`] — chunk-streaming row materialization and the
    /// optional clustered label layout.  Returns
    /// the plan the source accumulated over the id-order planning pass
    /// (wire-size side tables the schemes harvest), so streaming builds need
    /// not keep rows around.
    ///
    /// The frame is bit-identical at every chunk size and (for the same
    /// layout) build path.
    pub(crate) fn from_source_with<P: PackSource<S>>(
        src: &P,
        cfg: &PackConfig<'_>,
    ) -> (Self, P::Plan) {
        let (words, raw, meta, plan) = build_frame(src, cfg);
        (SchemeStore { words, raw, meta }, plan)
    }

    /// An owned copy of `scheme`'s native frame (one buffer memcpy — the
    /// scheme already *is* a packed frame, so nothing is re-encoded).  Kept
    /// for callers that want a store with its own lifetime; to avoid even
    /// the memcpy, borrow via [`StoredScheme::as_store`] or take the words
    /// with [`SchemeStore::into_words`].
    pub fn build(scheme: &S) -> Self {
        scheme.as_store().clone()
    }

    /// Re-frames this store with the given offset-index width (a clone when
    /// the width already matches).  The meta words, packed label region and
    /// guard pad are copied verbatim; only the version word and the offset
    /// index change, and the CRC is recomputed.
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexOverflow`] if [`IndexWidth::U32`] is requested but
    /// the label region does not fit in 2³² bits, and
    /// [`StoreError::Malformed`] if this frame carries a clustered-layout
    /// permutation and `width` is not [`IndexWidth::Succinct`] (the label
    /// region is packed in layout order, so dropping the permutation would
    /// break the node→label mapping).
    pub fn with_index_width(&self, width: IndexWidth) -> Result<Self, StoreError> {
        if width == self.raw.index.width() {
            return Ok(self.clone());
        }
        let raw = self.raw;
        let n = raw.n;
        if raw.perm_w > 0 && width != IndexWidth::Succinct {
            return Err(StoreError::Malformed {
                what: "a clustered-layout frame requires the succinct offset index",
            });
        }
        if width == IndexWidth::U32 && raw.label_bits > u32::MAX as usize {
            return Err(StoreError::IndexOverflow {
                label_bits: raw.label_bits,
            });
        }
        let m = self.words[4] as usize;
        let meta_words = &self.words[HEADER_WORDS..HEADER_WORDS + m];
        // Label region including the guard pad (everything up to the CRC).
        let label_words = &self.words[raw.label_base..self.words.len() - 1];
        let index_base = HEADER_WORDS + m;
        let pw = usize::from(raw.perm_w);
        let (index_parts, perm_base, label_base) =
            index_layout(n, raw.label_bits, width, pw, index_base);
        let mut words = Vec::with_capacity(label_base + label_words.len() + 1);
        words.push(MAGIC);
        words.push(u64::from(version_of(width)) << 32 | u64::from(S::TAG));
        words.push(n as u64);
        words.push(raw.param);
        words.push(m as u64);
        words.extend_from_slice(meta_words);
        let src_words: &[u64] = &self.words;
        let pos_closure = (pw > 0).then_some(|u: usize| raw.pos(src_words, u) as u64);
        emit_index(
            &mut words,
            n,
            raw.label_bits,
            &|p| raw.offset_at(src_words, p) as u64,
            width,
            pos_closure.as_ref().map(|f| f as &dyn Fn(usize) -> u64),
        );
        debug_assert_eq!(words.len(), label_base);
        words.extend_from_slice(label_words);
        let checksum = crc::crc64_words(&words);
        words.push(checksum);
        Ok(SchemeStore {
            words,
            raw: RawParts {
                label_base,
                index: index_parts,
                perm_base: if pw > 0 { perm_base } else { 0 },
                ..raw
            },
            meta: self.meta,
        })
    }

    /// The persistable byte frame of `scheme` — a copy-free frame handoff:
    /// the scheme's native representation already *is* the frame, so this
    /// only widens the words to little-endian bytes (no label is re-encoded,
    /// no meta is re-measured).
    pub fn serialize(scheme: &S) -> Vec<u8> {
        scheme.as_store().to_bytes()
    }

    /// The frame as bytes (words serialized little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::words_to_bytes(&self.words)
    }

    /// Validates and adopts a frame produced by [`SchemeStore::serialize`] —
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

    /// The borrowed, `Copy`-able view over this store's words.
    #[inline]
    pub fn as_store_ref(&self) -> StoreRef<'_, S> {
        StoreRef {
            words: &self.words,
            raw: self.raw,
            meta: self.meta,
        }
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

    /// Lazy iterator form of [`Store::distances`].
    ///
    /// # Panics
    ///
    /// The returned iterator panics (on `next`) for out-of-range indices.
    pub fn distances_iter<'s, I>(&'s self, pairs: I) -> impl Iterator<Item = u64> + 's
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: 's,
    {
        self.as_store_ref().distances_iter(pairs)
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

    /// Width of the frame's offset-index entries.
    pub fn index_width(&self) -> IndexWidth {
        any_dispatch!(self, r => r.index_width())
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
    /// Panics if either index is out of range.
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> u64 {
        any_dispatch!(self, r => r.distance(u, v))
    }

    /// Batch query: the distance of every pair, in order (one dispatch for
    /// the whole batch).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn distances(&self, pairs: &[(usize, usize)]) -> Vec<u64> {
        any_dispatch!(self, r => r.distances(pairs))
    }

    /// Appends the distance of every pair to `out` (allocation-free when
    /// `out` has capacity; one dispatch for the whole batch).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
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
        let store = SchemeStore::build(&scheme);
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
    fn succinct_index_frames_agree_with_narrow() {
        let (tree, _scheme, narrow) = sample_store();
        // Small stores choose the packed u32 index automatically (version 2),
        // and pinning the width a frame already has is a plain clone.
        assert_eq!(narrow.index_width(), IndexWidth::U32);
        assert_eq!(
            narrow.with_index_width(IndexWidth::U32).unwrap().as_words(),
            narrow.as_words()
        );
        let succ = narrow.with_index_width(IndexWidth::Succinct).unwrap();
        assert_eq!(succ.index_width(), IndexWidth::Succinct);
        // Version-3 frames round-trip through bytes bit-exactly...
        let back = SchemeStore::<NaiveScheme>::from_bytes(&succ.to_bytes()).unwrap();
        assert_eq!(back.as_words(), succ.as_words());
        // ...answer identically to the packed-u32 frame...
        let n = tree.len();
        for i in 0..300usize {
            let (u, v) = ((i * 31) % n, (i * 87 + 5) % n);
            assert_eq!(back.distance(u, v), narrow.distance(u, v), "({u},{v})");
            assert_eq!(back.label_bits(u), narrow.label_bits(u), "bits {u}");
        }
        // ...and re-narrowing reproduces the original frame word for word,
        // tying the succinct emitter to the packed emitter in both
        // directions.
        assert_eq!(
            back.with_index_width(IndexWidth::U32).unwrap().as_words(),
            narrow.as_words()
        );
        // The succinct index undercuts the packed u32 index on real frames.
        assert!(succ.size_bytes() < narrow.size_bytes());
        // Runtime dispatch serves version-3 frames too.
        let any = AnyStoreRef::from_words(succ.as_words()).unwrap();
        assert_eq!(any.distance(3, 119), narrow.distance(3, 119));
    }

    #[test]
    fn oversized_label_region_is_a_typed_error() {
        // The u32 index caps the label region at 2³² bits; the width lift
        // turned the historical assert into a typed, recoverable error.
        let (_, _, store) = sample_store();
        let mut succ = store.with_index_width(IndexWidth::Succinct).unwrap();
        succ.raw.label_bits = u32::MAX as usize + 1;
        let err = succ.with_index_width(IndexWidth::U32).unwrap_err();
        assert_eq!(
            err,
            StoreError::IndexOverflow {
                label_bits: u32::MAX as usize + 1
            }
        );
        assert!(err.to_string().contains("does not fit"));
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
        let lazy: Vec<u64> = store.distances_iter(pairs.iter().copied()).collect();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let expect = scheme.distance(tree.node(u), tree.node(v));
            assert_eq!(store.distance(u, v), expect, "({u},{v})");
            assert_eq!(batch[i], expect, "batch ({u},{v})");
            assert_eq!(lazy[i], expect, "iter ({u},{v})");
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
        unknown[1] = (u64::from(VERSION_NARROW) << 32) | 0xBEEF;
        let last = unknown.len() - 1;
        unknown[last] = crc::crc64_words(&unknown[..last]);
        assert!(matches!(
            AnyStoreRef::from_words(&unknown),
            Err(StoreError::UnknownScheme { found: 0xBEEF })
        ));
        // Errors display something useful.
        assert!(StoreError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(StoreError::Misaligned { offset: 3 }
            .to_string()
            .contains("3"));
    }

    #[test]
    fn inflated_pushed_field_is_rejected_at_load() {
        // The optimal scheme's packed `pushed` field occupies 7 bits (values
        // up to 127), but the query protocol shifts by `64 − pushed`: a
        // CRC-consistent crafted frame claiming pushed > 64 must be rejected
        // by the load-time per-label checks.
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
                let start = raw.offset(words, u);
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
        let start = raw.offset(words, u);
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
        assert!(matches!(
            SchemeStore::<OptimalScheme>::from_words(crafted),
            Err(StoreError::Malformed { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_rejects_out_of_range_pairs() {
        let (_, _, store) = sample_store();
        store.distances(&[(0, 1), (0, 10_000)]);
    }
}
