//! Forest store: many trees' scheme frames packed behind one directory, with
//! lazy per-tree validation, generation-worded hot mutation, and a routed,
//! shardable batch query engine — the serving layer of the store stack.
//!
//! # Why
//!
//! A production labeling service rarely serves *one* tree: it serves a corpus
//! — thousands of trees, each built once into a [`SchemeStore`] frame — and
//! answers routed queries of the form *(tree, u, v)*.  The forest store packs
//! any mix of per-tree frames (the schemes may differ tree to tree) into one
//! contiguous `TLFRST01` super-frame.  The current directory format (v2):
//!
//! ```text
//! word 0        magic "TLFRST01"
//! word 1        format version, 2 (high 32) | reserved, must be 0 (low 32)
//! word 2        T — used directory slots (live + tombstoned trees)
//! word 3        C — directory capacity (high 32) | reserved, must be 0
//! word 4        generation (incremented by every published mutation)
//! 5 .. 5+4C     directory: T used records sorted by tree id, then C−T
//!               all-zero spare slots; one 4-word record per tree:
//!                 word 0  tree id
//!                 word 1  frame offset (words, from the forest frame start)
//!                 word 2  frame length (words)
//!                 word 3  scheme tag (high 32) | label count n (low 32)
//!                         — tag 0 marks the record as a tombstone
//! ..            the inner frames, each a complete TLSTOR01 frame, tiling
//!               the region between directory and checksum exactly (in file
//!               offset order, which after appends is not slot order)
//! last word     CRC-64/XZ of the header and directory words only — the
//!               inner frames carry their own checksums
//! ```
//!
//! Format v1 (three header words, C = T, no generation, whole-frame CRC) is
//! still read; `FORMAT.md` at the repository root specifies both bit for bit.
//!
//! # Validation policy: eager or lazy
//!
//! Every open path takes a [`ValidationPolicy`].  **Eager** (the default, and
//! the only behavior before the policy knob existed) validates the outer
//! frame, the directory, and every inner frame up front, so a successful
//! open proves the whole file.  **Lazy** validates only the header and
//! directory (including the directory checksum on v2 frames) and defers each
//! inner frame to its first `tree(id)` touch: a forest with one corrupt tree
//! still opens and serves every other tree, and the corrupt one fails on
//! first touch with the *same* [`ForestError::Tree`] the eager open would
//! have reported.  The per-tree validation verdict is cached, so every touch
//! after the first is O(1) and allocation-free, and [`ForestRef::verify`] /
//! [`ForestRef::verify_chunked`] can retrofit full eager coverage (e.g. from
//! a background thread, a budgeted chunk at a time) without reopening.
//!
//! Lazy opens are what make restart latency O(directory) instead of O(file):
//! experiment E14 (`cargo run --release -p treelab-bench --bin experiments
//! --features mmap -- --restart`) measures the gap.
//!
//! # Hot mutation and generations
//!
//! [`ForestStore`] is mutable while serving: [`ForestStore::append_scheme`]
//! adds a tree (frames land at the end of the frame region; the directory
//! record splices into id order, using a spare slot when one is reserved),
//! [`ForestStore::tombstone`] retires one by zeroing its record's scheme tag
//! — both in place, without rewriting any other frame, and both bump the
//! directory **generation word**.  Readers that need a stable view across
//! mutations take a [`ForestPin`]: an O(1) snapshot (buffer sharing via
//! [`Arc`], copy-on-write only if a mutation lands while pins are out) that
//! keeps answering from its generation forever.  [`ForestStore::publish`]
//! persists crash-safely: write to a `.tmp` sibling, fsync, then atomically
//! rename over the destination, so a reader never observes a half-written
//! frame and a crash leaves at worst a stale temp file that the next publish
//! removes.
//!
//! With the off-by-default `mmap` feature, `ForestStore::open_mmap` serves
//! a published file in place through a raw-syscall `frame::Mmap` — combined
//! with [`ValidationPolicy::Lazy`], a restart touches only the directory
//! pages before the first query.
//!
//! # The routed batch engine
//!
//! [`ForestRef::try_route_distances_into`] is the one routed engine.  It
//! takes a batch of `(tree, u, v)` queries in *arrival order*, resolves each
//! id by binary search over a dense id array, groups the queries by tree,
//! drives each group through the scheme's allocation-free batch path (one
//! runtime dispatch per *group*, not per query, and each tree's frame stays
//! cache-resident for its whole group), and scatters the answers back to
//! arrival order as one [`QueryStatus`] per query — the output is
//! deterministic and independent of grouping.  Grouping is a stable counting
//! sort over only the directory slots the batch touches (collected, sorted,
//! and their counters re-zeroed afterwards), so a batch of q queries over G
//! distinct trees costs O(q log T + G log G) for T trees: the directory size
//! enters only through the id search, never through a pass over all slots.
//! Before the groups run, one look-ahead pass prefetches the first label
//! line of each group's first query, so when groups hold about one query
//! each their label misses overlap instead of running one after another.
//!
//! The caller's [`RouteScratch`] holds all of that state across batches, so
//! a serving loop allocates nothing per batch, and it picks the path:
//! [`RouteScratch::new`] routes on the calling thread, while
//! [`RouteScratch::with_parallelism`] fans independent tree groups out over
//! [`std::thread::scope`] workers (never more workers than groups) behind
//! the same [`Parallelism`] knob the builders use, with bit-identical output
//! for every thread count.  [`ForestRef::try_route_distances_sharded`] is
//! the one-shot form over a fresh scratch.
//!
//! # Self-healing: fallible routing, quarantine, repair, scrubbing
//!
//! The engine is fallible by design — a socket-facing serving loop cannot
//! treat a bad query as a caller bug.  Each query's [`QueryStatus`] is
//! `Ok(distance)`, `UnknownTree`, `NodeOutOfRange`, or `CorruptTree`, and
//! nothing on query input or corrupt tree data panics.  Healthy tree groups
//! complete even when others fail: each group (serial) or shard (sharded)
//! runs its query kernel under [`std::panic::catch_unwind`], so a kernel
//! that trips over rotted label data degrades only its own group or shard
//! to `CorruptTree`.
//!
//! Damage found at runtime is **quarantined**, not just reported: a failed
//! first-touch validation or a scrubber-detected fault condemns the slot, so
//! every later read answers an error ([`ForestError::Tree`]) or a
//! `CorruptTree` status until [`ForestStore::repair_frame`] /
//! [`ForestStore::repair_scheme`] splices a caller-supplied replacement
//! frame (a rebuild or a replica) over the damaged extent under a fresh
//! generation.  [`ForestRef::health`] reports every slot's state machine
//! position (`Unvalidated → Valid | Quarantined → Valid`, any `→
//! Tombstoned`; also specified in `FORMAT.md`), and a [`Scrubber`] driven
//! from the serving loop ([`ForestRef::scrub`], a words-per-call budget)
//! re-validates every live frame from its bytes pass after pass — settling
//! lazily-deferred slots before queries touch them and catching rot that
//! lands *after* a slot validated, which `verify`'s cached verdicts cannot.
//!
//! # Panic policy
//!
//! Everything reachable from **untrusted input** — file bytes, query
//! arguments — reports typed errors or statuses: every open/parse path
//! returns [`ForestError`], per-tree reads go through
//! [`ForestRef::try_tree`], and routed serving reports a [`QueryStatus`] per
//! query.  The panics that remain are, by policy:
//!
//! * internal invariants that cannot be reached through validated state
//!   (e.g. a routed group whose verdict vanished, a mapped frame whose
//!   alignment was proven at open);
//! * capacity bounds (≥ 2³² directory slots or queries per batch) and the
//!   test-only [`ForestStore::corrupt_word`] targeting hook.
//!
//! # Example
//!
//! ```
//! use treelab_core::forest::{ForestStore, QueryStatus, RouteScratch, ValidationPolicy};
//! use treelab_core::naive::NaiveScheme;
//! use treelab_core::level_ancestor::LevelAncestorScheme;
//! use treelab_core::DistanceScheme;
//! use treelab_tree::gen;
//!
//! // Two trees, two different schemes, one frame.
//! let t0 = gen::random_tree(120, 1);
//! let t1 = gen::random_tree(80, 2);
//! let mut b = ForestStore::builder();
//! b.push_scheme(7, &NaiveScheme::build(&t0)).unwrap();
//! b.push_scheme(9, &LevelAncestorScheme::build(&t1)).unwrap();
//! let mut forest = b.finish().unwrap();
//!
//! // Routed batch: tree ids in arrival order, statuses in arrival order.
//! let mut scratch = RouteScratch::new(); // reuse it across batches
//! let mut d = Vec::new();
//! let queries = [(9, 3, 70), (7, 0, 119), (9, 0, 0), (8, 0, 0)];
//! let outcome = forest.try_route_distances_into(&queries, &mut scratch, &mut d);
//! assert_eq!(d[0], QueryStatus::Ok(forest.tree(9).unwrap().distance(3, 70)));
//! assert_eq!(d[1], QueryStatus::Ok(forest.tree(7).unwrap().distance(0, 119)));
//! assert_eq!(d[2], QueryStatus::Ok(0));
//! assert_eq!(d[3], QueryStatus::UnknownTree);
//! assert_eq!(outcome.degraded(), 1);
//!
//! // Mutate while serving: a pin keeps the pre-mutation view alive.
//! let pin = forest.pin();
//! forest.tombstone(7).unwrap();
//! assert!(forest.tree(7).is_none() && pin.tree(7).is_some());
//! assert_eq!(forest.generation(), pin.generation() + 1);
//!
//! // The frame round-trips through bytes like any store — eagerly or lazily.
//! let bytes = forest.to_bytes();
//! let back = ForestStore::from_bytes_with(&bytes, ValidationPolicy::Lazy).unwrap();
//! assert_eq!(back.as_words(), forest.as_words());
//! ```

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use treelab_bits::crc::{self, Crc64};
use treelab_bits::frame;

use crate::store::{AnyParts, AnyStoreRef, BatchPlan, SchemeStore, StoreError, StoredScheme};
use crate::substrate::Parallelism;

/// `b"TLFRST01"` as a little-endian word.
const FOREST_MAGIC: u64 = u64::from_le_bytes(*b"TLFRST01");

/// The original forest format: 3 header words, capacity = tree count, no
/// generation, whole-frame CRC.
const FOREST_VERSION_V1: u32 = 1;

/// The current forest format: 5 header words (capacity + generation),
/// tombstones, spare slots, header+directory CRC.
const FOREST_VERSION_V2: u32 = 2;

/// Words before the directory in a v1 frame.
const V1_HEADER_WORDS: usize = 3;

/// Words before the directory in a v2 frame.
const V2_HEADER_WORDS: usize = 5;

/// Words per directory record.
const DIR_ENTRY_WORDS: usize = 4;

/// How much of a forest frame an open path proves before returning.
///
/// The header and directory (including, on v2 frames, the directory
/// checksum) are **always** validated eagerly — the policy only governs the
/// inner per-tree frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValidationPolicy {
    /// Validate every inner frame at open: a successful open proves the
    /// whole file (v1 frames additionally get their whole-frame CRC
    /// checked).  This is the default and the historical behavior.
    #[default]
    Eager,
    /// Defer each inner frame to its first `tree(id)` touch; the verdict is
    /// cached per tree, and a corrupt tree reports the same
    /// [`ForestError::Tree`] the eager open would have.  Open cost is
    /// O(directory), not O(file) — see `verify_chunked` for retrofitting
    /// full coverage in the background.
    Lazy,
}

/// Error returned when a forest frame fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ForestError {
    /// The outer frame is not a valid forest frame (magic, version,
    /// truncation, checksum, misalignment).
    Frame(StoreError),
    /// The directory is structurally invalid (duplicate ids, overlapping or
    /// out-of-range extents, disagreement with an inner frame).
    Directory {
        /// Human-readable description of the violated expectation.
        what: &'static str,
    },
    /// One tree's inner frame failed its own validation.
    Tree {
        /// The directory id of the offending tree.
        id: u64,
        /// The inner frame's error.
        error: StoreError,
    },
    /// A lookup or mutation named a tree the forest does not hold (absent
    /// id, or a tombstoned one).
    UnknownTree {
        /// The id that resolved to no live tree.
        id: u64,
    },
    /// An append (at build time or on a live store) reused a tree id that
    /// the directory already holds — including tombstoned ids, which are
    /// never resurrected.
    DuplicateTree {
        /// The id that was pushed twice.
        id: u64,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::Frame(e) => write!(f, "forest frame: {e}"),
            ForestError::Directory { what } => write!(f, "malformed forest directory: {what}"),
            ForestError::Tree { id, error } => write!(f, "forest tree {id}: {error}"),
            ForestError::UnknownTree { id } => write!(f, "no tree with id {id} in the forest"),
            ForestError::DuplicateTree { id } => {
                write!(f, "tree id {id} is already in the forest")
            }
        }
    }
}

impl std::error::Error for ForestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ForestError::Frame(e) | ForestError::Tree { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<frame::CastError> for ForestError {
    fn from(e: frame::CastError) -> Self {
        ForestError::Frame(e.into())
    }
}

/// Error returned by the forest file helpers ([`ForestStore::open`],
/// [`ForestStore::publish`], [`ForestBuilder::write_to`]): either the I/O
/// failed or the bytes read are not a valid forest frame.
#[derive(Debug)]
pub enum ForestFileError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file's contents failed forest-frame validation.
    Forest(ForestError),
}

impl fmt::Display for ForestFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestFileError::Io(e) => write!(f, "forest file I/O: {e}"),
            ForestFileError::Forest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ForestFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ForestFileError::Io(e) => Some(e),
            ForestFileError::Forest(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ForestFileError {
    fn from(e: std::io::Error) -> Self {
        ForestFileError::Io(e)
    }
}

impl From<ForestError> for ForestFileError {
    fn from(e: ForestError) -> Self {
        ForestFileError::Forest(e)
    }
}

/// One decoded directory record.  `tag == 0` marks a tombstone (v2 only):
/// the extent still tiles the frame region, but the tree is gone.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    id: u64,
    off: usize,
    len: usize,
    tag: u32,
    n: u32,
}

/// A directory record plus its lazily-computed validation verdict: the inner
/// frame's parse (cached [`AnyParts`], so views materialize in O(1)) or the
/// error its first touch produced.  Both are `Copy`, so replaying a cached
/// verdict never allocates.
///
/// `quarantine` is the one piece of slot state that can change *after* the
/// verdict settles: the scrubber re-reads every frame word on every pass, so
/// a tree that validated once and rotted afterwards is flagged here.  A set
/// quarantine overrides a cached `Ok` verdict on every later touch — the
/// slot answers [`ForestError::Tree`] until [`ForestStore::repair_frame`]
/// replaces its frame.
#[derive(Debug, Clone)]
struct TreeSlot {
    entry: DirEntry,
    state: OnceLock<Result<AnyParts, StoreError>>,
    quarantine: OnceLock<StoreError>,
}

impl TreeSlot {
    fn new(entry: DirEntry) -> Self {
        TreeSlot {
            entry,
            state: OnceLock::new(),
            quarantine: OnceLock::new(),
        }
    }

    /// The error this slot is currently condemned by, if any: an explicit
    /// quarantine (post-validation rot found by the scrubber) or a cached
    /// first-touch validation failure.
    fn condemned(&self) -> Option<StoreError> {
        self.quarantine
            .get()
            .copied()
            .or_else(|| self.state.get().and_then(|v| v.err()))
    }
}

/// Everything a serving view knows beyond the raw words: decoded header
/// fields, the policy it was opened under, and the per-tree state table.
#[derive(Debug, Clone)]
struct ForestState {
    version: u32,
    capacity: usize,
    generation: u64,
    policy: ValidationPolicy,
    live: usize,
    slots: Vec<TreeSlot>,
    /// `slots[i].entry.id` for every slot, densely: the id→slot binary
    /// search probes 8-byte keys instead of kilobyte-sized slots.  Only
    /// `parse_forest` and `append_frame` change the id set.
    ids: Vec<u64>,
}

impl ForestState {
    fn header_words(&self) -> usize {
        if self.version == FOREST_VERSION_V1 {
            V1_HEADER_WORDS
        } else {
            V2_HEADER_WORDS
        }
    }

    /// First word past the directory — also the end of the outer-checksum
    /// coverage on v2 frames.
    fn dir_end(&self) -> usize {
        self.header_words() + DIR_ENTRY_WORDS * self.capacity
    }
}

/// One full validation of the inner frame behind directory entry `e`:
/// the store-level parse (magic, version, CRC, offsets) plus the
/// directory/frame cross-check.  This is *the* verdict — `validate_slot`
/// caches its first run, and the scrubber re-runs it fresh on every pass so
/// the two can never disagree on what "valid" means.
fn check_inner(words: &[u64], e: DirEntry) -> Result<AnyParts, StoreError> {
    let view = AnyStoreRef::from_words(&words[e.off..e.off + e.len])?;
    if view.tag() != e.tag || view.node_count() as u64 != u64::from(e.n) {
        return Err(StoreError::Malformed {
            what: "directory scheme tag / label count disagrees with the inner frame",
        });
    }
    Ok(view.parts())
}

/// Validates the inner frame of `slot` on first call and caches the verdict;
/// every later call borrows the cached result without allocating or
/// copying.  A quarantined slot (rot found by the scrubber after validation)
/// fails here too, so no read path — `tree`, `try_tree`, routing, `verify` —
/// can serve a tree the scrubber has condemned.
fn validate_slot<'s>(words: &[u64], slot: &'s TreeSlot) -> Result<&'s AnyParts, ForestError> {
    let e = slot.entry;
    if let Some(&error) = slot.quarantine.get() {
        return Err(ForestError::Tree { id: e.id, error });
    }
    match slot.state.get_or_init(|| check_inner(words, e)) {
        Ok(parts) => Ok(parts),
        &Err(error) => Err(ForestError::Tree { id: e.id, error }),
    }
}

/// Directory position of `id`, tombstoned or not — or, as `Err`, the
/// position an append of `id` would take.  Every id→slot search goes
/// through here, over the dense id array.
fn lookup_slot(state: &ForestState, id: u64) -> Result<usize, usize> {
    state.ids.binary_search(&id)
}

/// The borrowed store view of live tree `id`, validating its frame on first
/// touch under the lazy policy.
fn try_view<'a>(
    words: &'a [u64],
    state: &ForestState,
    id: u64,
) -> Result<AnyStoreRef<'a>, ForestError> {
    let slot = lookup_slot(state, id)
        .ok()
        .filter(|&s| state.slots[s].entry.tag != 0)
        .ok_or(ForestError::UnknownTree { id })?;
    let slot = &state.slots[slot];
    let parts = *validate_slot(words, slot)?;
    let e = slot.entry;
    Ok(AnyStoreRef::from_parts(&words[e.off..e.off + e.len], parts))
}

/// Validates an assembled forest frame (v1 or v2) under `policy` and decodes
/// its directory into a [`ForestState`].
fn parse_forest(words: &[u64], policy: ValidationPolicy) -> Result<ForestState, ForestError> {
    let min_words = V1_HEADER_WORDS + DIR_ENTRY_WORDS + 2;
    if words.len() < min_words {
        return Err(ForestError::Frame(StoreError::Truncated {
            expected: min_words * 8,
            found: words.len() * 8,
        }));
    }
    if words[0] != FOREST_MAGIC {
        return Err(ForestError::Frame(StoreError::BadMagic));
    }
    let version = (words[1] >> 32) as u32;
    if version != FOREST_VERSION_V1 && version != FOREST_VERSION_V2 {
        return Err(ForestError::Frame(StoreError::UnsupportedVersion {
            found: version,
        }));
    }
    if words[1] as u32 != 0 {
        return Err(ForestError::Directory {
            what: "reserved header field is not zero",
        });
    }
    // v1 is checksummed whole-frame: the eager path proves it before looking
    // at the directory (the historical order).  The lazy path skips it — use
    // `verify`/`verify_chunked` to retrofit — because paying a full-file
    // scan up front is exactly what the lazy policy exists to avoid.
    if version == FOREST_VERSION_V1 && policy == ValidationPolicy::Eager {
        let (body, checksum) = words.split_at(words.len() - 1);
        if crc::crc64_words(body) != checksum[0] {
            return Err(ForestError::Frame(StoreError::ChecksumMismatch));
        }
    }
    let header_words = if version == FOREST_VERSION_V1 {
        V1_HEADER_WORDS
    } else {
        let v2_min = V2_HEADER_WORDS + DIR_ENTRY_WORDS + 2;
        if words.len() < v2_min {
            return Err(ForestError::Frame(StoreError::Truncated {
                expected: v2_min * 8,
                found: words.len() * 8,
            }));
        }
        V2_HEADER_WORDS
    };
    let t = words[2];
    if t == 0 {
        return Err(ForestError::Directory {
            what: "forest holds no trees",
        });
    }
    let (capacity, generation) = if version == FOREST_VERSION_V1 {
        (t, 0)
    } else {
        if words[3] as u32 != 0 {
            return Err(ForestError::Directory {
                what: "reserved header field is not zero",
            });
        }
        let capacity = words[3] >> 32;
        if t > capacity {
            return Err(ForestError::Directory {
                what: "directory uses more slots than its capacity",
            });
        }
        (capacity, words[4])
    };
    let dir_end = (header_words as u64)
        .checked_add(capacity.checked_mul(DIR_ENTRY_WORDS as u64).ok_or(
            ForestError::Directory {
                what: "tree count overflows the directory size",
            },
        )?)
        .filter(|&x| x < (words.len() - 1) as u64)
        .ok_or(ForestError::Directory {
            what: "directory claims more records than the buffer holds",
        })? as usize;
    let t = t as usize;
    let capacity = capacity as usize;

    // The v2 checksum covers exactly the header + directory, and is checked
    // under *both* policies: lazy opens still prove the routing metadata
    // (the inner frames carry their own CRCs).
    if version == FOREST_VERSION_V2 && crc::crc64_words(&words[..dir_end]) != words[words.len() - 1]
    {
        return Err(ForestError::Frame(StoreError::ChecksumMismatch));
    }

    let mut slots: Vec<TreeSlot> = Vec::with_capacity(t);
    let mut live = 0usize;
    // v2 extents tile in file-offset order, which after appends differs from
    // slot (id) order; collect and sort to check.  v1 requires slot order.
    let mut extents: Vec<(usize, usize)> = Vec::new();
    let mut expected_off = dir_end;
    for rec in 0..t {
        let base = header_words + rec * DIR_ENTRY_WORDS;
        let id = words[base];
        if rec > 0 && slots[rec - 1].entry.id >= id {
            return Err(ForestError::Directory {
                what: "tree ids are not strictly increasing (duplicate or unsorted)",
            });
        }
        let off = words[base + 1];
        let len = words[base + 2];
        let end = off
            .checked_add(len)
            .filter(|&e| e <= (words.len() - 1) as u64);
        if len == 0 || off < dir_end as u64 || end.is_none() {
            return Err(ForestError::Directory {
                what: "a frame extent runs past the end of the buffer",
            });
        }
        let tag = (words[base + 3] >> 32) as u32;
        let n = words[base + 3] as u32;
        if tag == 0 {
            if version == FOREST_VERSION_V1 {
                return Err(ForestError::Directory {
                    what: "tombstones require directory format v2",
                });
            }
        } else {
            live += 1;
        }
        let (off, len) = (off as usize, len as usize);
        if version == FOREST_VERSION_V1 {
            if off != expected_off {
                return Err(ForestError::Directory {
                    what: "a frame extent does not start where the previous one ended \
                           (overlapping, out-of-order or gapped directory)",
                });
            }
            expected_off = off + len;
        } else {
            extents.push((off, len));
        }
        slots.push(TreeSlot::new(DirEntry {
            id,
            off,
            len,
            tag,
            n,
        }));
    }
    if version == FOREST_VERSION_V2 {
        for rec in t..capacity {
            let base = header_words + rec * DIR_ENTRY_WORDS;
            if words[base..base + DIR_ENTRY_WORDS].iter().any(|&w| w != 0) {
                return Err(ForestError::Directory {
                    what: "a spare directory slot is not zeroed",
                });
            }
        }
        extents.sort_unstable();
        for &(off, len) in &extents {
            if off != expected_off {
                return Err(ForestError::Directory {
                    what: "a frame extent does not start where the previous one ended \
                           (overlapping, out-of-order or gapped directory)",
                });
            }
            expected_off = off + len;
        }
    }
    if expected_off != words.len() - 1 {
        return Err(ForestError::Directory {
            what: "inner frames do not tile the region before the checksum exactly",
        });
    }

    let ids = slots.iter().map(|s| s.entry.id).collect();
    let state = ForestState {
        version,
        capacity,
        generation,
        policy,
        live,
        slots,
        ids,
    };
    if policy == ValidationPolicy::Eager {
        for slot in &state.slots {
            if slot.entry.tag != 0 {
                validate_slot(words, slot)?;
            }
        }
    }
    Ok(state)
}

/// Full verification of a view, whatever policy it was opened under: the
/// outer checksum (whole frame on v1, header + directory on v2) plus every
/// live inner frame — forcing and caching any validation the lazy policy
/// deferred.
fn verify_impl(words: &[u64], state: &ForestState) -> Result<(), ForestError> {
    let crc_end = if state.version == FOREST_VERSION_V1 {
        words.len() - 1
    } else {
        state.dir_end()
    };
    if crc::crc64_words(&words[..crc_end]) != words[words.len() - 1] {
        return Err(ForestError::Frame(StoreError::ChecksumMismatch));
    }
    for slot in &state.slots {
        if slot.entry.tag != 0 {
            validate_slot(words, slot)?;
        }
    }
    Ok(())
}

/// Resumable progress through a [`verify_chunked`](ForestRef::verify_chunked)
/// pass: the streaming outer-checksum state, then a cursor over the live
/// directory slots.  One cursor belongs to one frame snapshot — start a
/// fresh cursor after any mutation (a pinned view is the natural target).
#[derive(Debug)]
pub struct VerifyCursor {
    crc: Crc64,
    pos: usize,
    crc_checked: bool,
    slot: usize,
    done: bool,
}

impl VerifyCursor {
    /// A cursor at the start of the frame.
    pub fn new() -> Self {
        VerifyCursor {
            crc: Crc64::new(),
            pos: 0,
            crc_checked: false,
            slot: 0,
            done: false,
        }
    }

    /// `true` once a `verify_chunked` pass driven by this cursor has covered
    /// the whole frame.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl Default for VerifyCursor {
    fn default() -> Self {
        Self::new()
    }
}

/// One budgeted step of a full verification: absorbs up to `budget_words`
/// of outer-checksum input and/or inner-frame validation, making progress on
/// every call.  Returns `Ok(true)` when the frame is fully verified.
fn verify_chunked_impl(
    words: &[u64],
    state: &ForestState,
    budget_words: usize,
    cursor: &mut VerifyCursor,
) -> Result<bool, ForestError> {
    if cursor.done {
        return Ok(true);
    }
    let mut budget = budget_words.max(1);
    let crc_end = if state.version == FOREST_VERSION_V1 {
        words.len() - 1
    } else {
        state.dir_end()
    };
    while cursor.pos < crc_end && budget > 0 {
        let take = budget.min(crc_end - cursor.pos);
        cursor
            .crc
            .update_words(&words[cursor.pos..cursor.pos + take]);
        cursor.pos += take;
        budget -= take;
    }
    if cursor.pos < crc_end {
        return Ok(false);
    }
    if !cursor.crc_checked {
        if cursor.crc.finish() != words[words.len() - 1] {
            return Err(ForestError::Frame(StoreError::ChecksumMismatch));
        }
        cursor.crc_checked = true;
    }
    while cursor.slot < state.slots.len() {
        if budget == 0 {
            return Ok(false);
        }
        let slot = &state.slots[cursor.slot];
        cursor.slot += 1;
        if slot.entry.tag != 0 {
            validate_slot(words, slot)?;
            budget = budget.saturating_sub(slot.entry.len);
        }
    }
    cursor.done = true;
    Ok(true)
}

/// The per-query verdict of the routed engine
/// ([`ForestRef::try_route_distances_into`]), in arrival order: the answer,
/// or why there is none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryStatus {
    /// The routed distance.
    Ok(u64),
    /// The queried tree id is absent from the directory or tombstoned.
    UnknownTree,
    /// A node index is `>= n` for the queried tree.
    NodeOutOfRange,
    /// The queried tree's frame failed validation — at first touch, under
    /// quarantine after a scrub found rot, or because the query kernel of
    /// its group (serial) or shard (sharded) panicked on corrupt label data.
    CorruptTree,
}

impl QueryStatus {
    /// The distance, when the query was answered.
    pub fn ok(self) -> Option<u64> {
        match self {
            QueryStatus::Ok(d) => Some(d),
            _ => None,
        }
    }

    /// `true` when the query was answered.
    pub fn is_ok(self) -> bool {
        matches!(self, QueryStatus::Ok(_))
    }
}

/// Per-batch tally of a fallible routed run: how many queries landed in each
/// [`QueryStatus`] bucket.  `degraded()` is the serving-loop health signal
/// (everything that did not come back `Ok`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Queries answered with a distance.
    pub ok: usize,
    /// Queries naming an absent or tombstoned tree id.
    pub unknown_tree: usize,
    /// Queries with a node index out of range for their tree.
    pub out_of_range: usize,
    /// Queries routed to a corrupt (validation-failed or quarantined) tree.
    pub corrupt: usize,
}

impl RouteOutcome {
    /// Total queries in the batch.
    pub fn total(&self) -> usize {
        self.ok + self.unknown_tree + self.out_of_range + self.corrupt
    }

    /// Queries that did **not** come back `Ok` — the degraded-query counter
    /// the tentpole scrubbing loop reports.
    pub fn degraded(&self) -> usize {
        self.total() - self.ok
    }

    /// `true` when every query was answered.
    pub fn all_ok(&self) -> bool {
        self.degraded() == 0
    }

    fn count(&mut self, status: QueryStatus) {
        match status {
            QueryStatus::Ok(_) => self.ok += 1,
            QueryStatus::UnknownTree => self.unknown_tree += 1,
            QueryStatus::NodeOutOfRange => self.out_of_range += 1,
            QueryStatus::CorruptTree => self.corrupt += 1,
        }
    }
}

/// The serving state of one directory slot, as reported by
/// [`ForestRef::health`](ForestRef::health) / `slot_health`.
///
/// The lifecycle (also in `FORMAT.md`):
/// `Unvalidated → Valid | Quarantined`, `Valid → Quarantined` (scrub finds
/// post-validation rot), `Quarantined → Valid` (via
/// [`ForestStore::repair_frame`], under a fresh generation), any `→
/// Tombstoned` (terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotHealth {
    /// Lazily-deferred: the inner frame has not been touched yet.
    Unvalidated,
    /// Validated and serving.
    Valid,
    /// Condemned: first-touch validation failed, or the scrubber found rot
    /// after validation.  Every query answers `CorruptTree` / an error until
    /// the slot is repaired.
    Quarantined(StoreError),
    /// Retired via [`ForestStore::tombstone`]; lookups report
    /// [`ForestError::UnknownTree`].
    Tombstoned,
}

/// Slot-state tallies of a [`HealthReport`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HealthCounts {
    /// Live slots whose deferred validation has not run yet.
    pub unvalidated: usize,
    /// Live slots validated and serving.
    pub valid: usize,
    /// Live slots condemned by validation or the scrubber.
    pub quarantined: usize,
    /// Tombstoned slots.
    pub tombstoned: usize,
}

/// A point-in-time health snapshot of every directory slot — the tentpole
/// `health()` report.  Quarantined ids are the repair worklist:
/// feed [`HealthReport::quarantined`] to [`ForestStore::repair_frame`].
#[derive(Debug, Clone)]
pub struct HealthReport {
    slots: Vec<(u64, SlotHealth)>,
}

impl HealthReport {
    /// Every directory slot's `(id, health)`, in directory (id) order.
    pub fn slots(&self) -> &[(u64, SlotHealth)] {
        &self.slots
    }

    /// The quarantined tree ids, in id order — the repair worklist.
    pub fn quarantined(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .filter(|(_, h)| matches!(h, SlotHealth::Quarantined(_)))
            .map(|&(id, _)| id)
    }

    /// Per-state tallies.
    pub fn counts(&self) -> HealthCounts {
        let mut c = HealthCounts::default();
        for (_, h) in &self.slots {
            match h {
                SlotHealth::Unvalidated => c.unvalidated += 1,
                SlotHealth::Valid => c.valid += 1,
                SlotHealth::Quarantined(_) => c.quarantined += 1,
                SlotHealth::Tombstoned => c.tombstoned += 1,
            }
        }
        c
    }

    /// `true` when no live slot is quarantined.
    pub fn all_serving(&self) -> bool {
        self.counts().quarantined == 0
    }
}

fn slot_health_of(slot: &TreeSlot) -> SlotHealth {
    if slot.entry.tag == 0 {
        SlotHealth::Tombstoned
    } else if let Some(error) = slot.condemned() {
        SlotHealth::Quarantined(error)
    } else if slot.state.get().is_some() {
        SlotHealth::Valid
    } else {
        SlotHealth::Unvalidated
    }
}

fn health_impl(state: &ForestState) -> HealthReport {
    HealthReport {
        slots: state
            .slots
            .iter()
            .map(|s| (s.entry.id, slot_health_of(s)))
            .collect(),
    }
}

/// Lifetime counters of a [`Scrubber`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubStats {
    /// Frame words re-read and re-checked (outer-checksum streaming plus
    /// inner-frame re-validation), across all passes.
    pub words_scrubbed: u64,
    /// Slots newly quarantined by this scrubber.
    pub faults_found: u64,
    /// Lazily-deferred slots whose verdict this scrubber settled before any
    /// query touched them.
    pub slots_settled: u64,
    /// Full passes over the frame completed.
    pub passes_completed: u64,
    /// Pass restarts forced by a generation change mid-pass.
    pub restarts: u64,
}

/// What one [`scrub`](ForestRef::scrub) call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// The budget ran out mid-pass; call again to continue.
    InProgress,
    /// A live inner frame failed its fresh re-validation and was quarantined
    /// (its id and the error are also visible via `health()`).  The pass
    /// continues past it on the next call.
    Fault {
        /// The condemned tree.
        id: u64,
        /// What the re-validation found.
        error: StoreError,
    },
    /// The pass covered the whole frame: outer checksum verified, every live
    /// slot freshly re-validated.
    PassComplete,
}

/// A budgeted background scrubber: resumable progress through repeated full
/// passes over one forest view, re-reading every frame word fresh each pass.
///
/// Where [`verify_chunked`](ForestRef::verify_chunked) *settles* each slot
/// once (replaying cached verdicts thereafter), the scrubber **re-validates
/// every live inner frame from its bytes on every pass** — so label rot that
/// lands *after* a slot validated is still found, quarantined, and kept away
/// from queries.  Drive it from the serving loop with a words-per-call
/// budget; one scrubber belongs to one view, and a generation change (append
/// / tombstone / repair on the owning store) restarts the pass automatically.
#[derive(Debug, Default)]
pub struct Scrubber {
    cursor: VerifyCursor,
    generation: Option<u64>,
    stats: ScrubStats,
}

impl Scrubber {
    /// A scrubber at the start of its first pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ScrubStats {
        self.stats
    }
}

/// One budgeted scrub step; see [`Scrubber`].
fn scrub_impl(
    words: &[u64],
    state: &ForestState,
    budget_words: usize,
    scrubber: &mut Scrubber,
) -> Result<ScrubOutcome, ForestError> {
    if scrubber.generation != Some(state.generation) {
        if scrubber.generation.is_some() && !scrubber.cursor.done {
            scrubber.stats.restarts += 1;
        }
        scrubber.cursor = VerifyCursor::new();
        scrubber.generation = Some(state.generation);
    }
    if scrubber.cursor.done {
        // Previous pass finished: start the next one.
        scrubber.cursor = VerifyCursor::new();
    }
    let cursor = &mut scrubber.cursor;
    let mut budget = budget_words.max(1);
    let crc_end = if state.version == FOREST_VERSION_V1 {
        words.len() - 1
    } else {
        state.dir_end()
    };
    while cursor.pos < crc_end && budget > 0 {
        let take = budget.min(crc_end - cursor.pos);
        cursor
            .crc
            .update_words(&words[cursor.pos..cursor.pos + take]);
        cursor.pos += take;
        budget -= take;
        scrubber.stats.words_scrubbed += take as u64;
    }
    if cursor.pos < crc_end {
        return Ok(ScrubOutcome::InProgress);
    }
    if !cursor.crc_checked {
        if cursor.crc.finish() != words[words.len() - 1] {
            // Header/directory corruption condemns the whole view — there is
            // no per-slot quarantine that can contain it.
            return Err(ForestError::Frame(StoreError::ChecksumMismatch));
        }
        cursor.crc_checked = true;
    }
    while cursor.slot < state.slots.len() {
        if budget == 0 {
            return Ok(ScrubOutcome::InProgress);
        }
        let slot = &state.slots[cursor.slot];
        cursor.slot += 1;
        let e = slot.entry;
        if e.tag == 0 {
            continue;
        }
        budget = budget.saturating_sub(e.len);
        scrubber.stats.words_scrubbed += e.len as u64;
        if slot.quarantine.get().is_some() {
            // Already condemned; nothing more a scrub can learn.
            continue;
        }
        match check_inner(words, e) {
            Ok(parts) => {
                // Settle a deferred slot with the eager verdict so its first
                // query touch replays a cache hit instead of validating.
                if slot.state.set(Ok(parts)).is_ok() {
                    scrubber.stats.slots_settled += 1;
                }
            }
            Err(error) => {
                // Settle (if still deferred) with the same verdict an eager
                // open would have produced, and quarantine: the slot now
                // fails every read path until repaired.
                let _ = slot.state.set(Err(error));
                if slot.quarantine.set(error).is_ok() {
                    scrubber.stats.faults_found += 1;
                }
                return Ok(ScrubOutcome::Fault { id: e.id, error });
            }
        }
    }
    cursor.done = true;
    scrubber.stats.passes_completed += 1;
    Ok(ScrubOutcome::PassComplete)
}

/// Assembles a forest frame from id-sorted, pre-validated `(id, frame)`
/// pairs: header, directory (with `spare` zeroed slots on v2), the inner
/// frames tiled back to back, and the outer checksum.
fn assemble(trees: &[(u64, Vec<u64>)], version: u32, spare: usize, generation: u64) -> Vec<u64> {
    let t = trees.len();
    let v1 = version == FOREST_VERSION_V1;
    let header_words = if v1 { V1_HEADER_WORDS } else { V2_HEADER_WORDS };
    let capacity = t + if v1 { 0 } else { spare };
    let dir_end = header_words + DIR_ENTRY_WORDS * capacity;
    let frames_len: usize = trees.iter().map(|(_, f)| f.len()).sum();
    let mut words = Vec::with_capacity(dir_end + frames_len + 1);
    words.push(FOREST_MAGIC);
    words.push(u64::from(version) << 32);
    words.push(t as u64);
    if !v1 {
        words.push((capacity as u64) << 32);
        words.push(generation);
    }
    let mut off = dir_end;
    for (id, frame_words) in trees {
        // Tag and label count mirror the (validated) inner frame header.
        let tag = frame_words[1] as u32;
        let n = frame_words[2];
        // Every push path rejects n ≥ 2³² before it reaches assembly; a
        // larger count would bleed into the record's tag half.
        debug_assert!(
            n <= u64::from(u32::MAX),
            "directory record cannot index {n} labels"
        );
        words.push(*id);
        words.push(off as u64);
        words.push(frame_words.len() as u64);
        words.push(u64::from(tag) << 32 | n);
        off += frame_words.len();
    }
    words.extend(std::iter::repeat_n(0u64, DIR_ENTRY_WORDS * (capacity - t)));
    for (_, frame_words) in trees {
        words.extend_from_slice(frame_words);
    }
    let checksum = if v1 {
        crc::crc64_words(&words)
    } else {
        crc::crc64_words(&words[..dir_end])
    };
    words.push(checksum);
    words
}

/// Accumulates per-tree frames and assembles them into a [`ForestStore`].
///
/// Trees may use different schemes; frames may be pushed in any id order
/// (the directory is sorted at [`ForestBuilder::finish`]), but every id must
/// be distinct — a duplicate is rejected *at push time* with
/// [`ForestError::DuplicateTree`], before it can poison the assembly.
#[derive(Debug, Default)]
pub struct ForestBuilder {
    trees: Vec<(u64, Vec<u64>)>,
    ids: std::collections::BTreeSet<u64>,
    spare: usize,
    v1: bool,
}

impl ForestBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn claim_id(&mut self, id: u64) -> Result<(), ForestError> {
        if !self.ids.insert(id) {
            return Err(ForestError::DuplicateTree { id });
        }
        Ok(())
    }

    fn claim_directory_record(&mut self, id: u64, n: usize) -> Result<(), ForestError> {
        if n as u64 > u64::from(u32::MAX) {
            return Err(ForestError::Directory {
                what: "a directory record stores the label count in 32 bits",
            });
        }
        self.claim_id(id)
    }

    /// Adds `scheme`'s native frame as tree `id` — a frame handoff (one
    /// buffer memcpy, nothing re-packed: the scheme already *is* a frame).
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Directory`] when the scheme's label count
    /// cannot be indexed by a directory record (n ≥ 2³²), and
    /// [`ForestError::DuplicateTree`] when `id` was already pushed.
    pub fn push_scheme<S: StoredScheme>(
        &mut self,
        id: u64,
        scheme: &S,
    ) -> Result<&mut Self, ForestError> {
        self.claim_directory_record(id, scheme.as_store().node_count())?;
        self.trees.push((id, scheme.as_store().as_words().to_vec()));
        Ok(self)
    }

    /// Adds an already-built store as tree `id`, consuming it (no copy).
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Directory`] when the store's label count
    /// cannot be indexed by a directory record (n ≥ 2³²), and
    /// [`ForestError::DuplicateTree`] when `id` was already pushed.
    pub fn push_store<S: StoredScheme>(
        &mut self,
        id: u64,
        store: SchemeStore<S>,
    ) -> Result<&mut Self, ForestError> {
        self.claim_directory_record(id, store.node_count())?;
        self.trees.push((id, store.into_words()));
        Ok(self)
    }

    /// Adds a raw frame (e.g. read from disk) as tree `id`, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Tree`] when the frame fails store validation,
    /// [`ForestError::Directory`] when its label count cannot be indexed
    /// by a directory record (n ≥ 2³²), and
    /// [`ForestError::DuplicateTree`] when `id` was already pushed.
    pub fn push_frame(&mut self, id: u64, words: Vec<u64>) -> Result<&mut Self, ForestError> {
        let view =
            AnyStoreRef::from_words(&words).map_err(|error| ForestError::Tree { id, error })?;
        if view.node_count() as u64 > u64::from(u32::MAX) {
            return Err(ForestError::Directory {
                what: "a directory record stores the label count in 32 bits",
            });
        }
        self.claim_id(id)?;
        self.trees.push((id, words));
        Ok(self)
    }

    /// Reserves `extra` spare (zeroed) directory slots in the assembled v2
    /// frame, so that many later [`ForestStore::append_scheme`] calls mutate
    /// the directory in place instead of growing it.
    pub fn reserve_slots(&mut self, extra: usize) -> &mut Self {
        self.spare += extra;
        self
    }

    /// Emits the legacy v1 layout (whole-frame checksum, no generation word,
    /// no spare slots) instead of v2 — for producing frames that pre-v2
    /// readers can load.  Incompatible with [`ForestBuilder::reserve_slots`].
    pub fn emit_v1(&mut self) -> &mut Self {
        self.v1 = true;
        self
    }

    /// Number of trees pushed so far.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Returns `true` when no tree has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// [`ForestBuilder::finish`] followed by a crash-safe
    /// [`ForestStore::publish`] of the frame bytes to `path`.
    ///
    /// Returns the assembled store, so the builder process can keep serving
    /// from it without re-reading the file.
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Forest`] when assembly fails (empty
    /// builder) and [`ForestFileError::Io`] when the write fails.
    pub fn write_to(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ForestStore, ForestFileError> {
        let store = self.finish()?;
        store.publish(path)?;
        Ok(store)
    }

    /// Assembles the frame: header, id-sorted directory (plus any reserved
    /// spare slots), the inner frames tiled back to back, and the outer CRC
    /// — then revalidates the result through the loader, so writer and
    /// reader agree by construction.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Directory`] for an empty builder or for
    /// [`ForestBuilder::emit_v1`] combined with reserved slots.
    pub fn finish(self) -> Result<ForestStore, ForestError> {
        let mut trees = self.trees;
        if trees.is_empty() {
            return Err(ForestError::Directory {
                what: "forest holds no trees",
            });
        }
        if self.v1 && self.spare > 0 {
            return Err(ForestError::Directory {
                what: "format v1 has no spare directory slots",
            });
        }
        trees.sort_by_key(|&(id, _)| id);
        let version = if self.v1 {
            FOREST_VERSION_V1
        } else {
            FOREST_VERSION_V2
        };
        ForestStore::from_words(assemble(&trees, version, self.spare, 0))
    }
}

/// Reusable state of the routed batch engine
/// ([`ForestRef::try_route_distances_into`]): the per-batch group buffers,
/// the per-shard kernel state, and the thread count that picks the serial or
/// the sharded path.
///
/// [`RouteScratch::new`] routes serially on the calling thread;
/// [`RouteScratch::with_parallelism`] fans each batch's tree groups out over
/// scoped worker threads, as many as the [`Parallelism`] resolves to but
/// never more than the batch has groups.  The answers are bit-identical
/// either way.
///
/// The engine allocates only into these buffers, so a serving loop that
/// reuses one scratch allocates nothing per batch once they have grown to the
/// working size — except, on the sharded path, the thread spawns themselves.
/// Every group buffer is sized by the batch except `counts`, which grows once
/// to the directory size and is touched only at the slots a batch names, so
/// a batch costs the same against four trees or four thousand.  The serial
/// path's `pairs` buffer and batch plan live inline in the scratch, so a
/// serial scratch holds its plan wherever the caller keeps the scratch and
/// never touches the shard state.  The sharded path keeps the shard table
/// and one `pairs` buffer and batch plan per shard: a batch with fewer
/// groups than threads simply leaves the extra shard state idle until a
/// later batch needs it.
#[derive(Debug)]
pub struct RouteScratch {
    /// Worker threads a batch may fan out over, resolved once from the
    /// [`Parallelism`] at construction; 1 routes on the calling thread.
    threads: usize,
    /// Per-query tree slot (directory position), or [`DEAD_SLOT`] for a
    /// query that already failed resolution.
    slots: Vec<u32>,
    /// Per-directory-slot query count, then scatter cursor, while a batch is
    /// grouped; all zero between batches (grouping re-zeroes exactly the
    /// entries it touched).  Grown on demand to the directory size.
    counts: Vec<u32>,
    /// The directory slots the batch touches, ascending: one group per
    /// distinct healthy tree, run in slot order.
    groups: Vec<u32>,
    /// Per-group *end* position in `order` (a group starts where the
    /// previous one ends).
    bounds: Vec<u32>,
    /// Healthy-query indices, stably grouped by slot.
    order: Vec<u32>,
    /// Answers in grouped order, before the scatter back to arrival order;
    /// each shard writes its own contiguous slice.
    sorted: Vec<u64>,
    /// The serial path's kernel state.
    serial: ShardState,
    /// The sharded path's partition of the batch: per shard, its group range
    /// and its grouped-position range.
    shards: Vec<(Range<usize>, Range<usize>)>,
    /// Kernel state per shard, grown to the largest shard count routed.
    workers: Vec<ShardState>,
}

/// The kernel state the serial path, or one shard, owns.
#[derive(Debug, Default)]
struct ShardState {
    /// Per-group `(u, v)` staging for the batch engine.
    pairs: Vec<(usize, usize)>,
    /// Structure-of-arrays planning buffers for the batch kernels, shared
    /// across every group the shard runs (fixed-size arrays, so sharing them
    /// is about cache reuse, not allocation).  Planned pairs compute one at a
    /// time through the one-pair kernels, so the plan is the only per-batch
    /// state the store layer needs.
    plan: BatchPlan,
    /// Set when the shard's query kernel panicked on the last batch.
    poisoned: bool,
}

impl RouteScratch {
    /// An empty scratch that routes serially (buffers grow on first use).
    pub fn new() -> Self {
        Self::with_parallelism(Parallelism::Serial)
    }

    /// An empty scratch that shards each batch over `par` worker threads.
    /// [`Parallelism::Auto`] asks the OS for its thread count here, once.
    pub fn with_parallelism(par: Parallelism) -> Self {
        RouteScratch {
            threads: par.thread_count(),
            slots: Vec::new(),
            counts: Vec::new(),
            groups: Vec::new(),
            bounds: Vec::new(),
            order: Vec::new(),
            sorted: Vec::new(),
            serial: ShardState::default(),
            shards: Vec::new(),
            workers: Vec::new(),
        }
    }
}

/// Serial, like [`RouteScratch::new`] — not [`Parallelism::default`].
impl Default for RouteScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The slot sentinel marking a query that failed resolution (unknown tree,
/// out-of-range node, corrupt tree) in [`RouteScratch::slots`]: grouping
/// skips it, so failed queries never reach a query kernel.
const DEAD_SLOT: u32 = u32::MAX;

/// One memoized id resolution: the slot index and node count of a healthy
/// tree, or the [`QueryStatus`] every query against that id inherits.
type SlotResolution = Result<(u32, usize), QueryStatus>;

/// Resolves every query's tree slot (validating ids and node indices, and —
/// under the lazy policy — each touched tree's inner frame, first touch
/// only), records each query's preliminary [`QueryStatus`] in arrival order
/// (healthy queries get an `Ok(0)` placeholder for the scatter to fill), and
/// groups the healthy query indices by slot, stably: the touched slots are
/// collected and sorted, and a counting sort runs over them alone.
/// Grouping costs O(q + G log G) for q queries over G distinct trees,
/// whatever the directory size; resolution adds one binary search over the
/// dense id array per run of equal ids.  Never panics on query input: failed
/// queries park under [`DEAD_SLOT`].
fn prepare_route(
    words: &[u64],
    state: &ForestState,
    queries: &[(u64, usize, usize)],
    scratch: &mut RouteScratch,
    statuses: &mut Vec<QueryStatus>,
) {
    let slots = &state.slots;
    // The scratch stores slot and query indices in 32 bits (halving the
    // routing tables); make the truncating casts below unreachable rather
    // than silently wrong for pathological inputs.  Internal capacity
    // bounds, not query validation — these stay panics by policy.
    assert!(
        slots.len() < DEAD_SLOT as usize,
        "forest directory exceeds the routed engine's 2³² slot bound"
    );
    assert!(
        queries.len() <= u32::MAX as usize,
        "routed batch exceeds 2³² queries; split it into sub-batches"
    );
    if scratch.counts.len() < slots.len() {
        scratch.counts.resize(slots.len(), 0);
    }
    scratch.slots.clear();
    scratch.slots.reserve(queries.len());
    // G ≤ q: sized by the batch, so a warm scratch never grows on a new mix.
    scratch.groups.clear();
    scratch.groups.reserve(queries.len());
    scratch.bounds.clear();
    scratch.bounds.reserve(queries.len());
    statuses.reserve(queries.len());
    // Same-id runs replay the memoized resolution — including its failure.
    let mut last: Option<(u64, SlotResolution)> = None;
    for &(id, u, v) in queries {
        let resolved = match last {
            Some((lid, r)) if lid == id => r,
            _ => {
                let r = match lookup_slot(state, id)
                    .ok()
                    .filter(|&s| slots[s].entry.tag != 0)
                {
                    None => Err(QueryStatus::UnknownTree),
                    Some(s) => match validate_slot(words, &slots[s]) {
                        Ok(parts) => Ok((s as u32, parts.raw.n)),
                        Err(_) => Err(QueryStatus::CorruptTree),
                    },
                };
                last = Some((id, r));
                r
            }
        };
        let status = match resolved {
            Ok((slot, n)) if u < n && v < n => {
                let count = &mut scratch.counts[slot as usize];
                if *count == 0 {
                    scratch.groups.push(slot);
                }
                *count += 1;
                scratch.slots.push(slot);
                QueryStatus::Ok(0)
            }
            Ok(_) => {
                scratch.slots.push(DEAD_SLOT);
                QueryStatus::NodeOutOfRange
            }
            Err(bad) => {
                scratch.slots.push(DEAD_SLOT);
                bad
            }
        };
        statuses.push(status);
    }
    // Counting sort over the touched slots only: counts → start cursors (in
    // slot order) → scatter, which advances each cursor to its group end.
    // Dead queries are simply absent from the grouped order.
    scratch.groups.sort_unstable();
    let mut acc = 0u32;
    for &s in &scratch.groups {
        let cursor = &mut scratch.counts[s as usize];
        let start = acc;
        acc += *cursor;
        *cursor = start;
        scratch.bounds.push(acc);
    }
    scratch.order.clear();
    scratch.order.resize(acc as usize, 0);
    for (i, &s) in scratch.slots.iter().enumerate() {
        if s == DEAD_SLOT {
            continue;
        }
        let cursor = &mut scratch.counts[s as usize];
        scratch.order[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    for &s in &scratch.groups {
        scratch.counts[s as usize] = 0;
    }
}

/// A prepared batch's grouping, borrowed from its [`RouteScratch`].
#[derive(Clone, Copy)]
struct Grouping<'a> {
    /// Directory slot of each group, ascending.
    slots: &'a [u32],
    /// Per-group end position in `order`.
    bounds: &'a [u32],
    /// Healthy-query indices in grouped order.
    order: &'a [u32],
}

impl Grouping<'_> {
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Grouped-order positions of group `g`.
    fn span(&self, g: usize) -> Range<usize> {
        let start = if g == 0 {
            0
        } else {
            self.bounds[g - 1] as usize
        };
        start..self.bounds[g] as usize
    }
}

/// The cached parts of a slot that `prepare_route` routed to.
fn routed_parts(slot: &TreeSlot) -> &AnyParts {
    match slot.state.get() {
        Some(Ok(parts)) => parts,
        _ => panic!("routed groups are validated in prepare_route"),
    }
}

/// Cross-group look-ahead: prefetches the first line of both labels of the
/// first query of every group in `groups`.  The store pipeline overlaps
/// label misses only *within* a group; with about one query per group, this
/// pass is what keeps consecutive groups' misses in flight together.
fn prefetch_group_heads(
    words: &[u64],
    slots: &[TreeSlot],
    queries: &[(u64, usize, usize)],
    grouping: Grouping<'_>,
    groups: Range<usize>,
) {
    for g in groups {
        let (_, u, v) = queries[grouping.order[grouping.span(g).start] as usize];
        let slot = &slots[grouping.slots[g] as usize];
        let e = slot.entry;
        let frame = &words[e.off..e.off + e.len];
        let raw = &routed_parts(slot).raw;
        raw.prefetch_label(frame, u);
        raw.prefetch_label(frame, v);
    }
}

/// Runs the queries of groups `groups` through each tree's batch engine,
/// writing answers (in grouped order) into `sorted`, whose first element
/// corresponds to global grouped position `pos_base`.  Each group drains
/// through the store's planned, prefetching pipeline
/// (`AnyStoreRef::distances_write_with`): the router contributes grouping
/// and the shared plan buffers, the pipeline itself lives in the store
/// layer.
#[allow(clippy::too_many_arguments)] // the flat argument list is what lets shards borrow disjoint slices
fn run_group_range(
    words: &[u64],
    slots: &[TreeSlot],
    queries: &[(u64, usize, usize)],
    grouping: Grouping<'_>,
    groups: Range<usize>,
    pos_base: usize,
    pairs: &mut Vec<(usize, usize)>,
    plan: &mut BatchPlan,
    sorted: &mut [u64],
) {
    for g in groups {
        let span = grouping.span(g);
        pairs.clear();
        pairs.extend(grouping.order[span.clone()].iter().map(|&qi| {
            let (_, u, v) = queries[qi as usize];
            (u, v)
        }));
        let slot = &slots[grouping.slots[g] as usize];
        let e = slot.entry;
        let view = AnyStoreRef::from_parts(&words[e.off..e.off + e.len], *routed_parts(slot));
        view.distances_write_with(
            pairs,
            plan,
            &mut sorted[span.start - pos_base..span.end - pos_base],
        );
    }
}

/// Writes the grouped answers back to arrival order: every still-`Ok`
/// status of `statuses` (query 0 first) takes its distance from `sorted`.
fn scatter(order: &[u32], sorted: &[u64], statuses: &mut [QueryStatus]) {
    for (&qi, &d) in order.iter().zip(sorted) {
        let status = &mut statuses[qi as usize];
        if matches!(status, QueryStatus::Ok(_)) {
            *status = QueryStatus::Ok(d);
        }
    }
}

/// The routed engine body shared by every forest view: appends one
/// [`QueryStatus`] per query to `statuses` in arrival order and returns the
/// batch tally.  Healthy groups run even when other queries name unknown,
/// out-of-range, or corrupt targets, on the calling thread or — when the
/// scratch allows more than one thread and the batch has more than one
/// group — sharded over scoped workers.
fn route_batch(
    words: &[u64],
    state: &ForestState,
    queries: &[(u64, usize, usize)],
    scratch: &mut RouteScratch,
    statuses: &mut Vec<QueryStatus>,
) -> RouteOutcome {
    let base = statuses.len();
    prepare_route(words, state, queries, scratch, statuses);
    let statuses = &mut statuses[base..];
    let threads = scratch.threads.min(scratch.groups.len()).max(1);
    if threads == 1 {
        run_prepared_serial(words, &state.slots, queries, scratch, statuses);
    } else {
        run_prepared_sharded(words, &state.slots, queries, scratch, threads, statuses);
    }
    let mut outcome = RouteOutcome::default();
    for &s in statuses.iter() {
        outcome.count(s);
    }
    outcome
}

/// Runs every group of a prepared batch on the calling thread — the
/// look-ahead pass first, then each group's kernel under its own
/// [`std::panic::catch_unwind`], so label rot that slips past a cached
/// validation verdict degrades that one group to `CorruptTree` — and
/// scatters the answers into `statuses` (query 0 first).
fn run_prepared_serial(
    words: &[u64],
    slots: &[TreeSlot],
    queries: &[(u64, usize, usize)],
    scratch: &mut RouteScratch,
    statuses: &mut [QueryStatus],
) {
    let RouteScratch {
        ref groups,
        ref bounds,
        ref order,
        ref mut sorted,
        ref mut serial,
        ..
    } = *scratch;
    let ShardState { pairs, plan, .. } = serial;
    let grouping = Grouping {
        slots: groups,
        bounds,
        order,
    };
    sorted.clear();
    sorted.resize(order.len(), 0);
    // Rotted index words can panic the offset walk; the group's own guarded
    // run below reports that group, so a failed look-ahead is just skipped.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        prefetch_group_heads(words, slots, queries, grouping, 0..grouping.len());
    }));
    for g in 0..grouping.len() {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_group_range(
                words,
                slots,
                queries,
                grouping,
                g..g + 1,
                0,
                pairs,
                plan,
                sorted,
            );
        }));
        if run.is_err() {
            for &qi in &order[grouping.span(g)] {
                statuses[qi as usize] = QueryStatus::CorruptTree;
            }
        }
    }
    scatter(order, sorted, statuses);
}

/// Runs a prepared batch sharded over `threads` (≥ 2, at most the group
/// count) scoped workers: the groups are partitioned into contiguous shards
/// of roughly equal healthy-query count, each shard runs its look-ahead pass
/// and answers into its disjoint slice of the grouped output under a
/// per-shard [`std::panic::catch_unwind`], and one serial scatter restores
/// arrival order — so the result is bit-identical to the serial path, except
/// that a kernel panic (corrupt label data slipping past a cached verdict)
/// degrades at shard granularity rather than group granularity.
fn run_prepared_sharded(
    words: &[u64],
    slots: &[TreeSlot],
    queries: &[(u64, usize, usize)],
    scratch: &mut RouteScratch,
    threads: usize,
    statuses: &mut [QueryStatus],
) {
    let RouteScratch {
        ref groups,
        ref bounds,
        ref order,
        ref mut sorted,
        ref mut shards,
        ref mut workers,
        ..
    } = *scratch;
    let grouping = Grouping {
        slots: groups,
        bounds,
        order,
    };
    let healthy = order.len();
    sorted.clear();
    sorted.resize(healthy, 0);
    if workers.len() < threads {
        workers.resize_with(threads, ShardState::default);
    }

    // Greedy contiguous partition of the groups into at most `threads`
    // shards of roughly healthy / threads queries each.
    let target = healthy.div_ceil(threads).max(1);
    shards.clear();
    let (mut group_lo, mut pos_lo) = (0usize, 0usize);
    for g in 0..grouping.len() {
        let end = grouping.span(g).end;
        if end - pos_lo >= target || g + 1 == grouping.len() {
            shards.push((group_lo..g + 1, pos_lo..end));
            group_lo = g + 1;
            pos_lo = end;
        }
    }

    std::thread::scope(|s| {
        let mut rest: &mut [u64] = sorted;
        for ((groups, pos), worker) in shards.iter().zip(workers.iter_mut()) {
            let (chunk, tail) = rest.split_at_mut(pos.len());
            rest = tail;
            let (groups, pos_base) = (groups.clone(), pos.start);
            // The closure catches its own unwinds, so the scope's implicit
            // join never sees a panicked worker.
            s.spawn(move || {
                let ShardState {
                    pairs,
                    plan,
                    poisoned,
                } = worker;
                *poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    prefetch_group_heads(words, slots, queries, grouping, groups.clone());
                    run_group_range(
                        words, slots, queries, grouping, groups, pos_base, pairs, plan, chunk,
                    );
                }))
                .is_err();
            });
        }
    });

    scatter(order, sorted, statuses);
    for ((_, pos), worker) in shards.iter().zip(workers.iter()) {
        if worker.poisoned {
            for &qi in &order[pos.clone()] {
                statuses[qi as usize] = QueryStatus::CorruptTree;
            }
        }
    }
}

/// Shared read-side API of every forest view ([`ForestRef`], [`ForestStore`],
/// [`ForestPin`], and the `mmap`-gated `MappedForest`), implemented once over
/// `(frame_words, state)`.
macro_rules! forest_read_api {
    () => {
        /// Number of live (non-tombstoned) trees in the forest.
        pub fn tree_count(&self) -> usize {
            self.state.live
        }

        /// The live tree ids, in directory (ascending) order.
        pub fn tree_ids(&self) -> impl Iterator<Item = u64> + '_ {
            self.state
                .slots
                .iter()
                .filter(|s| s.entry.tag != 0)
                .map(|s| s.entry.id)
        }

        /// The borrowed store view of tree `id`, or `None` when the forest
        /// holds no such live tree — absent, tombstoned, or (under
        /// [`ValidationPolicy::Lazy`]) failing its first-touch validation;
        /// use [`Self::try_tree`] to tell those apart.  O(log T) lookup; once
        /// a tree is validated, every call is O(1) with no re-validation.
        pub fn tree(&self, id: u64) -> Option<AnyStoreRef<'_>> {
            self.try_tree(id).ok()
        }

        /// The borrowed store view of tree `id`, or the precise reason there
        /// is none: [`ForestError::UnknownTree`] for an absent or tombstoned
        /// id, [`ForestError::Tree`] when the inner frame fails its deferred
        /// validation — the *same* error an eager open would have reported,
        /// cached and replayed allocation-free on every later touch.
        pub fn try_tree(&self, id: u64) -> Result<AnyStoreRef<'_>, ForestError> {
            try_view(self.frame_words(), &self.state, id)
        }

        /// `true` when the directory holds a tombstone for `id` (the id was
        /// served once and then retired — distinct from never present).
        pub fn is_tombstoned(&self, id: u64) -> bool {
            matches!(lookup_slot(&self.state, id), Ok(s) if self.state.slots[s].entry.tag == 0)
        }

        /// The directory generation word: 0 for a freshly built (or v1)
        /// frame, incremented by every mutation on the owning store.  A
        /// [`ForestPin`] keeps answering for the generation it pinned.
        pub fn generation(&self) -> u64 {
            self.state.generation
        }

        /// The [`ValidationPolicy`] this view was opened under.
        pub fn validation_policy(&self) -> ValidationPolicy {
            self.state.policy
        }

        /// Reserved directory slots not yet holding a record — appends use
        /// these before the directory has to grow.
        pub fn spare_slots(&self) -> usize {
            self.state.capacity - self.state.slots.len()
        }

        /// Total frame size in bytes.
        pub fn size_bytes(&self) -> usize {
            self.frame_words().len() * 8
        }

        /// The raw frame words.
        pub fn as_words(&self) -> &[u64] {
            self.frame_words()
        }

        /// Full verification, whatever policy the view was opened under:
        /// re-checks the outer checksum (whole frame on v1, header +
        /// directory on v2) and validates every live inner frame, caching
        /// any verdicts the lazy policy had deferred.
        ///
        /// # Errors
        ///
        /// The first [`ForestError`] encountered, in directory order.
        pub fn verify(&self) -> Result<(), ForestError> {
            verify_impl(self.frame_words(), &self.state)
        }

        /// Incremental [`Self::verify`]: performs about `budget_words` words
        /// of checksum streaming and/or inner-frame validation per call
        /// (always making progress, even with a zero budget), resuming from
        /// `cursor`.  Returns `Ok(true)` once the whole frame is covered —
        /// the background-thread alternative to paying an eager open.
        ///
        /// The cursor is bound to this frame snapshot; start a fresh one
        /// after any mutation.
        ///
        /// # Errors
        ///
        /// The first [`ForestError`] the covered region reveals.
        pub fn verify_chunked(
            &self,
            budget_words: usize,
            cursor: &mut VerifyCursor,
        ) -> Result<bool, ForestError> {
            verify_chunked_impl(self.frame_words(), &self.state, budget_words, cursor)
        }

        /// The routed batch engine: appends one [`QueryStatus`] per `(tree,
        /// u, v)` query to `out`, in arrival order, and returns the batch
        /// [`RouteOutcome`] tally.  Every query the forest can answer comes
        /// back `Ok(distance)`, the rest `UnknownTree` / `NodeOutOfRange` /
        /// `CorruptTree`; healthy tree groups complete even when other
        /// queries fail, and nothing on query input or corrupt tree data
        /// panics.
        ///
        /// `scratch` carries the group state across batches and decides the
        /// path: serial for [`RouteScratch::new`], sharded over scoped
        /// workers for [`RouteScratch::with_parallelism`], with bit-identical
        /// statuses either way.  Allocation-free once the scratch and `out`
        /// have grown to the batch working size (and every touched tree is
        /// validated), apart from the sharded path's thread spawns.
        pub fn try_route_distances_into(
            &self,
            queries: &[(u64, usize, usize)],
            scratch: &mut RouteScratch,
            out: &mut Vec<QueryStatus>,
        ) -> RouteOutcome {
            route_batch(self.frame_words(), &self.state, queries, scratch, out)
        }

        /// [`Self::try_route_distances_into`] on a fresh
        /// [`RouteScratch::with_parallelism`]`(par)`, collecting the
        /// statuses.  A serving loop should keep its scratch instead.
        pub fn try_route_distances_sharded(
            &self,
            queries: &[(u64, usize, usize)],
            par: Parallelism,
        ) -> Vec<QueryStatus> {
            let mut out = Vec::with_capacity(queries.len());
            let mut scratch = RouteScratch::with_parallelism(par);
            self.try_route_distances_into(queries, &mut scratch, &mut out);
            out
        }

        /// A point-in-time health snapshot of every directory slot —
        /// unvalidated / valid / quarantined (with the condemning error) /
        /// tombstoned.  The quarantined ids are the repair worklist for
        /// [`ForestStore::repair_frame`].
        pub fn health(&self) -> HealthReport {
            health_impl(&self.state)
        }

        /// The [`SlotHealth`] of tree `id`, or `None` when the directory has
        /// no slot for it.
        pub fn slot_health(&self, id: u64) -> Option<SlotHealth> {
            lookup_slot(&self.state, id).ok().map(|s| slot_health_of(&self.state.slots[s]))
        }

        /// The word range of `id`'s inner frame within [`Self::as_words`]
        /// (tombstoned slots included — their bytes still tile the frame
        /// region), or `None` for an unknown id.  This is the targeting
        /// hook for fault injection via [`ForestStore::corrupt_word`].
        pub fn frame_extent(&self, id: u64) -> Option<Range<usize>> {
            lookup_slot(&self.state, id).ok().map(|s| {
                let e = self.state.slots[s].entry;
                e.off..e.off + e.len
            })
        }

        /// One budgeted scrub step (about `budget_words` words of checksum
        /// streaming and fresh inner-frame re-validation; always makes
        /// progress).  See [`Scrubber`] for the contract: repeated passes,
        /// every live frame re-read from its bytes each pass, deferred lazy
        /// slots settled, and faults quarantined so no query serves them.
        ///
        /// # Errors
        ///
        /// [`ForestError::Frame`] when the outer (header + directory)
        /// checksum fails — corruption no per-slot quarantine can contain.
        pub fn scrub(
            &self,
            budget_words: usize,
            scrubber: &mut Scrubber,
        ) -> Result<ScrubOutcome, ForestError> {
            scrub_impl(self.frame_words(), &self.state, budget_words, scrubber)
        }
    };
}

/// A borrowed, validated view of a forest frame — "validate once, borrow
/// forever" over caller-held words (e.g. a memory map).
///
/// See the [module documentation](self) for the frame layout and the routed
/// engine; [`ForestStore`] is the owning counterpart.
#[derive(Debug)]
pub struct ForestRef<'a> {
    words: &'a [u64],
    state: ForestState,
}

impl<'a> ForestRef<'a> {
    /// Validates a forest frame held in caller-owned words (eagerly, the
    /// historical behavior) and borrows it.  No label word is copied; only
    /// the parsed directory is materialized.
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the first failed validation.
    pub fn from_words(words: &'a [u64]) -> Result<Self, ForestError> {
        Self::from_words_with(words, ValidationPolicy::Eager)
    }

    /// [`ForestRef::from_words`] with an explicit [`ValidationPolicy`] —
    /// under [`ValidationPolicy::Lazy`], only the header and directory are
    /// proven here and each inner frame waits for its first touch.
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the first failed validation.
    pub fn from_words_with(
        words: &'a [u64],
        policy: ValidationPolicy,
    ) -> Result<Self, ForestError> {
        let state = parse_forest(words, policy)?;
        Ok(ForestRef { words, state })
    }

    /// [`ForestRef::from_words`] over an aligned byte buffer — the borrow
    /// path for mapped files.  Misaligned input is refused with
    /// [`StoreError::Misaligned`] (wrapped in [`ForestError::Frame`]); take
    /// the copying [`ForestStore::from_bytes`] instead.
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the failed cast or validation.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, ForestError> {
        Self::from_words(frame::try_cast_words(bytes)?)
    }

    /// [`ForestRef::from_bytes`] with an explicit [`ValidationPolicy`].
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the failed cast or validation.
    pub fn from_bytes_with(bytes: &'a [u8], policy: ValidationPolicy) -> Result<Self, ForestError> {
        Self::from_words_with(frame::try_cast_words(bytes)?, policy)
    }

    fn frame_words(&self) -> &[u64] {
        self.words
    }

    forest_read_api!();
}

/// Bytes per read of [`read_words`].
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Reads the file at `path` straight into little-endian words through one
/// fixed [`READ_CHUNK_BYTES`] buffer, so loading holds one file-sized buffer
/// instead of two (the bytes plus their widened copy).  Short reads are
/// carried over, and the file is read to EOF.
///
/// # Errors
///
/// [`ForestFileError::Io`] when reading fails, and the same
/// [`StoreError::Malformed`] as [`frame::words_from_bytes`] when the length
/// is not a multiple of 8.
fn read_words(path: &std::path::Path) -> Result<Vec<u64>, ForestFileError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let hint = file
        .metadata()
        .map_or(0, |m| usize::try_from(m.len()).unwrap_or(0));
    let mut words = Vec::with_capacity(hint / 8);
    let mut buf = vec![0u8; READ_CHUNK_BYTES];
    // `buf[..fill]` holds bytes read but not yet widened (fewer than 8
    // between reads); `len` counts every byte read.
    let (mut fill, mut len) = (0usize, 0usize);
    loop {
        let got = match file.read(&mut buf[fill..]) {
            Ok(0) => break,
            Ok(got) => got,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        fill += got;
        len += got;
        let whole = fill - fill % 8;
        words.extend(
            buf[..whole]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8"))),
        );
        buf.copy_within(whole..fill, 0);
        fill -= whole;
    }
    if fill != 0 {
        return Err(ForestError::from(frame::CastError::Length { len }).into());
    }
    Ok(words)
}

/// A whole forest as one owned, checksummed word buffer — the owning,
/// **mutable-while-serving** counterpart of [`ForestRef`], built with
/// [`ForestBuilder`].
///
/// The buffer is held behind an [`Arc`]: [`ForestStore::pin`] snapshots it
/// in O(1), and a mutation that lands while pins are out transparently
/// copies (copy-on-write) so every pin keeps its generation's exact bytes.
///
/// See the [module documentation](self) for the frame layout and an example.
#[derive(Debug, Clone)]
pub struct ForestStore {
    words: Arc<Vec<u64>>,
    state: ForestState,
}

impl ForestStore {
    /// An empty [`ForestBuilder`] (push trees, then
    /// [`ForestBuilder::finish`]).
    pub fn builder() -> ForestBuilder {
        ForestBuilder::new()
    }

    /// Validates (eagerly) and adopts an assembled forest frame (no copy).
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the first failed validation.
    pub fn from_words(words: Vec<u64>) -> Result<Self, ForestError> {
        Self::from_words_with(words, ValidationPolicy::Eager)
    }

    /// [`ForestStore::from_words`] with an explicit [`ValidationPolicy`].
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the first failed validation.
    pub fn from_words_with(words: Vec<u64>, policy: ValidationPolicy) -> Result<Self, ForestError> {
        let state = parse_forest(&words, policy)?;
        Ok(ForestStore {
            words: Arc::new(words),
            state,
        })
    }

    /// Validates (eagerly) and adopts a forest frame from bytes — the
    /// **copy path** (one widening copy for alignment, valid at any
    /// alignment).  For the zero-copy alternative over an aligned buffer,
    /// use [`ForestRef::from_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the first failed validation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ForestError> {
        Self::from_bytes_with(bytes, ValidationPolicy::Eager)
    }

    /// [`ForestStore::from_bytes`] with an explicit [`ValidationPolicy`].
    ///
    /// # Errors
    ///
    /// Returns a [`ForestError`] describing the first failed validation.
    pub fn from_bytes_with(bytes: &[u8], policy: ValidationPolicy) -> Result<Self, ForestError> {
        Self::from_words_with(
            frame::words_from_bytes(bytes).map_err(ForestError::from)?,
            policy,
        )
    }

    /// The frame as bytes (words serialized little-endian) — the persistable
    /// form.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::words_to_bytes(&self.words)
    }

    /// Reads a forest frame from `path` into **aligned words** and validates
    /// it eagerly — the std-only file loader (the counterpart of
    /// [`ForestStore::publish`]).
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Io`] when reading fails and
    /// [`ForestFileError::Forest`] when the bytes are not a valid frame
    /// (including odd lengths, reported as [`StoreError::Malformed`]).
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ForestFileError> {
        Self::open_with(path, ValidationPolicy::Eager)
    }

    /// [`ForestStore::open`] with an explicit [`ValidationPolicy`] — under
    /// [`ValidationPolicy::Lazy`] the file is still read whole (it is owned
    /// memory), but only the header and directory are *validated*; time to
    /// first query drops from O(validate everything) to O(directory).
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Io`] when reading fails and
    /// [`ForestFileError::Forest`] when validation fails.
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        policy: ValidationPolicy,
    ) -> Result<Self, ForestFileError> {
        let words = read_words(path.as_ref())?;
        Ok(Self::from_words_with(words, policy)?)
    }

    /// Maps the file at `path` read-only via the raw `mmap(2)` wrapper and
    /// serves it **in place** — no read, no copy; with
    /// [`ValidationPolicy::Lazy`] only the header and directory pages are
    /// touched before the first query.  The returned [`MappedForest`] owns
    /// the mapping and exposes the same read API as every other view.
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Io`] when opening or mapping fails and
    /// [`ForestFileError::Forest`] when validation fails (a misaligned or
    /// odd-length mapping reports [`StoreError::Misaligned`] /
    /// [`StoreError::Malformed`] wrapped in [`ForestError::Frame`]).
    #[cfg(all(feature = "mmap", unix))]
    pub fn open_mmap(
        path: impl AsRef<std::path::Path>,
        policy: ValidationPolicy,
    ) -> Result<MappedForest, ForestFileError> {
        let file = std::fs::File::open(path)?;
        let map = frame::Mmap::map_file(&file)?;
        let state = {
            let words = map.words().map_err(ForestError::from)?;
            parse_forest(words, policy)?
        };
        Ok(MappedForest { map, state })
    }

    /// Writes the frame bytes to `path` (the file [`ForestStore::open`]
    /// reads) — a plain, non-atomic write; prefer [`ForestStore::publish`]
    /// when a reader or a crash may observe the file mid-write.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Crash-safe persist: writes the frame to a `.tmp` sibling of `path`,
    /// fsyncs it, then atomically renames it over `path` (and best-effort
    /// fsyncs the parent directory).  A reader concurrently opening `path`
    /// sees either the old frame or the new one, never a torn write; a crash
    /// mid-publish leaves at worst a stale `.tmp` that the next publish
    /// removes and every open path ignores.
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Io`] for any failed step.
    pub fn publish(&self, path: impl AsRef<std::path::Path>) -> Result<(), ForestFileError> {
        use std::io::Write;
        let path = path.as_ref();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        match std::fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Durability of the rename itself; non-fatal where unsupported.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// An O(1) snapshot of the current generation: the pin shares the buffer
    /// (no copy now) and keeps answering from it even as this store mutates
    /// on — the first mutation with pins out pays one buffer copy.
    pub fn pin(&self) -> ForestPin {
        ForestPin {
            words: Arc::clone(&self.words),
            state: self.state.clone(),
        }
    }

    /// Consumes the store and returns its frame words (copying only if pins
    /// are still sharing the buffer).
    pub fn into_words(self) -> Vec<u64> {
        Arc::try_unwrap(self.words).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Rewrites a v1 frame as v2 in place (same trees, generation 0) so the
    /// in-place mutation paths below have a generation word and tombstone
    /// encoding to work with.  No-op on v2.  Cached validation verdicts
    /// survive: the parts are relative to each inner frame, which moves as
    /// a unit.
    fn ensure_v2(&mut self) {
        if self.state.version == FOREST_VERSION_V2 {
            return;
        }
        let old: &[u64] = &self.words;
        let t = self.state.slots.len();
        let old_dir_end = V1_HEADER_WORDS + DIR_ENTRY_WORDS * t;
        let shift = V2_HEADER_WORDS - V1_HEADER_WORDS;
        let mut words = Vec::with_capacity(old.len() + shift);
        words.push(FOREST_MAGIC);
        words.push(u64::from(FOREST_VERSION_V2) << 32);
        words.push(t as u64);
        words.push((t as u64) << 32);
        words.push(0);
        for slot in &self.state.slots {
            let e = slot.entry;
            words.push(e.id);
            words.push((e.off + shift) as u64);
            words.push(e.len as u64);
            words.push(u64::from(e.tag) << 32 | u64::from(e.n));
        }
        words.extend_from_slice(&old[old_dir_end..old.len() - 1]);
        let dir_end = V2_HEADER_WORDS + DIR_ENTRY_WORDS * t;
        words.push(crc::crc64_words(&words[..dir_end]));
        for slot in &mut self.state.slots {
            slot.entry.off += shift;
        }
        self.state.version = FOREST_VERSION_V2;
        self.state.capacity = t;
        self.state.generation = 0;
        self.words = Arc::new(words);
    }

    /// Splices `extra` zeroed directory slots in (shifting every frame
    /// extent up) so the next appends are in-place again.  The caller
    /// refreshes generation + checksum.
    fn grow_capacity(&mut self, extra: usize) {
        let dir_end = self.state.dir_end();
        let shift = DIR_ENTRY_WORDS * extra;
        let words = Arc::make_mut(&mut self.words);
        words.splice(dir_end..dir_end, std::iter::repeat_n(0u64, shift));
        for rec in 0..self.state.slots.len() {
            words[V2_HEADER_WORDS + DIR_ENTRY_WORDS * rec + 1] += shift as u64;
        }
        self.state.capacity += extra;
        words[3] = (self.state.capacity as u64) << 32;
        for slot in &mut self.state.slots {
            slot.entry.off += shift;
        }
    }

    /// Appends `scheme`'s native frame as live tree `id` **without rewriting
    /// any existing frame**: the new frame lands at the end of the frame
    /// region, its directory record splices into id order (consuming a
    /// [spare slot](ForestBuilder::reserve_slots) when one is free, growing
    /// the directory otherwise), and the generation word increments.  A v1
    /// store silently upgrades its frame to v2 first.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::DuplicateTree`] when the directory already
    /// holds `id` — live *or* tombstoned (retired ids are never reused) —
    /// and [`ForestError::Directory`] when the label count cannot be indexed
    /// (n ≥ 2³²).
    pub fn append_scheme<S: StoredScheme>(
        &mut self,
        id: u64,
        scheme: &S,
    ) -> Result<(), ForestError> {
        self.append_frame(id, scheme.as_store().as_words().to_vec())
    }

    /// [`ForestStore::append_scheme`] for a raw frame (e.g. read from disk),
    /// validating it first.
    ///
    /// # Errors
    ///
    /// As [`ForestStore::append_scheme`], plus [`ForestError::Tree`] when
    /// the frame fails store validation.
    pub fn append_frame(&mut self, id: u64, frame_words: Vec<u64>) -> Result<(), ForestError> {
        let view = AnyStoreRef::from_words(&frame_words)
            .map_err(|error| ForestError::Tree { id, error })?;
        if view.node_count() as u64 > u64::from(u32::MAX) {
            return Err(ForestError::Directory {
                what: "a directory record stores the label count in 32 bits",
            });
        }
        let (tag, n) = (view.tag(), view.node_count() as u32);
        let parts = view.parts();
        let Err(p) = lookup_slot(&self.state, id) else {
            return Err(ForestError::DuplicateTree { id });
        };
        self.ensure_v2();
        if self.state.slots.len() == self.state.capacity {
            self.grow_capacity(self.state.capacity.max(1));
        }
        let t = self.state.slots.len();
        let generation = self.state.generation + 1;
        let flen = frame_words.len();
        let words = Arc::make_mut(&mut self.words);
        // The frame tiles in at the end of the frame region, displacing only
        // the trailing checksum word.
        let off = words.len() - 1;
        words.truncate(off);
        words.extend_from_slice(&frame_words);
        words.push(0); // checksum, recomputed below
                       // Open directory slot p: shift used records [p, t) up one record
                       // into the spare slot, then write the new record.
        let start = V2_HEADER_WORDS + DIR_ENTRY_WORDS * p;
        let end = V2_HEADER_WORDS + DIR_ENTRY_WORDS * t;
        words.copy_within(start..end, start + DIR_ENTRY_WORDS);
        words[start] = id;
        words[start + 1] = off as u64;
        words[start + 2] = flen as u64;
        words[start + 3] = u64::from(tag) << 32 | u64::from(n);
        words[2] = (t + 1) as u64;
        words[4] = generation;
        let dir_end = self.state.dir_end();
        let last = words.len() - 1;
        words[last] = crc::crc64_words(&words[..dir_end]);
        self.state.generation = generation;
        self.state.live += 1;
        self.state.slots.insert(
            p,
            TreeSlot {
                entry: DirEntry {
                    id,
                    off,
                    len: flen,
                    tag,
                    n,
                },
                state: OnceLock::from(Ok(parts)),
                quarantine: OnceLock::new(),
            },
        );
        self.state.ids.insert(p, id);
        Ok(())
    }

    /// Retires live tree `id` **in place**: its directory record's scheme
    /// tag is zeroed (the frame bytes stay, still tiling the region — no
    /// rewrite, no compaction), the generation word increments, and every
    /// later lookup of `id` reports [`ForestError::UnknownTree`].  A v1
    /// store silently upgrades its frame to v2 first.  Reclaim the bytes
    /// with [`ForestStore::compact`].
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::UnknownTree`] when `id` is absent or already
    /// tombstoned.
    pub fn tombstone(&mut self, id: u64) -> Result<(), ForestError> {
        let slot = lookup_slot(&self.state, id)
            .ok()
            .filter(|&s| self.state.slots[s].entry.tag != 0)
            .ok_or(ForestError::UnknownTree { id })?;
        self.ensure_v2();
        let generation = self.state.generation + 1;
        let dir_end = self.state.dir_end();
        let words = Arc::make_mut(&mut self.words);
        words[V2_HEADER_WORDS + DIR_ENTRY_WORDS * slot + 3] &= 0xFFFF_FFFF;
        words[4] = generation;
        let last = words.len() - 1;
        words[last] = crc::crc64_words(&words[..dir_end]);
        self.state.generation = generation;
        self.state.slots[slot].entry.tag = 0;
        self.state.live -= 1;
        Ok(())
    }

    /// Rebuilds the frame with only the live trees — reclaiming tombstoned
    /// frames and spare slots — at generation `current + 1`.  The rebuilt
    /// frame revalidates under this store's policy before being adopted.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Directory`] when no live tree remains (an
    /// all-tombstone forest serves lookups, but an *empty* frame is not
    /// representable), or any error the revalidation reports.
    pub fn compact(&mut self) -> Result<(), ForestError> {
        if self.state.live == 0 {
            return Err(ForestError::Directory {
                what: "forest holds no trees",
            });
        }
        let trees: Vec<(u64, Vec<u64>)> = self
            .state
            .slots
            .iter()
            .filter(|s| s.entry.tag != 0)
            .map(|s| {
                let e = s.entry;
                (e.id, self.words[e.off..e.off + e.len].to_vec())
            })
            .collect();
        let generation = self.state.generation + 1;
        let words = assemble(&trees, FOREST_VERSION_V2, 0, generation);
        let state = parse_forest(&words, self.state.policy)?;
        self.words = Arc::new(words);
        self.state = state;
        Ok(())
    }

    /// Re-packs tree `id` from a caller-supplied replacement frame (a
    /// rebuild, or a replica read from another copy of the forest): the new
    /// frame is validated, spliced over the old extent **in place** (later
    /// extents shift; no other frame is rewritten), the directory record is
    /// refreshed, the generation word increments, and the slot re-enters
    /// service healthy — any quarantine or cached failure verdict is
    /// dropped.  This is the exit edge of the `Quarantined` slot state (see
    /// `FORMAT.md`); persist the repaired frame crash-safely with
    /// [`ForestStore::publish`].
    ///
    /// The replacement does not have to match the old frame's scheme, length
    /// or label count — only the id stays fixed.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::UnknownTree`] when `id` is absent or
    /// tombstoned (repairing a retired tree is meaningless),
    /// [`ForestError::Tree`] when the replacement frame fails store
    /// validation, and [`ForestError::Directory`] when its label count
    /// cannot be indexed (n ≥ 2³²).
    pub fn repair_frame(&mut self, id: u64, frame_words: Vec<u64>) -> Result<(), ForestError> {
        let view = AnyStoreRef::from_words(&frame_words)
            .map_err(|error| ForestError::Tree { id, error })?;
        if view.node_count() as u64 > u64::from(u32::MAX) {
            return Err(ForestError::Directory {
                what: "a directory record stores the label count in 32 bits",
            });
        }
        let (tag, n) = (view.tag(), view.node_count() as u32);
        let parts = view.parts();
        let slot_pos = lookup_slot(&self.state, id)
            .ok()
            .filter(|&s| self.state.slots[s].entry.tag != 0)
            .ok_or(ForestError::UnknownTree { id })?;
        self.ensure_v2();
        let old = self.state.slots[slot_pos].entry;
        let flen = frame_words.len();
        let generation = self.state.generation + 1;
        let words = Arc::make_mut(&mut self.words);
        words.splice(old.off..old.off + old.len, frame_words);
        // Extents after the replaced one shift by the length delta; the
        // relative file order is unchanged, so the tiling invariant holds.
        for slot in self.state.slots.iter_mut() {
            if slot.entry.off > old.off {
                slot.entry.off = slot.entry.off - old.len + flen;
            }
        }
        {
            let e = &mut self.state.slots[slot_pos].entry;
            e.len = flen;
            e.tag = tag;
            e.n = n;
        }
        // The repaired slot re-enters service pre-validated and
        // unquarantined.
        self.state.slots[slot_pos].state = OnceLock::from(Ok(parts));
        self.state.slots[slot_pos].quarantine = OnceLock::new();
        // Rewrite the whole directory from the slot table (offsets may have
        // shifted for any record) and refresh generation + checksum.
        for (rec, slot) in self.state.slots.iter().enumerate() {
            let base = V2_HEADER_WORDS + DIR_ENTRY_WORDS * rec;
            let e = slot.entry;
            words[base] = e.id;
            words[base + 1] = e.off as u64;
            words[base + 2] = e.len as u64;
            words[base + 3] = u64::from(e.tag) << 32 | u64::from(e.n);
        }
        words[4] = generation;
        let dir_end = self.state.dir_end();
        let last = words.len() - 1;
        words[last] = crc::crc64_words(&words[..dir_end]);
        self.state.generation = generation;
        Ok(())
    }

    /// [`ForestStore::repair_frame`] from a freshly built scheme — the
    /// rebuild-closure flavor of repair (`repair_scheme(id,
    /// &OptimalScheme::build(&tree))`).
    ///
    /// # Errors
    ///
    /// As [`ForestStore::repair_frame`].
    pub fn repair_scheme<S: StoredScheme>(
        &mut self,
        id: u64,
        scheme: &S,
    ) -> Result<(), ForestError> {
        self.repair_frame(id, scheme.as_store().as_words().to_vec())
    }

    /// Fault-injection hook for tests and the chaos harness: XORs `mask`
    /// into frame word `index` — deliberately **without** touching any
    /// checksum, directory state, generation word, or cached validation
    /// verdict.  This is exactly the silent bit rot the scrubber and the
    /// fallible router exist to catch; pins taken before the call keep
    /// their pristine bytes (copy-on-write), which is what makes
    /// control-vs-subject chaos runs cheap.  Target a tree's label words
    /// via [`Self::frame_extent`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the frame — the hook is test
    /// infrastructure and an out-of-bounds target is a harness bug.
    pub fn corrupt_word(&mut self, index: usize, mask: u64) {
        Arc::make_mut(&mut self.words)[index] ^= mask;
    }

    fn frame_words(&self) -> &[u64] {
        &self.words
    }

    forest_read_api!();
}

/// A pinned generation of a [`ForestStore`]: an O(1) snapshot taken with
/// [`ForestStore::pin`] that shares the frame buffer and keeps serving its
/// generation's exact bytes no matter what the owning store does next
/// (mutations copy-on-write around live pins).
///
/// Exposes the full read API — per-tree views, routing, verification — but
/// no mutation.
#[derive(Debug, Clone)]
pub struct ForestPin {
    words: Arc<Vec<u64>>,
    state: ForestState,
}

impl ForestPin {
    fn frame_words(&self) -> &[u64] {
        &self.words
    }

    forest_read_api!();
}

/// A forest served **in place from a read-only memory map** — the product of
/// [`ForestStore::open_mmap`], behind the off-by-default `mmap` feature.
///
/// The mapping (a raw-syscall [`frame::Mmap`], no crate dependency) lives
/// exactly as long as this value; combined with [`ValidationPolicy::Lazy`],
/// opening touches only the header and directory pages, and each tree's
/// pages fault in on its first query.  Exposes the full read API; to mutate,
/// load an owned [`ForestStore`] instead.
#[cfg(all(feature = "mmap", unix))]
#[derive(Debug)]
pub struct MappedForest {
    map: frame::Mmap,
    state: ForestState,
}

#[cfg(all(feature = "mmap", unix))]
impl MappedForest {
    fn frame_words(&self) -> &[u64] {
        self.map
            .words()
            .expect("alignment and length were validated when the map was opened")
    }

    forest_read_api!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level_ancestor::LevelAncestorScheme;
    use crate::naive::NaiveScheme;
    use crate::optimal::OptimalScheme;
    use crate::DistanceScheme;
    use treelab_tree::gen;

    /// A private directory for one test: created with `create_dir`, which
    /// fails if it already exists, and removed with its contents on drop.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("treelab-{tag}-{}", std::process::id()));
            std::fs::create_dir(&dir).expect("create a private test directory");
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_forest() -> (Vec<(u64, treelab_tree::Tree)>, ForestStore) {
        let trees = vec![
            (3u64, gen::random_tree(150, 1)),
            (11, gen::random_tree(90, 2)),
            (42, gen::comb(120)),
        ];
        let mut b = ForestStore::builder();
        b.push_scheme(3, &NaiveScheme::build(&trees[0].1)).unwrap();
        b.push_scheme(11, &OptimalScheme::build(&trees[1].1))
            .unwrap();
        b.push_scheme(42, &LevelAncestorScheme::build(&trees[2].1))
            .unwrap();
        (trees, b.finish().unwrap())
    }

    fn sample_queries(
        trees: &[(u64, treelab_tree::Tree)],
        count: usize,
    ) -> Vec<(u64, usize, usize)> {
        (0..count)
            .map(|i| {
                let (id, tree) = &trees[(i * 7) % trees.len()];
                let n = tree.len();
                (*id, (i * 31) % n, (i * 87 + 5) % n)
            })
            .collect()
    }

    /// Routes `queries` on a fresh serial scratch.
    fn route(forest: &ForestStore, queries: &[(u64, usize, usize)]) -> Vec<QueryStatus> {
        let mut out = Vec::new();
        forest.try_route_distances_into(queries, &mut RouteScratch::new(), &mut out);
        out
    }

    /// [`route`], requiring every query to be answered.
    fn distances(forest: &ForestStore, queries: &[(u64, usize, usize)]) -> Vec<u64> {
        route(forest, queries)
            .into_iter()
            .map(|s| s.ok().expect("every query is answered"))
            .collect()
    }

    #[test]
    fn forest_round_trips_and_routes() {
        let (trees, forest) = sample_forest();
        assert_eq!(forest.tree_count(), 3);
        assert_eq!(forest.tree_ids().collect::<Vec<_>>(), vec![3, 11, 42]);
        assert!(forest.tree(5).is_none());
        assert!(matches!(
            forest.try_tree(5),
            Err(ForestError::UnknownTree { id: 5 })
        ));
        assert_eq!(forest.generation(), 0);
        assert_eq!(forest.spare_slots(), 0);

        let bytes = forest.to_bytes();
        let back = ForestStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.as_words(), forest.as_words());
        assert_eq!(back.to_bytes(), bytes);

        // Borrow path over the owner's words: identical answers, same buffer.
        let view = ForestRef::from_words(forest.as_words()).unwrap();
        assert!(std::ptr::eq(view.as_words(), forest.as_words()));

        let queries = sample_queries(&trees, 400);
        let routed = route(&forest, &queries);
        let mut via_ref = Vec::new();
        view.try_route_distances_into(&queries, &mut RouteScratch::new(), &mut via_ref);
        assert_eq!(routed, via_ref);
        for (i, &(id, u, v)) in queries.iter().enumerate() {
            let expect = forest.tree(id).unwrap().distance(u, v);
            assert_eq!(
                routed[i],
                QueryStatus::Ok(expect),
                "query {i}: tree {id} ({u},{v})"
            );
        }
    }

    #[test]
    fn lazy_views_answer_exactly_like_eager_ones() {
        let (trees, forest) = sample_forest();
        let bytes = forest.to_bytes();
        let lazy = ForestStore::from_bytes_with(&bytes, ValidationPolicy::Lazy).unwrap();
        assert_eq!(lazy.validation_policy(), ValidationPolicy::Lazy);
        assert_eq!(lazy.as_words(), forest.as_words());
        assert_eq!(lazy.tree_ids().collect::<Vec<_>>(), vec![3, 11, 42]);
        let queries = sample_queries(&trees, 300);
        assert_eq!(distances(&lazy, &queries), distances(&forest, &queries));
        // Full verification retrofits eager coverage on the lazy view.
        lazy.verify().unwrap();
        // Chunked verification converges to the same answer.
        let mut cursor = VerifyCursor::new();
        let mut steps = 0usize;
        while !lazy.verify_chunked(64, &mut cursor).unwrap() {
            steps += 1;
            assert!(steps < 1_000_000, "verify_chunked must terminate");
        }
        assert!(cursor.is_done() && steps > 0);
        // A fresh cursor on an already-verified view also completes.
        assert!(lazy
            .verify_chunked(usize::MAX, &mut VerifyCursor::new())
            .unwrap());
    }

    #[test]
    fn mutation_tombstones_appends_and_bumps_generations() {
        let (trees, mut forest) = sample_forest();
        let pin0 = forest.pin();
        let snapshot: Vec<u64> = forest.as_words().to_vec();

        forest.tombstone(11).unwrap();
        assert_eq!(forest.generation(), 1);
        assert!(forest.tree(11).is_none() && forest.is_tombstoned(11));
        assert!(matches!(
            forest.try_tree(11),
            Err(ForestError::UnknownTree { id: 11 })
        ));
        assert!(matches!(
            forest.tombstone(11),
            Err(ForestError::UnknownTree { id: 11 })
        ));
        assert_eq!(forest.tree_count(), 2);
        // The pin still serves generation 0, bit for bit.
        assert_eq!(pin0.as_words(), &snapshot[..]);
        assert!(pin0.tree(11).is_some());
        assert_eq!(pin0.generation(), 0);

        // A tombstoned id is never reused.
        let extra = gen::random_tree(40, 9);
        assert!(matches!(
            forest.append_scheme(11, &NaiveScheme::build(&extra)),
            Err(ForestError::DuplicateTree { id: 11 })
        ));
        // A fresh id appends in place; the frame re-roundtrips and still
        // answers for every surviving tree.
        forest
            .append_scheme(50, &NaiveScheme::build(&extra))
            .unwrap();
        assert_eq!(forest.generation(), 2);
        assert_eq!(forest.tree_ids().collect::<Vec<_>>(), vec![3, 42, 50]);
        let reload = ForestStore::from_bytes(&forest.to_bytes()).unwrap();
        assert_eq!(reload.as_words(), forest.as_words());
        assert_eq!(reload.generation(), 2);
        for &(id, ref tree) in trees.iter().filter(|(id, _)| *id != 11) {
            let n = tree.len();
            assert_eq!(
                forest.tree(id).unwrap().distance(0, n - 1),
                reload.tree(id).unwrap().distance(0, n - 1)
            );
        }
        assert_eq!(
            forest.tree(50).unwrap().distance(0, 39),
            NaiveScheme::build(&extra).distance(treelab_tree::NodeId(0), treelab_tree::NodeId(39))
        );

        // Compaction reclaims the tombstone and keeps answering.
        forest.compact().unwrap();
        assert_eq!(forest.generation(), 3);
        assert_eq!(forest.tree_ids().collect::<Vec<_>>(), vec![3, 42, 50]);
        assert!(!forest.is_tombstoned(11));
        let reload = ForestStore::from_bytes(&forest.to_bytes()).unwrap();
        assert_eq!(reload.as_words(), forest.as_words());
    }

    #[test]
    fn reserved_slots_host_in_place_appends() {
        let t0 = gen::random_tree(60, 5);
        let mut b = ForestStore::builder();
        b.push_scheme(10, &NaiveScheme::build(&t0)).unwrap();
        b.reserve_slots(2);
        let mut forest = b.finish().unwrap();
        assert_eq!(forest.spare_slots(), 2);
        let before = forest.size_bytes();

        let t1 = gen::random_tree(30, 6);
        let frame = NaiveScheme::build(&t1);
        forest.append_scheme(5, &frame).unwrap();
        // Directory didn't grow: size grew by exactly the appended frame.
        assert_eq!(forest.spare_slots(), 1);
        assert_eq!(
            forest.size_bytes(),
            before + frame.as_store().as_words().len() * 8
        );
        assert_eq!(forest.tree_ids().collect::<Vec<_>>(), vec![5, 10]);

        // Exhaust the spare slots, then force a directory growth.
        forest.append_scheme(7, &frame).unwrap();
        assert_eq!(forest.spare_slots(), 0);
        forest.append_scheme(99, &frame).unwrap();
        assert!(forest.spare_slots() > 0);
        assert_eq!(forest.tree_ids().collect::<Vec<_>>(), vec![5, 7, 10, 99]);
        let reload = ForestStore::from_bytes(&forest.to_bytes()).unwrap();
        assert_eq!(reload.as_words(), forest.as_words());
        assert_eq!(
            reload.tree(99).unwrap().distance(0, 29),
            frame.distance(treelab_tree::NodeId(0), treelab_tree::NodeId(29))
        );
    }

    #[test]
    fn v1_frames_load_and_upgrade_on_first_mutation() {
        let t0 = gen::random_tree(80, 3);
        let t1 = gen::random_tree(50, 4);
        let mut b = ForestStore::builder();
        b.push_scheme(1, &NaiveScheme::build(&t0)).unwrap();
        b.push_scheme(2, &OptimalScheme::build(&t1)).unwrap();
        b.emit_v1();
        let mut forest = b.finish().unwrap();
        assert_eq!(forest.generation(), 0);
        assert_eq!(forest.spare_slots(), 0);
        // Both policies load the v1 frame.
        let bytes = forest.to_bytes();
        for policy in [ValidationPolicy::Eager, ValidationPolicy::Lazy] {
            let loaded = ForestStore::from_bytes_with(&bytes, policy).unwrap();
            assert_eq!(
                loaded.tree(1).unwrap().distance(0, 79),
                forest.tree(1).unwrap().distance(0, 79),
                "{policy:?}"
            );
            loaded.verify().unwrap();
        }
        // emit_v1 + reserve_slots is contradictory.
        let mut b = ForestStore::builder();
        b.push_scheme(1, &NaiveScheme::build(&t1)).unwrap();
        b.reserve_slots(1).emit_v1();
        assert!(matches!(b.finish(), Err(ForestError::Directory { .. })));
        // Mutating the v1 store transparently upgrades the frame to v2.
        forest.tombstone(2).unwrap();
        assert_eq!(forest.generation(), 1);
        let reload = ForestStore::from_bytes(&forest.to_bytes()).unwrap();
        assert_eq!(reload.tree_ids().collect::<Vec<_>>(), vec![1]);
        assert!(reload.is_tombstoned(2));
        assert_eq!(
            reload.tree(1).unwrap().distance(0, 79),
            forest.tree(1).unwrap().distance(0, 79)
        );
    }

    #[test]
    fn sharded_routing_is_deterministic_for_every_thread_count() {
        let (trees, forest) = sample_forest();
        let queries = sample_queries(&trees, 777);
        let serial = route(&forest, &queries);
        assert!(serial.iter().all(|s| s.is_ok()));
        for par in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::from_thread_count(2),
            Parallelism::from_thread_count(3),
            Parallelism::from_thread_count(9),
        ] {
            assert_eq!(
                forest.try_route_distances_sharded(&queries, par),
                serial,
                "{par:?}"
            );
        }
        // Empty batches are fine everywhere.
        assert!(route(&forest, &[]).is_empty());
        assert!(forest
            .try_route_distances_sharded(&[], Parallelism::Auto)
            .is_empty());
    }

    #[test]
    fn new_and_default_scratches_route_serially() {
        // `Parallelism::default()` is `Auto`; the scratch must not inherit it.
        let (trees, forest) = sample_forest();
        let queries = sample_queries(&trees, 300);
        for mut scratch in [RouteScratch::new(), RouteScratch::default()] {
            assert_eq!(scratch.threads, 1);
            forest.try_route_distances_into(&queries, &mut scratch, &mut Vec::new());
            assert_eq!(scratch.groups.len(), 3);
            assert!(scratch.shards.is_empty() && scratch.workers.is_empty());
        }
        // Three groups over three threads do shard, and `Auto` resolves once.
        let mut sharded = RouteScratch::with_parallelism(Parallelism::from_thread_count(3));
        forest.try_route_distances_into(&queries, &mut sharded, &mut Vec::new());
        assert!(sharded.shards.len() > 1 && sharded.workers.len() == 3);
        assert_eq!(
            RouteScratch::with_parallelism(Parallelism::Auto).threads,
            Parallelism::Auto.thread_count()
        );
    }

    #[test]
    fn scratch_reuse_appends_in_arrival_order() {
        let (trees, forest) = sample_forest();
        let q1 = sample_queries(&trees, 100);
        let q2 = sample_queries(&trees, 57);
        let mut scratch = RouteScratch::new();
        let mut out = Vec::new();
        forest.try_route_distances_into(&q1, &mut scratch, &mut out);
        forest.try_route_distances_into(&q2, &mut scratch, &mut out);
        assert_eq!(out.len(), q1.len() + q2.len());
        assert_eq!(out[..q1.len()], route(&forest, &q1)[..]);
        assert_eq!(out[q1.len()..], route(&forest, &q2)[..]);
    }

    #[test]
    fn file_round_trip_through_open_publish_and_write_to() {
        let (trees, forest) = sample_forest();
        let dir = TestDir::new("forest-test");
        let path = dir.0.join("forest.bin");

        // Store-side publish, file-side read: identical words, identical
        // routes — under both policies.
        forest.publish(&path).expect("publish");
        let opened = ForestStore::open(&path).expect("open");
        assert_eq!(opened.as_words(), forest.as_words());
        let lazy = ForestStore::open_with(&path, ValidationPolicy::Lazy).expect("lazy open");
        assert_eq!(lazy.as_words(), forest.as_words());
        let queries = sample_queries(&trees, 120);
        assert_eq!(distances(&opened, &queries), distances(&forest, &queries));
        assert_eq!(distances(&lazy, &queries), distances(&forest, &queries));

        // Builder-side write_to returns the store it persisted.
        let mut b = ForestStore::builder();
        b.push_scheme(3, &NaiveScheme::build(&trees[0].1)).unwrap();
        let written = b.write_to(&path).expect("builder write_to");
        let opened = ForestStore::open(&path).expect("open builder file");
        assert_eq!(opened.as_words(), written.as_words());

        // A corrupt file is rejected with a Forest error, a missing one with Io.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            ForestStore::open(&path),
            Err(ForestFileError::Forest(ForestError::Frame(
                StoreError::BadMagic
            )))
        ));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            ForestStore::open(&path),
            Err(ForestFileError::Io(_))
        ));
    }

    #[test]
    fn open_reads_whole_chunks_and_ragged_tails() {
        // Big enough to span several read chunks, with a ragged last chunk.
        let mut b = ForestStore::builder();
        for id in 0..32u64 {
            let tree = gen::random_tree(900 + id as usize, id);
            b.push_scheme(id, &NaiveScheme::build(&tree)).unwrap();
        }
        let forest = b.finish().unwrap();
        let bytes = forest.to_bytes();
        assert!(
            bytes.len() > 2 * READ_CHUNK_BYTES && !bytes.len().is_multiple_of(READ_CHUNK_BYTES)
        );
        let dir = TestDir::new("forest-read");
        let path = dir.0.join("forest.bin");
        std::fs::write(&path, &bytes).expect("write");
        let opened = ForestStore::open(&path).expect("open");
        assert_eq!(opened.as_words(), forest.as_words());

        // A length that is not a multiple of 8 — straddling a chunk border,
        // or not — keeps the error the copying byte path reports.
        for len in [bytes.len() - 3, READ_CHUNK_BYTES + 5, 13] {
            std::fs::write(&path, &bytes[..len]).expect("rewrite");
            let want = ForestStore::from_bytes(&bytes[..len]).unwrap_err();
            assert!(matches!(
                want,
                ForestError::Frame(StoreError::Malformed { .. })
            ));
            match ForestStore::open(&path) {
                Err(ForestFileError::Forest(got)) => assert_eq!(got, want, "len {len}"),
                other => panic!("len {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn builder_rejects_duplicates_at_push_time_and_empty_at_finish() {
        let tree = gen::random_tree(60, 4);
        let mut b = ForestStore::builder();
        b.push_scheme(1, &NaiveScheme::build(&tree)).unwrap();
        // The duplicate is refused *at push*, whatever the push flavor.
        assert!(matches!(
            b.push_scheme(1, &NaiveScheme::build(&tree)),
            Err(ForestError::DuplicateTree { id: 1 })
        ));
        assert!(matches!(
            b.push_store(1, NaiveScheme::build(&tree).as_store().clone()),
            Err(ForestError::DuplicateTree { id: 1 })
        ));
        assert!(matches!(
            b.push_frame(1, NaiveScheme::build(&tree).as_store().as_words().to_vec()),
            Err(ForestError::DuplicateTree { id: 1 })
        ));
        // The builder stays usable: the poisoned pushes left no residue.
        assert_eq!(b.len(), 1);
        b.push_scheme(2, &NaiveScheme::build(&tree)).unwrap();
        assert_eq!(b.finish().unwrap().tree_count(), 2);
        assert!(matches!(
            ForestBuilder::new().finish(),
            Err(ForestError::Directory { .. })
        ));
        // Errors display their context.
        assert!(ForestError::Tree {
            id: 7,
            error: StoreError::BadMagic
        }
        .to_string()
        .contains('7'));
        assert!(ForestError::UnknownTree { id: 9 }.to_string().contains('9'));
        assert!(ForestError::DuplicateTree { id: 8 }
            .to_string()
            .contains('8'));
    }

    #[test]
    fn try_route_reports_statuses_in_arrival_order() {
        let (_, forest) = sample_forest();
        let mut lazy =
            ForestStore::from_bytes_with(&forest.to_bytes(), ValidationPolicy::Lazy).unwrap();
        let extent = lazy.frame_extent(11).unwrap();
        lazy.corrupt_word(extent.start + extent.len() / 2, 1 << 7);
        lazy.append_scheme(50, &NaiveScheme::build(&gen::random_tree(40, 9)))
            .unwrap();
        lazy.tombstone(50).unwrap();

        let queries = [
            (3u64, 0usize, 149usize), // healthy
            (999, 0, 0),              // unknown
            (11, 0, 1),               // corrupt (lazy first touch fails)
            (42, 0, 119),             // healthy
            (3, 0, 10_000),           // out of range
            (11, 2, 3),               // corrupt again (memoized run)
            (50, 0, 1),               // tombstoned
        ];
        let mut scratch = RouteScratch::new();
        let mut statuses = Vec::new();
        let outcome = lazy.try_route_distances_into(&queries, &mut scratch, &mut statuses);
        assert_eq!(
            statuses,
            vec![
                QueryStatus::Ok(forest.tree(3).unwrap().distance(0, 149)),
                QueryStatus::UnknownTree,
                QueryStatus::CorruptTree,
                QueryStatus::Ok(forest.tree(42).unwrap().distance(0, 119)),
                QueryStatus::NodeOutOfRange,
                QueryStatus::CorruptTree,
                QueryStatus::UnknownTree,
            ]
        );
        assert_eq!(
            outcome,
            RouteOutcome {
                ok: 2,
                unknown_tree: 2,
                out_of_range: 1,
                corrupt: 2,
            }
        );
        assert_eq!(outcome.total(), 7);
        assert_eq!(outcome.degraded(), 5);
        assert!(!outcome.all_ok());

        // The sharded path agrees status for status, for every thread count.
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                lazy.try_route_distances_sharded(&queries, Parallelism::from_thread_count(threads)),
                statuses,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn health_tracks_the_slot_state_machine() {
        let (_, mut forest) = sample_forest();
        forest.tombstone(42).unwrap();
        let lazy =
            ForestStore::from_bytes_with(&forest.to_bytes(), ValidationPolicy::Lazy).unwrap();
        assert_eq!(lazy.slot_health(3), Some(SlotHealth::Unvalidated));
        assert_eq!(lazy.slot_health(42), Some(SlotHealth::Tombstoned));
        assert_eq!(lazy.slot_health(999), None);
        let counts = lazy.health().counts();
        assert_eq!(
            (counts.unvalidated, counts.tombstoned, counts.quarantined),
            (2, 1, 0)
        );
        assert!(lazy.health().all_serving());

        // First touch validates.
        assert!(lazy.tree(3).is_some());
        assert_eq!(lazy.slot_health(3), Some(SlotHealth::Valid));
        assert_eq!(lazy.health().counts().valid, 1);
    }

    #[test]
    fn scrub_settles_deferred_slots_and_catches_post_validation_rot() {
        let (_, forest) = sample_forest();
        let mut lazy =
            ForestStore::from_bytes_with(&forest.to_bytes(), ValidationPolicy::Lazy).unwrap();

        // A full clean pass settles every deferred slot.
        let mut scrubber = Scrubber::new();
        let mut outcome = lazy.scrub(64, &mut scrubber).unwrap();
        let mut steps = 1usize;
        while outcome == ScrubOutcome::InProgress {
            outcome = lazy.scrub(64, &mut scrubber).unwrap();
            steps += 1;
            assert!(steps < 1_000_000, "scrub must terminate");
        }
        assert_eq!(outcome, ScrubOutcome::PassComplete);
        let stats = scrubber.stats();
        assert_eq!(stats.slots_settled, 3);
        assert_eq!(stats.passes_completed, 1);
        assert_eq!(stats.faults_found, 0);
        assert!(stats.words_scrubbed as usize >= lazy.as_words().len() - 1);
        assert_eq!(lazy.health().counts().valid, 3);

        // Rot lands *after* validation: `verify` replays cached verdicts and
        // stays blind, but the next scrub pass re-reads the bytes.
        let extent = lazy.frame_extent(11).unwrap();
        lazy.corrupt_word(extent.start + extent.len() / 2, 1 << 42);
        lazy.verify().unwrap();
        let fault = loop {
            match lazy.scrub(1 << 16, &mut scrubber).unwrap() {
                ScrubOutcome::InProgress | ScrubOutcome::PassComplete => {}
                fault @ ScrubOutcome::Fault { .. } => break fault,
            }
        };
        assert!(matches!(fault, ScrubOutcome::Fault { id: 11, .. }));
        assert_eq!(scrubber.stats().faults_found, 1);

        // The quarantine gates every read path.
        assert!(matches!(
            lazy.slot_health(11),
            Some(SlotHealth::Quarantined(_))
        ));
        assert_eq!(lazy.health().quarantined().collect::<Vec<_>>(), vec![11]);
        assert!(matches!(
            lazy.try_tree(11),
            Err(ForestError::Tree { id: 11, .. })
        ));
        assert!(lazy.verify().is_err());
        assert_eq!(route(&lazy, &[(11, 0, 1)]), vec![QueryStatus::CorruptTree]);
        // Healthy trees keep serving through it all.
        assert_eq!(
            route(&lazy, &[(3, 0, 1)]),
            vec![QueryStatus::Ok(forest.tree(3).unwrap().distance(0, 1))]
        );

        // Scrubbing past the quarantined slot completes the pass without
        // re-reporting the same fault.
        let mut end = lazy.scrub(usize::MAX, &mut scrubber).unwrap();
        if end == ScrubOutcome::InProgress {
            end = lazy.scrub(usize::MAX, &mut scrubber).unwrap();
        }
        assert_eq!(end, ScrubOutcome::PassComplete);
        assert_eq!(scrubber.stats().faults_found, 1);
    }

    #[test]
    fn repair_flips_a_quarantined_slot_back_to_healthy() {
        let (trees, forest) = sample_forest();
        let mut subject =
            ForestStore::from_bytes_with(&forest.to_bytes(), ValidationPolicy::Lazy).unwrap();
        let pin = subject.pin();
        let extent = subject.frame_extent(11).unwrap();
        subject.corrupt_word(extent.start + 3, 1 << 21);
        assert!(subject.try_tree(11).is_err());
        assert!(matches!(
            subject.slot_health(11),
            Some(SlotHealth::Quarantined(_))
        ));

        // Repair from a replica frame (the control copy's bytes).
        let replica = forest.tree(11).unwrap().as_words().to_vec();
        let generation = subject.generation();
        subject.repair_frame(11, replica).unwrap();
        assert_eq!(subject.generation(), generation + 1);
        assert_eq!(subject.slot_health(11), Some(SlotHealth::Valid));
        assert!(subject.health().all_serving());
        let queries = sample_queries(&trees, 120);
        assert_eq!(distances(&subject, &queries), distances(&forest, &queries));
        // The repaired frame round-trips through an eager reload.
        let reload = ForestStore::from_bytes(&subject.to_bytes()).unwrap();
        assert_eq!(reload.generation(), generation + 1);
        // The pre-repair pin still serves its pristine generation.
        assert_eq!(pin.generation(), generation);
        assert!(pin.try_tree(11).is_ok());
    }

    #[test]
    fn repair_accepts_a_different_scheme_and_length() {
        let (trees, forest) = sample_forest();
        let mut subject = ForestStore::from_bytes(&forest.to_bytes()).unwrap();
        // Replace the middle tree's frame with a different scheme for the
        // same tree — a rebuild-flavored repair; the extent length changes,
        // so every later extent shifts.
        subject
            .repair_scheme(11, &NaiveScheme::build(&trees[1].1))
            .unwrap();
        let reload = ForestStore::from_bytes(&subject.to_bytes()).unwrap();
        for &(id, ref tree) in &trees {
            let n = tree.len();
            assert_eq!(
                reload.tree(id).unwrap().distance(0, n - 1),
                forest.tree(id).unwrap().distance(0, n - 1),
                "tree {id}"
            );
        }

        // Repair of an absent, tombstoned, or garbage-framed id is refused.
        assert!(matches!(
            subject.repair_frame(999, subject.tree(3).unwrap().as_words().to_vec()),
            Err(ForestError::UnknownTree { id: 999 })
        ));
        subject.tombstone(42).unwrap();
        assert!(matches!(
            subject.repair_frame(42, subject.tree(3).unwrap().as_words().to_vec()),
            Err(ForestError::UnknownTree { id: 42 })
        ));
        assert!(matches!(
            subject.repair_frame(3, vec![0xDEAD_BEEF; 16]),
            Err(ForestError::Tree { id: 3, .. })
        ));
    }
}
