//! Forest store: many trees' scheme frames packed behind one directory, with
//! lazy per-tree validation, generation-worded hot mutation, and a routed
//! batch query engine — the serving layer of the store stack.
//!
//! # Why
//!
//! A production labeling service rarely serves *one* tree: it serves a corpus
//! — thousands of trees, each built once into a
//! [`SchemeStore`](crate::store::SchemeStore) frame — and answers routed
//! queries of the form *(tree, u, v)*.  The forest store packs
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
//! This is the only directory version; the retired v1 (three header words,
//! whole-frame CRC) is rejected with `UnsupportedVersion`.  `FORMAT.md` at
//! the repository root specifies the format bit for bit.
//!
//! # One read API, two backings
//!
//! [`Forest<W>`](Forest) is the one forest type: the decoded directory plus
//! the frame words, held by `W` ([`FrameWords`]).  Its read API — per-tree
//! views, routing, health, scrubbing — is one generic impl, and each
//! backing is an alias with its own constructors:
//!
//! * [`ForestStore`] `= Forest<Arc<ForestWords>>` owns its words — a heap
//!   buffer, or the read-only map of the file it was opened from (64-bit
//!   Unix) — and is the only backing that mutates;
//! * [`ForestPin`] `= Forest<Pinned>` is a read-only snapshot of one
//!   [`ForestStore`] generation.
//!
//! # Validation policy: eager or lazy
//!
//! Every open path takes a [`ValidationPolicy`].  **Eager** (the default, and
//! the only behavior before the policy knob existed) validates the outer
//! frame, the directory, and every inner frame up front, so a successful
//! open proves the whole file.  **Lazy** validates only the header and
//! directory (including the directory checksum) and defers each inner frame
//! to its first `tree(id)` touch: a forest with one corrupt tree still opens
//! and serves every other tree, and the corrupt one fails on first touch
//! with the *same* [`ForestError::Tree`] the eager open would have reported.
//! The per-tree validation verdict is cached, so every touch after the first
//! is O(1) and allocation-free, and a [`Scrubber`] pass (in one call with
//! an unbounded budget, or a budgeted chunk at a time) retrofits full eager
//! coverage without reopening.
//!
//! Lazy opens are what make restart latency O(directory) instead of O(file):
//! treebench's `first_query_p50_ms` (a lazy open of the published file to
//! its first answer) measures it.
//!
//! # Hot mutation and generations
//!
//! [`ForestStore`] is mutable while serving: [`ForestStore::append_scheme`]
//! adds a tree (its frame lands at the end of the frame region; its record
//! splices into id order, and the directory doubles when no spare slot is
//! left), [`ForestStore::tombstone`] retires one by zeroing its record's
//! scheme tag — both in place, without rewriting any other frame, and both
//! bump the directory **generation word**.  Every mutation edits only the
//! slot table and the frame region; one writer then re-emits the directory
//! from the slot table (header words, every record, the zeroed spare
//! records and the directory checksum), so the frame the store writes is
//! the one `parse_forest` reads back.  Readers that need a stable view
//! across mutations take a [`ForestPin`]: a snapshot that shares the frame
//! buffer via [`Arc`] and copies the O(T) slot table (copy-on-write of the
//! buffer only if a mutation lands while pins are out), and keeps answering
//! from its generation forever.  [`ForestStore::publish`] persists
//! crash-safely: write to a `.tmp` sibling, fsync, then atomically
//! rename over the destination, so a reader never observes a half-written
//! frame and a crash leaves at worst a stale temp file that the next publish
//! removes.
//!
//! On 64-bit Unix, [`ForestStore::open_with`] serves the file in place
//! through a raw-syscall read-only map — combined with
//! [`ValidationPolicy::Lazy`], a restart touches only the directory pages
//! before the first query.  The first mutation of such a store copies the
//! frame to the heap, as a mutation with pins out does, so the file is
//! never written through the map.  The rule that keeps a map sound:
//! **replace a served file only by [`ForestStore::publish`]** (write a
//! temp, rename over).  A map shows later writes to its file, and a
//! truncation under it raises `SIGBUS` on the next touch of a removed page.
//!
//! # The routed batch engine
//!
//! [`Forest::try_route_distances_into`] is the one routed engine.  It
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
//! a serving loop allocates nothing per batch.  The engine runs on the
//! calling thread and spawns none.  Each answer comes from two labels alone,
//! so every query is independent of every other, and threading belongs to
//! the caller: share one `&Forest` (it is `Sync`) and give each thread its
//! own scratch.  [`Forest::try_route_distances_sharded`] is that pattern as
//! a one-shot helper: it splits a batch into contiguous chunks, routes each
//! on a scoped thread with a fresh scratch, and concatenates the statuses in
//! arrival order.
//!
//! # Self-healing: fallible routing, quarantine, repair, scrubbing
//!
//! The engine is fallible by design — a socket-facing serving loop cannot
//! treat a bad query as a caller bug.  Each query's [`QueryStatus`] is
//! `Ok(distance)`, `UnknownTree`, `NodeOutOfRange`, or `CorruptTree`, and
//! nothing on query input or corrupt tree data panics.  Healthy tree groups
//! complete even when others fail.  Rot that lands after a tree validated
//! reaches the query kernels, which are total over arbitrary bits (see
//! [`crate::kernel`]): they return the [`CORRUPT_LABEL`] verdict instead of
//! panicking or reading outside the label region, and a group whose answers
//! hold it degrades to `CorruptTree` as a whole.  That is the one fault
//! path: validation verdicts and kernel verdicts are values, and nothing
//! unwinds.  Rot that still decodes (a flipped distance field) answers a
//! wrong distance until a scrub pass finds it.
//!
//! Damage found at runtime is **quarantined**, not just reported: a failed
//! first-touch validation or a scrubber-detected fault condemns the slot, so
//! every later read answers an error ([`ForestError::Tree`]) or a
//! `CorruptTree` status until [`ForestStore::repair_frame`] splices a
//! caller-supplied replacement frame (a rebuild or a replica) over the
//! damaged extent under a fresh generation.  [`Forest::health`] reports
//! every slot's state machine position (`Unvalidated → Valid | Quarantined
//! → Valid`, any `→ Tombstoned`; also specified in `FORMAT.md`), and a
//! [`Scrubber`] driven from the serving loop ([`Forest::scrub`], a words-per-call budget)
//! re-validates every live frame from its bytes pass after pass — settling
//! lazily-deferred slots before queries touch them and catching rot that
//! lands *after* a slot validated, which cached first-touch verdicts cannot.
//!
//! # Panic policy
//!
//! Everything reachable from **untrusted input** — file bytes, query
//! arguments, label bits that rot after validation — reports typed errors
//! or statuses: every open/parse path returns [`ForestError`], per-tree
//! reads go through [`Forest::try_tree`], and routed serving reports a
//! [`QueryStatus`] per query.  The panics that remain are, by policy:
//!
//! * the trusted per-tree entry points ([`AnyStoreRef::distance`] and
//!   [`AnyStoreRef::distances_into`] on a view from [`Forest::tree`]),
//!   which panic on an index out of range or on the kernels'
//!   [`CORRUPT_LABEL`] verdict — route the query to get a status instead;
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

use crate::store::{AnyParts, AnyStoreRef, BatchPlan, StoreError, StoredScheme, CORRUPT_LABEL};
use std::num::NonZeroUsize;

/// `b"TLFRST01"` as a little-endian word.
const FOREST_MAGIC: u64 = u64::from_le_bytes(*b"TLFRST01");

/// The forest format: 5 header words (capacity + generation), tombstones,
/// spare slots, header+directory CRC.  Version 1 is retired and rejected.
const FOREST_VERSION: u32 = 2;

/// Words before the directory.
const HEADER_WORDS: usize = 5;

/// Words per directory record.
const DIR_ENTRY_WORDS: usize = 4;

/// How much of a forest frame an open path proves before returning.
///
/// The header and directory (including the directory checksum) are
/// **always** validated eagerly — the policy only governs the inner
/// per-tree frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValidationPolicy {
    /// Validate every inner frame at open: a successful open proves the
    /// whole file.  This is the default and the historical behavior.
    #[default]
    Eager,
    /// Defer each inner frame to its first `tree(id)` touch; the verdict is
    /// cached per tree, and a corrupt tree reports the same
    /// [`ForestError::Tree`] the eager open would have.  Open cost is
    /// O(directory), not O(file) — a [`Scrubber`] pass retrofits full
    /// coverage in the background.
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
/// [`ForestStore::publish`]): either the I/O
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

/// One decoded directory record.  `tag == 0` marks a tombstone:
/// the extent still tiles the frame region, but the tree is gone.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    id: u64,
    off: usize,
    len: usize,
    tag: u32,
    n: u32,
}

impl DirEntry {
    /// The record's directory words — the one encoder of the format
    /// `parse_forest` decodes.
    fn words(self) -> [u64; DIR_ENTRY_WORDS] {
        [
            self.id,
            self.off as u64,
            self.len as u64,
            u64::from(self.tag) << 32 | u64::from(self.n),
        ]
    }
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

    /// A slot whose frame a mutation has just validated: it enters service
    /// settled and unquarantined.
    fn validated(entry: DirEntry, parts: AnyParts) -> Self {
        TreeSlot {
            entry,
            state: OnceLock::from(Ok(parts)),
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
    /// First word past the directory — also the end of the outer-checksum
    /// coverage.
    fn dir_end(&self) -> usize {
        HEADER_WORDS + DIR_ENTRY_WORDS * self.capacity
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

/// Validates a caller-supplied frame for tree `id` and returns what its
/// directory record holds: the scheme tag, the label count (which must fit
/// the record's 32 bits) and the cached parse.
fn frame_record(id: u64, words: &[u64]) -> Result<(u32, u32, AnyParts), ForestError> {
    let view = AnyStoreRef::from_words(words).map_err(|error| ForestError::Tree { id, error })?;
    let n = u32::try_from(view.node_count()).map_err(|_| ForestError::Directory {
        what: "a directory record stores the label count in 32 bits",
    })?;
    Ok((view.tag(), n, view.parts()))
}

/// Validates the inner frame of `slot` on first call and caches the verdict;
/// every later call borrows the cached result without allocating or
/// copying.  A quarantined slot (rot found by the scrubber after validation)
/// fails here too, so no read path — `tree`, `try_tree`, routing — can
/// serve a tree the scrubber has condemned.
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

/// Directory position of live tree `id`; a tombstoned or absent id is
/// [`ForestError::UnknownTree`].
fn live_slot(state: &ForestState, id: u64) -> Result<usize, ForestError> {
    lookup_slot(state, id)
        .ok()
        .filter(|&s| state.slots[s].entry.tag != 0)
        .ok_or(ForestError::UnknownTree { id })
}

/// The borrowed store view of live tree `id`, validating its frame on first
/// touch under the lazy policy.
fn try_view<'a>(
    words: &'a [u64],
    state: &ForestState,
    id: u64,
) -> Result<AnyStoreRef<'a>, ForestError> {
    let slot = &state.slots[live_slot(state, id)?];
    let parts = *validate_slot(words, slot)?;
    let e = slot.entry;
    Ok(AnyStoreRef::from_parts(&words[e.off..e.off + e.len], parts))
}

/// Validates an assembled forest frame under `policy` and decodes its
/// directory into a [`ForestState`].
fn parse_forest(words: &[u64], policy: ValidationPolicy) -> Result<ForestState, ForestError> {
    let min_words = HEADER_WORDS + DIR_ENTRY_WORDS + 2;
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
    if version != FOREST_VERSION {
        return Err(ForestError::Frame(StoreError::UnsupportedVersion {
            found: version,
        }));
    }
    if words[1] as u32 != 0 || words[3] as u32 != 0 {
        return Err(ForestError::Directory {
            what: "reserved header field is not zero",
        });
    }
    let t = words[2];
    if t == 0 {
        return Err(ForestError::Directory {
            what: "forest holds no trees",
        });
    }
    let capacity = words[3] >> 32;
    if t > capacity {
        return Err(ForestError::Directory {
            what: "directory uses more slots than its capacity",
        });
    }
    let generation = words[4];
    let dir_end = (HEADER_WORDS as u64)
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

    // The checksum covers exactly the header + directory, and is checked
    // under *both* policies: lazy opens still prove the routing metadata
    // (the inner frames carry their own CRCs).
    if crc::crc64_words(&words[..dir_end]) != words[words.len() - 1] {
        return Err(ForestError::Frame(StoreError::ChecksumMismatch));
    }

    let mut entries: Vec<DirEntry> = Vec::with_capacity(t);
    for rec in 0..t {
        let base = HEADER_WORDS + rec * DIR_ENTRY_WORDS;
        let id = words[base];
        if rec > 0 && entries[rec - 1].id >= id {
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
        entries.push(DirEntry {
            id,
            off: off as usize,
            len: len as usize,
            tag: (words[base + 3] >> 32) as u32,
            n: words[base + 3] as u32,
        });
    }
    if words[HEADER_WORDS + DIR_ENTRY_WORDS * t..dir_end]
        .iter()
        .any(|&w| w != 0)
    {
        return Err(ForestError::Directory {
            what: "a spare directory slot is not zeroed",
        });
    }
    // Extents tile in file-offset order, which after appends differs from
    // slot (id) order; sort a copy to check.
    let mut extents: Vec<(usize, usize)> = entries.iter().map(|e| (e.off, e.len)).collect();
    extents.sort_unstable();
    let mut expected_off = dir_end;
    for &(off, len) in &extents {
        if off != expected_off {
            return Err(ForestError::Directory {
                what: "a frame extent does not start where the previous one ended \
                       (overlapping, out-of-order or gapped directory)",
            });
        }
        expected_off = off + len;
    }
    if expected_off != words.len() - 1 {
        return Err(ForestError::Directory {
            what: "inner frames do not tile the region before the checksum exactly",
        });
    }

    let live = entries.iter().filter(|e| e.tag != 0).count();
    let ids = entries.iter().map(|e| e.id).collect();
    // A slot is over a kilobyte (it caches the inner frame's parse), so the
    // table is filled in one pass rather than pushed slot by slot.
    let slots = entries.into_iter().map(TreeSlot::new).collect();
    let state = ForestState {
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

/// A [`Scrubber`]'s progress through one pass: the streaming
/// outer-checksum state, then a cursor over the directory slots.
#[derive(Debug)]
struct PassCursor {
    crc: Crc64,
    pos: usize,
    crc_checked: bool,
    slot: usize,
    done: bool,
}

impl Default for PassCursor {
    fn default() -> Self {
        PassCursor {
            crc: Crc64::new(),
            pos: 0,
            crc_checked: false,
            slot: 0,
            done: false,
        }
    }
}

impl PassCursor {
    /// Absorbs up to `*budget` further words of the outer checksum's input
    /// (`words[..crc_end]`), deducting them from `budget`, and checks the
    /// digest once the input is absorbed.  Returns `Ok(true)` when the
    /// checksum has been verified and `Ok(false)` when the budget ran out
    /// first.
    fn stream_checksum(
        &mut self,
        words: &[u64],
        crc_end: usize,
        budget: &mut usize,
    ) -> Result<bool, ForestError> {
        let take = (*budget).min(crc_end - self.pos);
        self.crc.update_words(&words[self.pos..self.pos + take]);
        self.pos += take;
        *budget -= take;
        if self.pos < crc_end {
            return Ok(false);
        }
        if !self.crc_checked {
            if self.crc.finish() != words[words.len() - 1] {
                return Err(ForestError::Frame(StoreError::ChecksumMismatch));
            }
            self.crc_checked = true;
        }
        Ok(true)
    }
}

/// The per-query verdict of the routed engine
/// ([`Forest::try_route_distances_into`]), in arrival order: the answer,
/// or why there is none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryStatus {
    /// The routed distance.
    Ok(u64),
    /// The queried tree id is absent from the directory or tombstoned.
    UnknownTree,
    /// A node index is `>= n` for the queried tree.
    NodeOutOfRange,
    /// The queried tree's frame failed validation — at first touch, or
    /// under quarantine after a scrub found rot — or a query kernel of its
    /// group returned the [`CORRUPT_LABEL`] verdict on label bits that
    /// rotted after validation (the whole group then answers this).
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
/// [`Forest::health`] / `slot_health`.
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

/// What one [`scrub`](Forest::scrub) call accomplished.
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
/// Where a first touch *settles* each slot once (replaying its cached
/// verdict thereafter), the scrubber **re-validates every live
/// inner frame from its bytes on every pass** — so label rot that lands
/// *after* a slot validated is still found, quarantined, and kept away from
/// queries.  Its first pass over a lazily opened forest is also the
/// budgeted way to reach the eager verdict of every slot without
/// reopening.  Drive it from the serving loop with a words-per-call
/// budget; one scrubber belongs to one view, and a generation change (append
/// / tombstone / repair on the owning store) restarts the pass automatically.
#[derive(Debug, Default)]
pub struct Scrubber {
    cursor: PassCursor,
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
        scrubber.cursor = PassCursor::default();
        scrubber.generation = Some(state.generation);
    }
    if scrubber.cursor.done {
        // Previous pass finished: start the next one.
        scrubber.cursor = PassCursor::default();
    }
    let cursor = &mut scrubber.cursor;
    let mut budget = budget_words.max(1);
    let full = budget;
    // A checksum mismatch (header/directory corruption) condemns the whole
    // view — there is no per-slot quarantine that can contain it.
    let checked = cursor.stream_checksum(words, state.dir_end(), &mut budget);
    scrubber.stats.words_scrubbed += (full - budget) as u64;
    if !checked? {
        return Ok(ScrubOutcome::InProgress);
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

/// The one directory writer: encodes `entries` (in id order) as the used
/// records of a `capacity`-slot directory, zeroes the spare records, writes
/// header words 2–4 (used slots, capacity, `generation`) and the directory
/// checksum.  The frame region is the caller's; every mutation edits it and
/// the slot table, then seals.
fn seal(
    words: &mut [u64],
    entries: impl IntoIterator<Item = DirEntry>,
    capacity: usize,
    generation: u64,
) {
    let dir_end = HEADER_WORDS + DIR_ENTRY_WORDS * capacity;
    let dir = &mut words[HEADER_WORDS..dir_end];
    let mut used = 0;
    for (record, e) in dir.chunks_exact_mut(DIR_ENTRY_WORDS).zip(entries) {
        record.copy_from_slice(&e.words());
        used += 1;
    }
    dir[DIR_ENTRY_WORDS * used..].fill(0);
    words[2] = used as u64;
    words[3] = (capacity as u64) << 32;
    words[4] = generation;
    let last = words.len() - 1;
    words[last] = crc::crc64_words(&words[..dir_end]);
}

/// Assembles a forest frame from id-sorted, pre-validated `(id, frame)`
/// pairs: the magic and version words, a directory of exactly their
/// records, the inner frames tiled back to back, and the sealed directory.
fn assemble(trees: &[(u64, Vec<u64>)], generation: u64) -> Vec<u64> {
    let dir_end = HEADER_WORDS + DIR_ENTRY_WORDS * trees.len();
    let frames_len: usize = trees.iter().map(|(_, f)| f.len()).sum();
    let mut words = Vec::with_capacity(dir_end + frames_len + 1);
    words.extend([FOREST_MAGIC, u64::from(FOREST_VERSION) << 32]);
    words.resize(dir_end, 0);
    let mut entries = Vec::with_capacity(trees.len());
    for (id, frame_words) in trees {
        // Tag and label count mirror the (validated) inner frame header;
        // every push path rejects n ≥ 2³² before it reaches assembly.
        debug_assert!(frame_words[2] <= u64::from(u32::MAX));
        entries.push(DirEntry {
            id: *id,
            off: words.len(),
            len: frame_words.len(),
            tag: frame_words[1] as u32,
            n: frame_words[2] as u32,
        });
        words.extend_from_slice(frame_words);
    }
    words.push(0);
    seal(&mut words, entries, trees.len(), generation);
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
        if scheme.as_store().node_count() as u64 > u64::from(u32::MAX) {
            return Err(ForestError::Directory {
                what: "a directory record stores the label count in 32 bits",
            });
        }
        self.claim_id(id)?;
        self.trees.push((id, scheme.as_store().as_words().to_vec()));
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
        frame_record(id, &words)?;
        self.claim_id(id)?;
        self.trees.push((id, words));
        Ok(self)
    }

    /// Number of trees pushed so far.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Returns `true` when no tree has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Assembles the frame: header, id-sorted directory, the inner frames
    /// tiled back to back, and the outer CRC — then revalidates the result
    /// through the loader, so writer and reader agree by construction.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Directory`] for an empty builder.
    pub fn finish(self) -> Result<ForestStore, ForestError> {
        let mut trees = self.trees;
        if trees.is_empty() {
            return Err(ForestError::Directory {
                what: "forest holds no trees",
            });
        }
        trees.sort_by_key(|&(id, _)| id);
        ForestStore::from_words(assemble(&trees, 0))
    }
}

/// How many threads [`Forest::try_route_distances_sharded`] splits a batch
/// over.  The routed engine itself runs on the calling thread; builds are
/// serial too.  Every setting gives bit-for-bit identical answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Route on the calling thread only.
    Serial,
    /// Use [`std::thread::available_parallelism`] threads.
    Auto,
    /// Use exactly this many threads.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// The number of threads this setting resolves to on this machine.
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Parallelism::Threads(t) => t.get(),
        }
    }

    /// Convenience constructor: `0` means [`Parallelism::Auto`], `1` means
    /// [`Parallelism::Serial`], anything else is an explicit thread count.
    pub fn from_thread_count(threads: usize) -> Self {
        match threads {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            t => Parallelism::Threads(NonZeroUsize::new(t).expect("t >= 2")),
        }
    }
}

/// Reusable state of the routed batch engine
/// ([`Forest::try_route_distances_into`]): the per-batch group buffers and
/// the kernel state every group shares.
///
/// The engine allocates only into these buffers, so a serving loop that
/// reuses one scratch allocates nothing per batch once they have grown to the
/// working size.  Every group buffer is sized by the batch except `counts`,
/// which grows once to the directory size and is touched only at the slots a
/// batch names, so a batch costs the same against four trees or four
/// thousand.  The batch plan lives inline, so the scratch holds it wherever
/// the caller keeps the scratch.  A caller that routes on several threads
/// gives each thread its own scratch.
#[derive(Debug, Default)]
pub struct RouteScratch {
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
    /// Answers in grouped order, before the scatter back to arrival order.
    sorted: Vec<u64>,
    /// Per-group `(u, v)` staging for the batch engine.
    pairs: Vec<(usize, usize)>,
    /// Structure-of-arrays planning buffers for the batch kernels, shared
    /// across every group of a batch (fixed-size arrays, so sharing them is
    /// about cache reuse, not allocation).  Planned pairs compute one at a
    /// time through the one-pair kernels, so the plan is the only per-batch
    /// state the store layer needs.
    plan: BatchPlan,
}

impl RouteScratch {
    /// An empty scratch (buffers grow on first use); the same as `Default`.
    pub fn new() -> Self {
        Self::default()
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
/// first query of every group.  The store pipeline overlaps label misses
/// only *within* a group; with about one query per group, this pass is what
/// keeps consecutive groups' misses in flight together.
fn prefetch_group_heads(
    words: &[u64],
    slots: &[TreeSlot],
    queries: &[(u64, usize, usize)],
    grouping: Grouping<'_>,
) {
    for g in 0..grouping.len() {
        let (_, u, v) = queries[grouping.order[grouping.span(g).start] as usize];
        let slot = &slots[grouping.slots[g] as usize];
        let e = slot.entry;
        let frame = &words[e.off..e.off + e.len];
        let raw = &routed_parts(slot).raw;
        raw.prefetch_label(frame, u);
        raw.prefetch_label(frame, v);
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
/// out-of-range, or corrupt targets.
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
    run_prepared(words, &state.slots, queries, scratch, statuses);
    let mut outcome = RouteOutcome::default();
    for &s in statuses.iter() {
        outcome.count(s);
    }
    outcome
}

/// Runs every group of a prepared batch — the look-ahead pass first, then
/// each group through its tree's batch engine — and scatters the answers
/// into `statuses` (query 0 first).  Label rot that slips past a cached
/// validation verdict reaches the kernels, which are total: a group whose
/// outputs hold the [`CORRUPT_LABEL`] verdict answers `CorruptTree` as a
/// whole (its other answers come from the same rotted frame, so none is
/// trusted), and the slot's health is left to the scrubber.  Each group
/// drains through the store's planned, prefetching pipeline
/// (`AnyStoreRef::distances_write_with`): the router contributes grouping
/// and the shared plan buffers, the pipeline itself lives in the store
/// layer.
fn run_prepared(
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
        ref mut pairs,
        ref mut plan,
        ..
    } = *scratch;
    let grouping = Grouping {
        slots: groups,
        bounds,
        order,
    };
    sorted.clear();
    sorted.resize(order.len(), 0);
    prefetch_group_heads(words, slots, queries, grouping);
    for g in 0..grouping.len() {
        let span = grouping.span(g);
        pairs.clear();
        pairs.extend(order[span.clone()].iter().map(|&qi| {
            let (_, u, v) = queries[qi as usize];
            (u, v)
        }));
        let slot = &slots[groups[g] as usize];
        let e = slot.entry;
        let view = AnyStoreRef::from_parts(&words[e.off..e.off + e.len], *routed_parts(slot));
        view.distances_write_with(pairs, plan, &mut sorted[span.clone()]);
        if sorted[span.clone()].contains(&CORRUPT_LABEL) {
            for &qi in &order[span] {
                statuses[qi as usize] = QueryStatus::CorruptTree;
            }
        }
    }
    scatter(order, sorted, statuses);
}

/// Where a [`Forest`]'s frame words live — the one thing its read API
/// needs from the backing.  Only this module builds a [`Forest`], so the
/// words behind every backing were validated as one forest frame first.
pub trait FrameWords {
    /// The whole forest frame.
    fn frame_words(&self) -> &[u64];
}

impl FrameWords for Arc<ForestWords> {
    fn frame_words(&self) -> &[u64] {
        match &self.0 {
            Backing::Heap(words) => words,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Map(map) => map
                .words()
                .expect("alignment and length were validated when the map was opened"),
        }
    }
}

impl FrameWords for Pinned {
    fn frame_words(&self) -> &[u64] {
        self.0.frame_words()
    }
}

/// The frame words of a [`ForestStore`]: a heap buffer, or on 64-bit Unix a
/// read-only map of the file [`ForestStore::open_with`] opened.  The first
/// mutation of a mapped store copies the words to the heap, so the file is
/// never written through the map.
#[derive(Debug)]
pub struct ForestWords(Backing);

#[derive(Debug)]
enum Backing {
    Heap(Vec<u64>),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Map(frame::Mmap),
}

impl ForestWords {
    fn heap(words: Vec<u64>) -> Arc<Self> {
        Arc::new(ForestWords(Backing::Heap(words)))
    }

    /// The words, unshared and on the heap, for a mutation — the
    /// [`Arc::make_mut`] of a store: a buffer that pins still share, or the
    /// map of a file, is copied first, so pins and the file keep their bytes.
    fn make_mut(words: &mut Arc<Self>) -> &mut Vec<u64> {
        if !matches!(Arc::get_mut(words), Some(ForestWords(Backing::Heap(_)))) {
            *words = Self::heap(words.frame_words().to_vec());
        }
        match Arc::get_mut(words) {
            Some(ForestWords(Backing::Heap(words))) => words,
            _ => unreachable!("the words were just made unique and heap-backed"),
        }
    }

    /// Maps the file at `path` read-only: the words are served in place, and
    /// only the pages a reader touches are read.
    ///
    /// The binding is 64-bit Unix only (see [`frame::Mmap`]); every other
    /// target reads the file with [`read_words`].
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn load(path: &std::path::Path) -> Result<Self, ForestFileError> {
        let map = frame::Mmap::map_file(&std::fs::File::open(path)?)?;
        map.words().map_err(ForestError::from)?;
        Ok(ForestWords(Backing::Map(map)))
    }

    /// Reads the file at `path` into a heap buffer.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn load(path: &std::path::Path) -> Result<Self, ForestFileError> {
        Ok(ForestWords(Backing::Heap(read_words(path)?)))
    }
}

/// A validated forest frame whose words are held by `W` — the one forest
/// type.  Its read API is one generic impl; each backing is an alias with
/// its own constructors ([`ForestStore`], [`ForestPin`]),
/// and only [`ForestStore`] mutates.
///
/// See the [module documentation](self) for the frame layout and the routed
/// engine.
#[derive(Debug, Clone)]
pub struct Forest<W> {
    words: W,
    state: ForestState,
}

/// A whole forest as one owned, checksummed word buffer — the
/// **mutable-while-serving** backing, built with [`ForestBuilder`] or opened
/// from a file with [`ForestStore::open_with`].
///
/// The buffer is held behind an [`Arc`]: [`ForestStore::pin`] shares it
/// with a [`ForestPin`], and a mutation that lands while pins are out
/// transparently copies (copy-on-write) so every pin keeps its generation's
/// exact bytes.  A store opened from a file serves the file's map the same
/// way: its first mutation copies the words to the heap.
pub type ForestStore = Forest<Arc<ForestWords>>;

/// A pinned generation of a [`ForestStore`], taken with
/// [`ForestStore::pin`]: it shares the frame buffer, holds its own copy of
/// the O(T) slot table, and keeps serving its generation's exact bytes no
/// matter what the owning store does next (mutations copy-on-write around
/// live pins).  Exposes the full read API but no mutation.
pub type ForestPin = Forest<Pinned>;

/// The frame buffer of a [`ForestPin`]: the [`ForestStore`]'s shared buffer
/// behind a read-only handle, so a pin cannot reach the store's mutations.
#[derive(Debug, Clone)]
pub struct Pinned(Arc<ForestWords>);

impl<W: FrameWords> Forest<W> {
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
        try_view(self.words.frame_words(), &self.state, id)
    }

    /// `true` when the directory holds a tombstone for `id` (the id was
    /// served once and then retired — distinct from never present).
    pub fn is_tombstoned(&self, id: u64) -> bool {
        matches!(lookup_slot(&self.state, id), Ok(s) if self.state.slots[s].entry.tag == 0)
    }

    /// The directory generation word: 0 for a freshly built frame,
    /// incremented by every mutation on the owning store.  A
    /// [`ForestPin`] keeps answering for the generation it pinned.
    pub fn generation(&self) -> u64 {
        self.state.generation
    }

    /// The [`ValidationPolicy`] this view was opened under.
    pub fn validation_policy(&self) -> ValidationPolicy {
        self.state.policy
    }

    /// Total frame size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.frame_words().len() * 8
    }

    /// The raw frame words.
    pub fn as_words(&self) -> &[u64] {
        self.words.frame_words()
    }

    /// The routed batch engine: appends one [`QueryStatus`] per `(tree,
    /// u, v)` query to `out`, in arrival order, and returns the batch
    /// [`RouteOutcome`] tally.  Every query the forest can answer comes
    /// back `Ok(distance)`, the rest `UnknownTree` / `NodeOutOfRange` /
    /// `CorruptTree`; healthy tree groups complete even when other
    /// queries fail, and nothing on query input or corrupt tree data
    /// panics.
    ///
    /// `scratch` carries the group state across batches; the batch runs on
    /// the calling thread.  Allocation-free once the scratch and `out` have
    /// grown to the batch working size (and every touched tree is
    /// validated).
    pub fn try_route_distances_into(
        &self,
        queries: &[(u64, usize, usize)],
        scratch: &mut RouteScratch,
        out: &mut Vec<QueryStatus>,
    ) -> RouteOutcome {
        route_batch(self.words.frame_words(), &self.state, queries, scratch, out)
    }

    /// Routes `queries` on up to `par` scoped threads, each with a fresh
    /// [`RouteScratch`] over one contiguous chunk of the batch, and returns
    /// the statuses in arrival order — the same statuses
    /// [`Self::try_route_distances_into`] gives, for every thread count,
    /// except that a kernel's corrupt verdict on rotted label data degrades
    /// its tree's group only in the chunks whose queries return it.  One thread (or a batch of
    /// at most one query) routes on the calling thread.  A serving loop
    /// should keep its own scratch per thread instead.
    pub fn try_route_distances_sharded(
        &self,
        queries: &[(u64, usize, usize)],
        par: Parallelism,
    ) -> Vec<QueryStatus> {
        let (words, state) = (self.words.frame_words(), &self.state);
        let route = move |chunk: &[(u64, usize, usize)]| {
            let mut out = Vec::with_capacity(chunk.len());
            route_batch(words, state, chunk, &mut RouteScratch::new(), &mut out);
            out
        };
        let threads = par.thread_count().min(queries.len()).max(1);
        if threads == 1 {
            return route(queries);
        }
        std::thread::scope(|s| {
            let parts: Vec<_> = queries
                .chunks(queries.len().div_ceil(threads))
                .map(|chunk| s.spawn(move || route(chunk)))
                .collect();
            let mut out = Vec::with_capacity(queries.len());
            for part in parts {
                out.extend(
                    part.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            out
        })
    }

    /// A point-in-time health snapshot of every directory slot —
    /// unvalidated / valid / quarantined (with the condemning error) /
    /// tombstoned.  The quarantined ids are the repair worklist for
    /// [`ForestStore::repair_frame`].
    pub fn health(&self) -> HealthReport {
        HealthReport {
            slots: self
                .state
                .slots
                .iter()
                .map(|s| (s.entry.id, slot_health_of(s)))
                .collect(),
        }
    }

    /// The [`SlotHealth`] of tree `id`, or `None` when the directory has
    /// no slot for it.
    pub fn slot_health(&self, id: u64) -> Option<SlotHealth> {
        lookup_slot(&self.state, id)
            .ok()
            .map(|s| slot_health_of(&self.state.slots[s]))
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
        scrub_impl(
            self.words.frame_words(),
            &self.state,
            budget_words,
            scrubber,
        )
    }
}

/// Bytes per read of [`read_words`].
#[cfg_attr(all(unix, target_pointer_width = "64"), allow(dead_code))]
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
///
/// The open path of targets without the map; compiled on every target so
/// its unit test runs everywhere.
#[cfg_attr(all(unix, target_pointer_width = "64"), allow(dead_code))]
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
        Ok(Forest {
            words: ForestWords::heap(words),
            state,
        })
    }

    /// Validates (eagerly) and adopts a forest frame from bytes — the
    /// **copy path** (one widening copy for alignment, valid at any
    /// alignment).  For the zero-copy alternatives, adopt aligned words with
    /// [`ForestStore::from_words`] or map a published file with
    /// [`ForestStore::open_with`].
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
        frame::words_to_bytes(self.words.frame_words())
    }

    /// Opens the forest file at `path` and validates it eagerly (the
    /// counterpart of [`ForestStore::publish`]); see
    /// [`ForestStore::open_with`].
    ///
    /// # Errors
    ///
    /// As [`ForestStore::open_with`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ForestFileError> {
        Self::open_with(path, ValidationPolicy::Eager)
    }

    /// Opens the forest file at `path` under `policy`.
    ///
    /// On 64-bit Unix the file is mapped read-only and served **in place**:
    /// nothing is read or copied up front, and under
    /// [`ValidationPolicy::Lazy`] only the header and directory pages are
    /// touched before the first query, so restart costs O(directory).  The
    /// first mutation copies the words to the heap, like a mutation with
    /// pins out; the file is never written.  Replace a served file only with
    /// [`ForestStore::publish`] (a rename), never by writing it in place: a
    /// map shows later writes to its file, and touching a page that a
    /// truncation removed raises `SIGBUS`.  Other targets read the file
    /// into a heap buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Io`] when opening, mapping or reading
    /// fails (on 64-bit Unix an empty file is refused with
    /// [`std::io::ErrorKind::InvalidInput`]) and [`ForestFileError::Forest`]
    /// when the bytes are not a valid frame (a length that is not a whole
    /// number of words reports [`StoreError::Malformed`]).
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        policy: ValidationPolicy,
    ) -> Result<Self, ForestFileError> {
        let words = Arc::new(ForestWords::load(path.as_ref())?);
        let state = parse_forest(words.frame_words(), policy)?;
        Ok(Forest { words, state })
    }

    /// Crash-safe persist: writes the frame to a `.tmp` sibling of `path`,
    /// fsyncs it, then atomically renames it over `path` (and best-effort
    /// fsyncs the parent directory).  A reader concurrently opening `path`
    /// sees either the old frame or the new one, never a torn write; a crash
    /// mid-publish leaves at worst a stale `.tmp` that the next publish
    /// removes and every open path ignores.  It is the one way to replace a
    /// file that stores may be serving from a map: they keep the old file's
    /// pages and never see the new bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ForestFileError::Io`] for any failed step.
    pub fn publish(&self, path: impl AsRef<std::path::Path>) -> Result<(), ForestFileError> {
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
        frame::write_words(&mut f, self.words.frame_words())?;
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

    /// A snapshot of the current generation: the pin shares the frame
    /// buffer (no frame copy now) and copies the O(T) slot table, then keeps
    /// answering from its generation even as this store mutates on — the
    /// first mutation with pins out pays one buffer copy.
    pub fn pin(&self) -> ForestPin {
        Forest {
            words: Pinned(Arc::clone(&self.words)),
            state: self.state.clone(),
        }
    }

    /// Consumes the store and returns its frame words (copying only if pins
    /// are still sharing the buffer or the words are a file's map).
    pub fn into_words(mut self) -> Vec<u64> {
        std::mem::take(ForestWords::make_mut(&mut self.words))
    }

    /// Publishes the slot table as the next generation: bumps the
    /// generation and [`seal`]s the directory over the edited frame region.
    fn commit(&mut self) {
        self.state.generation += 1;
        let words = ForestWords::make_mut(&mut self.words);
        let state = &self.state;
        seal(
            words,
            state.slots.iter().map(|s| s.entry),
            state.capacity,
            state.generation,
        );
    }

    /// Splices `extra` zeroed directory records in and shifts every extent
    /// in the slot table past them, so the next appends are in-place again.
    fn grow_capacity(&mut self, extra: usize) {
        let dir_end = self.state.dir_end();
        let shift = DIR_ENTRY_WORDS * extra;
        let words = ForestWords::make_mut(&mut self.words);
        words.splice(dir_end..dir_end, std::iter::repeat_n(0u64, shift));
        self.state.capacity += extra;
        for slot in &mut self.state.slots {
            slot.entry.off += shift;
        }
    }

    /// Replaces the frame-region words `at` with `frame` — the empty range
    /// at the region's end for an append, the old extent for a repair — and
    /// shifts every later extent in the slot table by the length change.
    /// Returns the new frame's extent.
    fn splice_frame(&mut self, at: Range<usize>, frame: Vec<u64>) -> Range<usize> {
        let len = frame.len();
        ForestWords::make_mut(&mut self.words).splice(at.clone(), frame);
        for slot in &mut self.state.slots {
            if slot.entry.off >= at.end {
                slot.entry.off = slot.entry.off + len - at.len();
            }
        }
        at.start..at.start + len
    }

    /// Appends `scheme`'s native frame as live tree `id` **without rewriting
    /// any existing frame**: the new frame lands at the end of the frame
    /// region, its directory record splices into id order (doubling the
    /// directory when no spare slot is left), and the generation word
    /// increments.
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
        let (tag, n, parts) = frame_record(id, &frame_words)?;
        let Err(p) = lookup_slot(&self.state, id) else {
            return Err(ForestError::DuplicateTree { id });
        };
        if self.state.slots.len() == self.state.capacity {
            self.grow_capacity(self.state.capacity.max(1));
        }
        let end = self.as_words().len() - 1;
        let extent = self.splice_frame(end..end, frame_words);
        let entry = DirEntry {
            id,
            off: extent.start,
            len: extent.len(),
            tag,
            n,
        };
        self.state
            .slots
            .insert(p, TreeSlot::validated(entry, parts));
        self.state.ids.insert(p, id);
        self.state.live += 1;
        self.commit();
        Ok(())
    }

    /// Retires live tree `id` **in place**: its directory record's scheme
    /// tag is zeroed (the frame bytes stay, still tiling the region — no
    /// rewrite, no compaction), the generation word increments, and every
    /// later lookup of `id` reports [`ForestError::UnknownTree`].  Reclaim
    /// the bytes with [`ForestStore::compact`].
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::UnknownTree`] when `id` is absent or already
    /// tombstoned.
    pub fn tombstone(&mut self, id: u64) -> Result<(), ForestError> {
        let slot = live_slot(&self.state, id)?;
        self.state.slots[slot].entry.tag = 0;
        self.state.live -= 1;
        self.commit();
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
                (
                    e.id,
                    self.words.frame_words()[e.off..e.off + e.len].to_vec(),
                )
            })
            .collect();
        let generation = self.state.generation + 1;
        let words = assemble(&trees, generation);
        let state = parse_forest(&words, self.state.policy)?;
        self.words = ForestWords::heap(words);
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
        let (tag, n, parts) = frame_record(id, &frame_words)?;
        let slot = live_slot(&self.state, id)?;
        let old = self.state.slots[slot].entry;
        let extent = self.splice_frame(old.off..old.off + old.len, frame_words);
        let entry = DirEntry {
            len: extent.len(),
            tag,
            n,
            ..old
        };
        self.state.slots[slot] = TreeSlot::validated(entry, parts);
        self.commit();
        Ok(())
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
        ForestWords::make_mut(&mut self.words)[index] ^= mask;
    }
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

        let bytes = forest.to_bytes();
        let back = ForestStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.as_words(), forest.as_words());
        assert_eq!(back.to_bytes(), bytes);

        // An owned copy of the words routes identically.
        let copy = ForestStore::from_words(forest.as_words().to_vec()).unwrap();
        let queries = sample_queries(&trees, 400);
        let routed = route(&forest, &queries);
        assert_eq!(route(&copy, &queries), routed);
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
        // A budgeted scrub pass retrofits eager coverage on the lazy view.
        let mut scrubber = Scrubber::new();
        let mut steps = 0usize;
        while lazy.scrub(64, &mut scrubber).unwrap() != ScrubOutcome::PassComplete {
            steps += 1;
            assert!(steps < 1_000_000, "a scrub pass must terminate");
        }
        assert!(steps > 0 && scrubber.stats().passes_completed == 1);
        // A fresh scrubber with an unbounded budget completes in one call.
        assert_eq!(
            lazy.scrub(usize::MAX, &mut Scrubber::new()).unwrap(),
            ScrubOutcome::PassComplete
        );
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
    fn appends_after_a_growth_land_in_place() {
        let t0 = gen::random_tree(60, 5);
        let mut b = ForestStore::builder();
        b.push_scheme(10, &NaiveScheme::build(&t0)).unwrap();
        let mut forest = b.finish().unwrap();
        let t1 = gen::random_tree(30, 6);
        let frame = NaiveScheme::build(&t1);
        let frame_bytes = frame.as_store().as_words().len() * 8;

        // A full directory doubles: 1 → 2 → 4 slots, one record = 32 bytes.
        for (id, grown_records) in [(5u64, 1usize), (7, 2)] {
            let before = forest.size_bytes();
            forest.append_scheme(id, &frame).unwrap();
            assert_eq!(
                forest.size_bytes(),
                before + frame_bytes + grown_records * DIR_ENTRY_WORDS * 8
            );
        }
        // The growth left a spare slot: the next append lands in place, and
        // the size grows by exactly the frame.
        let before = forest.size_bytes();
        forest.append_scheme(99, &frame).unwrap();
        assert_eq!(forest.size_bytes(), before + frame_bytes);
        assert_eq!(forest.tree_ids().collect::<Vec<_>>(), vec![5, 7, 10, 99]);
        let reload = ForestStore::from_bytes(&forest.to_bytes()).unwrap();
        assert_eq!(reload.as_words(), forest.as_words());
        assert_eq!(
            reload.tree(99).unwrap().distance(0, 29),
            frame.distance(treelab_tree::NodeId(0), treelab_tree::NodeId(29))
        );
    }

    #[test]
    fn parallelism_thread_counts() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::from_thread_count(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_thread_count(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_thread_count(5).thread_count(), 5);
        assert!(Parallelism::Auto.thread_count() >= 1);
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
        // More threads than queries: one chunk per query, at most.
        for short in [&queries[..1], &queries[..2]] {
            assert_eq!(
                forest.try_route_distances_sharded(short, Parallelism::from_thread_count(9)),
                route(&forest, short),
                "{} queries at 9 threads",
                short.len()
            );
        }
        // Empty batches are fine everywhere.
        assert!(route(&forest, &[]).is_empty());
        assert!(forest
            .try_route_distances_sharded(&[], Parallelism::Auto)
            .is_empty());
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
    fn file_round_trip_through_open_and_publish() {
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

        // A freshly finished builder publishes like any store.
        let mut b = ForestStore::builder();
        b.push_scheme(3, &NaiveScheme::build(&trees[0].1)).unwrap();
        let written = b.finish().expect("builder finishes");
        written.publish(&path).expect("publish builder frame");
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
        assert_eq!(read_words(&path).expect("read"), forest.as_words());
        assert_eq!(
            ForestStore::open(&path).expect("open").as_words(),
            forest.as_words()
        );

        // A length that is not a multiple of 8 — straddling a chunk border,
        // or not — keeps the error the copying byte path reports, read or
        // opened.
        for len in [bytes.len() - 3, READ_CHUNK_BYTES + 5, 13] {
            std::fs::write(&path, &bytes[..len]).expect("rewrite");
            let want = ForestStore::from_bytes(&bytes[..len]).unwrap_err();
            assert!(matches!(
                want,
                ForestError::Frame(StoreError::Malformed { .. })
            ));
            for got in [
                read_words(&path).map(|_| ()),
                ForestStore::open(&path).map(|_| ()),
            ] {
                match got {
                    Err(ForestFileError::Forest(got)) => assert_eq!(got, want, "len {len}"),
                    other => panic!("len {len}: {other:?}"),
                }
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
            b.push_frame(1, NaiveScheme::build(&tree).as_store().as_words().to_vec()),
            Err(ForestError::DuplicateTree { id: 1 })
        ));
        // The builder stays usable: the refused pushes left no residue.
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

        // Rot lands *after* validation: the cached verdict replays and stays
        // blind, but the next scrub pass re-reads the bytes.
        let extent = lazy.frame_extent(11).unwrap();
        lazy.corrupt_word(extent.start + extent.len() / 2, 1 << 42);
        assert!(lazy.try_tree(11).is_ok());
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
        let rebuilt = NaiveScheme::build(&trees[1].1);
        subject
            .repair_frame(11, rebuilt.as_store().as_words().to_vec())
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
