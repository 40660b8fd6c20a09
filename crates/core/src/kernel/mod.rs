//! The shared query kernels: one packed-label query engine per scheme
//! family, serving **every** entry point of the crate.
//!
//! # Why this module exists
//!
//! The `TLSTOR01` packed frame (see [`crate::store`] and `FORMAT.md`) is the
//! *native* representation of every labeling scheme in this crate: `build`
//! packs straight into a frame, the public scheme types are thin owners of a
//! [`SchemeStore`](crate::store::SchemeStore), and serialization is a frame
//! handoff.  Consequently there is exactly **one** decode-side implementation
//! of every query protocol, and it lives here: the scheme modules, the
//! store views ([`StoreRef`](crate::store::StoreRef),
//! [`AnyStoreRef`](crate::store::AnyStoreRef)) and the forest serving layer
//! ([`crate::forest`]) all route their `distance` / `distance_refs` / batch
//! calls through these kernels.
//!
//! # Kernel ↔ paper labeling map
//!
//! | Kernel | Schemes | Paper labeling |
//! |--------|---------|----------------|
//! | [`psum`] | [`NaiveScheme`](crate::naive::NaiveScheme), [`DistanceArrayScheme`](crate::distance_array::DistanceArrayScheme) | the prefix-sum pair: Peleg-style fixed-width ancestor tables and the Alstrup et al. distance arrays of Lemma 3.1/§3.1 — both query via one codeword LCP plus a fused per-level record scan over `branch_rd[i] = Σ_{t ≤ i} d_t − weight_i` |
//! | [`optimal`] | [`OptimalScheme`](crate::optimal::OptimalScheme) | Theorem 1.1: modified distance arrays with bit pushing (§3.2) and fragments (§3.3); completes the codeword-LCP trio of exact schemes |
//! | [`kdistance`] | [`KDistanceScheme`](crate::kdistance::KDistanceScheme) | Theorem 1.3 (§4.3–§4.4): bounded distances via significant-ancestor sequences, capped offsets and the Lemma 4.5 two-approximation tables |
//! | [`approximate`] | [`ApproximateScheme`](crate::approximate::ApproximateScheme) | Theorem 1.4 (§5.2): `(1+ε)`-approximate distances from rounded significant-ancestor distances |
//! | [`level_ancestor`] | [`LevelAncestorScheme`](crate::level_ancestor::LevelAncestorScheme) | §3.6: the parent / level-ancestor labeling (a re-phrasing of the Alstrup et al. distance labels), queried as an exact distance scheme |
//!
//! # Anatomy of a kernel
//!
//! Each family contributes the same four pieces:
//!
//! * a **meta** type ([`psum::PsumMeta`], [`optimal::OptimalMeta`], …): the
//!   store-global fixed field widths of the packed layout, parsed from the
//!   frame's meta words once at load time together with every derived
//!   shift/mask the hot path needs;
//! * a **ref** type: a `Copy` borrowed view of one packed label inside the
//!   shared frame buffer (a [`BitSlice`](treelab_bits::BitSlice), the
//!   label's offset-index extent `[start, end)`, and the meta);
//! * an `extent` helper per meta: the bits a label's header counts
//!   describe;
//! * `distance_refs` — the allocation-free query over two refs, which
//!   checks each side's extent before it reads the side's fields.
//!
//! # Corrupt labels
//!
//! A query is a function of two bit strings alone, and every kernel is
//! *total* over them.  The load does not visit labels, so the query checks
//! the two it reads, per side, before reading either's fields:
//! `start ≤ end ≤ label_bits` with room for the header (`extent_len`),
//! then the header's `extent` equal to `end − start` (`exact`; the
//! optimal scheme adds its accumulator total, which its last record
//! names, and the aux-carrying schemes check their aux scalars lie inside
//! the label before reading the light depth that sizes the rest).  Every
//! fixed-layout read is then inside the label by construction; only the
//! data-driven reads — an index into the other side's records, or the
//! optimal scheme's pushed bits in the other label's accumulators — keep
//! bounds of their own.  `distance_refs` returns `None` — the corrupt
//! verdict, [`CORRUPT_LABEL`](crate::store::CORRUPT_LABEL) at the store
//! boundary — when a side fails its check, a record scan finds no level,
//! an index leaves its array or arithmetic would wrap.  Every loop is
//! bounded by a count inside a checked extent.  Rot that still decodes (a
//! flipped distance field) is left to the scrubber's checksums.
//!
//! The heavy-path auxiliary machinery the exact kernels share (fused scalar
//! reads, the word-level codeword LCP) lives in [`crate::hpath`]
//! (`AuxWidths`/`AuxDims`/`HpathRef`), because it is the Lemma 2.1 substrate
//! rather than a per-family protocol.  Pack-time **width planning** — the
//! build-side scan that chooses the global field widths each meta records —
//! is driven by the scheme builders through the crate-internal
//! `substrate::PackSource` trait.
//!
//! # Execution model of the batch path
//!
//! A batch of pairs does not run as a loop of independent per-pair queries.
//! The batch driver (`Store::distances_write` in [`crate::store`])
//! executes **structure-of-arrays, software-pipelined**:
//!
//! 1. **Plan.** Pairs are consumed in fixed blocks of 64.  A planning stage
//!    resolves both labels' start offsets through the offset index into
//!    flat `sa[]`/`sb[]` arrays and issues a prefetch for each label's
//!    first cache line (the compute stage reads each end offset, the
//!    adjacent index entry, from the line the plan just touched).  The plan buffers are
//!    fixed-size stack arrays (`BatchPlan`), so planning allocates nothing;
//!    the forest router keeps one plan in its `RouteScratch` and shares it
//!    across every per-tree group of a batch.
//! 2. **Pipeline.** Blocks are double-buffered: while block `k` computes,
//!    block `k + 1` is planned, so index-resolution misses overlap kernel
//!    work.  Inside the compute loop the driver also prefetches the labels
//!    of the query 8 positions ahead, keeping several label fetches in
//!    flight — the batch path's throughput edge over the per-pair entry
//!    points is exactly this memory-level parallelism.
//! 3. **Compute.** Each planned pair runs through the scheme's one-pair
//!    `distance_refs` — the same kernel the per-pair entry points call, so
//!    batch and per-pair answers cannot diverge.  Within a query the two
//!    sides' fused reads are issued as one planned load *pair*
//!    (`read_lsb_pair`), and the short record scans of the [`psum`] and
//!    [`level_ancestor`] kernels run with a data-independent trip count (a
//!    count of qualifying end positions instead of an early-exit branch), so
//!    random pairs do not pay for mispredicted exits.
//!
//! # Execution mode
//!
//! Every kernel has exactly one query path — the paper's word-RAM procedure,
//! a few `msb`/LCP/shift operations per level — shared by every entry point:
//!
//! | Mode | Entry points | Role |
//! |------|--------------|------|
//! | **One-pair** | `distance_refs` | the per-pair entry (`Store::distance`) and the batch engine's compute step; `tests/kernel_equivalence.rs` holds it to ground-truth distances |

pub mod approximate;
pub mod kdistance;
pub mod level_ancestor;
pub mod optimal;
pub mod psum;

/// The bit length of a label view's index extent `[start, end)` when it
/// lies inside the label region `s` and holds the `hdr`-bit header, else
/// the corrupt verdict.  Every kernel runs this per side before it reads
/// the label, so the header read stays inside the region.
#[inline]
pub(crate) fn extent_len(
    s: treelab_bits::BitSlice<'_>,
    start: usize,
    end: usize,
    hdr: usize,
) -> Option<usize> {
    let len = end.checked_sub(start)?;
    (end <= s.len() && len >= hdr).then_some(len)
}

/// `Some` when the bits a header describes (`None`: an overflowed count)
/// are exactly `len`, the view's index extent, else the corrupt verdict.
#[inline]
pub(crate) fn exact(described: Option<usize>, len: usize) -> Option<()> {
    (described == Some(len)).then_some(())
}
