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
//! calls through these kernels.  (The historical struct-backed query paths
//! survive only behind the off-by-default `legacy-labels` cargo feature, for
//! the wire-format decoders and their corruption adversaries.)
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
//!   shared frame buffer (a [`BitSlice`](treelab_bits::BitSlice) plus a bit
//!   offset plus the meta);
//! * `distance_refs` — the allocation-free query over two refs;
//! * `check_label` — the load-time extent check that rejects frames whose
//!   per-label counts disagree with the offset index.
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
//! The batch driver (`StoreRef::distances_write` in [`crate::store`])
//! executes **structure-of-arrays, software-pipelined**:
//!
//! 1. **Plan.** Pairs are consumed in fixed blocks of 64.  A planning stage
//!    resolves both labels' bit offsets through the offset index (and layout
//!    permutation, when present) into flat `sa[]`/`sb[]` arrays and issues a
//!    prefetch for each label's first cache line.  The plan buffers are
//!    fixed-size stack arrays (`BatchPlan`), so planning allocates nothing;
//!    the forest router embeds one plan in its `RouteScratch` and shares it
//!    across every per-tree group of a routed batch.
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
//! | **One-pair** | `distance_refs` | the per-pair entry (`StoreRef::distance`) and the batch engine's compute step; `tests/kernel_equivalence.rs` holds it to ground-truth distances |

pub mod approximate;
pub mod kdistance;
pub mod level_ancestor;
pub mod optimal;
pub mod psum;
