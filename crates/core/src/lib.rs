//! # treelab-core
//!
//! Distance labeling schemes for trees — a production-quality reproduction of
//! *Optimal Distance Labeling Schemes for Trees* (Freedman, Gawrychowski,
//! Nicholson, Weimann; PODC 2017).
//!
//! A *labeling scheme* assigns a short bit string to every node of a tree so
//! that a function of two nodes (here: their distance) can be computed from the
//! two labels alone, with no access to the tree.  This crate implements:
//!
//! | Module | Scheme | Label size |
//! |--------|--------|------------|
//! | [`optimal`] | the paper's modified-distance-array scheme (Theorem 1.1) | `¼·log²n + o(log²n)` bits |
//! | [`distance_array`] | the Alstrup et al. distance-array baseline (§3.1) | `½·log²n + O(log n·log log n)` bits |
//! | [`naive`] | fixed-width ancestor tables (Peleg-style baseline) | `Θ(log²n)` bits |
//! | [`level_ancestor`] | parent / level-ancestor labeling (§3.6) | `½·log²n + O(log n)` bits |
//! | [`kdistance`] | `k`-distance labeling (Theorem 1.3) | `log n·O(1) + O(k·log((log n)/k))` bits |
//! | [`approximate`] | `(1+ε)`-approximate distances (Theorem 1.4) | `O(log(1/ε)·log n)` bits |
//! | [`hpath`] | the `O(log n)`-bit heavy-path/NCA auxiliary label (Lemma 2.1 substrate) | `O(log n)` bits |
//! | [`universal`] | universal rooted trees and the Lemma 3.6 conversion (§3.5) | — |
//! | [`bounds`] | closed-form upper/lower bound formulas (the §1 table) | — |
//! | [`stats`] | label-size accounting used by the experiment harness | — |
//! | [`substrate`] | shared build substrate + parallel pack rows + pack-time width planning | — |
//! | [`kernel`] | the shared packed-label query kernels (one per scheme family) | — |
//! | [`store`] | zero-copy scheme store: the native `TLSTOR01` frame, borrowed views, batch queries | — |
//! | [`forest`] | forest store: many trees behind one frame, with routed, shardable batch queries | — |
//!
//! # Packed-native representation
//!
//! The packed `TLSTOR01` frame is the **native** form of every scheme:
//! `build` packs each label straight into the frame (no intermediate
//! per-node label structs), the public scheme types are thin owners of a
//! [`SchemeStore`], serialization is a copy-free frame handoff, and every
//! `distance` entry point — scheme method, borrowed [`StoreRef`], runtime
//! [`AnyStoreRef`], forest routing — runs through one shared query kernel
//! per scheme family ([`kernel`]), with zero per-query allocation.
//! [`DistanceScheme::label_bits`] reports the size of each scheme's
//! self-delimiting *wire* encoding — the quantity the paper's bounds are
//! about — in closed form at build time; test-only encoders over the build
//! rows pin every formula to a real encoding bit for bit.
//!
//! All schemes offer a `build_with_substrate` constructor next to `build`:
//! create one [`Substrate`] per tree and every scheme built from it shares a
//! single heavy-path decomposition, auxiliary labeling and binarization, with
//! per-node row construction optionally fanned out over threads (see
//! [`Parallelism`]).  Frames are bit-for-bit identical either way.
//!
//! # Quick start
//!
//! ```
//! use treelab_tree::gen;
//! use treelab_core::optimal::OptimalScheme;
//! use treelab_core::DistanceScheme;
//!
//! let tree = gen::random_tree(300, 7);
//! let scheme = OptimalScheme::build(&tree);
//! let (u, v) = (tree.node(12), tree.node(250));
//! // Distances are answered from the two packed labels alone.
//! assert_eq!(scheme.distance(u, v), tree.distance_naive(u, v));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approximate;
pub mod bounds;
pub mod distance_array;
pub mod forest;
pub mod hpath;
pub mod kdistance;
pub mod kernel;
pub mod layout;
pub mod level_ancestor;
pub mod naive;
pub mod optimal;
pub mod stats;
pub mod store;
pub mod substrate;
pub mod universal;

#[cfg(all(feature = "mmap", unix))]
pub use forest::MappedForest;
pub use forest::{
    ForestBuilder, ForestError, ForestFileError, ForestPin, ForestRef, ForestStore, RouteScratch,
    ValidationPolicy, VerifyCursor,
};
pub use layout::LabelLayout;
pub use store::{AnyStoreRef, IndexWidth, SchemeStore, StoreError, StoreRef, StoredScheme};
pub use substrate::{Parallelism, Substrate};

use treelab_tree::{NodeId, Tree};

/// Common interface of the exact distance-labeling schemes.
///
/// `build` preprocesses the tree, assigns a packed label to every node and
/// stores them in the scheme's native frame ([`StoredScheme::as_store`]);
/// `distance` answers a query **from the two packed labels alone** through
/// the scheme family's shared query kernel ([`crate::kernel`]) — the label
/// views carry no access to the scheme or the tree, which is the defining
/// property of a labeling scheme (see [`StoredScheme::distance_refs`] for
/// the two-label form).
pub trait DistanceScheme: StoredScheme {
    /// Builds labels for every node of `tree`, packed directly into the
    /// scheme's native store frame.
    ///
    /// The exact schemes expect an unweighted tree (they apply the §2
    /// binarization reduction internally); see each implementation's
    /// documentation for details.
    fn build(tree: &Tree) -> Self;

    /// Builds the scheme from a shared [`Substrate`], so that several schemes
    /// over the same tree compute the decomposition/binarization once and fan
    /// the per-node row work out according to the substrate's
    /// [`Parallelism`].
    ///
    /// Produces a frame bit-for-bit identical to [`DistanceScheme::build`].
    /// Required (no default) so an implementation cannot silently fall back to
    /// rebuilding the substrate per scheme.
    fn build_with_substrate(sub: &Substrate<'_>) -> Self;

    /// Borrowed view of node `u`'s packed label inside the scheme's frame.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    fn label_ref(&self, u: NodeId) -> Self::Ref<'_> {
        self.as_store().label_ref(u.index())
    }

    /// Exact distance between nodes `u` and `v`, computed from the two packed
    /// labels alone (one [`crate::kernel`] call, zero allocation).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    fn distance(&self, u: NodeId, v: NodeId) -> u64 {
        self.as_store().distance(u.index(), v.index())
    }

    /// Size in bits of the label of node `u` in its self-delimiting **wire**
    /// encoding — the quantity every bound in the paper is stated about.
    /// (The packed in-frame size is available as
    /// `as_store().label_bits(u.index())`.)
    fn label_bits(&self, u: NodeId) -> usize;

    /// Maximum wire label size over all nodes, in bits.
    fn max_label_bits(&self) -> usize;

    /// Human-readable scheme name used by the experiment harness.
    fn name() -> &'static str {
        Self::STORE_NAME
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for the scheme test modules.

    use super::DistanceScheme;
    use treelab_tree::lca::DistanceOracle;
    use treelab_tree::Tree;

    /// Checks an exact scheme against the ground-truth oracle on all pairs
    /// (small trees) or a deterministic sample of pairs (larger trees).
    pub(crate) fn check_exact_scheme<S: DistanceScheme>(tree: &Tree) {
        let scheme = S::build(tree);
        let oracle = DistanceOracle::new(tree);
        let n = tree.len();
        let pairs: Vec<(usize, usize)> = if n <= 25 {
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
        } else {
            (0..900)
                .map(|i| ((i * 23) % n, (i * 71 + 11) % n))
                .collect()
        };
        for (x, y) in pairs {
            let (u, v) = (tree.node(x), tree.node(y));
            assert_eq!(
                scheme.distance(u, v),
                oracle.distance(u, v),
                "{} failed on ({u},{v}), n={n}",
                S::name()
            );
        }
    }
}
