//! # treelab
//!
//! Distance labeling schemes for trees — a faithful, tested Rust reproduction
//! of *Optimal Distance Labeling Schemes for Trees* (Freedman, Gawrychowski,
//! Nicholson, Weimann; PODC 2017), packaged as a single facade crate.
//!
//! The workspace is split into three implementation crates, re-exported here:
//!
//! * [`bits`] (`treelab-bits`) — bit vectors, the Elias-code and Lemma 2.2
//!   monotone-sequence encoders, word-RAM helpers, order-preserving codes,
//!   CRC-64 framing, and the LSB-first packed reads behind [`core`]'s query
//!   kernels (the crate is write-only: it ships no MSB-first decoder);
//! * [`tree`] (`treelab-tree`) — the tree substrate: generators (including the
//!   paper's `(h,M)`-trees and `(x⃗,h,d)`-regular trees), LCA/distance oracles,
//!   the paper's heavy-path decomposition, collapsed trees and binarization;
//! * [`core`] (`treelab-core`) — the labeling schemes themselves: the optimal
//!   `¼·log²n` exact scheme, the `½·log²n` and `Θ(log²n)` baselines, the
//!   level-ancestor scheme and universal trees, `k`-distance labeling and
//!   `(1+ε)`-approximate labeling, plus the closed-form bounds.
//!
//! The most common entry points are also re-exported at the top level.
//!
//! # Example
//!
//! ```
//! use treelab::{gen, DistanceScheme, OptimalScheme};
//!
//! let tree = gen::random_tree(500, 1);
//! let scheme = OptimalScheme::build(&tree); // packs the native store frame
//! let (u, v) = (tree.node(5), tree.node(400));
//! // Answered from the two packed labels alone, via the shared query kernel.
//! assert_eq!(scheme.distance(u, v), tree.distance_naive(u, v));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use treelab_bits as bits;
pub use treelab_core as core;
pub use treelab_tree as tree;

pub use treelab_core::approximate::ApproximateScheme;
pub use treelab_core::distance_array::DistanceArrayScheme;
pub use treelab_core::forest::{
    Forest, ForestBuilder, ForestError, ForestFileError, ForestPin, ForestStore, FrameWords,
    HealthCounts, HealthReport, QueryStatus, RouteOutcome, RouteScratch, ScrubOutcome, ScrubStats,
    Scrubber, SlotHealth, ValidationPolicy,
};
pub use treelab_core::kdistance::KDistanceScheme;
pub use treelab_core::level_ancestor::LevelAncestorScheme;
pub use treelab_core::naive::NaiveScheme;
pub use treelab_core::optimal::OptimalConfig;
pub use treelab_core::optimal::OptimalScheme;
pub use treelab_core::store::{
    AnyStoreRef, SchemeStore, Store, StoreError, StoreRef, StoredScheme, CORRUPT_LABEL, NO_DISTANCE,
};
pub use treelab_core::{bounds, stats, DistanceScheme, Parallelism, Substrate};
pub use treelab_tree::lca::DistanceOracle;
pub use treelab_tree::metrics::TreeMetrics;
pub use treelab_tree::newick::{from_newick, to_newick};
pub use treelab_tree::{gen, heavy::HeavyPaths, NodeId, Tree, TreeBuilder};
