//! Label-region layouts: the order in which a frame's label region stores
//! its per-node labels.
//!
//! The packed-native refactor made the label region order-free — every query
//! goes through the offset index, so nothing forces label `u` to sit at
//! region position `u`.  This module exploits that freedom.  Distance queries
//! walk ancestor paths, and the §2 heavy-path decomposition guarantees any
//! root-to-node walk crosses O(log n) heavy paths; laying the label region
//! out in **heavy-path order** therefore places the labels a query touches
//! on O(log n) contiguous runs instead of O(depth) random cache lines.
//!
//! A non-identity layout is carried in the frame as a permutation word
//! region of the succinct (v3) offset index — see `FORMAT.md` — so a
//! clustered frame remains fully self-describing and its distances are
//! identical to the id-order build (asserted by the equivalence tests).

use treelab_tree::heavy::HeavyPaths;
use treelab_tree::Tree;

/// Which order the label region stores labels in.  A build-time knob on
/// [`crate::substrate::Substrate`]; queries are unaffected semantically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LabelLayout {
    /// Label `u` at region position `u` — the historical layout, and the
    /// only one a version-2 (u32-index) frame can express.
    #[default]
    IdOrder,
    /// Labels ordered by a heavy-child-first preorder of the tree: each
    /// heavy path's labels are contiguous, and every root-to-node label walk
    /// touches O(log n) contiguous runs.
    HeavyPath,
}

/// A concrete label-region permutation: `order` maps region position → node
/// id, `perm` maps node id → region position.
#[derive(Debug)]
pub(crate) struct Layout {
    order: Vec<u32>,
    perm: Vec<u32>,
}

impl Layout {
    /// Heavy-child-first preorder over `tree`: from every node the walk
    /// descends into the heavy child first, so each heavy path occupies one
    /// contiguous run of positions; light children follow in id order.
    ///
    /// # Panics
    ///
    /// Panics if `tree` has fewer than 2 or more than `u32::MAX` nodes (the
    /// frame stores permutation entries in ⌈log₂ n⌉ ≤ 32 bits; a one-node
    /// tree has only the identity layout).
    pub(crate) fn heavy_path(tree: &Tree, heavy: &HeavyPaths) -> Layout {
        let n = tree.len();
        assert!(
            (2..=u32::MAX as usize).contains(&n),
            "a clustered layout needs 2 ≤ n ≤ u32::MAX (n = {n})"
        );
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![tree.root()];
        while let Some(u) = stack.pop() {
            order.push(u.index() as u32);
            let hc = heavy.heavy_child(u);
            // Light children pushed first (reversed, so they pop in id
            // order), heavy child last so it pops immediately after `u`.
            for &c in tree.children(u).iter().rev() {
                if Some(c) != hc {
                    stack.push(c);
                }
            }
            if let Some(h) = hc {
                stack.push(h);
            }
        }
        debug_assert_eq!(order.len(), n, "preorder must visit every node once");
        let mut perm = vec![0u32; n];
        for (p, &u) in order.iter().enumerate() {
            perm[u as usize] = p as u32;
        }
        Layout { order, perm }
    }

    /// Node id stored at region position `p`.
    pub(crate) fn node_at(&self, p: usize) -> usize {
        self.order[p] as usize
    }

    /// Region position of node `u`'s label.
    pub(crate) fn pos_of(&self, u: usize) -> usize {
        self.perm[u] as usize
    }

    /// Number of labelled nodes.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::gen;

    #[test]
    fn heavy_path_layout_is_a_bijection_with_contiguous_paths() {
        for (n, seed) in [(2, 1), (17, 2), (400, 7), (1000, 42)] {
            let tree = gen::random_tree(n, seed);
            let heavy = HeavyPaths::new(&tree);
            let l = Layout::heavy_path(&tree, &heavy);
            assert_eq!(l.len(), n);
            // Bijection: pos_of inverts node_at.
            let mut seen = vec![false; n];
            for p in 0..n {
                let u = l.node_at(p);
                assert!(!seen[u]);
                seen[u] = true;
                assert_eq!(l.pos_of(u), p);
            }
            // Heavy-path clustering: a node's heavy child sits at the very
            // next region position.
            for u in tree.nodes() {
                if let Some(h) = heavy.heavy_child(u) {
                    assert_eq!(
                        l.pos_of(h.index()),
                        l.pos_of(u.index()) + 1,
                        "n={n} u={u:?}"
                    );
                }
            }
            // The root heads the region.
            assert_eq!(l.node_at(0), tree.root().index());
        }
    }
}
