//! The §2 reduction: weight-0 proxy leaves plus binarization.
//!
//! The exact distance-labeling schemes assume (a) the tree is binary, (b) edge
//! weights are in `{0, 1}`, and (c) queries are between leaves only.  The paper
//! reduces an arbitrary unweighted tree to this setting by
//!
//! 1. attaching to every **internal** node `u` a new leaf `u⁺` with an edge of
//!    weight 0 (so `u`'s distances are represented by a leaf), and
//! 2. binarizing: every node with more than two children is expanded into a
//!    chain of new internal nodes connected by weight-0 edges.
//!
//! Both steps preserve all pairwise distances between (the proxies of) the
//! original nodes, and at most quadruple the node count.  [`Binarized`] packages
//! the transformed tree with the original-node → proxy-leaf mapping so that the
//! schemes can hide the reduction behind their public API.

use crate::{NodeId, Tree, TreeBuilder};

/// Result of the §2 reduction applied to an unweighted tree.
#[derive(Debug, Clone)]
pub struct Binarized {
    /// The binary `{0,1}`-weighted tree.
    tree: Tree,
    /// For every original node, the leaf of `tree` representing it.
    proxy: Vec<NodeId>,
}

impl Binarized {
    /// Applies the reduction to `original`.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not unit-weighted (the reduction is defined for
    /// unweighted input trees; weighted trees are handled by the schemes that
    /// accept them directly).
    pub fn new(original: &Tree) -> Self {
        assert!(
            original.is_unit_weighted(),
            "binarization expects an unweighted (unit-weight) tree"
        );
        Self::build(original)
    }

    /// Applies the reduction, returning `None` instead of panicking when the
    /// tree is weighted — the non-panicking entry used by shared build
    /// substrates that serve both weighted and unweighted schemes.
    pub fn try_new(original: &Tree) -> Option<Self> {
        if original.is_unit_weighted() {
            Some(Self::build(original))
        } else {
            None
        }
    }

    fn build(original: &Tree) -> Self {
        let mut b = TreeBuilder::new();
        let mut map: Vec<Option<NodeId>> = vec![None; original.len()];
        map[original.root().index()] = Some(b.root());

        // Build top-down in preorder, expanding high-degree nodes into chains.
        for u in original.preorder() {
            let new_u = map[u.index()].expect("parents are processed first");
            // The proxy leaf: original leaves are their own proxy, internal
            // nodes get a fresh 0-weight leaf attached *first* (so it hangs
            // directly off new_u, keeping d(proxy, x) == d(u, x)).
            let kids = original.children(u);
            let mut attach_point = new_u;
            // Items to hang below u: the 0-weight proxy leaf (internal nodes
            // only) followed by the original children with weight-1 edges.
            let mut queue: Vec<(NodeId, u64)> = Vec::with_capacity(kids.len() + 1);
            if !kids.is_empty() {
                queue.push((u, 0));
            }
            for &c in kids {
                queue.push((c, 1));
            }
            // Attach items two at a time; when more than two remain, one slot
            // is used by a 0-weight internal connector node.
            let mut qi = 0usize;
            while qi < queue.len() {
                let remaining = queue.len() - qi;
                let slots = if remaining <= 2 { remaining } else { 1 };
                for _ in 0..slots {
                    let (orig, w) = queue[qi];
                    qi += 1;
                    let node = b.add_child(attach_point, w);
                    // `orig == u` only happens for the proxy-leaf marker.
                    map[orig.index()] = Some(node);
                }
                if qi < queue.len() {
                    // connector node for the rest of the children
                    attach_point = b.add_child(attach_point, 0);
                }
            }
            if original.is_leaf(u) {
                map[u.index()] = Some(new_u);
            }
        }

        let tree = b.build();
        let proxy: Vec<NodeId> = map
            .into_iter()
            .map(|m| m.expect("every node mapped"))
            .collect();
        Binarized { tree, proxy }
    }

    /// The binary `{0,1}`-weighted tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The leaf of the binarized tree representing original node `u`.
    pub fn proxy(&self, u: NodeId) -> NodeId {
        self.proxy[u.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::lca::DistanceOracle;

    fn check(original: &Tree) {
        let bin = Binarized::new(original);
        let t = bin.tree();
        // Structural guarantees.
        assert!(t.is_binary(), "binarized tree must be binary");
        assert!(t.max_weight() <= 1, "weights must be in {{0,1}}");
        assert!(
            t.len() <= 4 * original.len() + 1,
            "size blowup is at most 4x"
        );
        for u in original.nodes() {
            assert!(t.is_leaf(bin.proxy(u)), "proxies are leaves");
        }
        // Distance preservation.
        let orig_oracle = DistanceOracle::new(original);
        let bin_oracle = DistanceOracle::new(t);
        let n = original.len();
        let pairs: Vec<(usize, usize)> = if n <= 30 {
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
        } else {
            (0..500).map(|i| ((i * 13) % n, (i * 89 + 7) % n)).collect()
        };
        for (a, c) in pairs {
            let (u, v) = (original.node(a), original.node(c));
            assert_eq!(
                orig_oracle.distance(u, v),
                bin_oracle.distance(bin.proxy(u), bin.proxy(v)),
                "distance({u},{v})"
            );
        }
    }

    #[test]
    fn binarize_shapes() {
        check(&Tree::singleton());
        check(&gen::path(20));
        check(&gen::star(20));
        check(&gen::caterpillar(6, 4));
        check(&gen::broom(5, 9));
        check(&gen::spider(6, 3));
        check(&gen::complete_kary(3, 3));
        check(&gen::complete_kary(5, 2));
        check(&gen::balanced_binary(25));
    }

    #[test]
    fn binarize_random_trees() {
        for seed in 0..6u64 {
            check(&gen::random_tree(150, seed));
            check(&gen::random_recursive(150, seed));
        }
    }

    #[test]
    fn proxies_are_distinct() {
        let t = gen::random_tree(200, 9);
        let bin = Binarized::new(&t);
        let mut seen = std::collections::HashSet::new();
        for u in t.nodes() {
            assert!(seen.insert(bin.proxy(u)), "proxy of {u} reused");
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn high_degree_node_expands_into_chain() {
        let star = gen::star(50);
        let bin = Binarized::new(&star);
        assert!(bin.tree().is_binary());
        // The root's proxy is at distance 0 from the root.
        let oracle = DistanceOracle::new(bin.tree());
        assert_eq!(
            oracle.distance(bin.tree().root(), bin.proxy(star.root())),
            0
        );
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn rejects_weighted_input() {
        let t = Tree::from_parents_weighted(&[None, Some(0)], Some(&[0, 3]));
        Binarized::new(&t);
    }

    #[test]
    fn try_new_mirrors_new_without_panicking() {
        let weighted = Tree::from_parents_weighted(&[None, Some(0)], Some(&[0, 3]));
        assert!(Binarized::try_new(&weighted).is_none());
        let plain = gen::random_tree(40, 3);
        let via_try = Binarized::try_new(&plain).expect("unweighted tree binarizes");
        let via_new = Binarized::new(&plain);
        assert_eq!(via_try.tree(), via_new.tree());
        for u in plain.nodes() {
            assert_eq!(via_try.proxy(u), via_new.proxy(u));
        }
    }
}
