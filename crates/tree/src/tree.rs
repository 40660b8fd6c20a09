//! The rooted-tree arena used by every scheme and generator in the workspace.

use std::fmt;

/// Identifier of a node inside a [`Tree`].
///
/// Node identifiers are dense indices `0..tree.len()`; they are only meaningful
/// together with the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// A rooted tree with ordered children and non-negative integer edge weights.
///
/// Unweighted trees use weight 1 on every edge; the §2 binarization reduction
/// introduces weight-0 edges; the `(h,M)`-tree lower-bound family uses weights
/// up to `M`.
///
/// The topology is stored as flat arrays in compressed sparse row form: a
/// `u32` parent per node, and every node's children in one array indexed by
/// per-node offsets (children in increasing index order).  That is 24 bytes
/// per node with no per-node allocation, so node counts are limited to below
/// 2³².
///
/// # Example
///
/// ```
/// use treelab_tree::{Tree, TreeBuilder};
///
/// let mut b = TreeBuilder::new();
/// let root = b.root();
/// let a = b.add_child(root, 1);
/// let c = b.add_child(root, 1);
/// let d = b.add_child(a, 1);
/// let tree: Tree = b.build();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.parent(d), Some(a));
/// assert_eq!(tree.children(root), &[a, c]);
/// assert!(tree.is_leaf(c));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Tree {
    /// Parent index per node; [`NO_PARENT`] marks the root.
    parent: Vec<u32>,
    /// `kids[start[u]..start[u + 1]]` are the children of `u` (n + 1 entries).
    start: Vec<u32>,
    /// Every node's children, grouped by parent in index order.
    kids: Vec<NodeId>,
    /// Weight of the edge from a node to its parent (0 and unused for the root).
    parent_weight: Vec<u64>,
    root: NodeId,
}

/// The root's entry in a parent array.
const NO_PARENT: u32 = u32::MAX;

impl Tree {
    /// Creates a tree with a single root node.
    pub fn singleton() -> Self {
        TreeBuilder::new().build()
    }

    /// Builds a tree from a parent array.
    ///
    /// `parents[i]` is the parent index of node `i`, or `None` exactly for the
    /// root.  All edges get weight 1.  Children are ordered by increasing node
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if the array does not describe a tree (zero or multiple roots,
    /// out-of-range parents, or cycles).
    pub fn from_parents(parents: &[Option<usize>]) -> Self {
        Self::from_parents_weighted(parents, None)
    }

    /// Like [`Tree::from_parents`] with explicit edge weights
    /// (`weights[i]` = weight of the edge from node `i` to its parent).
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths or do not describe a tree.
    pub fn from_parents_weighted(parents: &[Option<usize>], weights: Option<&[u64]>) -> Self {
        let n = parents.len();
        assert!(n > 0, "a tree has at least one node");
        assert!(n <= NO_PARENT as usize, "a tree has fewer than 2^32 nodes");
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weights length must match parents length");
        }
        let mut root = None;
        let mut parent = vec![NO_PARENT; n];
        let mut parent_weight = vec![0u64; n];
        for (i, &p) in parents.iter().enumerate() {
            match p {
                None => {
                    assert!(root.is_none(), "multiple roots");
                    root = Some(NodeId(i));
                }
                Some(p) => {
                    assert!(p < n, "parent index {p} out of range");
                    assert!(p != i, "node {i} cannot be its own parent");
                    parent[i] = p as u32;
                    parent_weight[i] = weights.map_or(1, |w| w[i]);
                }
            }
        }
        let root = root.expect("no root found");
        let tree = Self::from_parent_array(parent, parent_weight, root);
        assert!(
            tree.is_connected_acyclic(),
            "parent array contains a cycle or disconnected node"
        );
        tree
    }

    /// Groups the children by parent with one counting sort over `parent`
    /// (one root, every other entry in range), keeping index order within
    /// each group.
    fn from_parent_array(parent: Vec<u32>, parent_weight: Vec<u64>, root: NodeId) -> Self {
        let n = parent.len();
        let mut start = vec![0u32; n + 1];
        for &p in parent.iter().filter(|&&p| p != NO_PARENT) {
            start[p as usize + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut next = start[..n].to_vec();
        let mut kids = vec![NodeId(0); n - 1];
        for (i, &p) in parent.iter().enumerate().filter(|&(_, &p)| p != NO_PARENT) {
            kids[next[p as usize] as usize] = NodeId(i);
            next[p as usize] += 1;
        }
        Tree {
            parent,
            start,
            kids,
            parent_weight,
            root,
        }
    }

    fn is_connected_acyclic(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.root];
        let mut count = 0;
        while let Some(u) = stack.pop() {
            if seen[u.0] {
                return false;
            }
            seen[u.0] = true;
            count += 1;
            stack.extend(self.children(u).iter().copied());
        }
        count == self.len()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// A tree is never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Wraps an index into a [`NodeId`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn node(&self, index: usize) -> NodeId {
        assert!(index < self.len(), "node index {index} out of range");
        NodeId(index)
    }

    /// Parent of `u`, or `None` for the root.
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        let p = self.parent[u.0];
        (p != NO_PARENT).then_some(NodeId(p as usize))
    }

    /// Ordered children of `u`.
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.kids[self.start[u.0] as usize..self.start[u.0 + 1] as usize]
    }

    /// Weight of the edge from `u` to its parent (0 for the root).
    pub fn parent_weight(&self, u: NodeId) -> u64 {
        self.parent_weight[u.0]
    }

    /// Number of children of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        (self.start[u.0 + 1] - self.start[u.0]) as usize
    }

    /// Returns `true` if `u` has no children.
    pub fn is_leaf(&self, u: NodeId) -> bool {
        self.degree(u) == 0
    }

    /// Returns `true` if `u` is the root.
    pub fn is_root(&self, u: NodeId) -> bool {
        u == self.root
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// All leaves, in index order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.is_leaf(u)).collect()
    }

    /// Returns `true` if every node has at most two children.
    pub fn is_binary(&self) -> bool {
        self.nodes().all(|u| self.degree(u) <= 2)
    }

    /// Returns `true` if every edge has weight 1.
    pub fn is_unit_weighted(&self) -> bool {
        self.nodes()
            .filter(|&u| !self.is_root(u))
            .all(|u| self.parent_weight(u) == 1)
    }

    /// Maximum edge weight (0 for a single-node tree).
    pub fn max_weight(&self) -> u64 {
        self.nodes()
            .filter(|&u| !self.is_root(u))
            .map(|u| self.parent_weight(u))
            .max()
            .unwrap_or(0)
    }

    /// Nodes in preorder (parent before children, children in stored order).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            out.push(u);
            // Push children in reverse so they pop in order.
            for &c in self.children(u).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Nodes in postorder (children before parent).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        // Two-stack iterative postorder.
        let mut stack = vec![self.root];
        while let Some(u) = stack.pop() {
            out.push(u);
            for &c in self.children(u) {
                stack.push(c);
            }
        }
        out.reverse();
        out
    }

    /// Subtree sizes indexed by node.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.len()];
        for &u in &self.postorder() {
            for &c in self.children(u) {
                size[u.0] += size[c.0];
            }
        }
        size
    }

    /// Unweighted depths (number of edges from the root) indexed by node.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.len()];
        for &u in &self.preorder() {
            if let Some(p) = self.parent(u) {
                depth[u.0] = depth[p.0] + 1;
            }
        }
        depth
    }

    /// Weighted distances from the root indexed by node.
    pub fn root_distances(&self) -> Vec<u64> {
        let mut dist = vec![0u64; self.len()];
        for &u in &self.preorder() {
            if let Some(p) = self.parent(u) {
                dist[u.0] = dist[p.0] + self.parent_weight(u);
            }
        }
        dist
    }

    /// Height of the tree in edges (0 for a single node).
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// The ancestors of `u` from `u` itself up to and including the root.
    pub fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = vec![u];
        let mut cur = u;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Returns `true` if `a` is an ancestor of (or equal to) `d`.
    ///
    /// Linear in the depth of `d`; the O(1) version lives in the LCA oracle.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        let mut cur = Some(d);
        while let Some(u) = cur {
            if u == a {
                return true;
            }
            cur = self.parent(u);
        }
        false
    }

    /// Exact weighted distance computed by walking to the root from both nodes.
    ///
    /// Linear time; the schemes are validated against the O(1)
    /// [`crate::lca::DistanceOracle`], which is itself validated against this.
    pub fn distance_naive(&self, u: NodeId, v: NodeId) -> u64 {
        let du = self.ancestors(u);
        let dv = self.ancestors(v);
        let set: std::collections::HashSet<NodeId> = du.iter().copied().collect();
        // Deepest common ancestor = first ancestor of v that is an ancestor of u.
        let mut lca = self.root;
        for &a in &dv {
            if set.contains(&a) {
                lca = a;
                break;
            }
        }
        let rd = self.root_distances();
        rd[u.0] + rd[v.0] - 2 * rd[lca.0]
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tree(n={}, root={}, height={})",
            self.len(),
            self.root,
            self.height()
        )
    }
}

/// Incremental builder for [`Tree`], convenient for generators.
///
/// The builder starts with a root node (id 0) already present.  It holds
/// only the parent and weight arrays; [`TreeBuilder::build`] groups the
/// children.
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    parent: Vec<u32>,
    parent_weight: Vec<u64>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    /// Creates a builder containing only the root node.
    pub fn new() -> Self {
        TreeBuilder {
            parent: vec![NO_PARENT],
            parent_weight: vec![0],
        }
    }

    /// Creates a builder containing only the root node, with room reserved
    /// for `nodes` nodes in total.
    ///
    /// Identical to [`TreeBuilder::new`] except that the per-node arrays are
    /// allocated up front, so streaming `nodes - 1` `add_child` calls never
    /// reallocates — the giant-tree generators rely on this to keep a single
    /// resident copy of the topology while building tens of millions of
    /// nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let nodes = nodes.max(1);
        let mut b = TreeBuilder {
            parent: Vec::with_capacity(nodes),
            parent_weight: Vec::with_capacity(nodes),
        };
        b.parent.push(NO_PARENT);
        b.parent_weight.push(0);
        b
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `false`: the builder always contains at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds a child of `parent` connected by an edge of weight `weight`,
    /// returning the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node created by this builder.
    pub fn add_child(&mut self, parent: NodeId, weight: u64) -> NodeId {
        assert!(parent.0 < self.parent.len(), "unknown parent {parent}");
        assert!(
            self.parent.len() < NO_PARENT as usize,
            "a tree has fewer than 2^32 nodes"
        );
        let id = NodeId(self.parent.len());
        self.parent.push(parent.0 as u32);
        self.parent_weight.push(weight);
        id
    }

    /// Overwrites the weight of the edge between `child` and its parent.
    ///
    /// Used by parsers (e.g. Newick) where a child's edge length is only known
    /// after its subtree has been built.
    ///
    /// # Panics
    ///
    /// Panics if `child` is unknown or is the root.
    pub fn set_parent_weight(&mut self, child: NodeId, weight: u64) {
        assert!(child.0 < self.parent.len(), "unknown node {child}");
        assert!(child.0 != 0, "the root has no parent edge");
        self.parent_weight[child.0] = weight;
    }

    /// Adds a chain of `count` nodes below `parent`, each edge of weight
    /// `weight`, returning the last node of the chain (or `parent` when
    /// `count == 0`).
    pub fn add_chain(&mut self, parent: NodeId, count: usize, weight: u64) -> NodeId {
        let mut cur = parent;
        for _ in 0..count {
            cur = self.add_child(cur, weight);
        }
        cur
    }

    /// Finishes building.
    pub fn build(self) -> Tree {
        Tree::from_parent_array(self.parent, self.parent_weight, NodeId(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Tree {
        // 0
        // ├── 1
        // │   ├── 3
        // │   └── 4
        // │       └── 5
        // └── 2
        Tree::from_parents(&[None, Some(0), Some(0), Some(1), Some(1), Some(4)])
    }

    #[test]
    fn from_parents_basics() {
        let t = sample_tree();
        assert_eq!(t.len(), 6);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(4)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert!(t.is_leaf(NodeId(2)));
        assert!(!t.is_leaf(NodeId(1)));
        assert!(t.is_root(NodeId(0)));
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.leaves(), vec![NodeId(2), NodeId(3), NodeId(5)]);
        assert!(t.is_unit_weighted());
        assert!(t.is_binary());
        assert_eq!(t.max_weight(), 1);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn traversals_and_sizes() {
        let t = sample_tree();
        let pre = t.preorder();
        assert_eq!(pre[0], NodeId(0));
        assert_eq!(pre.len(), 6);
        // Parent appears before each child in preorder.
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &u) in pre.iter().enumerate() {
                p[u.0] = i;
            }
            p
        };
        for u in t.nodes() {
            if let Some(par) = t.parent(u) {
                assert!(pos[par.0] < pos[u.0]);
            }
        }
        let post = t.postorder();
        assert_eq!(post[5], NodeId(0));
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 6);
        assert_eq!(sizes[1], 4);
        assert_eq!(sizes[4], 2);
        assert_eq!(sizes[2], 1);
        let depths = t.depths();
        assert_eq!(depths, vec![0, 1, 1, 2, 2, 3]);
        assert_eq!(t.root_distances(), vec![0, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn weighted_tree() {
        let t =
            Tree::from_parents_weighted(&[None, Some(0), Some(1), Some(1)], Some(&[0, 5, 0, 7]));
        assert_eq!(t.parent_weight(NodeId(1)), 5);
        assert_eq!(t.parent_weight(NodeId(2)), 0);
        assert_eq!(t.root_distances(), vec![0, 5, 5, 12]);
        assert!(!t.is_unit_weighted());
        assert_eq!(t.max_weight(), 7);
        assert_eq!(t.distance_naive(NodeId(2), NodeId(3)), 7);
        assert_eq!(t.distance_naive(NodeId(0), NodeId(3)), 12);
    }

    #[test]
    fn ancestors_and_is_ancestor() {
        let t = sample_tree();
        assert_eq!(
            t.ancestors(NodeId(5)),
            vec![NodeId(5), NodeId(4), NodeId(1), NodeId(0)]
        );
        assert!(t.is_ancestor(NodeId(1), NodeId(5)));
        assert!(t.is_ancestor(NodeId(5), NodeId(5)));
        assert!(!t.is_ancestor(NodeId(2), NodeId(5)));
        assert!(!t.is_ancestor(NodeId(5), NodeId(1)));
    }

    #[test]
    fn distance_naive_matches_hand_computed() {
        let t = sample_tree();
        assert_eq!(t.distance_naive(NodeId(3), NodeId(5)), 3);
        assert_eq!(t.distance_naive(NodeId(2), NodeId(5)), 4);
        assert_eq!(t.distance_naive(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.distance_naive(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn builder_matches_from_parents() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r, 1);
        let c = b.add_child(r, 1);
        let d = b.add_child(a, 1);
        let e = b.add_child(a, 1);
        let f = b.add_child(e, 1);
        assert_eq!(b.len(), 6);
        let t = b.build();
        let expect = Tree::from_parents(&[None, Some(0), Some(0), Some(1), Some(1), Some(4)]);
        assert_eq!(t, expect);
        assert_eq!(
            (a, c, d, e, f),
            (NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5))
        );
    }

    #[test]
    fn builder_add_chain() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let end = b.add_chain(r, 4, 2);
        let t = b.build();
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 4);
        assert_eq!(t.root_distances()[end.0], 8);
        let end2 = {
            let mut b = TreeBuilder::new();
            let r = b.root();
            b.add_chain(r, 0, 1)
        };
        assert_eq!(end2, NodeId(0));
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::singleton();
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.height(), 0);
        assert_eq!(t.leaves(), vec![NodeId(0)]);
        assert_eq!(t.distance_naive(NodeId(0), NodeId(0)), 0);
    }

    #[test]
    fn equal_shapes_compare_equal_however_built() {
        let parents = [None, Some(0), Some(0), Some(1), Some(2), Some(2), Some(4)];
        let mut b = TreeBuilder::new();
        for &p in parents.iter().flatten() {
            b.add_child(NodeId(p), 1);
        }
        assert_eq!(b.build(), Tree::from_parents(&parents));
    }

    #[test]
    #[should_panic(expected = "multiple roots")]
    fn rejects_multiple_roots() {
        Tree::from_parents(&[None, None]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_cycles() {
        // 1 -> 2 -> 1 cycle, disconnected from root 0.
        Tree::from_parents(&[None, Some(2), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_parent() {
        Tree::from_parents(&[None, Some(7)]);
    }

    #[test]
    fn node_id_display_and_conversion() {
        let id: NodeId = 3usize.into();
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "n3");
    }
}
