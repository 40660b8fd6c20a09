//! Heavy-path decomposition (the paper's §2 variant), the collapsed tree
//! `C(T)`, light depths, light ranges, significant ancestors and domination.
//!
//! The decomposition differs from the textbook one: starting at the root of an
//! *instance* `T` (the whole tree, or a subtree hanging off an already-built
//! heavy path), we repeatedly descend to the (unique) child whose subtree has
//! size **at least `|T|/2`**, where `|T|` is the size of the instance — *not*
//! the size of the current node's subtree.  Consequently every subtree hanging
//! off the heavy path by a light edge has size `< |T|/2`, so the light depth of
//! every node is at most `log₂ n`, and the sizes seen along any root-to-node
//! sequence of light edges at least halve at each step — the property that all
//! the label-size bounds in the paper lean on.
//!
//! On top of the decomposition this module builds:
//!
//! * the **collapsed tree** `C(T)` whose nodes are heavy paths, with children
//!   ordered top-to-bottom by branch point (ties at the last path node are
//!   broken so the largest subtree is rightmost and its edge is *exceptional*);
//! * a **domination order**: `u` dominates `v` when `u`'s heavy path precedes
//!   `v`'s in the post-order of `C(T)`, which realizes Observations (1)–(2) of
//!   §2 (the side that branches off the common heavy path closer to its head
//!   dominates, and the exceptional side is dominated);
//! * **preorder numbers** with the heavy child visited last, so that the light
//!   range `L_u` (preorders of `T_u` minus the heavy subtree) is a contiguous
//!   interval — the §4 machinery; and
//! * **significant ancestors**: the ancestors `w` of `u` with `pre(u) ∈ L_w`,
//!   i.e. `u` itself plus the branch points of the light edges on the
//!   root-to-`u` path.

use crate::{NodeId, Tree};

/// Identifier of a heavy path (equivalently, of a node of the collapsed tree).
pub type PathId = usize;

/// Information about one light edge on the path from the root to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LightEdge {
    /// Light depth of the subtree the edge leads into (1 for the first light
    /// edge below the root heavy path).
    pub depth: usize,
    /// The heavy path the edge branches from (at light depth `depth − 1`).
    pub parent_path: PathId,
    /// The heavy path the edge leads into (at light depth `depth`).
    pub child_path: PathId,
    /// The node on `parent_path` the edge branches from.
    pub branch_node: NodeId,
    /// Weighted distance from the head of `parent_path` to `branch_node`.
    pub branch_offset: u64,
    /// Weight of the light edge itself.
    pub edge_weight: u64,
    /// Head of `child_path` (the lower endpoint of the light edge).
    pub child_head: NodeId,
    /// Whether this is the exceptional edge of `parent_path`.
    pub exceptional: bool,
}

/// Heavy-path decomposition of a tree plus the derived structures described in
/// the module documentation.
///
/// # Example
///
/// ```
/// use treelab_tree::{gen, heavy::HeavyPaths};
///
/// let tree = gen::random_tree(500, 1);
/// let hp = HeavyPaths::new(&tree);
/// for u in tree.nodes() {
///     // Light depth is at most log2 n (Sleator–Tarjan style argument, §2).
///     assert!(1usize << hp.light_depth(u) <= tree.len());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HeavyPaths {
    // ---- per node -------------------------------------------------------
    subtree_size: Vec<usize>,
    heavy_child: Vec<Option<NodeId>>,
    path_of: Vec<PathId>,
    pos_in_path: Vec<usize>,
    head_offset: Vec<u64>,
    light_depth: Vec<usize>,
    pre: Vec<usize>,
    root_distance: Vec<u64>,
    // ---- per heavy path / collapsed node ---------------------------------
    // CSR: path `p`'s nodes are `path_nodes[paths[p].start..]` and its
    // collapsed children `cchildren[paths[p].cstart..]`, each up to the next
    // path's offset (or the arena's end for the last path).
    paths: Vec<PathRec>,
    path_nodes: Vec<NodeId>,
    cchildren: Vec<PathId>,
}

/// Per-path record of [`HeavyPaths`], `u32`-packed (n ≤ `u32::MAX`); the
/// root path (id 0) has no parent, so its `parent`/`branch` are unused.
#[derive(Debug, Clone, Copy)]
struct PathRec {
    start: u32,
    cstart: u32,
    parent: u32,
    branch: u32,
    corder: u32,
    exceptional: bool,
    incoming_weight: u64,
}

impl HeavyPaths {
    /// Builds the decomposition in O(n log n) time (O(n) plus sorting of light
    /// children per path), with a constant number of growing arrays: no
    /// per-path allocation.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        assert!(u32::try_from(n).is_ok(), "heavy paths need n ≤ u32::MAX");
        let mut hp = HeavyPaths {
            subtree_size: tree.subtree_sizes(),
            heavy_child: vec![None; n],
            path_of: vec![usize::MAX; n],
            pos_in_path: vec![0; n],
            head_offset: vec![0; n],
            light_depth: vec![0; n],
            pre: vec![0; n],
            root_distance: tree.root_distances(),
            paths: Vec::new(),
            path_nodes: Vec::with_capacity(n),
            cchildren: Vec::new(),
        };
        hp.decompose(tree);
        hp.assign_preorder(tree);
        hp.assign_corder();
        hp
    }

    /// Builds every heavy path, instance by instance in DFS preorder of the
    /// collapsed tree (path ids number parents before children, siblings in
    /// child order).
    fn decompose(&mut self, tree: &Tree) {
        // Pending instances: (head, exceptional, slot in the parent's
        // children); the light edge into `head` ends the parent's path.
        let mut stack = vec![(tree.root(), false, usize::MAX)];
        // (branch pos, size key, branch node, child), reused across paths.
        let mut light: Vec<(usize, usize, NodeId, NodeId)> = Vec::new();
        while let Some((root, exceptional, slot)) = stack.pop() {
            let path_id = self.paths.len();
            let (branch, parent, light_depth) = match tree.parent(root) {
                Some(w) => {
                    self.cchildren[slot] = path_id;
                    (w, self.path_of[w.index()], self.light_depth[w.index()] + 1)
                }
                None => (root, 0, 0),
            };
            let start = self.path_nodes.len();
            let instance_size = self.subtree_size[root.index()];

            // Walk the heavy path: descend while some child has subtree size
            // >= instance_size / 2 (such a child is unique).
            let mut cur = root;
            let mut offset = 0u64;
            loop {
                self.path_of[cur.index()] = path_id;
                self.pos_in_path[cur.index()] = self.path_nodes.len() - start;
                self.head_offset[cur.index()] = offset;
                self.light_depth[cur.index()] = light_depth;
                self.path_nodes.push(cur);

                let heavy = tree
                    .children(cur)
                    .iter()
                    .copied()
                    .find(|c| 2 * self.subtree_size[c.index()] >= instance_size);
                match heavy {
                    Some(c) => {
                        self.heavy_child[cur.index()] = Some(c);
                        offset += tree.parent_weight(c);
                        cur = c;
                    }
                    None => break,
                }
            }

            // Collect light subtrees in the collapsed-tree child order:
            // primarily by branch position (top first); among children of the
            // *last* path node, the largest subtree goes last (its edge is
            // exceptional).
            light.clear();
            for (i, &w) in self.path_nodes[start..].iter().enumerate() {
                for &c in tree.children(w) {
                    if self.heavy_child[w.index()] == Some(c) {
                        continue;
                    }
                    // Among children of the last node, order by increasing
                    // size so the largest is rightmost; elsewhere keep the
                    // original order (a constant key — the sort is stable).
                    let key = if w == cur {
                        self.subtree_size[c.index()]
                    } else {
                        0
                    };
                    light.push((i, key, w, c));
                }
            }
            light.sort_by_key(|&(pos, key, _, _)| (pos, key));

            let cstart = self.cchildren.len();
            self.cchildren.resize(cstart + light.len(), 0);
            self.paths.push(PathRec {
                start: start as u32,
                cstart: cstart as u32,
                parent: parent as u32,
                branch: branch.index() as u32,
                corder: 0,
                exceptional,
                incoming_weight: tree.parent_weight(root),
            });
            // Pushed in reverse so the first child pops (and is numbered)
            // first.  The rightmost child is exceptional iff it branches from
            // the last node of the path.
            let count = light.len();
            for (idx, &(_, _, w, c)) in light.iter().enumerate().rev() {
                stack.push((c, idx + 1 == count && w == cur, cstart + idx));
            }
        }
    }

    /// DFS preorder with the heavy child visited last, so that each light range
    /// `L_u` is the contiguous interval `[pre(u), pre(u) + light_size(u))`.
    fn assign_preorder(&mut self, tree: &Tree) {
        let mut counter = 0usize;
        let mut stack = vec![tree.root()];
        while let Some(u) = stack.pop() {
            self.pre[u.index()] = counter;
            counter += 1;
            let heavy = self.heavy_child[u.index()];
            // Push the heavy child first so it pops (and is visited) last.
            if let Some(h) = heavy {
                stack.push(h);
            }
            for &c in tree.children(u).iter().rev() {
                if Some(c) != heavy {
                    stack.push(c);
                }
            }
        }
        debug_assert_eq!(counter, tree.len());
    }

    /// Post-order numbering of the collapsed tree: this is the *domination
    /// order* — smaller number dominates (see module docs).
    fn assign_corder(&mut self) {
        let mut counter = 0usize;
        // Iterative post-order from the root path (id 0).
        let mut stack: Vec<(PathId, usize)> = vec![(0, 0)];
        while let Some(&mut (p, ref mut ci)) = stack.last_mut() {
            let children = self.collapsed_children(p);
            if *ci < children.len() {
                let child = children[*ci];
                *ci += 1;
                stack.push((child, 0));
            } else {
                self.paths[p].corder = counter as u32;
                counter += 1;
                stack.pop();
            }
        }
    }

    /// Range of path `p`'s entries in a CSR arena whose per-path starts are
    /// `start(rec)`.
    fn csr(&self, p: PathId, len: usize, start: fn(&PathRec) -> u32) -> std::ops::Range<usize> {
        start(&self.paths[p]) as usize..self.paths.get(p + 1).map_or(len, |r| start(r) as usize)
    }

    // ---- per-node accessors ----------------------------------------------

    /// Number of nodes in the underlying tree.
    pub fn len(&self) -> usize {
        self.pre.len()
    }

    /// `len() == 0` never holds; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Size of the subtree rooted at `u`.
    pub fn subtree_size(&self, u: NodeId) -> usize {
        self.subtree_size[u.index()]
    }

    /// The next node on `u`'s heavy path, if any.
    pub fn heavy_child(&self, u: NodeId) -> Option<NodeId> {
        self.heavy_child[u.index()]
    }

    /// The heavy path containing `u`.
    pub fn path_of(&self, u: NodeId) -> PathId {
        self.path_of[u.index()]
    }

    /// Index of `u` within its heavy path (0 = head).
    pub fn pos_in_path(&self, u: NodeId) -> usize {
        self.pos_in_path[u.index()]
    }

    /// Weighted distance from the head of `u`'s heavy path to `u`.
    pub fn head_offset(&self, u: NodeId) -> u64 {
        self.head_offset[u.index()]
    }

    /// Number of light edges on the root-to-`u` path.
    pub fn light_depth(&self, u: NodeId) -> usize {
        self.light_depth[u.index()]
    }

    /// Preorder number of `u` (heavy child visited last), in `[0, n)`.
    pub fn pre(&self, u: NodeId) -> usize {
        self.pre[u.index()]
    }

    /// Weighted distance from the root to `u`.
    pub fn root_distance(&self, u: NodeId) -> u64 {
        self.root_distance[u.index()]
    }

    /// Size of the light range of `u`: `|T_u|` minus the heavy subtree.
    pub fn light_size(&self, u: NodeId) -> usize {
        self.subtree_size(u) - self.heavy_child(u).map_or(0, |h| self.subtree_size(h))
    }

    /// The light range `L_u` as a half-open preorder interval
    /// `[pre(u), pre(u) + light_size(u))`.
    pub fn light_range(&self, u: NodeId) -> (usize, usize) {
        let start = self.pre(u);
        (start, start + self.light_size(u))
    }

    /// The significant ancestors of `u` (nodes `w` with `pre(u) ∈ L_w`):
    /// `u` itself followed by the branch nodes of the light edges on the
    /// root-to-`u` path, ordered from `u` upwards.  An iterator, so a label
    /// builder walks them without a per-node allocation.
    pub fn significant_ancestors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(u).chain(self.light_edges_up(u).map(|e| e.branch_node))
    }

    /// The light edges on the root-to-`u` path, from `u`'s own heavy path
    /// (light depth `light_depth(u)`) up to the topmost (light depth 1) —
    /// the allocation-free, bottom-up form of [`HeavyPaths::light_edges_to`].
    pub fn light_edges_up(&self, u: NodeId) -> impl Iterator<Item = LightEdge> + '_ {
        let mut path = self.path_of(u);
        let mut depth = self.light_depth(u);
        std::iter::from_fn(move || {
            if path == 0 {
                return None;
            }
            let rec = self.paths[path];
            let branch = NodeId(rec.branch as usize);
            let edge = LightEdge {
                depth,
                parent_path: rec.parent as usize,
                child_path: path,
                branch_node: branch,
                branch_offset: self.head_offset(branch),
                edge_weight: rec.incoming_weight,
                child_head: self.head(path),
                exceptional: rec.exceptional,
            };
            path = rec.parent as usize;
            depth -= 1;
            Some(edge)
        })
    }

    /// The light edges on the root-to-`u` path, from the topmost (light depth
    /// 1) down to `u`'s own heavy path (light depth `light_depth(u)`).
    pub fn light_edges_to(&self, u: NodeId) -> Vec<LightEdge> {
        let mut edges: Vec<LightEdge> = self.light_edges_up(u).collect();
        edges.reverse();
        edges
    }

    /// Returns `true` if `u` dominates `v`: `u`'s heavy path precedes `v`'s in
    /// the domination (post-)order of the collapsed tree.
    pub fn dominates(&self, u: NodeId, v: NodeId) -> bool {
        self.domination_order(u) < self.domination_order(v)
    }

    /// Domination order of `u`'s heavy path (smaller dominates).
    pub fn domination_order(&self, u: NodeId) -> usize {
        self.paths[self.path_of(u)].corder as usize
    }

    // ---- per-path accessors ------------------------------------------------

    /// Number of heavy paths (= number of collapsed-tree nodes).
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// The nodes of a heavy path, head first.
    pub fn path_nodes(&self, p: PathId) -> &[NodeId] {
        &self.path_nodes[self.csr(p, self.path_nodes.len(), |r| r.start)]
    }

    /// Head (topmost node) of a heavy path.
    pub fn head(&self, p: PathId) -> NodeId {
        self.path_nodes[self.paths[p].start as usize]
    }

    /// Last (deepest) node of a heavy path.
    pub fn last_node(&self, p: PathId) -> NodeId {
        *self.path_nodes(p).last().expect("paths are non-empty")
    }

    /// Parent of a collapsed node, or `None` for the root path.
    pub fn collapsed_parent(&self, p: PathId) -> Option<PathId> {
        (p != 0).then(|| self.paths[p].parent as usize)
    }

    /// Ordered children of a collapsed node.
    pub fn collapsed_children(&self, p: PathId) -> &[PathId] {
        &self.cchildren[self.csr(p, self.cchildren.len(), |r| r.cstart)]
    }

    /// The node of the parent path from which path `p` branches.
    pub fn branch_node(&self, p: PathId) -> Option<NodeId> {
        (p != 0).then(|| NodeId(self.paths[p].branch as usize))
    }

    /// Weight of the light edge leading into path `p` (0 for the root path).
    pub fn incoming_weight(&self, p: PathId) -> u64 {
        self.paths[p].incoming_weight
    }

    /// Whether the light edge leading into `p` is the exceptional edge of its
    /// parent path.
    pub fn is_exceptional(&self, p: PathId) -> bool {
        self.paths[p].exceptional
    }

    /// Size of the instance that produced path `p` (= subtree size of its head).
    pub fn instance_size(&self, p: PathId) -> usize {
        self.subtree_size(self.head(p))
    }

    /// Light depth of (all nodes of) path `p`.
    pub fn path_light_depth(&self, p: PathId) -> usize {
        self.light_depth(self.head(p))
    }

    /// Root path of the collapsed tree (always id 0).
    pub fn root_path(&self) -> PathId {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::lca::DistanceOracle;

    fn workloads() -> Vec<Tree> {
        vec![
            Tree::singleton(),
            gen::path(40),
            gen::star(40),
            gen::caterpillar(12, 3),
            gen::broom(10, 10),
            gen::spider(5, 8),
            gen::complete_kary(2, 6),
            gen::complete_kary(4, 3),
            gen::random_tree(300, 1),
            gen::random_tree(301, 2),
            gen::random_binary(257, 3),
            gen::random_recursive(222, 4),
            gen::hm_tree_random(4, 7, 5),
        ]
    }

    #[test]
    fn every_node_on_exactly_one_path() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            let mut seen = vec![false; tree.len()];
            for p in 0..hp.path_count() {
                for &u in hp.path_nodes(p) {
                    assert!(!seen[u.index()], "{u} appears on two paths");
                    seen[u.index()] = true;
                    assert_eq!(hp.path_of(u), p);
                }
            }
            assert!(seen.iter().all(|&s| s), "every node lies on some path");
        }
    }

    #[test]
    fn heavy_paths_are_parent_child_chains() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            for p in 0..hp.path_count() {
                let nodes = hp.path_nodes(p);
                for w in nodes.windows(2) {
                    assert_eq!(tree.parent(w[1]), Some(w[0]));
                    assert_eq!(hp.heavy_child(w[0]), Some(w[1]));
                }
                assert_eq!(hp.head(p), nodes[0]);
                assert_eq!(hp.last_node(p), nodes[nodes.len() - 1]);
                for (i, &u) in nodes.iter().enumerate() {
                    assert_eq!(hp.pos_in_path(u), i);
                }
            }
        }
    }

    #[test]
    fn light_subtrees_are_less_than_half_the_instance() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            for p in 0..hp.path_count() {
                let n = hp.instance_size(p);
                for &c in hp.collapsed_children(p) {
                    let hanging = hp.instance_size(c);
                    assert!(
                        2 * hanging < n.max(2),
                        "hanging subtree of size {hanging} off an instance of size {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn light_depth_is_logarithmic() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            for u in tree.nodes() {
                assert!(
                    1usize << hp.light_depth(u) <= tree.len(),
                    "light depth {} too large for n = {}",
                    hp.light_depth(u),
                    tree.len()
                );
                assert_eq!(hp.light_depth(u), hp.light_edges_to(u).len());
            }
        }
    }

    #[test]
    fn head_offsets_and_root_distances_consistent() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            let rd = tree.root_distances();
            for u in tree.nodes() {
                let head = hp.head(hp.path_of(u));
                assert_eq!(
                    hp.head_offset(u),
                    rd[u.index()] - rd[head.index()],
                    "head offset of {u}"
                );
                assert_eq!(hp.root_distance(u), rd[u.index()]);
            }
        }
    }

    #[test]
    fn light_edge_telescoping_gives_root_distance_of_heads() {
        // Summing (branch_offset + edge_weight) over the light edges to u gives
        // the root distance of the head of u's path — the identity behind
        // Lemma 3.1's distance arrays.
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            for u in tree.nodes() {
                let edges = hp.light_edges_to(u);
                let total: u64 = edges.iter().map(|e| e.branch_offset + e.edge_weight).sum();
                let head = hp.head(hp.path_of(u));
                assert_eq!(total, hp.root_distance(head), "node {u}");
                // Depth indices are 1..=light_depth(u) in order.
                for (i, e) in edges.iter().enumerate() {
                    assert_eq!(e.depth, i + 1);
                }
            }
        }
    }

    #[test]
    fn preorder_intervals_and_light_ranges() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            // Preorder is a permutation.
            let mut seen = vec![false; tree.len()];
            for u in tree.nodes() {
                assert!(!seen[hp.pre(u)]);
                seen[hp.pre(u)] = true;
            }
            // Every node's preorder lies inside the subtree interval of each
            // ancestor, and the light range is exactly T_u minus the heavy
            // subtree.
            for u in tree.nodes() {
                let (lo, hi) = hp.light_range(u);
                assert!(lo <= hp.pre(u) && hp.pre(u) < hi, "pre(u) ∈ L_u");
                // Collect the true light-range members.
                let mut members = Vec::new();
                let heavy = hp.heavy_child(u);
                let mut stack = vec![u];
                while let Some(x) = stack.pop() {
                    members.push(hp.pre(x));
                    for &c in tree.children(x) {
                        if x == u && Some(c) == heavy {
                            continue;
                        }
                        stack.push(c);
                    }
                }
                members.sort_unstable();
                let expect: Vec<usize> = (lo..hi).collect();
                assert_eq!(members, expect, "light range of {u}");
            }
        }
    }

    #[test]
    fn light_ranges_along_a_path_are_consecutive() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            for p in 0..hp.path_count() {
                let nodes = hp.path_nodes(p);
                for w in nodes.windows(2) {
                    let (_, hi) = hp.light_range(w[0]);
                    let (lo, _) = hp.light_range(w[1]);
                    assert_eq!(hi, lo, "L intervals along a heavy path are consecutive");
                }
            }
        }
    }

    #[test]
    fn significant_ancestors_characterization() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            for u in tree.nodes() {
                let sig: Vec<NodeId> = hp.significant_ancestors(u).collect();
                assert_eq!(sig[0], u);
                assert_eq!(sig.len(), hp.light_depth(u) + 1);
                // Reference: ancestors w of u with pre(u) in L_w.
                let expected: Vec<NodeId> = tree
                    .ancestors(u)
                    .into_iter()
                    .filter(|&w| {
                        let (lo, hi) = hp.light_range(w);
                        lo <= hp.pre(u) && hp.pre(u) < hi
                    })
                    .collect();
                assert_eq!(sig, expected, "significant ancestors of {u}");
                // They are strictly increasing in depth towards the root.
                let depths = tree.depths();
                for w in sig.windows(2) {
                    assert!(depths[w[0].index()] > depths[w[1].index()]);
                    assert!(tree.is_ancestor(w[1], w[0]));
                }
            }
        }
    }

    #[test]
    fn collapsed_tree_structure() {
        for tree in workloads() {
            let hp = HeavyPaths::new(&tree);
            assert_eq!(hp.head(hp.root_path()), tree.root());
            assert_eq!(hp.collapsed_parent(hp.root_path()), None);
            for p in 1..hp.path_count() {
                let parent = hp.collapsed_parent(p).expect("non-root path has parent");
                assert!(hp.collapsed_children(parent).contains(&p));
                let branch = hp.branch_node(p).unwrap();
                assert_eq!(hp.path_of(branch), parent);
                // The branch node is the tree-parent of the head of p.
                assert_eq!(tree.parent(hp.head(p)), Some(branch));
                assert_eq!(hp.incoming_weight(p), tree.parent_weight(hp.head(p)));
                assert_eq!(hp.path_light_depth(p), hp.path_light_depth(parent) + 1);
            }
            // Children are ordered by branch position (top first).
            for p in 0..hp.path_count() {
                let positions: Vec<usize> = hp
                    .collapsed_children(p)
                    .iter()
                    .map(|&c| hp.pos_in_path(hp.branch_node(c).unwrap()))
                    .collect();
                for w in positions.windows(2) {
                    assert!(w[0] <= w[1], "children ordered by branch position");
                }
                // The exceptional child (if any) is rightmost and branches from
                // the last node.
                for (i, &c) in hp.collapsed_children(p).iter().enumerate() {
                    if hp.is_exceptional(c) {
                        assert_eq!(i + 1, hp.collapsed_children(p).len());
                        assert_eq!(hp.branch_node(c), Some(hp.last_node(p)));
                    }
                }
            }
        }
    }

    #[test]
    fn domination_matches_observations_1_and_2() {
        // Observation (1): if the NCA-to-u path starts with a light edge and
        // the NCA-to-v path starts with a heavy edge, u dominates v.
        // Observation (2): if both start with light edges (same branch node),
        // the one entering the exceptional subtree is dominated.
        for tree in workloads().into_iter().filter(|t| t.len() > 2) {
            let hp = HeavyPaths::new(&tree);
            let oracle = DistanceOracle::new(&tree);
            let n = tree.len();
            let pairs: Vec<(usize, usize)> = (0..600)
                .map(|i| ((i * 37) % n, (i * 101 + 13) % n))
                .collect();
            for (a, b) in pairs {
                let (u, v) = (tree.node(a), tree.node(b));
                if u == v {
                    continue;
                }
                let w = oracle.lca(u, v);
                if w == u || w == v {
                    continue; // ancestor pairs are not covered by the observations
                }
                let first_to = |x: NodeId| {
                    // the child of w on the path towards x
                    let mut cur = x;
                    loop {
                        let p = tree.parent(cur).unwrap();
                        if p == w {
                            return cur;
                        }
                        cur = p;
                    }
                };
                let cu = first_to(u);
                let cv = first_to(v);
                let u_light = hp.heavy_child(w) != Some(cu);
                let v_light = hp.heavy_child(w) != Some(cv);
                if u_light && !v_light {
                    assert!(hp.dominates(u, v), "obs (1): {u} should dominate {v}");
                } else if !u_light && v_light {
                    assert!(hp.dominates(v, u), "obs (1): {v} should dominate {u}");
                } else if u_light && v_light && cu != cv {
                    // Both branch at w via light edges.
                    let u_exc = hp.is_exceptional(hp.path_of(hp_head_of_subtree(&hp, cu)));
                    let v_exc = hp.is_exceptional(hp.path_of(hp_head_of_subtree(&hp, cv)));
                    if u_exc && !v_exc {
                        assert!(hp.dominates(v, u), "obs (2): exceptional side is dominated");
                    } else if v_exc && !u_exc {
                        assert!(hp.dominates(u, v), "obs (2): exceptional side is dominated");
                    }
                }
                // Domination is a strict total order on distinct heavy paths.
                if hp.path_of(u) != hp.path_of(v) {
                    assert!(hp.dominates(u, v) ^ hp.dominates(v, u));
                }
            }
        }
    }

    /// Helper: the head of the hanging subtree entered through child `c` of a
    /// branch node is `c` itself (c is the head of its heavy path).
    fn hp_head_of_subtree(hp: &HeavyPaths, c: NodeId) -> NodeId {
        assert_eq!(
            hp.pos_in_path(c),
            0,
            "a light child is the head of its path"
        );
        c
    }

    #[test]
    fn dominating_side_branches_at_the_nca() {
        // The key fact the exact schemes rely on: if u dominates v and
        // NCA(u, v) has light depth j, then the NCA is exactly the branch node
        // of u's (j+1)-th light edge (or u's own path reaches it).
        for tree in workloads().into_iter().filter(|t| t.len() > 4) {
            let hp = HeavyPaths::new(&tree);
            let oracle = DistanceOracle::new(&tree);
            let n = tree.len();
            for i in 0..500 {
                let u = tree.node((i * 53) % n);
                let v = tree.node((i * 97 + 29) % n);
                if u == v {
                    continue;
                }
                let w = oracle.lca(u, v);
                if w == u || w == v {
                    continue;
                }
                let (dom, other) = if hp.dominates(u, v) { (u, v) } else { (v, u) };
                let j = hp.light_depth(w);
                assert_eq!(hp.path_of(w), {
                    // the common heavy path at light depth j is an ancestor path of both
                    let mut p = hp.path_of(dom);
                    while hp.path_light_depth(p) > j {
                        p = hp.collapsed_parent(p).unwrap();
                    }
                    p
                });
                let edges = hp.light_edges_to(dom);
                assert!(edges.len() > j, "dominating node leaves the NCA's path");
                assert_eq!(edges[j].branch_node, w, "u={dom} v={other} nca={w}");
            }
        }
    }
}
