//! Universal rooted trees and the Lemma 3.6 conversion from parent labelings.
//!
//! A rooted tree `U` is *universal* for rooted trees on `n` nodes if every such
//! tree embeds into `U` (injectively, preserving the parent relation).  Two
//! facts from the paper are reproduced here:
//!
//! * **Construction** ([`universal_tree`]): the classic recursive spine
//!   construction gives a universal tree of size `n^{Θ(log n)}`, matching the
//!   `2^{Θ(log²n)}` regime of the Goldberg–Livshits optimal construction (the
//!   optimal constant is not needed for any experiment; the closed-form optimal
//!   size is available in [`crate::bounds`]).
//! * **Lemma 3.6** ([`universal_from_parent_labels`]): any labeling scheme for
//!   the *parent* problem with labels of `S(n)` bits yields a universal rooted
//!   tree with `O(2^{S(n)})` nodes — the functional graph on labels, with
//!   cycles cut and duplicated, plus a global root.  Combined with the lower
//!   bound on universal-tree size this proves Theorem 1.2: level-ancestor
//!   labels need `½·log²n − log n·log log n` bits, so distance labeling
//!   (¼·log²n, Theorem 1.1) is strictly easier than level-ancestor labeling.
//!
//! Everything here is exponential by nature and intended for the small `n`
//! used by the experiments (`n ≤ 16` for explicit constructions).

use crate::level_ancestor::LevelAncestorScheme;
use crate::substrate::Substrate;
use std::collections::HashMap;
use treelab_bits::BitVec;
use treelab_tree::embed::{all_rooted_trees, embeds_at_root};
use treelab_tree::{NodeId, Tree, TreeBuilder};

/// Size (number of nodes) of [`universal_tree`]`(n)` without building it.
pub fn universal_tree_size(n: usize) -> u64 {
    fn size(n: usize, memo: &mut HashMap<usize, u64>) -> u64 {
        if n <= 1 {
            return 1;
        }
        if let Some(&s) = memo.get(&n) {
            return s;
        }
        let mut hanging = 0u64;
        for j in 1..n {
            let m = (n / 2).min((n - 1) / j);
            if m == 0 {
                break;
            }
            hanging += size(m, memo);
        }
        let total = n as u64 + n as u64 * hanging;
        memo.insert(n, total);
        total
    }
    size(n, &mut HashMap::new())
}

/// Builds a rooted tree that contains every rooted tree on at most `n` nodes
/// as a subtree with roots aligned (verified by tests via
/// [`treelab_tree::embed::embeds_at_root`]).
///
/// The construction: a spine of `n` nodes (enough for the heavy path of any
/// tree on `≤ n` nodes), and hanging from **every** spine node one recursive
/// universal tree of size `min(⌊n/2⌋, ⌊(n−1)/j⌋)` for each `j = 1, 2, …` —
/// big enough for the `j`-th largest subtree hanging at that node, since each
/// hanging subtree holds fewer than half the nodes and the `j`-th largest at a
/// single node has at most `(n−1)/j` of them.
///
/// # Panics
///
/// Panics if the resulting tree would exceed `2^26` nodes (`n ≳ 24`).
pub fn universal_tree(n: usize) -> Tree {
    assert!(
        universal_tree_size(n) <= 1 << 26,
        "universal tree for n = {n} is too large to materialize"
    );
    let mut b = TreeBuilder::new();
    let root = b.root();
    attach_universal(&mut b, root, n);
    b.build()
}

/// Attaches U(n) below `parent`: `parent` acts as the first spine node.
fn attach_universal(b: &mut TreeBuilder, parent: NodeId, n: usize) {
    if n <= 1 {
        return;
    }
    // Spine of n nodes: `parent` plus n-1 descendants.
    let mut spine = Vec::with_capacity(n);
    spine.push(parent);
    let mut cur = parent;
    for _ in 1..n {
        cur = b.add_child(cur, 1);
        spine.push(cur);
    }
    for &s in &spine {
        for j in 1..n {
            let m = (n / 2).min((n - 1) / j);
            if m == 0 {
                break;
            }
            let child = b.add_child(s, 1);
            attach_universal(b, child, m);
        }
    }
}

/// Checks that `universal` contains every rooted tree on at most `n` nodes as
/// a root-aligned subtree (exhaustively; exponential in `n`).
pub fn verify_universal(universal: &Tree, n: usize) -> bool {
    (1..=n).all(|m| {
        all_rooted_trees(m)
            .iter()
            .all(|t| embeds_at_root(t, universal))
    })
}

/// Result of the Lemma 3.6 conversion.
#[derive(Debug, Clone)]
pub struct ParentLabelUniversal {
    /// The universal rooted tree built from the label graph.
    pub tree: Tree,
    /// Number of distinct labels observed across the tree family.
    pub distinct_labels: usize,
    /// Maximum label length (bits) observed — the `S(n)` of Lemma 3.6.
    pub max_label_bits: usize,
}

/// Lemma 3.6, instantiated with this crate's [`LevelAncestorScheme`]: labels
/// every rooted tree on at most `n` nodes, builds the functional graph
/// `label → parent(label)`, and converts it into a universal rooted tree.
///
/// The returned tree contains every rooted tree on at most `n` nodes as a
/// subtree (not necessarily root-aligned — exactly as in the lemma), and has at
/// most `2·(number of distinct labels) + 1` nodes.
pub fn universal_from_parent_labels(n: usize) -> ParentLabelUniversal {
    let mut ids: HashMap<BitVec, usize> = HashMap::new();
    let mut parent_of: Vec<Option<usize>> = Vec::new();
    let mut max_label_bits = 0usize;

    let mut intern = |bits: BitVec, parent_of: &mut Vec<Option<usize>>| -> usize {
        let next = ids.len();
        *ids.entry(bits).or_insert_with(|| {
            parent_of.push(None);
            next
        })
    };

    for m in 1..=n {
        for tree in all_rooted_trees(m) {
            let sub = Substrate::new(&tree);
            let scheme = LevelAncestorScheme::build_with_substrate(&sub);
            for u in tree.nodes() {
                let label = scheme.label(u);
                max_label_bits = max_label_bits.max(label.bit_len());
                let id = intern(label.to_bits(), &mut parent_of);
                if let Some(parent_label) = LevelAncestorScheme::parent(&label) {
                    let pid = intern(parent_label.to_bits(), &mut parent_of);
                    parent_of[id] = Some(pid);
                }
            }
        }
    }

    let tree = functional_graph_to_rooted_tree(&parent_of);
    ParentLabelUniversal {
        tree,
        distinct_labels: parent_of.len(),
        max_label_bits,
    }
}

/// Converts a functional "parent pointer" graph (each node has at most one
/// parent; cycles allowed) into a rooted tree per the procedure of Lemma 3.6:
/// every weakly connected component containing a cycle has one cycle edge cut
/// and is then duplicated (with the cut node re-attached to the duplicate), and
/// a global root is added above all component roots.
///
/// The output has at most `2·m + 1` nodes for `m` input nodes.
pub fn functional_graph_to_rooted_tree(parent_of: &[Option<usize>]) -> Tree {
    let m = parent_of.len();
    // Identify, for every node, whether it lies on a cycle, and pick one edge
    // per cyclic component to cut.
    let mut cut_edge: Vec<bool> = vec![false; m]; // cut the edge leaving node i
    let mut color = vec![0u8; m]; // 0 = white, 1 = on stack, 2 = done
    for start in 0..m {
        if color[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if color[cur] == 2 {
                break;
            }
            if color[cur] == 1 {
                // Found a cycle through `cur`: cut the edge leaving `cur`.
                cut_edge[cur] = true;
                break;
            }
            color[cur] = 1;
            path.push(cur);
            match parent_of[cur] {
                Some(p) => cur = p,
                None => break,
            }
        }
        for v in path {
            color[v] = 2;
        }
    }

    // Component id per node, where components are taken over the *undirected*
    // version of the graph (ignoring cut edges is not necessary for component
    // detection — cutting does not disconnect a weakly connected component's
    // duplication decision).
    let mut comp = vec![usize::MAX; m];
    let mut comp_count = 0usize;
    {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (u, p) in parent_of.iter().enumerate() {
            if let Some(p) = *p {
                adj[u].push(p);
                adj[p].push(u);
            }
        }
        for start in 0..m {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = comp_count;
            comp_count += 1;
            let mut stack = vec![start];
            comp[start] = id;
            while let Some(u) = stack.pop() {
                for &v in &adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        stack.push(v);
                    }
                }
            }
        }
    }
    let comp_has_cycle: Vec<bool> = {
        let mut has = vec![false; comp_count];
        for u in 0..m {
            if cut_edge[u] {
                has[comp[u]] = true;
            }
        }
        has
    };

    // Build the output: global root (index 0), original copy of every node,
    // and a duplicate copy for nodes in cyclic components.
    let mut parents: Vec<Option<usize>> = vec![None]; // global root
    let orig_index: Vec<usize> = (0..m).map(|u| 1 + u).collect();
    for _ in 0..m {
        parents.push(Some(0)); // provisional: attach to the global root
    }
    let mut dup_index: Vec<Option<usize>> = vec![None; m];
    for u in 0..m {
        if comp_has_cycle[comp[u]] {
            dup_index[u] = Some(parents.len());
            parents.push(Some(0));
        }
    }
    for u in 0..m {
        match parent_of[u] {
            Some(p) if !cut_edge[u] => {
                parents[orig_index[u]] = Some(orig_index[p]);
                if let (Some(du), Some(dp)) = (dup_index[u], dup_index[p]) {
                    parents[du] = Some(dp);
                }
            }
            Some(p) => {
                // Cut edge: the original copy of u becomes a component root
                // (stays attached to the global root), and is re-attached to
                // the duplicate of its former parent.
                let dp = dup_index[p].expect("cyclic component is duplicated");
                parents[orig_index[u]] = Some(dp);
                // The duplicate of u (if any) stays a root under the global
                // root.
            }
            None => {}
        }
    }
    Tree::from_parents(&parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelab_tree::embed::embeds;
    use treelab_tree::gen;

    #[test]
    fn universal_tree_sizes_are_consistent() {
        for n in 1..=10usize {
            let t = universal_tree(n);
            assert_eq!(t.len() as u64, universal_tree_size(n), "n={n}");
        }
        // The size grows super-polynomially but sub-exponentially in n
        // (n^{Θ(log n)}): sanity-check monotonicity and a rough magnitude.
        let mut prev = 0;
        for n in 1..=16usize {
            let s = universal_tree_size(n);
            assert!(s >= prev);
            prev = s;
        }
        assert!(universal_tree_size(8) >= 300);
        assert!(universal_tree_size(8) <= 2_000);
    }

    #[test]
    fn universal_tree_contains_all_small_trees() {
        for n in 1..=7usize {
            let u = universal_tree(n);
            assert!(verify_universal(&u, n), "U({n}) misses some tree");
        }
    }

    #[test]
    fn universal_tree_contains_specific_shapes() {
        let u = universal_tree(9);
        assert!(embeds_at_root(&gen::path(9), &u));
        assert!(embeds_at_root(&gen::star(9), &u));
        assert!(embeds_at_root(&gen::caterpillar(4, 1), &u));
        assert!(embeds_at_root(&gen::balanced_binary(9), &u));
        // Trees larger than n generally do not embed.
        assert!(!embeds_at_root(&gen::star(40), &u));
    }

    #[test]
    fn lemma_3_6_produces_a_universal_tree() {
        let n = 5;
        let result = universal_from_parent_labels(n);
        // Size bound of the lemma: at most 2 * labels + 1 nodes.
        assert!(result.tree.len() <= 2 * result.distinct_labels + 1);
        // Universality (not necessarily root-aligned, exactly as in the lemma).
        for m in 1..=n {
            for t in all_rooted_trees(m) {
                assert!(
                    embeds(&t, &result.tree),
                    "a tree on {m} nodes does not embed"
                );
            }
        }
        // The label length bound of Lemma 3.6: the number of distinct labels is
        // at most 2^{S(n)}.
        assert!(result.distinct_labels as f64 <= 2f64.powi(result.max_label_bits as i32));
    }

    #[test]
    fn functional_graph_conversion_handles_forests() {
        // A simple forest: 0 <- 1 <- 2, 3 (isolated).
        let parents = vec![None, Some(0), Some(1), None];
        let t = functional_graph_to_rooted_tree(&parents);
        assert_eq!(t.len(), 5); // 4 originals + global root
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn functional_graph_conversion_handles_cycles() {
        // A 3-cycle plus a tail: 0 -> 1 -> 2 -> 0 and 3 -> 0.
        let parents = vec![Some(1), Some(2), Some(0), Some(0)];
        let t = functional_graph_to_rooted_tree(&parents);
        // 4 originals + 4 duplicates + global root.
        assert_eq!(t.len(), 9);
        // Every original path of length 3 through the cycle must embed: the
        // path graph on 4 nodes (tail + full cycle walk) exists as a subtree.
        assert!(embeds(&gen::path(4), &t));
    }
}
