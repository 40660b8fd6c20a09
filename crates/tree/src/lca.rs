//! Ground-truth oracles: Euler-tour LCA and an O(1) exact distance oracle.
//!
//! Every labeling scheme in `treelab-core` is validated against
//! [`DistanceOracle`], which answers exact weighted distances in O(1) after an
//! O(n) preprocessing pass: an Euler tour, then range-minimum over its depths
//! by the block decomposition of Bender and Farach-Colton ("The LCA Problem
//! Revisited", LATIN 2000) — a sparse table over the minima of 32-entry
//! blocks, and per entry one 32-bit mask that answers inside a block.
//! The oracle itself is validated in its unit tests against the naive
//! walk-to-the-root computation of [`Tree::distance_naive`].

use crate::{NodeId, Tree};

/// Entries per block of [`SparseTable`]: one bit each in a `u32` mask.
const BLOCK: usize = 32;

/// Range-minimum over `u32` values in O(n) words and O(1) per query: a
/// sparse table over the minima of [`BLOCK`]-entry blocks, plus one mask per
/// entry for the parts of a range inside one block.
#[derive(Debug, Clone)]
struct SparseTable {
    values: Vec<u32>,
    /// Bit `j` of `stack[i]` is set when the entry at offset `j` of `i`'s
    /// block is no larger than any entry after it up to `i` — the stack of
    /// suffix minima ending at `i`.  The lowest set bit at or above `l`'s
    /// offset is then the leftmost minimum of `l..=i`.
    stack: Vec<u32>,
    /// `table[k * blocks + b]` = index of the minimum of blocks
    /// `b .. b + 2^k`.
    table: Vec<u32>,
    blocks: usize,
}

impl SparseTable {
    fn new(values: Vec<u32>) -> Self {
        assert!(
            values.len() <= u32::MAX as usize,
            "range-minimum indexes fit in u32"
        );
        let mut stack = vec![0u32; values.len()];
        for (b, block) in values.chunks(BLOCK).enumerate() {
            let base = b * BLOCK;
            let mut cur = 0u32;
            for (j, &v) in block.iter().enumerate() {
                while cur != 0 {
                    let top = 31 - cur.leading_zeros();
                    if block[top as usize] <= v {
                        break;
                    }
                    cur ^= 1 << top;
                }
                cur |= 1 << j;
                stack[base + j] = cur;
            }
        }
        let blocks = values.len().div_ceil(BLOCK);
        let mut rmq = SparseTable {
            values,
            stack,
            table: Vec::new(),
            blocks,
        };
        let levels = (usize::BITS - blocks.leading_zeros()) as usize;
        let mut table = Vec::with_capacity(levels * blocks);
        let last = rmq.values.len().saturating_sub(1);
        table.extend(
            (0..blocks).map(|b| rmq.in_block(b * BLOCK, last.min(b * BLOCK + BLOCK - 1)) as u32),
        );
        for k in 1..levels {
            let half = 1 << (k - 1);
            for b in 0..blocks {
                let lo = table[(k - 1) * blocks + b] as usize;
                let m = if b + half < blocks {
                    rmq.min_of(lo, table[(k - 1) * blocks + b + half] as usize)
                } else {
                    lo
                };
                table.push(m as u32);
            }
        }
        rmq.table = table;
        rmq
    }

    /// The earlier of `a < b` unless `b` holds a smaller value.
    fn min_of(&self, a: usize, b: usize) -> usize {
        if self.values[b] < self.values[a] {
            b
        } else {
            a
        }
    }

    /// Index of the minimum in `[l, r]`, both in one block.
    fn in_block(&self, l: usize, r: usize) -> usize {
        let mask = self.stack[r] & (u32::MAX << (l % BLOCK));
        l - l % BLOCK + mask.trailing_zeros() as usize
    }

    /// Index of the minimum value in `[l, r]` (inclusive).
    fn argmin(&self, l: usize, r: usize) -> usize {
        debug_assert!(l <= r && r < self.values.len());
        let (bl, br) = (l / BLOCK, r / BLOCK);
        if bl == br {
            return self.in_block(l, r);
        }
        let mut best = self.in_block(l, bl * BLOCK + BLOCK - 1);
        if bl + 1 < br {
            let (a, b) = (bl + 1, br - 1);
            let k = (usize::BITS - 1 - (b - a + 1).leading_zeros()) as usize;
            let row = &self.table[k * self.blocks..];
            best = self.min_of(best, row[a] as usize);
            best = self.min_of(best, row[b + 1 - (1 << k)] as usize);
        }
        self.min_of(best, self.in_block(br * BLOCK, r))
    }
}

/// O(1) lowest-common-ancestor and exact weighted distance oracle.
///
/// # Example
///
/// ```
/// use treelab_tree::{gen, lca::DistanceOracle};
///
/// let tree = gen::caterpillar(10, 2);
/// let oracle = DistanceOracle::new(&tree);
/// let (u, v) = (tree.node(5), tree.node(20));
/// assert_eq!(oracle.distance(u, v), tree.distance_naive(u, v));
/// ```
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    /// Euler tour of node indices (2n − 1 entries).
    euler: Vec<u32>,
    /// Index of each node's first Euler-tour entry.
    first_occurrence: Vec<u32>,
    /// Weighted distance from the root per node.
    root_distance: Vec<u64>,
    /// Range-minimum over the unweighted depth of each Euler-tour entry.
    rmq: SparseTable,
}

impl DistanceOracle {
    /// Builds the oracle in O(n) time and space.
    ///
    /// # Panics
    ///
    /// Panics if the Euler tour (2n − 1 entries) cannot be indexed by `u32`.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        assert!(
            2 * n - 1 <= u32::MAX as usize,
            "the Euler tour of {n} nodes is indexed by u32"
        );
        let mut euler: Vec<u32> = Vec::with_capacity(2 * n - 1);
        let mut depths: Vec<u32> = Vec::with_capacity(2 * n - 1);
        let mut first_occurrence = vec![0u32; n];
        let mut root_distance = vec![0u64; n];

        // Iterative Euler tour: (node, next-child index); the stack height is
        // the depth.
        let root = tree.root();
        euler.push(root.index() as u32);
        depths.push(0);
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        while let Some(&mut (u, ref mut ci)) = stack.last_mut() {
            if let Some(&child) = tree.children(u).get(*ci) {
                *ci += 1;
                first_occurrence[child.index()] = euler.len() as u32;
                root_distance[child.index()] = root_distance[u.index()] + tree.parent_weight(child);
                euler.push(child.index() as u32);
                depths.push(stack.len() as u32);
                stack.push((child, 0));
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    euler.push(p.index() as u32);
                    depths.push(stack.len() as u32 - 1);
                }
            }
        }

        DistanceOracle {
            euler,
            first_occurrence,
            root_distance,
            rmq: SparseTable::new(depths),
        }
    }

    /// Lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (a, b) = (
            self.first_occurrence[u.index()] as usize,
            self.first_occurrence[v.index()] as usize,
        );
        NodeId(self.euler[self.rmq.argmin(a.min(b), a.max(b))] as usize)
    }

    /// Exact weighted distance between `u` and `v`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> u64 {
        let w = self.lca(u, v);
        self.root_distance[u.index()] + self.root_distance[v.index()]
            - 2 * self.root_distance[w.index()]
    }

    /// Exact unweighted (hop) distance between `u` and `v`.
    pub fn hop_distance(&self, u: NodeId, v: NodeId) -> usize {
        let w = self.lca(u, v);
        self.depth(u) + self.depth(v) - 2 * self.depth(w)
    }

    /// Weighted distance from the root to `u`.
    pub fn root_distance(&self, u: NodeId) -> u64 {
        self.root_distance[u.index()]
    }

    /// Unweighted depth of `u`.
    pub fn depth(&self, u: NodeId) -> usize {
        self.rmq.values[self.first_occurrence[u.index()] as usize] as usize
    }

    /// Returns `true` if `a` is an ancestor of (or equal to) `d`.
    pub fn is_ancestor(&self, a: NodeId, d: NodeId) -> bool {
        self.lca(a, d) == a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_against_naive(tree: &Tree) {
        let oracle = DistanceOracle::new(tree);
        let n = tree.len();
        // All pairs for small trees, sampled pairs for larger ones.
        let pairs: Vec<(usize, usize)> = if n <= 40 {
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
        } else {
            (0..400)
                .map(|i| ((i * 7919) % n, (i * 104729) % n))
                .collect()
        };
        for (u, v) in pairs {
            let (u, v) = (tree.node(u), tree.node(v));
            assert_eq!(
                oracle.distance(u, v),
                tree.distance_naive(u, v),
                "distance({u},{v}) on {tree:?}"
            );
        }
    }

    #[test]
    fn oracle_matches_naive_on_shapes() {
        check_against_naive(&Tree::singleton());
        check_against_naive(&gen::path(25));
        check_against_naive(&gen::star(25));
        check_against_naive(&gen::caterpillar(6, 3));
        check_against_naive(&gen::broom(5, 7));
        check_against_naive(&gen::spider(4, 5));
        check_against_naive(&gen::complete_kary(3, 3));
        check_against_naive(&gen::balanced_binary(31));
    }

    #[test]
    fn oracle_matches_naive_on_random_trees() {
        for seed in 0..5u64 {
            check_against_naive(&gen::random_tree(120, seed));
            check_against_naive(&gen::random_binary(120, seed));
            check_against_naive(&gen::random_recursive(120, seed));
        }
    }

    #[test]
    fn oracle_on_weighted_trees() {
        let t = gen::hm_tree_random(4, 13, 5);
        check_against_naive(&t);
        let oracle = DistanceOracle::new(&t);
        // All leaves are at distance 4 * 13 from the root in an (h, M)-tree.
        for &l in &t.leaves() {
            assert_eq!(oracle.root_distance(l), 4 * 13);
        }
    }

    #[test]
    fn lca_properties() {
        let t = gen::random_tree(80, 11);
        let oracle = DistanceOracle::new(&t);
        for u in t.nodes() {
            assert_eq!(oracle.lca(u, u), u);
            assert_eq!(oracle.lca(t.root(), u), t.root());
            assert_eq!(oracle.distance(u, u), 0);
            assert!(oracle.is_ancestor(t.root(), u));
        }
        for u in t.nodes() {
            for &v in t.children(u) {
                assert_eq!(oracle.lca(u, v), u);
                assert!(oracle.is_ancestor(u, v));
                assert!(!oracle.is_ancestor(v, u));
            }
        }
        // Symmetry.
        for i in (0..t.len()).step_by(7) {
            for j in (0..t.len()).step_by(11) {
                let (u, v) = (t.node(i), t.node(j));
                assert_eq!(oracle.lca(u, v), oracle.lca(v, u));
                assert_eq!(oracle.distance(u, v), oracle.distance(v, u));
            }
        }
    }

    #[test]
    fn hop_distance_on_weighted_tree_counts_edges() {
        let t = Tree::from_parents_weighted(&[None, Some(0), Some(1)], Some(&[0, 5, 0]));
        let oracle = DistanceOracle::new(&t);
        assert_eq!(oracle.distance(t.node(0), t.node(2)), 5);
        assert_eq!(oracle.hop_distance(t.node(0), t.node(2)), 2);
    }

    #[test]
    fn sparse_table_argmin_matches_naive() {
        let mut inputs: Vec<Vec<u32>> = vec![vec![5, 3, 8, 3, 1, 9, 2, 2, 7, 0, 4]];
        let mut rng = crate::rng::SplitMix64::seed_from_u64(7);
        for len in 1..=200usize {
            // Random values with ties, and a ±1 walk like Euler-tour depths.
            inputs.push((0..len).map(|_| (rng.next_u64() % 16) as u32).collect());
            let mut depth = 100u32;
            inputs.push(
                (0..len)
                    .map(|_| {
                        depth = if rng.next_u64() & 1 == 0 {
                            depth + 1
                        } else {
                            depth - 1
                        };
                        depth
                    })
                    .collect(),
            );
        }
        for values in inputs {
            let st = SparseTable::new(values.clone());
            for l in 0..values.len() {
                let mut naive = l;
                for r in l..values.len() {
                    if values[r] < values[naive] {
                        naive = r;
                    }
                    assert_eq!(st.argmin(l, r), naive, "[{l},{r}] of {}", values.len());
                }
            }
        }
    }
}
