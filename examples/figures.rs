//! Reproduces the structural content of the paper's Figures 1–6 as terminal
//! diagrams, verifying the stated properties of each construction as it goes.
//!
//! ```text
//! cargo run --release --example figures [fig1|fig2|fig3|fig4|fig5|fig6|all]
//! ```

use treelab::core::kdistance::KDistanceScheme;
use treelab::core::universal::{universal_from_parent_labels, universal_tree, verify_universal};
use treelab::tree::embed::all_rooted_trees;
use treelab::tree::render;
use treelab::{gen, DistanceOracle, HeavyPaths, NodeId, Tree, TreeBuilder};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    if all || which == "fig1" {
        figure_1();
    }
    if all || which == "fig2" {
        figure_2();
    }
    if all || which == "fig3" {
        figure_3();
    }
    if all || which == "fig4" {
        figure_4();
    }
    if all || which == "fig5" {
        figure_5();
    }
    if all || which == "fig6" {
        figure_6();
    }
}

/// The binary tree used throughout the examples: large enough to have several
/// heavy paths and an exceptional edge, small enough to print.
fn figure_tree() -> Tree {
    let mut b = TreeBuilder::new();
    let root = b.root();
    // A heavy path with subtrees hanging at several depths, ending in a node
    // with two light children (one of which becomes exceptional).
    let a = b.add_child(root, 1);
    let side1 = b.add_child(root, 1);
    b.add_child(side1, 1);
    let c = b.add_child(a, 1);
    let side2 = b.add_child(a, 1);
    b.add_chain(side2, 2, 1);
    let d = b.add_child(c, 1);
    b.add_child(c, 1);
    let e = b.add_child(d, 1);
    let f = b.add_child(d, 1);
    b.add_chain(e, 3, 1);
    b.add_chain(f, 2, 1);
    b.build()
}

fn figure_1() {
    println!("==== Figure 1: heavy-path decomposition and the collapsed tree C(T) ====\n");
    let t = figure_tree();
    let hp = HeavyPaths::new(&t);
    println!("{}", render::ascii_heavy_paths(&t, &hp));
    println!("collapsed tree C(T):\n");
    println!("{}", render::ascii_collapsed_tree(&t, &hp));
    // Verify the figure's stated invariants.
    for u in t.nodes() {
        assert!(1usize << hp.light_depth(u) <= t.len());
    }
    println!(
        "verified: light depth ≤ log₂ n for every node, every node on exactly one heavy path\n"
    );
}

fn figure_2() {
    println!("==== Figure 2: a (3, M)-tree ====\n");
    let m = 9;
    let t = gen::hm_tree(3, m, &[2, 5, 1, 7, 0, 4, 3]);
    println!("{}", render::ascii_tree(&t));
    let rd = t.root_distances();
    for &l in &t.leaves() {
        assert_eq!(rd[l.index()], 3 * m);
    }
    println!(
        "verified: all {} leaves lie at distance h·M = {} from the root; \
         Lemma 2.3 forces h/2·log M = {:.1} label bits on this family\n",
        t.leaves().len(),
        3 * m,
        treelab::bounds::hm_tree_lower(3, m)
    );
}

fn figure_3() {
    println!("==== Figure 3: a heavy path with hanging subtrees T_i / T'_i ====\n");
    let t = gen::comb(60);
    let hp = HeavyPaths::new(&t);
    let p = hp.root_path();
    println!(
        "root heavy path: {} nodes, instance size {}",
        hp.path_nodes(p).len(),
        hp.instance_size(p)
    );
    for &c in hp.collapsed_children(p) {
        let branch = hp.branch_node(c).unwrap();
        println!(
            "  subtree at light edge e -> path {c}: n_i = {:3}, hangs at {} (offset {}), n'_i = {:3}{}",
            hp.instance_size(c),
            branch,
            hp.head_offset(branch),
            hp.subtree_size(branch),
            if hp.is_exceptional(c) { "  [exceptional]" } else { "" }
        );
        assert!(2 * hp.instance_size(c) < hp.instance_size(p).max(2));
    }
    println!("verified: every hanging subtree holds fewer than half of the instance\n");
}

fn figure_4() {
    println!("==== Figure 4: Lemma 3.6 — parent labels to a universal rooted tree ====\n");
    let n = 4;
    let result = universal_from_parent_labels(n);
    println!(
        "parent-labeled all rooted trees on ≤ {n} nodes: {} distinct labels (max {} bits)",
        result.distinct_labels, result.max_label_bits
    );
    println!(
        "converted functional graph into a universal rooted tree with {} nodes:",
        result.tree.len()
    );
    println!("{}", render::ascii_tree(&result.tree));
    let direct = universal_tree(n);
    assert!(verify_universal(&direct, n));
    println!(
        "for comparison, the direct recursive universal tree U({n}) has {} nodes \
         (verified universal for all {} rooted trees on ≤ {n} nodes)\n",
        direct.len(),
        (1..=n).map(|m| all_rooted_trees(m).len()).sum::<usize>()
    );
}

fn figure_5() {
    println!("==== Figure 5: the (x⃗, h, d)-regular tree with x⃗ = (1,2), d = h = 2 ====\n");
    let t = gen::regular_tree(&[1, 2], 2, 2);
    println!("{}", render::ascii_tree(&t));
    println!(
        "verified: {} leaves = d^(k·h) = {}; depth-degree profile (2, 2, 4, 1)\n",
        t.leaves().len(),
        treelab::bounds::regular_tree_leaves(2, 2, 2)
    );
}

fn figure_6() {
    println!("==== Figure 6: significant ancestors, NCSA and the common heavy path ====\n");
    let t = gen::comb(40);
    let hp = HeavyPaths::new(&t);
    let oracle = DistanceOracle::new(&t);
    let k = 30;
    let scheme = KDistanceScheme::build(&t, k);

    // Pick two leaves in different subtrees hanging off the root heavy path.
    let leaves = t.leaves();
    let (u, v) = (leaves[0], leaves[leaves.len() - 1]);
    let show = |x: NodeId| {
        let parts: Vec<String> = hp
            .significant_ancestors(x)
            .map(|a| format!("{a}(d={})", oracle.distance(x, a)))
            .collect();
        println!("  significant ancestors of {x}: {}", parts.join(" -> "));
    };
    show(u);
    show(v);
    let ncsa = scheme.ncsa_light_depth(u, v);
    println!("  NCSA light depth (from labels): {ncsa:?}");
    match scheme.distance(u, v) {
        Some(d) => {
            assert_eq!(d, oracle.distance(u, v));
            println!("  k-distance query (k = {k}): Some({d}) — matches the oracle\n");
        }
        None => {
            assert!(oracle.distance(u, v) > k);
            println!(
                "  k-distance query (k = {k}): more than k (true distance {})\n",
                oracle.distance(u, v)
            );
        }
    }
}
