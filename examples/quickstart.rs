//! Quickstart: build every scheme on one tree and compare answers and sizes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart [n] [seed]
//! ```

use treelab::core::stats::LabelStats;
use treelab::{
    bounds, gen, ApproximateScheme, DistanceArrayScheme, DistanceOracle, DistanceScheme,
    KDistanceScheme, NaiveScheme, OptimalScheme, Substrate,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("== treelab quickstart ==");
    println!("tree: uniformly random labeled tree, n = {n}, seed = {seed}\n");
    let tree = gen::random_tree(n, seed);
    // One shared substrate: every scheme below reuses the same heavy-path
    // decomposition, auxiliary labeling and binarization.
    let sub = Substrate::new(&tree);
    let oracle = DistanceOracle::new(&tree);

    // --- exact schemes -----------------------------------------------------
    let naive = NaiveScheme::build_with_substrate(&sub);
    let da = DistanceArrayScheme::build_with_substrate(&sub);
    let opt = OptimalScheme::build_with_substrate(&sub);

    let (u, v) = (tree.node(1), tree.node(n - 1));
    println!("exact distance({u}, {v}):");
    println!("  ground truth        : {}", oracle.distance(u, v));
    println!("  naive labels        : {}", naive.distance(u, v));
    println!("  distance-array      : {}", da.distance(u, v));
    println!("  optimal (1/4 log^2) : {}", opt.distance(u, v));

    println!("\nmaximum label sizes (bits):");
    let rows = [
        ("naive fixed-width (Θ(log²n))", naive.max_label_bits()),
        ("distance-array (½·log²n)", da.max_label_bits()),
        ("optimal (¼·log²n)", opt.max_label_bits()),
    ];
    for (name, bits) in rows {
        println!("  {name:32} {bits:7} bits");
    }
    println!(
        "  theory: ¼·log²n = {:.0} bits, ½·log²n = {:.0} bits (n = binarized size {})",
        bounds::exact_upper(4 * n),
        bounds::distance_array_upper(4 * n),
        4 * n
    );

    // --- k-distance ----------------------------------------------------------
    let k = 4;
    let kd = KDistanceScheme::build_with_substrate(&sub, k);
    let stats = LabelStats::from_sizes(tree.nodes().map(|x| kd.label_bits(x)));
    println!("\nk-distance labels (k = {k}): {stats}");
    let mut within = 0;
    let mut beyond = 0;
    for i in 0..200 {
        let a = tree.node((i * 37) % n);
        let b = tree.node((i * 61 + 5) % n);
        match kd.distance(a, b) {
            Some(d) => {
                assert_eq!(d, oracle.distance(a, b));
                within += 1;
            }
            None => {
                assert!(oracle.distance(a, b) > k);
                beyond += 1;
            }
        }
    }
    println!("  sampled queries: {within} within k, {beyond} beyond k (all verified)");

    // --- approximate ---------------------------------------------------------
    for eps in [0.5, 0.1] {
        let approx = ApproximateScheme::build_with_substrate(&sub, eps);
        let stats = LabelStats::from_sizes(tree.nodes().map(|x| approx.label_bits(x)));
        let mut worst = 1.0f64;
        for i in 0..500 {
            let a = tree.node((i * 13) % n);
            let b = tree.node((i * 97 + 3) % n);
            let d = oracle.distance(a, b);
            let est = approx.distance(a, b);
            if d > 0 {
                worst = worst.max(est as f64 / d as f64);
            }
        }
        println!(
            "(1+ε)-approximate labels (ε = {eps}): {stats}; worst observed ratio {worst:.3} \
             (bound {:.3})",
            1.0 + eps
        );
    }

    println!("\nDone — every answer above was computed from pairs of labels alone.");
}
