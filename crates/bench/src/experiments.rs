//! The experiment functions behind the `experiments` binary.
//!
//! Each function reproduces one row/figure of the paper's quantitative content
//! (see DESIGN.md §5 for the experiment index) and returns a [`Table`] that the
//! binary prints and `EXPERIMENTS.md` records.

use crate::golden;
use crate::rss;
use crate::workloads::{build_mixed_forest, forest_corpus, skewed_forest_queries, Family};
use crate::Table;
use std::time::Instant;
use treelab_core::approximate::ApproximateScheme;
use treelab_core::bounds;
use treelab_core::distance_array::DistanceArrayScheme;
use treelab_core::forest::{ForestStore, RouteScratch, ValidationPolicy};
use treelab_core::kdistance::KDistanceScheme;
use treelab_core::level_ancestor::LevelAncestorScheme;
use treelab_core::naive::NaiveScheme;
use treelab_core::optimal::OptimalScheme;
use treelab_core::stats::LabelStats;
use treelab_core::store::{SchemeStore, StoredScheme, NO_DISTANCE};
use treelab_core::substrate::{Parallelism, Substrate};
use treelab_core::universal::{universal_from_parent_labels, universal_tree_size};
use treelab_core::{DistanceScheme, LabelLayout};
use treelab_tree::{gen, Tree};

fn stats_of<S: DistanceScheme>(scheme: &S, tree: &Tree) -> LabelStats {
    LabelStats::from_sizes(tree.nodes().map(|u| scheme.label_bits(u)))
}

/// E1 (Table 1, "Exact"): label sizes of the three exact schemes across
/// families and sizes, against the ¼·log²n and ½·log²n leading terms.
pub fn exact_experiment(sizes: &[usize], families: &[Family], seed: u64) -> Table {
    let mut table = Table::new(
        "E1 — exact distance labels (Table 1, row 'Exact'): max label bits",
        &[
            "family",
            "n",
            "naive Θ(log²n)",
            "dist-array ½log²n",
            "optimal ¼log²n",
            "payload ½ / ¼",
            "theory ½log²n / ¼log²n (binarized n)",
        ],
    );
    for &family in families {
        for &n in sizes {
            let tree = family.build(n, seed);
            // One substrate per tree: the three exact schemes share a single
            // binarization + decomposition + auxiliary labeling.
            let sub = Substrate::new(&tree);
            let naive = NaiveScheme::build_with_substrate(&sub);
            let da = DistanceArrayScheme::build_with_substrate(&sub);
            let opt = OptimalScheme::build_with_substrate(&sub);
            let da_payload = tree
                .nodes()
                .map(|u| da.array_payload_bits(u))
                .max()
                .unwrap_or(0);
            let opt_payload = tree
                .nodes()
                .map(|u| opt.array_payload_bits(u))
                .max()
                .unwrap_or(0);
            let n_bin = 4 * tree.len();
            table.push_row(vec![
                family.name().to_string(),
                tree.len().to_string(),
                stats_of(&naive, &tree).max_bits.to_string(),
                stats_of(&da, &tree).max_bits.to_string(),
                stats_of(&opt, &tree).max_bits.to_string(),
                format!("{da_payload} / {opt_payload}"),
                format!(
                    "{:.0} / {:.0}",
                    bounds::distance_array_upper(n_bin),
                    bounds::exact_upper(n_bin)
                ),
            ]);
        }
    }
    table
}

/// E2 (Table 1, "Approximate"): label sizes and observed error of the
/// `(1+ε)`-approximate scheme as ε shrinks.
pub fn approximate_experiment(n: usize, epsilons: &[f64], seed: u64) -> Table {
    let mut table = Table::new(
        "E2 — (1+ε)-approximate labels (Table 1, row 'Approximate')",
        &[
            "ε",
            "n",
            "max bits",
            "mean bits",
            "worst ratio",
            "theory log(1/ε)·log n",
        ],
    );
    let tree = gen::random_binary(n, seed);
    // One substrate for the whole ε sweep (decomposition, aux labels, oracle).
    let sub = Substrate::new(&tree);
    let oracle = sub.oracle();
    for &eps in epsilons {
        let scheme = ApproximateScheme::build_with_substrate(&sub, eps);
        let stats = LabelStats::from_sizes(tree.nodes().map(|u| scheme.label_bits(u)));
        let mut worst: f64 = 1.0;
        for i in 0..4000usize {
            let u = tree.node((i * 379) % tree.len());
            let v = tree.node((i * 811 + 7) % tree.len());
            let d = oracle.distance(u, v);
            if d == 0 {
                continue;
            }
            let est = scheme.distance(u, v);
            worst = worst.max(est as f64 / d as f64);
        }
        table.push_row(vec![
            format!("{eps}"),
            tree.len().to_string(),
            stats.max_bits.to_string(),
            format!("{:.1}", stats.mean_bits),
            format!("{worst:.4}"),
            format!("{:.0}", bounds::approximate_bound(tree.len(), eps)),
        ]);
    }
    table
}

/// E3 (Table 1, "k-distance, k < log n"): label size versus `k` in the small
/// regime.
pub fn k_small_experiment(n: usize, ks: &[u64], seed: u64) -> Table {
    let mut table = Table::new(
        "E3 — k-distance labels, k < log n (Table 1)",
        &[
            "family",
            "n",
            "k",
            "max bits",
            "mean bits",
            "theory log n + k·log((log n)/k)",
        ],
    );
    for family in [Family::Random, Family::Caterpillar, Family::Comb] {
        let tree = family.build(n, seed);
        let sub = Substrate::new(&tree);
        for &k in ks {
            let scheme = KDistanceScheme::build_with_substrate(&sub, k);
            let stats = LabelStats::from_sizes(tree.nodes().map(|u| scheme.label_bits(u)));
            table.push_row(vec![
                family.name().to_string(),
                tree.len().to_string(),
                k.to_string(),
                stats.max_bits.to_string(),
                format!("{:.1}", stats.mean_bits),
                format!("{:.0}", bounds::k_distance_upper(tree.len(), k)),
            ]);
        }
    }
    table
}

/// E4 (Table 1, "k-distance, k ≥ log n"): label size versus `k` in the large
/// regime.
pub fn k_large_experiment(n: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "E4 — k-distance labels, k ≥ log n (Table 1)",
        &["family", "n", "k", "max bits", "theory log n·log(k/log n)"],
    );
    let log_n = (n as f64).log2() as u64;
    for family in [Family::Random, Family::Caterpillar] {
        let tree = family.build(n, seed);
        let sub = Substrate::new(&tree);
        for mult in [1u64, 2, 4, 16, 64] {
            let k = (log_n * mult).max(1);
            let scheme = KDistanceScheme::build_with_substrate(&sub, k);
            let stats = LabelStats::from_sizes(tree.nodes().map(|u| scheme.label_bits(u)));
            table.push_row(vec![
                family.name().to_string(),
                tree.len().to_string(),
                k.to_string(),
                stats.max_bits.to_string(),
                format!("{:.0}", bounds::k_distance_upper(tree.len(), k)),
            ]);
        }
    }
    table
}

/// E5: the lower-bound families — measured label sizes on subdivided
/// `(h,M)`-trees against the Lemma 2.3 bound, and the `(x⃗,h,d)`-regular
/// family's counting bound.
pub fn lower_bound_experiment(seed: u64) -> Table {
    let mut table = Table::new(
        "E5 — lower-bound families: (h,M)-trees (Lemma 2.3) and (x⃗,h,d)-regular trees (§4.1)",
        &[
            "family",
            "parameters",
            "nodes",
            "measured max bits (optimal scheme)",
            "lower bound (bits)",
        ],
    );
    for (h, m) in [(3u32, 64u64), (4, 48), (5, 24), (6, 12), (7, 8)] {
        let weighted = gen::hm_tree_random(h, m, seed);
        let (tree, _) = gen::subdivide(&weighted);
        let scheme = OptimalScheme::build(&tree);
        let leaves = tree.leaves();
        let stats = LabelStats::from_sizes(leaves.iter().map(|&u| scheme.label_bits(u)));
        table.push_row(vec![
            "(h,M)-tree subdivided".to_string(),
            format!("h={h}, M={m}"),
            tree.len().to_string(),
            stats.max_bits.to_string(),
            format!("{:.1}", bounds::hm_tree_lower(h, m)),
        ]);
    }
    for (xs, h, d, k) in [(vec![1u32, 2], 2u32, 2u32, 4u64), (vec![1, 2, 1], 2, 2, 6)] {
        let tree = gen::regular_tree(&xs, h, d);
        let scheme = KDistanceScheme::build(&tree, k);
        let stats = LabelStats::from_sizes(tree.leaves().iter().map(|&u| scheme.label_bits(u)));
        table.push_row(vec![
            "(x⃗,h,d)-regular".to_string(),
            format!("x={xs:?}, h={h}, d={d}, k={k}"),
            tree.len().to_string(),
            stats.max_bits.to_string(),
            format!(
                "{:.1}",
                (bounds::regular_tree_leaves(xs.len() as u32, h, d)).log2()
            ),
        ]);
    }
    table
}

/// E6: universal trees — explicit sizes, the Lemma 3.6 conversion, and the
/// separation between distance labels and level-ancestor labels.
pub fn universal_experiment(max_n: usize) -> Table {
    let mut table = Table::new(
        "E6 — universal trees and the distance vs level-ancestor separation (§3.5, Theorem 1.2)",
        &[
            "n",
            "recursive U(n) size",
            "Lemma 3.6 tree size (distinct labels)",
            "log₂ optimal-universal size (Lemma 3.7)",
            "level-ancestor max bits (comb, n=8192)",
            "optimal distance payload bits (same tree)",
        ],
    );
    // The separation is about the array payloads on adversarial shapes: the
    // level-ancestor labels must spend ~½·log²n bits on branch offsets, while
    // the optimal distance labels get away with ~¼·log²n (Theorems 1.1/1.2).
    let comb = gen::comb(8192);
    let la = LevelAncestorScheme::build(&comb);
    let la_bits = la.max_label_bits();
    let opt = OptimalScheme::build(&comb);
    let opt_payload = comb
        .nodes()
        .map(|u| opt.array_payload_bits(u))
        .max()
        .unwrap_or(0);
    for n in 2..=max_n {
        let conv = universal_from_parent_labels(n.min(6));
        table.push_row(vec![
            n.to_string(),
            universal_tree_size(n).to_string(),
            if n <= 6 {
                format!("{} ({})", conv.tree.len(), conv.distinct_labels)
            } else {
                "—".to_string()
            },
            format!("{:.1}", bounds::universal_tree_size_log2(n).max(0.0)),
            la_bits.to_string(),
            opt_payload.to_string(),
        ]);
    }
    table
}

/// E9 (ablation): how much each ingredient of the optimal scheme (bit pushing,
/// the Thin-Lemma threshold, the fragment granularity) contributes to the
/// measured label sizes, on the comb family where the machinery matters most.
pub fn ablation_experiment(n: usize, seed: u64) -> Table {
    use treelab_core::optimal::OptimalConfig;
    let mut table = Table::new(
        "E9 — ablation of the optimal scheme's ingredients (comb family)",
        &[
            "variant",
            "n",
            "max total bits",
            "max payload bits",
            "total accumulator bits",
        ],
    );
    let tree = Family::Comb.build(n, seed);
    // All six variants share one substrate (the knobs only affect the
    // modified-distance-array stage, not the decomposition).
    let sub = Substrate::new(&tree);
    let variants: Vec<(&str, OptimalConfig)> = vec![
        ("paper defaults (c=8, B=⌈√log n⌉)", OptimalConfig::default()),
        (
            "no bit pushing",
            OptimalConfig {
                enable_pushing: false,
                ..Default::default()
            },
        ),
        (
            "aggressive pushing (c=2)",
            OptimalConfig {
                thin_exponent: 2,
                ..Default::default()
            },
        ),
        (
            "conservative pushing (c=16)",
            OptimalConfig {
                thin_exponent: 16,
                ..Default::default()
            },
        ),
        (
            "fine fragments (B=1)",
            OptimalConfig {
                fragment_block: Some(1),
                ..Default::default()
            },
        ),
        (
            "coarse fragments (B=64)",
            OptimalConfig {
                fragment_block: Some(64),
                ..Default::default()
            },
        ),
    ];
    for (name, config) in variants {
        let scheme = OptimalScheme::build_with_substrate_config(&sub, config);
        let stats = stats_of(&scheme, &tree);
        let payload = tree
            .nodes()
            .map(|u| scheme.array_payload_bits(u))
            .max()
            .unwrap_or(0);
        let acc: usize = tree.nodes().map(|u| scheme.accumulator_bits(u)).sum();
        table.push_row(vec![
            name.to_string(),
            tree.len().to_string(),
            stats.max_bits.to_string(),
            payload.to_string(),
            acc.to_string(),
        ]);
    }
    table
}

/// E7/E8: wall-clock construction and query times (complementing the Criterion
/// benches with a single easily-recorded table).
pub fn timing_experiment(sizes: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E7/E8 — construction time and per-query time (random trees)",
        &["n", "scheme", "build (ms)", "query (ns, mean over 100k)"],
    );
    for &n in sizes {
        let tree = gen::random_tree(n, seed);
        macro_rules! measure {
            ($name:expr, $build:expr, $query:expr) => {{
                let t0 = Instant::now();
                let scheme = $build;
                let build_ms = t0.elapsed().as_secs_f64() * 1e3;
                let query = $query;
                let t1 = Instant::now();
                let mut acc = 0u64;
                let q = 100_000usize;
                for i in 0..q {
                    let a = tree.node((i * 7919) % tree.len());
                    let b = tree.node((i * 104_729 + 1) % tree.len());
                    acc = acc.wrapping_add(query(&scheme, a, b));
                }
                let per_query = t1.elapsed().as_nanos() as f64 / q as f64;
                std::hint::black_box(acc);
                table.push_row(vec![
                    n.to_string(),
                    $name.to_string(),
                    format!("{build_ms:.1}"),
                    format!("{per_query:.0}"),
                ]);
            }};
        }
        measure!(
            "naive",
            NaiveScheme::build(&tree),
            |s: &NaiveScheme, a, b| { s.distance(a, b) }
        );
        measure!(
            "distance-array",
            DistanceArrayScheme::build(&tree),
            |s: &DistanceArrayScheme, a, b| s.distance(a, b)
        );
        measure!(
            "optimal",
            OptimalScheme::build(&tree),
            |s: &OptimalScheme, a, b| { s.distance(a, b) }
        );
        measure!(
            "k-distance (k=8)",
            KDistanceScheme::build(&tree, 8),
            |s: &KDistanceScheme, a, b| s.distance(a, b).unwrap_or(0)
        );
        measure!(
            "approximate (ε=0.25)",
            ApproximateScheme::build(&tree, 0.25),
            |s: &ApproximateScheme, a, b| s.distance(a, b)
        );
    }
    table
}

/// E10: the shared-substrate construction sweep — total wall-clock time to
/// build **all six** per-tree schemes (the exact trio, k-distance,
/// approximate, level-ancestor) with isolated `build` calls versus one shared
/// [`Substrate`], at the given [`Parallelism`].
///
/// The shared side removes five of the six heavy-path decompositions,
/// auxiliary labelings and binarizations; how much that saves depends on
/// what the substrate costs (E10 records ≥ 30% at `n = 16k` with the
/// original per-node substrate and about 25% with the arena-based one).
pub fn substrate_experiment(sizes: &[usize], seed: u64, par: Parallelism) -> Table {
    let mut table = Table::new(
        format!(
            "E10 — shared build substrate: per-tree construction of all 6 schemes \
             (random trees, {} thread(s))",
            par.thread_count()
        ),
        &[
            "n",
            "isolated builds (ms)",
            "shared substrate (ms)",
            "of which substrate (ms)",
            "reduction",
        ],
    );
    for &n in sizes {
        let tree = gen::random_tree(n, seed);

        // Warm-up pass so first-touch allocator effects hit neither side.
        std::hint::black_box(NaiveScheme::build(&tree));

        // Isolated side: a fresh (unshared) substrate per scheme, pinned to
        // the same parallelism as the shared side so the two columns differ
        // only in sharing, not in thread count.
        let isolated = || Substrate::with_parallelism(&tree, par);
        let t0 = Instant::now();
        std::hint::black_box(NaiveScheme::build_with_substrate(&isolated()));
        std::hint::black_box(DistanceArrayScheme::build_with_substrate(&isolated()));
        std::hint::black_box(OptimalScheme::build_with_substrate(&isolated()));
        std::hint::black_box(KDistanceScheme::build_with_substrate(&isolated(), 8));
        std::hint::black_box(ApproximateScheme::build_with_substrate(&isolated(), 0.25));
        std::hint::black_box(LevelAncestorScheme::build_with_substrate(&isolated()));
        let isolated_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let sub = Substrate::with_parallelism(&tree, par);
        // Only the components the schemes consume (the oracle is a
        // validation-side structure; charging it here would be unfair to the
        // shared path).
        sub.heavy_paths();
        sub.aux_labels();
        sub.depths();
        sub.root_distances();
        sub.binarized();
        let substrate_ms = t1.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(NaiveScheme::build_with_substrate(&sub));
        std::hint::black_box(DistanceArrayScheme::build_with_substrate(&sub));
        std::hint::black_box(OptimalScheme::build_with_substrate(&sub));
        std::hint::black_box(KDistanceScheme::build_with_substrate(&sub, 8));
        std::hint::black_box(ApproximateScheme::build_with_substrate(&sub, 0.25));
        std::hint::black_box(LevelAncestorScheme::build_with_substrate(&sub));
        let shared_ms = t1.elapsed().as_secs_f64() * 1e3;

        table.push_row(vec![
            tree.len().to_string(),
            format!("{isolated_ms:.1}"),
            format!("{shared_ms:.1}"),
            format!("{substrate_ms:.1}"),
            format!("{:.0}%", 100.0 * (1.0 - shared_ms / isolated_ms)),
        ]);
    }
    table
}

/// Timed repetitions per throughput measurement; the best one is reported
/// for *both* sides of every comparison, so scheduler noise on a shared
/// machine cannot bias the ratio either way.
const REPS: usize = 3;

/// Queries per second of `query` over `pairs`: best of [`REPS`] timed rounds,
/// each issuing at least `min_total` queries (an untimed pass warms caches).
fn throughput(
    pairs: &[(usize, usize)],
    min_total: usize,
    mut query: impl FnMut(usize, usize) -> u64,
) -> f64 {
    let mut acc = 0u64;
    for &(u, v) in pairs {
        acc = acc.wrapping_add(query(u, v));
    }
    let rounds = min_total.div_ceil(pairs.len()).max(1);
    let mut best = 0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &(u, v) in pairs {
                acc = acc.wrapping_add(query(u, v));
            }
        }
        let qps = (rounds * pairs.len()) as f64 / t0.elapsed().as_secs_f64();
        best = best.max(qps);
    }
    std::hint::black_box(acc);
    best
}

/// Batch queries per second of a store over `pairs`, chunked like a serving
/// loop would (one `distances_into` call per chunk, output buffer reused);
/// best of [`REPS`] timed rounds.
fn batch_throughput<S: StoredScheme>(
    store: &SchemeStore<S>,
    pairs: &[(usize, usize)],
    min_total: usize,
) -> f64 {
    let mut out = Vec::with_capacity(pairs.len());
    store.distances_into(pairs, &mut out); // warm-up pass
    let rounds = min_total.div_ceil(pairs.len()).max(1);
    let mut best = 0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..rounds {
            for chunk in pairs.chunks(1024) {
                out.clear();
                store.distances_into(chunk, &mut out);
                std::hint::black_box(out.last().copied());
            }
        }
        let qps = (rounds * pairs.len()) as f64 / t0.elapsed().as_secs_f64();
        best = best.max(qps);
    }
    best
}

/// E11: the zero-copy scheme store — store size, load time, and store-backed
/// (batch) versus scheme-method query throughput for all six schemes.
///
/// Since the packed-native refactor the "scheme" column goes through the same
/// kernels as the store columns (the scheme *is* a store); the batch speedup
/// isolates what the amortized bounds checks + prefetch of the batch engine
/// buy over one-at-a-time queries.
pub fn store_experiment(sizes: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        format!(
            "E11 — zero-copy scheme store: size, load time, and batch query throughput \
             (random trees) [kernel: {}]",
            treelab_bits::simd::kernel_config()
        ),
        &[
            "n",
            "scheme",
            "store (KiB)",
            "load (µs)",
            "scheme (Mq/s)",
            "store (Mq/s)",
            "store batch (Mq/s)",
            "batch speedup",
        ],
    );
    let queries = 200_000usize;
    for &n in sizes {
        let tree = gen::random_tree(n, seed);
        let sub = Substrate::new(&tree);
        let pairs: Vec<(usize, usize)> = (0..65_536)
            .map(|i| ((i * 7919 + 3) % tree.len(), (i * 104_729 + 11) % tree.len()))
            .collect();

        macro_rules! row {
            ($ty:ty, $scheme:expr, $struct_query:expr) => {{
                let scheme = $scheme;
                let bytes = SchemeStore::<$ty>::serialize(&scheme);
                // Load time: median of 5 validated reloads.
                let mut loads: Vec<f64> = (0..5)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(
                            SchemeStore::<$ty>::from_bytes(&bytes).expect("valid store"),
                        );
                        t.elapsed().as_secs_f64() * 1e6
                    })
                    .collect();
                loads.sort_by(f64::total_cmp);
                let store = SchemeStore::<$ty>::from_bytes(&bytes).expect("valid store");
                let struct_query = $struct_query;
                let struct_qps = throughput(&pairs, queries, |u, v| struct_query(&scheme, u, v));
                let store_qps = throughput(&pairs, queries, |u, v| store.distance(u, v));
                let batch_qps = batch_throughput(&store, &pairs, queries);
                table.push_row(vec![
                    tree.len().to_string(),
                    <$ty as StoredScheme>::STORE_NAME.to_string(),
                    format!("{:.0}", bytes.len() as f64 / 1024.0),
                    format!("{:.0}", loads[2]),
                    format!("{:.2}", struct_qps / 1e6),
                    format!("{:.2}", store_qps / 1e6),
                    format!("{:.2}", batch_qps / 1e6),
                    format!("{:.2}x", batch_qps / struct_qps),
                ]);
            }};
        }

        row!(
            NaiveScheme,
            NaiveScheme::build_with_substrate(&sub),
            |s: &NaiveScheme, u, v| s.distance(tree.node(u), tree.node(v))
        );
        row!(
            DistanceArrayScheme,
            DistanceArrayScheme::build_with_substrate(&sub),
            |s: &DistanceArrayScheme, u, v| s.distance(tree.node(u), tree.node(v))
        );
        row!(
            OptimalScheme,
            OptimalScheme::build_with_substrate(&sub),
            |s: &OptimalScheme, u, v| s.distance(tree.node(u), tree.node(v))
        );
        row!(
            KDistanceScheme,
            KDistanceScheme::build_with_substrate(&sub, 8),
            |s: &KDistanceScheme, u, v| s
                .distance(tree.node(u), tree.node(v))
                .unwrap_or(NO_DISTANCE)
        );
        row!(
            ApproximateScheme,
            ApproximateScheme::build_with_substrate(&sub, 0.25),
            |s: &ApproximateScheme, u, v| s.distance(tree.node(u), tree.node(v))
        );
        row!(
            LevelAncestorScheme,
            LevelAncestorScheme::build_with_substrate(&sub),
            |s: &LevelAncestorScheme, u, v| DistanceScheme::distance(s, tree.node(u), tree.node(v))
        );
    }
    table
}

/// E12: the forest serving layer — one mixed-scheme frame over the seeded
/// corpus, Zipf-skewed routed traffic, and three serving strategies:
///
/// * **loop** — the naive per-query serving loop
///   (`forest.tree(id).distance(u, v)`: one id lookup, one runtime dispatch
///   and one cold label access per query, hopping trees in arrival order);
/// * **routed** — [`ForestStore::try_route_distances_into`] on a serial
///   [`RouteScratch`]: group by tree, drive each group through the scheme's
///   allocation-free batch engine, scatter back to arrival order;
/// * **sharded** — the same engine on a reused
///   [`RouteScratch::with_parallelism`] scratch, tree groups fanned out over
///   scoped worker threads, one row per entry of the `threads` sweep (`0` =
///   [`Parallelism::Auto`], i.e. all available cores).
///
/// This is the number the ISSUE-4 acceptance criterion is about: sharded
/// routed throughput ≥ 1.5× the single-thread per-tree loop at
/// `64 trees × 16k nodes`.  The loop and routed figures are measured once
/// and repeated on every row so each sharded setting reads as a complete
/// comparison.
pub fn forest_experiment(
    trees: usize,
    nodes_per_tree: usize,
    queries: usize,
    seed: u64,
    threads: &[usize],
) -> Table {
    let mut table = Table::new(
        format!(
            "E12 — forest serving layer: routed + sharded batch throughput vs the per-query \
             loop (mixed-scheme corpus, Zipf(1.0) tree popularity) [kernel: {}]",
            treelab_bits::simd::kernel_config()
        ),
        &[
            "trees",
            "n/tree",
            "frame (MiB)",
            "load (ms)",
            "threads",
            "loop (Mq/s)",
            "routed (Mq/s)",
            "sharded (Mq/s)",
            "routed/loop",
            "sharded/loop",
        ],
    );
    let corpus = forest_corpus(trees, nodes_per_tree, seed);
    let forest = build_mixed_forest(&corpus);
    let bytes = forest.to_bytes();
    // Load time: median of 5 validated reloads (copy path, whole forest).
    let mut loads: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ForestStore::from_bytes(&bytes).expect("valid forest"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    loads.sort_by(f64::total_cmp);

    let batch = skewed_forest_queries(&corpus, queries, 1.0, seed ^ 0x0f0e);

    // Per-query loop: tree lookup + dispatch + single query, arrival order.
    let mut acc = 0u64;
    let mut best_loop = 0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for &(id, u, v) in &batch {
            acc = acc.wrapping_add(forest.tree(id).expect("known tree").distance(u, v));
        }
        best_loop = best_loop.max(batch.len() as f64 / t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(acc);

    // Routed engine, single thread, scratch + output reused across rounds.
    let mut scratch = RouteScratch::new();
    let mut out = Vec::with_capacity(batch.len());
    let warm = forest.try_route_distances_into(&batch, &mut scratch, &mut out);
    assert!(warm.all_ok(), "E12 traffic names only live trees and nodes");
    let mut best_routed = 0f64;
    for _ in 0..REPS {
        out.clear();
        let t0 = Instant::now();
        forest.try_route_distances_into(&batch, &mut scratch, &mut out);
        best_routed = best_routed.max(batch.len() as f64 / t0.elapsed().as_secs_f64());
        std::hint::black_box(out.last().copied());
    }

    // Sharded engine, one row per thread setting (`0` = Auto = all available
    // cores; on a single-core host every setting degenerates to the routed
    // engine minus partitioning overhead).
    for &t in threads {
        let mut scratch = RouteScratch::with_parallelism(Parallelism::from_thread_count(t));
        out.clear();
        forest.try_route_distances_into(&batch, &mut scratch, &mut out); // warm-up
        let mut best_sharded = 0f64;
        for _ in 0..REPS {
            out.clear();
            let t0 = Instant::now();
            forest.try_route_distances_into(&batch, &mut scratch, &mut out);
            best_sharded = best_sharded.max(batch.len() as f64 / t0.elapsed().as_secs_f64());
            std::hint::black_box(out.last().copied());
        }
        table.push_row(vec![
            trees.to_string(),
            nodes_per_tree.to_string(),
            format!("{:.1}", bytes.len() as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", loads[2]),
            if t == 0 {
                "auto".to_string()
            } else {
                t.to_string()
            },
            format!("{:.2}", best_loop / 1e6),
            format!("{:.2}", best_routed / 1e6),
            format!("{:.2}", best_sharded / 1e6),
            format!("{:.2}x", best_routed / best_loop),
            format!("{:.2}x", best_sharded / best_loop),
        ]);
    }
    table
}

/// E14: restart latency — the time from "a serving process starts" to "its
/// first query is answered", for the three open strategies of the same
/// published forest file:
///
/// * **eager** — [`ForestStore::open`]: read the whole file and validate
///   every inner frame (checksums included) before serving anything;
/// * **lazy** — [`ForestStore::open_with`] under [`ValidationPolicy::Lazy`]:
///   read the whole file but validate only the header + directory; the
///   queried tree validates on first touch;
/// * **mmap lazy** — `ForestStore::open_mmap` (behind the off-by-default
///   `mmap` feature): map the file in place, touch only the header +
///   directory pages at open, and fault in one tree's pages on the first
///   query — no read, no copy, no whole-file validation.
///
/// This is the ISSUE-6 acceptance number: on the largest recorded forest the
/// mapped lazy open must reach its first answer ≥ 100× sooner than the eager
/// open.  Every figure is best-of-`REPS`, and every strategy must produce
/// the same answer.
pub fn restart_experiment(trees: usize, nodes_per_tree: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "E14 — restart latency: open-to-first-query, eager vs lazy vs mapped \
         (mixed-scheme forest, published to disk)",
        &[
            "trees",
            "n/tree",
            "frame (MiB)",
            "eager (ms)",
            "lazy (ms)",
            "lazy gain",
            "mmap lazy (ms)",
            "mmap gain",
        ],
    );
    let corpus = forest_corpus(trees, nodes_per_tree, seed);
    let forest = build_mixed_forest(&corpus);
    let dir = crate::ScratchDir::new("e14");
    let path = dir.join("forest.bin");
    forest.publish(&path).expect("forest publishes");
    let mib = forest.size_bytes() as f64 / (1024.0 * 1024.0);
    let want = forest.tree(0).expect("tree 0").distance(0, 1);

    // Best-of-REPS milliseconds from a cold open to the first answer; the
    // file stays in the page cache across reps, so every strategy pays the
    // same I/O and the spread is pure validation work.
    let time_to_first = |open_and_query: &mut dyn FnMut() -> u64| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let d = std::hint::black_box(open_and_query());
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(d, want, "every open strategy answers identically");
            best = best.min(dt);
        }
        best
    };

    let eager = time_to_first(&mut || {
        let f = ForestStore::open(&path).expect("valid forest");
        f.tree(0).expect("tree 0").distance(0, 1)
    });
    let lazy = time_to_first(&mut || {
        let f = ForestStore::open_with(&path, ValidationPolicy::Lazy).expect("valid directory");
        f.tree(0).expect("tree 0").distance(0, 1)
    });
    #[cfg(all(feature = "mmap", unix))]
    let (mmap_ms, mmap_gain) = {
        let ms = time_to_first(&mut || {
            let f = ForestStore::open_mmap(&path, ValidationPolicy::Lazy).expect("valid map");
            f.tree(0).expect("tree 0").distance(0, 1)
        });
        (format!("{ms:.3}"), format!("{:.0}x", eager / ms))
    };
    #[cfg(not(all(feature = "mmap", unix)))]
    let (mmap_ms, mmap_gain) = (
        "n/a (build with --features mmap)".to_string(),
        "—".to_string(),
    );

    table.push_row(vec![
        trees.to_string(),
        nodes_per_tree.to_string(),
        format!("{mib:.1}"),
        format!("{eager:.2}"),
        format!("{lazy:.2}"),
        format!("{:.1}x", eager / lazy),
        mmap_ms,
        mmap_gain,
    ]);
    table
}

/// The substrate configuration every giant-tree run shares: chunk-streaming
/// label packing plus exactly the components the schemes consume — *not* the
/// validation-side [`DistanceOracle`], whose `O(n log n)` tables would both
/// dominate the wall clock and pollute the RSS baseline at `n = 16M`
/// (spot-checks walk parent pointers instead; recursive trees are shallow).
fn giant_substrate(tree: &Tree, chunk: usize) -> Substrate<'_> {
    let mut sub = Substrate::new(tree);
    sub.set_chunk_rows(chunk);
    sub.heavy_paths();
    sub.aux_labels();
    sub.depths();
    sub.root_distances();
    sub.binarized();
    sub
}

/// Deterministic query pairs over `0..n` (the same congruential sampling the
/// E11 store experiment uses, so throughputs stay comparable across tables).
fn sample_pairs(n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|i| ((i * 7919 + 3) % n, (i * 104_729 + 11) % n))
        .collect()
}

/// E15: the giant-tree scale run — E1's label sizes, E7's build times and
/// E11's batch throughput extended to `n = 16M` through the chunk-streaming
/// build path, with the *transient* pack memory of every scheme measured
/// (peak RSS above the post-substrate baseline, isolated per phase via
/// [`rss::measure_peak`]).
///
/// The tree is produced by [`gen::random_recursive_streaming`], which never
/// materializes an intermediate edge list; the first two rows record what the
/// topology and the shared substrate themselves cost, so the per-scheme peaks
/// can be read as "what packing adds on top".  Every scheme is round-tripped
/// through its serialized frame and spot-checked against naive distances.
pub fn giant_experiment(n: usize, chunk: usize, seed: u64) -> Table {
    let mut table = Table::new(
        format!(
            "E15 — giant-tree scale run: streamed random-recursive tree, n = {n}, \
             chunk = {chunk} rows, six schemes (build + round-trip + batch query)"
        ),
        &[
            "scheme",
            "build (s)",
            "pack peak (MiB)",
            "store (MiB)",
            "max bits",
            "round-trip",
            "batch (Mq/s)",
            "spot-check",
        ],
    );
    let t0 = Instant::now();
    let (tree, gen_peak) = rss::measure_peak(|| gen::random_recursive_streaming(n, seed));
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (mut sub, sub_peak) = rss::measure_peak(|| giant_substrate(&tree, chunk));
    let sub_s = t1.elapsed().as_secs_f64();
    let dash = "—".to_string();
    table.push_row(vec![
        "(streamed tree)".to_string(),
        format!("{gen_s:.1}"),
        rss::fmt_mib(gen_peak),
        dash.clone(),
        dash.clone(),
        dash.clone(),
        dash.clone(),
        dash.clone(),
    ]);
    table.push_row(vec![
        "(shared substrate)".to_string(),
        format!("{sub_s:.1}"),
        rss::fmt_mib(sub_peak),
        dash.clone(),
        dash.clone(),
        dash.clone(),
        dash.clone(),
        dash,
    ]);

    let pairs = sample_pairs(n, 65_536);
    let queries = 1 << 17;

    macro_rules! grow {
        ($ty:ty, $name:expr, $build:expr, $check:expr) => {{
            let t = Instant::now();
            let (scheme, peak) = rss::measure_peak(|| $build);
            let build_s = t.elapsed().as_secs_f64();
            let store = scheme.as_store();
            let bytes = store.to_bytes();
            let round_trip = match SchemeStore::<$ty>::from_bytes(&bytes) {
                Ok(loaded) if loaded.as_words() == store.as_words() => "ok",
                Ok(_) => "MISMATCH",
                Err(_) => "LOAD ERROR",
            };
            let store_mib = bytes.len() as f64 / (1024.0 * 1024.0);
            drop(bytes);
            let max_bits =
                LabelStats::from_sizes(tree.nodes().map(|u| scheme.label_bits(u))).max_bits;
            let batch = batch_throughput(store, &pairs, queries);
            let check = $check;
            let mut spot = "ok";
            for i in 0..64usize {
                let (u, v) = ((i * 48_271 + 17) % n, (i * 16_807 + 5) % n);
                let want = tree.distance_naive(tree.node(u), tree.node(v));
                if !check(store.distance(u, v), want) {
                    spot = "FAIL";
                    break;
                }
            }
            table.push_row(vec![
                $name.to_string(),
                format!("{build_s:.1}"),
                rss::fmt_mib(peak),
                format!("{store_mib:.1}"),
                max_bits.to_string(),
                round_trip.to_string(),
                format!("{:.2}", batch / 1e6),
                spot.to_string(),
            ]);
        }};
    }

    let exact = |got: u64, want: u64| got == want;
    grow!(
        NaiveScheme,
        "naive-fixed-width",
        NaiveScheme::build_with_substrate(&sub),
        exact
    );
    grow!(
        DistanceArrayScheme,
        "distance-array",
        DistanceArrayScheme::build_with_substrate(&sub),
        exact
    );
    grow!(
        OptimalScheme,
        "optimal-quarter",
        OptimalScheme::build_with_substrate(&sub),
        exact
    );
    grow!(
        KDistanceScheme,
        "k-distance (k=8)",
        KDistanceScheme::build_with_substrate(&sub, 8),
        |got: u64, want: u64| if want <= 8 {
            got == want
        } else {
            got == NO_DISTANCE
        }
    );
    grow!(
        ApproximateScheme,
        "approximate (ε=0.25)",
        ApproximateScheme::build_with_substrate(&sub, 0.25),
        |got: u64, want: u64| got >= want && got as f64 <= want as f64 * 1.25 + 0.5
    );
    grow!(
        LevelAncestorScheme,
        "level-ancestor",
        LevelAncestorScheme::build_with_substrate(&sub),
        exact
    );

    // The measured half of the O(chunk) claim, at full scale: re-pack the
    // scheme with the largest rows (distance-array) with whole-tree row
    // materialization; its transient peak against the chunked row above is
    // the streaming win.
    sub.set_chunk_rows(0);
    let t = Instant::now();
    let (_whole, peak) = rss::measure_peak(|| DistanceArrayScheme::build_with_substrate(&sub));
    let build_s = t.elapsed().as_secs_f64();
    let dash = "—".to_string();
    table.push_row(vec![
        "distance-array (whole-tree pack A/B)".to_string(),
        format!("{build_s:.1}"),
        rss::fmt_mib(peak),
        dash.clone(),
        dash.clone(),
        dash.clone(),
        dash.clone(),
        dash,
    ]);
    table
}

/// E15b: the heavy-path-clustered label layout A/B on the optimal scheme.
///
/// For each size the same streamed tree is packed twice from one substrate —
/// id-order and heavy-path-clustered — and served two workloads: uniform
/// random pairs and an "ancestor walk" batch (every node paired with a
/// 1–8-step ancestor, the path-local access pattern clustering targets).
/// Answers are spot-checked against naive distances on both layouts.
pub fn layout_experiment(sizes: &[usize], chunk: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "E15b — label layout A/B: id-order vs heavy-path-clustered \
         (optimal scheme, streamed random-recursive trees)",
        &[
            "n",
            "layout",
            "build (s)",
            "store (MiB)",
            "random pairs (Mq/s)",
            "ancestor walk (Mq/s)",
            "answers",
        ],
    );
    let queries = 1 << 17;
    for &n in sizes {
        let tree = gen::random_recursive_streaming(n, seed);
        let pairs = sample_pairs(n, 65_536);
        let anc_pairs: Vec<(usize, usize)> = (0..65_536)
            .map(|i| {
                let u = (i * 7919 + 3) % n;
                let mut v = tree.node(u);
                for _ in 0..=(i % 8) {
                    if let Some(p) = tree.parent(v) {
                        v = p;
                    }
                }
                (u, v.index())
            })
            .collect();
        let mut sub = giant_substrate(&tree, chunk);
        for (name, layout) in [
            ("id-order", LabelLayout::IdOrder),
            ("heavy-path", LabelLayout::HeavyPath),
        ] {
            sub.set_label_layout(layout);
            let t = Instant::now();
            let scheme = OptimalScheme::build_with_substrate(&sub);
            let build_s = t.elapsed().as_secs_f64();
            let store = scheme.as_store();
            let rnd = batch_throughput(store, &pairs, queries);
            let anc = batch_throughput(store, &anc_pairs, queries);
            let mut answers = "ok";
            for i in 0..64usize {
                let (u, v) = ((i * 48_271 + 17) % n, (i * 16_807 + 5) % n);
                let want = tree.distance_naive(tree.node(u), tree.node(v));
                if store.distance(u, v) != want {
                    answers = "FAIL";
                    break;
                }
            }
            table.push_row(vec![
                n.to_string(),
                name.to_string(),
                format!("{build_s:.1}"),
                format!(
                    "{:.1}",
                    (store.as_words().len() * 8) as f64 / (1024.0 * 1024.0)
                ),
                format!("{:.2}", rnd / 1e6),
                format!("{:.2}", anc / 1e6),
                answers.to_string(),
            ]);
        }
    }
    table
}

/// The `--giant-smoke` CI gate: one scheme, one streamed tree, chunked
/// build — asserts that (1) chunk-streaming produces the identical frame to
/// the whole-tree pack, (2) answers match naive distances, and (3) the
/// *measured* transient pack memory of the chunked build stays well below
/// the whole-tree build's (the O(chunk)-not-O(n) claim, enforced only when
/// the whole-tree peak is large enough to discriminate from allocator
/// noise).
///
/// The gated scheme is distance-array: its per-node rows (one light-edge
/// record per ancestor path) dominate the build's transient memory, so the
/// chunked-vs-whole peaks isolate exactly what streaming is supposed to
/// bound.  (The optimal scheme would not discriminate — its resident
/// per-path info table is O(paths) by design and dwarfs the rows.)
///
/// The chunked build runs *first*: RSS high-water deltas only see fresh page
/// mappings, so running the big build first would let the allocator recycle
/// its pages and deflate the chunked reading to zero.
///
/// # Errors
///
/// Returns a description of the first failed check; the binary exits
/// nonzero on it.
pub fn giant_smoke(n: usize, chunk: usize, seed: u64) -> Result<String, String> {
    let tree = gen::random_recursive_streaming(n, seed);
    let mut sub = giant_substrate(&tree, chunk);
    let (chunked, chunked_peak) =
        rss::measure_peak(|| DistanceArrayScheme::build_with_substrate(&sub));

    for i in 0..128usize {
        let u = tree.node((i * 48_271 + 17) % n);
        let v = tree.node((i * 16_807 + 5) % n);
        let want = tree.distance_naive(u, v);
        let got = chunked.distance(u, v);
        if got != want {
            return Err(format!(
                "chunked distance-array scheme answers {got} for d({u},{v}) = {want} at n={n}"
            ));
        }
    }

    sub.set_chunk_rows(0); // whole-tree pack for the memory A/B
    let (whole, whole_peak) = rss::measure_peak(|| DistanceArrayScheme::build_with_substrate(&sub));
    if chunked.as_store().as_words() != whole.as_store().as_words() {
        return Err(format!(
            "chunked (chunk={chunk}) and whole-tree frames differ at n={n}"
        ));
    }

    // 64 MiB floor: below it the deltas are allocator noise, not row storage.
    const FLOOR: u64 = 64 << 20;
    match (chunked_peak, whole_peak) {
        (Some(c), Some(w)) if w >= FLOOR => {
            if c as f64 > w as f64 * 0.7 {
                return Err(format!(
                    "chunked pack peak {} MiB is not bounded by the chunk: \
                     whole-tree pack peaked at {} MiB (n={n}, chunk={chunk})",
                    c >> 20,
                    w >> 20
                ));
            }
            Ok(format!(
                "giant smoke ok: n={n}, chunk={chunk}, pack peak {} MiB chunked \
                 vs {} MiB whole-tree, frames identical, 128 distances verified",
                c >> 20,
                w >> 20
            ))
        }
        _ => Ok(format!(
            "giant smoke ok: n={n}, chunk={chunk}, frames identical, 128 distances \
             verified (RSS bound not enforced: peaks unavailable or below the \
             {} MiB discrimination floor)",
            FLOOR >> 20
        )),
    }
}

/// The `--store --check` regression gate.
///
/// Validates that (1) the E11 table carries a parseable batch-speedup figure
/// for **all six** schemes (geomean reported), (2) every scheme × tree of the
/// golden corpus still builds its golden frame: the CRC-64 trailer word,
/// `Σ label_bits` and `max_label_bits` equal [`golden::GOLDEN_FRAMES`].
///
/// # Errors
///
/// Returns a human-readable description of the first failed check (the
/// binary exits nonzero on it).
pub fn store_check(table: &Table) -> Result<(), String> {
    // 1. Speedup data present for all six schemes.
    let scheme_col = 1usize;
    let speedup_col = table.headers.len() - 1;
    let mut seen = std::collections::BTreeMap::new();
    for row in &table.rows {
        let cell = &row[speedup_col];
        let value: f64 = cell
            .strip_suffix('x')
            .ok_or_else(|| format!("speedup cell `{cell}` is not of the form `<ratio>x`"))?
            .parse()
            .map_err(|e| format!("speedup cell `{cell}` does not parse: {e}"))?;
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("speedup `{cell}` is not a positive finite ratio"));
        }
        seen.insert(row[scheme_col].clone(), value);
    }
    let expected = [
        "naive-fixed-width",
        "distance-array",
        "optimal-quarter",
        "k-distance",
        "approximate",
        "level-ancestor",
    ];
    for name in expected {
        if !seen.contains_key(name) {
            return Err(format!("store table has no speedup row for `{name}`"));
        }
    }
    let geomean = (seen.values().map(|v| v.ln()).sum::<f64>() / seen.len() as f64).exp();
    println!(
        "store check: batch-vs-single speedup geomean over {} schemes = {geomean:.2}x",
        seen.len()
    );

    // 2. Golden frames.
    golden::compare(&golden::measure_corpus(), golden::GOLDEN_FRAMES)?;
    println!(
        "store check: {} golden frames match (CRC-64 trailer, Σ label_bits, max)",
        golden::GOLDEN_FRAMES.len()
    );

    Ok(())
}

/// E17: serving availability and fault-detection latency under the seeded
/// chaos schedule of [`crate::chaos`], with and without the budgeted
/// scrubber + repair loop.
///
/// Each pair of rows replays the *identical* fault/query schedule (same
/// seed) against a lazily-opened forest — once with scrubbing and repair
/// disabled, once with a `2^14`-words-per-round scrub budget and
/// end-of-round repair from replica frames.  The interesting column is
/// **wrong**: rot that lands *after* a slot validates is served silently by
/// the cached verdict, and only a fresh scrub pass (or a kernel panic)
/// catches it.  Scrubbing converts those wrong answers into detected,
/// repaired faults; availability recovers because repair puts the tree back
/// in service instead of leaving it degraded.
pub fn chaos_experiment(
    trees: usize,
    nodes_per_tree: usize,
    rounds: usize,
    batch: usize,
    seed: u64,
) -> Table {
    use crate::chaos::{run_chaos_on, ChaosConfig};

    let mut table = Table::new(
        format!(
            "E17: availability + detection latency vs fault rate \
             ({trees} trees x {nodes_per_tree} nodes, {rounds} rounds x {batch} queries, \
             seed {seed})"
        ),
        &[
            "flips/round",
            "scrub+repair",
            "availability %",
            "safe %",
            "wrong",
            "corrupt reported",
            "detected/injected",
            "latency (rounds)",
            "repairs",
        ],
    );

    let control = build_mixed_forest(&forest_corpus(trees, nodes_per_tree, seed));
    for &flip_rate in &[0.25f64, 1.0, 4.0] {
        for (scrub_budget, repair) in [(0usize, false), (1usize << 14, true)] {
            let cfg = ChaosConfig {
                trees,
                nodes_per_tree,
                rounds,
                batch,
                flip_rate,
                scrub_budget,
                repair,
                mutate_every: 7,
                file_faults_every: 0, // file probes are the smoke gate's job
                seed,
            };
            let r = run_chaos_on(&cfg, control.clone());
            table.push_row(vec![
                format!("{flip_rate}"),
                if repair {
                    "on".into()
                } else {
                    "off".to_string()
                },
                format!("{:.3}", 100.0 * r.availability()),
                format!("{:.3}", 100.0 * r.safe_fraction()),
                format!("{}", r.ok_wrong),
                format!("{}", r.corrupt_reported),
                format!(
                    "{}/{}",
                    r.detected_by_query + r.detected_by_scrub,
                    r.injected - r.retired
                ),
                format!("{:.2}", r.mean_detection_latency()),
                format!("{}", r.repairs),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_experiment_produces_rows_for_every_family_and_size() {
        let t = exact_experiment(&[64, 128], &[Family::Random, Family::Comb], 1);
        assert_eq!(t.rows.len(), 4);
        assert!(t.to_markdown().contains("comb"));
    }

    #[test]
    fn approximate_experiment_ratio_within_bound() {
        let t = approximate_experiment(256, &[1.0, 0.5], 2);
        for row in &t.rows {
            let eps: f64 = row[0].parse().unwrap();
            let ratio: f64 = row[4].parse().unwrap();
            assert!(
                ratio <= 1.0 + eps + 0.51,
                "ratio {ratio} too large for eps {eps}"
            );
        }
    }

    #[test]
    fn k_experiments_have_monotone_label_sizes_in_k() {
        let t = k_small_experiment(512, &[1, 2, 4], 3);
        // Per family the max bits are non-decreasing in k.
        for chunk in t.rows.chunks(3) {
            let bits: Vec<usize> = chunk.iter().map(|r| r[3].parse().unwrap()).collect();
            assert!(bits.windows(2).all(|w| w[1] >= w[0]), "{bits:?}");
        }
        let t = k_large_experiment(256, 3);
        assert_eq!(t.rows.len(), 10);
    }

    #[test]
    fn ablation_experiment_shows_pushing_reduces_payload() {
        let t = ablation_experiment(1024, 1);
        assert_eq!(t.rows.len(), 6);
        let payload_of = |name: &str| -> usize {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(name))
                .map(|r| r[3].parse().unwrap())
                .unwrap()
        };
        assert!(payload_of("paper defaults") <= payload_of("no bit pushing"));
    }

    #[test]
    fn substrate_experiment_reports_a_reduction() {
        let t = substrate_experiment(&[512], 3, Parallelism::Serial);
        assert_eq!(t.rows.len(), 1);
        let shared: f64 = t.rows[0][2].parse().unwrap();
        let isolated: f64 = t.rows[0][1].parse().unwrap();
        assert!(shared > 0.0 && isolated > 0.0);
        assert!(t.rows[0][4].ends_with('%'));
    }

    #[test]
    fn forest_experiment_reports_throughputs() {
        let t = forest_experiment(6, 96, 4000, 5, &[1, 0]);
        assert_eq!(t.rows.len(), 2, "one row per thread setting");
        assert_eq!(t.rows[0][4], "1");
        assert_eq!(t.rows[1][4], "auto");
        for row in &t.rows {
            for (col, cell) in row.iter().enumerate().take(8).skip(5) {
                let qps: f64 = cell.parse().unwrap();
                assert!(qps > 0.0, "column {col}: {qps}");
            }
            assert!(row[8].ends_with('x') && row[9].ends_with('x'));
        }
    }

    #[test]
    fn restart_experiment_reports_positive_latencies_and_gains() {
        let t = restart_experiment(6, 96, 5);
        assert_eq!(t.rows.len(), 1);
        for col in [3, 4] {
            let ms: f64 = t.rows[0][col].parse().unwrap();
            assert!(ms > 0.0, "column {col}: {ms}");
        }
        assert!(t.rows[0][5].ends_with('x'));
        #[cfg(all(feature = "mmap", unix))]
        {
            let ms: f64 = t.rows[0][6].parse().unwrap();
            assert!(ms > 0.0);
            assert!(t.rows[0][7].ends_with('x'));
        }
    }

    #[test]
    fn giant_experiment_small_instance_is_clean() {
        let t = giant_experiment(4096, 256, 7);
        // tree + substrate + six schemes + the whole-tree pack A/B row
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows[2..8] {
            assert_eq!(row[5], "ok", "{}: round-trip", row[0]);
            assert_eq!(row[7], "ok", "{}: spot-check", row[0]);
        }
    }

    #[test]
    fn layout_experiment_small_instance_answers_ok() {
        let t = layout_experiment(&[2048], 128, 7);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[6], "ok", "layout {} answers", row[1]);
        }
    }

    #[test]
    fn giant_smoke_small_instance_passes() {
        giant_smoke(1 << 12, 512, 7).expect("smoke passes at small n");
    }

    #[test]
    fn lower_bound_and_universal_experiments_render() {
        let t = lower_bound_experiment(1);
        assert!(t.rows.len() >= 6);
        let u = universal_experiment(5);
        assert_eq!(u.rows.len(), 4);
        assert!(u.to_markdown().contains("Lemma 3.7"));
    }
}
