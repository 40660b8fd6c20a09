//! The experiment functions behind the `experiments` binary.
//!
//! Each function reproduces one row/figure of the paper's quantitative content
//! (see DESIGN.md §5 for the experiment index) and returns a [`Table`] that the
//! binary prints and `EXPERIMENTS.md` records.

use crate::rss;
use crate::workloads::{build_mixed_forest, forest_corpus, Family};
use crate::Table;
use std::time::Instant;
use treelab_core::approximate::ApproximateScheme;
use treelab_core::bounds;
use treelab_core::distance_array::DistanceArrayScheme;
use treelab_core::kdistance::KDistanceScheme;
use treelab_core::level_ancestor::LevelAncestorScheme;
use treelab_core::naive::NaiveScheme;
use treelab_core::optimal::OptimalScheme;
use treelab_core::stats::LabelStats;
use treelab_core::store::{SchemeStore, StoredScheme, NO_DISTANCE};
use treelab_core::substrate::Substrate;
use treelab_core::universal::{universal_from_parent_labels, universal_tree_size};
use treelab_core::DistanceScheme;
use treelab_tree::lca::DistanceOracle;
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
    // One substrate for the whole ε sweep (decomposition, aux labels).
    let sub = Substrate::new(&tree);
    let oracle = DistanceOracle::new(&tree);
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

/// Timed repetitions per throughput measurement; the best one is reported
/// for *both* sides of every comparison, so scheduler noise on a shared
/// machine cannot bias the ratio either way.
const REPS: usize = 3;

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

/// The substrate configuration every giant-tree run shares: chunk-streaming
/// label packing plus exactly the components the schemes consume — *not* the
/// validation-side [`DistanceOracle`], whose O(n) tables (about 40 bytes per
/// node) would still add to the wall clock and pollute the RSS baseline at
/// `n = 16M` (spot-checks walk parent pointers instead; recursive trees are
/// shallow).
fn giant_substrate(tree: &Tree, chunk: usize) -> Substrate<'_> {
    let mut sub = Substrate::new(tree);
    sub.set_chunk_rows(chunk);
    sub.precompute();
    sub
}

/// Deterministic query pairs over `0..n` (one congruential sampling).
fn sample_pairs(n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|i| ((i * 7919 + 3) % n, (i * 104_729 + 11) % n))
        .collect()
}

/// E15: the giant-tree scale run — label sizes (as in E1), build times and
/// batch throughput at `n = 16M` through the chunk-streaming build path,
/// with the *transient* pack memory of every scheme measured
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
