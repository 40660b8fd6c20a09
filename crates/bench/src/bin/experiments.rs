//! Regenerates every table of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p treelab-bench --bin experiments -- [--quick] [--threads N] [--exact]
//!     [--approx] [--kdist-small] [--kdist-large] [--lower-bounds] [--universal] [--ablation]
//!     [--timing] [--substrate] [--store [--check]] [--packed-native] [--forest] [--restart]
//!     [--giant] [--layout] [--giant-smoke] [--chaos [--smoke]]
//! ```
//!
//! Every flag is declared in [`FLAGS`]; any other argument prints the usage
//! and exits 2, so a typo in a CI gate fails instead of selecting nothing.
//!
//! `--store --check` runs the store regression gate after printing E11: it
//! exits nonzero unless the batch-speedup column parses for all six schemes
//! and the packed/legacy bit-equality sweep holds.
//!
//! `--giant` runs the E15 scale table (n = 16M streamed, all six schemes,
//! chunked builds with per-phase peak-RSS) and `--layout` the E15b clustered
//! layout A/B; both shrink drastically under `--quick`.  `--giant-smoke` is
//! the CI gate for the scale path: n = 1M, distance-array scheme only,
//! chunked vs whole-tree pack with a measured peak-RSS bound and distance
//! spot-checks — it prints a verdict and exits instead of rendering tables.
//!
//! `--chaos` runs the E17 self-healing table (availability + detection
//! latency vs fault rate, with and without scrubbing).  `--chaos --smoke` is
//! the CI robustness gate instead: the ISSUE-8 acceptance scenario plus a
//! fixed seeded with/without-scrub replay with hard availability, safety,
//! detection, and file-fault thresholds — verdict and exit code, no tables.
//!
//! With no selection flags, all experiments run.  `--quick` shrinks the sizes
//! so the full suite finishes in well under a minute (used in CI); the numbers
//! recorded in `EXPERIMENTS.md` come from the default (non-quick) sizes.
//! `--threads N` pins label construction to `N` worker threads (`1` = the
//! serial path, `0` = all available cores; the CI matrix runs both).

use treelab_bench::chaos::chaos_smoke;
use treelab_bench::experiments::{
    ablation_experiment, approximate_experiment, chaos_experiment, exact_experiment,
    forest_experiment, giant_experiment, giant_smoke, k_large_experiment, k_small_experiment,
    layout_experiment, lower_bound_experiment, packed_native_experiment, restart_experiment,
    store_check, store_experiment, substrate_experiment, timing_experiment, universal_experiment,
};
use treelab_bench::workloads::Family;
use treelab_core::substrate::Parallelism;

/// Every flag the binary accepts: `(name, takes a value)`.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--check", false),
    ("--smoke", false),
    ("--exact", false),
    ("--approx", false),
    ("--kdist-small", false),
    ("--kdist-large", false),
    ("--lower-bounds", false),
    ("--universal", false),
    ("--ablation", false),
    ("--timing", false),
    ("--substrate", false),
    ("--store", false),
    ("--packed-native", false),
    ("--forest", false),
    ("--restart", false),
    ("--giant", false),
    ("--layout", false),
    ("--giant-smoke", false),
    ("--chaos", false),
];

/// The flags that modify a run rather than select an experiment.
const MODIFIERS: &[&str] = &["--quick", "--threads", "--check", "--smoke"];

/// Prints the usage to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|&(name, value)| {
            if value {
                format!("[{name} N]")
            } else {
                format!("[{name}]")
            }
        })
        .collect();
    eprintln!("experiments: {msg}\nusage: experiments {}", flags.join(" "));
    std::process::exit(2);
}

/// Parses `args` against [`FLAGS`] into `(flag, value)` pairs.
fn parse_args(args: &[String]) -> Vec<(&'static str, Option<&str>)> {
    let mut parsed = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(&(name, takes_value)) = FLAGS.iter().find(|(name, _)| name == arg) else {
            usage_error(&format!("unknown argument `{arg}`"));
        };
        let value = if takes_value {
            let v = it.next();
            Some(
                v.unwrap_or_else(|| usage_error(&format!("{name} expects a value")))
                    .as_str(),
            )
        } else {
            None
        };
        parsed.push((name, value));
    }
    parsed
}

/// Corrupt label data can legitimately panic a query kernel during the
/// chaos runs; the fallible router contains each unwind, but the default
/// hook would print every one.  Installed once, only for `--chaos`.
fn silence_panic_hook() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args);
    let has = |flag: &str| parsed.iter().any(|&(name, _)| name == flag);
    let quick = has("--quick");
    let check = has("--check");
    let smoke = has("--smoke");
    let par = parsed
        .iter()
        .find(|&&(name, _)| name == "--threads")
        .and_then(|&(_, value)| value)
        .map(|v| {
            let n = v
                .parse::<usize>()
                .unwrap_or_else(|_| usage_error("--threads expects a number"));
            Parallelism::from_thread_count(n)
        })
        .unwrap_or_default();
    let selected: Vec<&str> = parsed
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| !MODIFIERS.contains(name))
        .collect();
    let run = |name: &str| selected.is_empty() || selected.contains(&name);
    let seed = 2017;

    if selected.contains(&"--giant-smoke") {
        // The CI scale gate: verdict + exit code, no tables.
        let (n, chunk) = if quick {
            (1 << 17, 1 << 13)
        } else {
            (1 << 20, 1 << 16)
        };
        match giant_smoke(n, chunk, seed) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("giant smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if selected.contains(&"--chaos") && smoke {
        // The CI robustness gate: verdict + exit code, no tables.
        silence_panic_hook();
        match chaos_smoke(quick) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("chaos smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!("# treelab experiments (quick = {quick})\n");

    if run("--exact") {
        let sizes: &[usize] = if quick {
            &[256, 1024]
        } else {
            &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16]
        };
        let table = exact_experiment(sizes, Family::all(), seed);
        println!("{}", table.to_markdown());
    }
    if run("--approx") {
        let n = if quick { 1 << 10 } else { 1 << 14 };
        let eps = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625];
        println!("{}", approximate_experiment(n, &eps, seed).to_markdown());
    }
    if run("--kdist-small") {
        let n = if quick { 1 << 10 } else { 1 << 14 };
        let ks = [1u64, 2, 4, 8, 12];
        println!("{}", k_small_experiment(n, &ks, seed).to_markdown());
    }
    if run("--kdist-large") {
        let n = if quick { 1 << 10 } else { 1 << 13 };
        println!("{}", k_large_experiment(n, seed).to_markdown());
    }
    if run("--lower-bounds") {
        println!("{}", lower_bound_experiment(seed).to_markdown());
    }
    if run("--universal") {
        let max_n = if quick { 6 } else { 12 };
        println!("{}", universal_experiment(max_n).to_markdown());
    }
    if run("--ablation") {
        let n = if quick { 1 << 11 } else { 1 << 15 };
        println!("{}", ablation_experiment(n, seed).to_markdown());
    }
    if run("--timing") {
        let sizes: &[usize] = if quick {
            &[1 << 10]
        } else {
            &[1 << 12, 1 << 14, 1 << 16]
        };
        println!("{}", timing_experiment(sizes, seed).to_markdown());
    }
    if run("--substrate") {
        let sizes: &[usize] = if quick {
            &[1 << 11]
        } else {
            &[1 << 12, 1 << 14, 1 << 16]
        };
        println!("{}", substrate_experiment(sizes, seed, par).to_markdown());
    }
    if run("--store") {
        let sizes: &[usize] = if quick {
            &[1 << 10]
        } else {
            &[1 << 12, 1 << 14, 1 << 16]
        };
        let table = store_experiment(sizes, seed);
        println!("{}", table.to_markdown());
        if check {
            // Regression gate: speedup data for all six schemes + the
            // packed/legacy bit-equality sweep.  Nonzero exit on failure.
            if let Err(e) = store_check(&table) {
                eprintln!("store check FAILED: {e}");
                std::process::exit(1);
            }
            println!("store check passed");
        }
    }
    if run("--packed-native") {
        let n = if quick { 1 << 10 } else { 1 << 14 };
        println!("{}", packed_native_experiment(n, seed).to_markdown());
    }
    if run("--forest") {
        // The sharded rows sweep worker-thread counts (0 = Auto = all
        // available cores); quick mode keeps just the Auto row.
        let (trees, n_per_tree, queries, threads): (usize, usize, usize, &[usize]) = if quick {
            (8, 1 << 9, 1 << 17, &[0])
        } else {
            (64, 1 << 14, 1 << 20, &[1, 2, 4, 0])
        };
        println!(
            "{}",
            forest_experiment(trees, n_per_tree, queries, seed, threads).to_markdown()
        );
    }
    if run("--restart") {
        let (trees, n_per_tree) = if quick { (8, 1 << 9) } else { (64, 1 << 14) };
        println!(
            "{}",
            restart_experiment(trees, n_per_tree, seed).to_markdown()
        );
    }
    if run("--giant") {
        let (n, chunk) = if quick {
            (1 << 17, 1 << 13)
        } else {
            (1 << 24, 1 << 16)
        };
        println!("{}", giant_experiment(n, chunk, seed).to_markdown());
    }
    if run("--chaos") {
        silence_panic_hook();
        let (trees, n_per_tree, rounds, batch) = if quick {
            (8, 1 << 9, 32, 256)
        } else {
            (32, 1 << 12, 64, 1024)
        };
        println!(
            "{}",
            chaos_experiment(trees, n_per_tree, rounds, batch, seed).to_markdown()
        );
    }
    if run("--layout") {
        let (sizes, chunk): (&[usize], usize) = if quick {
            (&[1 << 14], 1 << 13)
        } else {
            (&[1 << 16, 1 << 20, 1 << 24], 1 << 16)
        };
        println!("{}", layout_experiment(sizes, chunk, seed).to_markdown());
    }
}
