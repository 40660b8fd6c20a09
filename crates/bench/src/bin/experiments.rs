//! Regenerates every table of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p treelab-bench --bin experiments -- [--quick] [--exact] [--approx]
//!     [--kdist-small] [--kdist-large] [--lower-bounds] [--universal] [--ablation]
//!     [--giant] [--giant-smoke] [--chaos [--smoke]]
//! ```
//!
//! Every flag is declared in [`FLAGS`]; any other argument prints the usage
//! and exits 2, so a typo in a CI gate fails instead of selecting nothing.
//!
//! `--giant` runs the E15 scale table (n = 16M streamed, all six schemes,
//! chunked builds with per-phase peak-RSS); it shrinks drastically under
//! `--quick`.  `--layout` (E15b, the heavy-path-clustered label layout A/B)
//! is retired with the layout and rejected like any unknown flag; its last
//! numbers are in `EXPERIMENTS.md`.  `--giant-smoke` is
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

use treelab_bench::chaos::chaos_smoke;
use treelab_bench::experiments::{
    ablation_experiment, approximate_experiment, chaos_experiment, exact_experiment,
    giant_experiment, giant_smoke, k_large_experiment, k_small_experiment, lower_bound_experiment,
    universal_experiment,
};
use treelab_bench::workloads::Family;

/// Every flag the binary accepts.
const FLAGS: &[&str] = &[
    "--quick",
    "--smoke",
    "--exact",
    "--approx",
    "--kdist-small",
    "--kdist-large",
    "--lower-bounds",
    "--universal",
    "--ablation",
    "--giant",
    "--giant-smoke",
    "--chaos",
];

/// The flags that modify a run rather than select an experiment.
const MODIFIERS: &[&str] = &["--quick", "--smoke"];

/// Prints the usage to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    let flags: Vec<String> = FLAGS.iter().map(|name| format!("[{name}]")).collect();
    eprintln!("experiments: {msg}\nusage: experiments {}", flags.join(" "));
    std::process::exit(2);
}

/// Checks every argument against [`FLAGS`], exiting 2 on the first unknown one.
fn parse_args(args: &[String]) -> Vec<&'static str> {
    args.iter()
        .map(|arg| {
            FLAGS
                .iter()
                .copied()
                .find(|name| name == arg)
                .unwrap_or_else(|| usage_error(&format!("unknown argument `{arg}`")))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args);
    let has = |flag: &str| parsed.contains(&flag);
    let quick = has("--quick");
    let smoke = has("--smoke");
    let selected: Vec<&str> = parsed
        .iter()
        .copied()
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
    if run("--giant") {
        let (n, chunk) = if quick {
            (1 << 17, 1 << 13)
        } else {
            (1 << 24, 1 << 16)
        };
        println!("{}", giant_experiment(n, chunk, seed).to_markdown());
    }
    if run("--chaos") {
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
}
