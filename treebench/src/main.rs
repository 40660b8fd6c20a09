//! `treebench`: the serving benchmark of the treelab workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path treebench/Cargo.toml -- \
//!     --workload routed-zipf --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run builds its workload from `--seed`: a corpus of trees and the
//! mixed-scheme `TLFRST01` forest over it (tree `i` gets scheme `i mod 6`,
//! `k = 8`, `ε = 0.25`), published to a file in a private directory.  Set-up
//! is repeated [`SETUPS`] times; `setup_s` is the median.  One closed-loop
//! client (a single thread that sends the next request only after the
//! previous one returned) then drives the forest for `--seconds`, in
//! one-second rounds of two phases:
//!
//! * **serve** (70% of a round): routed batches through
//!   `try_route_distances_into` on a reused `RouteScratch`, cycling through
//!   a seeded pool of batches;
//! * **restart** (the rest): cycles on the published file — lazy open to the
//!   first answer (four times), a 256-query batch that validates the trees
//!   it touches, append + tombstone of a prebuilt tree (four times), one full
//!   scrub pass at a fixed budget, one eager open.
//!
//! Interleaving the phases lets both sample the whole run, so a slow spell
//! of the host moves their medians only when it covers most of the run.
//! The workloads ([`WORKLOADS`]) differ in forest shape, traffic and batch
//! size.  Every answer is checked against the generating tree's
//! `DistanceOracle` outside the timed region.
//!
//! With `--trace 1` the run also replays every traced batch's tree groups
//! through the store batch path and the one-pair kernel, drives the sharded
//! router, times the bit primitives on the forest's words, and splits set-up
//! and restart into their calls; it prints the per-layer metrics and writes
//! every span to `.treebench_out/spans-<workload>.jsonl`.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the host
//! and build fingerprint and the sample counts.

#![forbid(unsafe_code)]

mod host;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use treelab_bits::bitslice::{common_prefix_len_raw, read_lsb};
use treelab_bits::crc::crc64_words;
use treelab_core::forest::{
    ForestError, ForestStore, QueryStatus, RouteScratch, ScrubOutcome, Scrubber,
};
use treelab_core::{Parallelism, Substrate, ValidationPolicy};
use treelab_tree::lca::DistanceOracle;
use treelab_tree::rng::SplitMix64;
use treelab_tree::Tree;

use host::{json_str, PrivateDir};
use trace::{Trace, NO_PARENT};
use workload::{corpus_tree, Built, Kind, Pool, Traffic};

/// One serving workload.
struct Workload {
    name: &'static str,
    trees: usize,
    nodes: usize,
    /// Zipf exponent of tree popularity (0 = uniform).
    skew: f64,
    /// Queries per serve-phase batch.
    batch: usize,
}

/// Why each workload exists:
///
/// * `routed-zipf` — 64 trees × 16,384 nodes (a 20 MiB frame), Zipf(1.0),
///   4,096-query batches: large groups, so the kernels and the store batch
///   path do most of the work and the router's overhead is amortized.
/// * `routed-scatter` — 4,096 trees × 256 nodes (a 13.5 MiB frame, more
///   than L2), uniform popularity, 64-query batches: about one query per
///   group, so the router (resolve, counting sort, scatter) and per-group
///   dispatch carry most of the batch, and label reads miss L2.
///
/// Both run the same restart cycles on their own forest: few large frames
/// against many small ones, for the forest layer and CRC-64.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "routed-zipf",
        trees: 64,
        nodes: 16384,
        skew: 1.0,
        batch: 4096,
    },
    Workload {
        name: "routed-scatter",
        trees: 4096,
        nodes: 256,
        skew: 0.0,
        batch: 64,
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries in the serve pool (split into batches of the workload's size).
const POOL_QUERIES: usize = 1 << 18;
/// Length of a round of an untraced run, and the share of it that serves.
const ROUND_SECONDS: f64 = 1.0;
const SERVE_SHARE: f64 = 0.7;
/// The tail percentile of each serve slice's batch latencies.  The 99th
/// measured the host: preemptions by other tenants of a shared host decide
/// it, and it spread by 20–35% between runs of the same code.
const TAIL: f64 = 0.95;
/// Timed batches per serve slice at least, so the slice's [`TAIL`] has 10
/// samples above it.
const MIN_SLICE_BATCHES: usize = 200;
/// Share of each serve slice spent warming up, untimed.
const WARM_SHARE: f64 = 0.1;
/// Queries in the restart cycle's batch.
const CYCLE_BATCH: usize = 256;
/// Distinct restart batches, used in turn.
const CYCLE_POOL: usize = 64;
/// Lazy opens to the first answer per restart cycle.
const LAZY_OPENS_PER_CYCLE: usize = 4;
/// Append + tombstone pairs per restart cycle.
const MUTATIONS_PER_CYCLE: usize = 4;
/// Words a scrub step covers.
const SCRUB_BUDGET_WORDS: usize = 1 << 16;
/// Restart cycles a traced run makes at least.
const MIN_CYCLES: usize = 4;
/// Traced batches run at least, and the serve spans after which tracing
/// stops (bounding the span file).
const MIN_TRACED_BATCHES: usize = 200;
const MAX_TRACED_SPANS: usize = 40_000;
/// Bit-primitive probe sizes and repetitions.
const BIT_OPS: usize = 1 << 18;
const BIT_REPEATS: usize = 7;

/// Seed streams, so each input is independent of the others.
const CYCLE_STREAM: u64 = 0xC7C1_E000;
const PAIR_STREAM: u64 = 0xF1A5_7000;
const BITS_STREAM: u64 = 0xB175_0000;

const USAGE: &str = "usage: treebench --workload <routed-zipf|routed-scatter> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 30.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Answers and operations checked, and how many of them failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }
}

/// Named metrics with units, in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A query with its true distance.
#[derive(Clone, Copy)]
struct Probe {
    u: usize,
    v: usize,
    truth: u64,
}

impl Probe {
    fn draw(tree: &Tree, oracle: &DistanceOracle, rng: &mut SplitMix64) -> Probe {
        let n = tree.len() as u64;
        let (u, v) = ((rng.next_u64() % n) as usize, (rng.next_u64() % n) as usize);
        let truth = oracle.distance(tree.node(u), tree.node(v));
        Probe { u, v, truth }
    }
}

/// Everything the timed phases read.
struct Fixture {
    forest: ForestStore,
    path: PathBuf,
    serve: Pool,
    cycles: Pool,
    /// The restart phase's first query, on tree 0.
    first: Probe,
    /// The tree the restart phase appends (the corpus's next tree, never in
    /// the published forest), and a query on it.
    extra_id: u64,
    extra: Built,
    extra_probe: Probe,
    /// Nodes over all trees of the forest.
    nodes: usize,
}

/// One set-up: corpus, substrate, pack, finish and publish.
fn setup(
    w: &Workload,
    seed: u64,
    path: &Path,
    trace: &mut Trace,
) -> Result<(Vec<Tree>, ForestStore, f64), String> {
    let req = trace.request();
    let all = trace.open(req, NO_PARENT, "setup", "all", "", w.trees as u64);
    let s = trace.open(req, all, "build", "corpus", "", w.trees as u64);
    let corpus: Vec<Tree> = (0..w.trees as u64)
        .map(|id| corpus_tree(id, w.nodes, seed))
        .collect();
    trace.close(s);
    let forest = workload::build_forest(&corpus, trace, req, all)
        .map_err(|e| format!("forest build: {e}"))?;
    let s = trace.open(req, all, "forest", "publish", "", 1);
    forest
        .publish(path)
        .map_err(|e| format!("forest publish: {e}"))?;
    trace.close(s);
    let secs = trace.close(all);
    Ok((corpus, forest, secs))
}

/// What the restart cycles measured (times in seconds).
#[derive(Default)]
struct Restarts {
    cycles: usize,
    first_query: Vec<f64>,
    /// Valid slots after the first cycle's batch: a count that must repeat.
    first_batch_valid: usize,
}

/// One restart cycle (see the module documentation).
fn restart_cycle(fx: &Fixture, trace: &mut Trace, tally: &mut Tally, out: &mut Restarts) {
    let req = trace.request();
    let cycle = trace.open(req, NO_PARENT, "restart", "cycle", "", 1);
    let first_kind = Kind::of_tree(0);
    let Probe { u, v, truth } = fx.first;

    // 1. Lazy open to the first answer.
    let mut lazy = None;
    for _ in 0..LAZY_OPENS_PER_CYCLE {
        let fq = trace.open(req, cycle, "restart", "first_query", "", 1);
        let s = trace.open(req, fq, "forest", "open_lazy", "", 1);
        let opened = ForestStore::open_with(&fx.path, ValidationPolicy::Lazy);
        trace.close(s);
        let Ok(forest) = opened else {
            trace.close(fq);
            tally.check(false);
            continue;
        };
        let s = trace.open(req, fq, "forest", "first_touch", first_kind.name(), 1);
        let tree = forest.try_tree(0);
        trace.close(s);
        let s = trace.open(req, fq, "kernel", "first_answer", first_kind.name(), 1);
        let answer = tree.map(|t| t.distance(u, v));
        trace.close(s);
        out.first_query.push(trace.close(fq));
        tally.check(answer.is_ok_and(|a| first_kind.accepts(truth, a)));
        lazy = Some(forest);
    }
    let Some(mut forest) = lazy else {
        trace.close(cycle);
        return;
    };

    // 2. A batch that validates the trees it touches on first touch.
    let b = out.cycles % fx.cycles.len();
    let batch = &fx.cycles.batches[b];
    let (mut scratch, mut answers) = (RouteScratch::new(), Vec::with_capacity(batch.len()));
    let s = trace.open(req, cycle, "router", "cold_batch", "", batch.len() as u64);
    forest.try_route_distances_into(batch, &mut scratch, &mut answers);
    trace.close(s);
    tally.add(batch.len() as u64, fx.cycles.wrong(b, &answers));
    if out.cycles == 0 {
        out.first_batch_valid = forest.health().counts().valid;
    }

    // 3. Writes beside reads: append a tree, answer from it, retire it.
    let kind = Kind::of_tree(fx.extra_id);
    let p = fx.extra_probe;
    for id in (fx.extra_id..).take(MUTATIONS_PER_CYCLE) {
        let s = trace.open(req, cycle, "forest", "append", kind.name(), 1);
        let appended = fx.extra.append(&mut forest, id);
        trace.close(s);
        let answer = forest.try_tree(id).map(|t| t.distance(p.u, p.v));
        tally.check(appended.is_ok() && answer.is_ok_and(|a| kind.accepts(p.truth, a)));
        let s = trace.open(req, cycle, "forest", "tombstone", kind.name(), 1);
        let retired = forest.tombstone(id);
        trace.close(s);
        let gone = matches!(forest.try_tree(id), Err(ForestError::UnknownTree { .. }));
        tally.check(retired.is_ok() && gone);
    }

    // 4. One full scrub pass at a fixed budget.
    let mut scrubber = Scrubber::new();
    let (mut steps, mut faults) = (0u64, 0u64);
    let s = trace.open(req, cycle, "forest", "scrub", "", 0);
    loop {
        steps += 1;
        match forest.scrub(SCRUB_BUDGET_WORDS, &mut scrubber) {
            Ok(ScrubOutcome::InProgress) => {}
            Ok(ScrubOutcome::Fault { .. }) => faults += 1,
            Ok(ScrubOutcome::PassComplete) => break,
            Err(_) => {
                faults += 1;
                break;
            }
        }
    }
    trace.close(s);
    trace.set_count(s, steps);
    tally.check(faults == 0 && scrubber.stats().passes_completed == 1);
    drop(forest);

    // 5. One eager open.
    let s = trace.open(req, cycle, "forest", "open_eager", "", 1);
    let eager = ForestStore::open(&fx.path);
    trace.close(s);
    let answer = eager
        .ok()
        .and_then(|f| f.try_tree(0).ok().map(|t| t.distance(u, v)));
    tally.check(answer.is_some_and(|a| first_kind.accepts(truth, a)));
    trace.close(cycle);
    out.cycles += 1;
}

/// Every serve batch once, untimed: the warm-up.
fn warm_up(fx: &Fixture, tally: &mut Tally) {
    let mut scratch = RouteScratch::new();
    let mut out = Vec::new();
    for (b, batch) in fx.serve.batches.iter().enumerate() {
        out.clear();
        fx.forest
            .try_route_distances_into(batch, &mut scratch, &mut out);
        tally.add(batch.len() as u64, fx.serve.wrong(b, &out));
    }
}

/// One untraced serve slice: untimed batches until `warm_until` (the restart
/// cycles before the slice evict the forest from the caches), then timed
/// batches until `until`.  Returns the batch latencies in seconds.
fn serve_slice(fx: &Fixture, warm_until: Instant, until: Instant, tally: &mut Tally) -> Vec<f64> {
    let mut scratch = RouteScratch::new();
    let mut out = Vec::new();
    let mut latencies = Vec::new();
    for b in (0..fx.serve.len()).cycle() {
        let batch = &fx.serve.batches[b];
        out.clear();
        let t0 = Instant::now();
        fx.forest
            .try_route_distances_into(batch, &mut scratch, &mut out);
        let t1 = Instant::now();
        tally.add(batch.len() as u64, fx.serve.wrong(b, &out));
        if t1 < warm_until {
            continue;
        }
        latencies.push((t1 - t0).as_secs_f64());
        if t1 >= until && latencies.len() >= MIN_SLICE_BATCHES {
            return latencies;
        }
    }
    unreachable!("the pool is not empty")
}

/// What the serve slices of an untraced run measured (times in seconds).
#[derive(Default)]
struct Serving {
    latencies: Vec<f64>,
    /// Queries per second of each half slice (`qps` is their median).
    rates: Vec<f64>,
    /// Each slice's [`TAIL`] batch latency (`batch_p95_us` is their median,
    /// so a slow spell of the host moves it only when it covers most of the
    /// rounds).
    tails: Vec<f64>,
}

/// The untraced measurement: rounds of about [`ROUND_SECONDS`], each a serve
/// slice and then restart cycles to the end of the round.
fn rounds(
    fx: &Fixture,
    w: &Workload,
    seconds: f64,
    trace: &mut Trace,
    tally: &mut Tally,
    restarts: &mut Restarts,
) -> Serving {
    let mut serving = Serving::default();
    let count = (seconds / ROUND_SECONDS).round().max(1.0) as u32;
    let round = Duration::from_secs_f64(seconds / f64::from(count));
    let start = Instant::now();
    for r in 0..count {
        let round_start = start + round * r;
        let slice = serve_slice(
            fx,
            round_start + round.mul_f64(SERVE_SHARE * WARM_SHARE),
            round_start + round.mul_f64(SERVE_SHARE),
            tally,
        );
        for half in slice.chunks(slice.len().div_ceil(2)) {
            serving
                .rates
                .push((half.len() * w.batch) as f64 / half.iter().sum::<f64>());
        }
        serving.tails.push(percentile(&slice, TAIL));
        serving.latencies.extend(slice);
        restart_cycle(fx, trace, tally, restarts);
        while Instant::now() < round_start + round {
            restart_cycle(fx, trace, tally, restarts);
        }
    }
    serving
}

/// The traced serve phase.  Batches alternate: an untraced one (timed as in
/// the untraced run, for the overhead figure), then a traced one — the
/// routed call as one span, then each tree group of it replayed through the
/// store batch path and through the one-pair kernel, each in its own span
/// under the same request id.  Returns the untraced batch latencies.
fn serve_traced(fx: &Fixture, until: Instant, trace: &mut Trace, tally: &mut Tally) -> Vec<f64> {
    let mut scratch = RouteScratch::new();
    let (mut out, mut replay, mut single) = (Vec::new(), Vec::new(), Vec::new());
    let (mut order, mut pairs) = (Vec::new(), Vec::new());
    let mut untraced = Vec::new();
    let span_cap = trace.len() + MAX_TRACED_SPANS;
    for (i, b) in (0..fx.serve.len()).cycle().enumerate() {
        let batch = &fx.serve.batches[b];
        out.clear();
        if i % 2 == 0 {
            let done =
                i / 2 >= MIN_TRACED_BATCHES && (Instant::now() >= until || trace.len() >= span_cap);
            if done {
                return untraced;
            }
            let t0 = Instant::now();
            fx.forest
                .try_route_distances_into(batch, &mut scratch, &mut out);
            untraced.push(t0.elapsed().as_secs_f64());
            tally.add(batch.len() as u64, fx.serve.wrong(b, &out));
            continue;
        }
        let req = trace.request();
        let s = trace.open(req, NO_PARENT, "router", "route", "", batch.len() as u64);
        fx.forest
            .try_route_distances_into(batch, &mut scratch, &mut out);
        trace.close(s);
        tally.add(batch.len() as u64, fx.serve.wrong(b, &out));

        // The router's grouping: by tree, arrival order within a tree.
        order.clear();
        order.extend(0..batch.len());
        order.sort_by_key(|&q| batch[q].0);
        for group in order.chunk_by(|&a, &b| batch[a].0 == batch[b].0) {
            let id = batch[group[0]].0;
            let kind = Kind::of_tree(id);
            let Ok(tree) = fx.forest.try_tree(id) else {
                tally.add(group.len() as u64, group.len() as u64);
                continue;
            };
            pairs.clear();
            pairs.extend(group.iter().map(|&q| (batch[q].1, batch[q].2)));
            let count = pairs.len() as u64;
            replay.clear();
            let s = trace.open(
                req,
                NO_PARENT,
                "store",
                "distances_into",
                kind.name(),
                count,
            );
            tree.distances_into(&pairs, &mut replay);
            trace.close(s);
            let s = trace.open(req, NO_PARENT, "kernel", "distance", kind.name(), count);
            single.clear();
            single.extend(pairs.iter().map(|&(u, v)| tree.distance(u, v)));
            trace.close(s);
            // Every layer must give the routed answer.
            let agree = group
                .iter()
                .zip(replay.iter().zip(&single))
                .filter(|&(&q, (&r, &k))| out[q] == QueryStatus::Ok(r) && r == k)
                .count();
            tally.add(count, count - agree as u64);
        }
    }
    unreachable!("the pool is not empty")
}

/// The sharded router at one and two threads, alternating per batch.
fn sharded_probe(fx: &Fixture, until: Instant, trace: &mut Trace, tally: &mut Tally) {
    let settings = [
        ("t1", Parallelism::from_thread_count(1)),
        ("t2", Parallelism::from_thread_count(2)),
    ];
    for (i, b) in (0..fx.serve.len()).cycle().enumerate() {
        if i >= 2 * MIN_TRACED_BATCHES && Instant::now() >= until {
            return;
        }
        let batch = &fx.serve.batches[b];
        let (op, par) = settings[i % 2];
        let req = trace.request();
        let s = trace.open(req, NO_PARENT, "sharded", op, "", batch.len() as u64);
        let out = fx.forest.try_route_distances_sharded(batch, par);
        trace.close(s);
        tally.add(batch.len() as u64, fx.serve.wrong(b, &out));
    }
}

/// `read_lsb`, codeword LCP and CRC-64 on the forest's own words.
fn bits_probe(words: &[u64], seed: u64, trace: &mut Trace) {
    let mut rng = SplitMix64::seed_from_u64(seed ^ BITS_STREAM);
    // Keep every read 8 words clear of the end (the primitives read the word
    // after a field's first word).
    let span_bits = ((words.len() - 8) * 64 - 256) as u64;
    let mut at = move || (rng.next_u64() % span_bits) as usize;
    let reads: Vec<(usize, usize)> = (0..BIT_OPS).map(|_| (at(), 1 + at() % 64)).collect();
    let lcps: Vec<[usize; 4]> = (0..BIT_OPS)
        .map(|_| [at(), 1 + at() % 256, at(), 1 + at() % 256])
        .collect();
    let req = trace.request();
    for _ in 0..BIT_REPEATS {
        let s = trace.open(req, NO_PARENT, "bits", "read_lsb", "", BIT_OPS as u64);
        let acc = reads.iter().fold(0u64, |acc, &(start, width)| {
            acc ^ read_lsb(words, start, width)
        });
        trace.close(s);
        black_box(acc);
        let s = trace.open(req, NO_PARENT, "bits", "lcp", "", BIT_OPS as u64);
        let acc = lcps.iter().fold(0usize, |acc, &[sa, la, sb, lb]| {
            acc + common_prefix_len_raw(words, sa, la, words, sb, lb)
        });
        trace.close(s);
        black_box(acc);
        let s = trace.open(req, NO_PARENT, "bits", "crc64", "", words.len() as u64);
        black_box(crc64_words(black_box(words)));
        trace.close(s);
    }
}

/// Median duration per counted unit of one layer operation's spans.
fn per_unit(trace: &Trace, layer: &'static str, op: &'static str) -> f64 {
    let per: Vec<f64> = trace
        .select(layer, op)
        .map(|s| s.secs() / s.count.max(1) as f64)
        .collect();
    median(&per)
}

/// Total time over total count of one layer operation's spans for `scheme`.
fn scheme_rate(trace: &Trace, layer: &'static str, op: &'static str, scheme: &str) -> f64 {
    let (secs, count) = trace
        .select(layer, op)
        .filter(|s| s.scheme == scheme)
        .fold((0.0, 0u64), |(t, n), s| (t + s.secs(), n + s.count));
    secs / count as f64
}

/// Total count over total time of one layer operation's spans.
fn throughput(trace: &Trace, layer: &'static str, op: &'static str) -> f64 {
    let (secs, count) = trace
        .select(layer, op)
        .fold((0.0, 0u64), |(t, n), s| (t + s.secs(), n + s.count));
    count as f64 / secs
}

fn layer_metrics(
    fx: &Fixture,
    w: &Workload,
    trace: &Trace,
    untraced: &[f64],
    restarts: &Restarts,
) -> Metrics {
    let mut m = Metrics::default();
    let ms = |v: f64| v * 1e3;
    let us = |v: f64| v * 1e6;
    let ns = |v: f64| v * 1e9;

    // Routed serving, split per traced batch into router and store time.
    let mut store_by_request: BTreeMap<u32, f64> = BTreeMap::new();
    for s in trace.select("store", "distances_into") {
        *store_by_request.entry(s.request).or_default() += s.secs();
    }
    let (mut routed, mut store, mut router_self) = (Vec::new(), Vec::new(), Vec::new());
    for s in trace.select("router", "route") {
        let replayed = store_by_request.get(&s.request).copied().unwrap_or(0.0);
        routed.push(s.secs());
        store.push(replayed);
        router_self.push(s.secs() - replayed);
    }
    let (routed_p50, store_p50, self_p50) = (median(&routed), median(&store), median(&router_self));
    for kind in Kind::ALL {
        m.put(
            format!("kernel.{}.ns_per_query", kind.name()),
            ns(scheme_rate(trace, "kernel", "distance", kind.name())),
            "ns",
        );
        m.put(
            format!("store.{}.ns_per_query", kind.name()),
            ns(scheme_rate(trace, "store", "distances_into", kind.name())),
            "ns",
        );
    }
    m.put("store.us_per_batch", us(store_p50), "us");
    m.put("router.self_us_per_batch", us(self_p50), "us");
    let groups = fx.serve.groups_per_batch();
    m.put("router.groups_per_batch", groups, "count");
    m.put("router.queries_per_group", w.batch as f64 / groups, "count");
    m.put("trace.batch_us", us(routed_p50), "us");
    m.put("trace.untraced_batch_us", us(median(untraced)), "us");
    m.put(
        "trace.overhead_pct",
        (routed_p50 / median(untraced) - 1.0) * 100.0,
        "%",
    );
    m.put(
        "trace.reconcile_pct",
        (self_p50 + store_p50) / routed_p50 * 100.0,
        "%",
    );
    m.put("sharded.qps.t1", throughput(trace, "sharded", "t1"), "1/s");
    m.put("sharded.qps.t2", throughput(trace, "sharded", "t2"), "1/s");

    // Bit primitives on the forest's words.
    m.put(
        "bits.read_lsb_ns",
        ns(per_unit(trace, "bits", "read_lsb")),
        "ns",
    );
    m.put("bits.lcp_ns", ns(per_unit(trace, "bits", "lcp")), "ns");
    m.put(
        "bits.crc64_gib_s",
        8.0 / per_unit(trace, "bits", "crc64") / f64::from(1 << 30),
        "GiB/s",
    );

    // Restart cycles.
    let p50 = |layer, op| median(&trace.secs(layer, op));
    m.put("forest.lazy_open_ms", ms(p50("forest", "open_lazy")), "ms");
    m.put(
        "forest.first_touch_us",
        us(p50("forest", "first_touch")),
        "us",
    );
    m.put(
        "router.cold_batch_us",
        us(p50("router", "cold_batch")),
        "us",
    );
    m.put(
        "forest.first_batch_valid_trees",
        restarts.first_batch_valid as f64,
        "count",
    );
    m.put("forest.append_us", us(p50("forest", "append")), "us");
    m.put("forest.tombstone_us", us(p50("forest", "tombstone")), "us");
    m.put("forest.scrub_ms", ms(p50("forest", "scrub")), "ms");
    m.put(
        "forest.eager_open_ms",
        ms(p50("forest", "open_eager")),
        "ms",
    );

    // Set-up, split into its steps.
    m.put("build.corpus_ms", ms(p50("build", "corpus")), "ms");
    m.put(
        "build.substrate_ms_per_tree",
        ms(mean(&trace.secs("build", "substrate"))),
        "ms",
    );
    for kind in Kind::ALL {
        m.put(
            format!("build.pack.{}.ms_per_tree", kind.name()),
            ms(scheme_rate(trace, "build", "pack", kind.name())),
            "ms",
        );
    }
    m.put(
        "forest.push_us_per_tree",
        us(mean(&trace.secs("forest", "push"))),
        "us",
    );
    m.put("forest.finish_ms", ms(p50("forest", "finish")), "ms");
    m.put("forest.publish_ms", ms(p50("forest", "publish")), "ms");
    m
}

fn end_to_end_metrics(
    fx: &Fixture,
    serving: &Serving,
    restarts: &Restarts,
    setup_secs: &[f64],
    tally: &Tally,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("qps", median(&serving.rates), "1/s");
    m.put("batch_p50_us", median(&serving.latencies) * 1e6, "us");
    m.put("batch_p95_us", median(&serving.tails) * 1e6, "us");
    m.put(
        "first_query_p50_ms",
        median(&restarts.first_query) * 1e3,
        "ms",
    );
    m.put(
        "first_query_p90_ms",
        percentile(&restarts.first_query, 0.90) * 1e3,
        "ms",
    );
    m.put("setup_s", median(setup_secs), "s");
    let rss = host::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / f64::from(1 << 20));
    m.put("peak_rss_mib", rss, "MiB");
    m.put(
        "frame_bytes_per_node",
        fx.forest.size_bytes() as f64 / fx.nodes as f64,
        "B/node",
    );
    m.put(
        "ok_frac",
        1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    );
    m
}

fn run(args: &Args) -> Result<(String, String, Trace), String> {
    let w = args.workload;
    let dir = PrivateDir::create().map_err(|e| format!("private directory: {e}"))?;
    let path = dir.path().join("forest.tlfrst");
    let mut trace = Trace::new();
    let mut tally = Tally::default();

    // Set-up, repeated; every repetition must build the same frame.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut built = None;
    let mut frame_crc = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (corpus, forest, secs) = setup(w, args.seed, &path, &mut trace)?;
        let crc = crc64_words(forest.as_words());
        tally.check(frame_crc.is_none_or(|c| c == crc));
        frame_crc = Some(crc);
        setup_secs.push(secs);
        built = Some((corpus, forest));
    }
    let (corpus, forest) = built.expect("SETUPS > 0");

    // Inputs and their answers, outside every timed region.
    let oracles: Vec<DistanceOracle> = corpus.iter().map(DistanceOracle::new).collect();
    let sizes: Vec<usize> = corpus.iter().map(Tree::len).collect();
    let mut traffic = Traffic::new(&sizes, w.skew, args.seed);
    let serve = Pool::draw(
        &mut traffic,
        &corpus,
        &oracles,
        POOL_QUERIES / w.batch,
        w.batch,
    );
    let mut traffic = Traffic::new(&sizes, w.skew, args.seed ^ CYCLE_STREAM);
    let cycles = Pool::draw(&mut traffic, &corpus, &oracles, CYCLE_POOL, CYCLE_BATCH);
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ PAIR_STREAM);
    let first = Probe::draw(&corpus[0], &oracles[0], &mut rng);
    let extra_id = w.trees as u64;
    let extra_tree = corpus_tree(extra_id, w.nodes, args.seed);
    let extra = Built::new(Kind::of_tree(extra_id), &Substrate::new(&extra_tree));
    let extra_probe = Probe::draw(&extra_tree, &DistanceOracle::new(&extra_tree), &mut rng);
    let fx = Fixture {
        forest,
        path,
        serve,
        cycles,
        first,
        extra_id,
        extra,
        extra_probe,
        nodes: sizes.iter().sum(),
    };
    drop((oracles, corpus));

    warm_up(&fx, &mut tally);
    let mut restarts = Restarts::default();
    let mut serve_batches = 0;
    let metrics = if args.trace {
        // Phases back to back: the traced serve phase, the sharded router,
        // the bit primitives, then restart cycles to the end.
        let start = Instant::now();
        let at = |share: f64| start + Duration::from_secs_f64(args.seconds * share);
        let untraced = serve_traced(&fx, at(SERVE_SHARE * 0.6), &mut trace, &mut tally);
        sharded_probe(&fx, at(SERVE_SHARE * 0.9), &mut trace, &mut tally);
        bits_probe(fx.forest.as_words(), args.seed, &mut trace);
        while restarts.cycles < MIN_CYCLES || Instant::now() < at(1.0) {
            restart_cycle(&fx, &mut trace, &mut tally, &mut restarts);
        }
        layer_metrics(&fx, w, &trace, &untraced, &restarts)
    } else {
        let serving = rounds(&fx, w, args.seconds, &mut trace, &mut tally, &mut restarts);
        serve_batches = serving.latencies.len();
        end_to_end_metrics(&fx, &serving, &restarts, &setup_secs, &tally)
    };
    if let Some((name, value, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    let info = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\
         \"samples\":{{\"setup_s\":{:?},\"serve_batches\":{},\"traced_batches\":{},\
         \"restart_cycles\":{},\"first_queries\":{}}}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint(),
        setup_secs,
        serve_batches,
        trace.select("router", "route").count(),
        restarts.cycles,
        restarts.first_query.len(),
    );
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    Ok((info, result, trace))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("treebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((info, result, trace)) => {
            if args.trace {
                let dir = Path::new(".treebench_out");
                let path = dir.join(format!("spans-{}.jsonl", args.workload.name));
                let written =
                    std::fs::create_dir_all(dir).and_then(|()| trace.write_jsonl(&path, &info));
                if let Err(e) = written {
                    eprintln!("treebench: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            println!("{info}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("treebench: {e}");
            std::process::exit(1);
        }
    }
}
