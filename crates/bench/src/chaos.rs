//! Deterministic chaos harness for the self-healing forest serving layer.
//!
//! One [`SplitMix64`] stream schedules every fault and every query, so a run
//! is **replayed bit-identically** from its [`ChaosConfig`] — the same
//! harness drives the `tests/forest_chaos.rs` suite, the E17 experiment
//! (`experiments -- --chaos`), and the CI gate (`--chaos --smoke`).
//!
//! The subject forest is opened lazily and abused round after round: bit
//! flips land in live inner frames ([`ForestStore::corrupt_word`], the rot
//! no checksum update papers over), tombstone/append races interleave with
//! routed batches, and periodic file probes check that truncations are
//! rejected and torn publishes survived.  A pristine **control** copy
//! receives the same mutations but never the faults; every routed answer is
//! judged against it.  Detection and healing run exactly the way a serving
//! loop would drive them: the fallible router reports `CorruptTree`
//! statuses, a budgeted [`Scrubber`] re-validates frames in the background,
//! and quarantined slots are repaired from the control's replica frames.

use std::collections::{BTreeMap, BTreeSet};
use treelab_core::forest::{
    ForestStore, QueryStatus, RouteScratch, ScrubOutcome, Scrubber, SlotHealth, ValidationPolicy,
};
use treelab_core::DistanceScheme;
use treelab_tree::gen;
use treelab_tree::rng::SplitMix64;

use crate::workloads::{build_mixed_forest, forest_corpus, skewed_forest_queries};
use crate::ScratchDir;

/// Everything that determines a chaos run, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Trees in the seeded mixed-scheme corpus.
    pub trees: usize,
    /// Nodes per corpus tree.
    pub nodes_per_tree: usize,
    /// Rounds of inject → route → scrub → repair.
    pub rounds: usize,
    /// Routed queries per round.
    pub batch: usize,
    /// Expected bit flips injected per round (fractional rates are
    /// Bernoulli-sampled from the run's one rng stream).
    pub flip_rate: f64,
    /// Scrubber budget in words per round; `0` disables scrubbing.
    pub scrub_budget: usize,
    /// Repair detected-corrupt trees from the control's replica frames at
    /// the end of each round.
    pub repair: bool,
    /// Tombstone/append a tree every this many rounds (`0` = never).
    pub mutate_every: usize,
    /// Run the file-fault probes (truncation rejected, torn publish
    /// survived) every this many rounds (`0` = never).
    pub file_faults_every: usize,
    /// Seed of the single rng stream behind everything above.
    pub seed: u64,
}

impl ChaosConfig {
    /// The small, fast configuration the CI smoke gate and the test suite
    /// replay (scrubbing and repair on).
    pub fn smoke(seed: u64) -> Self {
        ChaosConfig {
            trees: 12,
            nodes_per_tree: 400,
            rounds: 48,
            batch: 192,
            flip_rate: 0.5,
            scrub_budget: 1 << 14,
            repair: true,
            mutate_every: 7,
            file_faults_every: 16,
            seed,
        }
    }
}

/// Counters of one chaos run.  Every field is integral, so two replays of
/// the same [`ChaosConfig`] must compare equal — the determinism contract
/// `tests/forest_chaos.rs` asserts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Routed queries issued.
    pub queries: usize,
    /// Queries answered with the control's exact distance.
    pub ok_correct: usize,
    /// Queries answered with a **wrong** distance (undetected corruption —
    /// the number scrubbing exists to drive to zero).
    pub ok_wrong: usize,
    /// Queries to absent/tombstoned ids correctly reported `UnknownTree`.
    pub expected_unknown: usize,
    /// Out-of-range queries correctly reported `NodeOutOfRange`.
    pub expected_out_of_range: usize,
    /// Queries answered `CorruptTree` (detected, degraded but safe).
    pub corrupt_reported: usize,
    /// Subject/control status disagreements outside every bucket above
    /// (must stay zero).
    pub status_mismatches: usize,
    /// Bit flips injected into live frames.
    pub injected: usize,
    /// Faults first detected by a routed query (`CorruptTree` status).
    pub detected_by_query: usize,
    /// Faults first detected by the scrubber.
    pub detected_by_scrub: usize,
    /// Faulted trees tombstoned before any detection (fault retired).
    pub retired: usize,
    /// Faults still undetected when the run ended.
    pub undetected_at_end: usize,
    /// Sum over detections of (detection round − injection round).
    pub detection_latency_rounds: usize,
    /// Trees repaired from the control's replica frames.
    pub repairs: usize,
    /// Tombstone mutations applied (to subject and control alike).
    pub tombstones: usize,
    /// Append mutations applied (to subject and control alike).
    pub appends: usize,
    /// File probes where a truncated frame was rejected at open.
    pub truncations_rejected: usize,
    /// File probes where a publish over a stale torn `.tmp` round-tripped.
    pub torn_publishes_survived: usize,
    /// Words the scrubber re-read and re-checked.
    pub words_scrubbed: u64,
}

impl ChaosReport {
    /// Fraction of queries answered correctly (right distance, or the right
    /// `UnknownTree`/`NodeOutOfRange` verdict).
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            return 1.0;
        }
        (self.ok_correct + self.expected_unknown + self.expected_out_of_range) as f64
            / self.queries as f64
    }

    /// Fraction of queries answered *safely*: correctly, or degraded to a
    /// reported `CorruptTree` rather than a wrong distance.
    pub fn safe_fraction(&self) -> f64 {
        if self.queries == 0 {
            return 1.0;
        }
        1.0 - self.ok_wrong as f64 / self.queries as f64
    }

    /// Detected faults / injected faults (retired faults excluded).
    pub fn detection_rate(&self) -> f64 {
        let live = self.injected - self.retired;
        if live == 0 {
            return 1.0;
        }
        (self.detected_by_query + self.detected_by_scrub) as f64 / live as f64
    }

    /// Mean rounds from injection to detection.
    pub fn mean_detection_latency(&self) -> f64 {
        let detected = self.detected_by_query + self.detected_by_scrub;
        if detected == 0 {
            return 0.0;
        }
        self.detection_latency_rounds as f64 / detected as f64
    }
}

/// Runs the chaos schedule of `cfg` from a freshly built corpus forest.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let corpus = forest_corpus(cfg.trees, cfg.nodes_per_tree, cfg.seed);
    run_chaos_on(cfg, build_mixed_forest(&corpus))
}

/// [`run_chaos`] over a pre-built control forest (the expensive corpus build
/// amortizes across the E17 sweep: clone the control per row).
pub fn run_chaos_on(cfg: &ChaosConfig, control: ForestStore) -> ChaosReport {
    let mut control = control;
    let mut subject = ForestStore::from_bytes_with(&control.to_bytes(), ValidationPolicy::Lazy)
        .expect("control frame reopens lazily");
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0xC0A5_F00D_5EED_CA05);
    let mut unit = {
        let mut r = SplitMix64::seed_from_u64(cfg.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        move || (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    };

    // Live trees as (id, n), mirrored across subject and control.
    let mut live: Vec<(u64, usize)> = control
        .tree_ids()
        .map(|id| {
            (
                id,
                control.tree(id).expect("control is pristine").node_count(),
            )
        })
        .collect();
    let mut dead: Vec<u64> = Vec::new();
    let mut next_id = cfg.trees as u64;

    // Fault bookkeeping: injection round per still-undetected faulted tree,
    // and the round's repair worklist.
    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    let mut to_repair: BTreeSet<u64> = BTreeSet::new();

    let mut scrubber = Scrubber::new();
    let mut scratch = RouteScratch::new();
    let mut ctrl_scratch = RouteScratch::new();
    let mut statuses: Vec<QueryStatus> = Vec::new();
    let mut ctrl_statuses: Vec<QueryStatus> = Vec::new();
    let mut report = ChaosReport::default();

    for round in 0..cfg.rounds {
        report.rounds = round + 1;

        // -- Mutation race: tombstone or append, mirrored on both copies.
        if cfg.mutate_every != 0 && round % cfg.mutate_every == cfg.mutate_every - 1 {
            if (round / cfg.mutate_every).is_multiple_of(2) && live.len() > 2 {
                let victim = live[rng.gen_range(0..live.len())].0;
                subject.tombstone(victim).expect("victim is live");
                control.tombstone(victim).expect("mirrored state");
                live.retain(|&(id, _)| id != victim);
                dead.push(victim);
                if pending.remove(&victim).is_some() {
                    report.retired += 1;
                }
                to_repair.remove(&victim);
                report.tombstones += 1;
            } else {
                let n = 48 + rng.gen_range(0usize..64);
                let tree = gen::random_tree(n, cfg.seed ^ next_id.wrapping_mul(0x9E37));
                let scheme = treelab_core::naive::NaiveScheme::build(&tree);
                subject.append_scheme(next_id, &scheme).expect("fresh id");
                control.append_scheme(next_id, &scheme).expect("fresh id");
                live.push((next_id, n));
                next_id += 1;
                report.appends += 1;
            }
        }

        // -- Fault injection: flip bits in live inner frames of the subject.
        let flips = cfg.flip_rate.floor() as usize
            + usize::from(unit() < cfg.flip_rate - cfg.flip_rate.floor());
        for _ in 0..flips {
            let (id, _) = live[rng.gen_range(0..live.len())];
            let extent = subject.frame_extent(id).expect("live id has an extent");
            let word = rng.gen_range(extent.start..extent.end);
            let bit = rng.gen_range(0u32..64);
            subject.corrupt_word(word, 1u64 << bit);
            pending.entry(id).or_insert(round);
            report.injected += 1;
        }

        // -- Routed batch, judged against the control.
        let queries = chaos_batch(&mut rng, cfg.batch, &live, &dead, round);
        statuses.clear();
        ctrl_statuses.clear();
        subject.try_route_distances_into(&queries, &mut scratch, &mut statuses);
        control.try_route_distances_into(&queries, &mut ctrl_scratch, &mut ctrl_statuses);
        report.queries += queries.len();
        for (i, (&got, &want)) in statuses.iter().zip(&ctrl_statuses).enumerate() {
            match (got, want) {
                (QueryStatus::Ok(a), QueryStatus::Ok(b)) if a == b => report.ok_correct += 1,
                (QueryStatus::Ok(_), _) => report.ok_wrong += 1,
                (QueryStatus::UnknownTree, QueryStatus::UnknownTree) => {
                    report.expected_unknown += 1
                }
                (QueryStatus::NodeOutOfRange, QueryStatus::NodeOutOfRange) => {
                    report.expected_out_of_range += 1
                }
                (QueryStatus::CorruptTree, _) => {
                    report.corrupt_reported += 1;
                    let id = queries[i].0;
                    if let Some(injected) = pending.remove(&id) {
                        report.detected_by_query += 1;
                        report.detection_latency_rounds += round - injected;
                    }
                    to_repair.insert(id);
                }
                _ => report.status_mismatches += 1,
            }
        }

        // -- Budgeted scrub: the background half of detection.  A fault
        // ends the scrub call early, so keep calling until the budget is
        // genuinely spent (`InProgress`/`PassComplete`) — one bad tree must
        // not forfeit the round's whole budget.
        if cfg.scrub_budget != 0 {
            while let ScrubOutcome::Fault { id, .. } = subject
                .scrub(cfg.scrub_budget, &mut scrubber)
                .expect("harness never corrupts the header/directory")
            {
                if let Some(injected) = pending.remove(&id) {
                    report.detected_by_scrub += 1;
                    report.detection_latency_rounds += round - injected;
                }
                to_repair.insert(id);
            }
        }

        // -- Repair from the control's replica frames.
        if cfg.repair {
            for id in std::mem::take(&mut to_repair) {
                if !matches!(
                    subject.slot_health(id),
                    Some(SlotHealth::Quarantined(_) | SlotHealth::Valid)
                ) {
                    continue; // tombstoned since detection
                }
                let replica = control
                    .tree(id)
                    .expect("control serves every live id")
                    .as_words()
                    .to_vec();
                subject.repair_frame(id, replica).expect("repair succeeds");
                pending.remove(&id);
                report.repairs += 1;
            }
        }

        // -- File-fault probes: truncation rejected, torn publish survived.
        if cfg.file_faults_every != 0 && round % cfg.file_faults_every == cfg.file_faults_every - 1
        {
            file_fault_probes(&subject, &mut report);
        }
    }

    report.undetected_at_end = pending.len();
    report.words_scrubbed = scrubber.stats().words_scrubbed;
    report
}

/// One round's routed batch: mostly live-tree queries, salted with queries
/// to dead/absent ids and out-of-range nodes so the `UnknownTree` /
/// `NodeOutOfRange` paths stay exercised.
fn chaos_batch(
    rng: &mut SplitMix64,
    batch: usize,
    live: &[(u64, usize)],
    dead: &[u64],
    round: usize,
) -> Vec<(u64, usize, usize)> {
    (0..batch)
        .map(|_| {
            let shape = rng.gen_range(0u32..100);
            if shape < 3 {
                let id = if dead.is_empty() || shape == 0 {
                    1_000_000 + round as u64
                } else {
                    dead[rng.gen_range(0..dead.len())]
                };
                (id, 0, 0)
            } else if shape < 5 {
                let (id, n) = live[rng.gen_range(0..live.len())];
                (id, n + rng.gen_range(0usize..4), 0)
            } else {
                let (id, n) = live[rng.gen_range(0..live.len())];
                (id, rng.gen_range(0..n), rng.gen_range(0..n))
            }
        })
        .collect()
}

/// The file-level legs of the chaos schedule: a truncated frame must be
/// rejected at open, and a publish over a stale torn `.tmp` (a simulated
/// crashed publish) must round-trip the exact frame.
fn file_fault_probes(subject: &ForestStore, report: &mut ChaosReport) {
    let dir = ScratchDir::new("chaos");
    let path = dir.join("probe.forest");
    let bytes = subject.to_bytes();

    // Truncation: cut the frame mid-directory and at a word boundary.
    let cut = (bytes.len() / 3) & !7;
    std::fs::write(&path, &bytes[..cut.max(8)]).expect("write truncated probe");
    if ForestStore::open(&path).is_err() {
        report.truncations_rejected += 1;
    }

    // Torn publish: a half-written `.tmp` left by a "crash" must not stop
    // the next publish, and the published file must round-trip bit for bit.
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    std::fs::write(
        std::path::PathBuf::from(tmp_name),
        &bytes[..bytes.len() / 2],
    )
    .expect("write torn tmp");
    subject.publish(&path).expect("publish over torn tmp");
    let back =
        ForestStore::open_with(&path, ValidationPolicy::Lazy).expect("published frame opens");
    if back.as_words() == subject.as_words() {
        report.torn_publishes_survived += 1;
    }
}

/// The ISSUE 8 acceptance scenario, end to end: corrupt `corrupt_fraction`
/// of the inner frames of a `trees × nodes_per_tree` mixed-scheme forest,
/// open it lazily, and prove that (1) every query to a healthy tree answers
/// bit-identically to an uncorrupted control, (2) every query to a corrupted
/// tree reports `CorruptTree` without panicking, (3) a budgeted scrub
/// quarantines exactly the corrupted set, and (4) after repairing every
/// quarantined slot from the control's replicas, a re-run is 100% `Ok` and
/// the repaired frame publishes and reopens cleanly.
///
/// Returns a human-readable summary on success and the first violated
/// invariant on failure.
pub fn acceptance(
    trees: usize,
    nodes_per_tree: usize,
    corrupt_fraction: f64,
    query_count: usize,
    seed: u64,
) -> Result<String, String> {
    let corpus = forest_corpus(trees, nodes_per_tree, seed);
    let control = build_mixed_forest(&corpus);
    let mut subject = ForestStore::from_bytes_with(&control.to_bytes(), ValidationPolicy::Lazy)
        .map_err(|e| format!("lazy open failed: {e}"))?;

    // Corrupt ⌈trees · fraction⌉ distinct inner frames, one bit flip each.
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xACCE_97ED);
    let n_corrupt = ((trees as f64 * corrupt_fraction).ceil() as usize).clamp(1, trees);
    let mut corrupted: BTreeSet<u64> = BTreeSet::new();
    while corrupted.len() < n_corrupt {
        let id = rng.gen_range(0u64..trees as u64);
        if corrupted.insert(id) {
            let extent = subject.frame_extent(id).expect("corpus id");
            let word = extent.start + rng.gen_range(0..extent.len());
            subject.corrupt_word(word, 1u64 << rng.gen_range(0u32..64));
        }
    }

    // Every tree gets coverage on top of the Zipf mix.
    let mut queries = skewed_forest_queries(&corpus, query_count, 1.1, seed ^ 1);
    for (id, tree) in &corpus {
        queries.push((*id, 0, tree.len() - 1));
    }

    let control_answers = control.route_distances(&queries);
    let statuses = subject.try_route_distances(&queries);
    let (mut healthy_ok, mut corrupt_seen) = (0usize, 0usize);
    for (i, (&status, &(id, u, v))) in statuses.iter().zip(&queries).enumerate() {
        if corrupted.contains(&id) {
            if status != QueryStatus::CorruptTree {
                return Err(format!(
                    "query {i} ({id},{u},{v}) to a corrupted tree answered {status:?}, \
                     want CorruptTree"
                ));
            }
            corrupt_seen += 1;
        } else {
            if status != QueryStatus::Ok(control_answers[i]) {
                return Err(format!(
                    "query {i} ({id},{u},{v}) to a healthy tree answered {status:?}, \
                     want Ok({})",
                    control_answers[i]
                ));
            }
            healthy_ok += 1;
        }
    }

    // A budgeted scrub must quarantine exactly the corrupted set.
    let mut scrubber = Scrubber::new();
    let mut found: BTreeSet<u64> = BTreeSet::new();
    loop {
        match subject
            .scrub(1 << 14, &mut scrubber)
            .map_err(|e| format!("scrub hit outer corruption: {e}"))?
        {
            ScrubOutcome::Fault { id, .. } => {
                found.insert(id);
            }
            ScrubOutcome::InProgress => {}
            ScrubOutcome::PassComplete => break,
        }
    }
    let quarantined: BTreeSet<u64> = subject.health().quarantined().collect();
    if quarantined != corrupted || !found.is_subset(&corrupted) {
        return Err(format!(
            "scrub quarantined {quarantined:?}, want exactly {corrupted:?}"
        ));
    }

    // Repair every quarantined slot from the control replicas; the re-run
    // must be 100% Ok and bit-identical to the control.
    for &id in &corrupted {
        let replica = control
            .tree(id)
            .expect("control is pristine")
            .as_words()
            .to_vec();
        subject
            .repair_frame(id, replica)
            .map_err(|e| format!("repair of tree {id} failed: {e}"))?;
    }
    if !subject.health().all_serving() {
        return Err("slots remain quarantined after repair".into());
    }
    let rerun = subject.try_route_distances(&queries);
    for (i, &status) in rerun.iter().enumerate() {
        if status != QueryStatus::Ok(control_answers[i]) {
            return Err(format!(
                "post-repair query {i} answered {status:?}, want Ok({})",
                control_answers[i]
            ));
        }
    }
    subject
        .verify()
        .map_err(|e| format!("post-repair verify failed: {e}"))?;

    // The repaired forest publishes crash-safely and reopens eagerly.
    let dir = ScratchDir::new("chaos");
    let path = dir.join("accept.forest");
    subject
        .publish(&path)
        .map_err(|e| format!("publish failed: {e}"))?;
    let reopened = ForestStore::open(&path).map_err(|e| format!("eager reopen failed: {e}"))?;
    if reopened.as_words() != subject.as_words() {
        return Err("published frame does not round-trip".into());
    }

    Ok(format!(
        "acceptance ok: {trees} trees × {nodes_per_tree} nodes, {} corrupted; \
         {healthy_ok} healthy queries bit-identical to control, {corrupt_seen} degraded to \
         CorruptTree, 0 panics; scrub quarantined exactly the corrupted set; \
         post-repair re-run 100% Ok and published frame round-trips",
        corrupted.len()
    ))
}

/// The CI chaos-smoke gate (`experiments -- --chaos --smoke`): replays the
/// acceptance scenario plus a fixed seeded chaos schedule with and without
/// scrubbing, and fails on any availability / safety / detection regression.
///
/// Every run is fully deterministic, so the thresholds are tight around the
/// recorded-at-review values rather than statistical.
///
/// # Errors
///
/// Returns a description of the first violated invariant; the binary exits
/// nonzero on it.
pub fn chaos_smoke(quick: bool) -> Result<String, String> {
    let (trees, npt, queries) = if quick {
        (16, 512, 2048)
    } else {
        (64, 16384, 8192)
    };
    let accept = acceptance(trees, npt, 0.05, queries, 2017)?;

    let healing = ChaosConfig::smoke(2017);
    let degraded = ChaosConfig {
        scrub_budget: 0,
        repair: false,
        ..healing
    };
    let with = run_chaos(&healing);
    let without = run_chaos(&degraded);

    for (name, r) in [("with-scrub", &with), ("no-scrub", &without)] {
        if r.status_mismatches != 0 {
            return Err(format!(
                "{name}: {} subject/control status mismatches (want 0)",
                r.status_mismatches
            ));
        }
    }
    let probes = healing.rounds / healing.file_faults_every;
    if with.truncations_rejected != probes {
        return Err(format!(
            "truncated frames rejected {}/{probes} probes",
            with.truncations_rejected
        ));
    }
    if with.torn_publishes_survived != probes {
        return Err(format!(
            "torn publishes survived {}/{probes} probes",
            with.torn_publishes_survived
        ));
    }
    if with.availability() < 0.97 {
        return Err(format!(
            "with-scrub availability {:.4} below the 0.97 floor",
            with.availability()
        ));
    }
    if with.availability() <= without.availability() {
        return Err(format!(
            "scrub+repair availability {:.4} does not beat no-scrub {:.4}",
            with.availability(),
            without.availability()
        ));
    }
    if with.safe_fraction() < without.safe_fraction() {
        return Err(format!(
            "scrub+repair safe fraction {:.4} below no-scrub {:.4}",
            with.safe_fraction(),
            without.safe_fraction()
        ));
    }
    if with.detection_rate() < 0.95 {
        return Err(format!(
            "with-scrub detection rate {:.4} below the 0.95 floor",
            with.detection_rate()
        ));
    }
    if with.undetected_at_end > without.undetected_at_end {
        return Err(format!(
            "scrubbing left {} faults undetected vs {} without",
            with.undetected_at_end, without.undetected_at_end
        ));
    }

    Ok(format!(
        "chaos smoke ok: {accept}; schedule seed {}: availability {:.2}% with \
         scrub+repair vs {:.2}% without, {} wrong answers vs {}, detection \
         {:.0}%/{:.0}% at mean latency {:.2}/{:.2} rounds, {} repairs, \
         {probes}/{probes} truncations rejected, {probes}/{probes} torn \
         publishes survived",
        healing.seed,
        100.0 * with.availability(),
        100.0 * without.availability(),
        with.ok_wrong,
        without.ok_wrong,
        100.0 * with.detection_rate(),
        100.0 * without.detection_rate(),
        with.mean_detection_latency(),
        without.mean_detection_latency(),
        with.repairs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_runs_are_replayed_bit_identically() {
        let cfg = ChaosConfig {
            trees: 6,
            nodes_per_tree: 80,
            rounds: 12,
            batch: 64,
            flip_rate: 0.75,
            scrub_budget: 1 << 12,
            repair: true,
            mutate_every: 5,
            file_faults_every: 0,
            seed: 42,
        };
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a, b);
        assert!(a.queries > 0 && a.injected > 0);
        assert_eq!(a.status_mismatches, 0);
    }

    #[test]
    fn acceptance_scenario_passes_at_test_scale() {
        let report = acceptance(12, 160, 0.05, 512, 2017).expect("acceptance holds");
        assert!(report.contains("acceptance ok"));
    }

    #[test]
    fn smoke_gate_passes_in_quick_mode() {
        let summary = chaos_smoke(true).expect("smoke gate holds");
        assert!(summary.contains("chaos smoke ok"));
    }
}
