//! The ISSUE-8 acceptance scenario and the deterministic chaos harness,
//! driven end to end through the `treelab-bench` fault injector.
//!
//! The default run exercises the acceptance invariants at a scale CI can
//! afford; set `TREELAB_CHAOS_FULL=1` to replay it at the full serving shape
//! (64 trees × 16k nodes, treebench's routed-zipf forest — the configuration
//! recorded in EXPERIMENTS.md as E17's companion gate).

use treelab_bench::chaos::{acceptance, chaos_smoke, run_chaos, ChaosConfig};

/// Acceptance: with 5% of inner frames corrupted, every healthy-tree query
/// answers bit-identically to an uncorrupted control, every corrupted-tree
/// query reports `CorruptTree` without panicking, a budgeted scrub
/// quarantines exactly the corrupted set, and after repairing every
/// quarantined slot a re-run is 100% `Ok`.
#[test]
fn acceptance_holds_with_five_percent_of_frames_corrupted() {
    let (trees, nodes_per_tree, queries) = if std::env::var_os("TREELAB_CHAOS_FULL").is_some() {
        (64, 16384, 8192) // the routed-zipf forest shape
    } else {
        (24, 768, 4096)
    };
    let summary = acceptance(trees, nodes_per_tree, 0.05, queries, 2017)
        .expect("every acceptance invariant holds");
    assert!(summary.contains("acceptance ok"), "{summary}");
}

/// The same config must replay to the *same* report, counter for counter —
/// the property that makes every chaos failure reproducible from its seed.
#[test]
fn chaos_schedules_replay_bit_identically() {
    let cfg = ChaosConfig {
        trees: 10,
        nodes_per_tree: 256,
        rounds: 24,
        batch: 128,
        flip_rate: 1.25,
        scrub_budget: 1 << 13,
        repair: true,
        mutate_every: 6,
        file_faults_every: 11,
        seed: 0xD15EA5E,
    };
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert_eq!(a, b);
    assert!(a.injected > 0, "schedule must actually inject faults");
    assert_eq!(
        a.status_mismatches, 0,
        "subject must never disagree unsafely"
    );
    let probes = cfg.rounds / cfg.file_faults_every;
    assert_eq!(a.truncations_rejected, probes);
    assert_eq!(a.torn_publishes_survived, probes);
}

/// Scrubbing + repair must strictly improve the run: more faults detected,
/// availability at least as high, and no more wrong answers than the
/// identical schedule served without healing.
#[test]
fn scrubbing_and_repair_beat_the_unscrubbed_replay() {
    let healing = ChaosConfig::smoke(99);
    let degraded = ChaosConfig {
        scrub_budget: 0,
        repair: false,
        ..healing
    };
    let with = run_chaos(&healing);
    let without = run_chaos(&degraded);
    assert_eq!(with.status_mismatches, 0);
    assert_eq!(without.status_mismatches, 0);
    assert!(
        with.detected_by_query + with.detected_by_scrub
            >= without.detected_by_query + without.detected_by_scrub,
        "healing run detected fewer faults"
    );
    assert!(
        with.availability() >= without.availability(),
        "healing run was less available: {:.4} vs {:.4}",
        with.availability(),
        without.availability()
    );
    assert!(
        with.ok_wrong <= without.ok_wrong,
        "healing run served more wrong answers: {} vs {}",
        with.ok_wrong,
        without.ok_wrong
    );
    assert!(with.repairs > 0, "healing run must actually repair");
}

/// The CI gate itself stays green at quick scale.
#[test]
fn chaos_smoke_gate_passes() {
    let summary = chaos_smoke(true).expect("smoke gate holds");
    assert!(summary.contains("chaos smoke ok"), "{summary}");
}
