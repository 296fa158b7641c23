//! The orchestrator's headline guarantee: a `SweepPlan` produces
//! **bit-identical** per-point aggregates when run with 1 worker, with many
//! workers, and when killed mid-sweep and resumed from its journal.

use ncg_core::policy::Policy;
use ncg_lab::{run_sweep, RunOptions, Scenario, SweepPlan};
use ncg_sim::{GameFamily, InitialTopology, StreamingStats};
use std::path::PathBuf;

fn plan() -> SweepPlan {
    let mut plan = SweepPlan::new("repro");
    plan.scenarios = vec![
        Scenario::Paper(InitialTopology::Budgeted { k: 2 }),
        Scenario::Paper(InitialTopology::RandomEdges { m_per_n: 2 }),
        Scenario::Paper(InitialTopology::RandomLine),
    ];
    plan.families = vec![GameFamily::AsgSum, GameFamily::GbgSum];
    plan.policies = vec![Policy::MaxCost];
    plan.ns = vec![10, 12];
    plan.trials = 6;
    plan.chunk_size = 2;
    plan.base_seed = 2024;
    plan
}

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncg-lab-repro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.jsonl"))
}

fn aggregates(points: &[ncg_lab::PointOutcome]) -> Vec<(String, StreamingStats)> {
    points
        .iter()
        .map(|p| (p.point.label(), p.stats.clone()))
        .collect()
}

/// Bitwise equality, including the floating-point moments.
fn assert_identical(a: &[(String, StreamingStats)], b: &[(String, StreamingStats)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: point count");
    for ((la, sa), (lb, sb)) in a.iter().zip(b) {
        assert_eq!(la, lb, "{what}: point order");
        assert_eq!(sa.count, sb.count, "{what}: {la}");
        assert_eq!(sa.total_steps, sb.total_steps, "{what}: {la}");
        assert_eq!(sa.hist, sb.hist, "{what}: {la}");
        assert_eq!(sa.kinds, sb.kinds, "{what}: {la}");
        assert_eq!(
            sa.mean.to_bits(),
            sb.mean.to_bits(),
            "{what}: {la} mean must be bit-identical"
        );
        assert_eq!(
            sa.m2.to_bits(),
            sb.m2.to_bits(),
            "{what}: {la} m2 must be bit-identical"
        );
    }
}

#[test]
fn thread_count_and_kill_resume_are_bit_identical() {
    let plan = plan();

    // Reference: single worker, no journal.
    let single = run_sweep(
        &plan,
        &RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("single-threaded sweep");
    assert!(single.completed);
    let reference = aggregates(&single.points);
    assert!(
        reference.iter().all(|(_, s)| s.count == 6),
        "every point aggregated all trials"
    );

    // Many workers (more than this machine has cores).
    let many = run_sweep(
        &plan,
        &RunOptions {
            threads: Some(5),
            ..RunOptions::default()
        },
    )
    .expect("multi-threaded sweep");
    assert!(many.completed);
    assert_identical(&reference, &aggregates(&many.points), "1 vs 5 workers");

    // Kill mid-sweep (after 7 of the 36 chunks), then resume from the journal.
    let journal = tmp_journal("kill-resume");
    let killed = run_sweep(
        &plan,
        &RunOptions {
            threads: Some(2),
            journal: Some(journal.clone()),
            resume: false,
            stop_after_chunks: Some(7),
            ..RunOptions::default()
        },
    )
    .expect("interrupted sweep");
    assert!(!killed.completed, "the simulated kill must interrupt");
    assert!(killed.executed_chunks >= 7);

    let resumed = run_sweep(
        &plan,
        &RunOptions {
            threads: Some(3),
            journal: Some(journal.clone()),
            resume: true,
            stop_after_chunks: None,
            ..RunOptions::default()
        },
    )
    .expect("resumed sweep");
    assert!(resumed.completed);
    assert_eq!(
        resumed.resumed_chunks, killed.executed_chunks,
        "every journaled chunk is restored, none re-run"
    );
    assert_eq!(
        resumed.resumed_chunks + resumed.executed_chunks,
        36,
        "3 scenarios × 2 families × 2 n × 3 chunks"
    );
    assert_identical(&reference, &aggregates(&resumed.points), "kill/resume");

    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_rejects_a_changed_plan() {
    let journal = tmp_journal("plan-guard");
    let original = plan();
    run_sweep(
        &original,
        &RunOptions {
            threads: Some(1),
            journal: Some(journal.clone()),
            resume: false,
            stop_after_chunks: Some(2),
            ..RunOptions::default()
        },
    )
    .expect("seed journal");

    let mut changed = plan();
    changed.base_seed ^= 0xff;
    let err = run_sweep(
        &changed,
        &RunOptions {
            threads: Some(1),
            journal: Some(journal.clone()),
            resume: true,
            stop_after_chunks: None,
            ..RunOptions::default()
        },
    )
    .expect_err("foreign journal must be rejected");
    assert!(err.to_string().contains("belongs to plan"));
    std::fs::remove_file(&journal).ok();
}
