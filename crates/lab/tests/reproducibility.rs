//! The orchestrator's headline guarantee: a `SweepPlan` (a test grid, or one
//! of the paper's figures) produces **bit-identical** per-point aggregates
//! when run with 1 worker, with many workers, and when killed mid-sweep and
//! resumed from its journal.

use ncg_core::policy::Policy;
use ncg_lab::{figures, run_sweep, RunOptions, Scenario, SweepPlan};
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

/// 1 worker ≡ 5 workers, and a kill after `kill_after` chunks resumed from
/// the journal ≡ the uninterrupted run, bit for bit. Returns the number of
/// chunks the resumed run covered.
fn check_thread_count_and_kill_resume(plan: &SweepPlan, kill_after: usize, tag: &str) -> usize {
    // Reference: single worker, no journal.
    let single = run_sweep(
        plan,
        &RunOptions {
            threads: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("single-threaded sweep");
    assert!(single.completed);
    let reference = aggregates(&single.points);
    assert!(
        reference.iter().all(|(_, s)| s.count == plan.trials as u64),
        "{tag}: every point aggregated all trials"
    );

    // Many workers (more than this machine has cores).
    let many = run_sweep(
        plan,
        &RunOptions {
            threads: Some(5),
            ..RunOptions::default()
        },
    )
    .expect("multi-threaded sweep");
    assert!(many.completed);
    assert_identical(
        &reference,
        &aggregates(&many.points),
        &format!("{tag}: 1 vs 5 workers"),
    );

    // Kill mid-sweep, then resume from the journal.
    let journal = tmp_journal(tag);
    let killed = run_sweep(
        plan,
        &RunOptions {
            threads: Some(2),
            journal: Some(journal.clone()),
            resume: false,
            stop_after_chunks: Some(kill_after),
            ..RunOptions::default()
        },
    )
    .expect("interrupted sweep");
    assert!(
        !killed.completed,
        "{tag}: the simulated kill must interrupt"
    );
    assert!(killed.executed_chunks >= kill_after);

    let resumed = run_sweep(
        plan,
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
        "{tag}: every journaled chunk is restored, none re-run"
    );
    assert_identical(
        &reference,
        &aggregates(&resumed.points),
        &format!("{tag}: kill/resume"),
    );

    std::fs::remove_file(&journal).ok();
    resumed.resumed_chunks + resumed.executed_chunks
}

#[test]
fn thread_count_and_kill_resume_are_bit_identical() {
    // Kill after 7 of the 36 chunks.
    assert_eq!(
        check_thread_count_and_kill_resume(&plan(), 7, "kill-resume"),
        36,
        "3 scenarios × 2 families × 2 n × 3 chunks"
    );
    // A figure plan (random, `rl` and `dl` starts under both policies),
    // killed halfway.
    let fig12 = figures::fig12().scaled(20, 1, 4).plan;
    let chunks: usize = fig12.flatten().iter().map(|p| fig12.chunks(p).len()).sum();
    assert_eq!(
        chunks,
        3 * 4 * 2 * 2 * 4,
        "3 starts × 4 α × 2 policies × 2 n × 4 chunks"
    );
    assert_eq!(
        check_thread_count_and_kill_resume(&fig12, chunks / 2, "fig12-kill-resume"),
        chunks
    );
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
