//! The in-process half of the fault matrix: the journal itself must survive
//! truncation at every byte offset, and a telemetry stream that fails
//! mid-run must degrade without costing the sweep any data. Both assert
//! aggregates **bit-identical** to a fault-free run. The sharded cells —
//! worker kills, hangs, journal I/O errors, lying exits and retry budgets —
//! run over real worker processes in `tests/transport.rs`.
//!
//! The fault table is process-global: the telemetry cell arms it under
//! [`faultpoint::test_lock`], and no other test in this binary writes
//! telemetry.

use ncg_lab::faultpoint;
use ncg_lab::load_journal;
use ncg_lab::orchestrator::{run_sweep, PointOutcome, RunOptions};
use ncg_lab::plan::SweepPlan;
use ncg_lab::scenario::Scenario;
use ncg_sim::InitialTopology;
use std::path::PathBuf;

fn tiny_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fault-matrix");
    plan.scenarios = vec![
        Scenario::Paper(InitialTopology::Budgeted { k: 1 }),
        Scenario::Paper(InitialTopology::Budgeted { k: 3 }),
    ];
    plan.families = vec![ncg_sim::GameFamily::AsgSum];
    plan.policies = vec![ncg_core::policy::Policy::MaxCost];
    plan.ns = vec![8, 10];
    plan.trials = 4;
    plan.chunk_size = 2;
    plan // 4 points × 2 chunks = 8 jobs
}

fn baseline(plan: &SweepPlan) -> Vec<PointOutcome> {
    let opts = RunOptions {
        threads: Some(1),
        ..RunOptions::default()
    };
    let out = run_sweep(plan, &opts).expect("baseline sweep");
    assert!(out.completed);
    out.points
}

/// Asserts two point sets carry *bit-identical* aggregates — IEEE bit
/// patterns of the Welford accumulators included, the reproducibility bar of
/// the whole journal/shard/merge stack.
fn assert_bit_identical(expected: &[PointOutcome], actual: &[PointOutcome]) {
    assert_eq!(expected.len(), actual.len(), "point count");
    for (e, a) in expected.iter().zip(actual) {
        let label = e.point.label();
        assert_eq!(label, a.point.label(), "plan order");
        assert_eq!(e.stats.count, a.stats.count, "{label}: count");
        assert_eq!(e.stats.total_steps, a.stats.total_steps, "{label}: steps");
        assert_eq!(e.stats.min_steps, a.stats.min_steps, "{label}: min");
        assert_eq!(e.stats.max_steps, a.stats.max_steps, "{label}: max");
        assert_eq!(
            e.stats.non_converged, a.stats.non_converged,
            "{label}: non_converged"
        );
        assert_eq!(e.stats.kinds, a.stats.kinds, "{label}: move kinds");
        assert_eq!(
            e.stats.mean.to_bits(),
            a.stats.mean.to_bits(),
            "{label}: mean bits"
        );
        assert_eq!(
            e.stats.m2.to_bits(),
            a.stats.m2.to_bits(),
            "{label}: m2 bits"
        );
        assert_eq!(e.stats.hist, a.stats.hist, "{label}: histogram");
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncg-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn telemetry_io_error_degrades_but_never_costs_data_or_retries() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let dir = tmp_dir("telemetry-err");
    let journal = dir.join("journal.jsonl");
    let opts = RunOptions {
        threads: Some(1),
        journal: Some(journal.clone()),
        telemetry: Some(dir.join("telemetry.jsonl")),
        ..RunOptions::default()
    };
    let outcome = {
        let _guard = faultpoint::test_lock();
        faultpoint::arm("telemetry-append:err");
        let outcome = run_sweep(&plan, &opts);
        faultpoint::disarm();
        outcome.expect("telemetry is best-effort: its failure must not fail the sweep")
    };
    assert!(outcome.completed);
    assert!(
        outcome.telemetry_degraded,
        "the dark stream must be recorded"
    );
    assert_bit_identical(&expected, &outcome.points);
    let contents = load_journal(&journal, plan.plan_hash()).expect("journal intact");
    assert_eq!(contents.chunks.len(), 8, "every chunk journaled");
    assert_eq!(contents.skipped_lines, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal itself survives truncation at *every* byte offset: load
/// never misparses, resume never double-counts, and the resumed sweep is
/// bit-identical to the baseline. Every offset is exercised in release
/// mode; debug strides to keep the suite fast.
#[test]
fn journal_recovery_is_bit_identical_at_every_truncation_offset() {
    let plan = tiny_plan();
    let plan_hash = plan.plan_hash();
    let expected = baseline(&plan);

    let dir = tmp_dir("truncate");
    let full_path = dir.join("full.jsonl");
    let opts = RunOptions {
        threads: Some(1),
        journal: Some(full_path.clone()),
        ..RunOptions::default()
    };
    let full_run = run_sweep(&plan, &opts).expect("journaled run");
    assert!(full_run.completed);
    let bytes = std::fs::read(&full_path).expect("journal bytes");
    let full = load_journal(&full_path, plan_hash).expect("full journal parses");
    let total_chunks = full.chunks.len();
    assert_eq!(total_chunks, 8);

    let stride = if cfg!(debug_assertions) { 7 } else { 1 };
    let mut cut = 0usize;
    while cut <= bytes.len() {
        let path = dir.join("cut.jsonl");
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // Never misparse: every record that survives the cut must equal its
        // counterpart in the intact journal, bit for bit.
        match load_journal(&path, plan_hash) {
            Ok(contents) => {
                for (key, rec) in &contents.chunks {
                    assert_eq!(
                        Some(rec),
                        full.chunks.get(key),
                        "cut at byte {cut}: record {key:?} must match the intact journal"
                    );
                }
            }
            Err(e) => {
                // Only a destroyed header is allowed to fail the load — and
                // resume must then start the journal over, not abort.
                assert!(
                    ncg_lab::journal::header_is_damaged(&e),
                    "cut at byte {cut}: unexpected load error: {e}"
                );
            }
        }

        // Never double-count, always bit-identical: a resume from the
        // truncated journal re-executes exactly the missing chunks.
        let opts = RunOptions {
            threads: Some(1),
            journal: Some(path.clone()),
            resume: true,
            ..RunOptions::default()
        };
        let resumed = run_sweep(&plan, &opts)
            .unwrap_or_else(|e| panic!("resume from cut at byte {cut}: {e}"));
        assert!(resumed.completed, "cut at byte {cut}");
        assert_eq!(
            resumed.resumed_chunks + resumed.executed_chunks,
            total_chunks,
            "cut at byte {cut}: resumed + executed must cover the plan exactly"
        );
        assert_bit_identical(&expected, &resumed.points);

        if cut == bytes.len() {
            break;
        }
        cut = (cut + stride).min(bytes.len());
    }
    std::fs::remove_dir_all(&dir).ok();
}
