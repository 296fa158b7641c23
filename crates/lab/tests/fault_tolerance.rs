//! The fault-tolerance matrix: supervised sharded sweeps under injected
//! crashes, hangs, I/O errors and corruption must merge to aggregates
//! **bit-identical** to a fault-free single-process run — and a shard that
//! exhausts its retry budget must degrade the outcome gracefully instead of
//! killing the survivors.
//!
//! Worker processes are the real `shard_worker` binary
//! (`CARGO_BIN_EXE_shard_worker`); faults are injected per attempt through
//! the supervisor's launcher via `NCG_FAULT`, so a retry of a faulted
//! attempt runs clean — exactly the transient-fault model the supervisor is
//! built for. Tests that arm no in-process faults run freely in parallel;
//! everything here keeps the fault table of *this* process empty (faults
//! live in the children's environments).

use ncg_lab::orchestrator::{run_sweep, PointOutcome, RunOptions};
use ncg_lab::plan::SweepPlan;
use ncg_lab::scenario::Scenario;
use ncg_lab::supervisor::{supervise, ShardRuntime, SupervisedOutcome, SupervisorConfig};
use ncg_lab::{load_journal, ShardSpec};
use std::path::PathBuf;
use std::process::Command;

fn tiny_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fault-matrix");
    plan.scenarios = vec![Scenario::RingLattice { k: 2 }, Scenario::TorusGrid];
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

fn fast_cfg(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        shards,
        max_attempts: 4,
        backoff_base_ms: 10,
        backoff_cap_ms: 80,
        stall_timeout_ms: 20_000,
        poll_ms: 5,
        threads_per_shard: Some(1),
    }
}

fn worker_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_shard_worker"));
    cmd.env_remove("NCG_FAULT");
    cmd
}

/// Launcher injecting `fault` into `shard`'s environment on its first
/// attempt only — the transient-fault model: the retry runs clean.
fn fault_on_first_attempt(shard: usize, fault: &'static str) -> impl Fn(&ShardRuntime) -> Command {
    move |rt: &ShardRuntime| {
        let mut cmd = worker_cmd();
        if rt.shard.index == shard && rt.attempt == 0 {
            cmd.env("NCG_FAULT", fault);
        }
        cmd
    }
}

fn assert_outcome_matches(expected: &[PointOutcome], outcome: &SupervisedOutcome) {
    assert!(outcome.merged.completed, "merged sweep complete");
    assert!(!outcome.degraded, "no shard gave up");
    assert!(outcome.merged.incomplete_points.is_empty());
    assert_bit_identical(expected, &outcome.merged.points);
}

#[test]
fn supervised_fault_free_runs_match_the_single_process_baseline() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    for shards in [1, 2, 3] {
        let dir = tmp_dir(&format!("clean-{shards}"));
        let outcome =
            supervise(&plan, &dir, &fast_cfg(shards), |_| worker_cmd()).expect("supervise");
        assert_outcome_matches(&expected, &outcome);
        for report in &outcome.shards {
            assert!(report.completed);
            assert_eq!(report.attempts, 1, "clean shard needs one attempt");
            assert_eq!(report.crashes, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn worker_killed_at_sampled_journal_byte_offsets_recovers_bit_identical() {
    let plan = tiny_plan();
    let expected = baseline(&plan);

    // Measure how many journal bytes a clean shard-0 run writes, so the
    // sampled kill offsets span header, record interiors and boundaries.
    let probe = tmp_dir("killbyte-probe");
    let clean = supervise(&plan, &probe, &fast_cfg(2), |_| worker_cmd()).expect("probe");
    assert!(clean.merged.completed);
    let journal_len = std::fs::metadata(probe.join(ShardSpec::new(0, 2).journal_name()))
        .expect("shard 0 journal")
        .len();
    std::fs::remove_dir_all(&probe).ok();
    assert!(journal_len > 64, "probe journal implausibly small");

    // Every-byte coverage is the harness's contract; CI time is not infinite,
    // so sample offsets densely enough to land in the header, at record
    // boundaries and mid-record. Release mode samples twice as hard.
    let samples: u64 = if cfg!(debug_assertions) { 8 } else { 16 };
    for i in 0..samples {
        let offset = i * (journal_len - 1) / (samples - 1);
        let spec: &'static str =
            Box::leak(format!("journal-append:killbyte@{offset}").into_boxed_str());
        let dir = tmp_dir(&format!("killbyte-{offset}"));
        let outcome = supervise(&plan, &dir, &fast_cfg(2), fault_on_first_attempt(0, spec))
            .unwrap_or_else(|e| panic!("supervise with kill at byte {offset}: {e}"));
        assert_outcome_matches(&expected, &outcome);
        assert!(
            outcome.shards[0].crashes >= 1,
            "kill at byte {offset} must have crashed shard 0"
        );
        assert_eq!(outcome.shards[1].attempts, 1, "shard 1 untouched");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hung_worker_is_killed_and_retried_to_a_bit_identical_result() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let dir = tmp_dir("hang");
    let cfg = SupervisorConfig {
        stall_timeout_ms: 600,
        ..fast_cfg(2)
    };
    let outcome = supervise(
        &plan,
        &dir,
        &cfg,
        fault_on_first_attempt(0, "chunk-run:hang"),
    )
    .expect("supervise");
    assert_outcome_matches(&expected, &outcome);
    assert_eq!(
        outcome.shards[0].hang_kills, 1,
        "the hang must be detected by the no-progress deadline"
    );
    assert_eq!(outcome.shards[0].attempts, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_journal_io_error_crashes_the_worker_and_retry_recovers() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let dir = tmp_dir("journal-err");
    let outcome = supervise(
        &plan,
        &dir,
        &fast_cfg(2),
        fault_on_first_attempt(0, "journal-append:err:hits=2"),
    )
    .expect("supervise");
    assert_outcome_matches(&expected, &outcome);
    assert_eq!(
        outcome.shards[0].crashes, 1,
        "worker exits on journal error"
    );
    assert_eq!(outcome.shards[0].attempts, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_journal_record_leaves_a_hole_the_supervisor_repairs() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let dir = tmp_dir("corrupt");
    // The worker mangles one record's bytes, finishes, and exits 0 — the
    // exit code lies. Only the supervisor's journal-completeness audit (the
    // checksum rejects the mangled line, leaving a hole) catches it.
    let outcome = supervise(
        &plan,
        &dir,
        &fast_cfg(2),
        fault_on_first_attempt(0, "journal-append:corrupt"),
    )
    .expect("supervise");
    assert_outcome_matches(&expected, &outcome);
    assert_eq!(
        outcome.shards[0].crashes, 1,
        "exit-0-but-incomplete must count as a failed attempt"
    );
    assert_eq!(outcome.shards[0].attempts, 2);
    assert!(
        outcome.merged.skipped_lines >= 1,
        "the mangled record must have been checksum-rejected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_io_error_degrades_but_never_costs_data_or_retries() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let dir = tmp_dir("telemetry-err");
    let outcome = supervise(
        &plan,
        &dir,
        &fast_cfg(2),
        fault_on_first_attempt(0, "telemetry-append:err"),
    )
    .expect("supervise");
    assert_outcome_matches(&expected, &outcome);
    assert_eq!(
        outcome.shards[0].attempts, 1,
        "telemetry is best-effort: its failure must not fail the shard"
    );
    assert_eq!(outcome.shards[0].crashes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retry_budget_exhaustion_degrades_gracefully_without_killing_survivors() {
    let plan = tiny_plan();
    let expected = baseline(&plan);
    let dir = tmp_dir("budget");
    let cfg = SupervisorConfig {
        max_attempts: 2,
        ..fast_cfg(2)
    };
    // A *persistent* fault: every attempt of shard 0 dies at its first chunk
    // claim, so the retry budget runs out with the shard's work undone.
    let outcome = supervise(&plan, &dir, &cfg, |rt: &ShardRuntime| {
        let mut cmd = worker_cmd();
        if rt.shard.index == 0 {
            cmd.env("NCG_FAULT", "chunk-run:kill");
        }
        cmd
    })
    .expect("supervise must not error on a dead shard");
    assert!(outcome.degraded, "a shard gave up");
    assert!(!outcome.merged.completed);
    assert!(
        !outcome.merged.incomplete_points.is_empty(),
        "the dead shard's unfinished points must be named"
    );
    assert_eq!(outcome.shards[0].attempts, 2, "budget spent");
    assert_eq!(outcome.shards[0].crashes, 2);
    assert!(!outcome.shards[0].completed);
    assert!(outcome.shards[1].completed, "survivor finished its shard");
    assert_eq!(outcome.shards[1].crashes, 0);

    // Whatever *is* complete must still be bit-identical to the baseline.
    let incomplete = &outcome.merged.incomplete_points;
    let mut checked = 0;
    for (e, a) in expected.iter().zip(&outcome.merged.points) {
        if incomplete.contains(&e.point.label()) {
            continue;
        }
        assert_bit_identical(std::slice::from_ref(e), std::slice::from_ref(a));
        checked += 1;
    }
    assert!(
        checked < expected.len(),
        "shard 0 owned at least one chunk, so at least one point is short"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite S3 — the journal itself survives truncation at *every* byte
/// offset: load never misparses, resume never double-counts, and the resumed
/// sweep is bit-identical to the baseline. Every offset is exercised in
/// release mode; debug strides to keep the suite fast.
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
